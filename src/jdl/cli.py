"""The ``jdl`` command.

    jdl verify <id> --points N --seed S

runs the dual-pair checks on the catalog entry ``<id>`` (see
:mod:`jdl.catalog`) at N points sampled from its source chart with seed S,
and prints one JSON line per report, ``CheckReport.as_dict()``.  A check
that raises a ``JdlError`` or ``ValueError`` prints one line with its name,
status ``"error"`` and the exception instead; today that is
``check_morphisms`` on broken-transv, whose leg onto a point chart takes
the max of an empty array.  The exit status is 0 when every report passes, 1 when
one fails or a check raises, and 2 on a usage error such as an unknown id.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import catalog, dualpair, homogenize
from .chart import sample_points
from .errors import JdlError, UnknownId

CHECKS = (
    ("check_morphisms", lambda dp, pts: dp.check_morphisms(pts)),
    ("verify_dual_pair",
     lambda dp, pts: list(dualpair.verify_dual_pair(dp, pts).values())),
    ("check_rank_relation",
     lambda dp, pts: [dualpair.check_rank_relation(dp, pts)]),
    ("check_corollary_decomposition",
     lambda dp, pts: [dualpair.check_corollary_decomposition(dp, pts)]),
    ("check_vertical_dim_sum",
     lambda dp, pts: [dualpair.check_vertical_dim_sum(dp, pts)]),
    ("check_homogeneous_sdp_equivalence",
     lambda dp, pts: [homogenize.check_homogeneous_sdp_equivalence(dp, pts)]),
)


def verify(spec_id, points, seed):
    """Run every check on ``spec_id`` and print its JSON lines; return the
    exit status."""
    dp = catalog.build(spec_id)
    pts = sample_points(dp.source.chart, points, seed=seed)
    status = 0
    for name, check in CHECKS:
        try:
            lines = [rep.as_dict() for rep in check(dp, pts)]
        except (JdlError, ValueError) as exc:  # reported, not fatal
            lines = [{"check_id": name, "status": "error",
                      "error": f"{type(exc).__name__}: {exc}"}]
        for line in lines:
            if line["status"] != "pass":
                status = 1
            print(json.dumps(line))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jdl", description="Check contact dual pairs numerically.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "verify", help="run the dual-pair checks on a catalog entry")
    run.add_argument("spec_id", metavar="id",
                     help=f"catalog id: {', '.join(catalog.BUILDERS)}")
    run.add_argument("--points", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        return verify(args.spec_id, args.points, args.seed)
    except UnknownId as exc:
        print(f"jdl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
