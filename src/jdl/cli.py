"""The ``jdl`` command.

    jdl verify <id> --points N --seed S

runs the checks of the catalog entry ``<id>``'s kind, the table
:data:`jdl.catalog.CHECKS`, at N points drawn with seed S by
:func:`jdl.catalog.points`, and prints one JSON line per report,
``CheckReport.as_dict()``.  A check that raises a ``JdlError`` or
``ValueError`` prints one line with its name, status ``"error"`` and the
exception instead; today those are ``check_morphisms``,
``check_pullback_distribution`` and ``verify_leaf_correspondence`` on
broken-transv, whose leg onto a point chart leaves them empty arrays to
reduce.  The exit status is 0 when every report passes, 1 when one fails, a
check raises or standard output closes before the last line (``jdl verify
... | head -1``; that ends quietly, without a traceback), and 2 on a usage
error such as an unknown id, ``--points`` below 1 or ``--seed`` below 0,
with a one-line message.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .errors import JdlError, UnknownId


def verify(spec_id, points, seed):
    """Run the checks of ``spec_id``'s kind and print their JSON lines;
    return the exit status."""
    checks = catalog.CHECKS[catalog.kind(spec_id)]
    obj = catalog.build(spec_id)
    pts = catalog.points(obj, points, seed)
    status = 0
    for name, check in checks:
        try:
            lines = [rep.as_dict() for rep in check(obj, pts)]
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
        "verify", help="run the checks of a catalog entry")
    run.add_argument("spec_id", metavar="id",
                     help=f"catalog id: {', '.join(catalog.ENTRIES)}")
    run.add_argument("--points", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for flag, least in (("points", 1), ("seed", 0)):
        if (value := getattr(args, flag)) < least:
            print(f"jdl: --{flag} must be at least {least}, got {value}",
                  file=sys.stderr)
            return 2
    try:
        status = verify(args.spec_id, args.points, args.seed)
        sys.stdout.flush()
        return status
    except UnknownId as exc:
        print(f"jdl: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
