"""Rewrite ``verify.jsonl``: the JSON lines of ``jdl verify <id> --points 10
--seed 1`` for every catalog id, in catalog order, each tagged with its
``spec_id`` and without ``wall_time``.

    PYTHONPATH=src python tests/golden/regen.py

``tests/test_golden.py`` compares the command's output with this file.
"""
import contextlib
import io
import json
from pathlib import Path

from jdl import catalog
from jdl.cli import main

GOLDEN = Path(__file__).resolve().parent / "verify.jsonl"
ARGS = ("--points", "10", "--seed", "1")


def verify_lines(spec_id):
    """The lines ``jdl verify spec_id`` prints with ARGS, as dicts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", spec_id, *ARGS])
    lines = []
    for text in out.getvalue().splitlines():
        line = json.loads(text)
        line.pop("wall_time", None)
        lines.append({"spec_id": spec_id, **line})
    return lines


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        for spec_id in catalog.ENTRIES:
            for line in verify_lines(spec_id):
                fh.write(json.dumps(line) + "\n")
