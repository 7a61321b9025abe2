"""Rewrite ``verify.jsonl``: the JSON lines of ``jdl verify <id> --points 10
--seed 1`` for every catalog id, in catalog order, each tagged with its
``spec_id`` and without ``wall_time``.

    PYTHONPATH=src python tests/golden/regen.py

With ``--check`` the file is not written: the lines are regenerated in
memory and compared byte for byte with it.  If they differ, the first
differing line of each is printed and the exit status is 1; otherwise 0.

    PYTHONPATH=src python tests/golden/regen.py --check

``tests/test_golden.py`` compares the command's output with this file.
"""
import contextlib
import io
import json
import sys
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


def golden_text():
    """The contents ``verify.jsonl`` should have."""
    return "".join(json.dumps(line) + "\n" for spec_id in catalog.ENTRIES
                   for line in verify_lines(spec_id))


def check():
    """0 if ``verify.jsonl`` equals :func:`golden_text` byte for byte;
    otherwise print the first differing line of each and return 1."""
    want = GOLDEN.read_bytes().decode()
    got = golden_text()
    if got == want:
        return 0
    old, new = want.splitlines(), got.splitlines()
    k = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
             min(len(old), len(new)))
    print(f"verify.jsonl differs at line {k + 1}:")
    print(f"  file:        {old[k] if k < len(old) else '<end of file>'}")
    print(f"  regenerated: {new[k] if k < len(new) else '<end of output>'}")
    return 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    GOLDEN.write_text(golden_text())
