"""``jdl verify <id> --points 10 --seed 1`` against the committed lines of
``golden/verify.jsonl``, rewritten by ``golden/regen.py``.

Every field but ``max_residual`` must match exactly; a residual may move by
1e-12 + 1e-6 of the committed one, since residuals near rounding move with
the order of floating-point operations.
"""
import json

import pytest

from jdl import catalog

from golden.regen import GOLDEN, verify_lines


def _golden():
    by_id = {}
    for text in GOLDEN.read_text().splitlines():
        line = json.loads(text)
        by_id.setdefault(line["spec_id"], []).append(line)
    return by_id


def test_golden_file_covers_the_catalog():
    assert list(_golden()) == list(catalog.ENTRIES)


@pytest.mark.parametrize("spec_id", list(catalog.ENTRIES))
def test_verify_matches_the_golden_lines(spec_id):
    want = _golden()[spec_id]
    got = verify_lines(spec_id)
    assert [g["check_id"] for g in got] == [w["check_id"] for w in want]
    for g, w in zip(got, want):
        exact = {k: v for k, v in w.items() if k != "max_residual"}
        assert {k: v for k, v in g.items() if k != "max_residual"} == exact
        if "max_residual" in w:
            b = w["max_residual"]
            assert abs(g["max_residual"] - b) <= 1e-12 + 1e-6 * abs(b), \
                g["check_id"]
