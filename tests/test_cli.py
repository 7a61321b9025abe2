"""The catalog and the ``jdl`` command, run through ``main``."""
import json

import pytest

from jdl import catalog
from jdl.cli import main
from jdl.errors import UnknownId

DUAL_PAIR_REPORTS = {
    "morphism_leg1", "morphism_leg2", "transversality", "commutation",
    "curvature_orthogonality", "varpi_orthogonality", "equivalence",
    "rank_relation", "corollary_decomposition", "vertical_dim_sum",
    "homogeneous_sdp_equivalence"}


def _lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_catalog_builds_fresh_specs_by_id():
    assert set(catalog.BUILDERS) == {"trivgpd", "darboux5-product",
                                     "broken-comm", "broken-orth",
                                     "broken-transv"}
    first, second = catalog.build("trivgpd"), catalog.build("trivgpd")
    assert first is not second and first.source is not second.source
    assert catalog.build("broken-comm").name == "broken-comm"


def test_catalog_unknown_id_raises():
    with pytest.raises(UnknownId, match="darboux7"):
        catalog.build("darboux7")


def test_verify_prints_one_json_line_per_report(capsys):
    assert main(["verify", "trivgpd", "--points", "3", "--seed", "2"]) == 0
    lines = _lines(capsys)
    assert {line["check_id"] for line in lines} == DUAL_PAIR_REPORTS
    assert len(lines) == len(DUAL_PAIR_REPORTS)
    for line in lines:
        assert line["status"] == "pass" and line["samples"] == 3
        assert line["wall_time"] > 0


def test_verify_broken_spec_fails_and_reports_the_raising_check(capsys):
    assert main(["verify", "broken-transv", "--points", "3"]) == 1
    by_id = {line["check_id"]: line for line in _lines(capsys)}
    assert by_id["check_morphisms"]["status"] == "error"
    assert by_id["check_morphisms"]["error"].startswith("ValueError")
    assert by_id["transversality"]["status"] == "fail"
    assert by_id["equivalence"]["status"] == "pass"


def test_verify_unknown_id_exits_2(capsys):
    assert main(["verify", "darboux7"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "darboux7" in out.err
