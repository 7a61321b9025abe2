"""The catalog and the ``jdl`` command, run through ``main``."""
import json
import os
import sys

import pytest

from jdl import catalog
from jdl.cli import main
from jdl.errors import UnknownId


def _lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_catalog_builds_fresh_specs_by_id():
    assert {catalog.kind(i) for i in catalog.ENTRIES} == set(catalog.CHECKS)
    for spec_id in catalog.ENTRIES:
        assert catalog.build(spec_id) is not catalog.build(spec_id)
    first, second = catalog.build("trivgpd"), catalog.build("trivgpd")
    assert first.source is not second.source
    assert catalog.build("broken-comm").name == "broken-comm"


def test_catalog_unknown_id_raises():
    with pytest.raises(UnknownId, match="darboux7"):
        catalog.build("darboux7")


def test_verify_prints_one_json_line_per_report(capsys):
    # the first entry of each kind is a positive control
    firsts = {}
    for spec_id in catalog.ENTRIES:
        firsts.setdefault(catalog.kind(spec_id), spec_id)
    for kind, spec_id in firsts.items():
        obj = catalog.build(spec_id)
        pts = catalog.points(obj, 3, 2)
        want = [rep.check_id for _, check in catalog.CHECKS[kind]
                for rep in check(obj, pts)]
        assert main(["verify", spec_id, "--points", "3", "--seed", "2"]) == 0
        lines = _lines(capsys)
        assert [line["check_id"] for line in lines] == want
        for line in lines:
            assert line["status"] == "pass" and line["samples"] == 3
            assert line["wall_time"] > 0


def test_verify_broken_spec_fails_and_reports_the_raising_check(capsys):
    assert main(["verify", "broken-transv", "--points", "3"]) == 1
    by_id = {line["check_id"]: line for line in _lines(capsys)}
    assert by_id["check_morphisms"]["status"] == "error"
    assert by_id["check_morphisms"]["error"].startswith("ValueError")
    assert by_id["check_pullback_distribution"]["status"] == "error"
    assert by_id["check_pullback_distribution"]["error"].startswith(
        "ValueError")
    assert by_id["verify_leaf_correspondence"]["error"].startswith(
        "ValueError")
    assert by_id["transversality"]["status"] == "fail"
    assert by_id["equivalence"]["status"] == "pass"


def test_verify_unknown_id_exits_2(capsys):
    assert main(["verify", "darboux7"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "darboux7" in out.err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_verify_points_below_1_exits_2(capsys, points):
    assert main(["verify", "trivgpd", "--points", points]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        f"jdl: --points must be at least 1, got {points}"]


def test_verify_negative_seed_exits_2(capsys):
    assert main(["verify", "trivgpd", "--points", "2", "--seed", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == ["jdl: --seed must be at least 0, got -1"]


class _ClosedPipe:
    """A stdout whose reader has gone away, on a real descriptor ``fd``."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_verify_into_a_closed_pipe_exits_1_quietly(monkeypatch, tmp_path):
    # as in `jdl verify trivgpd | head -1`: no traceback, status 1, and
    # stdout's descriptor now writes to devnull
    out = tmp_path / "stdout"
    fd = os.open(out, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main(["verify", "trivgpd", "--points", "2"]) == 1
        os.write(fd, b"written after the pipe closed")
    finally:
        os.close(fd)
    assert out.read_bytes() == b""
