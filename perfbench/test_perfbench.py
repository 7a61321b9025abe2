"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``.

They use shrunken copies of the workloads, so they take seconds, not the
length of a benchmark run.
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from jdl.errors import UnknownId
from jdl.report import FAIL

import checkout
import hostspeed
import run
import specs
import tracing
import workloads

SMALL = {
    "dp-wide": dict(points=3),
    "leaves-liepoisson": dict(points=3, leaf_steps=20),
}


def small(name):
    return dataclasses.replace(workloads.workloads()[name], **SMALL[name])


def residuals(results):
    return [(job.spec_id, rep.check_id, rep.max_residual)
            for job in results for rep in job.reports]


def verdicts(results):
    return [(job.spec_id, sorted(job.verdicts.items())) for job in results]


def traced_pass(workload, seed):
    inputs = workloads.make_inputs(workload, seed)
    with tracing.Tracer() as tracer:
        results = workloads.run_pass(workload, inputs)
    return tracer, results


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_passes_agree(name):
    workload = small(name)
    plain = workloads.run_pass(workload, workloads.make_inputs(workload, 5))
    _, traced = traced_pass(workload, 5)
    assert verdicts(traced) == verdicts(plain)
    assert residuals(traced) == residuals(plain)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checking_sets_on_reused_specs_matches_fresh_specs(name):
    workload = small(name)
    inputs = workloads.make_inputs(workload, 7)
    timed = workloads.run_pass(workload, inputs, 1)
    reused = workloads.check_sets(workload, inputs, timed, [0, 2])
    for i, results in zip([0, 2], reused):
        fresh = workloads.run_pass(workload, inputs, i)
        assert verdicts(results) == verdicts(fresh)
        assert residuals(results) == residuals(fresh)
    assert residuals(reused[0]) != residuals(reused[1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_runs_at_one_seed_repeat_exactly(name):
    workload = small(name)
    first, a = traced_pass(workload, 9)
    second, b = traced_pass(workload, 9)
    assert residuals(a) == residuals(b)
    assert workloads.headroom_dec(a) == workloads.headroom_dec(b)
    assert first.counts["jets.constructed"] > 0
    for counted in (first.counts, second.counts):
        assert counted["fields.memo_hits"] > 0
    for key in ("jets.constructed", "linalg.svd_calls", "fields.memo_hits"):
        assert first.counts[key] == second.counts[key]
    assert first.calls["fields.eval"] == second.calls["fields.eval"]


def test_wrong_expected_verdict_is_a_mismatch(monkeypatch):
    workload = small("leaves-liepoisson")
    passes = [workloads.run_pass(workload,
                                 workloads.make_inputs(workload, 3))]
    attempted, failed, bad = run.judge(workloads, passes)
    assert attempted > 0 and failed == 0 and bad == []
    monkeypatch.setitem(specs.EXPECTED, "so3",
                        dict(specs.EXPECTED["so3"], jacobi_pair=FAIL))
    attempted, failed, bad = run.judge(workloads, passes)
    assert failed / attempted > 0
    assert bad == ["so3.jacobi_pair"]


def test_unexpected_exception_is_a_mismatch():
    def boom(spec, inputs):
        raise RuntimeError("broken check")

    workload = dataclasses.replace(small("leaves-liepoisson"),
                                   checks=(("boom", boom),))
    result = workloads.run_pass(workload,
                                workloads.make_inputs(workload, 3))[0]
    bad, _ = workloads.mismatches(result, specs.expected(result.spec_id))
    assert "boom" in bad
    assert result.verdicts["boom"] == "raises RuntimeError"


def test_probe_runs_after_every_job_of_a_pass():
    workload = small("leaves-liepoisson")
    probe = hostspeed.Probe()
    seen = []

    def after_job(job):
        seen.append(job.spec_id)
        probe.after_job(job)

    results = workloads.run_pass(workload, workloads.make_inputs(workload, 3),
                                 after_job=after_job)
    assert seen == [job.spec_id for job in results] == list(workload.spec_ids)
    assert probe.units >= len(seen)
    assert probe.seconds >= hostspeed.SHARE * sum(job.seconds
                                                  for job in results)
    assert probe.slowdown > 0


def test_unknown_spec_id_raises():
    with pytest.raises(UnknownId):
        specs.build("darboux7")
    with pytest.raises(UnknownId):
        specs.expected("darboux7")


def _jdl_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "jdl" or name.startswith("jdl."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    from jdl.dualpair import DualPairSpec
    from jdl.fields import Field
    from jdl.jets import Jet
    for cls in (DualPairSpec, Field, Jet):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    out[("numpy.linalg", "svd")] = np.linalg.svd
    return out


def same_bindings(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_patches_every_binding_and_restores_it():
    from jdl import chart, fields
    before = _jdl_bindings()
    with tracing.Tracer():
        inside = _jdl_bindings()
    assert same_bindings(_jdl_bindings(), before)
    for attr, owners in (("tangent_map", ("chart", "atiyah", "dualpair",
                                          "homogenize", "jacobi", "leaves")),
                         ("jet_solve", ("fields", "contact"))):
        original = getattr(chart if attr == "tangent_map" else fields, attr)
        for owner in owners:
            key = (f"jdl.{owner}", attr)
            assert before[key] is original
            assert inside[key] is not original
            assert inside[key].__wrapped__ is original


def test_tracer_restores_after_an_error():
    before = _jdl_bindings()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert same_bindings(_jdl_bindings(), before)


def test_benchmark_json_matches_what_run_prints():
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.workloads())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.per_layer_units()


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(checkout.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dp-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
