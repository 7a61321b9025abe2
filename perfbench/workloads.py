"""Workloads of the benchmark: job lists, generated inputs and verdicts.

A workload is a fixed list of jobs, one per spec id.  A job builds fresh
spec objects and runs the workload's check list at inputs generated from
the benchmark seed; ``jdl`` receives only the generated inputs.  Checks are
called through their modules (``dualpair.verify_dual_pair``), so a traced
pass sees the wrapped functions.
"""
import gc
import math
import time
from dataclasses import dataclass, field

import numpy as np

from jdl import dualpair, homogenize, jacobi, leaves
from jdl.report import FAIL, PASS, CheckReport

import specs

# A zero residual has no finite headroom; it counts as this many decades.
HEADROOM_CAP = 12.0
# Input sets drawn per spec.  Timed passes take them in turn; a set no
# timed pass reached is checked once, untimed.  Residual angles read through
# arccos take a few discrete values, so the headroom of one set jumps between
# them from seed to seed; the median over the sets is steadier.  The work of
# a pass hardly depends on the set: at one seed, the traced counts of the
# dual-pair workloads are the same on every set, and leaves-liepoisson's
# jets.constructed differs by less than 0.1%.
INPUT_SETS = 5
LEAF_DRIFT_TOL = 1e-9
LEAF_DT = 1e-3


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one job."""

    points: list
    slit_points: list = field(default_factory=list)
    leaf_start: np.ndarray = None
    leaf_seed: int = 0
    leaf_steps: int = 0


@dataclass
class JobResult:
    spec_id: str
    spec: object
    seconds: float
    verdicts: dict
    reports: list
    raised: list


def _dual_pair_checks():
    return (
        ("check_morphisms", lambda dp, x: dp.check_morphisms(x.points)),
        ("verify_dual_pair",
         lambda dp, x: list(dualpair.verify_dual_pair(dp, x.points).values())),
        ("check_rank_relation",
         lambda dp, x: [dualpair.check_rank_relation(dp, x.points)]),
        ("check_corollary_decomposition",
         lambda dp, x: [dualpair.check_corollary_decomposition(dp, x.points)]),
        ("check_vertical_dim_sum",
         lambda dp, x: [dualpair.check_vertical_dim_sum(dp, x.points)]),
        ("check_homogeneous_sdp_equivalence",
         lambda dp, x: [homogenize.check_homogeneous_sdp_equivalence(
             dp, x.points)]),
    )


def _leaf_report(spec, x):
    probe = leaves.leaf_trace(spec.pair, x.leaf_start, n_steps=x.leaf_steps,
                              dt=LEAF_DT, seed=x.leaf_seed,
                              casimirs=list(spec.casimirs))
    ok = (not probe.aborted and probe.rank_constant
          and probe.dimension == spec.leaf_dim
          and probe.casimir_drift < LEAF_DRIFT_TOL)
    return CheckReport(
        "leaf_trace",
        "no abort, constant rank equal to the leaf dimension, Casimirs kept",
        PASS if ok else FAIL, probe.casimir_drift, LEAF_DRIFT_TOL,
        len(probe.points), worst_point=list(probe.points[-1]),
        notes=f"aborted={probe.aborted} ranks={sorted(set(probe.ranks))}")


def _poissonization_checks(spec, x):
    P = homogenize.poissonize(spec.pair, x.slit_points)
    return [homogenize.check_homogeneity(P, x.slit_points),
            homogenize.check_schouten_square(P, x.slit_points),
            homogenize.check_poissonization_oracle(P, spec.pair,
                                                   x.slit_points)]


def _lie_poisson_checks():
    return (
        ("check_jacobi_pair",
         lambda s, x: [jacobi.check_jacobi_pair(s.pair, x.points)]),
        ("leaf_trace", lambda s, x: [_leaf_report(s, x)]),
        ("poissonize", _poissonization_checks),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    spec_ids: tuple
    checks: tuple
    points: int
    leaf_steps: int = 0


def workloads():
    """The benchmark's workloads by name.

    dp-darboux5: the bracket extraction inside ``contact_to_jacobi`` on a
    5-dim source dominates; per-point work is small.
    dp-wide: 3-dim sources at many points; per-point field evaluation, jet
    solves, subspace SVDs and the tangent/varpi maps dominate.
    leaves-liepoisson: never touches ``contact``; RK4 stages evaluate
    fields at new points, so field memo reuse is low.
    """
    dual = _dual_pair_checks()
    wide = dual + (("check_pullback_distribution",
                    lambda dp, x: [leaves.check_pullback_distribution(
                        dp, x.points)]),)
    out = [
        Workload("dp-darboux5", ("darboux5-product", "broken-orth"), dual, 10),
        Workload("dp-wide", ("trivgpd", "broken-comm", "broken-transv"),
                 wide, 40),
        Workload("leaves-liepoisson", ("so3", "aff1"), _lie_poisson_checks(),
                 10, leaf_steps=200),
    ]
    return {w.name: w for w in out}


def _box_points(rng, box, n):
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return [lo + rng.random(len(box)) * (hi - lo) for _ in range(n)]


def _slit_points(rng, box, n):
    """Base box times s in [-2, -0.5] u [0.5, 2], both signs sampled."""
    out = []
    for p in _box_points(rng, box, n):
        s = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
        out.append(np.append(p, s))
    return out


def _leaf_start(rng, dim):
    """A start in [-0.5, 0.5]^dim with every coordinate at least 0.1 from 0.

    From there a trace of a few hundred 1e-3 steps stays inside the
    [-2, 2] chart box and off the zero set of the Lie–Poisson tensors.
    """
    mag = rng.uniform(0.1, 0.5, dim)
    return mag * rng.choice((-1.0, 1.0), dim)


def _draw(spec, workload, rng):
    if isinstance(spec, specs.LiePoissonSpec):
        box = spec.pair.chart.box
        return Inputs(_box_points(rng, box, workload.points),
                      _slit_points(rng, box, workload.points),
                      _leaf_start(rng, len(box)), int(rng.integers(2**31)),
                      workload.leaf_steps)
    return Inputs(_box_points(rng, spec.source.chart.box, workload.points))


def make_inputs(workload, seed):
    """Build each spec once and draw its ``INPUT_SETS`` input sets."""
    out = {}
    for k, spec_id in enumerate(workload.spec_ids):
        spec = specs.build(spec_id)
        out[spec_id] = [_draw(spec, workload, np.random.default_rng([seed, k, i]))
                        for i in range(INPUT_SETS)]
    return out


def run_job(spec_id, checks, inputs, spec=None):
    """Run every check on a fresh ``spec_id``, or on ``spec`` if given;
    time the whole job."""
    t0 = time.perf_counter()
    if spec is None:
        spec = specs.build(spec_id)
    verdicts, reports, raised = {}, [], []
    for name, check in checks:
        try:
            out = check(spec, inputs)
        except Exception as exc:  # a raising check is a verdict of its own
            verdicts[name] = f"raises {type(exc).__name__}"
            raised.append(f"{spec_id}.{name}: {exc!r}")
            continue
        for rep in out:
            verdicts[rep.check_id] = rep.status
            reports.append(rep)
    return JobResult(spec_id, spec, time.perf_counter() - t0, verdicts,
                     reports, raised)


def run_pass(workload, inputs, index=0, after_job=None):
    """Run the job list once on input set ``index``, every job on fresh
    specs.

    Garbage is collected before each job, outside its time, and
    ``after_job``, if given, is called with each job's result.
    """
    results = []
    for spec_id in workload.spec_ids:
        gc.collect()
        results.append(run_job(spec_id, workload.checks,
                               inputs[spec_id][index]))
        if after_job is not None:
            after_job(results[-1])
    return results


def check_sets(workload, inputs, timed, indices):
    """Run the job list on each input set in ``indices``, reusing the specs
    of the pass ``timed``, so no extraction is paid again; untimed."""
    return [[run_job(job.spec_id, workload.checks, inputs[job.spec_id][i],
                     job.spec) for job in timed]
            for i in indices]


def mismatches(result, expected):
    """(job, check) verdicts that differ from the table, and their count."""
    keys = sorted(set(expected) | set(result.verdicts))
    bad = [k for k in keys if expected.get(k) != result.verdicts.get(k)]
    return bad, len(keys)


def headroom_dec(results):
    """min over passing residual checks of log10(tolerance / max_residual)."""
    best = HEADROOM_CAP
    for res in results:
        for rep in res.reports:
            if rep.status == PASS and rep.max_residual > 0:
                best = min(best, math.log10(rep.tolerance / rep.max_residual))
    return best
