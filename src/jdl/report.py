"""Check reports: the uniform result record every verifier emits."""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SamplingExhausted

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass
class CheckReport:
    """Outcome of one named identity checked over sample points.

    ``identity`` states the checked identity in plain text.  For
    residual-type checks, ``status == "pass"`` iff ``max_residual <
    tolerance``; threshold-type checks (contact: the smallest nondegeneracy
    ratio σ_min/σ_max of ϖ, against ``RANK_TOL``) invert the comparison and
    say so in ``notes``.  ``wall_time`` is the seconds of the call that
    made the report, stamped by :func:`timed`.
    """

    check_id: str
    identity: str
    status: str
    max_residual: float
    tolerance: float
    samples: int
    worst_point: list = field(default_factory=list)
    wall_time: float = 0.0
    notes: str = ""

    def as_dict(self):
        return {
            "check_id": self.check_id,
            "identity": self.identity,
            "status": self.status,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "worst_point": list(map(float, self.worst_point)),
            "wall_time": self.wall_time,
            "notes": self.notes,
        }

    @property
    def passed(self):
        return self.status == PASS


def require_points(pts, what):
    """Raise SamplingExhausted if ``pts`` is empty: a check of no points
    would pass or fail vacuously."""
    if len(pts) == 0:
        raise SamplingExhausted(f"{what}: no sample points to check")


def _worst(pairs, badness):
    """The (point, value) pair of ``pairs`` with the largest badness of its
    value; a NaN value is worse than any number, wherever it sits."""
    return max(pairs, key=lambda t: (bool(np.isnan(t[1])), badness(t[1])))


def residual_report(check_id, identity, residuals_by_point, tolerance,
                    notes=""):
    """Aggregate (point, residual) pairs into a pass/fail report; a NaN
    residual is the worst point and fails, and no pairs raise
    SamplingExhausted."""
    require_points(residuals_by_point, check_id)
    worst = _worst(residuals_by_point, lambda r: r)
    status = PASS if worst[1] < tolerance else FAIL
    return CheckReport(check_id, identity, status, float(worst[1]),
                       tolerance, len(residuals_by_point),
                       worst_point=list(np.asarray(worst[0], dtype=float)),
                       notes=notes)


def threshold_report(check_id, identity, values_by_point, threshold,
                     notes=""):
    """Pass iff min |value| over points stays above the threshold; a NaN
    value is the worst point and fails, and no pairs raise
    SamplingExhausted."""
    require_points(values_by_point, check_id)
    worst = _worst(values_by_point, lambda v: -abs(v))
    status = PASS if abs(worst[1]) > threshold else FAIL
    return CheckReport(check_id, identity, status, float(abs(worst[1])),
                       threshold, len(values_by_point),
                       worst_point=list(np.asarray(worst[0], dtype=float)),
                       notes=notes or "threshold check: pass iff min |value| > tolerance")


def timed(fn):
    """Stamp the reports ``fn`` returns with the wall time of the call.

    ``fn`` may return a report, or a list, tuple or dict holding reports.
    A report that a nested timed call already stamped keeps its own time.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        held = out.values() if isinstance(out, dict) else \
            out if isinstance(out, (list, tuple)) else (out,)
        for rep in held:
            if isinstance(rep, CheckReport) and not rep.wall_time:
                rep.wall_time = elapsed
        return out
    return wrapper
