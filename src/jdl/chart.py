"""Charts, smooth maps between charts, and deterministic point sampling.

Manifolds are handled chart-locally: compact catalog examples ship as one or
two parametrized charts with overlap maps, and global statements are tested
per chart plus a transition-consistency check.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, DomainViolation, SamplingExhausted
from .fields import as_field


class Chart:
    """A named coordinate box with an optional excluded locus.

    ``box`` is a list of (lo, hi) sampling intervals, one per coordinate.
    ``excluded`` is a predicate marking singular/forbidden points; the
    sampler and ``contains`` reject exactly the points it marks, so a
    predicate that should keep samples away from a singular locus must
    include that margin itself.
    """

    def __init__(self, name, dim, box=None, excluded=None):
        self.name = name
        self.dim = dim          # dim 0 is legal: a point chart
        if box is None:
            box = [(-1.0, 1.0)] * dim
        if len(box) != dim:
            raise DimensionMismatch(f"box needs {dim} intervals, got {len(box)}")
        for lo, hi in box:
            if not lo < hi:
                raise DomainViolation(f"empty box interval ({lo}, {hi})")
        self.box = [(float(lo), float(hi)) for lo, hi in box]
        self.excluded = excluded

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        if p.size != self.dim:
            return False
        return not (self.excluded is not None and self.excluded(p))

    def in_box(self, p):
        p = np.asarray(p, dtype=float)
        return all(lo <= x <= hi for x, (lo, hi) in zip(p, self.box)) \
            and self.contains(p)

    def __repr__(self):
        return f"Chart({self.name!r}, dim={self.dim})"


def sample_points(chart, n, seed):
    """n points uniform in the chart box, resampling away excluded loci.

    Deterministic for a given (chart box, seed): equal seeds give
    bit-identical lists.
    """
    if n < 1:
        raise SamplingExhausted(f"need n >= 1 points, got {n}")
    if chart.dim == 0:
        return [np.zeros(0) for _ in range(n)]
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    out = []
    draws = 0
    limit = max(10 * n, 100)
    while len(out) < n:
        if draws >= limit:
            raise SamplingExhausted(
                f"rejection rate too high on chart {chart.name!r}: "
                f"{len(out)}/{n} accepted after {draws} draws")
        p = lo + rng.random(chart.dim) * (hi - lo)
        draws += 1
        if chart.excluded is not None and chart.excluded(p):
            continue
        out.append(p)
    return out


class SmoothMap:
    """Map between charts given by one component field per target coordinate."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        comps = [as_field(source.dim, c) for c in components]
        if len(comps) != target.dim:
            raise DimensionMismatch(
                f"map to {target.name!r} needs {target.dim} components, "
                f"got {len(comps)}")
        self.components = comps

    def __call__(self, p):
        if not self.components:
            return np.zeros(0)
        return np.array([c.value(p) for c in self.components])

    def __repr__(self):
        return f"SmoothMap({self.source.name!r} -> {self.target.name!r})"


def tangent_map(F, p):
    """Jacobian of F at p (target.dim x source.dim), from order-1 jets."""
    if not F.source.contains(p):
        raise DomainViolation(f"{p} outside domain of chart {F.source.name!r}")
    if not F.components:
        return np.zeros((0, F.source.dim))
    return np.stack([c(p, 1).grad for c in F.components])
