import numpy as np
import pytest

from jdl.chart import Chart, SmoothMap, sample_points, tangent_map
from jdl.errors import SamplingExhausted

from oracles import compose_maps, identity_map


def test_sampling_deterministic():
    c = Chart("sq", 2, [(0, 1), (0, 1)])
    a = sample_points(c, 3, seed=7)
    b = sample_points(c, 3, seed=7)
    assert len(a) == 3
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)


def test_sampling_respects_exclusion():
    c = Chart("slit", 2, [(-1, 1), (-1, 1)],
              excluded=lambda p: abs(p[0]) < 1e-3)
    pts = sample_points(c, 100, seed=3)
    assert all(abs(p[0]) >= 1e-3 for p in pts)


def test_sampling_rejects_bad_n():
    c = Chart("sq", 2, [(0, 1), (0, 1)])
    with pytest.raises(SamplingExhausted):
        sample_points(c, 0, seed=1)


def test_sampling_exhaustion():
    c = Chart("none", 1, [(0, 1)], excluded=lambda p: True)
    with pytest.raises(SamplingExhausted):
        sample_points(c, 5, seed=1)


def test_tangent_map_projection():
    src = Chart("m", 3)
    dst = Chart("q", 1)
    F = SmoothMap(src, dst, [lambda q, p, u: q])
    J = tangent_map(F, [0.3, 0.7, -0.1])
    assert np.allclose(J, [[1.0, 0.0, 0.0]])


def test_tangent_map_identity():
    c = Chart("r2", 2)
    J = tangent_map(identity_map(c), [0.5, -0.5])
    assert np.allclose(J, np.eye(2))


def test_tangent_map_by_hand():
    src = Chart("r2", 2)
    dst = Chart("r2b", 2)
    F = SmoothMap(src, dst, [lambda x, y: x * x, lambda x, y: x * y])
    J = tangent_map(F, [1.0, 2.0])
    assert np.allclose(J, [[2.0, 0.0], [2.0, 1.0]])


def test_chain_rule_on_random_maps():
    rng = np.random.default_rng(5)
    a = Chart("a", 2)
    b = Chart("b", 2)
    c = Chart("c", 2)
    F = SmoothMap(a, b, [lambda x, y: x * y + y, lambda x, y: x - y * y])
    G = SmoothMap(b, c, [lambda u, v: u * u + v, lambda u, v: u * v])
    GF = compose_maps(G, F)
    for _ in range(20):
        p = rng.uniform(-1, 1, size=2)
        lhs = tangent_map(GF, p)
        rhs = tangent_map(G, F(p)) @ tangent_map(F, p)
        assert np.abs(lhs - rhs).max() < 1e-10
