import numpy as np
import pytest

from jdl.catalog import build
from jdl.chart import Chart, SmoothMap, identity_map, sample_points
from jdl.contact import ContactStructure, contact_to_jacobi
from jdl.fields import ScalarFieldSpec, constant, coordinate
from jdl.homogenize import (check_equivariance, check_homogeneity,
                            check_homogeneous_sdp_equivalence,
                            check_lifted_poisson_map,
                            check_poissonization_oracle, check_schouten_square,
                            check_symplectization,
                            check_symplectization_consistency, dehomogenize,
                            homogenize_map, poissonize, slit_chart,
                            symplectize)
from jdl.jacobi import ConformalMap, JacobiPair, lie_poisson, so3, zero_pair
from jdl.jets import exp


@pytest.fixture(scope="module")
def darboux3():
    chart = Chart("darboux3", 3, [(-2, 2)] * 3)
    return ContactStructure(chart, {(0,): lambda x, y, z: -y, (2,): 1.0})


@pytest.fixture(scope="module")
def darboux3_pair():
    chart = Chart("darboux3", 3, [(-2, 2)] * 3)
    return JacobiPair(chart, {(0, 1): 1.0, (1, 2): lambda x, y, z: -y},
                      [0.0, 0.0, 1.0])


def test_poissonize_darboux3_components(darboux3_pair):
    P = poissonize(darboux3_pair)
    p = np.array([0.3, -0.4, 0.8, 1.5])
    M = P.pi_matrix(p)
    s = p[3]
    assert abs(M[0, 1] - 1.0 / s) < 1e-12          # s^{-1} Π^{xy}
    assert abs(M[1, 2] + p[1] / s) < 1e-12         # s^{-1} Π^{yz}
    assert abs(M[3, 2] - 1.0) < 1e-12              # (∂s∧E)^{s,z} = 1
    assert abs(M[0, 3]) < 1e-12 and abs(M[1, 3]) < 1e-12


def test_poissonize_zero_pair():
    chart = Chart("r2", 2, [(-1, 1)] * 2)
    P = poissonize(zero_pair(chart))
    assert np.abs(P.pi_matrix([0.3, 0.2, 1.2])).max() == 0.0


def test_poissonize_oracle_random_pairs(darboux3_pair):
    P = poissonize(darboux3_pair)
    big = P.chart
    pts = sample_points(big, 20, seed=62)
    rng = np.random.default_rng(63)
    tests = []
    for _ in range(6):
        c = rng.normal(size=4)
        tests.append(ScalarFieldSpec(
            3, lambda x, y, z, c=c: c[0] * x + c[1] * y * z + c[2] * x * x + c[3]))
    rep = check_poissonization_oracle(P, darboux3_pair, pts, tol=1e-9,
                                      test_fns=tests)
    assert rep.passed


def test_poissonize_so3(darboux3_pair):
    J = lie_poisson(so3())
    P = poissonize(J)
    pts = sample_points(P.chart, 20, seed=64)
    assert check_poissonization_oracle(P, J, pts).passed
    assert check_homogeneity(P, pts).passed
    assert check_schouten_square(P, pts).passed     # Poisson case: [[P,P]] = 0


def test_poissonize_homogeneity(darboux3_pair):
    P = poissonize(darboux3_pair)
    pts = sample_points(P.chart, 20, seed=65)
    assert check_homogeneity(P, pts, ts=(2.0, 1.0 / 3.0, -1.0)).passed


def test_poissonize_is_poisson(darboux3_pair):
    P = poissonize(darboux3_pair)
    pts = sample_points(P.chart, 10, seed=66)
    assert check_schouten_square(P, pts).passed


def test_dehomogenize_round_trip(darboux3_pair):
    P = poissonize(darboux3_pair)
    back = dehomogenize(P, darboux3_pair.chart)
    rng = np.random.default_rng(67)
    for _ in range(5):
        p = rng.uniform(-1, 1, 3)
        assert np.abs(back.pi_matrix(p)
                      - darboux3_pair.pi_matrix(p)).max() < 1e-10
        assert np.abs(back.E.at(p) - darboux3_pair.E.at(p)).max() < 1e-10


def test_symplectize_darboux3(darboux3):
    omega, big = symplectize(darboux3)
    # ω~ = ds∧dz - y ds∧dx - s dy∧dx
    p = np.array([0.2, 0.7, -0.3, 1.3])
    M = omega.dense(p)
    assert abs(M[3, 2] - 1.0) < 1e-12        # ds∧dz
    assert abs(M[3, 0] + p[1]) < 1e-12       # -y ds∧dx
    assert abs(M[0, 1] - p[3]) < 1e-12       # s dx∧dy
    pts = sample_points(big, 20, seed=68)
    assert check_symplectization(darboux3, pts).passed


def test_symplectize_trivgpd_form():
    chart = Chart("trivgpd", 3, [(-2, 2)] * 3)
    C = ContactStructure(chart, {(0,): lambda q, p, u: p, (2,): 1.0})
    omega, big = symplectize(C)
    p = np.array([0.1, 0.5, 0.9, -1.2])
    M = omega.dense(p)
    # ω~ = ds∧du + p ds∧dq + s dp∧dq
    assert abs(M[3, 2] - 1.0) < 1e-12
    assert abs(M[3, 0] - p[1]) < 1e-12
    assert abs(M[1, 0] - p[3]) < 1e-12


def test_symplectization_consistency(darboux3):
    omega, big = symplectize(darboux3)
    pts = sample_points(big, 20, seed=69)
    assert check_symplectization_consistency(darboux3, pts, tol=1e-8).passed


def test_symplectization_consistency_trivgpd():
    chart = Chart("trivgpd", 3, [(-2, 2)] * 3)
    C = ContactStructure(chart, {(0,): lambda q, p, u: p, (2,): 1.0})
    omega, big = symplectize(C)
    pts = sample_points(big, 20, seed=70)
    assert check_symplectization_consistency(C, pts, tol=1e-8).passed


def test_symplectization_consistency_scaled(darboux3):
    # scaling θ rescales both routes together
    chart = darboux3.chart
    C2 = ContactStructure(chart, {(0,): lambda x, y, z: -3.0 * y,
                                  (2,): 3.0})
    omega, big = symplectize(C2)
    pts = sample_points(big, 10, seed=71)
    assert check_symplectization_consistency(C2, pts, tol=1e-8).passed


def test_homogenize_map_forms():
    src = Chart("a", 2, [(-1, 1)] * 2)
    dst = Chart("b", 2, [(-1, 1)] * 2)
    F = SmoothMap(src, dst, [lambda x, y: x + y, lambda x, y: x * y])
    # a ≡ 1 lifts to F × id on the fiber
    Phi = ConformalMap(F)
    lifted = homogenize_map(Phi)
    out = lifted([0.3, 0.4, 1.7])
    assert np.allclose(out, [0.7, 0.12, 1.7])
    # (id, c) lifts to (x, c(x)·s)
    Phi2 = ConformalMap(identity_map(src),
                        ScalarFieldSpec(2, lambda x, y: 2.0 + x))
    lifted2 = homogenize_map(Phi2)
    out2 = lifted2([0.5, -0.5, 2.0])
    assert np.allclose(out2, [0.5, -0.5, 5.0])
    pts = sample_points(slit_chart(src), 10, seed=72)
    assert check_equivariance(Phi2, pts).passed


def test_jacobi_morphism_lifts_to_poisson_map():
    # quotient leg of the translation reduction: (q-projection, a = 1)
    total = Chart("darboux3", 3, [(-2, 2)] * 3)
    J1 = JacobiPair(total, {(0, 1): 1.0, (1, 2): lambda x, y, z: -y},
                    [0.0, 0.0, 1.0])
    base = Chart("plane", 2, [(-2, 2)] * 2)
    J2 = JacobiPair(base, {(0, 1): 1.0}, [0.0, 0.0])
    Phi = ConformalMap(SmoothMap(total, base, [lambda x, y, z: x,
                                               lambda x, y, z: y]))
    pts = sample_points(slit_chart(total), 10, seed=73)
    assert check_lifted_poisson_map(Phi, J1, J2, pts).passed


def test_homogeneous_sdp_equivalence_positive():
    dp = build("trivgpd")
    pts = sample_points(dp.source.chart, 15, seed=74)
    assert check_homogeneous_sdp_equivalence(dp, pts).passed


def test_homogeneous_sdp_equivalence_broken():
    dp = build("broken-orth")
    pts = sample_points(dp.source.chart, 10, seed=75)
    rep = check_homogeneous_sdp_equivalence(dp, pts)
    # fails upstairs and downstairs consistently: verdicts agree
    assert rep.passed


def test_slit_chart_samples_both_components():
    base = Chart("plane", 2, [(-2, 2)] * 2)
    s = np.array([p[-1] for p in sample_points(slit_chart(base), 200,
                                               seed=74)])
    assert (s < 0).any() and (s > 0).any()
    assert np.abs(s).min() >= 0.5 and np.abs(s).max() <= 2.0
