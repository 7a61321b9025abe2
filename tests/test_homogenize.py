import itertools

import numpy as np
import pytest

from jdl import homogenize
from jdl.calculus import KForm
from jdl.catalog import build, points
from jdl.chart import Chart, SmoothMap, sample_points
from jdl.contact import ContactStructure, contact_to_jacobi
from jdl.errors import OracleMismatch
from jdl.fields import ScalarFieldSpec, compose, coordinate
from jdl.homogenize import (_lift_field, check_homogeneity,
                            check_homogeneous_sdp_equivalence,
                            check_poissonization_oracle, check_schouten_square,
                            check_symplectization,
                            check_symplectization_consistency, lifted_pair,
                            poissonize, slit_chart, symplectize)
from jdl.jacobi import (ConformalMap, JacobiPair, bracket_field,
                        check_jacobi_morphism, jacobi_bidiff_matrix,
                        lie_poisson, poissonization_jet, so3, zero_pair)

from conftest import EXP_U, homogenize_map, retrivialized
from oracles import identity_map


def _equivariance_error(Phi, pts):
    """max |Φ~(h_t p) - h_t Φ~(p)| over the points and t ∈ {2, -1, 1/2}:
    the lifted map commutes with the fiber scaling h_t."""
    lifted = homogenize_map(Phi)
    worst = 0.0
    for p in pts:
        out = lifted(p)
        for t in (2.0, -1.0, 0.5):
            q = np.array(p, dtype=float)
            q[-1] *= t
            expect = np.array(out, dtype=float)
            expect[-1] *= t
            worst = max(worst, float(np.abs(lifted(q) - expect).max()))
    return worst


def _lifted_poisson_map_error(Phi, J_source, J_target, pts):
    """max |{Φ~*F, Φ~*G}_{P1} - Φ~*{F, G}_{P2}| over the points and pairs of
    the coordinates of the target slit chart and one product: a Jacobi
    morphism lifts to a Poisson map of the Poissonizations, so this is an
    oracle of ``check_jacobi_morphism``."""
    P1, P2 = lifted_pair(J_source), lifted_pair(J_target)
    lifted = homogenize_map(Phi)
    m = J_target.chart.dim
    tests = [coordinate(m + 1, i) for i in range(m + 1)]
    tests.append(coordinate(m + 1, m) * coordinate(m + 1, 0) if m else
                 coordinate(m + 1, m))
    fields = [bracket_field(P1, compose(F, lifted.components),
                            compose(G, lifted.components))
              - compose(bracket_field(P2, F, G), lifted.components)
              for F, G in itertools.combinations(tests, 2)]
    return max(abs(f.value(p)) for p in pts for f in fields)


def _slit_points(J):
    """Where the Poissonization tests certify P unless they need more."""
    return sample_points(slit_chart(J.chart), 5, seed=61)


def test_poissonize_darboux3_components(darboux3_pair):
    P = poissonize(darboux3_pair, _slit_points(darboux3_pair))
    p = np.array([0.3, -0.4, 0.8, 1.5])
    M = P.pi_matrix(p)
    s = p[3]
    assert abs(M[0, 1] - 1.0 / s) < 1e-12          # s^{-1} Π^{xy}
    assert abs(M[1, 2] + p[1] / s) < 1e-12         # s^{-1} Π^{yz}
    assert abs(M[3, 2] - 1.0) < 1e-12              # (∂s∧E)^{s,z} = 1
    assert abs(M[0, 3]) < 1e-12 and abs(M[1, 3]) < 1e-12


def test_poissonize_zero_pair():
    chart = Chart("r2", 2, [(-1, 1)] * 2)
    J = zero_pair(chart)
    P = poissonize(J, _slit_points(J))
    assert np.abs(P.pi_matrix([0.3, 0.2, 1.2])).max() == 0.0


def test_poissonize_oracle_random_pairs(darboux3_pair):
    # {s·f∘π, s·g∘π}_P = s·({f,g}∘π) beyond the test sections
    pts = sample_points(slit_chart(darboux3_pair.chart), 20, seed=62)
    P = poissonize(darboux3_pair, pts)
    rng = np.random.default_rng(63)
    tests = []
    for _ in range(6):
        c = rng.normal(size=4)
        tests.append(ScalarFieldSpec(
            3, lambda x, y, z, c=c: c[0] * x + c[1] * y * z + c[2] * x * x + c[3]))
    s = coordinate(4, 3)
    for f, g in itertools.combinations_with_replacement(tests, 2):
        gap = (bracket_field(P, s * _lift_field(f, 3), s * _lift_field(g, 3))
               - s * _lift_field(bracket_field(darboux3_pair, f, g), 3))
        assert max(abs(gap.value(p)) for p in pts) < 1e-9


def test_poissonize_so3(darboux3_pair):
    J = lie_poisson(so3())
    pts = sample_points(slit_chart(J.chart), 20, seed=64)
    P = poissonize(J, pts)
    assert check_poissonization_oracle(P, J, pts).passed
    assert check_homogeneity(P, pts).passed
    assert check_schouten_square(P, pts).passed     # Poisson case: [[P,P]] = 0


def test_poissonize_homogeneity(darboux3_pair):
    pts = sample_points(slit_chart(darboux3_pair.chart), 20, seed=65)
    P = poissonize(darboux3_pair, pts)
    assert check_homogeneity(P, pts).passed


def test_poissonize_is_poisson(darboux3_pair):
    pts = sample_points(slit_chart(darboux3_pair.chart), 10, seed=66)
    P = poissonize(darboux3_pair, pts)
    assert check_schouten_square(P, pts).passed


@pytest.mark.parametrize("source", ["so3", "aff1", "darboux3",
                                    "darboux5-product", "darboux3_pair"])
def test_poissonization_jet_is_the_lifted_pairs(source, request):
    # the closed-form 1-jet that check_jacobi_pair squares, against the
    # lifted fields at s = 1; its value is the bi-DO matrix
    J = {"darboux3": lambda: contact_to_jacobi(build(source)),
         "darboux5-product": lambda: build(source).source_pair,
         "darboux3_pair": lambda: request.getfixturevalue(source),
         }.get(source, lambda: build(source))()
    P = lifted_pair(J)
    for p in sample_points(J.chart, 5, seed=67):
        M, dM = poissonization_jet(J, p)
        L, dL = P.Pi.jet(np.append(p, 1.0))
        assert np.abs(M - L).max() == 0.0 and np.abs(dM - dL).max() == 0.0
        assert np.abs(M - jacobi_bidiff_matrix(J, p)).max() == 0.0


def test_poissonize_rejects_a_closed_form_its_oracle_refutes(
        darboux3_pair, monkeypatch):
    # a planted factor 2 on P's components must trip the bracket oracle
    def doubled(chart, Pi, E):
        return JacobiPair(chart, {k: 2.0 * f for k, f in Pi.items()}, E)

    monkeypatch.setattr(homogenize, "JacobiPair", doubled)
    with pytest.raises(OracleMismatch):
        poissonize(darboux3_pair, _slit_points(darboux3_pair))


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


def test_symplectize_trivgpd_form(trivgpd):
    omega, big = symplectize(trivgpd)
    p = np.array([0.1, 0.5, 0.9, -1.2])
    M = omega.dense(p)
    # ω~ = ds∧du + p ds∧dq + s dp∧dq
    assert abs(M[3, 2] - 1.0) < 1e-12
    assert abs(M[3, 0] - p[1]) < 1e-12
    assert abs(M[1, 0] - p[3]) < 1e-12


# the contact sources of the catalog entries: each entry's own contact
# structure or its dual pair's source (the broken pairs share these)
CONTACT_SOURCES = ("darboux3", "trivgpd", "darboux5-product")
_symplectize = homogenize.symplectize


def _contact_source(spec_id):
    obj = build(spec_id)
    return obj if isinstance(obj, ContactStructure) else obj.source


def _doubled_dtheta(C):
    """ω~ with its s·dθ block doubled: dω~ = ds∧dθ ≠ 0."""
    omega, big = _symplectize(C)
    n = C.chart.dim
    return KForm(big, 2, {k: 2.0 * f if k[1] < n else f
                          for k, f in omega.comps.items()}), big


def _theta_column_times_s(C):
    """ω~ with s·ds∧θ for ds∧θ: not closed, and not homogeneous."""
    omega, big = _symplectize(C)
    n = C.chart.dim
    s = coordinate(n + 1, n)
    return KForm(big, 2, {k: f * s if k[1] == n else f
                          for k, f in omega.comps.items()}), big


def _theta_is_dz(C):
    """ω~ = d(s·dz) = ds∧dz: closed and homogeneous, but of rank 2."""
    return _symplectize(ContactStructure(C.chart, {(C.chart.dim - 1,): 1.0}))


@pytest.mark.parametrize("spec_id", CONTACT_SOURCES)
def test_symplectization_of_every_contact_source(spec_id):
    C = _contact_source(spec_id)
    pts = sample_points(slit_chart(C.chart), 10, seed=68)
    assert check_symplectization(C, pts).passed


@pytest.mark.parametrize("broken", (_doubled_dtheta, _theta_column_times_s,
                                    _theta_is_dz), ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec_id", CONTACT_SOURCES)
def test_symplectization_catches_a_broken_form(spec_id, broken, monkeypatch):
    monkeypatch.setattr(homogenize, "symplectize", broken)
    C = _contact_source(spec_id)
    pts = sample_points(slit_chart(C.chart), 10, seed=68)
    rep = check_symplectization(C, pts)
    assert not rep.passed and rep.max_residual > 1e-3
    if broken is _theta_is_dz:
        assert rep.max_residual == 1.0   # only the nondegeneracy branch


def test_symplectization_consistency(darboux3):
    omega, big = symplectize(darboux3)
    pts = sample_points(big, 20, seed=69)
    assert check_symplectization_consistency(darboux3, pts).passed


def test_symplectization_consistency_trivgpd(trivgpd):
    omega, big = symplectize(trivgpd)
    pts = sample_points(big, 20, seed=70)
    assert check_symplectization_consistency(trivgpd, pts).passed


def test_symplectization_consistency_scaled(darboux3):
    # scaling θ rescales both routes together
    chart = darboux3.chart
    C2 = ContactStructure(chart, {(0,): lambda x, y, z: -3.0 * y,
                                  (2,): 3.0})
    omega, big = symplectize(C2)
    pts = sample_points(big, 10, seed=71)
    assert check_symplectization_consistency(C2, pts).passed


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
    assert _equivariance_error(Phi2, pts) < 1e-10


def test_jacobi_morphism_lifts_to_poisson_map(darboux3_pair):
    # quotient leg of the translation reduction: (q-projection, a = 1)
    J1 = darboux3_pair
    total = J1.chart
    base = Chart("plane", 2, [(-2, 2)] * 2)
    J2 = JacobiPair(base, {(0, 1): 1.0}, [0.0, 0.0])
    Phi = ConformalMap(SmoothMap(total, base, [lambda x, y, z: x,
                                               lambda x, y, z: y]))
    pts = sample_points(slit_chart(total), 10, seed=73)
    assert _lifted_poisson_map_error(Phi, J1, J2, pts) < 1e-8
    # broken-comm: the first leg is a Jacobi morphism, the second, with its
    # factor e^p, is not; the lift is a Poisson map exactly for the first
    dp = build("broken-comm")
    pts = sample_points(dp.source.chart, 5, seed=76)
    slit = sample_points(slit_chart(dp.source.chart), 5, seed=76)
    for (J, Phi), holds in zip(dp.legs(), (True, False)):
        rep = check_jacobi_morphism(dp.source_pair, J, Phi, pts)
        assert rep.passed == holds
        error = _lifted_poisson_map_error(Phi, dp.source_pair, J, slit)
        assert (error < 1e-8) == holds


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


def test_homogeneous_sdp_equivalence_catches_a_lift_without_da(monkeypatch):
    # TΦ~ without its s·da entry: broken-comm's second leg, with factor
    # e^p, then looks orthogonal upstairs while commutation fails below
    lifted_tangent = homogenize._lifted_tangent
    monkeypatch.setattr(homogenize, "_lifted_tangent",
                        lambda T, a, da, s: lifted_tangent(T, a, 0 * da, s))
    dp = build("broken-comm")
    pts = sample_points(dp.source.chart, 10, seed=75)
    rep = check_homogeneous_sdp_equivalence(dp, pts)
    assert not rep.passed
    assert rep.notes == "10 points with upstairs/downstairs mismatch"


def test_homogeneous_sdp_equivalence_reads_a_negative_slice(monkeypatch):
    # trivgpd retrivialized by u = e^{0.3q + 0.2pw} has da_i ≠ 0, so TΦ~'s
    # s·da row tells s = -1 from s = 1: a lift with |s|·da fails there
    dp = retrivialized(EXP_U)
    pts = points(dp, 10, 1)
    assert check_homogeneous_sdp_equivalence(dp, pts).passed
    lifted_tangent = homogenize._lifted_tangent
    monkeypatch.setattr(homogenize, "_lifted_tangent",
                        lambda T, a, da, s: lifted_tangent(T, a, da, abs(s)))
    rep = check_homogeneous_sdp_equivalence(dp, pts)
    assert not rep.passed
    assert rep.notes == "10 points with upstairs/downstairs mismatch"


def test_slit_chart_samples_both_components():
    base = Chart("plane", 2, [(-2, 2)] * 2)
    s = np.array([p[-1] for p in sample_points(slit_chart(base), 200,
                                               seed=74)])
    assert (s < 0).any() and (s > 0).any()
    assert np.abs(s).min() >= 0.5 and np.abs(s).max() <= 2.0
