import itertools

import numpy as np
import pytest

from jdl import homogenize
from jdl.catalog import build, points
from jdl.chart import Chart, SmoothMap, sample_points
from jdl.contact import ContactStructure, contact_to_jacobi, varpi_jet
from jdl.errors import DimensionMismatch, DomainViolation, OracleMismatch
from jdl.fields import ScalarFieldSpec, compose, coordinate
from jdl.homogenize import (_lift_field, _lifted_jet, check_homogeneity,
                            check_homogeneous_sdp_equivalence,
                            check_poissonization_oracle, check_schouten_square,
                            check_symplectization,
                            check_symplectization_consistency, lifted_pair,
                            poissonize, slit_chart)
from jdl.jacobi import (ConformalMap, JacobiPair, bracket_field,
                        check_jacobi_morphism, jacobi_bidiff_matrix,
                        lie_poisson, poissonization_jet, so3, zero_pair)
from jdl.jets import exp, sin

from oracles import (EXP_U, chain_rule_lift, homogenize_map, identity_map,
                     retrivialized, symplectize)


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
    for f, g in itertools.combinations_with_replacement(tests, 2):
        gap = (bracket_field(P, chain_rule_lift(f, 3, 1),
                             chain_rule_lift(g, 3, 1))
               - chain_rule_lift(bracket_field(darboux3_pair, f, g), 3, 1))
        assert max(abs(gap.value(p)) for p in pts) < 1e-9


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("k", [-1, 0, 1])
def test_closed_form_lift_matches_the_chain_rule(k, order):
    # s^k·(f∘π) from f's jet at x against f composed with the base
    # coordinates and multiplied or divided by s, on a nonlinear f
    f = ScalarFieldSpec(2, lambda x, y: exp(0.7 * x * y) + sin(x - 2 * y))
    base = Chart("plane", 2, [(-1, 1)] * 2)
    pts = sample_points(slit_chart(base), 12, seed=77)
    assert min(p[-1] for p in pts) < 0 < max(p[-1] for p in pts)
    closed, oracle = _lift_field(f, 2, k), chain_rule_lift(f, 2, k)
    for p in pts:
        a, b = closed(p, order), oracle(p, order)
        assert abs(a.value - b.value) < 1e-13
        assert np.abs(a.grad - b.grad).max() < 1e-13
        if order == 2:
            assert np.abs(a.hess - b.hess).max() < 1e-13


@pytest.mark.parametrize("order", [1, 2])
def test_a_negative_power_of_s_at_zero_is_a_domain_violation(order):
    Pi = lifted_pair(lie_poisson(so3())).Pi.comps[(0, 1)]
    with pytest.raises(DomainViolation):
        Pi(np.array([0.3, 0.2, 0.1, 0.0]), order)
    # a power k >= 0 is defined there
    assert _lift_field(coordinate(3, 0), 3, 1)(
        np.array([0.3, 0.2, 0.1, 0.0]), order).value == 0.0


def test_lifting_a_field_of_another_dimension_is_a_mismatch():
    with pytest.raises(DimensionMismatch):
        _lift_field(coordinate(3, 0), 2, 1)


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


# the contact sources of the catalog entries: each entry's own contact
# structure or its dual pair's source (the broken pairs share these)
CONTACT_SOURCES = ("darboux3", "trivgpd", "darboux5-product")


def _contact_source(spec_id):
    obj = build(spec_id)
    return obj if isinstance(obj, ContactStructure) else obj.source


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


@pytest.mark.parametrize("spec_id", CONTACT_SOURCES)
def test_lifted_jet_matches_the_symplectization(spec_id):
    # ω~ and its 1-jet in closed form from ϖ's 1-jet, ∂_s included, against
    # the tree d(s·π*θ) of the chain-rule lifts
    C = _contact_source(spec_id)
    omega, big = symplectize(C)
    for p in sample_points(big, 10, seed=68):
        M, dM = _lifted_jet(*varpi_jet(C, p[:-1]), p[-1])
        A, dA = omega.jet(p)
        assert np.abs(M - A).max() < 1e-12
        assert np.abs(dM - dA).max() < 1e-12


_closed_form = homogenize._lifted_form


def _doubled_dtheta(varpi, s):
    """ω~ with its s·dθ block doubled: dω~ = ds∧dθ ≠ 0."""
    out = _closed_form(varpi, s)
    out[..., :-1, :-1] *= 2.0
    return out


def _theta_column_times_s(varpi, s):
    """ω~ with s·ds∧θ for ds∧θ: not closed, and not homogeneous."""
    out = _closed_form(varpi, s)
    out[..., :-1, -1] *= s
    out[..., -1, :-1] *= s
    return out


def _theta_is_dz(C, x):
    """ϖ of θ = dz, so ω~ = d(s·dz) = ds∧dz: closed and homogeneous, but
    of rank 2."""
    return varpi_jet(ContactStructure(C.chart, {(C.chart.dim - 1,): 1.0}), x)


def _flipped_theta_column(varpi, s):
    """ω~ with its θ column negated, D·ω~·D for D = diag(1, ..., 1, -1):
    still invertible, but its inverse flips the sign of the ∂s∧E column of
    P."""
    out = _closed_form(varpi, s)
    out[..., :-1, -1] *= -1.0
    out[..., -1, :-1] *= -1.0
    return out


# where each mutant is planted: the closed form, or the ϖ jet it reads
_PLANTED_IN = {_doubled_dtheta: "_lifted_form",
               _theta_column_times_s: "_lifted_form",
               _theta_is_dz: "varpi_jet"}


@pytest.mark.parametrize("spec_id", CONTACT_SOURCES)
def test_symplectization_of_every_contact_source(spec_id):
    C = _contact_source(spec_id)
    pts = sample_points(slit_chart(C.chart), 10, seed=68)
    assert check_symplectization(C, pts).passed


@pytest.mark.parametrize("broken", tuple(_PLANTED_IN), ids=lambda f: f.__name__)
@pytest.mark.parametrize("spec_id", CONTACT_SOURCES)
def test_symplectization_catches_a_broken_form(spec_id, broken, monkeypatch):
    monkeypatch.setattr(homogenize, _PLANTED_IN[broken], broken)
    C = _contact_source(spec_id)
    pts = sample_points(slit_chart(C.chart), 10, seed=68)
    rep = check_symplectization(C, pts)
    assert not rep.passed and rep.max_residual > 1e-3
    if broken is _theta_is_dz:
        assert rep.max_residual == 1.0   # only the nondegeneracy branch


def test_symplectization_consistency(darboux3):
    pts = sample_points(slit_chart(darboux3.chart), 20, seed=69)
    assert check_symplectization_consistency(darboux3, pts).passed


def test_symplectization_consistency_trivgpd(trivgpd):
    pts = sample_points(slit_chart(trivgpd.chart), 20, seed=70)
    assert check_symplectization_consistency(trivgpd, pts).passed


def test_symplectization_consistency_scaled(darboux3):
    # scaling θ rescales both routes together
    chart = darboux3.chart
    C2 = ContactStructure(chart, {(0,): lambda x, y, z: -3.0 * y,
                                  (2,): 3.0})
    pts = sample_points(slit_chart(chart), 10, seed=71)
    assert check_symplectization_consistency(C2, pts).passed


@pytest.mark.parametrize("spec_id", CONTACT_SOURCES)
def test_symplectization_consistency_catches_a_flipped_theta_column(
        spec_id, monkeypatch):
    # -(D ω~ D)⁻¹ differs from P by 2|E| in the ∂s∧E column, and no
    # SingularSystem hides it
    C = _contact_source(spec_id)
    pts = sample_points(slit_chart(C.chart), 10, seed=69)
    monkeypatch.setattr(homogenize, "_lifted_form", _flipped_theta_column)
    rep = check_symplectization_consistency(C, pts)
    assert not rep.passed and rep.max_residual > 1e-3
    E = np.array([contact_to_jacobi(C).E.at(p[:-1]) for p in pts])
    assert abs(rep.max_residual - 2.0 * np.abs(E).max()) < 1e-9


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
