import numpy as np
import pytest

from jdl.catalog import build
from jdl.chart import Chart, SmoothMap, sample_points
from jdl.errors import OracleMismatch
from jdl.fields import ScalarFieldSpec, constant, coordinate
from jdl.jacobi import (ConformalMap, JacobiPair, aff1, bracket_field,
                        check_jacobi_morphism, check_jacobi_pair,
                        hamiltonian_field, jacobi_bidiff_matrix, lie_poisson,
                        so3, zero_pair)

from conftest import extract_pair_from_bracket
from oracles import (ChartIndexInvalid, abelian, conformal_change,
                     homogeneous_extension, identity_map, projective_chart,
                     projectivized_bracket_field)


@pytest.fixture
def pts(darboux3_pair):
    return sample_points(darboux3_pair.chart, 20, seed=1)


def _is_morphism(J1, J2, Phi, pts):
    """check_jacobi_morphism passes, with a residual below 1e-9: a decade
    inside the tolerance of its report."""
    rep = check_jacobi_morphism(J1, J2, Phi, pts)
    return rep.passed and rep.max_residual < 1e-9


def test_darboux3_is_jacobi(darboux3_pair, pts):
    rep = check_jacobi_pair(darboux3_pair, pts)
    assert rep.passed and rep.max_residual < 1e-12


def test_constant_poisson_passes():
    c = Chart("r2", 2)
    J = JacobiPair(c, {(0, 1): 1.0}, [0.0, 0.0])
    rep = check_jacobi_pair(J, sample_points(c, 10, seed=2))
    assert rep.passed


def test_broken_pair_fails(darboux3_pair, pts):
    # Π of darboux3 but E = ∂x: [[Π,Π]] - 2E∧Π ≠ 0 at generic points
    J = JacobiPair(darboux3_pair.chart,
                   {(0, 1): 1.0, (1, 2): lambda x, y, z: -y},
                   [1.0, 0.0, 0.0])
    rep = check_jacobi_pair(J, pts)
    assert not rep.passed


def test_broken_e_pi_half_fails():
    # Π = ∂x∧∂y and E = x∂x: [[Π,Π]] = 2E∧Π holds (both are 3-vectors on
    # R^2) but [[E,Π]] = -∂x∧∂y, so the only nonzero components of the
    # Poissonization's square are its ∂s components -2[[E,Π]]
    J = build("broken-jacobi")
    rep = check_jacobi_pair(J, sample_points(J.chart, 10, seed=3))
    assert not rep.passed and rep.max_residual == 2.0


@pytest.mark.parametrize("order", [1, -1])
def test_a_nan_residual_fails_wherever_it_sits(order):
    # Π = 1e160·x²y ∂x∧∂y overflows to a NaN residual at (0.5, 0.5) and not
    # at (1e-3, 1e-3): both orders of the two points must fail there
    c = Chart("box2", 2, [(-2, 2)] * 2)
    J = JacobiPair(c, {(0, 1): lambda x, y: 1e160 * x**2 * y}, [0.0, 0.0])
    pts = [np.array([0.5, 0.5]), np.array([1e-3, 1e-3])][::order]
    with np.errstate(all="ignore"):
        rep = check_jacobi_pair(J, pts)
    assert not rep.passed and np.isnan(rep.max_residual)
    assert rep.worst_point == [0.5, 0.5]


def test_point_chart_pair_is_jacobi():
    J = zero_pair(Chart("pt", 0, []))
    rep = check_jacobi_pair(J, [np.zeros(0)])
    assert rep.passed and rep.max_residual == 0.0


def test_darboux3_brackets(darboux3_pair, pts):
    x = coordinate(3, 0)
    y = coordinate(3, 1)
    z = coordinate(3, 2)
    one = constant(3, 1.0)
    for p in pts[:5]:
        assert abs(bracket_field(darboux3_pair, x, y).value(p) - 1.0) < 1e-12
        assert abs(bracket_field(darboux3_pair, one, z).value(p) - 1.0) < 1e-12
        assert abs(bracket_field(darboux3_pair, y, z).value(p)) < 1e-12


def test_darboux3_hamiltonian_fields(darboux3_pair, pts):
    x = coordinate(3, 0)
    one = constant(3, 1.0)
    for p in pts[:5]:
        # X_x = ∂y + x ∂z
        assert np.allclose(hamiltonian_field(darboux3_pair, x).at(p),
                           [0.0, 1.0, p[0]], atol=1e-12)
        # X_1 = E
        assert np.allclose(hamiltonian_field(darboux3_pair, one).at(p),
                           [0, 0, 1], atol=1e-14)


def test_so3_casimir(pts):
    J = lie_poisson(so3())
    f = ScalarFieldSpec(3, lambda a, b, c: a * a + b * b + c * c)
    for p in pts[:5]:
        assert np.abs(hamiltonian_field(J, f).at(p)).max() < 1e-12


def test_lie_poisson_brackets():
    J = lie_poisson(so3())
    mu = [coordinate(3, i) for i in range(3)]
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.uniform(-1, 1, 3)
        assert abs(bracket_field(J, mu[0], mu[1]).value(p) - p[2]) < 1e-12
        assert abs(bracket_field(J, mu[1], mu[2]).value(p) - p[0]) < 1e-12
        assert abs(bracket_field(J, mu[2], mu[0]).value(p) - p[1]) < 1e-12
    A = lie_poisson(abelian(3))
    assert abs(bracket_field(A, mu[0], mu[1]).value([0.5, 0.5, 0.5])) < 1e-14
    F = lie_poisson(aff1())
    m = [coordinate(2, i) for i in range(2)]
    p = np.array([0.4, -0.9])
    assert abs(bracket_field(F, m[0], m[1]).value(p) - p[1]) < 1e-12


def test_jacobi_pairs_certified(pts):
    for J in (lie_poisson(so3()), lie_poisson(aff1())):
        sample = sample_points(J.chart, 20, seed=4)
        assert check_jacobi_pair(J, sample).passed


def _one_jet(f, p):
    """j¹f(p) = (df, f) in the jet coordinates of jacobi_bidiff_matrix."""
    j = f(p, 1)
    return np.append(j.grad, j.value)


def test_nested_bracket_jacobi_identity(darboux3_pair):
    # {f,{g,h}} + {g,{h,f}} + {h,{f,g}} = 0: the inner bracket a derived
    # field, the outer one j¹f · M(p) · j¹{g,h}(p), independent of the
    # Schouten route of check_jacobi_pair
    J = darboux3_pair
    rng = np.random.default_rng(5)
    pts = sample_points(J.chart, 100, seed=6)
    for _ in range(20):
        c = rng.normal(size=9)
        f = ScalarFieldSpec(3, lambda x, y, z, c=c: c[0] * x + c[1] * y * z + c[2])
        g = ScalarFieldSpec(3, lambda x, y, z, c=c: c[3] * y + c[4] * x * x + c[5])
        h = ScalarFieldSpec(3, lambda x, y, z, c=c: c[6] * z + c[7] * x * y + c[8])
        outer = [(a, bracket_field(J, b, c))
                 for a, b, c in ((f, g, h), (g, h, f), (h, f, g))]
        for p in pts[:5]:
            M = jacobi_bidiff_matrix(J, p)
            cyc = sum(_one_jet(a, p) @ M @ _one_jet(bc, p) for a, bc in outer)
            assert abs(cyc) < 1e-8


def test_e_equals_x1(darboux3_pair, pts):
    one = constant(3, 1.0)
    for p in pts:
        assert np.allclose(hamiltonian_field(darboux3_pair, one).at(p),
                           darboux3_pair.E.at(p), atol=1e-14)


def test_morphism_projection_to_zero_pair(darboux3_pair):
    # triv-gpd-style projection (q,p,u) ↦ q onto the zero pair, a = 1
    total = Chart("gpd", 3, [(-2, 2)] * 3)
    J1 = JacobiPair(total, {(0, 1): -1.0, (1, 2): lambda q, p, u: -p},
                    [0.0, 0.0, 1.0])
    base = Chart("base", 1, [(-2, 2)])
    J2 = zero_pair(base)
    proj = ConformalMap(SmoothMap(total, base, [lambda q, p, u: q]))
    pts = sample_points(total, 10, seed=7)
    assert _is_morphism(J1, J2, proj, pts)


def test_morphism_identity_map(darboux3_pair, pts):
    J = darboux3_pair
    Phi = ConformalMap(identity_map(J.chart))
    assert _is_morphism(J, J, Phi, pts[:5])


def test_morphism_wrong_projection_fails(darboux3_pair):
    # u-projection onto the zero pair: {f(u), g(u)} = f g' - g f' ≠ 0
    total = Chart("gpd", 3, [(-2, 2)] * 3)
    J1 = JacobiPair(total, {(0, 1): -1.0, (1, 2): lambda q, p, u: -p},
                    [0.0, 0.0, 1.0])
    base = Chart("base", 1, [(-2, 2)])
    J2 = zero_pair(base)
    proj = ConformalMap(SmoothMap(total, base, [lambda q, p, u: u]))
    pts = sample_points(total, 10, seed=8)
    assert not check_jacobi_morphism(J1, J2, proj, pts).passed


def test_morphism_composition(darboux3_pair):
    # if (φ,a) and (ψ,b) pass, then (ψ∘φ, a·(b∘φ)) passes
    c = darboux3_pair.chart
    Jp = conformal_change(darboux3_pair,
                          ScalarFieldSpec(3, lambda x, y, z: 2.0 + 0.0 * x))
    # identity with factor 2 both legs; composite has factor 4
    two = ScalarFieldSpec(3, lambda x, y, z: 2.0 + 0.0 * x)
    Phi = ConformalMap(identity_map(c), two)
    pts = sample_points(c, 5, seed=9)
    assert _is_morphism(darboux3_pair, Jp, Phi, pts)
    Jpp = conformal_change(Jp, two)
    Psi = ConformalMap(identity_map(c), two)
    assert _is_morphism(Jp, Jpp, Psi, pts)
    comp = ConformalMap(identity_map(c),
                        ScalarFieldSpec(3, lambda x, y, z: 4.0 + 0.0 * x))
    assert _is_morphism(darboux3_pair, Jpp, comp, pts)


def test_projectivized_bracket_su2():
    g = so3()
    w1 = coordinate(2, 0)
    w2 = coordinate(2, 1)
    # {μ3 w1, μ3 w2} = {μ1, μ2} = μ3 = 1 on the slice... as a chart value,
    # the bracket of the linear extensions at w is 1 + |w|^2 times nothing:
    # direct hand value at w: Π^12_chart = 1 + w1^2 + w2^2, E = (w2, -w1)
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.uniform(-1, 1, 2)
        val = projectivized_bracket_field(g, 2, w1, w2).value(p)
        assert abs(val - 1.0) < 1e-10  # degree-1 extensions are linear here
        # antisymmetry
        anti = projectivized_bracket_field(g, 2, w2, w1).value(p)
        assert abs(anti + val) < 1e-10


def test_projectivized_abelian_zero():
    g = abelian(3)
    b1 = ScalarFieldSpec(2, lambda u, v: u * v + 1.0)
    b2 = ScalarFieldSpec(2, lambda u, v: u - v)
    bracket = projectivized_bracket_field(g, 0, b1, b2)
    assert abs(bracket.value([0.3, 0.4])) < 1e-14


def test_projectivized_chart_index_guard():
    with pytest.raises(ChartIndexInvalid):
        projective_chart(so3(), 5)
    with pytest.raises(ChartIndexInvalid):
        projectivized_bracket_field(so3(), -1, coordinate(2, 0), coordinate(2, 1))


def test_projectivized_homogeneity_in_representative():
    # evaluating the coalgebra bracket at tμ scales the output by t
    g = so3()
    b1 = ScalarFieldSpec(2, lambda u, v: u * u / (1.0 + v * v) + u)
    b2 = ScalarFieldSpec(2, lambda u, v: v + 2.0 * u)
    lp = lie_poisson(g)
    B1 = homogeneous_extension(g, 2, b1)
    B2 = homogeneous_extension(g, 2, b2)
    br = bracket_field(lp, B1, B2)
    rng = np.random.default_rng(13)
    for t in (2.0, 1.0 / 3.0, -1.0):
        mu = rng.uniform(0.5, 1.5, size=3)
        assert abs(br.value(t * mu) - t * br.value(mu)) < 1e-9 * max(1, abs(t))


def test_extract_pair_round_trip(darboux3_pair, pts):
    oracle = lambda f, g: bracket_field(darboux3_pair, f, g)
    J = extract_pair_from_bracket(oracle, darboux3_pair.chart, pts[:5])
    rng = np.random.default_rng(15)
    for _ in range(5):
        p = rng.uniform(-1, 1, 3)
        assert np.abs(J.pi_matrix(p)
                      - darboux3_pair.pi_matrix(p)).max() < 1e-10
        assert np.abs(J.E.at(p) - darboux3_pair.E.at(p)).max() < 1e-10


def test_extract_pair_from_su2_oracle():
    g = so3()
    chart = projective_chart(g, 2)
    oracle = lambda f, h: projectivized_bracket_field(g, 2, f, h)
    pts = sample_points(chart, 5, seed=16)
    J = extract_pair_from_bracket(oracle, chart, pts)
    assert check_jacobi_pair(J, sample_points(chart, 20, seed=17)).passed
    # hand-derived components: Π^12 = 1 + |w|^2, E = (w2, -w1)
    p = np.array([0.7, -0.4])
    assert abs(J.pi_matrix(p)[0, 1] - (1 + p @ p)) < 1e-10
    assert np.allclose(J.E.at(p), [p[1], -p[0]], atol=1e-10)


def test_extract_zero_oracle():
    c = Chart("r2", 2)
    oracle = lambda f, g: constant(2, 0.0)
    J = extract_pair_from_bracket(oracle, c, sample_points(c, 3, seed=18))
    assert np.abs(J.pi_matrix([0.1, 0.2])).max() == 0.0


def test_extract_rejects_inconsistent_oracle():
    c = Chart("r2", 2)
    # not antisymmetric: {f,g} = f·g
    oracle = lambda f, g: f * g
    with pytest.raises(OracleMismatch):
        extract_pair_from_bracket(oracle, c, sample_points(c, 3, seed=19))


def test_conformal_change_identity(darboux3_pair, pts):
    J = conformal_change(darboux3_pair, constant(3, 1.0))
    p = pts[0]
    assert np.abs(J.pi_matrix(p) - darboux3_pair.pi_matrix(p)).max() < 1e-12


def test_conformal_change_by_two(darboux3_pair, pts):
    # constant factor c rescales the whole pair: J' = (cΠ, cE), since
    # E' = cE + Π♯(dc) and dc = 0; validated by the round-trip morphism
    two = constant(3, 2.0)
    J = conformal_change(darboux3_pair, two)
    p = pts[0]
    assert np.abs(J.pi_matrix(p)
                  - 2.0 * darboux3_pair.pi_matrix(p)).max() < 1e-10
    assert np.abs(J.E.at(p) - 2.0 * darboux3_pair.E.at(p)).max() < 1e-10
    Phi = ConformalMap(identity_map(darboux3_pair.chart), two)
    assert _is_morphism(darboux3_pair, J, Phi, pts[:5])


def test_conformal_change_defining_property(darboux3_pair, pts):
    c = ScalarFieldSpec(3, lambda x, y, z: 1.0 + 0.25 * x * x + 0.5 * z)
    J = conformal_change(darboux3_pair, c)
    Phi = ConformalMap(identity_map(darboux3_pair.chart), c)
    assert _is_morphism(darboux3_pair, J, Phi, pts[:10])


def test_conformal_change_matches_extraction(darboux3_pair, pts):
    # the closed form (cΠ, X_c) against the pair extracted from the oracle
    # (f, g) ↦ c⁻¹ {cf, cg}_J, for a non-constant c
    from jdl.jets import exp, sin
    c = ScalarFieldSpec(3, lambda x, y, z: 2.0 + sin(x * y) + 0.3 * exp(z))
    J = conformal_change(darboux3_pair, c)
    K = extract_pair_from_bracket(
        lambda f, g: bracket_field(darboux3_pair, c * f, c * g) / c,
        darboux3_pair.chart, pts[:5])
    for p in pts:
        assert np.abs(J.pi_matrix(p) - K.pi_matrix(p)).max() <= 1e-12
        assert np.abs(J.E.at(p) - K.E.at(p)).max() <= 1e-12
