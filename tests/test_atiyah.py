import numpy as np
import pytest

from jdl.atiyah import (check_one_perp_is_horizontal, check_sharp_inverse,
                        check_technical_lemma, ker_DPhi_from, varpi_matrix)
from jdl.chart import Chart, SmoothMap, sample_points, tangent_map
from jdl.contact import contact_to_jacobi
from jdl.errors import ZeroConformalFactor
from jdl.fields import ScalarFieldSpec, as_field, compose, constant, coordinate
from jdl.jacobi import (ConformalMap, JacobiPair, bracket_field,
                        default_test_functions, jacobi_bidiff_matrix)
from jdl.jets import exp
from jdl.linalg import kernel, span_of, subspace_equal

from oracles import compose_maps, dphi_matrix, identity_map, negated

# Derivations are coordinate vectors (X, g) and jets (α, c), as in the
# module docstring of jdl.atiyah; a derivation pairs with a jet by the dot
# product.


def _jet(f, p):
    """j¹f(p) = (df(p), f(p))."""
    p = np.asarray(p, dtype=float)
    j = as_field(p.size, f)(p, 1)
    return np.append(j.grad, j.value)


def _ker_dphi(Phi, p):
    """ker DΦ at p from Tφ(p), a(p) and da(p)."""
    return ker_DPhi_from([kernel(tangent_map(Phi.map, p))],
                         [Phi.factor_value(p)], [Phi.factor(p, 1).grad])[0]


@pytest.fixture
def pts(darboux3):
    return sample_points(darboux3.chart, 20, seed=31)


def test_pairing_is_derivation_action():
    # ⟨(X,g), j¹f⟩ = X(f) + g f
    p = np.array([0.4, -0.3])
    f = ScalarFieldSpec(2, lambda x, y: x * x * y + y)
    d = np.array([1.0, 2.0, 0.5])
    manual = (f.partial(0).value(p) * 1.0 + f.partial(1).value(p) * 2.0
              + 0.5 * f.value(p))
    assert abs(d @ _jet(f, p) - manual) < 1e-12


def test_varpi_trivgpd_values(trivgpd, pts):
    # ϖ((∂q,0),(∂p,0)) = -1 and ϖ(1,(X,g)) = θ(X)
    for p in pts[:5]:
        W = varpi_matrix(trivgpd, p)
        assert abs(W[0, 1] + 1.0) < 1e-12
        th = trivgpd.theta.dense(p)
        assert np.allclose(W[3, :3], th, atol=1e-12)
        assert abs(np.linalg.det(W)) > 1e-8


def test_varpi_nondegenerate_darboux(darboux3):
    pts = sample_points(darboux3.chart, 100, seed=32)
    for p in pts:
        assert abs(np.linalg.det(varpi_matrix(darboux3, p))) > 1e-8


def test_one_perp_is_horizontal(darboux3):
    pts = sample_points(darboux3.chart, 100, seed=33)
    assert check_one_perp_is_horizontal(darboux3, pts).passed


def test_bidiff_reproduces_bracket(darboux3, pts):
    J = contact_to_jacobi(darboux3)
    f = ScalarFieldSpec(3, lambda x, y, z: x * y + z)
    g = ScalarFieldSpec(3, lambda x, y, z: y * z - x)
    for p in pts[:10]:
        lhs = _jet(f, p) @ jacobi_bidiff_matrix(J, p) @ _jet(g, p)
        rhs = bracket_field(J, f, g).value(p)
        assert abs(lhs - rhs) < 1e-10


def test_bidiff_slots(darboux3):
    J = contact_to_jacobi(darboux3)
    M = jacobi_bidiff_matrix(J, np.array([0.2, 0.5, -0.1]))
    # J((dx,0),(dy,0)) = Π(dx,dy) = 1
    jx, jy = np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])
    assert abs(jx @ M @ jy - 1.0) < 1e-10
    # J((0,1),(β,0)) = β(E)
    j1, jb = np.array([0, 0, 0, 1.0]), np.array([0.3, -0.2, 0.7, 0.0])
    assert abs(j1 @ M @ jb - 0.7) < 1e-10


def test_sharp_inverse(darboux3, trivgpd):
    for C in (darboux3, trivgpd):
        pts = sample_points(C.chart, 20, seed=35)
        J = contact_to_jacobi(C)
        assert check_sharp_inverse(C, J, pts).passed
        # broken control: doubling Π breaks the inverse
        broken = JacobiPair(C.chart,
                            {k: f * 2.0 for k, f in J.Pi.comps.items()},
                            [c * 2.0 for c in J.E.comps])
        assert not check_sharp_inverse(C, broken, pts).passed


def _pushforward_oracle_error(Phi, d, p):
    """Worst |(DΦ δ)(μ) - Φ_x(δ(Φ*μ))| over the target test sections μ, for
    the derivation δ = d at p: the closed form against the defining action,
    in which Φ*μ = a·(μ∘φ) and Φ_x multiplies by 1/a(x)."""
    out, q = dphi_matrix(Phi, p) @ d, Phi.map(p)
    a = Phi.factor.value(p)
    return max(abs(out @ _jet(mu, q) - d @ _jet(Phi.pullback(mu), p) / a)
               for mu in default_test_functions(Phi.map.target))


def test_gauge_pushforward_closed_form():
    src = Chart("src", 2, [(-1, 1)] * 2)
    dst = Chart("dst", 2, [(-1, 1)] * 2)
    # a ≡ 1: DΦ(X,g) = (TφX, g)
    F = SmoothMap(src, dst, [lambda x, y: x + y, lambda x, y: y])
    Phi = ConformalMap(F)
    p = np.array([0.2, 0.3])
    d = np.array([1.0, 0.0, 0.7])
    out = dphi_matrix(Phi, p) @ d
    assert np.allclose(out[:-1], [1.0, 0.0]) and abs(out[-1] - 0.7) < 1e-14
    assert _pushforward_oracle_error(Phi, d, p) < 1e-12
    # DΦ(1) = 1 always
    one = np.array([0.0, 0.0, 1.0])
    out = dphi_matrix(Phi, p) @ one
    assert np.abs(out[:-1]).max() < 1e-14 and abs(out[-1] - 1.0) < 1e-14
    assert _pushforward_oracle_error(Phi, one, p) < 1e-12


def test_gauge_pushforward_exponential_factor():
    c = Chart("r1", 1, [(-1, 1)])
    Phi = ConformalMap(identity_map(c), ScalarFieldSpec(1, lambda x: exp(x)))
    p, d = np.array([0.4]), np.array([1.0, 0.0])
    out = dphi_matrix(Phi, p) @ d
    assert abs(out[-1] - 1.0) < 1e-12     # X(a)/a = 1 for a = e^x
    assert _pushforward_oracle_error(Phi, d, p) < 1e-12


def test_gauge_pushforward_oracle_mismatch():
    # the oracle sees Φ* doubled, the closed form does not
    class DoubledPullback(ConformalMap):
        def pullback(self, g):
            return 2.0 * super().pullback(g)

    c = Chart("r2", 2, [(-1, 1)] * 2)
    Phi = DoubledPullback(identity_map(c))
    d = np.array([1.0, 0.5, 0.7])
    assert _pushforward_oracle_error(Phi, d, np.array([0.2, 0.3])) > 1e-3


def test_gauge_pushforward_zero_factor():
    # a = x vanishes on x = 0; the guard reads |a| <= RANK_TOL·|j¹a|, and
    # |j¹a| is about 1 here
    c = Chart("r2", 2, [(-1, 1)] * 2)
    Phi = ConformalMap(identity_map(c), ScalarFieldSpec(2, lambda x, y: x))
    d = np.array([1.0, 0.0, 0.5])
    for x in (0.0, 1e-10):
        with pytest.raises(ZeroConformalFactor):
            dphi_matrix(Phi, np.array([x, 0.3]))
    out = dphi_matrix(Phi, np.array([0.5, 0.3])) @ d
    assert abs(out[-1] - 2.5) < 1e-12     # g + X(a)/a = 0.5 + 1/0.5


def test_pushforward_functoriality():
    a = Chart("a", 2, [(-1, 1)] * 2)
    b = Chart("b", 2, [(-1, 1)] * 2)
    c = Chart("c", 2, [(-1, 1)] * 2)
    F = ConformalMap(SmoothMap(a, b, [lambda x, y: x + y * y, lambda x, y: y]),
                     ScalarFieldSpec(2, lambda x, y: 1.0 + 0.5 * x * x))
    G = ConformalMap(SmoothMap(b, c, [lambda u, v: u * v, lambda u, v: u + v]),
                     ScalarFieldSpec(2, lambda u, v: exp(0.3 * u)))
    comp_map = compose_maps(G.map, F.map)
    comp_factor = F.factor * compose(G.factor, F.map.components)
    GF = ConformalMap(comp_map, comp_factor)
    rng = np.random.default_rng(36)
    for _ in range(10):
        p = rng.uniform(-0.9, 0.9, 2)
        d = rng.normal(size=3)
        one_step = dphi_matrix(GF, p) @ d
        two_step = dphi_matrix(G, F.map(p)) @ (dphi_matrix(F, p) @ d)
        assert np.abs(one_step - two_step).max() < 1e-10


def _q_leg(C, scale=1.0):
    """(q, p, u) ↦ scale·q onto a line, with a ≡ 1.  At scale 1e-10 its Tφ
    is tiny next to the g-row of DΦ."""
    base = Chart("base", 1, [(-2, 2)])
    return ConformalMap(SmoothMap(C.chart, base,
                                  [lambda q, p, u: scale * q]))


def test_ker_dphi_shapes(trivgpd):
    total = trivgpd.chart
    p = np.array([0.1, 0.4, -0.6])
    expected = span_of([[0, 1, 0, 0], [0, 0, 1, 0]])
    # the projection, and the same leg scaled by 1e-10, where the
    # relative-rank SVD kernel of DΦ drops the Tφ row and reads dim 3
    for scale in (1.0, 1e-10):
        K = _ker_dphi(_q_leg(trivgpd, scale), p)
        assert K.dim == 2
        same, _ = subspace_equal(K, expected)
        assert same
    assert kernel(dphi_matrix(_q_leg(trivgpd, 1e-10), p)).dim == 3
    # map to a point chart: kernel is all (X, -X(a)/a), dim = chart dim
    point = Chart("pt", 1, [(-1, 1)])
    compress = ConformalMap(SmoothMap(total, point, [lambda q, p, u: 0.0 * q]))
    assert _ker_dphi(compress, p).dim == 3
    # immersion: zero kernel
    base = Chart("base", 1, [(-2, 2)])
    big = Chart("big", 4, [(-2, 2)] * 4)
    emb = ConformalMap(SmoothMap(base, big, [lambda t: t, lambda t: t * t,
                                             lambda t: 0.0 * t, lambda t: 1.0 + 0.0 * t]))
    assert _ker_dphi(emb, np.array([0.3])).dim == 0


def test_dphi_symbol_compatibility():
    # σ ∘ DΦ = Tφ ∘ σ and dim ker DΦ = dim ker Tφ
    total = Chart("m", 3, [(-1, 1)] * 3)
    base = Chart("b", 2, [(-2, 2)] * 2)
    Phi = ConformalMap(
        SmoothMap(total, base, [lambda x, y, z: x * y, lambda x, y, z: z]),
        ScalarFieldSpec(3, lambda x, y, z: 1.0 + 0.1 * x))
    rng = np.random.default_rng(37)
    for _ in range(5):
        p = rng.uniform(-0.9, 0.9, 3)
        M = dphi_matrix(Phi, p)
        T = tangent_map(Phi.map, p)
        assert np.abs(M[:2, :3] - T).max() < 1e-12
        assert _ker_dphi(Phi, p).dim == kernel(T).dim


def _hamiltonian_derivation(J, f, p):
    """Δ_f = J♯ j¹f at p, with J♯ = Mᵀ for the bi-DO matrix M of J."""
    return jacobi_bidiff_matrix(J, p).T @ _jet(f, p)


def _derivation_oracle_error(J, f, p, oracle=None):
    """Worst |Δ_f(g) - {f, g}(p)| over the test sections g, with the
    bracket read from the field tree of ``oracle`` (default J)."""
    d = _hamiltonian_derivation(J, f, p)
    return max(abs(d @ _jet(g, p)
                   - bracket_field(oracle or J, f, g).value(p))
               for g in default_test_functions(J.chart))


def test_hamiltonian_derivation_values(darboux3, pts):
    J = contact_to_jacobi(darboux3)
    one = constant(3, 1.0)
    z = coordinate(3, 2)
    for p in pts[:5]:
        d = _hamiltonian_derivation(J, one, p)
        assert np.allclose(d, [0, 0, 1, 0], atol=1e-10)
        d = _hamiltonian_derivation(J, z, p)
        assert abs(d[-1] + 1.0) < 1e-10     # -E(z) = -1
        for f in (one, z, coordinate(3, 0), darboux3.theta.comps[(0,)]):
            assert _derivation_oracle_error(J, f, p) < 1e-10


def test_hamiltonian_derivation_oracle_mismatch(darboux3, pts):
    # the oracle's bracket is that of the opposite pair (-Π, -E)
    J = contact_to_jacobi(darboux3)
    assert _derivation_oracle_error(J, coordinate(3, 0), pts[0],
                                    oracle=negated(J)) > 1e-3


def test_technical_lemma_trivgpd(trivgpd):
    J = contact_to_jacobi(trivgpd)
    pts = sample_points(trivgpd.chart, 20, seed=38)
    # at scale 1e-10 the spans of the lemma hold only when normalized
    for scale in (1.0, 1e-10):
        assert check_technical_lemma(_q_leg(trivgpd, scale), J, pts).passed


def test_technical_lemma_identity_and_point(darboux3):
    J = contact_to_jacobi(darboux3)
    pts = sample_points(darboux3.chart, 10, seed=39)
    ident = ConformalMap(identity_map(darboux3.chart))
    assert check_technical_lemma(ident, J, pts).passed
    point = Chart("pt", 1, [(-1, 1)])
    to_pt = ConformalMap(SmoothMap(darboux3.chart, point,
                                   [lambda x, y, z: 0.0 * x]))
    assert check_technical_lemma(to_pt, J, pts).passed
