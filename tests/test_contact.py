import itertools

import numpy as np
import pytest
import sympy

from jdl import contact
from jdl.calculus import VectorField, exterior_d_form
from jdl.catalog import build
from jdl.chart import Chart, sample_points
from jdl.contact import (ContactStructure, check_contact, check_lcs,
                         contact_to_jacobi, curvature_form, varpi_jet,
                         varpi_matrix)
from jdl.errors import (DegenerateCurvature, EvenDimension, OracleMismatch,
                        OrderUnsupported, SingularOmega, SingularSystem)
from jdl.fields import Field, ScalarFieldSpec, constant, coordinate, point_memo
from jdl.homogenize import check_symplectization, slit_chart
from jdl.jacobi import (JacobiPair, bracket_field, check_jacobi_pair,
                        hamiltonian_field)
from jdl.jets import exp

from conftest import extract_pair_from_bracket, reference_jet_solve
from oracles import (LcsStructure, coeff, conformal_change,
                     contact_field_property, lcs_bracket, lcs_from_even_pair,
                     lcs_hamiltonian_vf, reeb, wedge_form)


@pytest.fixture
def pts(darboux3):
    return sample_points(darboux3.chart, 20, seed=21)


def volume_coefficient(C, p):
    """Top coefficient of θ∧(dθ)ⁿ at p, from the wedge trees: the defining
    oracle of check_contact's verdict."""
    form, dtheta = C.theta, exterior_d_form(C.theta)
    for _ in range(C.n):
        form = wedge_form(form, dtheta)
    return coeff(form, tuple(range(C.chart.dim)), p)


def _flat(scale=1.0):
    """θ = scale·dz on the box [-2, 2]^3: closed, so nowhere contact."""
    return ContactStructure(Chart("flat", 3, [(-2, 2)] * 3), {(2,): scale})


def _scaled_darboux3(scale):
    """θ = scale·(dz - y dx), a contact form at every scale."""
    return ContactStructure(Chart("darboux3", 3, [(-2, 2)] * 3),
                            {(0,): lambda x, y, z: -scale * y, (2,): scale})


def test_check_contact_darboux(darboux3, pts):
    rep = check_contact(darboux3, pts)
    assert rep.passed
    assert abs(abs(volume_coefficient(darboux3, pts[0])) - 1.0) < 1e-12


def test_check_contact_fails_for_closed_form(pts):
    assert not check_contact(_flat(), pts).passed   # θ = dz, dθ = 0


@pytest.mark.parametrize("name", ["darboux3", "trivgpd", "darboux5", "flat"])
def test_check_contact_agrees_with_the_volume_oracle(name, request):
    """The ϖ-nondegeneracy verdict is the wedge-tree one, |θ∧(dθ)ⁿ| > 0,
    point by point."""
    C = _flat() if name == "flat" else request.getfixturevalue(name)
    for p in sample_points(C.chart, 5, seed=24):
        assert check_contact(C, [p]).passed == (
            abs(volume_coefficient(C, p)) > 0)


@pytest.mark.parametrize("scale", [1e-4, 1e-6])
def test_contact_verdicts_ignore_the_scale_of_theta(scale, pts):
    C = _scaled_darboux3(scale)
    assert check_contact(C, pts).passed
    big = slit_chart(C.chart)
    assert check_symplectization(C, sample_points(big, 10, seed=68)).passed
    H, _ = curvature_form(np.stack([varpi_matrix(C, p) for p in pts]))
    assert [h.dim for h in H] == [2] * len(pts)


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-6])
def test_closed_form_is_not_contact_at_any_scale(scale, pts):
    C = _flat(scale)
    assert not check_contact(C, pts).passed
    with pytest.raises(DegenerateCurvature):
        curvature_form(varpi_matrix(C, pts[0])[None])


def test_check_contact_trivgpd(trivgpd):
    pts = sample_points(trivgpd.chart, 20, seed=22)
    assert check_contact(trivgpd, pts).passed


def test_even_dim_guard():
    with pytest.raises(EvenDimension):
        ContactStructure(Chart("r2", 2), {(0,): 1.0})


def test_reeb_darboux(darboux3, pts):
    for p in pts[:5]:
        assert np.allclose(reeb(darboux3, p), [0, 0, 1], atol=1e-12)
    E = contact_to_jacobi(darboux3).E
    assert np.allclose(E.at(pts[0]), [0, 0, 1], atol=1e-12)


def test_reeb_trivgpd(trivgpd):
    pts = sample_points(trivgpd.chart, 5, seed=23)
    for p in pts:
        assert np.allclose(reeb(trivgpd, p), [0, 0, 1], atol=1e-12)


def test_reeb_scaling(darboux3):
    # θ' = 2θ has Reeb E' = E/2
    chart = darboux3.chart
    C2 = ContactStructure(chart, {(0,): lambda x, y, z: -2.0 * y, (2,): 2.0})
    p = [0.3, 0.4, 0.5]
    assert np.allclose(reeb(C2, p), [0, 0, 0.5], atol=1e-12)


def test_reeb_rejects_noncontact():
    chart = Chart("flat", 3, [(-2, 2)] * 3)
    C = ContactStructure(chart, {(2,): 1.0})
    with pytest.raises(SingularSystem):
        reeb(C, [0.1, 0.2, 0.3])


def test_curvature_darboux_origin(darboux3):
    (H,), c = curvature_form(varpi_matrix(darboux3, [0.0, 0.0, 0.0])[None])
    assert H.dim == 2
    # c = -(dθ)|_H is nondegenerate with |det| = 1 at the origin
    assert abs(abs(np.linalg.det(c.matrix[0])) - 1.0) < 1e-12
    # the value c(∂x, ∂y) = -1 read in the (∂x, ∂y)-aligned H-basis
    ex = H.basis.T @ np.array([1.0, 0.0, 0.0])
    ey = H.basis.T @ np.array([0.0, 1.0, 0.0])
    assert abs(float(ex @ c.matrix[0] @ ey) + 1.0) < 1e-12


def test_curvature_nondegenerate_everywhere(darboux3):
    pts = sample_points(darboux3.chart, 100, seed=24)
    _, c = curvature_form(np.stack([varpi_matrix(darboux3, p) for p in pts]))
    assert (np.abs(np.linalg.det(c.matrix)) > 1e-8).all()


def test_curvature_trivgpd_value(trivgpd):
    # c(∂p, ∂q - p∂u) = -1
    p = np.array([0.4, 0.7, -0.2])
    (H,), c = curvature_form(varpi_matrix(trivgpd, p)[None])
    v1 = H.basis.T @ np.array([0.0, 1.0, 0.0])
    v2 = H.basis.T @ np.array([1.0, 0.0, -p[1]])
    assert abs(float(v1 @ c.matrix[0] @ v2) + 1.0) < 1e-12


def test_hamiltonian_fields_darboux(darboux3, pts):
    x = coordinate(3, 0)
    y = coordinate(3, 1)
    one = constant(3, 1.0)
    J = contact_to_jacobi(darboux3)
    for p in pts[:5]:
        assert np.allclose(hamiltonian_field(J, x).at(p),
                           [0.0, 1.0, p[0]], atol=1e-10)
        assert np.allclose(hamiltonian_field(J, one).at(p),
                           [0, 0, 1], atol=1e-10)
        assert np.allclose(hamiltonian_field(J, y).at(p),
                           [-1.0, 0.0, 0.0], atol=1e-10)


def test_theta_of_hamiltonian_is_f(darboux3, pts):
    f = ScalarFieldSpec(3, lambda x, y, z: x * y + z * z - 0.5)
    Xf = hamiltonian_field(contact_to_jacobi(darboux3), f)
    for p in pts:
        X = Xf.at(p)
        assert abs(darboux3.theta.dense(p) @ X - f.value(p)) < 1e-10


def test_contact_field_property(darboux3, pts):
    f = ScalarFieldSpec(3, lambda x, y, z: x + y * z)
    for p in pts[:10]:
        assert contact_field_property(darboux3, f, p) < 1e-10


def test_contact_to_jacobi_darboux(darboux3, pts):
    J = contact_to_jacobi(darboux3)
    p = pts[0]
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    expected[1, 2] = -p[1]
    expected[2, 1] = p[1]
    assert np.abs(J.pi_matrix(p) - expected).max() < 1e-10
    assert np.allclose(J.E.at(p), [0, 0, 1], atol=1e-10)
    assert check_jacobi_pair(J, pts).passed


def test_contact_to_jacobi_trivgpd(trivgpd):
    # θ = du + p dq gives Π = ∂p∧(∂q - p∂u), E = ∂u (so {p,q} = +1)
    J = contact_to_jacobi(trivgpd)
    p = np.array([0.5, -0.8, 0.1])
    M = J.pi_matrix(p)
    assert abs(M[1, 0] - 1.0) < 1e-10       # Π^{pq} = +1
    assert abs(M[1, 2] + p[1]) < 1e-10      # Π^{pu} = -p
    assert np.allclose(J.E.at(p), [0, 0, 1], atol=1e-10)


def test_contact_pair_stops_at_order_2(trivgpd):
    # ϖ holds dθ, one derivative of θ more than the pair, and jets stop at 2
    pi_qp = contact_to_jacobi(trivgpd).Pi.comps[(0, 1)]
    p = np.array([0.5, -0.8, 0.1])
    assert pi_qp(p, 1).order == 1
    with pytest.raises(OrderUnsupported, match="only order 1"):
        pi_qp(p, 2)


def test_lcs_fields_stop_at_order_1():
    # ω and η are read off a jet solve of Π's 1-jet, as the contact pair is
    chart = Chart("r2", 2, [(-2, 2)] * 2)
    L = lcs_from_even_pair(conformal_change(
        JacobiPair(chart, {(0, 1): 1.0}, [0.0, 0.0]),
        ScalarFieldSpec(2, lambda x, y: exp(0.5 * x))))
    p = np.array([0.4, -0.3])
    for f in (L.omega.comps[(0, 1)], L.eta.comps[(0,)]):
        assert f(p, 1).order == 1
        with pytest.raises(OrderUnsupported, match="only order 1"):
            f(p, 2)


def test_route_agreement(darboux3):
    # the pair's X_f equals the float least-squares solution of
    # θ(X) = f and i_X dθ = -df + E(f)·θ, with E from reeb
    f = ScalarFieldSpec(3, lambda x, y, z: x * z + y)
    Xf = hamiltonian_field(contact_to_jacobi(darboux3), f)
    dtheta = exterior_d_form(darboux3.theta)
    for p in sample_points(darboux3.chart, 100, seed=25):
        th, dth = darboux3.theta.dense(p), dtheta.dense(p)
        fj = f(p, 1)
        E = reeb(darboux3, p)
        b = np.append(fj.value, -fj.grad + (fj.grad @ E) * th)
        X = np.linalg.lstsq(np.vstack([th, dth.T]), b, rcond=None)[0]
        assert np.abs(Xf.at(p) - X).max() < 1e-9


def test_transitive(darboux3, pts):
    # characteristic distribution of the induced pair is everything
    J = contact_to_jacobi(darboux3)
    from jdl.leaves import characteristic_subspace
    for p in pts[:5]:
        assert characteristic_subspace(J, p).dim == 3


def test_lcs_symplectic_plane():
    chart = Chart("r2", 2, [(-2, 2)] * 2)
    L = LcsStructure(chart, {}, {(0, 1): 1.0})
    pts = sample_points(chart, 10, seed=26)
    assert check_lcs(L, pts).passed
    x = coordinate(2, 0)
    y = coordinate(2, 1)
    for p in pts[:5]:
        assert abs(lcs_bracket(L, x, y, p) - 1.0) < 1e-12


@pytest.mark.parametrize("scale", [1e-6, 1e-9])
def test_lcs_verdict_ignores_the_scale_of_omega(scale):
    chart = Chart("r2", 2, [(-2, 2)] * 2)
    L = LcsStructure(chart, {}, {(0, 1): scale})
    assert check_lcs(L, sample_points(chart, 10, seed=26)).passed


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_lcs_rejects_a_singular_omega(scale):
    # ω = scale·x dx∧dy vanishes on the line x = 0
    chart = Chart("r2", 2, [(-2, 2)] * 2)
    L = LcsStructure(chart, {}, {(0, 1): lambda x, y: scale * x})
    assert check_lcs(L, [[0.5, 0.3]]).passed
    with pytest.raises(SingularOmega):
        check_lcs(L, [[0.5, 0.3], [0.0, 0.3]])


def test_lcs_bracket_matches_pair_bracket():
    # η = 0 reduces to the Poisson bracket of the inverse pair
    chart = Chart("r2", 2, [(-2, 2)] * 2)
    L = LcsStructure(chart, {}, {(0, 1): 1.0})
    J = JacobiPair(chart, {(0, 1): 1.0}, [0.0, 0.0])
    rng = np.random.default_rng(27)
    f = ScalarFieldSpec(2, lambda x, y: x * x + y)
    g = ScalarFieldSpec(2, lambda x, y: x * y - 1.0)
    for _ in range(5):
        p = rng.uniform(-1, 1, 2)
        assert abs(lcs_bracket(L, f, g, p)
                   - bracket_field(J, f, g).value(p)) < 1e-10


def test_lcs_exponential_example():
    # (η, ω) = (dx, e^x dx∧dy) on R^2: a genuine l.c.s. structure
    chart = Chart("r2", 2, [(-1, 1)] * 2)
    L = LcsStructure(chart, {(0,): 1.0},
                     {(0, 1): lambda x, y: exp(x)})
    rep = check_lcs(L, sample_points(chart, 10, seed=28))
    assert rep.passed
    assert "degenerate-dimension" in rep.notes


def _r4_lcs(eta0):
    """(η, ω) = (eta0·dx0, e^{x0}(dx0∧dx1 + dx2∧dx3)) on [-1, 1]^4."""
    chart = Chart("r4", 4, [(-1, 1)] * 4)
    return LcsStructure(chart, {(0,): eta0},
                        {(0, 1): lambda a, b, c, d: exp(a),
                         (2, 3): lambda a, b, c, d: exp(a)})


def test_lcs_checks_d_omega_equals_eta_wedge_omega():
    # dω = e^{x0} dx0∧dx2∧dx3 = η∧ω for η = dx0, the sign of d∇ω = 0 with
    # the module's d∇ = d - η∧
    L = _r4_lcs(1.0)
    rep = check_lcs(L, sample_points(L.chart, 10, seed=32))
    assert rep.passed and rep.notes == ""


def test_lcs_rejects_the_opposite_lee_form():
    # the broken control: η = -dx0 gives dω - η∧ω = 2e^{x0} dx0∧dx2∧dx3
    L = _r4_lcs(-1.0)
    assert not check_lcs(L, sample_points(L.chart, 10, seed=32)).passed


def test_lcs_from_a_four_dim_even_pair():
    # the conformal change of the symplectic R^4 by e^{0.5 x0 + 0.3 x2} has
    # E ≠ 0, so its η is nonzero and its ω is not closed
    chart = Chart("r4", 4, [(-1, 1)] * 4)
    J0 = JacobiPair(chart, {(0, 1): 1.0, (2, 3): 1.0}, [0.0] * 4)
    J = conformal_change(J0, ScalarFieldSpec(
        4, lambda a, b, c, d: exp(0.5 * a + 0.3 * c)))
    pts = sample_points(chart, 10, seed=31)
    assert check_jacobi_pair(J, pts).passed
    assert check_lcs(lcs_from_even_pair(J), pts).passed


def test_lcs_from_even_pair_round_trip():
    chart = Chart("r2", 2, [(-2, 2)] * 2)
    J = JacobiPair(chart, {(0, 1): lambda x, y: 1.0 + 0.3 * x * x},
                   [0.0, 0.0])
    L = lcs_from_even_pair(J)
    pts = sample_points(chart, 10, seed=29)
    assert check_lcs(L, pts).passed
    f = ScalarFieldSpec(2, lambda x, y: x + y * y)
    g = ScalarFieldSpec(2, lambda x, y: x * y)
    for p in pts[:5]:
        assert np.abs(lcs_hamiltonian_vf(L, f, p)
                      - hamiltonian_field(J, f).at(p)).max() < 1e-9
        assert abs(lcs_bracket(L, f, g, p)
                   - bracket_field(J, f, g).value(p)) < 1e-9


def test_lcs_from_even_pair_with_nonzero_e():
    # transitive even pair with E ≠ 0: E must lie in the image of Π♯;
    # take Π = ∂x∧∂y, E = x∂x brackets... need a certified pair: use the
    # conformal change of the symplectic plane by c = e^x, which twists E
    chart = Chart("r2", 2, [(-2, 2)] * 2)
    J0 = JacobiPair(chart, {(0, 1): 1.0}, [0.0, 0.0])
    c = ScalarFieldSpec(2, lambda x, y: exp(0.5 * x))
    J = conformal_change(J0, c)
    pts = sample_points(chart, 10, seed=30)
    assert check_jacobi_pair(J, pts).passed
    L = lcs_from_even_pair(J)
    assert check_lcs(L, pts).passed
    # η is nonzero here
    assert np.abs(L.eta.dense(pts[0])).max() > 1e-3
    f = ScalarFieldSpec(2, lambda x, y: x * y + 1.0)
    for p in pts[:5]:
        assert np.abs(lcs_hamiltonian_vf(L, f, p)
                      - hamiltonian_field(J, f).at(p)).max() < 1e-8


# -- closed form against the defining equations -------------------------------

def _theta_fields(C):
    """θ's component fields and dθ's from the tree operator, laid out as
    their dense arrays; built once per structure, so that every defining
    solve shares their memos."""
    n = C.chart.dim
    zero = constant(n, 0.0)
    theta = [C.theta.comps.get((j,), zero) for j in range(n)]
    d = [[zero] * n for _ in range(n)]
    for (i, j), dij in exterior_d_form(C.theta).comps.items():
        d[i][j], d[j][i] = dij, -dij
    return theta, d


def _defining_solve(C, theta_fields, f, Ef):
    """X with θ(X) = f and i_X dθ = -df + E(f)·θ, as a jet vector field.

    The (n+1)×n system has rank n; the square subsystem with the best
    conditioned value part is solved by the reference elimination.  Shares
    nothing with the closed form beyond θ's component fields.
    """
    n = C.chart.dim
    theta, d = theta_fields
    fpartials = [f.partial(r) for r in range(n)]

    def solve(p):
        # to order 1, where the partial fields in d and fpartials stop
        A = [[theta[j](p, 1) for j in range(n)]]
        rhs = [f(p, 1)]
        efj = Ef(p, 1)
        for r in range(n):
            A.append([d[j][r](p, 1) for j in range(n)])
            rhs.append(-fpartials[r](p, 1) + efj * theta[r](p, 1))
        vals = np.array([[x.value for x in row] for row in A])
        rows = max(([r for r in range(n + 1) if r != drop]
                    for drop in range(n + 1)),
                   key=lambda rows: np.linalg.svd(vals[rows],
                                                  compute_uv=False)[-1])
        return reference_jet_solve([A[r] for r in rows],
                                   [rhs[r] for r in rows])

    solve = point_memo(solve)
    return VectorField(C.chart, [Field(n, lambda p, o, i=i: solve(p)[i])
                                 for i in range(n)])


def _defining_pair(C, pts):
    """The pair extracted from {f,g} = X_f(g) - g·E(f) on the defining X_f."""
    n = C.chart.dim
    fields = _theta_fields(C)
    E = _defining_solve(C, fields, constant(n, 1.0), constant(n, 0.0))

    def oracle(f, g):
        Ef = E.apply_field(f)
        return _defining_solve(C, fields, f, Ef).apply_field(g) - g * Ef

    return extract_pair_from_bracket(oracle, C.chart, pts)


def _conformal_darboux3():
    # e^{0.3x + 0.2z}(dz - y dx): curved coefficients, so the pair's
    # gradients are nonzero
    chart = Chart("darboux3e", 3, [(-2, 2)] * 3)
    return ContactStructure(chart, {
        (0,): lambda x, y, z: -y * exp(0.3 * x + 0.2 * z),
        (2,): lambda x, y, z: exp(0.3 * x + 0.2 * z)})


def _curved_darboux3():
    # (1 + 0.1x²)(dz - y dx): polynomial, so sympy reads the same θ
    chart = Chart("darboux3c", 3, [(-2, 2)] * 3)
    return ContactStructure(chart, {
        (0,): lambda x, y, z: -(1.0 + 0.1 * x * x) * y,
        (2,): lambda x, y, z: 1.0 + 0.1 * x * x})


def _sympy_varpi(C):
    """ϖ = [[dθ, -θ], [θᵀ, 0]] as a sympy matrix, with its coordinates;
    θ's components are the spec's own expressions, read on symbols."""
    n = C.chart.dim
    xs = sympy.symbols(f"x0:{n}")
    th = [0] * n
    for (i,), f in C.theta.comps.items():
        th[i] = f.fn(*xs) if hasattr(f, "fn") else f.value(np.zeros(n))
    W = sympy.zeros(n + 1, n + 1)
    for l, i in itertools.product(range(n), repeat=2):
        W[l, i] = sympy.diff(th[i], xs[l]) - sympy.diff(th[l], xs[i])
    for i in range(n):
        W[i, n], W[n, i] = -th[i], th[i]
    return W, xs


def _sympy_jets(C):
    """p ↦ (ϖ, ∂ϖ, M, ∂M) from sympy, with M = ϖ⁻ᵀ, so that Π^{ij} = M_ij
    and E^j = M_nj."""
    W, xs = _sympy_varpi(C)
    M = W.inv(method="LU").T
    return sympy.lambdify(xs, [W, [W.diff(x) for x in xs],
                               M, [M.diff(x) for x in xs]], cse=True)


def _sympy_gap(C, exact, pts):
    """Worst gap of varpi_jet and of the contact pair's Π and E 1-jets
    from ``exact`` = :func:`_sympy_jets` of C."""
    n = C.chart.dim
    J = contact_to_jacobi(C)
    entries = [(f, (i, j)) for (i, j), f in J.Pi.comps.items()]
    entries += [(f, (n, j)) for j, f in enumerate(J.E.comps)]
    gap = 0.0
    for p in pts:
        w, dw, m, dm = (np.array(x, dtype=float) for x in exact(*p))
        got_w, got_dw = varpi_jet(C, p)
        gap = max(gap, np.abs(got_w - w).max(), np.abs(got_dw - dw).max())
        for f, idx in entries:
            jet = f(p, 1)
            gap = max(gap, abs(jet.value - m[idx]),
                      np.abs(jet.grad - dm[(slice(None), *idx)]).max())
    return gap


@pytest.mark.parametrize("name", ["darboux3c", "darboux5"])
def test_varpi_jet_and_pair_match_sympy(name, monkeypatch):
    # a fresh structure per call, so that each builds its own pair
    build_c = (_curved_darboux3 if name == "darboux3c"
               else lambda: build("darboux5-product").source)
    exact = _sympy_jets(build_c())
    pts = sample_points(build_c().chart, 4, seed=45)
    assert _sympy_gap(build_c(), exact, pts) <= 1e-12
    # the broken control: a varpi_jet without ∂ϖ keeps the values, which
    # the validation reads, and loses the gradients
    true_jet = contact.varpi_jet
    monkeypatch.setattr(contact, "varpi_jet",
                        lambda C, p: (true_jet(C, p)[0],
                                      np.zeros_like(true_jet(C, p)[1])))
    assert _sympy_gap(build_c(), exact, pts) > 1e-3


def _jet_gap(a, b):
    return max(abs(a.value - b.value), np.abs(a.grad - b.grad).max())


@pytest.mark.parametrize("name", ["darboux3", "trivgpd", "darboux5",
                                  "darboux3e"])
def test_closed_form_matches_extraction_oracle(name, request):
    C = (_conformal_darboux3() if name == "darboux3e"
         else request.getfixturevalue(name))
    pts = sample_points(C.chart, 3, seed=43)
    J = contact_to_jacobi(C)
    K = _defining_pair(C, pts)
    gap = 0.0
    for p in pts:
        for key, f in J.Pi.comps.items():
            gap = max(gap, _jet_gap(f(p, 1), K.Pi.comps[key](p, 1)))
        for a, b in zip(J.E.comps, K.E.comps):
            gap = max(gap, _jet_gap(a(p, 1), b(p, 1)))
    assert gap <= 1e-12


@pytest.mark.parametrize("name", ["darboux3", "trivgpd"])
def test_pair_fields_satisfy_defining_equations(name, request):
    C = request.getfixturevalue(name)
    f = ScalarFieldSpec(3, lambda x, y, z: x * y * z + x - 0.3 * z * z)
    J = contact_to_jacobi(C)
    Xf, E = hamiltonian_field(J, f), J.E
    dtheta = exterior_d_form(C.theta)
    for p in sample_points(C.chart, 10, seed=44):
        th, dth = C.theta.dense(p), dtheta.dense(p)
        fj = f(p, 1)
        e, x = E.at(p), Xf.at(p)
        assert abs(th @ e - 1.0) < 1e-12
        assert np.abs(e @ dth).max() < 1e-12
        assert abs(th @ x - fj.value) < 1e-12
        assert np.abs(x @ dth + fj.grad - (fj.grad @ e) * th).max() < 1e-12


def test_contact_to_jacobi_singular_varpi():
    chart = Chart("flat", 3, [(-2, 2)] * 3)
    C = ContactStructure(chart, {(2,): 1.0})   # θ = dz: ϖ is singular
    with pytest.raises(SingularSystem):
        contact_to_jacobi(C)


def test_contact_to_jacobi_rejects_tampered_varpi(darboux3, monkeypatch):
    # the jet solve sees 2·dθ, the float validation sees the true dθ
    true_jet = contact.varpi_jet

    def doubled(C, p):
        W, dW = (x.copy() for x in true_jet(C, p))
        W[:-1, :-1] *= 2.0
        dW[:, :-1, :-1] *= 2.0
        return W, dW

    monkeypatch.setattr(contact, "varpi_jet", doubled)
    with pytest.raises(OracleMismatch):
        contact_to_jacobi(darboux3)


def test_contact_to_jacobi_validates_once(darboux3, monkeypatch):
    # the pair is validated when it is built, and later calls return it
    calls = []
    residual = contact.sharp_inverse_residual

    def counted(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(contact, "sharp_inverse_residual", counted)
    J = contact_to_jacobi(darboux3)
    assert len(calls) == 5
    assert all(contact_to_jacobi(darboux3) is J for _ in range(2))
    assert len(calls) == 5
