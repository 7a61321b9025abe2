import numpy as np
import pytest

from jdl.calculus import VectorField
from jdl.chart import Chart, sample_points
from jdl.contact import (ContactStructure, LcsStructure, check_contact,
                         check_lcs, contact_field_property,
                         contact_to_jacobi, curvature_form, lcs_bracket,
                         lcs_from_even_pair, lcs_hamiltonian_vf, reeb,
                         varpi_matrix, volume_coefficient)
from jdl.errors import (EvenDimension, InconsistentOracle, OrderUnsupported,
                        SingularSystem)
from jdl.fields import Field, ScalarFieldSpec, constant, coordinate, point_memo
from jdl.jacobi import (JacobiPair, bracket_field, check_jacobi_pair,
                        hamiltonian_field)

from conftest import extract_pair_from_bracket, reference_jet_solve


@pytest.fixture
def pts(darboux3):
    return sample_points(darboux3.chart, 20, seed=21)


def test_check_contact_darboux(darboux3, pts):
    rep = check_contact(darboux3, pts)
    assert rep.passed
    assert abs(abs(volume_coefficient(darboux3, pts[0])) - 1.0) < 1e-12


def test_check_contact_fails_for_closed_form(pts):
    chart = Chart("flat", 3, [(-2, 2)] * 3)
    C = ContactStructure(chart, {(2,): 1.0})   # θ = dz, dθ = 0
    assert not check_contact(C, pts).passed


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
    H, c = curvature_form(varpi_matrix(darboux3, [0.0, 0.0, 0.0]))
    assert H.dim == 2
    # c = -(dθ)|_H is nondegenerate with |det| = 1 at the origin
    assert abs(abs(np.linalg.det(c.matrix)) - 1.0) < 1e-12
    # the value c(∂x, ∂y) = -1 read in the (∂x, ∂y)-aligned H-basis
    ex = H.basis.T @ np.array([1.0, 0.0, 0.0])
    ey = H.basis.T @ np.array([0.0, 1.0, 0.0])
    assert abs(float(ex @ c.matrix @ ey) + 1.0) < 1e-12


def test_curvature_nondegenerate_everywhere(darboux3):
    pts = sample_points(darboux3.chart, 100, seed=24)
    for p in pts:
        _, c = curvature_form(varpi_matrix(darboux3, p))
        assert abs(np.linalg.det(c.matrix)) > 1e-8


def test_curvature_trivgpd_value(trivgpd):
    # c(∂p, ∂q - p∂u) = -1
    p = np.array([0.4, 0.7, -0.2])
    H, c = curvature_form(varpi_matrix(trivgpd, p))
    v1 = H.basis.T @ np.array([0.0, 1.0, 0.0])
    v2 = H.basis.T @ np.array([1.0, 0.0, -p[1]])
    assert abs(float(v1 @ c.matrix @ v2) + 1.0) < 1e-12


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
    assert check_jacobi_pair(J, pts, tol=1e-10).passed


def test_contact_to_jacobi_trivgpd(trivgpd):
    # θ = du + p dq gives Π = ∂p∧(∂q - p∂u), E = ∂u (so {p,q} = +1)
    J = contact_to_jacobi(trivgpd)
    p = np.array([0.5, -0.8, 0.1])
    M = J.pi_matrix(p)
    assert abs(M[1, 0] - 1.0) < 1e-10       # Π^{pq} = +1
    assert abs(M[1, 2] + p[1]) < 1e-10      # Π^{pu} = -p
    assert np.allclose(J.E.at(p), [0, 0, 1], atol=1e-10)


def test_contact_pair_stops_at_order_2(trivgpd):
    # ϖ holds dθ, one derivative of θ more than the pair, and jets stop at 3
    pi_qp = contact_to_jacobi(trivgpd).Pi.comps[(0, 1)]
    p = np.array([0.5, -0.8, 0.1])
    assert pi_qp(p, 2).order == 2
    with pytest.raises(OrderUnsupported, match="only up to order 2"):
        pi_qp(p, 3)


def test_route_agreement(darboux3):
    # the pair's X_f equals the float least-squares solution of
    # θ(X) = f and i_X dθ = -df + E(f)·θ, with E from reeb
    f = ScalarFieldSpec(3, lambda x, y, z: x * z + y)
    Xf = hamiltonian_field(contact_to_jacobi(darboux3), f)
    for p in sample_points(darboux3.chart, 100, seed=25):
        th, dth = darboux3.theta.dense(p), darboux3.dtheta.dense(p)
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
    from jdl.jets import exp
    chart = Chart("r2", 2, [(-1, 1)] * 2)
    L = LcsStructure(chart, {(0,): 1.0},
                     {(0, 1): lambda x, y: exp(x)})
    rep = check_lcs(L, sample_points(chart, 10, seed=28))
    assert rep.passed
    assert "degenerate-dimension" in rep.notes


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
    from jdl.jacobi import conformal_change
    from jdl.jets import exp
    chart = Chart("r2", 2, [(-2, 2)] * 2)
    J0 = JacobiPair(chart, {(0, 1): 1.0}, [0.0, 0.0])
    c = ScalarFieldSpec(2, lambda x, y: exp(0.5 * x))
    J = conformal_change(J0, c)
    pts = sample_points(chart, 10, seed=30)
    assert check_jacobi_pair(J, pts, tol=1e-9).passed
    L = lcs_from_even_pair(J)
    assert check_lcs(L, pts, tol=1e-8).passed
    # η is nonzero here
    assert np.abs(L.eta.dense(pts[0])).max() > 1e-3
    f = ScalarFieldSpec(2, lambda x, y: x * y + 1.0)
    for p in pts[:5]:
        assert np.abs(lcs_hamiltonian_vf(L, f, p)
                      - hamiltonian_field(J, f).at(p)).max() < 1e-8


# -- closed form against the defining equations -------------------------------

def _defining_solve(C, f, Ef):
    """X with θ(X) = f and i_X dθ = -df + E(f)·θ, as a jet vector field.

    The (n+1)×n system has rank n; the square subsystem with the best
    conditioned value part is solved by the reference elimination.  Shares
    nothing with the closed form beyond the θ and dθ component fields.
    """
    n = C.chart.dim
    theta, d = C.theta.field_matrix(), C.dtheta.field_matrix()
    fpartials = [f.partial(r) for r in range(n)]

    def solve(p, order):
        A = [[theta[j](p, order) for j in range(n)]]
        rhs = [f(p, order)]
        efj = Ef(p, order)
        for r in range(n):
            A.append([d[j][r](p, order) for j in range(n)])
            rhs.append(-fpartials[r](p, order) + efj * theta[r](p, order))
        vals = np.array([[x.value for x in row] for row in A])
        rows = max(([r for r in range(n + 1) if r != drop]
                    for drop in range(n + 1)),
                   key=lambda rows: np.linalg.svd(vals[rows],
                                                  compute_uv=False)[-1])
        return reference_jet_solve([A[r] for r in rows],
                                   [rhs[r] for r in rows])

    solve = point_memo(solve)
    return VectorField(C.chart, [Field(n, lambda p, o, i=i: solve(p, o)[i])
                                 for i in range(n)])


def _defining_pair(C, pts):
    """The pair extracted from {f,g} = X_f(g) - g·E(f) on the defining X_f."""
    n = C.chart.dim
    E = _defining_solve(C, constant(n, 1.0), constant(n, 0.0))

    def oracle(f, g):
        Ef = E.apply_field(f)
        return _defining_solve(C, f, Ef).apply_field(g) - g * Ef

    return extract_pair_from_bracket(oracle, C.chart, pts)


def _conformal_darboux3():
    # e^{0.3x + 0.2z}(dz - y dx): curved coefficients, so Hessians are nonzero
    from jdl.jets import exp
    chart = Chart("darboux3e", 3, [(-2, 2)] * 3)
    return ContactStructure(chart, {
        (0,): lambda x, y, z: -y * exp(0.3 * x + 0.2 * z),
        (2,): lambda x, y, z: exp(0.3 * x + 0.2 * z)})


def _jet_gap(a, b):
    return max(np.abs(np.asarray(x) - np.asarray(y)).max()
               for x, y in ((a.value, b.value), (a.grad, b.grad),
                            (a.hess, b.hess)))


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
            gap = max(gap, _jet_gap(f(p, 2), K.Pi.comps[key](p, 2)))
        for a, b in zip(J.E.comps, K.E.comps):
            gap = max(gap, _jet_gap(a(p, 2), b(p, 2)))
    assert gap <= 1e-12


@pytest.mark.parametrize("name", ["darboux3", "trivgpd"])
def test_pair_fields_satisfy_defining_equations(name, request):
    C = request.getfixturevalue(name)
    f = ScalarFieldSpec(3, lambda x, y, z: x * y * z + x - 0.3 * z * z)
    J = contact_to_jacobi(C)
    Xf, E = hamiltonian_field(J, f), J.E
    for p in sample_points(C.chart, 10, seed=44):
        th, dth = C.theta.dense(p), C.dtheta.dense(p)
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


def test_contact_to_jacobi_rejects_tampered_varpi(darboux3):
    # the jet entries see 2·dθ, the float validation sees the true dθ
    darboux3.dtheta._field_matrix = [[2.0 * f for f in row]
                                     for row in darboux3.dtheta.field_matrix()]
    with pytest.raises(InconsistentOracle):
        contact_to_jacobi(darboux3)
