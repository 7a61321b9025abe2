import itertools

import numpy as np
import pytest

from jdl.calculus import (KForm, Multivector, VectorField, cyclic,
                          schouten_square)
from jdl.chart import Chart, SmoothMap
from jdl.errors import DegreeUnsupported
from jdl.jets import sin

from oracles import (coeff, exterior_d_form, lie_derivative, pullback_form,
                     wedge_form)


@pytest.fixture
def r2():
    return Chart("r2", 2)


@pytest.fixture
def r3():
    return Chart("r3", 3)


def test_d_of_x_dy(r2):
    omega = KForm(r2, 1, {(1,): lambda x, y: x})
    d = exterior_d_form(omega)
    assert abs(coeff(d, (0, 1), [0.3, 0.8]) - 1.0) < 1e-14


def test_d_squared_zero(r3):
    # the tree d once, and d of its output, dA - dAᵀ, from its 1-jet
    f = KForm(r3, 0, {(): lambda x, y, z: x * x * y})
    _, d_df = exterior_d_form(f).jet([0.5, -0.3, 0.2])
    assert np.abs(d_df).max() > 0.1
    assert np.abs(d_df - d_df.T).max() < 1e-12


def test_d_of_darboux_form(r3):
    # d(dz - y dx) = dx ∧ dy
    theta = KForm(r3, 1, {(0,): lambda x, y, z: -y, (2,): 1.0})
    d = exterior_d_form(theta)
    p = [0.1, 0.2, 0.3]
    assert abs(coeff(d, (0, 1), p) - 1.0) < 1e-14
    assert abs(coeff(d, (0, 2), p)) < 1e-14 and abs(coeff(d, (1, 2), p)) < 1e-14


def test_d_squared_on_random_one_forms(r3):
    rng = np.random.default_rng(31)
    for _ in range(10):
        c = rng.normal(size=6)
        omega = KForm(r3, 1, {
            (0,): lambda x, y, z, c=c: c[0] * x * y + c[1] * z,
            (1,): lambda x, y, z, c=c: c[2] * y * z + c[3],
            (2,): lambda x, y, z, c=c: c[4] * x * x + c[5] * y,
        })
        # d of the 2-form dω is cyclic(dA), read from the 1-jet of dω
        _, d_domega = exterior_d_form(omega).jet(rng.uniform(-1, 1, 3))
        assert abs(cyclic(d_domega)[0, 1, 2]) < 1e-10


def test_schouten_constant_bivectors(r3):
    P = Multivector(r3, 2, {(0, 1): 1.0})
    out = schouten_square(*P.jet([0.1, 0.2, 0.3]))
    assert np.abs(out).max() < 1e-14


def test_schouten_square_normalization(r3):
    # Π = ∂x∧∂y - y ∂y∧∂z: [[Π,Π]] = 2 ∂x∧∂y∧∂z, which is 2E∧Π for E = ∂z
    P = Multivector(r3, 2, {(0, 1): 1.0, (1, 2): lambda x, y, z: -y})
    out = schouten_square(*P.jet([0.3, -0.7, 0.5]))
    assert out[0, 1, 2] == out[1, 2, 0] == 2.0 and out[1, 0, 2] == -2.0


def test_schouten_so3_lie_poisson(r3):
    # Π^12 = μ3, Π^23 = μ1, Π^31 = μ2 (so Π^13 = -μ2): [[Π,Π]] = 0
    P = Multivector(r3, 2, {(0, 1): lambda a, b, c: c,
                            (1, 2): lambda a, b, c: a,
                            (0, 2): lambda a, b, c: -b})
    rng = np.random.default_rng(39)
    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        pp = schouten_square(*P.jet(p))
        assert np.abs(pp).max() < 1e-12


def test_jet_rejects_degree_three(r3):
    T = KForm(r3, 3, {(0, 1, 2): 1.0})
    with pytest.raises(DegreeUnsupported):
        T.jet([0.1, 0.2, 0.3])


def _random_forms(chart, rng):
    """A 1-form and a 2-form with random quadratic-times-sine components."""
    n = chart.dim

    def comp():
        c = rng.normal(size=3)
        a, b = rng.integers(n, size=2)
        return lambda *x: c[0] + c[1] * x[a] * x[b] + c[2] * sin(x[b])

    eta = KForm(chart, 1, {(i,): comp() for i in range(n)})
    omega = KForm(chart, 2, {key: comp()
                             for key in itertools.combinations(range(n), 2)})
    return eta, omega


def test_jet_reads_d_and_the_wedge_of_the_trees():
    # d of a 1-form is dA - dAᵀ, d of a 2-form cyclic(dA), and ω∧η is
    # cyclic(η ⊗ ω): against exterior_d_form and wedge_form
    r4 = Chart("r4", 4)
    rng = np.random.default_rng(33)
    eta, omega = _random_forms(r4, rng)
    d_eta, d_omega = exterior_d_form(eta), exterior_d_form(omega)
    wedge = wedge_form(omega, eta)
    for _ in range(5):
        p = rng.uniform(-1, 1, 4)
        e, de = eta.jet(p)
        W, dW = omega.jet(p)
        assert np.abs(de - de.T - d_eta.dense(p)).max() < 1e-13
        for key in itertools.combinations(range(4), 3):
            assert abs(cyclic(dW)[key] - coeff(d_omega, key, p)) < 1e-13
            assert abs(cyclic(np.multiply.outer(e, W))[key]
                       - coeff(wedge, key, p)) < 1e-13


def test_lie_derivative_is_cartans_formula(r3):
    # L_X α = i_X dα + d(α(X)), with α(X) built as a field
    rng = np.random.default_rng(34)
    alpha, _ = _random_forms(r3, rng)
    c = rng.normal(size=3)
    X = VectorField(r3, [lambda x, y, z: c[0] * y * z,
                         lambda x, y, z: c[1] + x * x,
                         lambda x, y, z: c[2] * sin(x + y)])
    pairing = sum(X.comps[i] * alpha.comps[(i,)] for i in range(3))
    for _ in range(5):
        p = rng.uniform(-1, 1, 3)
        a, da = alpha.jet(p)
        cartan = X.at(p) @ (da - da.T) + pairing(p, 1).grad
        assert np.abs(lie_derivative(X, alpha, p) - cartan).max() < 1e-13


def test_lie_derivative_along_the_reeb_field(r3):
    theta = KForm(r3, 1, {(0,): lambda x, y, z: -y, (2,): 1.0})
    Z = VectorField(r3, [0.0, 0.0, 1.0])
    assert np.abs(lie_derivative(Z, theta, [0.5, 0.5, 0.5])).max() < 1e-14


def test_lie_derivative_nonzero_control(r3):
    # L_{∂y}(dz - y dx) = -dx
    theta = KForm(r3, 1, {(0,): lambda x, y, z: -y, (2,): 1.0})
    Y = VectorField(r3, [0.0, 1.0, 0.0])
    L = lie_derivative(Y, theta, [0.2, -0.4, 0.9])
    assert np.abs(L - [-1.0, 0.0, 0.0]).max() < 1e-14


def test_wedge_normalization(r2):
    dx = KForm(r2, 1, {(0,): 1.0})
    dy = KForm(r2, 1, {(1,): 1.0})
    w = wedge_form(dx, dy)
    assert abs(coeff(w, (0, 1), [0.0, 0.0]) - 1.0) < 1e-14


def test_pullback_unit_section_is_legendrian():
    # pull back du + p dq along q ↦ (q, 0, 0): result 0
    total = Chart("gpd", 3)
    base = Chart("base", 1)
    theta = KForm(total, 1, {(0,): lambda q, p, u: p, (2,): 1.0})
    unit = SmoothMap(base, total, [lambda q: q, lambda q: 0.0 * q,
                                   lambda q: 0.0 * q])
    pb = pullback_form(unit, theta)
    for p in ([0.3], [-0.8]):
        assert abs(coeff(pb, (0,), p)) < 1e-14


def test_pullback_naturality_with_d():
    # d(F*ω) = F*(dω) on random maps/forms, d(F*ω) read from the 1-jet of F*ω
    rng = np.random.default_rng(41)
    a = Chart("a", 2)
    b = Chart("b", 2)
    F = SmoothMap(a, b, [lambda x, y: x * y + y, lambda x, y: x - y * y])
    omega = KForm(b, 1, {(0,): lambda u, v: u * v, (1,): lambda u, v: u + v * v})
    pulled = pullback_form(F, omega)
    rhs_form = pullback_form(F, exterior_d_form(omega))
    for _ in range(10):
        p = rng.uniform(-1, 1, 2)
        _, dA = pulled.jet(p)
        assert np.abs(dA - dA.T - rhs_form.dense(p)).max() < 1e-9

