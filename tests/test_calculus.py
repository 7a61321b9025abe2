import numpy as np
import pytest

from jdl.calculus import (KForm, Multivector, VectorField, bivector_jet,
                          exterior_d_form, interior_form, lie_derivative,
                          pullback_form, schouten_square, wedge_form)
from jdl.chart import Chart, SmoothMap
from jdl.errors import DegreeUnsupported


@pytest.fixture
def r2():
    return Chart("r2", 2)


@pytest.fixture
def r3():
    return Chart("r3", 3)


def test_d_of_x_dy(r2):
    omega = KForm(r2, 1, {(1,): lambda x, y: x})
    d = exterior_d_form(omega)
    assert abs(d.coeff((0, 1), [0.3, 0.8]) - 1.0) < 1e-14


def test_d_squared_zero(r3):
    f = KForm(r3, 0, {(): lambda x, y, z: x * x * y})
    df = exterior_d_form(f)
    ddf = exterior_d_form(df)
    assert max(abs(ddf.coeff(key, [0.5, -0.3, 0.2]))
               for key in ddf.keys_all()) < 1e-12


def test_d_of_darboux_form(r3):
    # d(dz - y dx) = dx ∧ dy
    theta = KForm(r3, 1, {(0,): lambda x, y, z: -y, (2,): 1.0})
    d = exterior_d_form(theta)
    p = [0.1, 0.2, 0.3]
    assert abs(d.coeff((0, 1), p) - 1.0) < 1e-14
    assert abs(d.coeff((0, 2), p)) < 1e-14 and abs(d.coeff((1, 2), p)) < 1e-14


def test_d_squared_on_random_one_forms(r3):
    rng = np.random.default_rng(31)
    for _ in range(10):
        c = rng.normal(size=6)
        omega = KForm(r3, 1, {
            (0,): lambda x, y, z, c=c: c[0] * x * y + c[1] * z,
            (1,): lambda x, y, z, c=c: c[2] * y * z + c[3],
            (2,): lambda x, y, z, c=c: c[4] * x * x + c[5] * y,
        })
        dd = exterior_d_form(exterior_d_form(omega))
        p = rng.uniform(-1, 1, 3)
        assert max(abs(dd.coeff(key, p)) for key in dd.keys_all()) < 1e-10


def test_schouten_constant_bivectors(r3):
    P = Multivector(r3, 2, {(0, 1): 1.0})
    out = schouten_square(*bivector_jet(P, [0.1, 0.2, 0.3]))
    assert np.abs(out).max() < 1e-14


def test_schouten_square_normalization(r3):
    # Π = ∂x∧∂y - y ∂y∧∂z: [[Π,Π]] = 2 ∂x∧∂y∧∂z, which is 2E∧Π for E = ∂z
    P = Multivector(r3, 2, {(0, 1): 1.0, (1, 2): lambda x, y, z: -y})
    out = schouten_square(*bivector_jet(P, [0.3, -0.7, 0.5]))
    assert out[0, 1, 2] == out[1, 2, 0] == 2.0 and out[1, 0, 2] == -2.0


def test_schouten_so3_lie_poisson(r3):
    # Π^12 = μ3, Π^23 = μ1, Π^31 = μ2 (so Π^13 = -μ2): [[Π,Π]] = 0
    P = Multivector(r3, 2, {(0, 1): lambda a, b, c: c,
                            (1, 2): lambda a, b, c: a,
                            (0, 2): lambda a, b, c: -b})
    rng = np.random.default_rng(39)
    for _ in range(10):
        p = rng.uniform(-1, 1, 3)
        pp = schouten_square(*bivector_jet(P, p))
        assert np.abs(pp).max() < 1e-12


def test_field_matrix_rejects_degree_three(r3):
    T = KForm(r3, 3, {(0, 1, 2): 1.0})
    with pytest.raises(DegreeUnsupported):
        T.field_matrix()


def test_interior_and_lie_derivative(r3):
    theta = KForm(r3, 1, {(0,): lambda x, y, z: -y, (2,): 1.0})
    Z = VectorField(r3, [0.0, 0.0, 1.0])
    i = interior_form(Z, theta)
    assert abs(i.coeff((), [0.5, 0.5, 0.5]) - 1.0) < 1e-14
    L = lie_derivative(Z, theta, [0.5, 0.5, 0.5])
    assert max(abs(v) for v in L.values()) < 1e-14


def test_lie_derivative_nonzero_control(r3):
    # L_{∂y}(dz - y dx) = -dx
    theta = KForm(r3, 1, {(0,): lambda x, y, z: -y, (2,): 1.0})
    Y = VectorField(r3, [0.0, 1.0, 0.0])
    L = lie_derivative(Y, theta, [0.2, -0.4, 0.9])
    assert abs(L[(0,)] + 1.0) < 1e-14
    assert abs(L[(1,)]) < 1e-14 and abs(L[(2,)]) < 1e-14


def test_wedge_normalization(r2):
    dx = KForm(r2, 1, {(0,): 1.0})
    dy = KForm(r2, 1, {(1,): 1.0})
    w = wedge_form(dx, dy)
    assert abs(w.coeff((0, 1), [0.0, 0.0]) - 1.0) < 1e-14


def test_pullback_unit_section_is_legendrian():
    # pull back du + p dq along q ↦ (q, 0, 0): result 0
    total = Chart("gpd", 3)
    base = Chart("base", 1)
    theta = KForm(total, 1, {(0,): lambda q, p, u: p, (2,): 1.0})
    unit = SmoothMap(base, total, [lambda q: q, lambda q: 0.0 * q,
                                   lambda q: 0.0 * q])
    pb = pullback_form(unit, theta)
    for p in ([0.3], [-0.8]):
        assert abs(pb.coeff((0,), p)) < 1e-14


def test_pullback_naturality_with_d():
    # d(F*ω) = F*(dω) on random maps/forms
    rng = np.random.default_rng(41)
    a = Chart("a", 2)
    b = Chart("b", 2)
    F = SmoothMap(a, b, [lambda x, y: x * y + y, lambda x, y: x - y * y])
    omega = KForm(b, 1, {(0,): lambda u, v: u * v, (1,): lambda u, v: u + v * v})
    lhs_form = exterior_d_form(pullback_form(F, omega))
    rhs_form = pullback_form(F, exterior_d_form(omega))
    for _ in range(10):
        p = rng.uniform(-1, 1, 2)
        lhs = lhs_form.coeff((0, 1), p)
        rhs = rhs_form.coeff((0, 1), p)
        assert abs(lhs - rhs) < 1e-9

