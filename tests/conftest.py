import itertools

import numpy as np
import pytest

from jdl.catalog import build
from jdl.chart import Chart
from jdl.contact import ContactStructure
from jdl.errors import InconsistentOracle
from jdl.fields import constant, coordinate
from jdl.jacobi import JacobiPair, bracket_field


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


# The shared contact charts.  Each fixture builds fresh objects, so a test
# may tamper with the one it receives.

@pytest.fixture
def darboux3():
    """θ = dz - y dx on the box [-2, 2]^3."""
    chart = Chart("darboux3", 3, [(-2, 2)] * 3)
    return ContactStructure(chart, {(0,): lambda x, y, z: -y, (2,): 1.0})


@pytest.fixture
def darboux3_pair():
    """The Jacobi pair of darboux3 in closed form: Π = (∂x + y∂z) ∧ ∂y,
    E = ∂z."""
    chart = Chart("darboux3", 3, [(-2, 2)] * 3)
    return JacobiPair(chart, {(0, 1): 1.0, (1, 2): lambda x, y, z: -y},
                      [0.0, 0.0, 1.0])


@pytest.fixture
def trivgpd():
    """θ = du + p dq, the source of the catalog's trivgpd dual pair."""
    return build("trivgpd").source


@pytest.fixture
def darboux5():
    """θ = dz - y1 dx1 - y2 dx2, the source of darboux5-product."""
    return build("darboux5-product").source


def fd_gradient(f, p, h=1e-5):
    """Central-difference gradient; the independent derivative oracle."""
    p = np.asarray(p, dtype=float)
    g = np.zeros(p.size)
    for i in range(p.size):
        e = np.zeros(p.size)
        e[i] = h
        g[i] = (f(p + e) - f(p - e)) / (2 * h)
    return g


def fd_hessian(f, p, h=1e-4):
    p = np.asarray(p, dtype=float)
    n = p.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = (f(p + ei + ej) - f(p + ei - ej)
                       - f(p - ei + ej) + f(p - ei - ej)) / (4 * h * h)
    return H


def extract_pair_from_bracket(oracle, chart, pts, tol=1e-8):
    """Tabulate (Π, E) from a bracket oracle on fields; the independent
    oracle for closed-form pairs.

    ``oracle(f, g)`` must return the bracket {f,g} as a field on the chart.
    Components come from E(g) = {1,g} and Π(df,dg) = {f,g} - fE(g) + gE(f)
    on coordinate functions; the reconstruction is validated against the
    oracle on quadratic test functions at the given points.
    """
    n = chart.dim
    one = constant(n, 1.0)
    xs = [coordinate(n, i) for i in range(n)]
    E_fields = [oracle(one, xs[i]) for i in range(n)]
    pi_comps = {}
    for i, j in itertools.combinations(range(n), 2):
        pi_comps[(i, j)] = (oracle(xs[i], xs[j])
                            - xs[i] * E_fields[j] + xs[j] * E_fields[i])
    J = JacobiPair(chart, pi_comps, E_fields)

    # polarization / first-order validation on quadratic functions
    tests = [one] + xs + [xs[i] * xs[j] for i, j in
                          itertools.combinations_with_replacement(range(n), 2)]
    triples = [(oracle(f, g), oracle(g, f), bracket_field(J, f, g))
               for f, g in itertools.combinations(tests, 2)]
    worst = 0.0
    for lhs_f, anti_f, rhs_f in triples:
        for p in pts:
            lhs = lhs_f.value(p)
            worst = max(worst, abs(lhs - rhs_f.value(p)),
                        abs(lhs + anti_f.value(p)))
    if worst > tol:
        raise InconsistentOracle(
            f"bracket oracle is not first-order/antisymmetric "
            f"(residual {worst:.2e})")
    return J
