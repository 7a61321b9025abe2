import itertools

import numpy as np
import pytest

from jdl.catalog import build
from jdl.chart import Chart, SmoothMap
from jdl.contact import ContactStructure
from jdl.dualpair import DualPairSpec
from jdl.errors import OracleMismatch, SingularSystem
from jdl.fields import ScalarFieldSpec, as_field, constant, coordinate
from jdl.homogenize import _lift_field, slit_chart
from jdl.jacobi import ConformalMap, JacobiPair, bracket_field
from jdl.jets import Jet, exp


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


# The shared contact charts.  Each fixture builds fresh objects, so a test
# may tamper with the one it receives.

@pytest.fixture
def darboux3():
    """θ = dz - y dx on the box [-2, 2]^3, the catalog's darboux3."""
    return build("darboux3")


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
def trivgpd_tiny_leg():
    """The catalog's trivgpd dual pair with φ1 = 1e-10·q: Tφ1 is tiny next
    to the g-row of DΦ1, which a relative rank tolerance drops."""
    dp = build("trivgpd")
    tiny = ConformalMap(SmoothMap(dp.source.chart, dp.J1.chart,
                                  [lambda q, p, u: 1e-10 * q]))
    return DualPairSpec(dp.source, (dp.J1, tiny), (dp.J2, dp.Phi2))


@pytest.fixture
def darboux5():
    """θ = dz - y1 dx1 - y2 dx2, the source of darboux5-product."""
    return build("darboux5-product").source


def retrivialized(u, factors=True):
    """trivgpd after the change of trivialization u of the line bundle:
    θ -> uθ and, with ``factors``, a_i -> u·a_i, which is again a dual
    pair; without, the legs keep the old factors and stop being one."""
    dp = build("trivgpd")
    u = as_field(3, u)
    source = ContactStructure(dp.source.chart, {
        k: u * f for k, f in dp.source.theta.comps.items()})
    return DualPairSpec(source, *(
        (J, ConformalMap(Phi.map, u * Phi.factor if factors else Phi.factor))
        for J, Phi in dp.legs()))


# a nowhere-zero trivialization change with du ≠ 0, so a_i -> u·a_i has da_i ≠ 0
EXP_U = ScalarFieldSpec(3, lambda q, p, w: exp(0.3 * q + 0.2 * p * w))


def homogenize_map(Phi):
    """The lift (x, s) ↦ (φ(x), a(x)·s) of a conformal map to the slit
    charts, from the lifted component fields; the oracle of the closed-form
    TΦ~ = [[Tφ, 0], [s·da, a]]."""
    n = Phi.map.source.dim
    comps = [_lift_field(c, n) for c in Phi.map.components]
    comps.append(_lift_field(Phi.factor, n) * coordinate(n + 1, n))
    return SmoothMap(slit_chart(Phi.map.source), slit_chart(Phi.map.target),
                     comps)


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
        raise OracleMismatch(
            f"bracket oracle is not first-order/antisymmetric "
            f"(residual {worst:.2e})")
    return J


def reference_jet_solve(A, b):
    """Solve A x = b by Gaussian elimination in jet arithmetic; the oracle
    for ``jdl.fields.jet_solve``.

    Takes the same inputs: A an (n, n) array of Jets or numbers, b an (n,)
    or (n, m) one.  Every step is a ``Jet`` operation, so it shares no code
    with the dense first-order solve.  Pivoting is by the
    value part, and a zero pivot or one below 1e-14 times the largest
    |value| of A raises SingularSystem.
    """
    A = [list(row) for row in A]
    b = np.asarray(b, dtype=object)
    vec = b.ndim == 1
    B = [[b[i]] for i in range(len(b))] if vec else [list(row) for row in b]
    n = len(A)
    first = next((x for row in A + B for x in row if isinstance(x, Jet)),
                 None)
    if first is not None:
        B = [[x if isinstance(x, Jet)
              else Jet.constant(float(x), first.dim, first.order)
              for x in row] for row in B]

    def val(x):
        return x.value if isinstance(x, Jet) else float(x)

    def reciprocal(x):
        return x._reciprocal() if isinstance(x, Jet) else 1.0 / x

    floor = 1e-14 * max((abs(val(x)) for row in A for x in row), default=0.0)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(val(A[r][col])))
        if abs(val(A[piv][col])) < floor or val(A[piv][col]) == 0:
            raise SingularSystem("jet linear system is singular")
        A[col], A[piv] = A[piv], A[col]
        B[col], B[piv] = B[piv], B[col]
        inv = reciprocal(A[col][col])
        for r in range(n):
            if r == col:
                continue
            factor = A[r][col] * inv
            for c in range(col, n):
                A[r][c] = A[r][c] - factor * A[col][c]
            for c in range(len(B[0])):
                B[r][c] = B[r][c] - factor * B[col][c]
    out = np.empty((n, len(B[0])), dtype=object)
    for i in range(n):
        inv = reciprocal(A[i][i])
        for c in range(len(B[0])):
            out[i, c] = B[i][c] * inv
    return out[:, 0] if vec else out
