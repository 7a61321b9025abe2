"""Definitions that only the tests use: defining-equation oracles, the
constructions they need, and small helpers of the test modules.

``jdl`` keeps the closed form of each object in its main path; the forms,
maps and structures here are the independent routes the tests compare it
with (the exterior derivative tree, the wedge volume, the pullback tree,
the Reeb field from a linear solve, the l.c.s. dictionary, the
projectivized coalgebra bracket, the chain-rule lift to the slit chart, the
symplectization ω~ = d(s·π*θ) built from those two, finite differences, a
jet solve in jet arithmetic, a Jacobi pair tabulated from its bracket), or
the inputs of a control (an opposite pair, a conformal change, an abelian
Lie algebra, a change of trivialization).  The test modules import them
from here, so ``conftest.py`` holds only fixtures.
"""
import itertools

import numpy as np

from jdl.atiyah import _factor_jet, dphi_from
from jdl.calculus import KForm
from jdl.catalog import build
from jdl.chart import Chart, SmoothMap, tangent_map
from jdl.contact import ContactStructure, contact_to_jacobi, varpi_matrix
from jdl.dualpair import DualPairSpec
from jdl.errors import (DimensionMismatch, JdlError, OracleMismatch,
                        SingularOmega, SingularSystem)
from jdl.fields import (ScalarFieldSpec, as_field, compose, constant,
                        coordinate, entry_field, jet_solve, point_memo)
from jdl.homogenize import slit_chart
from jdl.jacobi import (ConformalMap, JacobiPair, LieAlgebraData,
                        bracket_field, hamiltonian_field, lie_poisson)
from jdl.jets import Jet, exp
from jdl.linalg import _angles, _pointwise


class ChartIndexInvalid(JdlError):
    """Affine chart index outside the Lie coalgebra dimension."""


# -- derivatives and jet solves ----------------------------------------

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


# -- forms ---------------------------------------------------------------

def exterior_d_form(omega):
    """dω as a derived KForm with exact component fields: the tree route
    for d, against which ``jdl`` reads d from a form's 1-jet."""
    n = omega.chart.dim
    k = omega.degree
    comps = {}
    for key in itertools.combinations(range(n), k + 1):
        terms = []
        for a in range(k + 1):
            sub = key[:a] + key[a + 1:]
            f = omega.comps.get(sub)
            if f is None:
                continue
            terms.append(((-1) ** a, f.partial(key[a])))
        if not terms:
            continue
        acc = terms[0][1] * terms[0][0]
        for s, f in terms[1:]:
            acc = acc + f * s
        comps[key] = acc
    return KForm(omega.chart, k + 1, comps)


def coeff(form, key, p):
    """The component of ``form`` at the increasing index ``key`` at p, 0 if
    unset; it reads forms of any degree."""
    f = form.comps.get(tuple(key))
    return 0.0 if f is None else f.value(p)


def _perm_sign(perm):
    """+1 or -1 by the parity of the inversions of ``perm``."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def wedge_form(alpha, beta):
    """α ∧ β as a derived form, convention (dx∧dy)(∂x,∂y) = 1; the tests
    read θ∧(dθ)ⁿ from it as the volume oracle of the contact check."""
    k, l = alpha.degree, beta.degree
    comps = {}
    for key in itertools.combinations(range(alpha.chart.dim), k + l):
        terms = []
        for pick in itertools.combinations(range(k + l), k):
            rest = tuple(a for a in range(k + l) if a not in pick)
            fa = alpha.comps.get(tuple(key[a] for a in pick))
            fb = beta.comps.get(tuple(key[a] for a in rest))
            if fa is not None and fb is not None:
                terms.append(fa * fb * _perm_sign(pick + rest))
        if terms:
            comps[key] = sum(terms[1:], terms[0])
    return KForm(alpha.chart, k + l, comps)


def lie_derivative(X, alpha, p):
    """L_X α of a 1-form at p from the 1-jets of X and α:
    (L_X α)_j = X^i ∂_i α_j + α_i ∂_j X^i."""
    x, dx = X.jet(p)
    a, da = alpha.jet(p)
    return x @ da + dx @ a


def pullback_form(F, omega):
    """F*ω as a derived KForm on the source chart.

    Components are exact jet-evaluable fields, so d commutes with the
    pullback up to jet round-off (naturality is a test, not an assumption).
    """
    if omega.chart.dim != F.target.dim:
        raise DimensionMismatch("form lives on a different chart than F's target")
    n = F.source.dim
    k = omega.degree
    if k == 0:
        return KForm(F.source, 0, {(): compose(omega.comps[()], F.components)})
    partials = [[F.components[j].partial(a) for a in range(n)]
                for j in range(F.target.dim)]
    comps = {}
    for key in itertools.combinations(range(n), k):
        terms = []
        for jkey in itertools.combinations(range(F.target.dim), k):
            wfield = compose(omega.comps[jkey], F.components) \
                if jkey in omega.comps else None
            if wfield is None:
                continue
            # det of the (jkey, key) minor of the Jacobian, as a field
            det = _det_field(partials, jkey, key, n)
            terms.append(wfield * det)
        if terms:
            acc = terms[0]
            for t in terms[1:]:
                acc = acc + t
            comps[key] = acc
    return KForm(F.source, k, comps)


def _det_field(partials, rows, cols, dim):
    k = len(rows)
    acc = None
    for perm in itertools.permutations(range(k)):
        sgn = _perm_sign(perm)
        prod = partials[rows[0]][cols[perm[0]]]
        for a in range(1, k):
            prod = prod * partials[rows[a]][cols[perm[a]]]
        term = prod * sgn
        acc = term if acc is None else acc + term
    return acc if acc is not None else constant(dim, 0.0)


# -- maps and subspaces --------------------------------------------------

def identity_map(chart):
    return SmoothMap(chart, chart,
                     [coordinate(chart.dim, i) for i in range(chart.dim)])


def compose_maps(G, F):
    """G∘F as a SmoothMap (components composed via exact jets)."""
    if G.source.dim != F.target.dim:
        raise DimensionMismatch("inner target dim must match outer source dim")
    comps = [compose(c, F.components) for c in G.components]
    return SmoothMap(F.source, G.target, comps)


def dphi_matrix(Phi, p):
    """Matrix of DΦ at p; raises ZeroConformalFactor where a vanishes."""
    return dphi_from(tangent_map(Phi.map, p), *_factor_jet(Phi, p))


principal_angles = _pointwise(_angles)


def parity(probe):
    """"odd" or "even" by the leaf dimension of a ``LeafProbe``."""
    return "odd" if probe.dimension % 2 == 1 else "even"


# -- slit charts and changes of trivialization ---------------------------

def chain_rule_lift(f, n, k):
    """s^k·(f∘π) on the slit chart by the chain rule: f composed with the
    base coordinates, then multiplied (k > 0) or divided (k < 0) |k| times
    by the coordinate s; the oracle of ``homogenize._lift_field``."""
    lifted = compose(as_field(n, f), [coordinate(n + 1, i) for i in range(n)],
                     source_dim=n + 1)
    s = coordinate(n + 1, n)
    for _ in range(abs(k)):
        lifted = lifted * s if k > 0 else lifted / s
    return lifted


def symplectize(C):
    """(ω~, slit chart): ω~ = d(s·π*θ) by its defining equation, the
    :func:`exterior_d_form` of the 1-form s·π*θ, whose components are
    :func:`chain_rule_lift`; the oracle of the closed form
    ``homogenize._lifted_form`` and of its 1-jet."""
    n = C.chart.dim
    big = slit_chart(C.chart)
    s_theta = KForm(big, 1, {k: chain_rule_lift(f, n, 1)
                             for k, f in C.theta.comps.items()})
    return exterior_d_form(s_theta), big


def homogenize_map(Phi):
    """The lift (x, s) ↦ (φ(x), a(x)·s) of a conformal map to the slit
    charts, from the lifted component fields; the oracle of the closed-form
    TΦ~ = [[Tφ, 0], [s·da, a]]."""
    n = Phi.map.source.dim
    comps = [chain_rule_lift(c, n, 0) for c in Phi.map.components]
    comps.append(chain_rule_lift(Phi.factor, n, 1))
    return SmoothMap(slit_chart(Phi.map.source), slit_chart(Phi.map.target),
                     comps)


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


# -- contact and l.c.s. --------------------------------------------------

def reeb(C, p):
    """The unique E with θ(E) = 1 and i_E dθ = 0, by a linear solve on the
    θ row and dθ block of :func:`jdl.contact.varpi_matrix`."""
    n = C.chart.dim
    M = varpi_matrix(C, p)
    A = np.vstack([M[-1, :-1], M[:-1, :-1].T])
    b = np.zeros(n + 1)
    b[0] = 1.0
    sol, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < n or np.abs(A @ sol - b).max() > 1e-8:
        raise SingularSystem(f"no Reeb field at {p}: contact condition fails")
    return sol


def contact_field_property(C, f, p):
    """Rank-1 test on [θ_p; (L_{X_f}θ)_p]: X_f is a contact vector field.

    Returns the singular-value ratio s₁/s₀, which is 0 for a contact field;
    the caller compares it with its own tolerance.
    """
    Xf = hamiltonian_field(contact_to_jacobi(C), f)
    M = np.vstack([C.theta.dense(p), lie_derivative(Xf, C.theta, p)])
    s = np.linalg.svd(M, compute_uv=False)
    return s[1] / max(s[0], 1e-30)


class LcsStructure:
    """Coorientable l.c.s. data (η, ω) on an even chart, as
    :func:`jdl.contact.check_lcs` reads it."""

    def __init__(self, chart, eta, omega):
        self.chart = chart
        if isinstance(eta, dict):
            eta = KForm(chart, 1, eta)
        if isinstance(omega, dict):
            omega = KForm(chart, 2, omega)
        self.eta = eta
        self.omega = omega


def lcs_hamiltonian_vf(L, f, p):
    """X_f = ω♯(d∇f) with d∇f = df - f·η and ω♯ inverting X ↦ ω(·,X)."""
    f = as_field(L.chart.dim, f)
    W = L.omega.dense(p)
    fj = f(p, 1)
    rhs = fj.grad - fj.value * L.eta.dense(p)
    try:
        return np.linalg.solve(W, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularOmega(str(exc))


def lcs_bracket(L, f, g, p):
    """{f,g} = ω(X_f, X_g)."""
    Xf = lcs_hamiltonian_vf(L, f, p)
    Xg = lcs_hamiltonian_vf(L, g, p)
    return float(Xf @ L.omega.dense(p) @ Xg)


def lcs_from_even_pair(J):
    """The l.c.s. structure of a transitive even Jacobi pair.

    ω = -(Π-matrix)⁻¹ and η = -ω♭(E) = Π⁻¹E, both read off one
    :func:`jdl.fields.jet_solve` of Π against [id | E] per point, from the
    1-jets of Π and E, so they evaluate only to order 1.  Then X_f and
    {f,g} agree with the pair's own Hamiltonian fields and bracket, and
    (η, ω) satisfies the l.c.s. equations.
    """
    n = J.chart.dim
    # columns :n are -ω, column n is η = Π⁻¹E (X_1 = E pins it in the tests)
    sign = np.append(-np.ones(n), 1.0)

    def solve(p):
        (P, dP), (E, dE) = J.Pi.jet(p), J.E.jet(p)
        X, dX = jet_solve(P, dP, np.column_stack([np.eye(n), E]),
                          np.concatenate([np.zeros((n, n, n)),
                                          dE[:, :, None]], axis=2))
        return sign * X, sign * dX

    solve = point_memo(solve)
    omega = KForm(J.chart, 2, {(i, j): entry_field(n, solve, i, j)
                               for i, j in itertools.combinations(range(n), 2)})
    eta = KForm(J.chart, 1, {(j,): entry_field(n, solve, j, n)
                             for j in range(n)})
    return LcsStructure(J.chart, eta, omega)


# -- Jacobi pairs --------------------------------------------------------

def negated(J):
    """The opposite structure (-Π, -E)."""
    neg_pi = {k: -f for k, f in J.Pi.comps.items()}
    neg_e = [-c for c in J.E.comps]
    return JacobiPair(J.chart, neg_pi, neg_e)


def conformal_change(J, c):
    """The unique pair J' with {cf, cg}_J = c {f,g}_J' for nowhere-zero c.

    In closed form J' = (cΠ, X_c), with X_c the Hamiltonian field of c.
    """
    c = as_field(J.chart.dim, c)
    return JacobiPair(J.chart, {k: c * f for k, f in J.Pi.comps.items()},
                      hamiltonian_field(J, c).comps)


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


def abelian(dim):
    return LieAlgebraData(dim, np.zeros((dim, dim, dim)))


def projective_chart(g, k):
    """Affine chart {μ_k ≠ 0} of the projectivized coalgebra: w_i = μ_i/μ_k."""
    if not 0 <= k < g.dim:
        raise ChartIndexInvalid(f"chart index {k} not in [0, {g.dim})")
    n = g.dim - 1
    return Chart(f"proj{n}_chart{k}", n, [(-2.0, 2.0)] * n)


def homogeneous_extension(g, k, b):
    """Degree-1 homogeneous B(μ) = μ_k · b(μ/μ_k) as a field on the coalgebra."""
    n = g.dim
    ratios = [ScalarFieldSpec(n, lambda *mu, i=i: mu[i] / mu[k])
              for i in range(n) if i != k]
    return coordinate(n, k) * compose(as_field(n - 1, b), ratios)


def projectivized_bracket_field(g, k, b1, b2):
    """The induced bracket of two affine-chart functions, as a chart field.

    Extends b_i to degree-1 homogeneous functions, takes the linear Poisson
    bracket on the coalgebra, and reads the (again degree-1 homogeneous)
    result back on the slice μ_k = 1.
    """
    if not 0 <= k < g.dim:
        raise ChartIndexInvalid(f"chart index {k} not in [0, {g.dim})")
    lp = lie_poisson(g)
    B1 = homogeneous_extension(g, k, b1)
    B2 = homogeneous_extension(g, k, b2)
    big = bracket_field(lp, B1, B2)
    # embed chart point w into the slice μ_k = 1
    n = g.dim
    others = [i for i in range(n) if i != k]

    slot_fields = []
    for i in range(n):
        if i == k:
            slot_fields.append(constant(n - 1, 1.0))
        else:
            slot_fields.append(coordinate(n - 1, others.index(i)))
    return compose(big, slot_fields)
