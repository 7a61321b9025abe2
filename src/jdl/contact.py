"""Contact and locally conformal symplectic structures, coorientable
rendition, with both dictionaries into Jacobi pairs.

A contact structure on an odd chart is a 1-form θ with θ∧(dθ)ⁿ nowhere
zero.  Its Jacobi pair (Π, E) is the inverse of the symplectic Atiyah form:
on the frame {(∂_0,0), ..., (∂_{n-1},0), 1} the (n+1)×(n+1) matrix ϖ has
entries ϖ_ij = dθ_ij, ϖ_in = -θ_i and ϖ_nj = +θ_j, and the bi-differential
operator matrix of the pair is ϖ^{-T}, so

    Π^{ij} = (ϖ⁻¹)_{ji},    E^j = (ϖ⁻¹)_{jn}.

:func:`contact_to_jacobi` computes this with one jet matrix inverse per
(point, order) and validates ϖ♭∘J♯ = id at sample points from float dθ and θ
matrices.  The consequences, each pinned by a unit test on the darboux3
entry:

* Reeb field E: θ(E) = 1 and i_E dθ = 0.
* Curvature form on H = ker θ: c_H = -(dθ)|_H.
* Hamiltonian field X_f = Π♯(df) + f·E: the unique field with θ(X_f) = f
  and i_{X_f} dθ = -df + E(f)·θ.
* Bracket: {f,g} = X_f(g) - g·E(f).

The defining equations are kept as an independent oracle in the tests,
which extract a pair from the bracket they induce with the bracket
extraction in ``tests/conftest.py`` and compare it with the closed form.

The l.c.s. dictionary uses d∇f = df - f·η and ω♯ inverting X ↦ ω(·, X);
this slot choice makes the even transitive dictionary reproduce both the
bracket and the Hamiltonian fields of the underlying Jacobi pair.
"""
from __future__ import annotations

import itertools

import numpy as np

from .calculus import KForm, exterior_d_form, lie_derivative, wedge_form
from .chart import sample_points
from .errors import (DegenerateCurvature, EvenDimension, InconsistentOracle,
                     SingularOmega, SingularSystem)
from .fields import Field, as_field, constant, jet_solve, point_memo
from .jacobi import JacobiPair, hamiltonian_field, jacobi_bidiff_matrix
from .linalg import BilinearForm, kernel
from .report import residual_report, threshold_report, timed

CONTACT_IDENTITY = "theta ^ (d theta)^n is a volume form"
LCS_IDENTITY = "d eta = 0, omega nondegenerate, d omega + omega ^ eta = 0"


class ContactStructure:
    """A contact form θ on an odd-dimensional chart."""

    def __init__(self, chart, theta):
        if chart.dim % 2 == 0:
            raise EvenDimension(f"chart {chart.name!r} has even dim {chart.dim}")
        self.chart = chart
        if isinstance(theta, dict):
            theta = KForm(chart, 1, theta)
        self.theta = theta
        self.dtheta = exterior_d_form(theta)
        self.n = (chart.dim - 1) // 2
        self._pair = None

    def __repr__(self):
        return f"ContactStructure(chart={self.chart.name!r})"


def volume_coefficient(C, p):
    """Top coefficient of θ∧(dθ)ⁿ at p."""
    form = C.theta
    for _ in range(C.n):
        form = wedge_form(form, C.dtheta)
    return form.coeff(tuple(range(C.chart.dim)), p)


@timed
def check_contact(C, pts, tol=1e-8):
    """Pass iff min |top coefficient of θ∧(dθ)ⁿ| over pts exceeds tol."""
    vals = [(p, volume_coefficient(C, p)) for p in pts]
    return threshold_report("contact", CONTACT_IDENTITY, vals, tol)


def reeb(C, p):
    """The unique E with θ(E) = 1 and i_E dθ = 0, by a linear solve."""
    n = C.chart.dim
    A = np.vstack([C.theta.dense(p), C.dtheta.dense(p).T])
    b = np.zeros(n + 1)
    b[0] = 1.0
    sol, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < n or np.abs(A @ sol - b).max() > 1e-8:
        raise SingularSystem(f"no Reeb field at {p}: contact condition fails")
    return sol


def varpi_matrix(C, p):
    """Matrix of ϖ on the frame {(∂_i, 0)} ∪ {1} at p.

    Entries ϖ((∂i,0),(∂j,0)) = dθ_ij, ϖ((∂i,0),1) = -θ_i, ϖ(1,·) = +θ.
    θ and dθ are read from the 1-jets of θ's stored components, with
    dθ_ij = ∂_iθ_j - ∂_jθ_i, so no derived dθ field is evaluated.
    """
    n = C.chart.dim
    th, grad = np.zeros(n), np.zeros((n, n))
    for (i,), f in C.theta.comps.items():
        j = f(p, 1)
        th[i], grad[i] = j.value, j.grad
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = grad.T - grad
    M[:n, n] = -th
    M[n, :n] = th
    return M


def varpi_entry_fields(C):
    """All entries of ϖ as jet-evaluable fields, laid out as varpi_matrix."""
    n = C.chart.dim
    d = C.dtheta.field_matrix()
    theta = C.theta.field_matrix()
    entries = [d[i] + [-theta[i]] for i in range(n)]
    entries.append(theta + [constant(n, 0.0)])
    return entries


def curvature_form(varpi, tol=1e-10):
    """H = ker θ_p and the matrix of c = -(dθ)|_H in the basis of H, read off
    ``varpi`` = varpi_matrix(C, p): θ is its last row, dθ its top-left block.
    """
    H = kernel(varpi[-1:, :-1])
    B = H.basis
    c = -(B.T @ varpi[:-1, :-1] @ B)
    det = np.linalg.det(c)
    if abs(det) < tol:
        raise DegenerateCurvature(
            f"curvature degenerate: |det c| = {abs(det):.2e}")
    return H, BilinearForm(c)


def contact_to_jacobi(C, pts=None, tol=1e-8):
    """The nondegenerate Jacobi pair of a contact structure, in closed form.

    Π^{ij} = (ϖ⁻¹)_{ji} and E^j = (ϖ⁻¹)_{jn}, with ϖ⁻¹ one jet inverse of
    the ϖ-entry fields per (point, order), shared by every entry.  The pair
    is built once and kept on ``C``.  Each call validates ϖ♭∘J♯ = id at
    ``pts`` (default: 5 points, seed 23) from the float dθ and θ matrices,
    which read the stored components and not the jet inverse or the
    ``field_matrix`` layout it is built from; a residual above
    ``tol`` raises InconsistentOracle, and a singular ϖ raises
    SingularSystem.  The defining-equation oracle, through bracket
    extraction, lives in the tests.

    The pair evaluates only up to order 2: ϖ holds dθ, so it needs one
    more derivative of θ than the pair does, and jets stop at order 3.
    """
    J = C._pair or _closed_form_pair(C)
    if pts is None:
        pts = sample_points(C.chart, 5, seed=23)
    worst = max((sharp_inverse_residual(C, J, p) for p in pts), default=0.0)
    if worst > tol:
        raise InconsistentOracle(
            f"closed-form Jacobi pair fails varpi_flat . J_sharp = id "
            f"(residual {worst:.2e})")
    C._pair = J
    return J


def sharp_inverse_residual(C, J, p):
    """max |ϖ♭∘J♯ - id| on jet coordinates at p, from float dθ and θ.

    ϖ♭(δ) = ϖ(·, δ) is varpi_matrix and J♯ the transposed bi-DO matrix;
    this slot choice makes ϖ♭∘J♯ the identity for the pair induced by C.
    """
    M = varpi_matrix(C, p) @ jacobi_bidiff_matrix(J, p).T
    return float(np.abs(M - np.eye(C.chart.dim + 1)).max())


def _closed_form_pair(C):
    n = C.chart.dim
    W = varpi_entry_fields(C)
    eye = np.eye(n + 1)
    inv = point_memo(lambda p, order: jet_solve(
        [[w(p, order) for w in row] for row in W], eye))

    def entry(i, j):
        return Field(n, lambda p, o: inv(p, o)[i, j])

    pi = {(i, j): entry(j, i) for i, j in itertools.combinations(range(n), 2)}
    return JacobiPair(C.chart, pi, [entry(j, n) for j in range(n)])


class LcsStructure:
    """Coorientable l.c.s. data (η, ω) on an even chart."""

    def __init__(self, chart, eta, omega):
        self.chart = chart
        if isinstance(eta, dict):
            eta = KForm(chart, 1, eta)
        if isinstance(omega, dict):
            omega = KForm(chart, 2, omega)
        self.eta = eta
        self.omega = omega


@timed
def check_lcs(L, pts, tol=1e-8):
    """Residuals of dη, det ω (threshold), and dω + ω∧η."""
    residuals = []
    notes = ""
    n = L.chart.dim
    d_eta = exterior_d_form(L.eta)
    if n >= 3:
        d_omega = exterior_d_form(L.omega)
        wedge_oe = wedge_form(L.omega, L.eta)
    for p in pts:
        r = max((abs(f.value(p)) for f in d_eta.comps.values()), default=0.0)
        if abs(np.linalg.det(L.omega.dense(p))) < tol:
            raise SingularOmega(f"omega singular at {p}")
        if n >= 3:
            for key in itertools.combinations(range(n), 3):
                r = max(r, abs(d_omega.coeff(key, p) + wedge_oe.coeff(key, p)))
        residuals.append((p, r))
    if n == 2:
        notes = ("degenerate-dimension pass: all 3-forms vanish identically "
                 "in dim 2, so d omega + omega ^ eta = 0 is forced")
    return residual_report("lcs", LCS_IDENTITY, residuals, tol, notes=notes)


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

    ω = -(Π-matrix)⁻¹ and η = -ω♭(E) = Π⁻¹E, both read off one jet solve of
    Π against [id | E] per (point, order); then X_f and {f,g} agree with the
    pair's own Hamiltonian fields and bracket, and (η, ω) satisfies the
    l.c.s. equations.
    """
    n = J.chart.dim
    pi_fields = J.Pi.field_matrix()
    eye = np.eye(n)

    def solve(p, order):
        rhs = [list(row) + [e(p, order)] for row, e in zip(eye, J.E.comps)]
        return jet_solve([[pi_fields[a][b](p, order) for b in range(n)]
                          for a in range(n)], rhs)

    solve = point_memo(solve)
    omega = KForm(J.chart, 2, {
        (i, j): Field(n, lambda p, o, i=i, j=j: -solve(p, o)[i, j])
        for i, j in itertools.combinations(range(n), 2)})
    # η_j = Σ_i (Π⁻¹)_{ji} E^i, pinned by X_1 = E in the route-agreement test
    eta = KForm(J.chart, 1, {
        (j,): Field(n, lambda p, o, j=j: solve(p, o)[j, n])
        for j in range(n)})
    return LcsStructure(J.chart, eta, omega)


def contact_field_property(C, f, p):
    """Rank-1 test on [θ_p; (L_{X_f}θ)_p]: X_f is a contact vector field.

    Returns the singular-value ratio s₁/s₀, which is 0 for a contact field;
    the caller compares it with its own tolerance.
    """
    Xf = hamiltonian_field(contact_to_jacobi(C), f)
    L = lie_derivative(Xf, C.theta, p)
    row = np.array([L[(i,)] for i in range(C.chart.dim)])
    M = np.vstack([C.theta.dense(p), row])
    s = np.linalg.svd(M, compute_uv=False)
    return s[1] / max(s[0], 1e-30)
