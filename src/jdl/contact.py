"""Contact and locally conformal symplectic structures, coorientable
rendition, with both dictionaries into Jacobi pairs.

A contact structure on an odd chart is a 1-form θ with θ∧(dθ)ⁿ nowhere
zero.  Its Jacobi pair (Π, E) is the inverse of the symplectic Atiyah form:
on the frame {(∂_0,0), ..., (∂_{n-1},0), 1} the (n+1)×(n+1) matrix ϖ has
entries ϖ_ij = dθ_ij, ϖ_in = -θ_i and ϖ_nj = +θ_j, and the bi-differential
operator matrix of the pair is ϖ^{-T}, so

    Π^{ij} = (ϖ⁻¹)_{ji},    E^j = (ϖ⁻¹)_{jn}.

:func:`contact_to_jacobi` solves this once per point from (ϖ, ∂ϖ), which
:func:`varpi_jet` reads from θ's 2-jet, as d(ϖ⁻¹) = -ϖ⁻¹(∂ϖ)ϖ⁻¹, and
validates ϖ♭∘J♯ = id once.  The consequences, each pinned by a unit test on
the darboux3 entry:

* Reeb field E: θ(E) = 1 and i_E dθ = 0.
* Curvature form on H = ker θ: c_H = -(dθ)|_H.
* Hamiltonian field X_f = Π♯(df) + f·E: the unique field with θ(X_f) = f
  and i_{X_f} dθ = -df + E(f)·θ.
* Bracket: {f,g} = X_f(g) - g·E(f).

The defining equations are kept as an independent oracle in the tests,
which extract a pair from the bracket they induce with the bracket
extraction in ``tests/conftest.py`` and compare it with the closed form.
There θ∧(dθ)ⁿ, a multiple of the Pfaffian of ϖ, checks :func:`check_contact`.

The l.c.s. dictionary, built in the tests (``tests/oracles.py``), uses
d∇f = df - f·η and ω♯ inverting X ↦ ω(·, X); this slot choice makes the
even transitive dictionary reproduce both the bracket and the Hamiltonian
fields of the underlying Jacobi pair.  With
d∇α = dα - η∧α on forms, (η, ω) is l.c.s. when dη = 0 and d∇ω = 0, that is
dω = η∧ω (Vaisman, Int. J. Math. Math. Sci. 8, 1985), the sign that
:func:`check_lcs` checks.
"""
from __future__ import annotations

import itertools

import numpy as np

from .calculus import KForm, cyclic
from .chart import sample_points
from .errors import (DegenerateCurvature, EvenDimension, OracleMismatch,
                     SingularOmega)
from .fields import entry_field, jet_solve, point_memo
from .jacobi import JacobiPair, jacobi_bidiff_matrix
from .linalg import RANK_TOL, BilinearForm, kernel, nondegeneracy
from .report import residual_report, threshold_report, timed

CONTACT_IDENTITY = "theta ^ (d theta)^n is a volume form"
LCS_IDENTITY = "d eta = 0, omega nondegenerate, d omega = eta ^ omega"


class ContactStructure:
    """A contact form θ on an odd-dimensional chart."""

    def __init__(self, chart, theta):
        if chart.dim % 2 == 0:
            raise EvenDimension(f"chart {chart.name!r} has even dim {chart.dim}")
        self.chart = chart
        if isinstance(theta, dict):
            theta = KForm(chart, 1, theta)
        self.theta = theta
        self.n = (chart.dim - 1) // 2
        self._pair = None

    def __repr__(self):
        return f"ContactStructure(chart={self.chart.name!r})"


@timed
def check_contact(C, pts):
    """Pass iff nondegeneracy(ϖ(p)) > RANK_TOL, i.e. θ∧(dθ)ⁿ ≠ 0, at all p."""
    vals = [(p, nondegeneracy(varpi_matrix(C, p))) for p in pts]
    return threshold_report("contact", CONTACT_IDENTITY, vals, RANK_TOL)


def varpi_matrix(C, p):
    """Matrix of ϖ on the frame {(∂_i, 0)} ∪ {1} at p.

    Entries ϖ((∂i,0),(∂j,0)) = dθ_ij, ϖ((∂i,0),1) = -θ_i, ϖ(1,·) = +θ.
    θ and dθ = dA - dAᵀ are read from the 1-jet (A, dA) of θ, so no derived
    dθ field is evaluated.
    """
    return _assemble_varpi(*C.theta.jet(p))


def varpi_jet(C, p):
    """(ϖ, ∂ϖ) at p, ∂ϖ[l] = ∂_l ϖ, from θ's 2-jet: ϖ is linear in (θ, ∂θ),
    so ∂ϖ is the assembly of :func:`varpi_matrix` applied to (∂θ, ∂²θ)."""
    n = C.chart.dim
    th, dth, ddth = np.zeros(n), np.zeros((n, n)), np.zeros((n, n, n))
    for (i,), f in C.theta.comps.items():
        j = f(p, 2)
        th[i], dth[:, i], ddth[:, :, i] = j.value, j.grad, j.hess
    return _assemble_varpi(th, dth), _assemble_varpi(dth, ddth)


def _assemble_varpi(th, dth):
    """ϖ = [[dθ, -θ], [θᵀ, 0]] from θ and dθ[..., l, i] = ∂_l θ_i, over any
    leading axes."""
    n = th.shape[-1]
    M = np.zeros(th.shape[:-1] + (n + 1, n + 1))
    M[..., :n, :n] = dth - dth.swapaxes(-1, -2)
    M[..., :n, n] = -th
    M[..., n, :n] = th
    return M


def curvature_form(varpi):
    """H = ker θ_p, a list, and the form c = -(dθ)|_H in the basis of H at
    each point of ``varpi``, a stack of varpi_matrix(C, p): θ is its last
    row, dθ its top-left block.  Raises DegenerateCurvature where
    nondegeneracy(c) <= RANK_TOL.
    """
    H = kernel(varpi[:, -1:, :-1])
    c = [-(h.basis.T @ w[:-1, :-1] @ h.basis) for h, w in zip(H, varpi)]
    ratio = nondegeneracy(c)
    if (bad := ratio[ratio <= RANK_TOL]).size:
        raise DegenerateCurvature(
            f"curvature degenerate: sigma_min/sigma_max of c = {bad[0]:.2e}")
    return H, BilinearForm(np.stack(c))


def contact_to_jacobi(C):
    """The nondegenerate Jacobi pair of a contact structure, in closed form.

    Π^{ij} = (ϖ⁻¹)_{ji} and E^j = (ϖ⁻¹)_{jn}, with (ϖ⁻¹, ∂ϖ⁻¹) one
    :func:`jet_solve` of :func:`varpi_jet` per point, shared by every entry.
    The pair is built once, kept on ``C`` and validated when it is built:
    ϖ♭∘J♯ = id at 5 points of C's chart (seed 23), with ϖ♭ the float
    :func:`varpi_matrix`, which reads θ's 1-jet, not the 2-jet the pair is
    solved from.  A residual above 1e-8 raises OracleMismatch, and a
    singular ϖ raises SingularSystem.  The defining-equation oracle,
    through bracket extraction, lives in the tests.

    The pair evaluates only to order 1, the only order a check reads: ϖ
    holds dθ, so it needs one more derivative of θ than the pair does, and
    jets stop at order 2.
    """
    if C._pair is None:
        J = _closed_form_pair(C)
        worst = max((sharp_inverse_residual(C, J, p)
                     for p in sample_points(C.chart, 5, seed=23)), default=0.0)
        if worst > 1e-8:
            raise OracleMismatch(
                f"closed-form Jacobi pair fails varpi_flat . J_sharp = id "
                f"(residual {worst:.2e})")
        C._pair = J
    return C._pair


def sharp_inverse_residual(C, J, p):
    """max |ϖ♭∘J♯ - id| on jet coordinates at p, from float dθ and θ.

    ϖ♭(δ) = ϖ(·, δ) is varpi_matrix and J♯ the transposed bi-DO matrix;
    this slot choice makes ϖ♭∘J♯ the identity for the pair induced by C.
    """
    M = varpi_matrix(C, p) @ jacobi_bidiff_matrix(J, p).T
    return float(np.abs(M - np.eye(C.chart.dim + 1)).max())


def _closed_form_pair(C):
    n = C.chart.dim
    eye, zero = np.eye(n + 1), np.zeros((n, n + 1, n + 1))
    inv = point_memo(lambda p: jet_solve(*varpi_jet(C, p), eye, zero))
    pi = {(i, j): entry_field(n, inv, j, i)
          for i, j in itertools.combinations(range(n), 2)}
    return JacobiPair(C.chart, pi, [entry_field(n, inv, j, n)
                                    for j in range(n)])


@timed
def check_lcs(L, pts):
    """Residuals of dη = 0 and dω = η∧ω for l.c.s. data ``L`` on an even
    chart (``L.chart``, the 1-form ``L.eta`` and the 2-form ``L.omega``),
    read from the 1-jets (η, ∂η) and (W, ∂W) of η and ω: dη = ∂η - ∂ηᵀ and dω - η∧ω = cyclic(∂W - η ⊗ W).
    Raises SingularOmega if ω degenerates."""
    residuals = []
    for p in pts:
        eta, deta = L.eta.jet(p)
        W, dW = L.omega.jet(p)
        if nondegeneracy(W) <= RANK_TOL:
            raise SingularOmega(f"omega singular at {p}")
        r = max(np.abs(deta - deta.T).max(initial=0.0),
                np.abs(cyclic(dW - np.multiply.outer(eta, W))).max(initial=0.0))
        residuals.append((p, float(r)))
    notes = ("degenerate-dimension pass: all 3-forms vanish identically in "
             "dim 2, so d omega = eta ^ omega is forced") \
        if L.chart.dim == 2 else ""
    return residual_report("lcs", LCS_IDENTITY, residuals, 1e-8, notes=notes)
