"""Poissonization and symplectization on slit charts, and the equivalence
of dual-pair verdicts upstairs and downstairs.

A Jacobi pair (Π, E) on a chart M lifts to the homogeneous bivector

    P = s⁻¹ Π + ∂s ∧ E

on M × R^×, with s the extra fiber coordinate (last slot), as the Jacobi
pair (P, 0) on the slit chart.  Its fields, and ω~'s below, are homogeneous
lifts s^k·(f∘π), π(x, s) = x, read in closed form from f's jet at x; P's
defining oracle {s·f∘π, s·g∘π}_P = s·({f,g}∘π) ships permanently.  A contact
form θ lifts to the exact symplectic form ω~ = d(s·π*θ), and inverting ω~
pointwise reproduces the Poissonization of the induced Jacobi pair (two
independent routes).
:func:`check_schouten_square` checks [[P,P]] = 0 on the lifted fields, and
:func:`jdl.jacobi.check_jacobi_pair` checks the same square at s = 1.

ω~ is also the symplectic Atiyah form ϖ = d_D(θ∘σ) of the trivial line
bundle, with d_D = d and ι_1 = ι_{s∂s} on homogeneous forms (see
:mod:`jdl.atiyah`).  So :func:`check_symplectization` carries the
der-complex identities: dω~ = 0 is d_D ϖ = 0, and dω~ = 0 with the
construction ω~ = d(s·π*θ) is the contracting homotopy
(d_D ι_1 + ι_1 d_D) ϖ = ϖ.  ω~ has one route, the closed form
[[s·dθ, -θ], [θᵀ, 0]] of ϖ(x): the symplectization checks read it and its
1-jet from :func:`jdl.contact.varpi_jet` at x, and the dual-pair check reads
it, and TΦ~ = [[Tφ, 0], [s·da, a]], from the spec's point data at x.  The
tree d(s·π*θ) and the lifted map (x, s) ↦ (φ(x), a(x)·s) are their oracles.

R^× is modeled as the punctured fiber coordinate s, sampled in
[-2, -0.5] ∪ [0.5, 2] so both components are exercised.
"""
from __future__ import annotations

import itertools

import numpy as np

from .atiyah import _bordered
from .calculus import cyclic, schouten_square
from .chart import Chart, tangent_map
from .contact import contact_to_jacobi, varpi_jet, varpi_matrix
from .errors import DimensionMismatch, DomainViolation, OracleMismatch
from .fields import Field, constant
from .jacobi import JacobiPair, bracket_field, default_test_functions
from .jets import Jet
from .linalg import (ANGLE_TOL, RANK_TOL, BilinearForm, _unit_rows,
                     full_space, kernel, nondegeneracy, orth_complement_wrt,
                     subspace_equal)
from .report import FAIL, require_points, residual_report, timed

S_SLICES = (1.0, 2.0, -1.0)


def slit_chart(chart):
    """chart × R^×, the fiber coordinate s last.

    s is sampled from the box [-2, 2] with |s| < 0.5 excluded, so both
    components [-2, -0.5] and [0.5, 2] are exercised.
    """
    box = list(chart.box) + [(-2.0, 2.0)]
    base_excl = chart.excluded

    def excl(p):
        if abs(p[-1]) < 0.5:
            return True
        return base_excl(p[:-1]) if base_excl is not None else False

    return Chart(f"{chart.name}_slit", chart.dim + 1, box, excl)


def _lift_field(f, n, k):
    """s^k·(f∘π) from the jet of f at x: gradient (s^k·df, k·s^(k-1)·f),
    Hessian blocks s^k·∇²f, k·s^(k-1)·df and k(k-1)·s^(k-2)·f.  Raises
    DimensionMismatch unless f is on n coordinates, DomainViolation for k < 0
    at s = 0.  A negative power of s is a reciprocal, as in Jet."""
    if f.dim != n:
        raise DimensionMismatch(f"field on {f.dim} coordinates, not {n}")

    def ev(p, order):
        s = float(p[n])
        if k < 0 and s == 0.0:
            raise DomainViolation(f"s^{k} at s = 0")
        c0, c1, c2 = (m * (s**(k - i) if k >= i else 1.0 / s**(i - k))
                      if m else 0.0 for i, m in enumerate((1, k, k * (k - 1))))
        j = f(p[:n], order)
        grad = np.append(c0 * j.grad, c1 * j.value)
        if order == 1:
            return Jet(n + 1, 1, c0 * j.value, grad)
        hess = np.empty((n + 1, n + 1))
        hess[:n, :n] = c0 * j.hess
        hess[n, :n] = hess[:n, n] = c1 * j.grad
        hess[n, n] = c2 * j.value
        return Jet(n + 1, 2, c0 * j.value, grad, hess)
    return Field(n + 1, ev)


def lifted_pair(J):
    """The pair (P, 0), P = s⁻¹Π + ∂s∧E, on the slit chart: the lifts of Π
    (k = -1) and E (k = 0); :func:`poissonize` certifies it."""
    n = J.chart.dim
    big = slit_chart(J.chart)
    comps = {}
    for (i, j), f in J.Pi.comps.items():
        comps[(i, j)] = _lift_field(f, n, -1)
    for i in range(n):
        comps[(i, n)] = -_lift_field(J.E.comps[i], n, 0)  # (∂s∧E)^{is} = -E^i
    return JacobiPair(big, comps, [constant(n + 1, 0.0)] * (n + 1))


def poissonize(J, pts):
    """:func:`lifted_pair` of J, certified against its oracle.

    Raises OracleMismatch if {s·f∘π, s·g∘π}_P deviates from s·({f,g}_J∘π)
    on coordinate test functions at ``pts``, points of the slit chart.
    """
    P = lifted_pair(J)
    rep = check_poissonization_oracle(P, J, pts)
    if not rep.passed:
        raise OracleMismatch(
            f"poissonization closed form fails its oracle: {rep.max_residual:.2e}")
    return P


@timed
def check_poissonization_oracle(P, J, pts):
    """{s·f∘π, s·g∘π}_P = s·({f,g}_J∘π) on the test sections (k = 1 lifts)."""
    n = J.chart.dim
    fields = []
    for f, g in itertools.combinations_with_replacement(
            default_test_functions(J.chart), 2):
        lhs = bracket_field(P, _lift_field(f, n, 1), _lift_field(g, n, 1))
        rhs = _lift_field(bracket_field(J, f, g), n, 1)
        fields.append(lhs - rhs)
    residuals = []
    for p in pts:
        r = max(abs(f.value(p)) for f in fields)
        residuals.append((p, r))
    return residual_report(
        "poissonization_oracle",
        "{s f.pi, s g.pi}_P = s ({f,g}.pi)", residuals, 1e-9)


@timed
def check_homogeneity(P, pts):
    """h_t-pullback scaling: the lifted bivector scales as t^{-1}.

    Componentwise: P^{ij}(x, ts) = t^{-1} P^{ij}(x, s) for base indices and
    P^{is}(x, ts) = P^{is}(x, s) (one ∂s leg absorbs a factor t).
    """
    n = P.chart.dim - 1
    residuals = []
    for p in pts:
        r = 0.0
        M = P.pi_matrix(p)[:n]
        for t in (2.0, 1.0 / 3.0, -1.0):
            q = np.array(p, dtype=float)
            q[-1] *= t
            expect = M / np.append(np.full(n, t), 1.0)
            r = max(r, np.abs(P.pi_matrix(q)[:n] - expect).max(initial=0.0))
        residuals.append((p, r))
    return residual_report(
        "poissonization_homogeneity",
        "h_t-pullback of the lifted bivector is t^{-1} times itself",
        residuals, 1e-9)


def _lifted_form(varpi, s):
    """ω~ at (x, s) from ϖ(x) in closed form: [[s·dθ, -θ], [θᵀ, 0]]."""
    out = varpi.copy()
    out[..., :-1, :-1] *= s
    return out


def _lifted_jet(varpi, dvarpi, s):
    """(ω~, ∂ω~) at (x, s) from ϖ's 1-jet at x: ∂_x ω~ lifts ∂ϖ, and ω~ is
    affine in s, so ∂_s ω~ is its lift at s = 1 less its lift at s = 0."""
    ds = _lifted_form(varpi, 1.0) - _lifted_form(varpi, 0.0)
    return _lifted_form(varpi, s), np.vstack([_lifted_form(dvarpi, s), [ds]])


@timed
def check_symplectization(C, pts):
    """dω~ = 0, ω~ nondegenerate (else residual 1), h_t* ω~ = t ω~.

    With ω~ = ϖ (module docstring), dω~ = 0 is d_D ϖ = 0, and together with
    ω~ = d(s·π*θ) it is the contracting homotopy ϖ = d_D ι_1 ϖ with
    ι_1 ϖ = θ∘σ; h_t* ω~ = t ω~ says ω~ is homogeneous, so that it is an
    Atiyah form.
    """
    residuals = []
    for p in pts:
        varpi, dvarpi = varpi_jet(C, p[:-1])
        M, dM = _lifted_jet(varpi, dvarpi, p[-1])
        r = float(np.abs(cyclic(dM)).max())
        if nondegeneracy(M) <= RANK_TOL:
            r = max(r, 1.0)
        for t in (2.0, -1.0):
            Mq = _lifted_form(varpi, p[-1] * t)
            # base entries scale by t, mixed entries ω~(e_i, e_s) do not
            expect = np.hstack([t * M[:-1, :-1], M[:-1, -1:]])
            r = max(r, float(np.abs(Mq[:-1] - expect).max()))
        residuals.append((p, r))
    return residual_report(
        "symplectization",
        "d omega~ = 0; omega~ nondegenerate; h_t* omega~ = t omega~",
        residuals, 1e-9)


@timed
def check_symplectization_consistency(C, pts):
    """Invert ω~ pointwise and compare with the Poissonization of the
    induced Jacobi pair, certified at the same points: the two routes must
    agree componentwise."""
    require_points(pts, "symplectization_consistency")
    P = poissonize(contact_to_jacobi(C), pts)
    residuals = []
    for p in pts:
        omega = _lifted_form(varpi_matrix(C, p[:-1]), p[-1])
        r = float(np.abs(-np.linalg.inv(omega) - P.pi_matrix(p)).max())
        residuals.append((p, r))
    return residual_report(
        "symplectization_consistency",
        "-(omega~)^{-1} equals the lifted bivector of the induced pair",
        residuals, 1e-8)


def _lifted_tangent(T, a, da, s):
    """TΦ~ at (x, s) from Tφ(x), a(x) and da(x) in closed form:
    [[Tφ, 0], [s·da, a]]."""
    return _bordered(T, s * da, a)


@timed
def check_homogeneous_sdp_equivalence(dp, pts):
    """Lifted symplectic orthogonality agrees with the base verdict.

    At each lifted point (x, s): ker TΦ~1 = (ker TΦ~2)^⊥ω~, compared with
    the base 3-condition verdict at x, which the spec's point data holds
    from the same per-point residuals that verify_dual_pair reports.  ω~
    and TΦ~_i are read in closed form from ϖ(x), Tφ_i(x), a_i(x) and
    da_i(x); all but Tφ_i(x) come from the spec's shared point data at x.  ker TΦ~_i is taken after scaling its
    rows to unit length, which keeps the row of a small factor a_i."""
    base = dp.point_data(pts)
    Ts = [np.stack([tangent_map(Phi.map, p) for p in base.p])
          for _, Phi in dp.legs()]
    worst, lifted_ok = 0.0, True
    for s in S_SLICES:
        K1, K2 = (kernel(_unit_rows(_lifted_tangent(T, leg.a, leg.da, s))[0])
                  for T, leg in zip(Ts, base.legs))
        W = BilinearForm(_lifted_form(base.varpi, s))
        same, ang = subspace_equal(
            K1, orth_complement_wrt(W, K2, full_space(W.ambient)))
        lifted_ok = lifted_ok & same
        worst = np.maximum(worst, ang)
    mismatches = int(np.sum(lifted_ok != base.dual_pair))
    residuals = list(zip(base.p, np.where(base.dual_pair, worst, 0.0)))
    rep = residual_report(
        "homogeneous_sdp_equivalence",
        "ker T Phi~1 = (ker T Phi~2)^perp-omega~ at lifted points iff the "
        "base spec is a dual pair", residuals, ANGLE_TOL)
    if mismatches:
        rep.status = FAIL
        rep.notes = f"{mismatches} points with upstairs/downstairs mismatch"
    return rep


@timed
def check_schouten_square(P, pts):
    """[[P,P]] = 0 for the lifted bivector (it is Poisson).

    :func:`jdl.jacobi.check_jacobi_pair` is this square at s = 1, read from
    the closed-form 1-jet of P instead of from the lifted fields."""
    residuals = []
    for p in pts:
        r = np.abs(schouten_square(*P.Pi.jet(p))).max()
        residuals.append((p, float(r)))
    return residual_report("lifted_poisson", "[[P,P]] = 0 on the slit chart",
                           residuals, 1e-9)
