"""Poissonization and symplectization on slit charts, and the equivalence
of dual-pair verdicts upstairs and downstairs.

A Jacobi pair (Π, E) on a chart M lifts to the homogeneous bivector

    P = s⁻¹ Π + ∂s ∧ E

on M × R^×, with s the extra fiber coordinate (last slot), as the Jacobi
pair (P, 0) on the slit chart.  The closed form is re-derived here from the
defining oracle {s·f∘π, s·g∘π}_P = s·({f,g}∘π) and that oracle test ships
permanently.  A contact form θ lifts to the exact symplectic form
ω~ = d(s·π*θ), and inverting ω~ pointwise reproduces the Poissonization of
the induced Jacobi pair (two independent routes).
:func:`check_schouten_square` checks [[P,P]] = 0 on the lifted fields, and
:func:`jdl.jacobi.check_jacobi_pair` checks the same square at s = 1.

ω~ is also the symplectic Atiyah form ϖ = d_D(θ∘σ) of the trivial line
bundle, with d_D = d and ι_1 = ι_{s∂s} on homogeneous forms (see
:mod:`jdl.atiyah`).  So :func:`check_symplectization` carries the
der-complex identities: dω~ = 0 is d_D ϖ = 0, and dω~ = 0 with the
construction ω~ = d(s·π*θ) is the contracting homotopy
(d_D ι_1 + ι_1 d_D) ϖ = ϖ.  It reads dω~ = cyclic(dA) from the 1-jet
(A, dA) of ω~, so it evaluates θ to second order and builds no dω~ field.

The homogenized dual-pair check reads ω~ = [[s·dθ, -θ], [θᵀ, 0]] and
TΦ~ = [[Tφ, 0], [s·da, a]] in closed form from first-order data at x;
:func:`symplectize`, which keeps its own checks, and the lifted map
(x, s) ↦ (φ(x), a(x)·s) of the tests are the oracles of both.

R^× is modeled as the punctured fiber coordinate s, sampled in
[-2, -0.5] ∪ [0.5, 2] so both components are exercised.
"""
from __future__ import annotations

import itertools

import numpy as np

from .atiyah import _bordered
from .calculus import KForm, cyclic, exterior_d_form, schouten_square
from .chart import Chart, tangent_map
from .contact import contact_to_jacobi
from .dualpair import _defining_conditions
from .errors import OracleMismatch
from .fields import as_field, compose, constant, coordinate
from .jacobi import JacobiPair, bracket_field, default_test_functions
from .linalg import (ANGLE_TOL, RANK_TOL, BilinearForm, _unit_rows,
                     full_space, kernel, nondegeneracy, orth_complement_wrt,
                     subspace_equal)
from .report import FAIL, residual_report, timed

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


def _lift_field(f, n):
    """f on the base, viewed on the slit chart (ignores s)."""
    f = as_field(n, f)
    base_slots = [coordinate(n + 1, i) for i in range(n)]
    return compose(f, base_slots, source_dim=n + 1)


def lifted_pair(J):
    """The pair (P, 0), P = s⁻¹Π + ∂s∧E, on the slit chart, in closed form;
    :func:`poissonize` certifies it."""
    n = J.chart.dim
    big = slit_chart(J.chart)
    comps = {}
    s_field = coordinate(n + 1, n)
    for (i, j), f in J.Pi.comps.items():
        comps[(i, j)] = _lift_field(f, n) / s_field
    for i in range(n):
        comps[(i, n)] = -_lift_field(J.E.comps[i], n)   # (∂s∧E)^{i,s} = -E^i
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
    """{s·f∘π, s·g∘π}_P = s·({f,g}_J ∘ π) on pairs of the test sections."""
    n = J.chart.dim
    s_field = coordinate(n + 1, n)
    fields = []
    for f, g in itertools.combinations_with_replacement(
            default_test_functions(J.chart), 2):
        lhs = bracket_field(P, s_field * _lift_field(f, n),
                            s_field * _lift_field(g, n))
        rhs = s_field * _lift_field(bracket_field(J, f, g), n)
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
        M = P.pi_matrix(p)
        for t in (2.0, 1.0 / 3.0, -1.0):
            q = np.array(p, dtype=float)
            q[-1] *= t
            Mq = P.pi_matrix(q)
            for i in range(n):
                for j in range(n):
                    r = max(r, abs(Mq[i, j] - M[i, j] / t))
                r = max(r, abs(Mq[i, n] - M[i, n]))
        residuals.append((p, r))
    return residual_report(
        "poissonization_homogeneity",
        "h_t-pullback of the lifted bivector is t^{-1} times itself",
        residuals, 1e-9)


def symplectize(C):
    """ω~ = d(s·π*θ) = ds∧π*θ + s·π*dθ on the slit chart."""
    n = C.chart.dim
    big = slit_chart(C.chart)
    s_field = coordinate(n + 1, n)
    comps = {}
    for (i, j), f in exterior_d_form(C.theta).comps.items():
        comps[(i, j)] = s_field * _lift_field(f, n)
    for (i,), th in C.theta.comps.items():
        comps[(i, n)] = -_lift_field(th, n)   # ds∧θ has ω~(e_i, e_s) = -θ_i
    return KForm(big, 2, comps), big


@timed
def check_symplectization(C, pts):
    """dω~ = 0, ω~ nondegenerate (else residual 1), h_t* ω~ = t ω~.

    With ω~ = ϖ (module docstring), dω~ = 0 is d_D ϖ = 0, and together with
    ω~ = d(s·π*θ), which :func:`symplectize` builds, it is the contracting
    homotopy ϖ = d_D ι_1 ϖ with ι_1 ϖ = θ∘σ; h_t* ω~ = t ω~ says ω~ is
    homogeneous, so that it is an Atiyah form.
    """
    omega, _ = symplectize(C)
    residuals = []
    for p in pts:
        M, dM = omega.jet(p)
        r = float(np.abs(cyclic(dM)).max())
        if nondegeneracy(M) <= RANK_TOL:
            r = max(r, 1.0)
        for t in (2.0, -1.0):
            Mq = omega.dense(np.append(p[:-1], p[-1] * t))
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
    omega, _ = symplectize(C)
    P = poissonize(contact_to_jacobi(C), pts)
    residuals = []
    for p in pts:
        P_from_omega = -np.linalg.inv(omega.dense(p))
        r = float(np.abs(P_from_omega - P.pi_matrix(p)).max())
        residuals.append((p, r))
    return residual_report(
        "symplectization_consistency",
        "-(omega~)^{-1} equals the lifted bivector of the induced pair",
        residuals, 1e-8)


def _lifted_form(varpi, s):
    """ω~ at (x, s) from ϖ(x) in closed form: [[s·dθ, -θ], [θᵀ, 0]]."""
    out = varpi.copy()
    out[..., :-1, :-1] *= s
    return out


def _lifted_tangent(T, a, da, s):
    """TΦ~ at (x, s) from Tφ(x), a(x) and da(x) in closed form:
    [[Tφ, 0], [s·da, a]]."""
    return _bordered(T, s * da, a)


@timed
def check_homogeneous_sdp_equivalence(dp, pts):
    """Lifted symplectic orthogonality agrees with the base verdict.

    At each lifted point (x, s): ker TΦ~1 = (ker TΦ~2)^⊥ω~, compared with
    the base 3-condition verdict at x, read from the same per-point
    residuals as verify_dual_pair.  ω~ and TΦ~_i are read in closed form
    from ϖ(x), Tφ_i(x), a_i(x) and da_i(x); all but Tφ_i(x) come from the
    spec's shared point data at x.  ker TΦ~_i is taken after scaling its
    rows to unit length, which keeps the row of a small factor a_i."""
    base = dp.point_data(pts)
    base_ok = _defining_conditions(dp)(base)
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
    mismatches = int(np.sum(lifted_ok != base_ok))
    residuals = list(zip(base.p, np.where(base_ok, worst, 0.0)))
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
