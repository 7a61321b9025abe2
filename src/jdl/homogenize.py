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

The homogenized dual-pair check reads ω~ = [[s·dθ, -θ], [θᵀ, 0]] and
TΦ~ = [[Tφ, 0], [s·da, a]] in closed form from first-order data at x; the
lift machinery (:func:`symplectize`, :func:`homogenize_map`) keeps its own
checks and is the tests' oracle for both.

R^× is modeled as the punctured fiber coordinate s, sampled in
[-2, -0.5] ∪ [0.5, 2] so both components are exercised.
"""
from __future__ import annotations

import itertools

import numpy as np

from .calculus import KForm, exterior_d_form, schouten
from .chart import Chart, SmoothMap, sample_points, tangent_map
from .contact import contact_to_jacobi
from .dualpair import _defining_conditions
from .errors import OracleMismatch
from .fields import as_field, compose, constant, coordinate
from .jacobi import JacobiPair, bracket_field, default_test_functions
from .linalg import BilinearForm, full_space, kernel, orth_complement_wrt, subspace_equal
from .report import FAIL, residual_report, timed

S_SLICES = (1.0, 2.0, -1.0)


def slit_chart(chart, name=None):
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

    return Chart(name or f"{chart.name}_slit", chart.dim + 1, box, excl)


def _lift_field(f, n):
    """f on the base, viewed on the slit chart (ignores s)."""
    f = as_field(n, f)
    base_slots = [coordinate(n + 1, i) for i in range(n)]
    return compose(f, base_slots, source_dim=n + 1)


def poissonize(J, pts=None, tol=1e-9):
    """The pair (P, 0), P = s⁻¹Π + ∂s∧E, on the slit chart, certified
    against its oracle.

    Raises OracleMismatch if {s·f∘π, s·g∘π}_P deviates from s·({f,g}_J∘π)
    on coordinate test functions at the sample points.
    """
    n = J.chart.dim
    big = slit_chart(J.chart)
    comps = {}
    s_field = coordinate(n + 1, n)
    for (i, j), f in J.Pi.comps.items():
        comps[(i, j)] = _lift_field(f, n) / s_field
    for i in range(n):
        comps[(i, n)] = -_lift_field(J.E.comps[i], n)   # (∂s∧E)^{i,s} = -E^i
    P = JacobiPair(big, comps, [constant(n + 1, 0.0)] * (n + 1))
    if pts is None:
        pts = sample_points(big, 5, seed=61)
    rep = check_poissonization_oracle(P, J, pts, tol)
    if not rep.passed:
        raise OracleMismatch(
            f"poissonization closed form fails its oracle: {rep.max_residual:.2e}")
    return P


@timed
def check_poissonization_oracle(P, J, pts, tol=1e-9, test_fns=None):
    """{s·f∘π, s·g∘π}_P = s·({f,g}_J ∘ π) on test-function pairs."""
    n = J.chart.dim
    s_field = coordinate(n + 1, n)
    if test_fns is None:
        test_fns = default_test_functions(J.chart)
    fields = []
    for f, g in itertools.combinations_with_replacement(test_fns, 2):
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
        "{s f.pi, s g.pi}_P = s ({f,g}.pi)", residuals, tol)


@timed
def check_homogeneity(P, pts, ts=(2.0, 1.0 / 3.0, -1.0), tol=1e-9):
    """h_t-pullback scaling: the lifted bivector scales as t^{-1}.

    Componentwise: P^{ij}(x, ts) = t^{-1} P^{ij}(x, s) for base indices and
    P^{is}(x, ts) = P^{is}(x, s) (one ∂s leg absorbs a factor t).
    """
    n = P.chart.dim - 1
    residuals = []
    for p in pts:
        r = 0.0
        M = P.pi_matrix(p)
        for t in ts:
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
        residuals, tol)


def dehomogenize(P, base_chart):
    """Read (Π, E) back from P at the s = 1 slice."""
    n = base_chart.dim

    def at_slice(field):
        slots = [coordinate(n, i) for i in range(n)] + [constant(n, 1.0)]
        return compose(field, slots)

    pi_comps = {}
    e_comps = [constant(n, 0.0)] * n
    for (i, j), f in P.Pi.comps.items():
        if j < n:
            pi_comps[(i, j)] = at_slice(f)
        else:
            e_comps[i] = at_slice(-f)   # P^{i,s} = -E^i
    return JacobiPair(base_chart, pi_comps, e_comps)


def symplectize(C):
    """ω~ = d(s·π*θ) = ds∧π*θ + s·π*dθ on the slit chart."""
    n = C.chart.dim
    big = slit_chart(C.chart)
    s_field = coordinate(n + 1, n)
    comps = {}
    for (i, j), f in C.dtheta.comps.items():
        comps[(i, j)] = s_field * _lift_field(f, n)
    for (i,), th in C.theta.comps.items():
        comps[(i, n)] = -_lift_field(th, n)   # ds∧θ has ω~(e_i, e_s) = -θ_i
    return KForm(big, 2, comps), big


@timed
def check_symplectization(C, pts, tol=1e-9):
    """dω~ = 0, nondegeneracy, and h_t-homogeneity of ω~ (degree +1)."""
    omega, big = symplectize(C)
    d_omega = exterior_d_form(omega)
    residuals = []
    for p in pts:
        r = max((abs(f.value(p)) for f in d_omega.comps.values()),
                default=0.0)
        M = omega.dense(p)
        if abs(np.linalg.det(M)) < tol:
            r = max(r, 1.0)
        for t in (2.0, -1.0):
            q = np.array(p, dtype=float)
            q[-1] *= t
            Mq = omega.dense(q)
            n = C.chart.dim
            for i in range(n):
                for j in range(n):
                    r = max(r, abs(Mq[i, j] - t * M[i, j]))
                # mixed entries ω~(e_i, e_s) pick up no factor
                r = max(r, abs(Mq[i, n] - M[i, n]))
        residuals.append((p, r))
    return residual_report(
        "symplectization",
        "d omega~ = 0; omega~ nondegenerate; h_t* omega~ = t omega~",
        residuals, tol)


@timed
def check_symplectization_consistency(C, pts, tol=1e-8):
    """Invert ω~ pointwise and compare with the Poissonization of the
    induced Jacobi pair: the two routes must agree componentwise."""
    omega, big = symplectize(C)
    P = poissonize(contact_to_jacobi(C))
    residuals = []
    for p in pts:
        P_from_omega = -np.linalg.inv(omega.dense(p))
        r = float(np.abs(P_from_omega - P.pi_matrix(p)).max())
        residuals.append((p, r))
    return residual_report(
        "symplectization_consistency",
        "-(omega~)^{-1} equals the lifted bivector of the induced pair",
        residuals, tol)


def homogenize_map(Phi):
    """Lift (φ, a) to the slit charts: (x, s) ↦ (φ(x), a(x)·s)."""
    n = Phi.map.source.dim
    comps = [_lift_field(c, n) for c in Phi.map.components]
    comps.append(_lift_field(Phi.factor, n) * coordinate(n + 1, n))
    return SmoothMap(slit_chart(Phi.map.source), slit_chart(Phi.map.target),
                     comps)


@timed
def check_equivariance(Phi, pts, ts=(2.0, -1.0, 0.5), tol=1e-10):
    """Φ~ ∘ h_t = h_t ∘ Φ~ at sample points."""
    lifted = homogenize_map(Phi)
    residuals = []
    for p in pts:
        r = 0.0
        out = lifted(p)
        for t in ts:
            q = np.array(p, dtype=float)
            q[-1] *= t
            scaled = lifted(q)
            expect = np.array(out, dtype=float)
            expect[-1] *= t
            r = max(r, float(np.abs(scaled - expect).max()))
        residuals.append((p, r))
    return residual_report("lift_equivariance",
                           "lifted map commutes with the fiber scaling",
                           residuals, tol)


@timed
def check_lifted_poisson_map(Phi, J_source, J_target, pts, tol=1e-8):
    """A Jacobi morphism lifts to a Poisson map of the Poissonizations."""
    P1 = poissonize(J_source)
    P2 = poissonize(J_target)
    lifted = homogenize_map(Phi)
    m = J_target.chart.dim
    tests = [coordinate(m + 1, i) for i in range(m + 1)]
    tests.append(coordinate(m + 1, m) * coordinate(m + 1, 0) if m else
                 coordinate(m + 1, m))
    fields = []
    for F, G in itertools.combinations(tests, 2):
        pullF = compose(F, lifted.components)
        pullG = compose(G, lifted.components)
        lhs = bracket_field(P1, pullF, pullG)
        rhs = compose(bracket_field(P2, F, G), lifted.components)
        fields.append(lhs - rhs)
    residuals = [(p, max(abs(f.value(p)) for f in fields)) for p in pts]
    return residual_report(
        "lifted_poisson_map",
        "pullback along the lifted map intertwines the lifted brackets",
        residuals, tol)


def _lifted_form(varpi, s):
    """ω~ at (x, s) from ϖ(x) in closed form: [[s·dθ, -θ], [θᵀ, 0]]."""
    out = varpi.copy()
    out[:-1, :-1] *= s
    return out


def _lifted_tangent(T, a, da, s):
    """TΦ~ at (x, s) from Tφ(x), a(x) and da(x) in closed form:
    [[Tφ, 0], [s·da, a]]."""
    return np.block([[T, np.zeros((len(T), 1))], [s * da, a]])


@timed
def check_homogeneous_sdp_equivalence(dp, pts, s_slices=S_SLICES,
                                      angle_tol=1e-7):
    """Lifted symplectic orthogonality agrees with the base verdict.

    At each lifted point (x, s): ker TΦ~1 = (ker TΦ~2)^⊥ω~, compared with
    the base 3-condition verdict at x, read from the same per-point
    residuals as verify_dual_pair.  ω~ and TΦ~_i are read in closed form
    from ϖ(x), Tφ_i(x), a_i(x) and da_i(x); all but Tφ_i(x) come from the
    spec's shared point data at x.
    """
    ambient = full_space(dp.source.chart.dim + 1)
    residuals = []
    mismatches = 0
    holds = _defining_conditions(dp, angle_tol=angle_tol)
    for base in dp.point_data(pts):
        base_ok = holds(base)
        Ts = [tangent_map(Phi.map, base.p) for _, Phi in dp.legs()]
        worst = 0.0
        lifted_ok = True
        for s in s_slices:
            K1, K2 = (kernel(_lifted_tangent(T, leg.a, leg.da, s))
                      for T, leg in zip(Ts, base.legs))
            W = BilinearForm(_lifted_form(base.varpi, s))
            same, ang = subspace_equal(
                K1, orth_complement_wrt(W, K2, ambient), angle_tol)
            lifted_ok = lifted_ok and same
            worst = max(worst, ang if same else np.pi / 2)
        if lifted_ok != base_ok:
            mismatches += 1
        residuals.append((base.p, worst if base_ok else 0.0))
    rep = residual_report(
        "homogeneous_sdp_equivalence",
        "ker T Phi~1 = (ker T Phi~2)^perp-omega~ at lifted points iff the "
        "base spec is a dual pair", residuals, angle_tol)
    if mismatches:
        rep.status = FAIL
        rep.notes = f"{mismatches} points with upstairs/downstairs mismatch"
    return rep


@timed
def check_schouten_square(P, pts, tol=1e-9):
    """[[P,P]] = 0 for the lifted bivector (it is Poisson)."""
    residuals = []
    for p in pts:
        out = schouten(P.Pi, P.Pi, p)
        r = max((abs(v) for v in out.values()), default=0.0)
        residuals.append((p, r))
    return residual_report("lifted_poisson", "[[P,P]] = 0 on the slit chart",
                           residuals, tol)
