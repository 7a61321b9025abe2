"""The contact-dual-pair verifier.

A dual-pair candidate is a contact source together with two conformal
Jacobi-morphism legs Φ_i = (φ_i, a_i) onto Jacobi-pair targets.  The three
defining conditions are checked pointwise:

1. transversality:  H + ker Tφ_i = TM for i = 1, 2, where H = ker θ,
2. commutation:     {Φ1* λ1, Φ2* λ2} = 0 for λ_i in the test sections
                    {1, coordinates} of the targets,
3. orthogonality:   (H ∩ ker Tφ1)^⊥c = H ∩ ker Tφ2 w.r.t. the curvature c,

together with the equivalent single condition on the gauge algebroid,
(ker DΦ1)^⊥ϖ = ker DΦ2, whose verdict must agree with the 3-condition
verdict at every sampled point.

Condition 2 already contains the relations of the conformal factors.
Since Φ_i* 1 = a_i, it includes {a1, a2} = 0; and since
{a1, a2·y∘φ2} = a2·dy(Tφ2 X_{a1}) + (y∘φ2)·{a1, a2} for every target
coordinate y, with a2 nowhere zero, it gives X_{a1} ∈ ker Tφ2, and
symmetrically X_{a2} ∈ ker Tφ1.

Each condition has one residual at a point.  Its report and both pointwise
verdicts read that residual, and the condition holds at p when the residual
is below the tolerance of its report.
"""
from __future__ import annotations

import numpy as np

from .atiyah import ker_DPhi
from .chart import tangent_map
from .contact import (contact_to_jacobi, curvature_form, horizontal_space,
                      varpi_matrix)
from .fields import as_field
from .jacobi import (bracket_field, check_jacobi_morphism,
                     default_test_functions, hamiltonian_field)
from .linalg import (BilinearForm, full_space, image, intersect, kernel,
                     orth_complement_wrt, span_of, subspace_equal, sum_spaces)
from .report import (FAIL, HYPOTHESIS_NOT_MET, PASS, CheckReport,
                     residual_report, timed)


class DualPairSpec:
    """Contact source and two (JacobiPair, ConformalMap) legs."""

    def __init__(self, source, leg1, leg2, name=""):
        self.source = source
        self.J1, self.Phi1 = leg1
        self.J2, self.Phi2 = leg2
        self.name = name
        self._source_pair = None
        self._frames = [default_test_functions(J.chart)
                        for J, _ in self.legs()]

    @property
    def source_pair(self):
        if self._source_pair is None:
            self._source_pair = contact_to_jacobi(self.source)
        return self._source_pair

    def legs(self):
        return (self.J1, self.Phi1), (self.J2, self.Phi2)

    def pullback_fields(self, leg):
        """Φ*λ over the target test sections λ of leg 0 or 1."""
        Phi = self.legs()[leg][1]
        return [Phi.pullback(lam) for lam in self._frames[leg]]

    @timed
    def check_morphisms(self, pts, tol=1e-8):
        """Both legs must be Jacobi morphisms before dual-pair checks run."""
        reps = []
        for i, (J, Phi) in enumerate(self.legs()):
            rep = check_jacobi_morphism(self.source_pair, J, Phi, pts, tol=tol)
            rep.check_id = f"morphism_leg{i + 1}"
            reps.append(rep)
        return reps

    def __repr__(self):
        return f"DualPairSpec({self.name or self.source.chart.name!r})"


# Each condition is a function of the spec that returns its residual as a
# function of the point.  Per-spec set-up, such as the bracket fields and
# their memos, is then built once per check and freed with it rather than
# kept on the spec.

def _transversality(dp):
    """p -> max over i of dim M - dim(H_p + ker Tφ_i); 0 iff transversal."""
    n = dp.source.chart.dim

    def residual(p):
        H = horizontal_space(dp.source, p)
        return float(max(n - sum_spaces(H, kernel(tangent_map(Phi.map, p))).dim
                         for _, Phi in dp.legs()))
    return residual


def _commutation(dp):
    """p -> max |{Φ1*λ1, Φ2*λ2}(p)| over the test sections."""
    J = dp.source_pair
    brackets = [bracket_field(J, f, g) for f in dp.pullback_fields(0)
                for g in dp.pullback_fields(1)]
    return lambda p: max(abs(f.value(p)) for f in brackets)


def _vertical_in_H(dp, p, H, leg):
    """H_i = H ∩ ker Tφ_i expressed in H-basis coordinates."""
    _, Phi = dp.legs()[leg]
    K = kernel(tangent_map(Phi.map, p))
    Hi = intersect(H, K)
    return image(H.basis.T @ Hi.basis)


def _curvature_orthogonality(dp):
    """p -> worst principal angle between (H_1)^⊥c and H_2 (π/2 if their
    dimensions differ)."""
    def residual(p):
        H, c = curvature_form(dp.source, p)
        H1 = _vertical_in_H(dp, p, H, 0)
        H2 = _vertical_in_H(dp, p, H, 1)
        comp = orth_complement_wrt(c, H1, full_space(H.dim))
        return subspace_equal(comp, H2)[1]
    return residual


def _varpi_orthogonality(dp):
    """p -> worst principal angle between (ker DΦ1)^⊥ϖ and ker DΦ2 (π/2 if
    their dimensions differ)."""
    ambient = full_space(dp.source.chart.dim + 1)

    def residual(p):
        W = BilinearForm(varpi_matrix(dp.source, p))
        comp = orth_complement_wrt(W, ker_DPhi(dp.Phi1, p), ambient)
        return subspace_equal(comp, ker_DPhi(dp.Phi2, p))[1]
    return residual


# check id -> (residual of a spec, identity, notes)
_CONDITIONS = {
    "transversality": (_transversality, "H + ker T phi_i = TM",
                       "residual counts missing dimensions"),
    "commutation": (_commutation,
                    "{Phi_1* f, Phi_2* g} = 0 for f, g in {1, coordinates}",
                    ""),
    "curvature_orthogonality": (
        _curvature_orthogonality,
        "(H cap ker T phi_1)^perp-c = H cap ker T phi_2",
        "residual is the worst principal angle"),
    "varpi_orthogonality": (_varpi_orthogonality,
                            "(ker D Phi_1)^perp-varpi = ker D Phi_2",
                            "residual is the worst principal angle"),
}
_DEFINING = ("transversality", "commutation", "curvature_orthogonality")


def _tolerances(tol, angle_tol):
    """Report tolerance per condition: missing dimensions are counted,
    brackets compared with ``tol`` and angles with ``angle_tol``."""
    return {"transversality": 0.5, "commutation": tol,
            "curvature_orthogonality": angle_tol,
            "varpi_orthogonality": angle_tol}


@timed
def _evaluate(check_id, dp, pts, tolerance):
    """The condition's report, and whether it holds, point by point."""
    residual_of, identity, notes = _CONDITIONS[check_id]
    residual = residual_of(dp)
    residuals = [(p, residual(p)) for p in pts]
    rep = residual_report(check_id, identity, residuals, tolerance,
                          notes=notes)
    return rep, [r < tolerance for _, r in residuals]


def _check(check_id, dp, pts, tol=1e-8, angle_tol=1e-7):
    return _evaluate(check_id, dp, pts,
                     _tolerances(tol, angle_tol)[check_id])[0]


def _defining_conditions_hold(dp, pts, tol=1e-8, angle_tol=1e-7):
    """Per point: do conditions 1-3 all hold there?"""
    tolerances = _tolerances(tol, angle_tol)
    tests = [(_CONDITIONS[c][0](dp), tolerances[c]) for c in _DEFINING]
    return [all(residual(p) < t for residual, t in tests) for p in pts]


@timed
def check_transversality(dp, pts):
    """rank(H_p + ker Tφ_i) = dim M at each point, i = 1, 2."""
    return _check("transversality", dp, pts)


@timed
def check_commutation(dp, pts, tol=1e-8):
    """{Φ1*λ1, Φ2*λ2} = 0 at each point, over the test sections."""
    return _check("commutation", dp, pts, tol=tol)


@timed
def check_curvature_orthogonality(dp, pts, angle_tol=1e-7):
    """(H_1)^⊥c = H_2 at each point, as a principal-angle equality."""
    return _check("curvature_orthogonality", dp, pts, angle_tol=angle_tol)


@timed
def check_varpi_orthogonality(dp, pts, angle_tol=1e-7):
    """(ker DΦ1)^⊥ϖ = ker DΦ2 at each point."""
    return _check("varpi_orthogonality", dp, pts, angle_tol=angle_tol)


@timed
def verify_dual_pair(dp, pts, tol=1e-8, angle_tol=1e-7):
    """All three defining conditions, the ϖ-orthogonality equivalent, and
    the pointwise agreement flag between the two verdicts.

    Each condition is evaluated once per point; its report and the
    verdicts read the same residuals.
    """
    reports, holds = {}, {}
    for check_id, tolerance in _tolerances(tol, angle_tol).items():
        reports[check_id], holds[check_id] = _evaluate(check_id, dp, pts,
                                                       tolerance)
    three = [all(v) for v in zip(*(holds[c] for c in _DEFINING))]
    mismatches = sum(v3 != v for v3, v in
                     zip(three, holds["varpi_orthogonality"]))
    status = PASS if mismatches == 0 else FAIL
    reports["equivalence"] = CheckReport(
        "equivalence",
        "3-condition verdict equals varpi-orthogonality verdict pointwise",
        status, float(mismatches), 0.5, len(pts),
        notes="residual counts mismatching points")
    return reports


@timed
def check_rank_relation(dp, pts, angle_tol=1e-7):
    """Rank constancy, 1 + rank φ1 + rank φ2 = dim M, and the span
    identities ker Tφ1 = span{X_{Φ2-pullbacks}} (and symmetrically)."""
    n = dp.source.chart.dim
    J = dp.source_pair
    ham2 = [hamiltonian_field(J, f) for f in dp.pullback_fields(1)]
    ham1 = [hamiltonian_field(J, f) for f in dp.pullback_fields(0)]
    ranks = [set(), set()]
    residuals = []
    for p in pts:
        r = 0.0
        T1 = tangent_map(dp.Phi1.map, p)
        T2 = tangent_map(dp.Phi2.map, p)
        rk1 = np.linalg.matrix_rank(T1, tol=1e-9)
        rk2 = np.linalg.matrix_rank(T2, tol=1e-9)
        ranks[0].add(int(rk1))
        ranks[1].add(int(rk2))
        if 1 + rk1 + rk2 != n:
            r = max(r, 1.0)
        K1 = kernel(T1)
        K2 = kernel(T2)
        span2 = span_of([h.at(p) for h in ham2], ambient=n)
        span1 = span_of([h.at(p) for h in ham1], ambient=n)
        same_a, ang_a = subspace_equal(K1, span2, angle_tol)
        same_b, ang_b = subspace_equal(K2, span1, angle_tol)
        if not (same_a and same_b):
            r = max(r, np.pi / 2)
        r = max(r, ang_a, ang_b)
        residuals.append((p, r))
    rep = residual_report(
        "rank_relation",
        "constant ranks; 1 + rank phi_1 + rank phi_2 = dim M; "
        "ker T phi_1 = span X over Phi_2-pullbacks (and symmetrically)",
        residuals, angle_tol)
    if len(ranks[0]) > 1 or len(ranks[1]) > 1:
        rep.status = FAIL
        rep.notes = f"nonconstant ranks: {sorted(ranks[0])}, {sorted(ranks[1])}"
    return rep


@timed
def check_corollary_decomposition(dp, pts, angle_tol=1e-7):
    """ker Tφ1 = <X_{a2}> ⊕ (H_2)^⊥c, and symmetrically.

    Verified as: the two summands intersect trivially, and their sum
    equals the kernel (dimension and principal angles).
    """
    J = dp.source_pair
    n = dp.source.chart.dim
    X = [hamiltonian_field(J, dp.Phi1.factor),
         hamiltonian_field(J, dp.Phi2.factor)]
    residuals = []
    for p in pts:
        H, c = curvature_form(dp.source, p)
        r = 0.0
        for leg in (0, 1):
            other = 1 - leg
            _, Phi = dp.legs()[leg]
            K = kernel(tangent_map(Phi.map, p))
            Hother = _vertical_in_H(dp, p, H, other)
            comp_in_H = orth_complement_wrt(c, Hother, full_space(H.dim))
            comp_ambient = image(H.basis @ comp_in_H.basis)
            line = span_of([X[other].at(p)], ambient=n)
            if intersect(line, comp_ambient).dim != 0:
                r = max(r, np.pi / 2)
            total = sum_spaces(line, comp_ambient)
            if total.dim != line.dim + comp_ambient.dim:
                r = max(r, np.pi / 2)
            same, ang = subspace_equal(total, K, angle_tol)
            r = max(r, ang if same else np.pi / 2)
        residuals.append((p, r))
    return residual_report(
        "corollary_decomposition",
        "ker T phi_1 = <X_{a_2}> (+) (H_2)^perp-c, and symmetrically",
        residuals, angle_tol)


@timed
def centralizer_membership(dp, lam, pts, tol=1e-8):
    """Finite membership surrogate for the section-space centralizer claim.

    Hypothesis: {λ, Φ1-pullbacks} ≡ 0 on the frame family (checked; if it
    fails the report says hypothesis-not-met rather than fail).  Claim
    verified: j¹λ annihilates ker DΦ2 pointwise.  This is a pointwise
    surrogate for λ being a Φ2-pullback; the full function-space
    centralizer statement is not checkable and is not claimed.
    """
    J = dp.source_pair
    lam = as_field(dp.source.chart.dim, lam)
    hyp_fields = [bracket_field(J, lam, f) for f in dp.pullback_fields(0)]
    hyp_resid = max(abs(f.value(p)) for p in pts for f in hyp_fields)
    if hyp_resid > tol:
        return CheckReport(
            "centralizer_membership",
            "j1(lambda) annihilates ker D Phi_2 when lambda commutes with "
            "the Phi_1-pullback frames",
            HYPOTHESIS_NOT_MET, float(hyp_resid), tol, len(pts),
            notes="lambda does not commute with the Phi_1 pullback frames")
    residuals = []
    for p in pts:
        j = lam(p, 1)
        coords = np.append(j.grad, j.value)
        K = ker_DPhi(dp.Phi2, p)
        r = float(np.abs(K.basis.T @ coords).max()) if K.dim else 0.0
        residuals.append((p, r))
    return residual_report(
        "centralizer_membership",
        "j1(lambda) annihilates ker D Phi_2 when lambda commutes with "
        "the Phi_1-pullback frames", residuals, tol)


@timed
def check_vertical_dim_sum(dp, pts):
    """dim H_1 + dim H_2 = dim M - 1 at every point (passing full specs)."""
    n = dp.source.chart.dim
    residuals = []
    for p in pts:
        H = horizontal_space(dp.source, p)
        d1 = _vertical_in_H(dp, p, H, 0).dim
        d2 = _vertical_in_H(dp, p, H, 1).dim
        residuals.append((p, float(abs(d1 + d2 - (n - 1)))))
    return residual_report("vertical_dim_sum",
                           "dim H_1 + dim H_2 = dim M - 1",
                           residuals, 0.5)
