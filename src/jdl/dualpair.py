"""The contact-dual-pair verifier.

A dual-pair candidate is a contact source together with two conformal
Jacobi-morphism legs onto Jacobi-pair targets.  The three defining
conditions are checked pointwise:

1. transversality:  H + ker Tφ_i = TM for i = 1, 2,
2. commutation:     {Φ1* λ1, Φ2* λ2} = 0 for all pullback sections,
3. orthogonality:   (H ∩ ker Tφ1)^⊥c = H ∩ ker Tφ2 w.r.t. the curvature c,

together with the equivalent single condition on the gauge algebroid,
(ker DΦ1)^⊥ϖ = ker DΦ2, whose verdict must agree with the 3-condition
verdict at every sampled point.
"""
from __future__ import annotations

import numpy as np

from .atiyah import ker_DPhi, varpi_from_theta
from .chart import tangent_map
from .contact import contact_to_jacobi, curvature_form
from .fields import as_field, constant, coordinate
from .jacobi import bracket_field, check_jacobi_morphism, hamiltonian_field
from .linalg import (full_space, image, intersect, kernel, orth_complement_wrt,
                     span_of, subspace_equal, sum_spaces)
from .report import (FAIL, HYPOTHESIS_NOT_MET, PASS, CheckReport,
                     residual_report)


def default_frames(chart):
    """Target test sections: the constant 1 and the coordinates."""
    return [constant(chart.dim, 1.0)] + \
        [coordinate(chart.dim, i) for i in range(chart.dim)]


class DualPairSpec:
    """Contact source, two (JacobiPair, ConformalMap) legs, test frames."""

    def __init__(self, source, leg1, leg2, frames1=None, frames2=None,
                 source_pair=None, name=""):
        self.source = source
        self.J1, self.Phi1 = leg1
        self.J2, self.Phi2 = leg2
        self.frames1 = frames1 if frames1 is not None \
            else default_frames(self.J1.chart)
        self.frames2 = frames2 if frames2 is not None \
            else default_frames(self.J2.chart)
        self._source_pair = source_pair
        self.name = name

    @property
    def source_pair(self):
        if self._source_pair is None:
            self._source_pair = contact_to_jacobi(self.source)
        return self._source_pair

    def legs(self):
        return ((self.J1, self.Phi1, self.frames1),
                (self.J2, self.Phi2, self.frames2))

    def pullback_fields(self, leg):
        J, Phi, frames = self.legs()[leg]
        return [Phi.pullback(lam) for lam in frames]

    def check_morphisms(self, pts, tol=1e-8):
        """Both legs must be Jacobi morphisms before dual-pair checks run."""
        reps = []
        for i, (J, Phi, frames) in enumerate(self.legs()):
            rep = check_jacobi_morphism(self.source_pair, J, Phi, pts,
                                        test_fns=frames, tol=tol)
            rep.check_id = f"morphism_leg{i + 1}"
            reps.append(rep)
        return reps

    def __repr__(self):
        return f"DualPairSpec({self.name or self.source.chart.name!r})"


def horizontal_space(C, p):
    """H = ker θ_p as a Subspace."""
    return kernel(C.theta.dense(p).reshape(1, -1))


def _missing_dimensions(dp, p):
    """max over i of dim M - dim(H_p + ker Tφ_i); 0 iff transversal at p."""
    H = horizontal_space(dp.source, p)
    n = dp.source.chart.dim
    return max(n - sum_spaces(H, kernel(tangent_map(Phi.map, p))).dim
               for _, Phi, _ in dp.legs())


def check_transversality(dp, pts):
    """rank(H_p + ker Tφ_i) = dim M at each point, i = 1, 2."""
    residuals = [(p, float(_missing_dimensions(dp, p))) for p in pts]
    return residual_report("transversality", "H + ker T phi_i = TM",
                           residuals, tolerance=0.5,
                           notes="residual counts missing dimensions")


def _commutation_fields(dp):
    P1 = dp.pullback_fields(0)
    P2 = dp.pullback_fields(1)
    J = dp.source_pair
    return [bracket_field(J, f, g) for f in P1 for g in P2]


def commutation_residual(fields, p):
    return max(abs(f.value(p)) for f in fields)


def check_commutation(dp, pts, tol=1e-8):
    """Residuals of {Φ1-pullbacks, Φ2-pullbacks}, plus the conformal-factor
    commutator {a1, a2} and the memberships X_{a1} ∈ ker Tφ2, X_{a2} ∈ ker Tφ1."""
    fields = _commutation_fields(dp)
    J = dp.source_pair
    a1, a2 = dp.Phi1.factor, dp.Phi2.factor
    a_bracket = bracket_field(J, a1, a2)
    X1 = hamiltonian_field(J, a1)
    X2 = hamiltonian_field(J, a2)
    residuals = []
    for p in pts:
        r = commutation_residual(fields, p)
        r = max(r, abs(a_bracket.value(p)))
        T2 = tangent_map(dp.Phi2.map, p)
        T1 = tangent_map(dp.Phi1.map, p)
        push1 = T2 @ X1.at(p)
        push2 = T1 @ X2.at(p)
        r = max(r, float(np.abs(push1).max()) if push1.size else 0.0)
        r = max(r, float(np.abs(push2).max()) if push2.size else 0.0)
        residuals.append((p, r))
    return residual_report(
        "commutation",
        "{a1 phi1*f, a2 phi2*g} = 0; {a1,a2} = 0; X_{a_i} in ker T phi_j",
        residuals, tol)


def _vertical_in_H(dp, p, H, leg):
    """H_i = H ∩ ker Tφ_i expressed in H-basis coordinates."""
    _, Phi, _ = dp.legs()[leg]
    K = kernel(tangent_map(Phi.map, p))
    Hi = intersect(H, K)
    return image(H.basis.T @ Hi.basis)


def curvature_orthogonality_at(dp, p, angle_tol=1e-7):
    H, c = curvature_form(dp.source, p)
    H1 = _vertical_in_H(dp, p, H, 0)
    H2 = _vertical_in_H(dp, p, H, 1)
    comp = orth_complement_wrt(c, H1, full_space(H.dim))
    return subspace_equal(comp, H2, angle_tol=angle_tol)


def check_curvature_orthogonality(dp, pts, angle_tol=1e-7):
    """(H_1)^⊥c = H_2 at each point, as a principal-angle equality."""
    residuals = []
    for p in pts:
        same, ang = curvature_orthogonality_at(dp, p, angle_tol)
        residuals.append((p, ang if same else max(ang, np.pi / 2)))
    return residual_report("curvature_orthogonality",
                           "(H cap ker T phi_1)^perp-c = H cap ker T phi_2",
                           residuals, angle_tol,
                           notes="residual is the worst principal angle")


def varpi_orthogonality_at(dp, p, angle_tol=1e-7):
    W = varpi_from_theta(dp.source, p)
    K1 = ker_DPhi(dp.Phi1, p)
    K2 = ker_DPhi(dp.Phi2, p)
    comp = orth_complement_wrt(W, K1, full_space(dp.source.chart.dim + 1))
    return subspace_equal(comp, K2, angle_tol=angle_tol)


def check_varpi_orthogonality(dp, pts, angle_tol=1e-7):
    """(ker DΦ1)^⊥ϖ = ker DΦ2 at each point."""
    residuals = []
    for p in pts:
        same, ang = varpi_orthogonality_at(dp, p, angle_tol)
        residuals.append((p, ang if same else max(ang, np.pi / 2)))
    return residual_report("varpi_orthogonality",
                           "(ker D Phi_1)^perp-varpi = ker D Phi_2",
                           residuals, angle_tol,
                           notes="residual is the worst principal angle")


def three_condition_verdicts(dp, pts, tol=1e-8, angle_tol=1e-7):
    """Per point: do transversality, commutation (residual below ``tol``)
    and curvature orthogonality all hold there?"""
    fields = _commutation_fields(dp)
    return [_missing_dimensions(dp, p) == 0
            and commutation_residual(fields, p) < tol
            and curvature_orthogonality_at(dp, p, angle_tol)[0]
            for p in pts]


def verify_dual_pair(dp, pts, tol=1e-8, angle_tol=1e-7):
    """All three defining conditions, the ϖ-orthogonality equivalent, and
    the pointwise agreement flag between the two verdicts."""
    reports = {
        "transversality": check_transversality(dp, pts),
        "commutation": check_commutation(dp, pts, tol),
        "curvature_orthogonality": check_curvature_orthogonality(
            dp, pts, angle_tol),
        "varpi_orthogonality": check_varpi_orthogonality(dp, pts, angle_tol),
    }
    verdicts = three_condition_verdicts(dp, pts, tol, angle_tol)
    mismatches = sum(v3 != varpi_orthogonality_at(dp, p, angle_tol)[0]
                     for p, v3 in zip(pts, verdicts))
    status = PASS if mismatches == 0 else FAIL
    reports["equivalence"] = CheckReport(
        "equivalence",
        "3-condition verdict equals varpi-orthogonality verdict pointwise",
        status, float(mismatches), 0.5, len(pts),
        notes="residual counts mismatching points")
    return reports


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
            _, Phi, _ = dp.legs()[leg]
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
    hyp_resid = max(abs(f.value(p)) for f in hyp_fields for p in pts)
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
