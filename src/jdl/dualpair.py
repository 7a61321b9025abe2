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

Each condition has one residual at a point, computed once per point set
by :func:`_points`, which keeps its residuals, where it holds (below the
tolerance of its report) and where conditions 1-3 all hold:
:func:`verify_dual_pair` reports those arrays, the homogenized check reads
the conjunction.

Transversality, both orthogonalities, the rank relation, the corollary
decomposition and the dimension sum are pointwise and first order: they read
the floats :func:`_points` builds from θ, Tφ_i, a_i and their first
derivatives, with X_f = (Mᵀ j¹f)[:n] for M = ϖ⁻ᵀ (Kirillov 1976; Crainic &
Salazar 2015), once per point set: every check of a job on one point set
reads the same snapshot (:meth:`DualPairSpec.point_data`).  It is stacked
over the points (ϖ and M as (N, n+1, n+1) arrays, each subspace a list of
N), and the checks read it with the stacked operations of :mod:`jdl.linalg`:
one SVD call per site per point set.  Each leg keeps (H_i)^⊥c, (ker DΦ_i)^⊥ϖ
and q = φ_i(p).  The centralizer hypothesis reads its brackets
{λ, Φ1*λ1}(p) = j¹λ · M · j¹(Φ1*λ1) from the same snapshot.  Commutation
(once per point set) and the legs' morphism check still walk bracket-field
trees: their 1-jet route waits for the benchmark to stop holding every
timed pass's import (ROADMAP items 1-2).
"""
from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np

from .atiyah import leg_data
from .chart import tangent_map
from .contact import contact_to_jacobi, curvature_form, varpi_matrix
from .fields import as_field
from .jacobi import (bracket_field, check_jacobi_morphism,
                     default_test_functions)
from .linalg import (ANGLE_TOL, BilinearForm, dims, full_space, image,
                     kernel, orth_complement_wrt, span_of, subspace_equal,
                     sum_spaces)
from .report import (FAIL, HYPOTHESIS_NOT_MET, PASS, CheckReport,
                     require_points, residual_report, timed)


class DualPairSpec:
    """Contact source and two (JacobiPair, ConformalMap) legs."""

    def __init__(self, source, leg1, leg2, name=""):
        self.source = source
        self.J1, self.Phi1 = leg1
        self.J2, self.Phi2 = leg2
        self.name = name
        self._point_data = None
        self._frames = [default_test_functions(J.chart)
                        for J, _ in self.legs()]

    @property
    def source_pair(self):
        return contact_to_jacobi(self.source)

    def legs(self):
        return (self.J1, self.Phi1), (self.J2, self.Phi2)

    def point_data(self, pts):
        """The :func:`_points` snapshot of ``pts``, built once per point set:
        the spec keeps the last set's, keyed by the bytes and shape of the
        point array, and another set replaces it.  No points raise
        SamplingExhausted."""
        require_points(pts, "dual-pair snapshot")
        pts = np.array(pts, dtype=float)
        key = (pts.tobytes(), pts.shape)
        if self._point_data is None or self._point_data[0] != key:
            pts.flags.writeable = False
            self._point_data = key, _points(self, pts)
        return self._point_data[1]

    def pullback_fields(self, leg):
        """Φ*λ over the target test sections λ of leg 0 or 1."""
        Phi = self.legs()[leg][1]
        return [Phi.pullback(lam) for lam in self._frames[leg]]

    @timed
    def check_morphisms(self, pts):
        """Both legs must be Jacobi morphisms before dual-pair checks run."""
        reps = []
        for i, (J, Phi) in enumerate(self.legs()):
            rep = check_jacobi_morphism(self.source_pair, J, Phi, pts)
            rep.check_id = f"morphism_leg{i + 1}"
            reps.append(rep)
        return reps

    def __repr__(self):
        return f"DualPairSpec({self.name or self.source.chart.name!r})"


def _frozen(**data):
    """``data`` as a namespace whose arrays, subspace bases and form
    matrices, also those in lists and dicts, are read-only."""
    for v in data.values():
        for x in v.values() if isinstance(v, dict) else \
                v if isinstance(v, list) else [v]:
            arr = getattr(x, "basis", getattr(x, "matrix", x))
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
    return SimpleNamespace(**data)


def _leg(Phi, frames, pts, H, c, W):
    """One leg's :func:`~jdl.atiyah.leg_data` from the stack T of Tφ, rank =
    n - dim K from the same SVD, H_in = H ∩ K in H coordinates, and the
    complements (H_in)^⊥c and (ker DΦ)^⊥ϖ."""
    T = np.stack([tangent_map(Phi.map, p) for p in pts])
    a, da, K, ker_D, jets, q = leg_data(Phi, frames, pts, T)
    H_in = kernel([t @ h.basis for t, h in zip(T, H)])
    return _frozen(
        a=a, da=da, K=K, rank=pts.shape[1] - dims(K), ker_D=ker_D, jets=jets,
        q=q, H_in=H_in,
        H_perp=orth_complement_wrt(c, H_in, full_space(c.ambient)),
        D_perp=orth_complement_wrt(W, ker_D, full_space(W.ambient)))


def _points(dp, pts):
    """A dual pair's first-order float data stacked over the points ``pts``,
    read-only, as every check of a point set shares it: ϖ, which holds θ
    and dθ; H = ker θ with c = -dθ|_H; M = ϖ⁻ᵀ from one solve; the legs;
    and per condition its residuals, the seconds they took and where it
    holds, with ``dual_pair`` where conditions 1-3 all hold."""
    varpi = np.stack([varpi_matrix(dp.source, p) for p in pts])
    H, c = curvature_form(varpi)
    W = BilinearForm(varpi)
    s = SimpleNamespace(
        p=pts, varpi=varpi, H=H, c=c,
        M=np.linalg.solve(varpi, np.eye(varpi.shape[-1])).swapaxes(-1, -2),
        legs=[_leg(Phi, frames, pts, H, c, W)
              for (_, Phi), frames in zip(dp.legs(), dp._frames)],
        residual={}, seconds={}, holds={})
    for check_id, (condition, tolerance, *_) in _CONDITIONS.items():
        t0 = time.perf_counter()
        r = s.residual[check_id] = condition(dp, s)
        s.seconds[check_id] = time.perf_counter() - t0
        s.holds[check_id] = r < tolerance
    s.dual_pair = np.logical_and.reduce([s.holds[k] for k in _DEFINING])
    return _frozen(**vars(s))


def _hamiltonian(s, jets):
    """Rows X_f = (Mᵀ j¹f)[:n] = Π♯df + f·E for the rows j¹f of ``jets``."""
    return (jets @ s.M)[..., :-1]


# Each condition maps the spec and a _points snapshot under construction
# (its point data built, its conditions not) to its residual at each point.

def _transversality(dp, s):
    """max over i of dim M - dim(H + ker Tφ_i) = 1 - dim K_i + dim H_i;
    0 iff transversal."""
    return np.max([1.0 - dims(leg.K) + dims(leg.H_in) for leg in s.legs],
                  axis=0)


def _commutation(dp, s):
    """max |{Φ1*λ1, Φ2*λ2}(p)| over the test sections."""
    J = dp.source_pair
    brackets = [bracket_field(J, f, g) for f in dp.pullback_fields(0)
                for g in dp.pullback_fields(1)]
    return np.array([max(abs(f.value(p)) for f in brackets) for p in s.p])


# check id -> (residual, report tolerance, identity, notes); an angle
# residual is π/2 where the dimensions of the two sides differ
_CONDITIONS = {
    "transversality": (_transversality, 0.5, "H + ker T phi_i = TM",
                       "residual counts missing dimensions"),
    "commutation": (_commutation, 1e-8,
                    "{Phi_1* f, Phi_2* g} = 0 for f, g in {1, coordinates}",
                    ""),
    "curvature_orthogonality": (
        lambda dp, s: subspace_equal(s.legs[0].H_perp, s.legs[1].H_in)[1],
        ANGLE_TOL, "(H cap ker T phi_1)^perp-c = H cap ker T phi_2",
        "residual is the worst principal angle"),
    "varpi_orthogonality": (
        lambda dp, s: subspace_equal(s.legs[0].D_perp, s.legs[1].ker_D)[1],
        ANGLE_TOL, "(ker D Phi_1)^perp-varpi = ker D Phi_2",
        "residual is the worst principal angle"),
}
_DEFINING = ("transversality", "commutation", "curvature_orthogonality")


@timed
def verify_dual_pair(dp, pts):
    """All three defining conditions, the ϖ-orthogonality equivalent, and
    the pointwise agreement flag between the two verdicts.

    Each condition's report reads the residuals of the point set's
    snapshot, and its wall time is the seconds they took there.
    """
    s = dp.point_data(pts)
    reports = {}
    for check_id, (_, tolerance, identity, notes) in _CONDITIONS.items():
        reports[check_id] = residual_report(
            check_id, identity, list(zip(s.p, s.residual[check_id])),
            tolerance, notes=notes)
        reports[check_id].wall_time = s.seconds[check_id]
    mismatches = int(np.sum(s.dual_pair != s.holds["varpi_orthogonality"]))
    status = PASS if mismatches == 0 else FAIL
    reports["equivalence"] = CheckReport(
        "equivalence",
        "3-condition verdict equals varpi-orthogonality verdict pointwise",
        status, float(mismatches), 0.5, len(pts),
        notes="residual counts mismatching points")
    return reports


@timed
def check_rank_relation(dp, pts):
    """Rank constancy, 1 + rank φ1 + rank φ2 = dim M, and the span
    identities ker Tφ1 = span{X_{Φ2-pullbacks}} (and symmetrically)."""
    n = dp.source.chart.dim
    s = dp.point_data(pts)
    r = np.where(1 + sum(leg.rank for leg in s.legs) == n, 0.0, 1.0)
    for leg, other in zip(s.legs, s.legs[::-1]):
        span = span_of(_hamiltonian(s, other.jets), n, normalize=True)
        r = np.maximum(r, subspace_equal(leg.K, span)[1])
    rep = residual_report(
        "rank_relation",
        "constant ranks; 1 + rank phi_1 + rank phi_2 = dim M; "
        "ker T phi_1 = span X over Phi_2-pullbacks (and symmetrically)",
        list(zip(s.p, r)), ANGLE_TOL)
    ranks = [sorted(set(leg.rank.tolist())) for leg in s.legs]
    if len(ranks[0]) > 1 or len(ranks[1]) > 1:
        rep.status = FAIL
        rep.notes = f"nonconstant ranks: {ranks[0]}, {ranks[1]}"
    return rep


@timed
def check_corollary_decomposition(dp, pts):
    """ker Tφ1 = <X_{a2}> ⊕ (H_2)^⊥c, and symmetrically.

    Verified as: the sum is direct (its dimension is the sum of the two),
    and it equals the kernel (dimension and principal angles).
    """
    n = dp.source.chart.dim
    s = dp.point_data(pts)
    r = np.zeros(len(s.p))
    for leg, other in zip(s.legs, s.legs[::-1]):
        comp_ambient = image([h.basis @ c.basis
                              for h, c in zip(s.H, other.H_perp)])
        j_a = np.concatenate([other.da, other.a[:, None]], axis=1)
        line = span_of(_hamiltonian(s, j_a[:, None]), ambient=n)
        total = sum_spaces(line, comp_ambient)
        direct = dims(total) == dims(line) + dims(comp_ambient)
        r = np.maximum(r, np.where(direct, subspace_equal(total, leg.K)[1],
                                   np.pi / 2))
    return residual_report(
        "corollary_decomposition",
        "ker T phi_1 = <X_{a_2}> (+) (H_2)^perp-c, and symmetrically",
        list(zip(s.p, r)), ANGLE_TOL)


@timed
def centralizer_membership(dp, lam, pts):
    """Finite membership surrogate for the section-space centralizer claim.

    Hypothesis: {λ, Φ1-pullbacks} ≡ 0 on the frame family, read as
    j¹λ · M · j¹(Φ1*λ1) from the point data (checked; if it fails the
    report says hypothesis-not-met rather than fail).  Claim verified: j¹λ
    annihilates ker DΦ2 pointwise.  This is a pointwise surrogate for λ
    being a Φ2-pullback; the full function-space centralizer statement is
    not checkable and is not claimed.
    """
    identity = ("j1(lambda) annihilates ker D Phi_2 when lambda commutes "
                "with the Phi_1-pullback frames")
    lam = as_field(dp.source.chart.dim, lam)
    hyp_resid, residuals = 0.0, []
    s = dp.point_data(pts)
    for p, M, frames, K in zip(s.p, s.M, s.legs[0].jets, s.legs[1].ker_D):
        j = lam(p, 1)
        jet = np.append(j.grad, j.value)
        hyp_resid = max(hyp_resid, float(np.abs(jet @ M @ frames.T).max()))
        residuals.append((p, float(np.abs(jet @ K.basis).max())
                          if K.dim else 0.0))
    tolerance = 1e-8
    if hyp_resid > tolerance:
        return CheckReport(
            "centralizer_membership", identity, HYPOTHESIS_NOT_MET,
            hyp_resid, tolerance, len(pts),
            notes="lambda does not commute with the Phi_1 pullback frames")
    return residual_report("centralizer_membership", identity, residuals,
                           tolerance)


@timed
def check_vertical_dim_sum(dp, pts):
    """dim H_1 + dim H_2 = dim M - 1 at every point (passing full specs)."""
    n = dp.source.chart.dim
    s = dp.point_data(pts)
    r = np.abs(sum(dims(leg.H_in) for leg in s.legs) - (n - 1.0))
    return residual_report("vertical_dim_sum",
                           "dim H_1 + dim H_2 = dim M - 1",
                           list(zip(s.p, r)), 0.5)
