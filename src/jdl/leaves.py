"""Characteristic distributions, numerical leaf tracing, the pullback
distribution identity, and leaf-correspondence checks.

The characteristic distribution of a Jacobi pair is spanned pointwise by
the Hamiltonian fields of the constant 1 and the coordinates (this family
realizes the full image of the structure map at a point).  Since
X_f = Π♯(df) + f E, that frame is read in closed form from the dense pair
at the point: X_1 = E and X_{x_i} = Π[i, :] + x_i E, with no derived field
trees.  Leaves are explored numerically by composing Hamiltonian flows
(fixed-step RK4 with a half-step Richardson drift estimate); rank constancy
along traces is the Stefan-Sussmann witness, and the dimension parity
classifies a leaf as contact (odd) or locally conformal symplectic (even).
"""
from __future__ import annotations

import csv
from bisect import bisect_right

import numpy as np

from .atiyah import dphi_matrix, ker_DPhi
from .calculus import exterior_d_form, pullback_form
from .chart import compose_maps, tangent_map
from .contact import varpi_matrix
from .errors import DimensionMismatch, InconsistentConnection, StepOutOfDomain
from .fields import as_field, compose
from .jacobi import jacobi_bidiff_matrix
from .linalg import (BilinearForm, full_space, image, kernel,
                     orth_complement_wrt, preimage, subspace_equal, sum_spaces)
from .report import residual_report, timed


def characteristic_vectors(J, p):
    """X_1(p), X_{x_0}(p), …, X_{x_{n-1}}(p) as the columns of an (n, n+1)
    matrix: X_1 = E and X_{x_i} = Π[i, :] + p_i E, where Π[i, :] is row i
    of ``J.pi_matrix(p)``."""
    p = np.asarray(p, dtype=float)
    E = J.E.at(p)
    return np.column_stack([E, J.pi_matrix(p).T + np.outer(E, p)])


def characteristic_subspace(J, p, tol=1e-9):
    """span{X_f(p) : f in {1, coordinates}} as a Subspace."""
    return image(characteristic_vectors(J, p), tol=tol)


class LeafProbe:
    """Trace of Hamiltonian flows from a seed point.

    ``ranks[k]`` is the characteristic rank at ``points[rank_steps[k]]``.
    """

    def __init__(self, points, ranks, rank_steps, drift_estimate,
                 casimir_drift, aborted):
        self.points = points
        self.ranks = ranks
        self.rank_steps = rank_steps
        self.drift_estimate = drift_estimate
        self.casimir_drift = casimir_drift
        self.aborted = aborted

    @property
    def dimension(self):
        return max(self.ranks) if self.ranks else 0

    @property
    def rank_constant(self):
        return len(set(self.ranks)) <= 1

    @property
    def parity(self):
        return "odd" if self.dimension % 2 == 1 else "even"

    def rank_at(self, step):
        """The rank last sampled at or before ``step``."""
        return self.ranks[bisect_right(self.rank_steps, step) - 1]


def _rk4_step(vf, p, dt):
    k1 = vf(p)
    k2 = vf(p + 0.5 * dt * k1)
    k3 = vf(p + 0.5 * dt * k2)
    k4 = vf(p + dt * k3)
    return p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def leaf_trace(J, p0, n_steps=1000, dt=1e-3, seed=0, casimirs=None,
               rank_every=100, switch_every=200):
    """Integrate randomized Hamiltonian frame flows from p0.

    Records rank of the characteristic subspace along the trace, a
    half-step Richardson error estimate, and drift of any supplied casimir
    functions.  Aborts (flagged, not raised) on chart-box exit.
    """
    rng = np.random.default_rng(seed)
    n = J.chart.dim
    p = np.asarray(p0, dtype=float)
    if not J.chart.in_box(p):
        raise StepOutOfDomain(f"seed {p0} outside chart box")
    casimirs = [as_field(n, c) for c in (casimirs or [])]
    c0 = [c.value(p) for c in casimirs]
    points = [p.copy()]
    ranks = [characteristic_subspace(J, p).dim]
    rank_steps = [0]
    casimir_drift = 0.0
    drift_estimate = 0.0
    aborted = False
    coeffs = rng.normal(size=n + 1)

    def vf(q):
        return characteristic_vectors(J, q) @ coeffs

    half_p = p.copy()
    for step in range(1, n_steps + 1):
        if step % switch_every == 0:
            coeffs = rng.normal(size=n + 1)
            half_p = p.copy()
        p = _rk4_step(vf, p, dt)
        half_p = _rk4_step(vf, _rk4_step(vf, half_p, dt / 2), dt / 2)
        drift_estimate = max(drift_estimate,
                             float(np.abs(p - half_p).max()) / 15.0)
        if not J.chart.in_box(p):
            aborted = True
            break
        points.append(p.copy())
        if step % rank_every == 0:
            ranks.append(characteristic_subspace(J, p).dim)
            rank_steps.append(step)
        for c, v0 in zip(casimirs, c0):
            casimir_drift = max(casimir_drift, abs(c.value(p) - v0))
    ranks.append(characteristic_subspace(J, points[-1]).dim)
    rank_steps.append(len(points) - 1)
    return LeafProbe(points, ranks, rank_steps, drift_estimate,
                     casimir_drift, aborted)


def trace_to_csv(probe, path, casimir_fields=None):
    """Columns: step, coordinates..., rank, casimir values.

    The rank of a row is the one last sampled at or before its step.
    """
    casimir_fields = casimir_fields or []
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        dim = probe.points[0].size
        header = ["step"] + [f"x{i}" for i in range(dim)] + ["rank"]
        header += [f"casimir{i}" for i in range(len(casimir_fields))]
        w.writerow(header)
        for step, p in enumerate(probe.points):
            row = [step] + [repr(float(v)) for v in p] + [probe.rank_at(step)]
            row += [repr(float(c.value(p))) for c in casimir_fields]
            w.writerow(row)


@timed
def check_pullback_distribution(dp, pts, angle_tol=1e-7):
    """Two subspace identities at every point:

    derivation level:  (DΦ_i)⁻¹(im J_i♯) = ker DΦ_i + (ker DΦ_i)^⊥ϖ,
    tangent level:     ker Tφ1 + ker Tφ2 = (Tφ_i)⁻¹(C_i) for i = 1, 2.
    """
    residuals = []
    n = dp.source.chart.dim
    for p in pts:
        r = 0.0
        K1 = kernel(tangent_map(dp.Phi1.map, p))
        K2 = kernel(tangent_map(dp.Phi2.map, p))
        D = sum_spaces(K1, K2)
        W = BilinearForm(varpi_matrix(dp.source, p))
        for J, Phi in dp.legs():
            q = Phi.map(p)
            # derivation level
            DP = dphi_matrix(Phi, p)
            im = image(jacobi_bidiff_matrix(J, q).T)   # im J♯
            lhs = preimage(DP, im)
            KD = ker_DPhi(Phi, p)
            perp = orth_complement_wrt(W, KD, full_space(n + 1))
            rhs = sum_spaces(KD, perp)
            same, ang = subspace_equal(lhs, rhs, angle_tol)
            r = max(r, ang if same else np.pi / 2)
            # tangent level
            C = characteristic_subspace(J, q)
            lhs_t = preimage(tangent_map(Phi.map, p), C)
            same, ang = subspace_equal(lhs_t, D, angle_tol)
            r = max(r, ang if same else np.pi / 2)
        residuals.append((p, r))
    return residual_report(
        "pullback_distribution",
        "(D Phi_i)^{-1}(im J_i-sharp) = ker D Phi_i + (ker D Phi_i)^perp-"
        "varpi; ker T phi_1 + ker T phi_2 = (T phi_i)^{-1}(C_i)",
        residuals, angle_tol)


@timed
def verify_leaf_correspondence(dp, seeds, expected_parities=None):
    """Per seed: target leaf codimensions agree and parities match.

    Leaf dimensions downstairs are the ranks of the characteristic
    subspaces at the image points; the preimage leaf upstairs is the
    integral leaf of ker Tφ1 + ker Tφ2 through the seed.
    """
    rows = []
    ok = True
    for p in seeds:
        q1 = dp.Phi1.map(p)
        q2 = dp.Phi2.map(p)
        d1 = characteristic_subspace(dp.J1, q1).dim
        d2 = characteristic_subspace(dp.J2, q2).dim
        codim1 = dp.J1.chart.dim - d1
        codim2 = dp.J2.chart.dim - d2
        parity_match = (d1 % 2) == (d2 % 2)
        good = (codim1 == codim2) and parity_match
        if expected_parities is not None:
            good = good and ("odd" if d1 % 2 else "even") == expected_parities
        ok = ok and good
        rows.append((p, 0.0 if good else 1.0))
    return residual_report(
        "leaf_correspondence",
        "corresponding leaves have equal codimension and equal parity",
        rows, 0.5)


def restricted_legs(dp, incl):
    """The legs composed with a leaf parametrization incl: S-chart → M."""
    phi1 = compose_maps(dp.Phi1.map, incl)
    phi2 = compose_maps(dp.Phi2.map, incl)
    a1 = compose(dp.Phi1.factor, incl.components)
    a2 = compose(dp.Phi2.factor, incl.components)
    return (phi1, a1), (phi2, a2)


@timed
def verify_leaf_relation_contact(dp, incl, theta1, theta2, pts, tol=1e-8):
    """Odd-leaf relation: ι*θ = a1·(φ1|*θ1) + a2·(φ2|*θ2) on the leaf chart.

    ``theta_i`` are the inherited contact forms on the target charts (None
    for a point target, which contributes nothing).
    """
    (phi1, a1), (phi2, a2) = restricted_legs(dp, incl)
    k = incl.source.dim
    lhs = pullback_form(incl, dp.source.theta)
    terms = []
    for (phi, a), th in (((phi1, a1), theta1), ((phi2, a2), theta2)):
        if th is None:
            continue
        if th.chart.dim % 2 == 0 and th.chart.dim > 0:
            raise DimensionMismatch("contact leaf relation needs odd targets")
        terms.append((a, pullback_form(phi, th)))
    residuals = []
    for p in pts:
        r = 0.0
        for i in range(k):
            total = lhs.coeff((i,), p)
            for a, pb in terms:
                total -= a(p, 1).value * pb.coeff((i,), p)
            r = max(r, abs(total))
        residuals.append((p, r))
    return residual_report(
        "leaf_relation_contact",
        "incl*theta = a1 (phi1|S)*theta1 + a2 (phi2|S)*theta2",
        residuals, tol)


def solve_leaf_connection(dp, incl, eta1, eta2, p, tol=1e-7):
    """The 1-form η on T_pS prescribed by the two legs.

    η = -a_i⁻¹ da_i + φ_i*η_i on ker T(φ_i∘incl); the two prescriptions
    must agree on the overlap and jointly determine η because the two
    kernels span the leaf tangent space.
    """
    (phi1, a1), (phi2, a2) = restricted_legs(dp, incl)
    k = incl.source.dim
    rows, rhs = [], []
    for (phi, a), eta in (((phi1, a1), eta1), ((phi2, a2), eta2)):
        K = kernel(tangent_map(phi, p))
        aj = a(p, 1)
        da = aj.grad / aj.value
        eta_pull = pullback_form(phi, eta) if eta is not None else None
        for idx in range(K.dim):
            v = K.basis[:, idx]
            val = -float(da @ v)
            if eta_pull is not None:
                val += sum(eta_pull.coeff((i,), p) * v[i] for i in range(k))
            rows.append(v)
            rhs.append(val)
    A = np.array(rows)
    b = np.array(rhs)
    if np.linalg.matrix_rank(A, tol=1e-9) < k:
        raise InconsistentConnection(
            f"leaf kernels do not span the leaf tangent space at {p}")
    eta, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.abs(A @ eta - b).max()) if rows else 0.0
    if resid > tol:
        raise InconsistentConnection(
            f"the two leg prescriptions disagree at {p} (residual {resid:.2e})")
    return eta, resid


@timed
def verify_leaf_relation_lcs(dp, incl, lcs1, lcs2, pts, tol=1e-7,
                             fd_step=1e-5, fd_tol=1e-6):
    """Even-leaf relation on the leaf chart:

       d(ι*θ) - (ι*θ)∧η = a1·(φ1|*ω1) + a2·(φ2|*ω2),

    with η solved pointwise from the two restriction prescriptions.  dη = 0
    is checked by central differences of the solved η (its own tolerance,
    since the pointwise solve is not jet-differentiable).
    """
    (phi1, a1), (phi2, a2) = restricted_legs(dp, incl)
    eta1 = lcs1.eta if lcs1 is not None else None
    eta2 = lcs2.eta if lcs2 is not None else None
    k = incl.source.dim
    lhs_theta = pullback_form(incl, dp.source.theta)
    d_lhs = exterior_d_form(lhs_theta)
    omega_terms = []
    for (phi, a), lcs in (((phi1, a1), lcs1), ((phi2, a2), lcs2)):
        if lcs is None:
            continue
        omega_terms.append((a, pullback_form(phi, lcs.omega)))
    residuals = []
    for p in pts:
        eta, _ = solve_leaf_connection(dp, incl, eta1, eta2, p, tol)
        # closedness of η by central differences
        r = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                ei = np.zeros(k)
                ej = np.zeros(k)
                ei[i] = fd_step
                ej[j] = fd_step
                d_eta_ij = ((solve_leaf_connection(dp, incl, eta1, eta2,
                                                   p + ei, tol)[0][j]
                             - solve_leaf_connection(dp, incl, eta1, eta2,
                                                     p - ei, tol)[0][j])
                            - (solve_leaf_connection(dp, incl, eta1, eta2,
                                                     p + ej, tol)[0][i]
                               - solve_leaf_connection(dp, incl, eta1, eta2,
                                                       p - ej, tol)[0][i])) \
                    / (2 * fd_step)
                if abs(d_eta_ij) > fd_tol:
                    r = max(r, abs(d_eta_ij))
        theta_vals = np.array([lhs_theta.coeff((i,), p) for i in range(k)])
        for i in range(k):
            for j in range(i + 1, k):
                total = d_lhs.coeff((i, j), p)
                total -= theta_vals[i] * eta[j] - theta_vals[j] * eta[i]
                for a, pb in omega_terms:
                    total -= a(p, 1).value * pb.coeff((i, j), p)
                r = max(r, abs(total))
        residuals.append((p, r))
    return residual_report(
        "leaf_relation_lcs",
        "d(incl*theta) - (incl*theta)^eta = a1 (phi1|S)*omega1 + "
        "a2 (phi2|S)*omega2, with eta solved from the leg prescriptions",
        residuals, tol)
