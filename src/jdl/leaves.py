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

The leaf relations of the correspondence theorem (ι*θ = Σ a_i·φ_i|*θ_i on
odd leaves, and the l.c.s. one with its 1-form η on even leaves) are not
checked; an exact check needs η as a jet, so that dη is exact too.
"""
from __future__ import annotations

import numpy as np

from .atiyah import dphi_from
from .chart import tangent_map
from .errors import StepOutOfDomain
from .fields import as_field
from .jacobi import jacobi_bidiff_matrix
from .linalg import ANGLE_TOL, image, preimage, subspace_equal, sum_spaces
from .report import residual_report, timed

RANK_EVERY = 100
SWITCH_EVERY = 200


def characteristic_vectors(J, p):
    """X_1(p), X_{x_0}(p), …, X_{x_{n-1}}(p) as the columns of an (n, n+1)
    matrix: X_1 = E and X_{x_i} = Π[i, :] + p_i E, where Π[i, :] is row i
    of ``J.pi_matrix(p)``."""
    p = np.asarray(p, dtype=float)
    E = J.E.at(p)
    return np.column_stack([E, J.pi_matrix(p).T + np.outer(E, p)])


def characteristic_subspace(J, p):
    """span{X_f(p) : f in {1, coordinates}} as a Subspace."""
    return image(characteristic_vectors(J, p))


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


def _rk4_step(vf, p, dt):
    k1 = vf(p)
    k2 = vf(p + 0.5 * dt * k1)
    k3 = vf(p + 0.5 * dt * k2)
    k4 = vf(p + dt * k3)
    return p + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def leaf_trace(J, p0, n_steps=1000, dt=1e-3, seed=0, casimirs=None):
    """Integrate randomized Hamiltonian frame flows from p0.

    Records rank of the characteristic subspace along the trace (every
    RANK_EVERY steps and at the end), a half-step Richardson error
    estimate, and drift of any supplied casimir functions.  The random
    combination of the frame fields is redrawn every SWITCH_EVERY steps.
    Aborts (flagged, not raised) on chart-box exit.
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
        if step % SWITCH_EVERY == 0:
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
        if step % RANK_EVERY == 0:
            ranks.append(characteristic_subspace(J, p).dim)
            rank_steps.append(step)
        for c, v0 in zip(casimirs, c0):
            casimir_drift = max(casimir_drift, abs(c.value(p) - v0))
    ranks.append(characteristic_subspace(J, points[-1]).dim)
    rank_steps.append(len(points) - 1)
    return LeafProbe(points, ranks, rank_steps, drift_estimate,
                     casimir_drift, aborted)


@timed
def check_pullback_distribution(dp, pts):
    """Two subspace identities at every point:

    derivation level:  (DΦ_i)⁻¹(im J_i♯) = ker DΦ_i + (ker DΦ_i)^⊥ϖ,
    tangent level:     ker Tφ1 + ker Tφ2 = (Tφ_i)⁻¹(C_i) for i = 1, 2.

    Each leg's a_i, da_i, ker Tφ_i, ker DΦ_i, (ker DΦ_i)^⊥ϖ and q = φ_i(p)
    come from the spec's shared point data; Tφ_i is read once per point,
    and DΦ_i follows in closed form.  J_i♯ = Mᵀ is read at q, and
    C_i = σ(im J_i♯) is the image of its first n rows.  Each identity is
    read over the stacked point set.
    """
    s = dp.point_data(pts)
    D = sum_spaces(*(leg.K for leg in s.legs))
    r = np.zeros(len(s.p))
    for (J, Phi), leg in zip(dp.legs(), s.legs):
        T = np.stack([tangent_map(Phi.map, p) for p in s.p])
        sharp = np.stack([jacobi_bidiff_matrix(J, x)
                          for x in leg.q]).swapaxes(-1, -2)   # J♯ = Mᵀ
        # derivation level
        lhs = preimage(dphi_from(T, leg.a, leg.da), image(sharp))
        r = np.maximum(r, subspace_equal(
            lhs, sum_spaces(leg.ker_D, leg.D_perp))[1])
        # tangent level
        r = np.maximum(r, subspace_equal(
            preimage(T, image(sharp[..., :-1, :])), D)[1])
    return residual_report(
        "pullback_distribution",
        "(D Phi_i)^{-1}(im J_i-sharp) = ker D Phi_i + (ker D Phi_i)^perp-"
        "varpi; ker T phi_1 + ker T phi_2 = (T phi_i)^{-1}(C_i)",
        list(zip(s.p, r)), ANGLE_TOL)


@timed
def verify_leaf_correspondence(dp, seeds):
    """Per seed: target leaf codimensions agree and parities match.

    Leaf dimensions downstairs are the ranks of the characteristic
    subspaces at the image points; the preimage leaf upstairs is the
    integral leaf of ker Tφ1 + ker Tφ2 through the seed.
    """
    rows = []
    for p in seeds:
        q1 = dp.Phi1.map(p)
        q2 = dp.Phi2.map(p)
        d1 = characteristic_subspace(dp.J1, q1).dim
        d2 = characteristic_subspace(dp.J2, q2).dim
        codim1 = dp.J1.chart.dim - d1
        codim2 = dp.J2.chart.dim - d2
        good = codim1 == codim2 and d1 % 2 == d2 % 2
        rows.append((p, 0.0 if good else 1.0))
    return residual_report(
        "leaf_correspondence",
        "corresponding leaves have equal codimension and equal parity",
        rows, 0.5)
