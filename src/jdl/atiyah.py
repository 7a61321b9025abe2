"""The trivial-bundle gauge algebroid: derivations TM ⊕ R, jets, the
symplectic Atiyah form and the first-order maps of a conformal leg.

On a trivialized line bundle a derivation at p is a pair (X, g) acting on
functions by f ↦ X(f) + g·f; the identity derivation is 1 = (0, 1) and the
symbol is σ(X, g) = X.  A jet is (α, c) with pairing
⟨(X,g), (α,c)⟩ = α(X) + g·c, so j¹f at p is (df(p), f(p)).

Coordinates are fixed as (X-components..., g) with 1 the last basis vector,
and jets as (α-components..., c).

The Atiyah forms of the trivial bundle M × R are the homogeneous forms on
M × R^× (Bruce, Grabowska & Grabowski, SIGMA 13 (2017) 059): (X, g) is
the vector field X + g·s∂s, d_D is d and ι_1 is ι_{s∂s}.  So the Atiyah
form ϖ = d_D(θ∘σ) is the symplectization ω~ = d(s·π*θ), and
:func:`~jdl.contact.varpi_matrix` is ω~ at s = 1 on the frame (∂_i, s∂s).
The der-complex identities have one home: d_D ϖ = 0 and the contracting
homotopy are checked by :func:`jdl.homogenize.check_symplectization` on ω~,
which it reads with its 1-jet from ϖ's in closed form, and ι_1 ϖ = θ∘σ by
:func:`check_one_perp_is_horizontal`.

Both global signs of ϖ occur in the literature; every check here is
invariant under the global sign, and the sharp-inverse check pins the slot
pairing that makes ϖ♭ ∘ J♯ the identity (ϖ♭(δ) = ϖ(·, δ)).

The first-order objects are closed forms in T = Tφ(p), a = a(p) and
da = da(p), shared with the dual-pair point data and the leaf checks:
DΦ = [[T, 0], [da/a, 1]] (:func:`dphi_from`), ker DΦ (:func:`ker_DPhi_from`),
the pullback jets j¹(Φ*λ) by the chain rule (:func:`pullback_jets`), and
Δ_f = J♯ j¹f with J♯ = Mᵀ for the bi-DO matrix M.  Their defining oracles,
the bracket trees and the action (DΦ δ)(μ) = Φ_x(δ(Φ*μ)), are tests.
"""
from __future__ import annotations

import numpy as np

from .chart import tangent_map
from .contact import sharp_inverse_residual, varpi_matrix
from .jacobi import default_test_functions, jacobi_bidiff_matrix
from .linalg import (ANGLE_TOL, annihilator, image, kernel, span_of,
                     subspace_equal)
from .report import require_points, residual_report, timed


@timed
def check_sharp_inverse(C, J, pts):
    """Max-entry residual of ϖ♭ ∘ J♯ - id on jet coordinates."""
    residuals = [(p, sharp_inverse_residual(C, J, p)) for p in pts]
    return residual_report(
        "sharp_inverse", "varpi_flat . J_sharp = id on jet coordinates",
        residuals, 1e-9)


def dphi_from(T, a, da):
    """DΦ = [[Tφ, 0], [da/a, 1]] in derivation coordinates (X-block, g-slot),
    from T = Tφ(p), a = a(p) and da = da(p), or from stacks of them."""
    return _bordered(T, da / np.asarray(a)[..., None], 1.0)


def _bordered(T, row, corner):
    """[[T, 0], [row, corner]] over any leading axes."""
    m, n = T.shape[-2:]
    out = np.zeros(T.shape[:-2] + (m + 1, n + 1))
    out[..., :m, :n] = T
    out[..., m, :n] = row
    out[..., m, n] = corner
    return out


def ker_DPhi_from(K, a, da):
    """ker DΦ = {(X, -X(a)/a) : X ∈ K} at each point, from the lists K of
    ker Tφ, a and da.  The SVD kernel of DΦ is its oracle only on
    well-scaled legs: its relative rank drops a tiny Tφ next to the g-row."""
    return image([np.vstack([k.basis, -(d @ k.basis) / x])
                  for k, x, d in zip(K, a, da)])


def pullback_jets(T, a, da, frames, q):
    """Rows j¹(Φ*λ)(p) = (da·λ(q) + a·Tφᵀ∇λ(q), a·λ(q)) over the sections
    λ in ``frames``, by the chain rule from T = Tφ(p) and q = φ(p)."""
    return np.array([np.append(j.value * da + a * (j.grad @ T), a * j.value)
                     for j in (f(q, 1) for f in frames)])


def leg_data(Phi, frames, pts, T):
    """A leg's a (raising ZeroConformalFactor where it vanishes), da, ker Tφ,
    ker DΦ, pullback jets of ``frames`` and image points q = φ(p) at
    ``pts``, from the stack T of Tφ."""
    a, da = (np.array(x) for x in zip(*(_factor_jet(Phi, p) for p in pts)))
    K = kernel(T)
    q = np.array([Phi.map(p) for p in pts])
    jets = np.stack([pullback_jets(t, x, d, frames, y)
                     for t, x, d, y in zip(T, a, da, q)])
    return a, da, K, ker_DPhi_from(K, a, da), jets, q


def _factor_jet(Phi, p):
    """a(p), guarded against a vanishing factor, and da(p)."""
    return Phi.factor_value(p), Phi.factor(p, 1).grad


def one_perp_varpi(C, p):
    """⟨1⟩^⊥ϖ at p; equals σ⁻¹(H) = {(X,g): θ(X) = 0}."""
    W = varpi_matrix(C, p)
    one = np.zeros(C.chart.dim + 1)
    one[-1] = 1.0
    return kernel((W @ one).reshape(1, -1))


@timed
def check_one_perp_is_horizontal(C, pts):
    """Subspace equality ⟨1⟩^⊥ϖ = σ⁻¹(H) at each point."""
    residuals = []
    for p in pts:
        lhs = one_perp_varpi(C, p)
        th = np.append(C.theta.dense(p), 0.0)
        rhs = kernel(th.reshape(1, -1))
        residuals.append((p, subspace_equal(lhs, rhs)[1]))
    return residual_report(
        "one_perp_horizontal", "<1>^perp-varpi = sigma^{-1}(H)",
        residuals, ANGLE_TOL)


@timed
def check_technical_lemma(Phi, J, pts):
    """(ker DΦ)° = span{j¹(Φ*λ)} and (ker DΦ)^⊥ϖ = span{Δ_{Φ*λ}} over the
    target test sections λ, from Tφ, a and da stacked over the points.

    The second equality is computed as (ker DΦ)^⊥ϖ = J♯((ker DΦ)°), which
    is sign-robust.  Both spans are normalized, so their ranks do not
    depend on the scale of the target coordinates.
    """
    require_points(pts, "technical_lemma")
    frames = default_test_functions(Phi.map.target)
    n = Phi.map.source.dim
    T = np.stack([tangent_map(Phi.map, p) for p in pts])
    _, _, _, ker_D, jets, _ = leg_data(Phi, frames, pts, T)
    ann = annihilator(ker_D)
    ang1 = subspace_equal(
        ann, span_of(jets, ambient=n + 1, normalize=True))[1]
    M = np.stack([jacobi_bidiff_matrix(J, p) for p in pts])   # J♯ = Mᵀ
    ham_span = span_of(jets @ M, ambient=n + 1, normalize=True)
    ang2 = subspace_equal(image([m.T @ u.basis for m, u in zip(M, ann)]),
                          ham_span)[1]
    return residual_report(
        "technical_lemma",
        "(ker DPhi)ann = span j1(pullbacks); (ker DPhi)^perp-varpi = span "
        "of hamiltonian derivations of pullbacks",
        list(zip(pts, np.maximum(ang1, ang2))), ANGLE_TOL)
