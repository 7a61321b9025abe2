"""The trivial-bundle gauge algebroid: derivations TM ⊕ R, jets, the
der-differential, the symplectic Atiyah form and the first-order maps of a
conformal leg.

On a trivialized line bundle a derivation at p is a pair (X, g) acting on
functions by f ↦ X(f) + g·f; the identity derivation is 1 = (0, 1) and the
symbol is σ(X, g) = X.  A jet is (α, c) with pairing
⟨(X,g), (α,c)⟩ = α(X) + g·c, so j¹f at p is (df(p), f(p)).

Coordinates are fixed as (X-components..., g) with 1 the last basis vector,
and jets as (α-components..., c).

The Atiyah 2-form of a contact form is computed from the Chevalley-Eilenberg
formula for d_D(θ∘σ) on constant frame extensions:

    ϖ((X,g),(Y,h)) = X(θ(Y)) + g θ(Y) - Y(θ(X)) - h θ(X) - θ([X,Y]).

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

import itertools

import numpy as np

from .chart import tangent_map
from .contact import sharp_inverse_residual, varpi_entry_fields, varpi_matrix
from .fields import constant
from .jacobi import default_test_functions, jacobi_bidiff_matrix
from .linalg import (ANGLE_TOL, annihilator, image, kernel, span_of,
                     subspace_equal)
from .report import residual_report, timed


@timed
def check_sharp_inverse(C, J, pts):
    """Max-entry residual of ϖ♭ ∘ J♯ - id on jet coordinates."""
    residuals = [(p, sharp_inverse_residual(C, J, p)) for p in pts]
    return residual_report(
        "sharp_inverse", "varpi_flat . J_sharp = id on jet coordinates",
        residuals, 1e-9)


def dphi_from(T, a, da):
    """DΦ = [[Tφ, 0], [da/a, 1]] in derivation coordinates (X-block, g-slot),
    from T = Tφ(p), a = a(p) and da = da(p)."""
    return np.vstack([np.hstack([T, np.zeros((len(T), 1))]),
                      np.append(da / a, 1.0)])


def ker_DPhi_from(K, a, da):
    """ker DΦ = {(X, -X(a)/a) : X ∈ K} as a Subspace, from K = ker Tφ(p),
    a = a(p) and da = da(p).  The SVD kernel of DΦ is its oracle only on
    well-scaled legs: its relative rank drops a tiny Tφ next to the g-row."""
    return image(np.vstack([K.basis, -(da @ K.basis) / a]))


def pullback_jets(T, a, da, frames, q):
    """Rows j¹(Φ*λ)(p) = (da·λ(q) + a·Tφᵀ∇λ(q), a·λ(q)) over the sections
    λ in ``frames``, by the chain rule from T = Tφ(p) and q = φ(p)."""
    return np.array([np.append(j.value * da + a * (j.grad @ T), a * j.value)
                     for j in (f(q, 1) for f in frames)])


def _factor_jet(Phi, p):
    """a(p), guarded against a vanishing factor, and da(p)."""
    return Phi.factor_value(p), Phi.factor(p, 1).grad


def dphi_matrix(Phi, p):
    """Matrix of DΦ at p; raises ZeroConformalFactor where a vanishes."""
    return dphi_from(tangent_map(Phi.map, p), *_factor_jet(Phi, p))


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
        same, ang = subspace_equal(lhs, rhs)
        residuals.append((p, ang if same else max(ang, np.pi / 2)))
    return residual_report(
        "one_perp_horizontal", "<1>^perp-varpi = sigma^{-1}(H)",
        residuals, ANGLE_TOL)


@timed
def check_technical_lemma(Phi, J, pts):
    """(ker DΦ)° = span{j¹(Φ*λ)} and (ker DΦ)^⊥ϖ = span{Δ_{Φ*λ}} over the
    target test sections λ, from Tφ, a and da read once per point.

    The second equality is computed as (ker DΦ)^⊥ϖ = J♯((ker DΦ)°), which
    is sign-robust.  Both spans are normalized, so their ranks do not
    depend on the scale of the target coordinates.
    """
    frames = default_test_functions(Phi.map.target)
    n = Phi.map.source.dim
    residuals = []
    for p in pts:
        T = tangent_map(Phi.map, p)
        a, da = _factor_jet(Phi, p)
        ann = annihilator(ker_DPhi_from(kernel(T), a, da))
        jets = pullback_jets(T, a, da, frames, Phi.map(p))
        same1, ang1 = subspace_equal(
            ann, span_of(jets, ambient=n + 1, normalize=True))
        sharp = jacobi_bidiff_matrix(J, p).T   # J♯: ⟨J♯α, β⟩ = J(α, β)
        ham_span = span_of(jets @ sharp.T, ambient=n + 1, normalize=True)
        same2, ang2 = subspace_equal(image(sharp @ ann.basis), ham_span)
        bad = 0.0 if (same1 and same2) else np.pi / 2
        residuals.append((p, max(ang1, ang2, bad)))
    return residual_report(
        "technical_lemma",
        "(ker DPhi)ann = span j1(pullbacks); (ker DPhi)^perp-varpi = span "
        "of hamiltonian derivations of pullbacks", residuals, ANGLE_TOL)


# -- der-complex on the coordinate frame -------------------------------------

class AtiyahForm:
    """Atiyah k-form (k <= 2) with jet-evaluable entries on the frame
    {(∂_0,0), ..., (∂_{n-1},0), 1}."""

    def __init__(self, chart, degree, entries):
        self.chart = chart
        self.degree = degree
        self.entries = entries  # k=1: list of n+1 fields; k=2: (n+1)x(n+1)


def theta_sigma_form(C):
    """θ∘σ as an Atiyah 1-form."""
    n = C.chart.dim
    entries = C.theta.field_matrix() + [constant(n, 0.0)]
    return AtiyahForm(C.chart, 1, entries)


def varpi_form(C):
    return AtiyahForm(C.chart, 2, varpi_entry_fields(C))


def der_d(form):
    """d_D of an Atiyah 1- or 2-form on the constant frame.

    Frame brackets vanish; the 1-slot acts on entry functions as the
    identity (1(f) = f), coordinate slots act as ∂_i.
    """
    n = form.chart.dim
    zero = constant(n, 0.0)

    def act(slot, field):
        return field if slot == n else field.partial(slot)

    if form.degree == 1:
        out = [[zero] * (n + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                out[i][j] = act(i, form.entries[j]) - act(j, form.entries[i])
        return AtiyahForm(form.chart, 2, out)
    if form.degree == 2:
        def entry(i, j, k):
            return (act(i, form.entries[j][k])
                    - act(j, form.entries[i][k])
                    + act(k, form.entries[i][j]))
        return AtiyahForm(form.chart, 3, {"entry": entry})
    raise ValueError("der_d implemented for degrees 1 and 2")


def der_contract_one(form):
    """ι_1 of an Atiyah 1- or 2-form: slot-1 evaluation at the frame index n."""
    n = form.chart.dim
    if form.degree == 1:
        return AtiyahForm(form.chart, 0, form.entries[n])
    return AtiyahForm(form.chart, 1,
                      [form.entries[n][j] for j in range(n + 1)])


@timed
def check_varpi_closed(C, pts):
    """d_D ϖ = 0 on all frame triples."""
    n = C.chart.dim
    d3 = der_d(varpi_form(C))
    entry = d3.entries["entry"]
    fields = {}
    residuals = []
    for p in pts:
        r = 0.0
        for (i, j, k) in itertools.combinations(range(n + 1), 3):
            if (i, j, k) not in fields:
                fields[(i, j, k)] = entry(i, j, k)
            r = max(r, abs(fields[(i, j, k)].value(p)))
        residuals.append((p, r))
    return residual_report("varpi_closed", "d_D varpi = 0", residuals, 1e-9)


@timed
def check_contracting_homotopy(form, pts):
    """(d_D ι_1 + ι_1 d_D) ω = ω on frame tuples, for k = 1 or 2."""
    n = form.chart.dim
    residuals = []
    if form.degree == 1:
        part1 = der_contract_one(der_d(form))            # (d_D ω)(1, ·)
        g = der_contract_one(form).entries               # ω(1), a field
        part2 = [g.partial(i) for i in range(n)] + [g]   # d_D of the 0-form
        for p in pts:
            r = max(abs(part1.entries[i].value(p) + part2[i].value(p)
                        - form.entries[i].value(p)) for i in range(n + 1))
            residuals.append((p, r))
    elif form.degree == 2:
        entry = der_d(form).entries["entry"]
        di1 = der_d(der_contract_one(form))
        zero = constant(n, 0.0)
        cache = {}

        def idw(a, b):
            # ι_1(d_D ω)(Δ_a, Δ_b) = (d_D ω)(1, Δ_a, Δ_b)
            if (a, b) not in cache:
                cache[(a, b)] = zero if (a == n or b == n or a == b) \
                    else entry(n, a, b)
            return cache[(a, b)]

        for p in pts:
            r = 0.0
            for a in range(n + 1):
                for b in range(n + 1):
                    v = idw(a, b).value(p) + di1.entries[a][b].value(p)
                    r = max(r, abs(v - form.entries[a][b].value(p)))
            residuals.append((p, r))
    else:
        raise ValueError("homotopy check implemented for degrees 1 and 2")
    return residual_report(
        "contracting_homotopy", "(d_D i_1 + i_1 d_D) omega = omega",
        residuals, 1e-9)
