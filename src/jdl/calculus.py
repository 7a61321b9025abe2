"""Exterior calculus and bracket calculus on chart fields.

Differential forms and multivector fields are stored sparsely as component
fields over increasing multi-indices.  :meth:`_Antisym.jet` is the one
pointwise reader: it returns the dense antisymmetric value and first
derivatives of a degree-1 or degree-2 object at a point, and every
first-order identity is read from it.  With :func:`cyclic`, the three-slot
cyclic sum, d of a 1-form is dA - dAᵀ, d of a 2-form is cyclic(dA), and
ω∧η is cyclic(η ⊗ ω) for a 2-form ω and a 1-form η.

:func:`exterior_d_form` is the one tree operator: it returns dω as a form
with exact jet-evaluable components, for a form whose derivatives are read
again (the symplectization ω~ = d(s·π*θ)).  Pullbacks are trees too, so d
commutes with them exactly (a naturality test).

Sign conventions, pinned by unit tests: dα(X,Y) = X(α(Y)) - Y(α(X)) -
α([X,Y]), and the Schouten square of a bivector is normalized as
[[P,P]]^{abc} = 2 Σ_cyc(abc) P^{lc} ∂_l P^{ab}, so that a bivector is
Poisson exactly when [[P,P]] = 0.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import DegreeUnsupported, DimensionMismatch
from .fields import as_field, compose, constant


class _Antisym:
    """Shared storage/evaluation for forms and multivectors."""

    def __init__(self, chart, degree, comps):
        self.chart = chart
        self.degree = degree
        self.comps = {tuple(k): as_field(chart.dim, v) for k, v in comps.items()}
        for k in self.comps:
            if list(k) != sorted(k) or len(set(k)) != len(k):
                raise DimensionMismatch(f"component index {k} not increasing")

    def coeff(self, key, p):
        """The component at the increasing index ``key`` at p, 0 if unset;
        it reads forms of any degree."""
        f = self.comps.get(tuple(key))
        return 0.0 if f is None else f.value(p)

    def jet(self, p):
        """Dense value and first derivatives at p, (A, dA) with
        dA[l, ...] = ∂_l A[...], for degree 1 and 2: the one pointwise
        reader of forms and multivectors."""
        n = self.chart.dim
        if self.degree not in (1, 2):
            raise DegreeUnsupported(f"jet needs degree 1 or 2, got {self.degree}")
        A = np.zeros((n,) * self.degree)
        dA = np.zeros((n,) * (self.degree + 1))
        for key, f in self.comps.items():
            j = f(p, 1)
            A[key], dA[(slice(None),) + key] = j.value, j.grad
        if self.degree == 2:
            return A - A.T, dA - dA.transpose(0, 2, 1)
        return A, dA

    def dense(self, p):
        """Dense antisymmetric value array at p, the value part of :meth:`jet`."""
        return self.jet(p)[0]


def _perm_sign(perm):
    """+1 or -1 by the parity of the inversions of ``perm``."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


class KForm(_Antisym):
    """Differential k-form with field components over increasing indices."""


class Multivector(_Antisym):
    """Multivector field with field components over increasing indices;
    :meth:`_Antisym.jet` reads degrees 1 and 2."""


class VectorField:
    """Vector field with one component field per coordinate."""

    def __init__(self, chart, comps):
        self.chart = chart
        self.comps = [as_field(chart.dim, c) for c in comps]
        if len(self.comps) != chart.dim:
            raise DimensionMismatch("one component per coordinate required")

    def at(self, p):
        return np.array([c.value(p) for c in self.comps])

    def jet(self, p):
        """(X, dX) at p with dX[l, i] = ∂_l X^i, laid out as
        :meth:`_Antisym.jet`."""
        jets = [c(p, 1) for c in self.comps]
        n = self.chart.dim
        return (np.array([j.value for j in jets]),
                np.array([j.grad for j in jets]).reshape(n, n).T)

    def apply_field(self, f):
        """X(f) as a derived field."""
        if not self.comps:
            return constant(self.chart.dim, 0.0)
        terms = [self.comps[i] * f.partial(i) for i in range(self.chart.dim)]
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return out


# -- exterior derivative ------------------------------------------------------

def exterior_d_form(omega):
    """dω as a derived KForm with exact component fields."""
    n = omega.chart.dim
    k = omega.degree
    comps = {}
    for key in itertools.combinations(range(n), k + 1):
        terms = []
        for a in range(k + 1):
            sub = key[:a] + key[a + 1:]
            f = omega.comps.get(sub)
            if f is None:
                continue
            terms.append(((-1) ** a, f.partial(key[a])))
        if not terms:
            continue
        acc = terms[0][1] * terms[0][0]
        for s, f in terms[1:]:
            acc = acc + f * s
        comps[key] = acc
    return KForm(omega.chart, k + 1, comps)


def wedge_form(alpha, beta):
    """α ∧ β as a derived form, convention (dx∧dy)(∂x,∂y) = 1; the tests
    read θ∧(dθ)ⁿ from it as the volume oracle of the contact check."""
    k, l = alpha.degree, beta.degree
    comps = {}
    for key in itertools.combinations(range(alpha.chart.dim), k + l):
        terms = []
        for pick in itertools.combinations(range(k + l), k):
            rest = tuple(a for a in range(k + l) if a not in pick)
            fa = alpha.comps.get(tuple(key[a] for a in pick))
            fb = beta.comps.get(tuple(key[a] for a in rest))
            if fa is not None and fb is not None:
                terms.append(fa * fb * _perm_sign(pick + rest))
        if terms:
            comps[key] = sum(terms[1:], terms[0])
    return KForm(alpha.chart, k + l, comps)


def lie_derivative(X, alpha, p):
    """L_X α of a 1-form at p from the 1-jets of X and α:
    (L_X α)_j = X^i ∂_i α_j + α_i ∂_j X^i."""
    x, dx = X.jet(p)
    a, da = alpha.jet(p)
    return x @ da + dx @ a


def pullback_form(F, omega):
    """F*ω as a derived KForm on the source chart.

    Components are exact jet-evaluable fields, so d commutes with the
    pullback up to jet round-off (naturality is a test, not an assumption).
    """
    if omega.chart.dim != F.target.dim:
        raise DimensionMismatch("form lives on a different chart than F's target")
    n = F.source.dim
    k = omega.degree
    if k == 0:
        return KForm(F.source, 0, {(): compose(omega.comps[()], F.components)})
    partials = [[F.components[j].partial(a) for a in range(n)]
                for j in range(F.target.dim)]
    comps = {}
    for key in itertools.combinations(range(n), k):
        terms = []
        for jkey in itertools.combinations(range(F.target.dim), k):
            wfield = compose(omega.comps[jkey], F.components) \
                if jkey in omega.comps else None
            if wfield is None:
                continue
            # det of the (jkey, key) minor of the Jacobian, as a field
            det = _det_field(partials, jkey, key, n)
            terms.append(wfield * det)
        if terms:
            acc = terms[0]
            for t in terms[1:]:
                acc = acc + t
            comps[key] = acc
    return KForm(F.source, k, comps)


def _det_field(partials, rows, cols, dim):
    k = len(rows)
    acc = None
    for perm in itertools.permutations(range(k)):
        sgn = _perm_sign(perm)
        prod = partials[rows[0]][cols[perm[0]]]
        for a in range(1, k):
            prod = prod * partials[rows[a]][cols[perm[a]]]
        term = prod * sgn
        acc = term if acc is None else acc + term
    return acc if acc is not None else constant(dim, 0.0)


# -- Schouten-Nijenhuis square ----------------------------------------------

def cyclic(T):
    """The cyclic sum T_{abc} + T_{bca} + T_{cab} of a 3-slot array."""
    return T + T.transpose(2, 0, 1) + T.transpose(1, 2, 0)


def schouten_square(P, dP):
    """[[P,P]]^{abc} = 2 Σ_cyc(abc) P^{lc} ∂_l P^{ab} as a dense array, from
    a bivector 1-jet (P, dP) as :meth:`_Antisym.jet` returns it."""
    return cyclic(2.0 * np.einsum("lc,lab->abc", P, dP))
