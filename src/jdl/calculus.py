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
again (the symplectization ω~ = d(s·π*θ)).  The pullback oracle of the
tests is a tree too, so d commutes with it exactly (a naturality test).

Sign conventions, pinned by unit tests: dα(X,Y) = X(α(Y)) - Y(α(X)) -
α([X,Y]), and the Schouten square of a bivector is normalized as
[[P,P]]^{abc} = 2 Σ_cyc(abc) P^{lc} ∂_l P^{ab}, so that a bivector is
Poisson exactly when [[P,P]] = 0.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import DegreeUnsupported, DimensionMismatch
from .fields import as_field, constant


class _Antisym:
    """Shared storage/evaluation for forms and multivectors."""

    def __init__(self, chart, degree, comps):
        self.chart = chart
        self.degree = degree
        self.comps = {tuple(k): as_field(chart.dim, v) for k, v in comps.items()}
        for k in self.comps:
            if list(k) != sorted(k) or len(set(k)) != len(k):
                raise DimensionMismatch(f"component index {k} not increasing")

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


# -- Schouten-Nijenhuis square ----------------------------------------------

def cyclic(T):
    """The cyclic sum T_{abc} + T_{bca} + T_{cab} of a 3-slot array."""
    return T + T.transpose(2, 0, 1) + T.transpose(1, 2, 0)


def schouten_square(P, dP):
    """[[P,P]]^{abc} = 2 Σ_cyc(abc) P^{lc} ∂_l P^{ab} as a dense array, from
    a bivector 1-jet (P, dP) as :meth:`_Antisym.jet` returns it."""
    return cyclic(2.0 * np.einsum("lc,lab->abc", P, dP))
