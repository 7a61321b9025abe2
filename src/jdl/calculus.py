"""Pointwise exterior calculus and bracket calculus on chart fields.

Differential forms and multivector fields are stored sparsely as component
fields over increasing multi-indices; pointwise evaluation produces dense
antisymmetric arrays.  Derived objects (d of a form, pullbacks, interior
products) are again forms with exact jet-evaluable components, so iterated
operations (d∘d tests, Lie derivatives, naturality checks) stay exact.

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


def _sorted_key(idx):
    """(sorted tuple, sign) for an antisymmetric index lookup; sign 0 if
    repeated, else the sign of the sorting permutation."""
    idx = tuple(idx)
    perm = sorted(range(len(idx)), key=idx.__getitem__)
    key = tuple(idx[a] for a in perm)
    if len(set(key)) < len(key):
        return key, 0
    return key, _perm_sign(perm)


class _Antisym:
    """Shared storage/evaluation for forms and multivectors."""

    def __init__(self, chart, degree, comps):
        self.chart = chart
        self.degree = degree
        self.comps = {tuple(k): as_field(chart.dim, v) for k, v in comps.items()}
        for k in self.comps:
            if list(k) != sorted(k) or len(set(k)) != len(k):
                raise DimensionMismatch(f"component index {k} not increasing")
        self._field_matrix = None

    def component(self, idx):
        key, sign = _sorted_key(idx)
        if sign == 0 or key not in self.comps:
            return None, 0
        return self.comps[key], sign

    def coeff(self, idx, p):
        f, sign = self.component(idx)
        return 0.0 if f is None else sign * f.value(p)

    def dense(self, p):
        """Dense antisymmetric value array at p, shape (dim,)*degree."""
        n = self.chart.dim
        out = np.zeros((n,) * self.degree)
        for key, f in self.comps.items():
            v = f.value(p)
            for perm in itertools.permutations(range(self.degree)):
                sgn = _perm_sign(perm)
                out[tuple(key[a] for a in perm)] = sgn * v
        return out

    def field_matrix(self):
        """The component fields laid out as :meth:`dense`, zero-filled and
        signed: a list for degree 1, n×n rows for degree 2.  Built once."""
        if self._field_matrix is None:
            n = self.chart.dim
            zero = constant(n, 0.0)
            if self.degree == 1:
                out = [self.comps.get((i,), zero) for i in range(n)]
            elif self.degree == 2:
                out = [[zero] * n for _ in range(n)]
                for (i, j), f in self.comps.items():
                    out[i][j] = f
                    out[j][i] = -f
            else:
                raise DegreeUnsupported(
                    f"field_matrix needs degree 1 or 2, got {self.degree}")
            self._field_matrix = out
        return self._field_matrix

    def keys_all(self):
        return itertools.combinations(range(self.chart.dim), self.degree)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


class KForm(_Antisym):
    """Differential k-form with field components over increasing indices."""


class Multivector(_Antisym):
    """Multivector field of degree 1..3 with field components."""


class VectorField:
    """Vector field with one component field per coordinate."""

    def __init__(self, chart, comps):
        self.chart = chart
        self.comps = [as_field(chart.dim, c) for c in comps]
        if len(self.comps) != chart.dim:
            raise DimensionMismatch("one component per coordinate required")

    def at(self, p):
        return np.array([c.value(p) for c in self.comps])

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
            f, sign = omega.component(sub)
            if f is None:
                continue
            terms.append(((-1) ** a * sign, f.partial(key[a])))
        if not terms:
            continue
        acc = terms[0][1] * terms[0][0]
        for s, f in terms[1:]:
            acc = acc + f * s
        comps[key] = acc
    return KForm(omega.chart, k + 1, comps)


def interior_form(X, omega):
    """i_X ω as a derived (k-1)-form."""
    n = omega.chart.dim
    k = omega.degree
    comps = {}
    for key in itertools.combinations(range(n), k - 1):
        terms = []
        for j in range(n):
            f, sign = omega.component((j,) + key)
            if f is None:
                continue
            terms.append(X.comps[j] * f * sign)
        if terms:
            acc = terms[0]
            for t in terms[1:]:
                acc = acc + t
            comps[key] = acc
    return KForm(omega.chart, k - 1, comps)


def wedge_form(alpha, beta):
    """α ∧ β as a derived form, convention (dx∧dy)(∂x,∂y) = 1."""
    n = alpha.chart.dim
    k, l = alpha.degree, beta.degree
    comps = {}
    for key in itertools.combinations(range(n), k + l):
        terms = []
        for pick in itertools.combinations(range(k + l), k):
            rest = tuple(a for a in range(k + l) if a not in pick)
            sgn = _perm_sign(pick + rest)
            fa, sa = alpha.component(tuple(key[a] for a in pick))
            fb, sb = beta.component(tuple(key[a] for a in rest))
            if fa is None or fb is None:
                continue
            terms.append((sgn * sa * sb, fa, fb))
        if terms:
            acc = terms[0][1] * terms[0][2] * terms[0][0]
            for s, fa, fb in terms[1:]:
                acc = acc + fa * fb * s
            comps[key] = acc
    return KForm(alpha.chart, k + l, comps)


def lie_derivative(X, omega, p):
    """L_X ω at p via Cartan: i_X dω + d i_X ω, as a value dict."""
    d_omega = exterior_d_form(omega)
    part1 = interior_form(X, d_omega)
    part2 = exterior_d_form(interior_form(X, omega))
    return {key: part1.coeff(key, p) + part2.coeff(key, p)
            for key in part1.keys_all()}


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

def bivector_jet(P, p):
    """Value and first derivatives of a bivector at p, as dense arrays
    (Π, dΠ) with dΠ[l, j, k] = ∂_l Π^{jk}."""
    n = P.chart.dim
    Pm = np.zeros((n, n))
    dP = np.zeros((n, n, n))
    for (i, j), f in P.comps.items():
        jet = f(p, 1)
        Pm[i, j], Pm[j, i] = jet.value, -jet.value
        dP[:, i, j], dP[:, j, i] = jet.grad, -jet.grad
    return Pm, dP


def schouten_square(P, dP):
    """[[P,P]]^{abc} = 2 Σ_cyc(abc) P^{lc} ∂_l P^{ab} as a dense array, from
    a bivector 1-jet (P, dP) as :func:`bivector_jet` returns it."""
    T = 2.0 * np.einsum("lc,lab->abc", P, dP)
    return T + T.transpose(2, 0, 1) + T.transpose(1, 2, 0)
