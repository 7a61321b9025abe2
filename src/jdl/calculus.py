"""Pointwise exterior calculus and bracket calculus on chart fields.

Differential forms and multivector fields are stored sparsely as component
fields over increasing multi-indices; pointwise evaluation produces dense
antisymmetric arrays.  Derived objects (d of a form, pullbacks, interior
products) are again forms with exact jet-evaluable components, so iterated
operations (d∘d tests, Lie derivatives, naturality checks) stay exact.

Sign conventions, pinned by unit tests against the darboux3 catalog pair:
dα(X,Y) = X(α(Y)) - Y(α(X)) - α([X,Y]); [[X,Y]] is the Lie bracket;
[[X,Π]] = L_X Π; and [[Π,Π]] is normalized so that the integrability
condition for a Jacobi pair reads [[Π,Π]] = 2 E∧Π.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import DegreeUnsupported, DimensionMismatch
from .fields import as_field, compose, constant
from .jets import Jet


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

    def coeff_jet(self, idx, p, order=1):
        f, sign = self.component(idx)
        if f is None:
            return Jet.constant(0.0, self.chart.dim, order)
        j = f(p, order)
        return j if sign == 1 else -j

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


def lie_bracket(X, Y, p):
    """[X,Y] at p: X(Y^i) - Y(X^i) via order-1 jets."""
    xj = [c(p, 1) for c in X.comps]
    yj = [c(p, 1) for c in Y.comps]
    xv = np.array([j.value for j in xj])
    yv = np.array([j.value for j in yj])
    xg = np.stack([j.grad for j in xj])
    yg = np.stack([j.grad for j in yj])
    return yg @ xv - xg @ yv


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


# -- Schouten-Nijenhuis bracket ----------------------------------------------

def schouten(P, Q, p):
    """Schouten-Nijenhuis bracket value at p for degrees (1,1), (1,2), (2,2).

    Returns a dict over increasing index tuples of the resulting multivector
    of degree deg P + deg Q - 1.
    """
    degs = (getattr(P, "degree", 1), getattr(Q, "degree", 1))
    if isinstance(P, VectorField) and isinstance(Q, VectorField):
        v = lie_bracket(P, Q, p)
        return {(i,): v[i] for i in range(P.chart.dim)}
    if isinstance(P, VectorField) and isinstance(Q, Multivector) and Q.degree == 2:
        return _lie_der_bivector(P, Q, p)
    if isinstance(Q, VectorField) and isinstance(P, Multivector) and P.degree == 2:
        # graded symmetry: [[Π,X]] = [[X,Π]] for (a,b) = (2,1)
        return _lie_der_bivector(Q, P, p)
    if isinstance(P, Multivector) and isinstance(Q, Multivector) \
            and P.degree == 2 and Q.degree == 2:
        return _schouten_22(P, Q, p)
    raise DegreeUnsupported(f"schouten bracket unsupported for degrees {degs}")


def _lie_der_bivector(X, P, p):
    """(L_X Π)^{jk} = X(Π^{jk}) - Π^{lk} ∂_l X^j - Π^{jl} ∂_l X^k."""
    n = X.chart.dim
    Pm, dP = _biv_jets(P, p)   # dP[l, j, k] = ∂_l Π^{jk}
    Xv = np.array([c.value(p) for c in X.comps])
    dX = np.stack([c(p, 1).grad for c in X.comps])   # dX[j, l] = ∂_l X^j
    out = (np.einsum("l,ljk->jk", Xv, dP)
           - np.einsum("lk,jl->jk", Pm, dX)
           - np.einsum("jl,kl->jk", Pm, dX))
    return {key: out[key] for key in itertools.combinations(range(n), 2)}


def _schouten_22(P, Q, p):
    """[[P,Q]]^{ijk} = Σ_cyc(ijk) (P^{lk} ∂_l Q^{ij} + Q^{lk} ∂_l P^{ij}).

    Normalized so that the Jacobi-pair condition is [[Π,Π]] = 2E∧Π and the
    Poisson condition is [[Π,Π]] = 0.
    """
    n = P.chart.dim
    Pm, dP = _biv_jets(P, p)
    Qm, dQ = _biv_jets(Q, p)
    out = {}
    for key in itertools.combinations(range(n), 3):
        total = 0.0
        for (i, j, k) in ((key[0], key[1], key[2]),
                          (key[1], key[2], key[0]),
                          (key[2], key[0], key[1])):
            total += float(Pm[:, k] @ dQ[:, i, j] + Qm[:, k] @ dP[:, i, j])
        out[key] = total
    return out


def _biv_jets(P, p):
    n = P.chart.dim
    Pm = np.zeros((n, n))
    dP = np.zeros((n, n, n))
    for key in itertools.combinations(range(n), 2):
        j = P.coeff_jet(key, p, 1)
        Pm[key] = j.value
        Pm[key[::-1]] = -j.value
        dP[:, key[0], key[1]] = j.grad
        dP[:, key[1], key[0]] = -j.grad
    return Pm, dP


def wedge_vec_biv(E, P, p):
    """(E ∧ Π)^{ijk} = E^i Π^{jk} - E^j Π^{ik} + E^k Π^{ij} at p."""
    n = E.chart.dim
    Ev = E.at(p)
    Pm, _ = _biv_jets(P, p)
    out = {}
    for key in itertools.combinations(range(n), 3):
        i, j, k = key
        out[key] = Ev[i] * Pm[j, k] - Ev[j] * Pm[i, k] + Ev[k] * Pm[i, j]
    return out
