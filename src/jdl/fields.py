"""Scalar fields on charts, evaluable to jets at points.

A field is anything with ``field(p, order) -> Jet``.  :class:`ScalarFieldSpec`
wraps a plain Python expression of the coordinates; :class:`Field` wraps an
arbitrary jet-valued evaluator and supports pointwise arithmetic, exact
partial-derivative fields and composition along smooth maps.  Derived
quantities (pulled-back forms, matrix inverses solved order by order in
Taylor mode) therefore stay differentiable to the same order as their
ingredients.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OrderUnsupported, SingularSystem
from .jets import Jet, jet_lift, taylor_compose


class Field:
    """Scalar field given by a jet evaluator ``(p, order) -> Jet``.

    Evaluations are memoized per instance, for the point being evaluated
    only: fields are immutable and derived field trees (nested brackets,
    pullbacks) revisit shared subexpressions, so caching turns exponential
    tree walks into linear ones.  Those revisits all happen at the point of
    the outermost call, and checks loop point by point, so the memo keeps
    the jets of one point, at every order, and drops them when another
    point arrives; a check's memory then does not grow with its sample
    count.  Callers must not mutate returned jets.
    """

    __slots__ = ("dim", "_eval", "_cache")

    def __init__(self, dim, eval_jet):
        self.dim = dim
        self._eval = eval_jet
        self._cache = {}

    def __call__(self, p, order=2):
        p = np.asarray(p, dtype=float)
        key = (p.tobytes(), order)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = self._eval(p, order)
        if self._cache and next(iter(self._cache))[0] != key[0]:
            self._cache.clear()
        self._cache[key] = out
        return out

    def value(self, p):
        return self(p, 1).value

    def grad(self, p):
        return self(p, 1).grad

    def partial(self, i):
        """Exact ∂_i of this field (costs one extra jet order inside)."""
        def ev(p, order):
            if order == 3:
                raise OrderUnsupported("∂_i reads one jet order more and jets "
                                       "stop at 3: only up to order 2")
            full = self(p, order + 1)
            out = Jet(self.dim, order, full.grad[i], full.hess[i])
            if order == 2:
                out.hess = full.third[i]
            return out
        return Field(self.dim, ev)

    # pointwise ring structure; numbers promote to constants
    def _lift2(self, other, op):
        if isinstance(other, Field):
            if other.dim != self.dim:
                raise DimensionMismatch("field dims differ")
            return Field(self.dim, lambda p, o: op(self(p, o), other(p, o)))
        c = float(other)
        return Field(self.dim, lambda p, o: op(self(p, o), c))

    def __add__(self, other):
        return self._lift2(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._lift2(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._lift2(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._lift2(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._lift2(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._lift2(other, lambda a, b: b / a)

    def __neg__(self):
        return Field(self.dim, lambda p, o: -self(p, o))

    def __pow__(self, n):
        return Field(self.dim, lambda p, o: self(p, o) ** n)


class ScalarFieldSpec(Field):
    """Field defined by a Python expression of the coordinates.

    The expression must be closed under jet arithmetic, i.e. built from
    +, -, *, /, **, and the functions in :mod:`jdl.jets` (exp, log, sin,
    cos, sqrt, atan, atan2).
    """

    __slots__ = ("fn",)

    def __init__(self, dim, fn):
        self.fn = fn
        super().__init__(dim, lambda p, order: jet_lift(fn, p, order))


def constant(dim, c):
    c = float(c)
    return Field(dim, lambda p, order: Jet.constant(c, dim, order))


def coordinate(dim, i):
    return ScalarFieldSpec(dim, lambda *xs: xs[i])


def compose(target_field, component_fields, source_dim=None):
    """Field p ↦ target_field(F(p)) for F given by component fields.

    ``source_dim`` is required when F has no components (a map to a point
    chart); the target field is then constant.
    """
    comps = list(component_fields)
    if not comps:
        if source_dim is None:
            raise ValueError("source_dim required for a map to a point chart")
        c = target_field(np.zeros(0), 1).value
        return constant(source_dim, c)
    dim = comps[0].dim

    def ev(p, order):
        fj = [c(p, order) for c in comps]
        q = np.array([j.value for j in fj])
        gj = target_field(q, order)
        return taylor_compose(gj, fj)

    return Field(dim, ev)


def as_field(dim, obj):
    """Coerce a number, callable-on-jets, or Field to a Field."""
    if isinstance(obj, Field):
        return obj
    if callable(obj):
        return ScalarFieldSpec(dim, obj)
    return constant(dim, obj)


def point_memo(fn):
    """Memoize ``fn(p, order)`` per (point, order), over every point.

    For a per-point result that several fields share, such as a jet matrix
    inverse whose entries are separate fields.  Unlike the one-point memo of
    :class:`Field`, it keeps every point it has seen (up to 4096 keys, then
    starts over): the contact pair's ϖ jet solve is read at the same sample
    points by every check of a spec, and one solve costs as much as a whole
    tree walk.
    """
    cache = {}

    def ev(p, order):
        key = (p.tobytes(), order)
        hit = cache.get(key)
        if hit is None:
            if len(cache) > 4096:
                cache.clear()
            hit = cache[key] = fn(p, order)
        return hit

    return ev


# -- jet-valued linear algebra ----------------------------------------------

def jet_solve(A, b):
    """Solve A x = b for jets, in Taylor mode.

    A is an (n, n) array of Jets (or numbers), b an (n,) or (n, m) array of
    the same, so ``jet_solve(A, np.eye(n))`` is the jet inverse of A.  A and
    b are packed into one coefficient array per derivative order, the value
    matrix A₀ is inverted once (pivoting on the largest |value| in the
    column), and each order k is one stacked solve of A₀ X_k against B_k
    minus the lower orders' Leibniz terms.  Only the n·m solution jets are
    built; a system without jets returns floats.
    """
    A, b = np.asarray(A, dtype=object), np.asarray(b, dtype=object)
    B = b[:, None] if b.ndim == 1 else b
    first = next((x for x in (*A.flat, *B.flat) if isinstance(x, Jet)), None)
    dim, order = (first.dim, first.order) if first is not None else (0, 0)
    A0, *A_ = _taylor_coeffs(A, dim, order)
    B0, *B_ = _taylor_coeffs(B, dim, order)
    inv = _value_inverse(A0)
    X = [inv @ B0]      # X[k][a, b, ..., i, j] = ∂_a ∂_b ... x_ij
    if order >= 1:
        X.append(inv @ (B_[0] - A_[0] @ X[0]))
    if order >= 2:
        t = A_[0][:, None] @ X[1]                   # A_a X_b
        X.append(inv @ (B_[1] - A_[1] @ X[0] - t - t.swapaxes(0, 1)))
    if order == 3:
        # A_a X_bc + A_bc X_a, symmetrized over the three derivative slots
        t = A_[0][:, None, None] @ X[2] + A_[1] @ X[1][:, None, None]
        X.append(inv @ (B_[2] - A_[2] @ X[0] - t - t.transpose(1, 0, 2, 3, 4)
                        - t.transpose(2, 1, 0, 3, 4)))
    out = X[0].astype(object)
    if first is not None:
        X = [x.transpose(k, k + 1, *range(k)) for k, x in enumerate(X)]
        for i, j in np.ndindex(out.shape):
            out[i, j] = Jet(dim, order, *(x[i, j] for x in X))
    return out[:, 0] if b.ndim == 1 else out


def _taylor_coeffs(M, dim, order):
    """The k-th derivatives of a matrix of jets and numbers for k up to
    ``order``, one array shaped (dim,) * k + M.shape per k."""
    zero = [np.zeros((dim,) * k) for k in range(1, order + 1)]
    parts = []
    for x in M.flat:
        if not isinstance(x, Jet):
            parts.append((x, *zero))
        elif (x.dim, x.order) != (dim, order):
            raise DimensionMismatch("jet dims or orders differ")
        else:
            parts.append((x.value, x.grad, x.hess, x.third))
    return [np.array([p[k] for p in parts], dtype=float)
            .transpose(*range(1, k + 1), 0).reshape((dim,) * k + M.shape)
            for k in range(order + 1)]


def _value_inverse(A0):
    """A₀⁻¹ by Gauss-Jordan elimination with partial pivoting, on Python
    floats, which for the few rows of a jet system beat a numpy loop."""
    n = len(A0)
    M = np.hstack([A0, np.eye(n)]).tolist()
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[piv][col]) < 1e-14:
            raise SingularSystem("jet linear system is singular")
        M[col], M[piv] = M[piv], M[col]
        p = M[col][col]
        row = M[col] = [x / p for x in M[col]]
        for r in range(n):
            if r != col:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], row)]
    return np.array(M)[:, n:]
