"""Scalar fields on charts, evaluable to jets at points.

A field is anything with ``field(p, order) -> Jet``.  :class:`ScalarFieldSpec`
wraps a plain Python expression of the coordinates; :class:`Field` wraps an
arbitrary jet-valued evaluator and supports pointwise arithmetic, exact
partial-derivative fields and composition along smooth maps, so derived
quantities (pulled-back forms, brackets) stay differentiable to the same
order as their ingredients.  :func:`jet_solve` is the one jet linear solve:
it takes and returns dense first-order arrays, and :func:`entry_field` reads
its solution back as order-1 fields.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OrderUnsupported, SingularSystem
from .jets import Jet, jet_lift, taylor_compose


class Field:
    """Scalar field given by a jet evaluator ``(p, order) -> Jet``.

    Evaluations are memoized per instance, for the point being evaluated
    only: fields are immutable and derived field trees (brackets, partials,
    pullbacks) revisit shared subexpressions, so caching turns exponential
    tree walks into linear ones.  Those revisits all happen at the point of
    the outermost call, and checks loop point by point, so the memo keeps
    the jets of one point, at every order, and drops them when another
    point arrives; a check's memory then does not grow with its sample
    count: ``_point`` holds that point's bytes and ``_cache`` its jets at
    both orders, keyed ``(p.tobytes(), order)``.  Callers must not mutate
    returned jets; coordinate and constant jets, read-only, enforce it.
    """

    __slots__ = ("dim", "_eval", "_cache", "_point")

    def __init__(self, dim, eval_jet):
        self.dim = dim
        self._eval = eval_jet
        self._cache = {}
        self._point = None

    def __call__(self, p, order):
        p = np.asarray(p, dtype=float)
        point = p.tobytes()
        key = (point, order)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = self._eval(p, order)
        if point != self._point:
            self._cache.clear()
            self._point = point
        self._cache[key] = out
        return out

    def value(self, p):
        return self(p, 1).value

    def partial(self, i):
        """Exact ∂_i of this field, to order 1 only: it reads the field's
        2-jet, and jets stop at order 2."""
        def ev(p, order):
            if order != 1:
                raise OrderUnsupported("∂_i reads one jet order more and jets "
                                       "stop at 2: only order 1")
            full = self(p, 2)
            return Jet(self.dim, 1, float(full.grad[i]), full.hess[i])
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
        return self._lift2(n, lambda a, b: a ** b)


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
    """The field c on ``dim`` coordinates.  Its jets at orders 1 and 2 are
    built once, with read-only arrays, and returned at every point; at
    another order Jet.constant raises OrderUnsupported."""
    built = {order: Jet.constant(c, dim, order) for order in (1, 2)}
    for a in (built[1].grad, built[2].grad, built[2].hess):
        a.flags.writeable = False
    return Field(dim, lambda p, order: built[order] if order in built
                 else Jet.constant(c, dim, order))


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
    """Memoize ``fn(p)`` per point, over every point.

    For a per-point result that several fields share, such as the jet solve
    whose entries are separate fields.  Unlike the one-point memo of
    :class:`Field`, it keeps every point it has seen (up to 4096, then
    starts over): the contact pair's ϖ solve is read at the same sample
    points by every check of a spec.
    """
    cache = {}

    def ev(p):
        key = p.tobytes()
        hit = cache.get(key)
        if hit is None:
            if len(cache) >= 4096:
                cache.clear()
            hit = cache[key] = fn(p)
        return hit

    return ev


def entry_field(dim, jet_of, *idx):
    """The order-1 field p ↦ entry ``idx`` of ``jet_of(p) = (X, dX)``, a
    dense 1-jet laid out as :meth:`jdl.calculus._Antisym.jet` returns it
    (dX[l] = ∂_l X)."""
    def ev(p, order):
        if order != 1:
            raise OrderUnsupported("a jet solve reads first-order data: "
                                   "only order 1")
        X, dX = jet_of(p)
        return Jet(dim, 1, float(X[idx]), dX[(slice(None), *idx)])
    return Field(dim, ev)


# -- jet-valued linear algebra ----------------------------------------------

def jet_solve(A, dA, B, dB):
    """Solve A X = B with its first derivatives, on dense arrays.

    A is (n, n) and B (n,) or (n, m); dA and dB hold their derivatives as
    dA[l] = ∂_l A.  A's value is inverted once (pivoting on the largest
    |value| in the column), X = A⁻¹B and ∂_l X = A⁻¹(∂_l B - ∂_l A X).
    Returns (X, dX) in the same layout.
    """
    inv = _value_inverse(np.asarray(A, dtype=float))
    X = inv @ B
    return X, np.einsum("ij,lj...->li...", inv, dB - dA @ X)


def _value_inverse(A0):
    """A₀⁻¹ by Gauss-Jordan elimination with partial pivoting, on Python
    floats, which for the few rows of a jet system beat a numpy loop.

    Raises SingularSystem on a zero pivot or one below 1e-14·max|A₀|, a
    bound relative to the scale of A₀, so that rescaling the system does
    not change whether it solves."""
    n = len(A0)
    floor = 1e-14 * np.abs(A0).max(initial=0.0)
    M = np.hstack([A0, np.eye(n)]).tolist()
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(M[r][col]))
        if abs(M[piv][col]) < floor or M[piv][col] == 0:
            raise SingularSystem("jet linear system is singular")
        M[col], M[piv] = M[piv], M[col]
        p = M[col][col]
        row = M[col] = [x / p for x in M[col]]
        for r in range(n):
            if r != col:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], row)]
    return np.array(M)[:, n:]
