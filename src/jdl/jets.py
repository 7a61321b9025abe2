"""Forward-mode truncated jets: exact value, gradient and Hessian of scalar
expressions at a point.

A :class:`Jet` carries the Taylor data of a scalar quantity with respect to
``dim`` ambient coordinates, truncated at ``order``, 1 or 2, which every
caller names.  Each checked identity is first order, and ∂_i of a field
reads its 2-jet, so jets stop there.  Arithmetic on jets propagates
derivatives exactly; no finite differences enter the main code path.  Plain
Python numbers mix freely with jets in expressions.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, DomainViolation, OrderUnsupported


def _check_order(order: int) -> None:
    if order not in (1, 2):
        raise OrderUnsupported(f"jet order must be 1 or 2, got {order}")


class Jet:
    """Truncated Taylor expansion of a scalar at a point.

    Attributes
    ----------
    dim : int
        Number of ambient coordinates.
    order : int
        Truncation order (1 or 2).
    value : float
    grad : ndarray, shape (dim,)
    hess : ndarray, shape (dim, dim), present iff order == 2
    """

    __slots__ = ("dim", "order", "value", "grad", "hess")

    def __init__(self, dim, order, value, grad=None, hess=None):
        _check_order(order)
        self.dim = int(dim)
        self.order = int(order)
        self.value = float(value)
        self.grad = np.zeros(dim) if grad is None else np.asarray(grad, dtype=float)
        if order == 2:
            self.hess = np.zeros((dim, dim)) if hess is None else np.asarray(hess, dtype=float)
        else:
            self.hess = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c, dim, order):
        return Jet(dim, order, c)

    @staticmethod
    def variable(i, p, order):
        """Jet of the i-th coordinate function at point p."""
        p = np.asarray(p, dtype=float)
        g = np.zeros(p.size)
        g[i] = 1.0
        return Jet(p.size, order, p[i], g)

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim:
                raise DimensionMismatch(
                    f"jet dims differ: {self.dim} vs {other.dim}")
            if other.order != self.order:
                raise DimensionMismatch(
                    f"jet orders differ: {self.order} vs {other.order}")
            return other
        return Jet.constant(float(other), self.dim, self.order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        out = Jet(self.dim, self.order, self.value + o.value, self.grad + o.grad)
        if self.order == 2:
            out.hess = self.hess + o.hess
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Jet(self.dim, self.order, -self.value, -self.grad)
        if self.order == 2:
            out.hess = -self.hess
        return out

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self, o
        out = Jet(self.dim, self.order, a.value * b.value,
                  a.value * b.grad + b.value * a.grad)
        if self.order == 2:
            cross = np.outer(a.grad, b.grad)
            out.hess = a.value * b.hess + b.value * a.hess + cross + cross.T
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        u = self.value
        if u == 0.0:
            raise DomainViolation("division by a jet with zero value")
        return self._lift(1.0 / u, -1.0 / u**2, 2.0 / u**3)

    def __pow__(self, n):
        if isinstance(n, Jet):
            # u**v = exp(v*log(u)); requires u > 0
            return (n * self.log()).exp()
        if float(n) == int(n):
            k = int(n)
            if k == 0:
                return Jet.constant(1.0, self.dim, self.order)
            if k < 0:
                return (self.__pow__(-k))._reciprocal()
            out = self
            for _ in range(k - 1):
                out = out * self
            return out
        if self.value <= 0.0:
            raise DomainViolation(f"x**{n} needs x > 0, got x = {self.value}")
        u = self.value
        return self._lift(u**n, n * u**(n - 1), n * (n - 1) * u**(n - 2))

    # -- analytic functions -------------------------------------------------

    def _lift(self, f0, f1, f2):
        """Compose with a scalar function given derivatives at self.value."""
        out = Jet(self.dim, self.order, f0, f1 * self.grad)
        if self.order == 2:
            out.hess = f1 * self.hess + f2 * np.outer(self.grad, self.grad)
        return out

    def exp(self):
        e = math.exp(self.value)
        return self._lift(e, e, e)

    def log(self):
        u = self.value
        if u <= 0.0:
            raise DomainViolation(f"log needs a positive argument, got {u}")
        return self._lift(math.log(u), 1.0 / u, -1.0 / u**2)

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._lift(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._lift(c, -s, -c)

    def sqrt(self):
        u = self.value
        if u < 0.0:
            raise DomainViolation(f"sqrt needs a nonnegative argument, got {u}")
        if u == 0.0:
            raise DomainViolation("sqrt is not differentiable at 0")
        r = math.sqrt(u)
        return self._lift(r, 0.5 / r, -0.25 / (r * u))

    def atan(self):
        u = self.value
        d = 1.0 + u * u
        return self._lift(math.atan(u), 1.0 / d, -2.0 * u / d**2)

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value}, grad={self.grad})"


# -- module-level function forms so expressions read naturally --------------

def _as_method(x, name):
    if isinstance(x, Jet):
        return getattr(x, name)()
    return getattr(math, name)(x)


def exp(x):
    return _as_method(x, "exp")


def log(x):
    return _as_method(x, "log")


def sin(x):
    return _as_method(x, "sin")


def cos(x):
    return _as_method(x, "cos")


def sqrt(x):
    return _as_method(x, "sqrt")


def atan(x):
    return _as_method(x, "atan")


def atan2(y, x):
    """Two-argument arctangent, exact on jets away from the origin.

    Reduced to unary atan on the better-conditioned ratio; the branch
    constant has zero derivatives, so jets stay exact.
    """
    if not isinstance(y, Jet) and not isinstance(x, Jet):
        return math.atan2(y, x)
    if isinstance(y, Jet):
        x = y._coerce(x)
    else:
        y = x._coerce(y)
    x0, y0 = x.value, y.value
    if x0 == 0.0 and y0 == 0.0:
        raise DomainViolation("atan2 undefined at the origin")
    if abs(x0) >= abs(y0):
        base = atan(y / x)
        if x0 > 0:
            return base
        shift = math.pi if y0 >= 0 else -math.pi
        return base + shift
    base = atan(x / y)
    if y0 > 0:
        return (-base) + math.pi / 2
    return (-base) - math.pi / 2


# -- lifting and composition -------------------------------------------------

def coordinate_jets(p, order):
    """Jets of all coordinate functions at p."""
    p = np.asarray(p, dtype=float)
    return [Jet.variable(i, p, order) for i in range(p.size)]


def jet_lift(f, p, order):
    """Exact Taylor data of the scalar field f at p to the requested order.

    ``f`` is anything callable on coordinate jets (a ``ScalarFieldSpec`` or a
    bare Python function of the coordinates).
    """
    _check_order(order)
    res = f(*coordinate_jets(p, order))
    if not isinstance(res, Jet):
        res = Jet.constant(float(res), len(np.asarray(p, dtype=float)), order)
    return res


def taylor_compose(gjet, fjets):
    """Chain rule for g∘F from the jet of g at F(p) and jets of F at p.

    ``gjet`` is a Jet in m target coordinates evaluated at F(p); ``fjets``
    are the m component jets of F in the source coordinates at p, all of the
    same order as gjet.  Returns the jet of g∘F at p.  It needs only the
    Taylor data of g, not a callable, so it composes derived fields
    (pullbacks, pointwise solves) exactly.
    """
    fjets = list(fjets)
    if len(fjets) != gjet.dim:
        raise DimensionMismatch(
            f"g expects {gjet.dim} components, got {len(fjets)}")
    order = gjet.order
    n = fjets[0].dim
    for f in fjets:
        if f.dim != n or f.order != order:
            raise DimensionMismatch("component jets must share dim and order")
    g1 = gjet.grad
    grads = np.stack([f.grad for f in fjets])          # (m, n)
    out = Jet(n, order, gjet.value, g1 @ grads)
    if order == 2:
        hesss = np.stack([f.hess for f in fjets])      # (m, n, n)
        out.hess = (np.einsum("j,jab->ab", g1, hesss)
                    + np.einsum("jl,ja,lb->ab", gjet.hess, grads, grads))
    return out
