"""Forward-mode truncated jets: exact value, gradient and Hessian of scalar
expressions at a point.

A :class:`Jet` carries the Taylor data of a scalar quantity with respect to
``dim`` ambient coordinates, truncated at ``order``, 1 or 2, which every
caller names.  Each checked identity is first order, and ∂_i of a field
reads its 2-jet, so jets stop there.  Arithmetic on jets propagates
derivatives exactly; no finite differences enter the main code path.

Each ring operation and analytic function builds one jet, a quotient by a
jet two (a reciprocal and a product), and few arrays besides the ones it
returns.  Plain Python numbers mix freely with jets in expressions, and a number
operand never becomes a jet: c + u shares u's derivative arrays and c * u
scales them.  Jets are immutable and share arrays: the coordinate jets of
:func:`coordinate_jets` read their gradients off one read-only identity
matrix, and an operation never writes into its operands.  The
:class:`Jet` constructor trusts its arguments (an int dim, a Python float
value, float64 arrays), so only :meth:`Jet.constant` and
:func:`coordinate_jets` take arbitrary numbers and points.
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

    The constructor trusts its arguments: an int ``dim``, a Python float
    ``value`` and float64 arrays of the shapes above.  It checks only the
    order, and fills in zeros for an omitted derivative.
    :meth:`constant` and :func:`coordinate_jets` validate and convert their
    input.  A jet is immutable and may share its arrays with other jets.
    """

    __slots__ = ("dim", "order", "value", "grad", "hess")

    def __init__(self, dim, order, value, grad=None, hess=None):
        if order != 1 and order != 2:
            raise OrderUnsupported(f"jet order must be 1 or 2, got {order}")
        self.dim = dim
        self.order = order
        self.value = value
        self.grad = np.zeros(dim) if grad is None else grad
        if order == 2:
            self.hess = np.zeros((dim, dim)) if hess is None else hess
        else:
            self.hess = None

    @staticmethod
    def constant(c, dim, order):
        _check_order(order)
        return Jet(int(dim), int(order), float(c))

    def _checked(self, other):
        """``other``, a jet, once its dim and order match this jet's."""
        if other.dim != self.dim:
            raise DimensionMismatch(
                f"jet dims differ: {self.dim} vs {other.dim}")
        if other.order != self.order:
            raise DimensionMismatch(
                f"jet orders differ: {self.order} vs {other.order}")
        return other

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.dim, self.order, self.value + float(other),
                       self.grad, self.hess)
        o = self._checked(other)
        return Jet(self.dim, self.order, self.value + o.value,
                   self.grad + o.grad,
                   self.hess + o.hess if self.order == 2 else None)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.dim, self.order, -self.value, -self.grad,
                   -self.hess if self.order == 2 else None)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.dim, self.order, self.value - float(other),
                       self.grad, self.hess)
        o = self._checked(other)
        return Jet(self.dim, self.order, self.value - o.value,
                   self.grad - o.grad,
                   self.hess - o.hess if self.order == 2 else None)

    def __rsub__(self, other):
        return Jet(self.dim, self.order, float(other) - self.value,
                   -self.grad, -self.hess if self.order == 2 else None)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = float(other)
            return Jet(self.dim, self.order, self.value * c, c * self.grad,
                       c * self.hess if self.order == 2 else None)
        a, b = self, self._checked(other)
        grad = a.value * b.grad
        grad += b.value * a.grad
        if self.order == 1:
            return Jet(self.dim, 1, a.value * b.value, grad)
        cross = np.outer(a.grad, b.grad)
        hess = a.value * b.hess
        hess += b.value * a.hess
        hess += cross
        hess += cross.T
        return Jet(self.dim, 2, a.value * b.value, grad, hess)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * self._checked(other)._reciprocal()
        c = float(other)
        if c == 0.0:
            raise DomainViolation("division of a jet by zero")
        return self * (1.0 / c)

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
        g = self.grad
        if self.order == 1:
            return Jet(self.dim, 1, f0, f1 * g)
        hess = np.outer(g, g)
        hess *= f2
        hess += f1 * self.hess
        return Jet(self.dim, 2, f0, f1 * g, hess)

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
    x0 = x.value if isinstance(x, Jet) else float(x)
    y0 = y.value if isinstance(y, Jet) else float(y)
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
    """Jets of all coordinate functions at p.  Their gradients are the rows
    of one read-only identity matrix, and at order 2 they share one
    read-only zero Hessian."""
    _check_order(order)
    p = np.asarray(p, dtype=float)
    eye = np.eye(p.size)
    eye.flags.writeable = False
    hess = None
    if order == 2:
        hess = np.zeros((p.size, p.size))
        hess.flags.writeable = False
    return [Jet(p.size, order, x, eye[i], hess)
            for i, x in enumerate(p.tolist())]


def jet_lift(f, p, order):
    """Exact Taylor data of the scalar field f at p to the requested order.

    ``f`` is anything callable on coordinate jets (a ``ScalarFieldSpec`` or a
    bare Python function of the coordinates).
    """
    xs = coordinate_jets(p, order)
    res = f(*xs)
    if not isinstance(res, Jet):
        res = Jet.constant(res, len(xs), order)
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
    if order == 1:
        return Jet(n, 1, gjet.value, g1 @ grads)
    hesss = np.stack([f.hess for f in fjets])          # (m, n, n)
    return Jet(n, 2, gjet.value, g1 @ grads,
               np.einsum("j,jab->ab", g1, hesss)
               + np.einsum("jl,ja,lb->ab", gjet.hess, grads, grads))
