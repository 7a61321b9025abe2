import itertools
import math
import operator

import numpy as np
import pytest
import sympy

from jdl import catalog, jets
from jdl.cli import main
from jdl.errors import DimensionMismatch, DomainViolation, OrderUnsupported
from jdl.fields import ScalarFieldSpec, compose, coordinate
from jdl.jets import Jet, jet_lift, taylor_compose

from conftest import fd_gradient, fd_hessian


def test_polynomial_by_hand():
    # f(x,y) = x^2 y at (2,3): value 12, grad (12,4), hess [[6,4],[4,0]]
    j = jet_lift(lambda x, y: x * x * y, [2.0, 3.0], 2)
    assert j.value == 12.0
    assert np.allclose(j.grad, [12.0, 4.0])
    assert np.allclose(j.hess, [[6.0, 4.0], [4.0, 0.0]])


def test_constant_and_identity():
    j = jet_lift(lambda x, y: 1.0, [0.3, -0.2], 2)
    assert j.value == 1.0
    assert np.all(j.grad == 0) and np.all(j.hess == 0)
    j = jet_lift(lambda x: x, [5.0], 2)
    assert j.value == 5.0 and j.grad[0] == 1.0 and j.hess[0, 0] == 0.0


def test_compose_square_of_sum():
    F = jet_lift(lambda x, y: x + y, [1.0, 2.0], 2)
    g = F * F
    assert g.value == 9.0
    assert np.allclose(g.grad, [6.0, 6.0])
    assert np.allclose(g.hess, [[2.0, 2.0], [2.0, 2.0]])


def test_compose_identity_and_constant():
    # through fields.compose, since a constant g called directly on a jet
    # returns a plain number
    p = [1.5, -0.5]
    comp = [ScalarFieldSpec(2, lambda x, y: x * y + y)]
    F = comp[0](p, 2)
    same = compose(ScalarFieldSpec(1, lambda u: u), comp)(p, 2)
    assert same.value == F.value and np.allclose(same.grad, F.grad)
    const = compose(ScalarFieldSpec(1, lambda u: 7.0), comp)(p, 2)
    assert const.value == 7.0 and np.all(const.grad == 0)


def _random_field(rng):
    """A random polynomial/trig scalar field in 2-4 variables."""
    n = int(rng.integers(2, 5))
    c = rng.normal(size=6)

    def f(*xs):
        a, b = xs[0], xs[1 % n]
        expr = c[0] * a + c[1] * b + c[2] * a * b + c[3] * a * a * b
        expr = expr + c[4] * jets.sin(a) + c[5] * jets.cos(a * b)
        return expr

    return n, f


def test_jets_match_finite_differences():
    # 200 random fields/points: grads and hessians agree with central FD
    rng = np.random.default_rng(7)
    for _ in range(200):
        n, f = _random_field(rng)
        p = rng.uniform(-1.0, 1.0, size=n)
        j = jet_lift(f, p, 2)

        def fval(q):
            return jet_lift(f, q, 1).value

        g_fd = fd_gradient(fval, p)
        h_fd = fd_hessian(fval, p)
        scale = 1.0 + np.abs(g_fd).max()
        assert np.abs(j.grad - g_fd).max() < 1e-5 * scale
        assert np.abs(j.hess - h_fd).max() < 1e-4 * (1.0 + np.abs(h_fd).max())


def test_product_rule_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = rng.normal(size=4)

        def f(x, y):
            return c[0] * x * x + c[1] * y

        def g(x, y):
            return c[2] * x * y + c[3]

        p = rng.uniform(-2, 2, size=2)
        jf, jg = jet_lift(f, p, 2), jet_lift(g, p, 2)
        prod = jf * jg
        direct = jet_lift(lambda x, y: f(x, y) * g(x, y), p, 2)
        assert abs(prod.value - direct.value) < 1e-12
        assert np.abs(prod.grad - direct.grad).max() < 1e-12
        assert np.abs(prod.hess - direct.hess).max() < 1e-12


def test_composition_associativity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = rng.uniform(0.2, 1.0, size=2)
        F = jet_lift(lambda x, y: x * y + 0.5, p, 2)

        def h(u):
            return u * u + 1.0

        def g(v):
            return jets.log(v)

        # two chain-rule steps against evaluating g(h(F)) directly
        hF = taylor_compose(jet_lift(h, [F.value], 2), [F])
        via_two = taylor_compose(jet_lift(g, [hF.value], 2), [hF])
        direct = g(h(F))
        assert abs(via_two.value - direct.value) < 1e-12
        assert np.abs(via_two.grad - direct.grad).max() < 1e-12
        assert np.abs(via_two.hess - direct.hess).max() < 1e-12


def test_division_and_sqrt_against_fd():
    rng = np.random.default_rng(17)
    for _ in range(30):
        p = rng.uniform(0.3, 1.5, size=2)

        def f(x, y):
            return jets.sqrt(x * y + 1.0) / (x + 2.0 * y)

        j = jet_lift(f, p, 2)
        g_fd = fd_gradient(lambda q: jet_lift(f, q, 1).value, p)
        assert np.abs(j.grad - g_fd).max() < 1e-6


def test_atan2_quadrants():
    for (y, x) in [(1.0, 2.0), (1.0, -2.0), (-1.0, -2.0), (-1.0, 2.0),
                   (2.0, 0.5), (2.0, -0.5), (-2.0, 0.5), (-2.0, -0.5)]:
        j = jet_lift(lambda a, b: jets.atan2(a, b), [y, x], 2)
        assert abs(j.value - math.atan2(y, x)) < 1e-14
        r2 = x * x + y * y
        assert np.allclose(j.grad, [x / r2, -y / r2], atol=1e-12)


def test_atan2_rejects_origin():
    with pytest.raises(DomainViolation):
        jet_lift(lambda a, b: jets.atan2(a, b), [0.0, 0.0], 2)


def test_domain_errors_not_nan():
    with pytest.raises(DomainViolation):
        jet_lift(lambda x: jets.log(x), [-1.0], 2)
    with pytest.raises(DomainViolation):
        jet_lift(lambda x: jets.sqrt(x), [-1.0], 2)
    with pytest.raises(DomainViolation):
        jet_lift(lambda x: 1.0 / x, [0.0], 2)


def test_order_guard():
    with pytest.raises(OrderUnsupported):
        jet_lift(lambda x: x, [1.0], 4)


def test_order1_order2_agree():
    p = [0.4, -1.2]

    def f(x, y):
        return jets.exp(x) * jets.sin(y) + x * y

    j1 = jet_lift(f, p, 1)
    j2 = jet_lift(f, p, 2)
    assert j1.value == j2.value
    assert np.allclose(j1.grad, j2.grad)


def test_order_three_is_refused():
    # every checked identity is first order, and jets stop at order 2
    with pytest.raises(OrderUnsupported, match="1 or 2, got 3"):
        Jet(2, 3, 0.5)
    with pytest.raises(OrderUnsupported, match="1 or 2, got 3"):
        jet_lift(lambda a, b: jets.sin(a * b), [0.3, -0.7], 3)
    assert not hasattr(jet_lift(lambda a: a, [0.3], 2), "third")


def _on_fields(fn):
    """fn applied to a field by composition."""
    return lambda f: compose(ScalarFieldSpec(1, fn), [f])


# op -> (on jets, on sympy expressions, on fields); "0.5-" and "2/" put a
# number first, which reaches __rsub__ and __rtruediv__, and "**" raises to
# a constant or to a jet
_OPS = {"+": (operator.add,) * 3, "-": (operator.sub,) * 3,
        "*": (operator.mul,) * 3, "/": (operator.truediv,) * 3,
        "0.5-": (lambda a: 0.5 - a,) * 3, "2/": (lambda a: 2.0 / a,) * 3,
        "**": (operator.pow,) * 3, "**3": (lambda a: a ** 3,) * 3,
        "**-2": (lambda a: a ** -2,) * 3, "**1.5": (lambda a: a ** 1.5,) * 3,
        "exp": (jets.exp, sympy.exp, _on_fields(jets.exp)),
        "log": (jets.log, sympy.log, _on_fields(jets.log)),
        "sin": (jets.sin, sympy.sin, _on_fields(jets.sin)),
        "cos": (jets.cos, sympy.cos, _on_fields(jets.cos)),
        "atan": (jets.atan, sympy.atan, _on_fields(jets.atan)),
        "sqrt": (jets.sqrt, sympy.sqrt, _on_fields(jets.sqrt))}
_BINARY = ("+", "-", "*", "/", "**")
# where the tree so far u and the second operand v of an operation may
# sit: divisors at least 1/4 in size; bases of square roots and of powers
# to a jet or a fraction, and arguments of logarithms, at least 1/4; exp's
# argument at most 4 and a power's exponent at most 2 in size
_DOMAIN = {"/": lambda u, v: abs(v) >= 0.25, "2/": lambda u: abs(u) >= 0.25,
           "**": lambda u, v: u >= 0.25 and abs(v) <= 2.0,
           "**-2": lambda u: abs(u) >= 0.25, "**1.5": lambda u: u >= 0.25,
           "sqrt": lambda u: u >= 0.25, "log": lambda u: u >= 0.25,
           "exp": lambda u: u <= 4.0}


def _fits(op, *values):
    return _DOMAIN.get(op, lambda *values: True)(*values)


def _random_expression(rng, p, n_ops=4):
    """A random expression tree at p that applies ``n_ops`` distinct ones of
    the operations of ``_OPS``, as ``(op, operand trees...)`` tuples.

    Each operation takes the tree so far as its first operand; a binary one
    takes a coordinate, a constant or an earlier subtree as its second.  The
    order is drawn among the operations whose domain holds at p, and a draw
    that strands one is redrawn.
    """
    while True:
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        pool = [(("x", i), x) for i, x in enumerate(p)] + [(("c", c), c)]
        tree, value = pool[rng.integers(len(p))]
        todo = [str(op) for op in
                rng.choice(sorted(_OPS), n_ops, replace=False)]
        while todo:
            seconds = {op: [node for node in pool if node[0] is not tree
                            and _fits(op, value, node[1])]
                       for op in todo if op in _BINARY}
            ready = [op for op in todo
                     if (seconds[op] if op in _BINARY else _fits(op, value))]
            if not ready:
                break
            op = ready[rng.integers(len(ready))]
            todo.remove(op)
            args = [(tree, value)]
            if op in _BINARY:
                fits = seconds[op]
                args.append(fits[rng.integers(len(fits))])
            value = _OPS[op][0](*(v for _, v in args))
            tree = (op, *(t for t, _ in args))
            pool.append((tree, value))
        if not todo:
            return tree


def _build(tree, xs, lib):
    """The tree over coordinates ``xs``, with the operations on jets (lib 0),
    sympy expressions (lib 1) or fields (lib 2)."""
    head, *args = tree
    if head == "x":
        return xs[args[0]]
    if head == "c":
        return args[0]
    return _OPS[head][lib](*(_build(t, xs, lib) for t in args))


def _ops_in(tree):
    """The operations of an expression tree."""
    head, *args = tree
    if head not in _OPS:
        return set()
    return {head}.union(*map(_ops_in, args))


def test_jets_match_sympy_to_second_order():
    # random expressions in 2-3 variables, of four operations each, on jets
    # and on fields; sympy differentiates each distinct partial once
    rng = np.random.default_rng(11)
    drawn = set()
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, size=int(rng.integers(2, 4)))
        tree = _random_expression(rng, p)
        drawn |= _ops_in(tree)
        j = jet_lift(lambda *xs: _build(tree, xs, 0), p, 2)
        fields = [coordinate(p.size, i) for i in range(p.size)]
        fj = _build(tree, fields, 2)(p, 2)
        syms = sympy.symbols(f"x0:{p.size}")
        at = dict(zip(syms, p))
        derivs = {(): sympy.sympify(_build(tree, syms, 1))}
        for idx in itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(p.size), k)
                for k in (1, 2)):
            derivs[idx] = sympy.diff(derivs[idx[:-1]], syms[idx[-1]])
        for idx, d in derivs.items():
            want = float(d.subs(at))
            for jet in (j, fj):
                got = np.asarray(
                    (jet.value, jet.grad, jet.hess)[len(idx)])[idx]
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    assert drawn == set(_OPS)


def test_partial_jet_shift():
    # ∂_x (x^2 y) = 2xy with grad (2y, 2x)
    j = ScalarFieldSpec(2, lambda x, y: x * x * y).partial(0)([2.0, 3.0], 1)
    assert j.value == 12.0
    assert np.allclose(j.grad, [6.0, 4.0])


def test_taylor_compose_matches_direct():
    rng = np.random.default_rng(23)
    for order in (1, 2):
        p = rng.uniform(-1, 1, size=2)
        comp = [jet_lift(lambda x, y: x * y + y, p, order),
                jet_lift(lambda x, y: x + 2.0, p, order)]

        def g(u, v):
            return u * u * v + jets.sin(u)

        q = np.array([comp[0].value, comp[1].value])
        gj = jet_lift(g, q, order)
        via_taylor = taylor_compose(gj, comp)
        direct = g(*comp)
        assert abs(via_taylor.value - direct.value) < 1e-12
        assert np.abs(via_taylor.grad - direct.grad).max() < 1e-11
        if order == 2:
            assert np.abs(via_taylor.hess - direct.hess).max() < 1e-11


def test_dim_mismatch_raises():
    a = jet_lift(lambda x, y: x + y, [1.0, 2.0], 2)
    b = jet_lift(lambda x: x, [1.0], 2)
    with pytest.raises(DimensionMismatch):
        _ = a + b


# -- the kernel: number operands, shared read-only arrays, the constructor ---

_NUMBER_OPS = {"u+c": lambda u, c: u + c, "c+u": lambda u, c: c + u,
               "u-c": lambda u, c: u - c, "c-u": lambda u, c: c - u,
               "u*c": lambda u, c: u * c, "c*u": lambda u, c: c * u,
               "u/c": lambda u, c: u / c, "c/u": lambda u, c: c / u}


def _same(a, b):
    """Equal value, gradient and Hessian, compared with ``==``."""
    return (a.order == b.order and a.value == b.value
            and np.array_equal(a.grad, b.grad)
            and (a.order == 1 or np.array_equal(a.hess, b.hess)))


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("c", (3, -0.75, np.float64(1.25)),
                         ids=("int", "float", "float64"))
@pytest.mark.parametrize("op", sorted(_NUMBER_OPS))
def test_a_number_operand_acts_as_its_constant_jet(op, c, order):
    # the number path never builds a constant jet, yet agrees exactly with
    # the operation on one
    u = jet_lift(lambda x, y: jets.sin(x) * y - x * x + 0.5, [0.3, -0.7],
                 order)
    fast = _NUMBER_OPS[op](u, c)
    assert isinstance(fast, Jet) and type(fast.value) is float
    assert _same(fast, _NUMBER_OPS[op](u, Jet.constant(c, 2, order)))


def _frozen(jet):
    """``jet`` with its arrays made read-only, as coordinate jets' are."""
    for a in (jet.grad, jet.hess):
        if a is not None:
            a.flags.writeable = False
    return jet


@pytest.mark.parametrize("order", (1, 2))
def test_coordinate_jets_are_read_only(order):
    x, y = jets.coordinate_jets([0.3, -0.7], order)
    assert x.grad.base is y.grad.base
    with pytest.raises(ValueError):
        x.grad[1] = 2.0
    with pytest.raises(ValueError):
        y.grad += 1.0
    if order == 2:
        assert x.hess is y.hess
        with pytest.raises(ValueError):
            x.hess[0, 0] = 1.0


@pytest.mark.parametrize("order", (1, 2))
def test_no_operation_writes_into_its_operands(order):
    # every operand is read-only, so an operation that wrote into one would
    # raise; the operands also keep their values
    x, y = jets.coordinate_jets([0.6, 1.3], order)
    u = _frozen(jets.exp(x) * y + 1.5)
    v = _frozen(x * x + y)
    before = [(j.value, j.grad.copy(), None if j.hess is None else j.hess.copy())
              for j in (x, y, u, v)]
    results = [
        u + v, u - v, u * v, u / v, -u, u + 2.0, 2.0 + u, u - 2.0, 2.0 - u,
        u * 2.0, 2.0 * u, u / 2.0, 2.0 / u, x + 1, 1 - x, 3 * x, x / 4,
        u ** 3, u ** -2, u ** 1.5, u ** 0, u ** v, x * y, x / y,
        jets.exp(u), jets.log(u), jets.sin(u), jets.cos(u), jets.sqrt(u),
        jets.atan(u), jets.atan2(u, v), jets.atan2(v, -u),
        jets.atan2(u, 0.5), jets.atan2(-0.5, u), u._reciprocal(),
        taylor_compose(v, [u, x]), taylor_compose(x, [x, y])]
    assert all(isinstance(r, Jet) for r in results)
    for j, (value, grad, hess) in zip((x, y, u, v), before):
        assert j.value == value and np.array_equal(j.grad, grad)
        assert hess is None or np.array_equal(j.hess, hess)


def test_every_jet_of_a_verify_run_keeps_the_constructor_contract(
        monkeypatch, capsys):
    # Jet.__init__ trusts its arguments; every jet a ``jdl verify`` run
    # builds must still have an int dim, a float value and float64 arrays
    # of the right shapes
    init = Jet.__init__
    built, broken = [0], []

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built[0] += 1
        n = self.dim
        grad_ok = (type(self.grad) is np.ndarray
                   and self.grad.dtype == np.float64
                   and self.grad.shape == (n,))
        hess_ok = (self.hess is None if self.order == 1 else
                   type(self.hess) is np.ndarray
                   and self.hess.dtype == np.float64
                   and self.hess.shape == (n, n))
        if not (type(n) is int and type(self.value) is float
                and type(self.order) is int and grad_ok and hess_ok):
            broken.append(repr((type(n), type(self.value), self.order,
                                getattr(self.grad, "shape", None),
                                getattr(self.hess, "shape", None))))

    monkeypatch.setattr(Jet, "__init__", checked)
    for spec_id in catalog.ENTRIES:
        main(["verify", spec_id, "--points", "5", "--seed", "1"])
    capsys.readouterr()
    assert built[0] > 10_000
    assert sorted(set(broken)) == []


# -- the Field memo holds one point; point_memo holds every point ------------

def _so3_bracket():
    """{f, g} on the so3 Lie-Poisson pair, with its chart."""
    from jdl.jacobi import bracket_field, lie_poisson, so3
    J = lie_poisson(so3())
    f = ScalarFieldSpec(3, lambda x, y, z: x * y + z)
    g = ScalarFieldSpec(3, lambda x, y, z: jets.exp(x) * z)
    return bracket_field(J, f, g), J.chart


def _peak_bytes_over(n_points):
    import tracemalloc
    from jdl.chart import sample_points
    fg, chart = _so3_bracket()
    pts = sample_points(chart, n_points, seed=61)
    tracemalloc.start()
    try:
        for p in pts:
            fg(p, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_memo_memory_does_not_grow_with_points():
    small, large = _peak_bytes_over(10), _peak_bytes_over(100)
    assert large <= 1.5 * small


def test_field_memo_revisit_matches_fresh_field():
    field = _so3_bracket()[0]
    p, q = np.array([0.3, -0.7, 1.1]), np.array([-1.2, 0.4, 0.9])
    for x in (p, q, p):
        got, fresh = field(x, 1), _so3_bracket()[0](x, 1)
        assert got.value == fresh.value
        assert np.array_equal(got.grad, fresh.grad)


def test_point_memo_keeps_every_point():
    from jdl.chart import Chart, sample_points
    from jdl.fields import point_memo
    calls = []

    def fn(p):
        calls.append(p.tobytes())
        return float(p.sum())

    memo = point_memo(fn)
    pts = sample_points(Chart("box2", 2, [(-1, 1)] * 2), 5, seed=62)
    for _ in range(2):
        assert [memo(p) for p in pts] == [float(p.sum()) for p in pts]
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 5


def test_point_memo_holds_at_most_its_cap():
    from jdl.fields import point_memo
    cap, calls = 4096, []
    memo = point_memo(lambda p: calls.append(p.tobytes()) or len(calls))
    pts = np.arange(cap + 1.0)[:, None]
    for p in pts:
        memo(p)
    assert len(calls) == cap + 1
    memo(pts[-1])                 # the newest point is kept
    assert len(calls) == cap + 1
    memo(pts[0])                  # the first went when the cap was passed
    assert len(calls) == cap + 2
