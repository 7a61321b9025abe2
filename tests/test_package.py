"""Hygiene of the ``jdl`` sources, read with ``ast``: every imported name
is used (in the test modules too), every definition is referenced, every
import sits at module level, every public function that builds a report
is timed, every timed check is in the catalog's table of checks, no public
definition is reached only by tests, no function takes a tolerance
parameter or a default jet order, no determinant decides nondegeneracy,
and every typed error is raised by some test."""
import ast
import textwrap
from functools import cache
from pathlib import Path

import pytest

from jdl import errors

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "jdl").glob("*.py"))
TEST_SOURCES = sorted(TESTS.glob("*.py"))
BENCHMARK_SOURCES = sorted((TESTS.parent / "perfbench").glob("*.py"))


@cache
def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"dualpair.py", "jets.py"}
    assert {p.name for p in TEST_SOURCES} >= {"conftest.py",
                                              "test_package.py"}


@pytest.mark.parametrize("path", SOURCES + TEST_SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []


def _definitions(node, prefix=""):
    """(qualified name, name) of each function, class and method under
    ``node``, special methods aside, and of each module-level binding
    ``name = call(...)``, such as a decorated function."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(node, ast.Module) and isinstance(child, ast.Assign)
                and isinstance(child.value, ast.Call)):
            yield from ((t.id, t.id) for t in child.targets
                        if isinstance(t, ast.Name))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
            if not (child.name.startswith("__")
                    and child.name.endswith("__")):
                yield prefix + child.name, child.name
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(func):
    """The names ``func`` binds itself: its parameters, and the assignment,
    loop and comprehension targets of its body."""
    names = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _names(node, local=frozenset()):
    """Every name referenced under ``node``, as a Name, an Attribute or an
    import alias; a Name that is assigned to, or that an enclosing function
    binds (``local``), is that binding's own and refers to no definition."""
    if isinstance(node, _FUNCTIONS):
        local = local | _bound(node)
    if isinstance(node, ast.Name):
        return (set() if node.id in local or isinstance(node.ctx, ast.Store)
                else {node.id})
    found = set()
    if isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif isinstance(node, ast.alias):
        found.add(node.name.split(".")[-1])
    for child in ast.iter_child_nodes(node):
        found |= _names(child, local)
    return found


def _referenced(paths):
    """Every name referenced in ``paths``, as :func:`_names` reads them."""
    return set().union(*(_names(_tree(path)) for path in paths))


def test_a_name_a_function_binds_references_no_definition(tmp_path):
    # a loop variable, a parameter and a comprehension target that share a
    # method's name do not reach it; an attribute does
    module = tmp_path / "synthetic.py"
    module.write_text(textwrap.dedent("""
        class Form:
            def coeff(self): ...
            def degree(self): ...
        def total(terms, degree):
            acc = 0
            for coeff in terms:
                acc = acc + coeff * degree
            return acc + sum(degree for degree in terms)
        def degree_of():
            return Form().degree()
        """))
    assert _referenced([module]) == {"Form", "degree", "sum"}


def test_a_module_level_call_binding_is_a_definition(tmp_path):
    # ``alias = wrap(impl)`` defines ``alias``, and its own target is no
    # reference to it; a constant is no definition
    module = tmp_path / "synthetic.py"
    module.write_text("def impl(): ...\nalias = wrap(impl)\nLIMIT = 3\n")
    assert sorted(_definitions(_tree(module))) == [("alias", "alias"),
                                                   ("impl", "impl")]
    assert _referenced([module]) == {"impl", "wrap"}


def test_every_definition_is_referenced():
    """Each function, class and method of ``jdl`` is referenced by name, as
    a Name, an Attribute or an import alias, in ``jdl`` or in the tests."""
    referenced = _referenced(SOURCES + TEST_SOURCES)
    dead = [f"{path.stem}.{qualified}" for path in SOURCES
            for qualified, name in _definitions(_tree(path))
            if name not in referenced]
    assert dead == []


def _timed_checks():
    """The name of each public function and method of ``jdl`` decorated
    with ``timed``."""
    return {node.name for path in SOURCES for node in ast.walk(_tree(path))
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and any(isinstance(d, ast.Name) and d.id == "timed"
                    for d in node.decorator_list)}


# Timed checks that ``catalog.CHECKS`` does not run, and why.
NOT_REGISTERED = {
    "centralizer_membership":
        "takes a section lambda besides the dual pair; no entry supplies one",
    "check_lcs": "takes an l.c.s. structure, which no catalog kind is",
    "check_jacobi_morphism":
        "runs on each leg inside the registered DualPairSpec.check_morphisms",
}


def test_every_timed_check_is_in_the_catalog_table():
    """``jdl verify`` runs every public timed check on some catalog id, or
    the check is on NOT_REGISTERED with its reason."""
    tree = _tree(TESTS.parent / "src" / "jdl" / "catalog.py")
    called = {getattr(node, "id", getattr(node, "attr", None))
              for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(_timed_checks() - called) == sorted(NOT_REGISTERED)


def test_definitions_only_tests_reach_are_named_oracles():
    """Every public definition of ``jdl`` is referenced by ``jdl`` itself or
    by the benchmark, timed checks aside: the oracles, controls and helpers
    that only tests use live in ``tests/oracles.py``."""
    reached = _referenced(SOURCES + BENCHMARK_SOURCES) | _timed_checks()
    test_only = [f"{path.stem}.{qualified}" for path in SOURCES
                 for qualified, name in _definitions(_tree(path))
                 if not name.startswith("_") and name not in reached]
    assert test_only == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [f"{func.name}:{node.lineno}"
              for func in ast.walk(_tree(path))
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_no_tolerance_parameter():
    """Each identity states its tolerance at the report it builds, and rank
    and angle decisions read ``linalg.RANK_TOL`` and ``linalg.ANGLE_TOL``:
    no function or method takes a ``tol`` or ``*_tol`` parameter."""
    knobs = [f"{path.stem}.{node.name}({arg.arg})" for path in SOURCES
             for node in ast.walk(_tree(path))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
             and (arg.arg == "tol" or arg.arg.endswith("_tol"))]
    assert knobs == []


def test_no_defaulted_order_parameter():
    """Jets stop at order 2 and every caller names the order it reads: no
    function or method of ``jdl`` gives a parameter named ``order`` a
    default."""
    defaulted = []
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, _FUNCTIONS):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            defaulted += [f"{path.stem}.{getattr(node, 'name', 'lambda')}"
                          for a in with_default if a.arg == "order"]
    assert defaulted == []


REPORT_BUILDERS = {"residual_report", "threshold_report", "CheckReport"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_report_builder_is_timed(path):
    """A public function that builds a report stamps its wall time."""
    untimed = []
    for node in ast.walk(_tree(path)):
        if (not isinstance(node, ast.FunctionDef) or node.name.startswith("_")
                or node.name in REPORT_BUILDERS):
            continue
        calls = {c.func.id for c in ast.walk(node)
                 if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
        decorators = {d.id for d in node.decorator_list
                      if isinstance(d, ast.Name)}
        if calls & REPORT_BUILDERS and "timed" not in decorators:
            untimed.append(node.name)
    assert untimed == []


def _det_calls(node, owner):
    """The function enclosing each ``*.det(...)`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "det"):
            yield owner
        inner = child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        yield from _det_calls(child, inner)


def test_no_determinant_threshold():
    """Nondegeneracy is decided by ``linalg.nondegeneracy`` against
    ``RANK_TOL``, which does not depend on the scale of the matrix; no
    function in ``src/jdl`` computes a determinant."""
    calls = [f"{path.stem}.{owner}" for path in SOURCES
             for owner in _det_calls(_tree(path), "<module>")]
    assert calls == []


def _object_dtypes(tree):
    """Line of each ``dtype=object`` keyword and ``.astype(object)`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "dtype":
            hit = node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "astype" and node.args):
            hit = node.args[0]
        else:
            continue
        if isinstance(hit, ast.Name) and hit.id == "object":
            yield hit.lineno


def test_no_object_array():
    """Jet linear algebra runs on dense float arrays, value and first
    derivatives apart: no ``jdl`` code builds an object-dtype array."""
    found = [f"{path.stem}:{line}" for path in SOURCES
             for line in _object_dtypes(_tree(path))]
    assert found == []
    assert sorted(_object_dtypes(ast.parse(
        "np.asarray(a, dtype=object)\nb.astype(object)\n"))) == [1, 2]


def test_every_error_is_raised_in_a_test():
    """Each ``JdlError`` subclass has a control: some test expects it in a
    ``pytest.raises``."""
    raised = set()
    for path in TEST_SOURCES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "raises" and node.args):
                raised |= {n.id for n in ast.walk(node.args[0])
                           if isinstance(n, ast.Name)}
    declared = {name for name, cls in vars(errors).items()
                if isinstance(cls, type) and issubclass(cls, errors.JdlError)
                and cls is not errors.JdlError}
    assert sorted(declared - raised) == []
