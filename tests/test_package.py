"""Hygiene of the ``jdl`` sources, read with ``ast``: every imported name
is used (in the test modules too), every definition is referenced, every
import sits at module level, and every public function that builds a
report is timed."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "jdl").glob("*.py"))
TEST_SOURCES = sorted(TESTS.glob("*.py"))


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
    ``node``, special methods aside."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            if not (child.name.startswith("__")
                    and child.name.endswith("__")):
                yield prefix + child.name, child.name
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_referenced():
    """Each function, class and method of ``jdl`` is referenced by name, as
    a Name, an Attribute or an import alias, in ``jdl`` or in the tests."""
    referenced = set()
    for path in SOURCES + TEST_SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.split(".")[-1])
    dead = [f"{path.stem}.{qualified}" for path in SOURCES
            for qualified, name in _definitions(_tree(path))
            if name not in referenced]
    assert dead == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = [f"{func.name}:{node.lineno}"
              for func in ast.walk(_tree(path))
              if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(func)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


REPORT_BUILDERS = {"residual_report", "threshold_report", "CheckReport",
                   "_check", "_evaluate"}


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
