"""Source guards: every name a package module imports is one it uses, and
no package module holds an assert statement."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posetideals"
# __init__.py imports only to re-export
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module.

    A dotted ``import a.b`` binds ``a``; ``from __future__`` binds nothing.
    Attribute reads start at a Name node, so ``re.compile`` uses ``re``.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_guard_flags_what_it_should():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re\nfrom json import dumps as d, loads\n"
              "x: 'unused' = re.compile(d(1))\n")
    assert unused_imports(source) == ["loads", "os"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def assert_lines(source: str) -> list[int]:
    """Lines of the assert statements in a module: python -O strips them,
    so a result re-check written as one would silently stop running."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_assert_guard_flags_what_it_should():
    source = ("def f(x):\n    assert x, 'kept only without -O'\n"
              "    if not x:\n        raise AssertionError('kept')\n")
    assert assert_lines(source) == [2]


@pytest.mark.parametrize("name", SOURCES)
def test_no_module_holds_an_assert_statement(name):
    assert assert_lines((PACKAGE / name).read_text(encoding="utf-8")) == []
