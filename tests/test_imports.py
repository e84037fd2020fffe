"""Source guards: every name a package module imports is one it uses, no
package module holds an assert statement, and importing the command line
loads nothing a command may not run."""

import ast
import os
import subprocess
import sys
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


# Slow to load and needed by no check or gen run: the records are plain
# classes, not dataclasses (which load inspect); hashlib serves only the
# invariant hashes and the ordinal calculus only the ordinal verb.
STARTUP_UNUSED = ("dataclasses", "inspect", "hashlib", "typing", "posetideals.ordinals")


def loaded_after(statement: str) -> list[str]:
    """The modules of STARTUP_UNUSED that a fresh ``python -S`` has loaded
    after running statement, with the package under test on its path."""
    code = (f"import sys\n{statement}\n"
            f"print(*[m for m in {STARTUP_UNUSED!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), check=True)
    return out.stdout.split()


def test_the_startup_guard_flags_what_it_should():
    statement = "import dataclasses, hashlib, typing, posetideals.ordinals"
    assert loaded_after(statement) == list(STARTUP_UNUSED)


def test_importing_the_cli_loads_nothing_a_check_does_not_run():
    assert loaded_after("import posetideals.cli") == []
