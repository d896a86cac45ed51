"""Source hygiene: every name a library module or test module imports is
used there, and library modules import at module level only."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ffzeta"
LIBRARY = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES = LIBRARY + sorted(TESTS.glob("*.py"))


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    src = "import os\nimport sys\nfrom math import gcd, lcm\nprint(sys.argv, lcm)\n"
    assert unused_imports(src) == [(1, "os"), (3, "gcd")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_level_imports(source):
    """(line, function name) of every import statement inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((inner.lineno, node.name))
    return sorted(found)


def test_detects_a_function_level_import():
    src = ("import os\n\nclass C:\n    def f(self):\n        import sys\n"
           "        def g():\n            from math import gcd\n")
    assert function_level_imports(src) == [(5, "f"), (7, "f"), (7, "g")]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_no_function_level_imports(path):
    assert function_level_imports(path.read_text(encoding="utf-8")) == []
