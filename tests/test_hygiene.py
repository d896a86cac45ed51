"""Source hygiene: every name a library module or test module imports is
used there, and library modules import at module level only and nothing
beyond ffzeta and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ffzeta"
SOURCES = sorted(SRC.glob("*.py"))
LIBRARY = [p for p in SOURCES if p.name != "__init__.py"]
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


def third_party_imports(source):
    """(line, module) of every absolute import outside ffzeta and the
    standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "ffzeta" and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return sorted(found)


def test_detects_a_third_party_import():
    src = ("import os.path\nimport numpy as np\nfrom ffzeta.gf import GF\n"
           "from . import ring\nfrom scipy.linalg import det\n")
    assert third_party_imports(src) == [(2, "numpy"), (5, "scipy.linalg")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_stdlib_only(path):
    assert third_party_imports(path.read_text(encoding="utf-8")) == []
