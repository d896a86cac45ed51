"""Source hygiene: every name a library module or test module imports is
used there, every module-level function and class of the library is read
somewhere in it or exported, and library modules import at module level only
and nothing beyond ffzeta and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import ffzeta

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


def unread_definitions(sources, exported):
    """(module, name) of every module-level function or class that no
    module reads outside its own definition and `exported` does not name.

    sources maps module name -> source text.  A read is a loaded name, an
    attribute or a from-import; the import test above keeps from-imports
    honest."""
    defined = []
    readers = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = (module, node.name)
                defined.append(owner)
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    names = [inner.id]
                elif isinstance(inner, ast.Attribute):
                    names = [inner.attr]
                elif isinstance(inner, ast.ImportFrom):
                    names = [alias.name for alias in inner.names]
                else:
                    continue
                for name in names:
                    readers.setdefault(name, set()).add(owner)
    return sorted((module, name) for module, name in defined
                  if name not in exported
                  and not readers.get(name, set()) - {(module, name)})


def test_detects_an_unread_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef dead():\n    dead()\n\n"
             "class Shown:\n    pass\n\ndef _helper():\n    pass\n",
        "b": "from a import used\nimport a\n\ndef main():\n"
             "    used()\n    a._helper()\n",
    }
    assert unread_definitions(sources, {"Shown"}) == [("a", "dead"),
                                                      ("b", "main")]


# ideals.class_equivalent: perfbench/tracing.py wraps it by name, so it stays
# in the library although only the tests call it
UNREAD_ALLOWED = [("ideals", "class_equivalent")]


def test_every_definition_is_read_or_exported():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unread_definitions(sources, set(ffzeta.__all__)) == UNREAD_ALLOWED
