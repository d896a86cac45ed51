"""Source hygiene: every name a library module or test module imports is
used there, every module-level function and class of the library is read
somewhere in it or exported, every export but a listed few is read outside
the tests, library modules import at module level only and nothing beyond
ffzeta and the standard library, one function holds the library's only
square-and-multiply loop, one function reads the power-sum budget, one
function compares ideal candidate counts with a budget, Cantor's
composition has one home and two readers, one function reads the rank-2
equation from the multiplication table, one function reads the singular
locus, one writes the theorems' r >= q - 1, the search space has a pinned
list of fields, one predicate tests for digits, no command-line flag is
read with Python's int, every search verdict is listed in the output
schema, per-field tables are built in gf alone and the field cache is the
only module-level cache, and every module parses at the declared Python
floor."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import ffzeta

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ffzeta"
SOURCES = sorted(SRC.glob("*.py"))
LIBRARY = [p for p in SOURCES if p.name != "__init__.py"]
# every module outside the tests that may read an export
READERS = (LIBRARY + sorted((TESTS.parent / "demos").glob("*.py"))
           + sorted((TESTS.parent / "perfbench").rglob("*.py")))
MODULES = LIBRARY + sorted(TESTS.glob("*.py"))
EVERY_MODULE = SOURCES + sorted(TESTS.glob("*.py"))


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


def read_names(node):
    """The names one AST node reads: a loaded name, an attribute or the
    names of a from-import; the import test above keeps from-imports
    honest."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def unread_definitions(sources, exported):
    """(module, name) of every module-level function or class that no
    module reads outside its own definition and `exported` does not name.

    sources maps module name -> source text."""
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
                for name in read_names(inner):
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


def unread_exports(sources, exported):
    """The names of `exported` that no module of `sources` reads, sorted."""
    read = {name for source in sources for node in ast.walk(ast.parse(source))
            for name in read_names(node)}
    return sorted(set(exported) - read)


def test_detects_an_export_only_tests_read():
    sources = ["from pkg import a\nimport pkg\npkg.b()\n",
               "def c():\n    return d\n"]
    assert unread_exports(sources, ["a", "b", "c", "d", "e"]) == ["c", "e"]


# the exports that no module outside the tests reads: the package's version,
# an ideal built from generators, and a ring spec written back to text.  An
# export that only the tests read is listed here on purpose or leaves __all__
TEST_ONLY_EXPORTS = ["__version__", "ideal_from_generators",
                     "serialize_ring_spec"]


def test_exports_are_read_outside_the_tests():
    sources = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_exports(sources, ffzeta.__all__) == TEST_ONLY_EXPORTS


def square_and_multiply_loops(sources):
    """(module, function) of every function that shifts a variable right by
    one (`k >>= 1`) inside a loop: a square-and-multiply written by hand."""
    found = set()
    for module, source in sources.items():
        for fn in ast.walk(ast.parse(source)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for loop in ast.walk(fn):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                if any(isinstance(n, ast.AugAssign)
                       and isinstance(n.op, ast.RShift)
                       and isinstance(n.value, ast.Constant) and n.value.value == 1
                       for n in ast.walk(loop)):
                    found.add((module, fn.name))
    return sorted(found)


def test_detects_a_square_and_multiply_loop():
    sources = {
        "a": "def power(x, k):\n    r = 1\n    while k:\n        if k & 1:\n"
             "            r *= x\n        x *= x\n        k >>= 1\n    return r\n",
        "b": "def halve(k):\n    k >>= 1\n    return k\n\n"
             "def digits(k):\n    for _ in range(3):\n        k >>= 2\n",
    }
    assert square_and_multiply_loops(sources) == [("a", "power")]


def test_one_square_and_multiply():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert square_and_multiply_loops(sources) == [("gf", "square_and_multiply")]


def budget_knobs(sources):
    """`owner.name` of every function parameter and class-level annotated
    field (a dataclass field) named budget, h_budget or cap."""
    names = {"budget", "h_budget", "cap"}
    found = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                found += [f"{node.name}.{p.arg}" for p in params
                          if p is not None and p.arg in names]
            elif isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{s.target.id}" for s in node.body
                          if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)
                          and s.target.id in names]
    return sorted(found)


def test_detects_a_budget_knob():
    src = ("def f(x, *, budget=4):\n    cap = 2\n\n"
           "@dataclass\nclass C:\n    h_budget: int = 1\n    size: int = 2\n"
           "    cap = 3\n\n    def g(self, *cap):\n        pass\n")
    assert budget_knobs([src]) == ["C.h_budget", "f.budget", "g.cap"]


# budgets are module constants; the one limit a user sets, search --h-budget,
# reaches the ideal scan rule through these four
BUDGET_KNOBS = ["SearchSpace.h_budget", "class_group.budget",
                "l_polynomial.budget", "require_ideal_scan.budget"]


def test_no_per_call_budget_knobs():
    sources = [p.read_text(encoding="utf-8") for p in LIBRARY]
    assert budget_knobs(sources) == BUDGET_KNOBS


def owners_of(sources, matches):
    """(module, function) of every function that holds a node `matches`
    accepts; a node outside any function counts as "<module>"."""
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if matches(child):
                found.add((module, owner))
            visit(child, module, owner)

    for module, source in sources.items():
        visit(ast.parse(source), module, "<module>")
    return sorted(found)


def readers_of(sources, name):
    """(module, function) of every function that reads `name`, bare or as
    an attribute."""
    return owners_of(sources, lambda node: (
        isinstance(node, ast.Name) and node.id == name
        and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == name))


def test_detects_a_budget_reader():
    sources = {
        "a": "LIMIT = 4\n\ndef check(n):\n    return n > LIMIT\n\n"
             "def wrap():\n    def inner():\n        return LIMIT\n"
             "    return inner\n",
        "b": "import a\nCAP = a.LIMIT\n\ndef f(x, limit=a.LIMIT):\n"
             "    LIMIT = 3\n    return x\n",
    }
    assert readers_of(sources, "LIMIT") == [("a", "check"), ("a", "inner"),
                                            ("b", "<module>"), ("b", "f")]


def test_one_power_sum_budget_rule():
    # every power sum is refused or admitted by the one ledger rule
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert readers_of(sources, "DEFAULT_BUDGET") == [("zeta", "slice_leads")]


def test_one_ideal_budget_rule():
    # every ideal scan is refused or admitted by the one count rule
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert readers_of(sources, "count_ideal_candidates") == [
        ("ideals", "require_ideal_scan")]


def test_one_cantor_composition():
    # Cantor's composition formula has one home, CantorLaw.compose: the
    # walk's product and the prime route's pairs both go through it, and
    # no other function takes the extended gcd the formula needs
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert readers_of(sources, "compose") == [("ideals", "_extend"),
                                              ("ideals", "mul")]
    assert readers_of(sources, "poly_xgcd") == [("ideals", "compose")]


def test_detects_a_singular_locus_reader():
    # the report's field declaration is no read of it
    sources = {
        "ring": "@dataclass\nclass Report:\n    singular_finite: tuple\n",
        "a": "def refuse(rep):\n    if rep.singular_finite:\n"
             "        raise ValueError\n\n"
             "def stage(spec):\n    return spec.validate().singular_finite\n",
    }
    assert readers_of(sources, "singular_finite") == [("a", "refuse"),
                                                      ("a", "stage")]


def test_one_singular_locus_reader():
    # one rule refuses a ring that is not maximal: every caller, search's
    # ring-valid stage too, asks require_maximal
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert readers_of(sources, "singular_finite") == [
        ("ideals", "require_maximal")]


def q_minus_one_comparisons(sources):
    """(module, function) of every function that compares a value with
    q - 1, bare or as an argument of a call such as max(q - 1, ...)."""
    def q_minus_one(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.right, ast.Constant)
                and node.right.value == 1
                and "q" in (getattr(node.left, "id", None),
                            getattr(node.left, "attr", None)))

    def compares(node):
        if not isinstance(node, ast.Compare):
            return False
        return any(q_minus_one(op) or isinstance(op, ast.Call)
                   and any(map(q_minus_one, op.args))
                   for op in [node.left, *node.comparators])

    return owners_of(sources, compares)


def test_detects_a_q_minus_one_comparison():
    sources = {
        "a": "def good(rs, q):\n    return [r for r in rs if r >= q - 1]\n\n"
             "def floor(r, f):\n    return max(f.q - 1, 2) <= r\n\n"
             "def divides(s, q):\n    return s % (q - 1) == 0\n",
        "b": "def size(q):\n    return q - 1\n\n"
             "def low(r, q):\n    if r < q - 1:\n        return r\n",
    }
    assert q_minus_one_comparisons(sources) == [("a", "floor"), ("a", "good"),
                                                ("b", "low")]


def test_one_r_threshold():
    # the theorems' r >= q - 1 is written once, next to r_gap_values; search
    # and the checks read it there and add no threshold of their own
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert q_minus_one_comparisons(sources) == [
        ("semigroup", "theorem_r_values")]
    assert readers_of(sources, "theorem_r_values") == [
        ("search", "evaluate_candidate"),
        ("semigroup", "degree_q_theorem_check"),
        ("theorems", "_dinesh_checks"), ("theorems", "_tesismc_form")]


def class_fields(source, name):
    """The annotated class-level fields of class `name`, in order."""
    return [s.target.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name == name
            for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def test_detects_class_fields():
    src = ("@dataclass\nclass Space:\n    field: object\n    lo: int = 0\n"
           "    LIMIT = 3\n\n    def f(self):\n        x: int = 1\n\n"
           "class Other:\n    hi: int = 1\n")
    assert class_fields(src, "Space") == ["field", "lo"]


# what a search scans and within which budget; a new knob is a rule search
# would hold apart from the theorems, so it needs an edit here
SEARCH_SPACE_FIELDS = ["field", "family", "deg_a", "deg_b", "h_budget",
                       "fixed_a", "b_multiple_of_a", "start", "stop"]


def test_search_space_fields():
    source = (SRC / "search.py").read_text(encoding="utf-8")
    assert class_fields(source, "SearchSpace") == SEARCH_SPACE_FIELDS


def rank2_equation_readers(sources):
    """(module, function) of every function that subscripts a call of
    mul_table at [1][1], the cell b_1^2 that holds the rank-2 equation."""
    def cell(node):
        for _ in range(2):
            if not (isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Constant)
                    and node.slice.value == 1):
                return False
            node = node.value
        return (isinstance(node, ast.Call) and "mul_table" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)))

    return owners_of(sources, cell)


def test_detects_a_rank2_equation_reader():
    sources = {
        "a": "def f(s):\n    return s.mul_table()[1][1]\n\n"
             "def g(s):\n    t = s.mul_table()\n"
             "    return t[1][1], s.mul_table()[0][1], s.table[1][1]\n",
        "b": "def h():\n    r0, r1 = mul_table()[1][1]\n    return r0\n\n"
             "CELL = spec.mul_table()[1][1][0]\n",
    }
    assert rank2_equation_readers(sources) == [("a", "f"), ("b", "<module>"),
                                               ("b", "h")]


def test_one_rank2_equation_reader():
    # one sign convention for y^2 + h y = f, read in one place
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert rank2_equation_readers(sources) == [("ring", "hyperelliptic")]


def unicode_digit_tests(sources):
    """(module, function) of every function that reads str.isdigit,
    isdecimal or isnumeric: each also takes digits outside 0-9."""
    return sorted({found for name in ("isdigit", "isdecimal", "isnumeric")
                   for found in readers_of(sources, name)})


def test_detects_a_unicode_digit_test():
    sources = {
        "a": "def ok(s):\n    return s.isascii() and s.isdigit()\n\n"
             "def count(s):\n    return sum(c.isnumeric() for c in s)\n",
        "b": "def parse(s):\n    return int(s) if str.isdecimal(s) else None\n\n"
             "def word(s):\n    return s.isalnum()\n",
    }
    assert unicode_digit_tests(sources) == [("a", "count"), ("a", "ok"),
                                            ("b", "parse")]


def test_one_digit_predicate():
    # integers in literals and ring files are ASCII digits, tested in one place
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert unicode_digit_tests(sources) == [("gf", "is_ascii_digits")]


def module_caches(sources):
    """(module, name) of every module-level cache: a name bound at module
    level to a dict that a function writes to (by subscript, or by
    setdefault, update, pop or clear), and a function decorated with
    functools.cache or lru_cache."""
    writes = ("setdefault", "update", "pop", "popitem", "clear")
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        dicts = set()
        for node in tree.body:
            value = getattr(node, "value", None)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            if isinstance(value, (ast.Dict, ast.DictComp)) or (
                    isinstance(value, ast.Call)
                    and getattr(value.func, "id", None) == "dict"):
                dicts |= {t.id for t in targets if isinstance(t, ast.Name)}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if (getattr(dec, "attr", None) or getattr(dec, "id", None)
                            ) in ("cache", "lru_cache"):
                        found.add((module, node.name))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Subscript)
                        and isinstance(node.ctx, (ast.Store, ast.Del))):
                    name = node.value
                elif (isinstance(node, ast.Attribute) and node.attr in writes
                      and isinstance(node.ctx, ast.Load)):
                    name = node.value
                else:
                    continue
                if isinstance(name, ast.Name) and name.id in dicts:
                    found.add((module, name.id))
    return sorted(found)


def test_detects_a_module_cache():
    sources = {
        "a": "_SEEN = {}\nNAMES = {'x': 1}\n\ndef get(k):\n"
             "    if k not in _SEEN:\n        _SEEN[k] = NAMES[k]\n"
             "    return _SEEN[k]\n",
        "b": "import functools\n_T: dict = dict()\n\n@functools.lru_cache(8)\n"
             "def f(x):\n    return _T.setdefault(x, x)\n\n"
             "def g(x, local={}):\n    local[x] = 1\n",
    }
    assert module_caches(sources) == [("a", "_SEEN"), ("b", "_T"), ("b", "f")]


def field_scans(sources):
    """(module, function) of every function that runs over each code of a
    field, range(<field>.q), or over the monic polynomials of a degree,
    monic_polys(...): the loops that build per-field tables."""
    def scan(node):
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        return name == "monic_polys" or (
            name == "range" and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "q")

    return owners_of(sources, scan)


def test_detects_a_field_scan():
    sources = {
        "a": "def roots(E, f):\n    return [b for b in range(E.q) if f(b)]\n\n"
             "def count(q):\n    return [b for b in range(q ** 2)]\n",
        "b": "from gf import monic_polys\n\ndef primes(F, d):\n"
             "    return [M for M in monic_polys(F, d) if M]\n\n"
             "def size(F):\n    return range(F.q, 2)\n",
    }
    assert field_scans(sources) == [("a", "roots"), ("b", "primes")]


def test_per_field_tables_have_one_home():
    # orbits, root tables, embeddings and irreducibles are built and kept by
    # gf's FF, so every ring over a field reads one copy; the field cache
    # GF() keeps is the library's only module-level cache of data, beside
    # the one command-line parser a process builds.  Outside gf, only the
    # ideal enumerators run over monic polynomials, to list ideals
    sources = {p.stem: p.read_text(encoding="utf-8") for p in LIBRARY}
    assert module_caches(sources) == [("cli", "build_parser"),
                                      ("gf", "_FIELDS")]
    assert [found for found in field_scans(sources) if found[0] != "gf"] == [
        ("ideals", "_enumerate_ideals_general"),
        ("ideals", "_enumerate_ideals_m2")]


def int_type_arguments(source):
    """Lines of every call that passes `type=int`: argparse would then read
    the value with Python's int, which also takes '+', '_' and digits
    outside 0-9."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and any(kw.arg == "type" and isinstance(kw.value, ast.Name)
                          and kw.value.id == "int" for kw in node.keywords))


def test_detects_an_int_type_argument():
    src = ("p.add_argument('-s', type=int)\np.add_argument('--q',\n"
           "                 type=int, default=2)\n"
           "p.add_argument('-d', type=_integer)\nf(int, kind=int)\n"
           "isinstance(x, int)\n")
    assert int_type_arguments(src) == [1, 2]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_integer_flags_use_the_integer_reader(path):
    assert int_type_arguments(path.read_text(encoding="utf-8")) == []


def load_tracing():
    """perfbench/tracing.py as a module, loaded without installing it."""
    path = TESTS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # every callable the benchmark tracer wraps still exists under its name
    tracing = load_tracing()
    targets = tracing._targets(None)
    assert targets
    for owner_path, attr, *_ in targets:
        mod_name, _, cls = owner_path.partition(":")
        owner = importlib.import_module(mod_name)
        if cls:
            owner = owner.__dict__[cls]
        assert attr in owner.__dict__, f"{owner_path}.{attr}"
        assert callable(owner.__dict__[attr])


def verdict_marks(source, function="evaluate_candidate"):
    """How docs/schema.md must write each verdict `function` returns as the
    second item of a tuple: a string constant in backticks, an f-string's
    literal prefix after an opening backtick, anything else as its source."""
    marks = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.FunctionDef) and node.name == function):
            continue
        for ret in ast.walk(node):
            if not (isinstance(ret, ast.Return)
                    and isinstance(ret.value, ast.Tuple)):
                continue
            verdict = ret.value.elts[1]
            if isinstance(verdict, ast.Constant):
                marks.add(f"`{verdict.value}`")
            elif isinstance(verdict, ast.JoinedStr):
                prefix = ""
                for part in verdict.values:
                    if not isinstance(part, ast.Constant):
                        break
                    prefix += part.value
                marks.add(f"`{prefix}")
            else:
                marks.add(ast.unparse(verdict))
    return sorted(marks)


def test_detects_an_unlisted_verdict():
    src = ("def evaluate_candidate(x):\n    if x:\n        return 'a', 'x', None\n"
           "    if x > 1:\n        return 'a', f'bad: {x}!', None\n"
           "    return 'b', VERDICT, x\n\n"
           "def other():\n    return 'a', 'y', None\n")
    assert verdict_marks(src) == ["VERDICT", "`bad: ", "`x`"]


def test_every_search_verdict_is_documented():
    # a verdict search can record is one a reader of a checkpoint can look up
    source = (SRC / "search.py").read_text(encoding="utf-8")
    schema = (TESTS.parent / "docs" / "schema.md").read_text(encoding="utf-8")
    marks = verdict_marks(source)
    assert len(marks) == 6
    assert [m for m in marks if m not in schema] == []


def python_floor():
    """(major, minor) of the `requires-python = ">=X.Y"` floor in
    pyproject.toml."""
    text = (TESTS.parent / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    return int(found[1]), int(found[2])


def test_detects_syntax_above_the_floor():
    src = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(src, feature_version=(3, 10))


@pytest.mark.parametrize("path", EVERY_MODULE,
                         ids=[f"{p.parent.name}/{p.name}" for p in EVERY_MODULE])
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=python_floor())
