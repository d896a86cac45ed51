import dataclasses

import pytest

import ffzeta.gf
import ffzeta.search as search
from ffzeta.errors import CheckpointError
from ffzeta.gf import GF, Poly, monic_polys, poly_from_str
from ffzeta.ideals import (DEFAULT_IDEAL_BUDGET, class_group,
                           ideal_from_generators, involution)
from ffzeta.ring import RingSpec
from ffzeta.search import (
    SearchSpace, SearchSummary, candidate_key, evaluate_candidate,
    merge_summaries, search_partition, search_run, summarize,
)
from ffzeta.theorems import CheckItem, check_tesismc

F2 = GF(2)
F3 = GF(3)

H4G3_KEY = "a=x^2 + x;b=x^7 + x^6 + x^5 + x"
SIBLING_KEY = "a=x^2 + x;b=x^7 + x^4 + x^3 + x"


@pytest.fixture(scope="module")
def family_space():
    """a = x^2 + x fixed, b a degree-7 multiple of a: 32 candidates."""
    return SearchSpace(F2, fixed_a=poly_from_str(F2, "x^2 + x"),
                       deg_b=(7, 7), b_multiple_of_a=True)


@pytest.fixture(scope="module")
def family_run(family_space):
    return search_run(family_space)


def shape(records):
    return [(r.index, r.coeffs, r.stage, r.verdict) for r in records]


# -- space geometry ---------------------------------------------------------

def test_size_and_window(family_space):
    assert family_space.size() == 32
    assert family_space.window() == (0, 32)
    sub = dataclasses.replace(family_space, start=10, stop=13)
    assert sub.window() == (10, 13)


def test_candidates_are_ordered_multiples(family_space):
    a = family_space.fixed_a
    cands = list(family_space.candidates())
    assert [idx for idx, _, _ in cands] == list(range(32))
    for _, ca, cb in cands:
        assert ca == a
        assert cb.degree == 7 and cb.is_monic
        q, r = divmod(cb, a)
        assert r.is_zero and q.degree == 5
    assert len({candidate_key(ca, cb) for _, ca, cb in cands}) == 32


def test_windowed_candidates_match_slice(family_space):
    full = list(family_space.candidates())
    sub = dataclasses.replace(family_space, start=10, stop=13)
    assert list(sub.candidates()) == full[10:13]


def walk_from_zero(space):
    """Oracle: every candidate of the space in scan order from index 0,
    kept when its index lies in the window."""
    field = space.field
    start, stop = space.window()
    if space.fixed_a is not None:
        rows = [[space.fixed_a]]
    else:
        rows = [list(monic_polys(field, d))
                for d in range(space.deg_a[0], space.deg_a[1] + 1)]
    idx = 0
    for a in (a for row in rows for a in row):
        for db in range(space.deg_b[0], space.deg_b[1] + 1):
            if space.b_multiple_of_a:
                bs = [a * c for c in monic_polys(field, db - a.degree)]
            else:
                bs = list(monic_polys(field, db))
            for b in bs:
                if start <= idx < stop:
                    yield idx, a, b
                idx += 1


# the three search windows of the benchmark, each with its block count, and
# a --b-div-a space whose a of degree 0..2 each span a different number of b
WINDOWS = [
    (SearchSpace(F2, fixed_a=poly_from_str(F2, "x^2 + x"), deg_b=(7, 7),
                 b_multiple_of_a=True), 4),
    (SearchSpace(F2, deg_a=(1, 2), deg_b=(5, 5)), 24),
    (SearchSpace(F3, deg_a=(1, 1), deg_b=(5, 5)), 91),
    (SearchSpace(F3, deg_a=(0, 2), deg_b=(1, 3), b_multiple_of_a=True), 7),
]


@pytest.mark.parametrize("space, parts", WINDOWS)
def test_every_block_matches_the_walk_from_zero(space, parts):
    assert list(space.candidates()) == list(walk_from_zero(space))
    for block in search_partition(space, parts):
        assert list(block.candidates()) == list(walk_from_zero(block))


def test_last_block_builds_only_its_own_candidates(monkeypatch):
    # the last of 91 blocks of q = 3, deg a = 1, deg b = 5 holds the 8
    # candidates from index 721 on; the 721 before it are skipped by count
    built = []
    real_init = Poly.__init__

    def counted_init(self, field, coeffs):
        built.append(1)
        real_init(self, field, coeffs)

    def counted_poly(field, packed):
        built.append(1)
        return real_poly(field, packed)

    real_poly = ffzeta.gf._poly
    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(ffzeta.gf, "_poly", counted_poly)
    space, parts = WINDOWS[2]
    block = search_partition(space, parts)[-1]
    assert block.window() == (721, 729)
    assert len(list(block.candidates())) == 8
    assert len(built) <= 2 * 8


def test_unrestricted_size_formula():
    space = SearchSpace(F2, deg_a=(1, 2), deg_b=(3, 5))
    # (2 + 4) choices of a times (8 + 16 + 32) choices of b
    assert space.size() == 6 * 56
    space = SearchSpace(GF(3), deg_a=(1, 1), deg_b=(2, 2))
    assert space.size() == 3 * 9


def test_space_validation():
    with pytest.raises(ValueError, match="unknown family"):
        SearchSpace(F2, family="elliptic")
    with pytest.raises(ValueError, match="unknown family"):
        SearchSpace(GF(3), family="hyperelliptic-q2")
    with pytest.raises(ValueError, match="degree ranges"):
        SearchSpace(F2, deg_a=(2, 1))
    with pytest.raises(ValueError, match="nonzero"):
        SearchSpace(F2, fixed_a=Poly.zero(F2))
    for r in (0, -5):
        with pytest.raises(ValueError,
                           match=f"^h_budget must be at least 1, got {r}$"):
            SearchSpace(F2, h_budget=r)


def test_describe(family_space):
    d = family_space.describe()
    assert d["q"] == 2 and d["size"] == 32
    assert d["fixed_a"] == "x^2 + x"
    assert d["window"] == [0, 32]
    assert d["family"] == "artin-schreier"


# -- single-candidate pipeline ----------------------------------------------

def witness(report, name):
    """The witness of the check `name` in a hypothesis report."""
    return next(c.witness for c in report.checks if c.name == name)


def test_evaluate_singular():
    stage, verdict, report = evaluate_candidate(
        SearchSpace(F2), Poly.zero(F2), poly_from_str(F2, "x^3"))
    assert (stage, verdict) == ("ring-valid", "singular")
    assert report is None


def test_evaluate_invalid_weight():
    # deg a = 4 breaks the weight condition against N = 5
    stage, verdict, _ = evaluate_candidate(
        SearchSpace(F2), poly_from_str(F2, "x^4"),
        poly_from_str(F2, "x^5 + x + 1"))
    assert (stage, verdict) == ("ring-valid", "invalid")


def test_evaluate_invalid_even_degree():
    stage, verdict, _ = evaluate_candidate(
        SearchSpace(F2), poly_from_str(F2, "x"),
        poly_from_str(F2, "x^4 + x + 1"))
    assert (stage, verdict) == ("ring-valid", "invalid")


def test_evaluate_no_valid_r_at_q3():
    # at q >= 3 the semigroup <q, N> has no valid r >= q - 1 (see
    # `theorems`), so a candidate that validates stops at the gap stage
    a, b = poly_from_str(F3, "x"), poly_from_str(F3, "x^5 + x + 1")
    assert evaluate_candidate(SearchSpace(F3), a, b) == (
        "gap-structure", "no-valid-r", None)


def test_evaluate_known_pass():
    a = poly_from_str(F2, "x^2 + x")
    b = poly_from_str(F2, "x^7 + x^6 + x^5 + x")
    stage, verdict, report = evaluate_candidate(SearchSpace(F2), a, b)
    assert (stage, verdict) == ("hypotheses", "pass")
    assert report.applicable
    classes = witness(report, "class group computed")
    assert classes["h"] == 4
    assert report.exponent == classes["e"] * 1    # at s = q - 1 = 1
    # search takes the conditions only: no zeta, so no order and no remark
    assert report.computed is None
    assert report.remark is None


@pytest.mark.parametrize("space", [
    SearchSpace(F2, fixed_a=poly_from_str(F2, "x^2 + x"), deg_b=(7, 7),
                b_multiple_of_a=True),
    SearchSpace(F2, deg_a=(1, 2), deg_b=(5, 5)),
], ids=["crit9", "q2a12b5"])
def test_class_conditions_force_exponent_at_most_two(space):
    # a chain past "each f_k squarefree and divides b(x)" has f_k in F_2[x],
    # fixed by the involution sigma: sigma(I_k) = I_k, so I_k^2 = (N I_k)
    # and e <= 2; a chain that goes on to its digit condition passes it at
    # s = q - 1 = 1
    seen = 0
    for _, a, b in space.candidates():
        _, verdict, report = evaluate_candidate(space, a, b)
        if report is None or not any(
                c.name == "each f_k squarefree and divides b(x)" and c.passed
                for c in report.checks):
            continue
        spec = RingSpec.cab(F2, (-b, -a))
        cg = class_group(spec)
        assert cg.e <= 2
        for cls in cg.nontrivial():
            gens = [involution(g) for g in cls.rep.generators()]
            assert ideal_from_generators(gens, spec) == cls.rep
        if report.mu is None:    # stopped before the digit condition
            assert verdict == "failed: mu >= 1"
            continue
        assert verdict == "pass" and report.exponent == cg.e
        seen += 1
    assert seen


def test_known_pass_chain_attaches_the_remark():
    a = poly_from_str(F2, "x^2 + x")
    b = poly_from_str(F2, "x^7 + x^6 + x^5 + x")
    rep = check_tesismc(RingSpec.cab(F2, (-b, -a)), 1)
    assert rep.applicable and rep.computed == 2
    assert rep.remark.identity_holds


def test_equation_conditions_come_before_the_class_group(monkeypatch):
    # u = (x^5 + 1)/x^2 has a pole of order 2 = p at x: the chain stops at
    # the equation, and no class group is asked for
    def no_class_group(*args, **kwargs):
        raise AssertionError("class group computed before the equation")

    monkeypatch.setattr(search, "class_group", no_class_group)
    stage, verdict, report = evaluate_candidate(
        SearchSpace(F2), poly_from_str(F2, "x"), poly_from_str(F2, "x^5 + 1"))
    assert (stage, verdict) == (
        "hypotheses", "failed: negative exponents of u = b/a^q coprime to p")
    assert report.checks == (
        CheckItem("form y^q - a^{q-1} y = b", True, {"a": "x", "b": "x^5 + 1"}),
        CheckItem("gcd(N, p) = 1", True, {"N": 5, "p": 2}),
        CheckItem("N > q deg a", True, {"N": 5, "q deg a": 2}),
        CheckItem("negative exponents of u = b/a^q coprime to p", False,
                  {"profile": [("x", -2), ("x + 1", 1),
                               ("x^4 + x^3 + x^2 + x + 1", 1)],
                   "violations": [("x", -2)]}))
    assert not report.applicable and report.mu is None


def test_h_budget_is_decided_at_the_genus():
    # h4g3 has g = 3, and its degree-3 enumeration scans 72 candidates, so
    # class_group(h4g3, budget=71) is refused (test_ideals)
    a = poly_from_str(F2, "x^2 + x")
    b = poly_from_str(F2, "x^7 + x^6 + x^5 + x")
    assert evaluate_candidate(SearchSpace(F2, h_budget=71), a, b) == (
        "class-group", "budget-exceeded", None)
    assert evaluate_candidate(SearchSpace(F2, h_budget=72), a, b)[:2] == (
        "hypotheses", "pass")


@pytest.mark.parametrize("b, verdict", [
    ("x^7 + x^6 + x^5 + x", "pass"),
    ("x^7 + x^6 + x^3 + x", "failed: each f_k squarefree and divides b(x)"),
])
def test_h_budget_above_the_default_keeps_the_verdict(b, verdict,
                                                      monkeypatch):
    # the class group takes the search's budget, not class_group's default
    budgets = []

    def recorded(spec, *, budget):
        budgets.append(budget)
        return class_group(spec, budget=budget)

    monkeypatch.setattr(search, "class_group", recorded)
    a = poly_from_str(F2, "x^2 + x")
    b = poly_from_str(F2, b)
    default = evaluate_candidate(SearchSpace(F2), a, b)
    assert default[:2] == ("hypotheses", verdict)
    assert evaluate_candidate(
        SearchSpace(F2, h_budget=2 * DEFAULT_IDEAL_BUDGET), a, b) == default
    assert budgets == [DEFAULT_IDEAL_BUDGET, 2 * DEFAULT_IDEAL_BUDGET]


# -- full runs --------------------------------------------------------------

def test_window_verdicts():
    # search --q 2 --family artin-schreier --deg-a 1..2 --deg-b 5
    _, summary = search_run(SearchSpace(F2, deg_a=(1, 2), deg_b=(5, 5)))
    assert summary.total == 192
    assert summary.outcomes == {
        "ring-valid:singular": 96,
        "hypotheses:failed: negative exponents of u = b/a^q coprime to p": 56,
        "hypotheses:failed: each f_k squarefree and divides b(x)": 28,
        "hypotheses:pass": 8,
        "hypotheses:failed: mu >= 1": 4,
    }
    assert summary.passing == (
        "a=x;b=x^5 + x^2 + x", "a=x;b=x^5 + x^4 + x^3 + x^2 + x",
        "a=x + 1;b=x^5 + x^3 + x + 1", "a=x + 1;b=x^5 + x^4 + x^2 + 1",
        "a=x^2;b=x^5 + x^4 + x", "a=x^2;b=x^5 + x^4 + x^3 + x^2 + x",
        "a=x^2 + 1;b=x^5 + 1", "a=x^2 + 1;b=x^5 + x^3 + x + 1")


def test_family_run_finds_known_curves(family_run):
    records, summary = family_run
    assert summary.total == 32
    assert H4G3_KEY in summary.passing
    assert SIBLING_KEY in summary.passing
    assert summary.outcomes["hypotheses:pass"] == len(summary.passing)
    assert sum(summary.outcomes.values()) == 32
    fresh = [r for r in records if not r.resumed]
    assert len(fresh) == 32
    assert summarize(records) == summary


def test_run_is_deterministic(family_space, family_run):
    records, summary = family_run
    again, summary2 = search_run(family_space)
    assert shape(again) == shape(records)
    assert summary2 == summary


def test_partitioned_runs_merge(family_space, family_run):
    _, summary = family_run
    pieces = search_partition(family_space, 4)
    assert [p.window() for p in pieces] == [(0, 8), (8, 16), (16, 24),
                                            (24, 32)]
    parts = [search_run(p) for p in pieces]
    merged = merge_summaries([s for _, s in parts])
    assert merged == summary
    indices = [r.index for recs, _ in parts for r in recs]
    assert indices == list(range(32))


def test_uneven_partition(family_space):
    sizes = [p.window()[1] - p.window()[0]
             for p in search_partition(family_space, 5)]
    assert sizes == [7, 7, 6, 6, 6]
    with pytest.raises(ValueError):
        search_partition(family_space, 0)


def test_resume_skips_checkpointed(tmp_path, family_space, family_run):
    records, summary = family_run
    ckpt = tmp_path / "run.ckpt"
    first = dataclasses.replace(family_space, stop=16)
    search_run(first, checkpoint=str(ckpt))
    lines = ckpt.read_text().splitlines()
    assert lines[0] == "# search q=2 h_budget=4000000"
    assert len(lines[1:]) == 16

    resumed_records, resumed_summary = search_run(family_space,
                                                  checkpoint=str(ckpt))
    assert sum(r.resumed for r in resumed_records) == 16
    assert all(r.resumed for r in resumed_records[:16])
    # fresh or resumed, a record keeps the verdict and no stage reports
    assert not any(hasattr(r, "reports") for r in resumed_records)
    assert shape(resumed_records) == shape(records)
    assert resumed_summary == summary
    # second full pass over the same checkpoint recomputes nothing
    again, _ = search_run(family_space, checkpoint=str(ckpt))
    assert all(r.resumed for r in again)


def test_corrupt_checkpoint_refused(tmp_path, family_space):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text("a=x;b=x^3\tring-valid\n")
    with pytest.raises(CheckpointError, match="line 1"):
        search_run(family_space, checkpoint=str(ckpt))
    ckpt.write_text("a=x;b=x^3\tnot-a-stage\tpass\n")
    with pytest.raises(CheckpointError):
        search_run(family_space, checkpoint=str(ckpt))
    ckpt.write_text("\na=x;b=x^3\tring-valid\tinvalid\n")
    records, _ = search_run(dataclasses.replace(family_space, stop=1),
                            checkpoint=str(ckpt))
    assert not records[0].resumed     # blank lines fine, key unknown
    # a verdict no search gives now, such as the hypotheses:no-small-s of
    # an older scan over s, resumes as it was written
    key = next(candidate_key(a, b) for _, a, b in family_space.candidates())
    ckpt.write_text(f"{key}\thypotheses\tno-small-s\n")
    records, summary = search_run(dataclasses.replace(family_space, stop=1),
                                  checkpoint=str(ckpt))
    assert records[0].resumed
    assert summary.outcomes == {"hypotheses:no-small-s": 1}


def test_checkpoint_of_another_search_refused(tmp_path):
    # a=x;b=x^3 + 1 fails a hypothesis over F_2 and is not a valid ring over
    # F_3; a q = 3 run must not resume the F_2 verdict
    ckpt = tmp_path / "q2.ckpt"
    q2 = SearchSpace(F2, deg_b=(3, 3))
    records, _ = search_run(q2, checkpoint=str(ckpt))
    assert ("a=x;b=x^3 + 1", "hypotheses") in {(r.coeffs, r.stage)
                                               for r in records}
    before = ckpt.read_text()
    for space in (SearchSpace(F3, deg_b=(3, 3)),
                  dataclasses.replace(q2, h_budget=1000)):
        with pytest.raises(CheckpointError, match="header '# search q=2 "):
            search_run(space, checkpoint=str(ckpt))
    assert ckpt.read_text() == before
    # the same settings with another degree window resume it
    again, _ = search_run(dataclasses.replace(q2, deg_b=(2, 3)),
                          checkpoint=str(ckpt))
    assert sum(r.resumed for r in again) == len(records)


def test_checkpoint_with_a_min_r_header(tmp_path, family_space, family_run):
    # a checkpoint written while search had a min_r knob is refused as any
    # other header is, and resumes once its header line is deleted
    records, _ = family_run
    ckpt = tmp_path / "min_r.ckpt"
    body = "".join(f"{r.coeffs}\t{r.stage}\t{r.verdict}\n" for r in records[:4])
    ckpt.write_text("# search q=2 min_r=None h_budget=4000000\n" + body)
    with pytest.raises(CheckpointError, match="^.*: header '# search q=2 "
                       "min_r=None h_budget=4000000', not '# search q=2 "
                       "h_budget=4000000'$"):
        search_run(family_space, checkpoint=str(ckpt))
    ckpt.write_text(body)
    resumed, _ = search_run(family_space, checkpoint=str(ckpt))
    assert [r.resumed for r in resumed] == [True] * 4 + [False] * 28
    assert shape(resumed) == shape(records)


def test_headerless_checkpoint_read_and_extended(tmp_path, family_space,
                                                 family_run):
    # three-field files from before the header are resumed as they are and
    # get no header appended mid-file
    records, _ = family_run
    ckpt = tmp_path / "old.ckpt"
    old = "".join(f"{r.coeffs}\t{r.stage}\t{r.verdict}\n" for r in records[:4])
    ckpt.write_text(old)
    resumed, _ = search_run(family_space, checkpoint=str(ckpt))
    assert [r.resumed for r in resumed] == [True] * 4 + [False] * 28
    lines = ckpt.read_text().splitlines()
    assert len(lines) == 32 and not any(x.startswith("#") for x in lines)


def test_header_only_on_the_first_line(tmp_path, family_space):
    ckpt = tmp_path / "late.ckpt"
    ckpt.write_text("a=x;b=x^3\tring-valid\tinvalid\n"
                    "# search q=2 h_budget=4000000\n")
    with pytest.raises(CheckpointError, match="line 2"):
        search_run(family_space, checkpoint=str(ckpt))


def test_merge_summaries_empty():
    merged = merge_summaries([])
    assert merged == SearchSummary(total=0, outcomes={}, passing=())
