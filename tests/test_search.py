import dataclasses

import pytest

from ffzeta.errors import CheckpointError
from ffzeta.gf import GF, Poly, poly_from_str
from ffzeta.search import (
    SearchSpace, SearchSummary, candidate_key, evaluate_candidate,
    merge_summaries, search_partition, search_run, summarize,
)

F2 = GF(2)

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


def test_describe(family_space):
    d = family_space.describe()
    assert d["q"] == 2 and d["size"] == 32
    assert d["fixed_a"] == "x^2 + x"
    assert d["window"] == [0, 32]
    assert d["family"] == "artin-schreier"


# -- single-candidate pipeline ----------------------------------------------

def test_evaluate_singular():
    stage, verdict, reports = evaluate_candidate(
        F2, Poly.zero(F2), poly_from_str(F2, "x^3"))
    assert (stage, verdict) == ("ring-valid", "singular")
    assert reports is None


def test_evaluate_invalid_weight():
    # deg a = 4 breaks the weight condition against N = 5
    stage, verdict, _ = evaluate_candidate(
        F2, poly_from_str(F2, "x^4"), poly_from_str(F2, "x^5 + x + 1"))
    assert (stage, verdict) == ("ring-valid", "invalid")


def test_evaluate_invalid_even_degree():
    stage, verdict, _ = evaluate_candidate(
        F2, poly_from_str(F2, "x"), poly_from_str(F2, "x^4 + x + 1"))
    assert (stage, verdict) == ("ring-valid", "invalid")


def test_evaluate_min_r_filter():
    a = poly_from_str(F2, "x^2 + x")
    b = poly_from_str(F2, "x^7 + x^6 + x^5 + x")
    stage, verdict, reports = evaluate_candidate(F2, a, b, min_r=7)
    assert (stage, verdict) == ("gap-structure", "no-valid-r")
    assert max(reports["gap"].valid_r) < 7


def test_evaluate_known_pass():
    a = poly_from_str(F2, "x^2 + x")
    b = poly_from_str(F2, "x^7 + x^6 + x^5 + x")
    stage, verdict, reports = evaluate_candidate(F2, a, b)
    assert (stage, verdict) == ("hypotheses", "pass")
    assert reports["s"] == 1
    assert reports["class"].h == 4
    assert reports["hypothesis"].applicable
    assert reports["hypothesis"].remark.identity_holds


# -- full runs --------------------------------------------------------------

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
    assert len(ckpt.read_text().splitlines()) == 16

    resumed_records, resumed_summary = search_run(family_space,
                                                  checkpoint=str(ckpt))
    assert sum(r.resumed for r in resumed_records) == 16
    assert all(r.resumed for r in resumed_records[:16])
    assert all(r.reports is None for r in resumed_records if r.resumed)
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


def test_merge_summaries_empty():
    merged = merge_summaries([])
    assert merged == SearchSummary(total=0, outcomes={}, passing=())
