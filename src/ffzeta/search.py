"""Brute-force hunt for Artin-Schreier rings passing the all-ideals
hypothesis chain, with deterministic ordering, disjoint partitioning, and a
line-oriented append-only checkpoint.

Candidates are (a, b) pairs defining y^q - a(x)^{q-1} y = b(x), scanned
lexicographically: degree of a ascending, a in counting order, degree of b
ascending, b in counting order (through the quotient b/a when the family
restricts b to multiples of a).  Each candidate runs a staged pipeline,
cheapest first; the stage reached and its verdict are the record.  A
checkpoint stores one `coeffs<TAB>stage<TAB>verdict` line per finished
candidate, so a killed run resumes by skipping whatever is already present.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ffzeta.errors import BudgetError, CheckpointError, NonMaximalRingError
from ffzeta.gf import Poly, monic_polys, poly_to_str
from ffzeta.ideals import class_group, DEFAULT_IDEAL_BUDGET
from ffzeta.ring import RingSpec
from ffzeta.semigroup import r_gap_values, semigroup_from_ring

STAGES = ("ring-valid", "gap-structure", "class-group", "hypotheses")
FAMILIES = ("artin-schreier",)

# multipliers k tried for s = k(q-1) before giving up on the digit condition
_S_SCAN = 16


@dataclass(frozen=True)
class SearchSpace:
    field: object
    family: str = "artin-schreier"
    deg_a: tuple = (1, 1)
    deg_b: tuple = (3, 3)
    min_r: int = None
    h_budget: int = DEFAULT_IDEAL_BUDGET
    fixed_a: object = None
    b_multiple_of_a: bool = False
    start: int = 0          # candidate index window for partitioned runs
    stop: int = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for lo, hi in (self.deg_a, self.deg_b):
            if lo < 0 or hi < lo:
                raise ValueError("degree ranges must be 0 <= lo <= hi")
        if self.fixed_a is not None and self.fixed_a.is_zero:
            raise ValueError("fixed a must be nonzero")

    def _a_choices(self):
        if self.fixed_a is not None:
            return [(self.fixed_a.degree, [self.fixed_a])]
        lo, hi = self.deg_a
        return [(d, None) for d in range(lo, hi + 1)]

    def size(self):
        """Unwindowed candidate count: the product of coefficient counts,
        summed over the degree grid."""
        q = self.field.q
        total = 0
        for da, fixed in self._a_choices():
            n_a = 1 if fixed is not None else q ** da
            for db in range(self.deg_b[0], self.deg_b[1] + 1):
                if self.b_multiple_of_a:
                    if db < da:
                        continue
                    total += n_a * q ** (db - da)
                else:
                    total += n_a * q ** db
        return total

    def window(self):
        n = self.size()
        stop = n if self.stop is None else min(self.stop, n)
        return self.start, stop

    def candidates(self):
        """(index, a, b) triples inside this space's window, in order."""
        field = self.field
        start, stop = self.window()
        idx = 0
        for da, fixed in self._a_choices():
            a_iter = fixed if fixed is not None else monic_polys(field, da)
            for a in a_iter:
                for db in range(self.deg_b[0], self.deg_b[1] + 1):
                    if self.b_multiple_of_a:
                        if db < da:
                            continue
                        b_iter = (a * c for c in monic_polys(field, db - da))
                    else:
                        b_iter = monic_polys(field, db)
                    for b in b_iter:
                        if idx >= stop:
                            return
                        if idx >= start:
                            yield idx, a, b
                        idx += 1

    def describe(self):
        d = {"q": self.field.q, "family": self.family,
             "deg_a": list(self.deg_a), "deg_b": list(self.deg_b),
             "min_r": self.min_r, "h_budget": self.h_budget,
             "b_multiple_of_a": self.b_multiple_of_a,
             "window": list(self.window()), "size": self.size()}
        if self.fixed_a is not None:
            d["fixed_a"] = poly_to_str(self.fixed_a)
        return d


@dataclass
class SearchRecord:
    index: int
    coeffs: str
    stage: str
    verdict: str
    reports: dict = None     # populated only for freshly evaluated candidates
    resumed: bool = False


@dataclass
class SearchSummary:
    total: int
    outcomes: dict           # "stage:verdict" -> count
    passing: tuple           # coeffs keys with a full hypothesis pass

    def __eq__(self, other):
        return (isinstance(other, SearchSummary) and self.total == other.total
                and self.outcomes == other.outcomes
                and tuple(self.passing) == tuple(other.passing))


def candidate_key(a, b):
    return f"a={poly_to_str(a)};b={poly_to_str(b)}"


def evaluate_candidate(field, a, b, *, min_r=None,
                       h_budget=DEFAULT_IDEAL_BUDGET):
    """Run the staged pipeline on one (a, b); returns (stage, verdict, reports)."""
    from ffzeta.theorems import check_tesismc

    q = field.q
    coeffs = [-b, -(a ** (q - 1))] + [Poly.zero(field)] * (q - 2)
    try:
        spec = RingSpec.cab(field, tuple(coeffs))
        report = spec.validate()
    except ValueError:
        return "ring-valid", "invalid", None
    if not report.ok:
        return "ring-valid", "invalid", None
    if report.singular_finite:
        return "ring-valid", "singular", None

    S = semigroup_from_ring(spec)
    rr = r_gap_values(S, q)
    need = max(q - 1, min_r or 1)
    good = [r for r in rr.valid_r if r >= need]
    if not good:
        return "gap-structure", "no-valid-r", {"gap": rr}

    try:
        cg = class_group(spec, budget=h_budget)
    except BudgetError:
        return "class-group", "budget-exceeded", {"gap": rr}
    except NonMaximalRingError:
        return "ring-valid", "singular", None

    hyp = None
    for k in range(1, _S_SCAN + 1):
        s = k * (q - 1)
        hyp = check_tesismc(spec, s, cg, budget=h_budget, with_remark=False)
        if hyp.applicable:
            full = check_tesismc(spec, s, cg, budget=h_budget)
            return "hypotheses", "pass", {"gap": rr, "class": cg,
                                          "hypothesis": full, "s": s}
        bad = hyp.failed_check()
        if bad is not None and bad.name != "l_q(es)/(q-1) <= mu":
            return ("hypotheses", f"failed: {bad.name}",
                    {"gap": rr, "class": cg, "hypothesis": hyp})
    return "hypotheses", "no-small-s", {"gap": rr, "class": cg,
                                        "hypothesis": hyp}


def _read_checkpoint(path):
    seen = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return seen
    for i, line in enumerate(lines, start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] == "" or parts[1] not in STAGES:
            raise CheckpointError(f"{path}: malformed record on line {i}")
        seen[parts[0]] = (parts[1], parts[2])
    return seen


def search_run(space, checkpoint=None):
    """Evaluate every candidate in the window once across resumed runs.

    Returns (records, summary).  Records for candidates already present in
    the checkpoint carry the stored stage/verdict with no reports.
    """
    seen = _read_checkpoint(checkpoint) if checkpoint else {}
    out = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    records = []
    try:
        for idx, a, b in space.candidates():
            key = candidate_key(a, b)
            if key in seen:
                stage, verdict = seen[key]
                records.append(SearchRecord(idx, key, stage, verdict,
                                            resumed=True))
                continue
            stage, verdict, reports = evaluate_candidate(
                space.field, a, b, min_r=space.min_r, h_budget=space.h_budget)
            records.append(SearchRecord(idx, key, stage, verdict, reports))
            if out is not None:
                out.write(f"{key}\t{stage}\t{verdict}\n")
                out.flush()
    finally:
        if out is not None:
            out.close()
    return records, summarize(records)


def summarize(records):
    outcomes = {}
    passing = []
    for r in records:
        label = f"{r.stage}:{r.verdict}"
        outcomes[label] = outcomes.get(label, 0) + 1
        if r.verdict == "pass":
            passing.append(r.coeffs)
    return SearchSummary(total=len(records), outcomes=outcomes,
                         passing=tuple(passing))


def merge_summaries(summaries):
    outcomes = {}
    passing = []
    total = 0
    for s in summaries:
        total += s.total
        for k, v in s.outcomes.items():
            outcomes[k] = outcomes.get(k, 0) + v
        passing.extend(s.passing)
    return SearchSummary(total=total, outcomes=outcomes,
                         passing=tuple(passing))


def search_partition(space, parts):
    """Split the window into `parts` contiguous index blocks, near-equal."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    start, stop = space.window()
    n = stop - start
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    pieces = []
    at = start
    for sz in sizes:
        pieces.append(dataclasses.replace(space, start=at, stop=at + sz))
        at += sz
    return pieces
