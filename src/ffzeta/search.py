"""Brute-force hunt for Artin-Schreier rings meeting the conditions of the
all-ideals theorem tesismc, with deterministic ordering, disjoint
partitioning, and a line-oriented append-only checkpoint.

Candidates are (a, b) pairs defining y^q - a(x)^{q-1} y = b(x), scanned
lexicographically: degree of a ascending, a in counting order, degree of b
ascending, b in counting order (through the quotient b/a when the family
restricts b to multiples of a).  Each candidate runs a staged pipeline,
cheapest first, each stage asking the module that owns its rule: the
ring's maximality (`ideals.require_maximal`, stage `ring-valid`); an
r-gap structure with r >= q - 1 (`semigroup.theorem_r_values`,
`gap-structure`); the class-group budget, a count of ideal candidates
with no enumeration (`ideals.require_ideal_scan`, `class-group`); then
the tesismc conditions alone, with no zeta (`hypotheses`): those on the
equation, the class group, and only then the class conditions, mu and the
digit condition at s = q - 1.  The stage reached and its verdict are the
record, which keeps no report of the stages.  A checkpoint stores one
`coeffs<TAB>stage<TAB>verdict` line per finished candidate, so a killed
run resumes by skipping whatever is already present.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from dataclasses import dataclass

from ffzeta.errors import (BudgetError, CheckpointError, NonMaximalRingError,
                           RingValidationError)
from ffzeta.gf import Poly, monic_poly_at, poly_to_str
from ffzeta.ideals import (DEFAULT_IDEAL_BUDGET, class_group, require_ideal_scan,
                           require_maximal)
from ffzeta.ring import RingSpec
from ffzeta.semigroup import semigroup_from_ring, theorem_r_values
from ffzeta.theorems import tesismc_conditions

STAGES = ("ring-valid", "gap-structure", "class-group", "hypotheses")
FAMILIES = ("artin-schreier",)


@dataclass(frozen=True)
class SearchSpace:
    field: object
    family: str = "artin-schreier"
    deg_a: tuple = (1, 1)
    deg_b: tuple = (3, 3)
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
        if self.h_budget < 1:
            raise ValueError(f"h_budget must be at least 1, got {self.h_budget}")
        if self.fixed_a is not None and self.fixed_a.is_zero:
            raise ValueError("fixed a must be nonzero")

    def _grid(self):
        """The degree grid in scan order: per deg a, the number of a's and
        the (deg c, q^deg c) cells each a spans, where c = b, or c = b/a
        when b is restricted to multiples of a."""
        q = self.field.q
        if self.fixed_a is not None:
            rows = [(self.fixed_a.degree, 1)]
        else:
            rows = [(d, q ** d) for d in range(self.deg_a[0], self.deg_a[1] + 1)]
        grid = []
        for da, n_a in rows:
            shift = da if self.b_multiple_of_a else 0
            cells = [(db - shift, q ** (db - shift))
                     for db in range(max(self.deg_b[0], shift), self.deg_b[1] + 1)]
            grid.append((da, n_a, cells))
        return grid

    def size(self):
        """Unwindowed candidate count, summed over the degree grid."""
        return sum(n_a * sum(n for _, n in cells)
                   for _, n_a, cells in self._grid())

    def window(self):
        n = self.size()
        stop = n if self.stop is None else min(self.stop, n)
        return self.start, stop

    def candidates(self):
        """(index, a, b) triples inside this space's window, in order.

        Whole (a, deg b) cells and the prefix of the first cell below the
        window are skipped by count, so of the candidates only the window's
        own are built."""
        field = self.field
        start, stop = self.window()
        idx = 0
        for da, n_a, cells in self._grid():
            for i in range(n_a):
                a = (self.fixed_a if self.fixed_a is not None
                     else monic_poly_at(field, da, i))
                for dc, n in cells:
                    skip = min(max(start - idx, 0), n)
                    idx += skip
                    for k in range(skip, n):
                        if idx >= stop:
                            return
                        c = monic_poly_at(field, dc, k)
                        yield idx, a, (a * c if self.b_multiple_of_a else c)
                        idx += 1

    def describe(self):
        d = {"q": self.field.q, "family": self.family,
             "deg_a": list(self.deg_a), "deg_b": list(self.deg_b),
             "h_budget": self.h_budget,
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
    resumed: bool = False


@dataclass
class SearchSummary:
    total: int
    outcomes: dict           # "stage:verdict" -> count
    passing: tuple           # coeffs keys with a full hypothesis pass


def candidate_key(a, b):
    return f"a={poly_to_str(a)};b={poly_to_str(b)}"


def evaluate_candidate(space, a, b):
    """Run the staged pipeline on one (a, b) of `space`; returns (stage,
    verdict, report), the report that of the tesismc conditions, None
    before them.  The class group is computed, under `space.h_budget`, only
    for a candidate within it whose equation meets the tesismc conditions."""
    q = space.field.q
    coeffs = [-b, -(a ** (q - 1))] + [Poly.zero(space.field)] * (q - 2)
    spec = RingSpec.cab(space.field, tuple(coeffs))
    try:
        require_maximal(spec)
    except RingValidationError:
        return "ring-valid", "invalid", None
    except NonMaximalRingError:
        return "ring-valid", "singular", None

    S = semigroup_from_ring(spec)
    if not theorem_r_values(S, q):
        return "gap-structure", "no-valid-r", None
    try:
        require_ideal_scan(spec, S.genus, space.h_budget)
    except BudgetError:
        return "class-group", "budget-exceeded", None

    # the equation conditions come first; the class group, under this
    # budget, only once they hold.  A chain that reaches the digit condition
    # has q = 2 and e <= 2 (see `theorems`), so s = q - 1 decides it
    hyp, _ = tesismc_conditions(spec, q - 1, functools.partial(
        class_group, spec, budget=space.h_budget))
    if hyp.applicable:
        return "hypotheses", "pass", hyp
    return "hypotheses", f"failed: {hyp.failed_check().name}", hyp


def _read_checkpoint(path, header):
    seen = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return seen
    for i, line in enumerate(lines, start=1):
        if not line:
            continue
        if i == 1 and line.startswith("#"):
            if line != header:
                raise CheckpointError(f"{path}: header '{line}', not '{header}'")
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] == "" or parts[1] not in STAGES:
            raise CheckpointError(f"{path}: malformed record on line {i}")
        seen[parts[0]] = (parts[1], parts[2])
    return seen


def search_run(space, checkpoint=None):
    """Evaluate every candidate in the window once across resumed runs.

    Returns (records, summary).  A record carries the stage and verdict
    only, stored in the checkpoint or freshly evaluated.  A new
    checkpoint opens with a header of q and h_budget; a checkpoint with
    another header is refused, one without is read as it is.
    """
    header = f"# search q={space.field.q} h_budget={space.h_budget}"
    seen = _read_checkpoint(checkpoint, header) if checkpoint else {}
    out = open(checkpoint, "a", encoding="utf-8") if checkpoint else None
    records = []
    try:
        if out is not None and out.tell() == 0:
            out.write(header + "\n")
        for idx, a, b in space.candidates():
            key = candidate_key(a, b)
            if key in seen:
                stage, verdict = seen[key]
                records.append(SearchRecord(idx, key, stage, verdict,
                                            resumed=True))
                continue
            stage, verdict, _ = evaluate_candidate(space, a, b)
            records.append(SearchRecord(idx, key, stage, verdict))
            if out is not None:
                out.write(f"{key}\t{stage}\t{verdict}\n")
                out.flush()
    finally:
        if out is not None:
            out.close()
    return records, summarize(records)


def summarize(records):
    return SearchSummary(
        total=len(records),
        outcomes=dict(Counter(f"{r.stage}:{r.verdict}" for r in records)),
        passing=tuple(r.coeffs for r in records if r.verdict == "pass"))


def merge_summaries(summaries):
    summaries = list(summaries)
    outcomes = Counter()
    for s in summaries:
        outcomes.update(s.outcomes)
    return SearchSummary(total=sum(s.total for s in summaries),
                         outcomes=dict(outcomes),
                         passing=tuple(p for s in summaries for p in s.passing))


def search_block(space, parts, i):
    """Block i (0-based) of `search_partition(space, parts)`, made alone."""
    if not 0 <= i < parts:
        raise ValueError(f"block {i} is not one of {parts} blocks")
    start, stop = space.window()
    size, extra = divmod(stop - start, parts)
    at = start + i * size + min(i, extra)
    return dataclasses.replace(space, start=at, stop=at + size + (i < extra))


def search_partition(space, parts):
    """Split the window into `parts` contiguous index blocks, near-equal."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    return [search_block(space, parts, i) for i in range(parts)]
