"""Rediscovering the h = 4 curve by staged brute force.

The family: a = x(x+1) fixed, b running over the 32 degree-7 multiples of a.
Candidates flow through cheap filters first (validity, gap structure), then
the class group, and last the tesismc conditions alone, with no zeta
computed.  The run is deterministic, partitionable into disjoint index
blocks, and resumable from an append-only checkpoint.
"""

import dataclasses
import tempfile

from ffzeta import GF, SearchSpace, merge_summaries, search_partition, search_run
from ffzeta.gf import poly_from_str

F2 = GF(2)
space = SearchSpace(F2, fixed_a=poly_from_str(F2, "x^2 + x"),
                    deg_b=(7, 7), b_multiple_of_a=True)
print(f"search space: {space.describe()}")

records, summary = search_run(space)
print(f"\noutcomes over {summary.total} candidates:")
for label, count in sorted(summary.outcomes.items()):
    print(f"  {label}: {count}")
print(f"passing: {list(summary.passing)}")

# same result from four independent blocks
pieces = search_partition(space, 4)
merged = merge_summaries([search_run(p)[1] for p in pieces])
print(f"\n4-way partitioned rerun merges to the same summary: "
      f"{merged == summary}")

# and from an interrupted run resumed off its checkpoint
with tempfile.NamedTemporaryFile(mode="w", suffix=".ckpt") as fh:
    search_run(dataclasses.replace(space, stop=16), checkpoint=fh.name)
    resumed, resumed_summary = search_run(space, checkpoint=fh.name)
print(f"kill-and-resume reproduces it too: {resumed_summary == summary}"
      f" ({sum(r.resumed for r in resumed)} of {len(resumed)} records"
      " were skipped as already checkpointed)")
