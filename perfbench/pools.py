"""Workloads: finite pools of CLI invocations and their seeded order.

Every op is one `ffzeta.cli.dispatch(argv + ["--json"])` call.  A run is a
sequence of rounds; each round runs the whole pool of its workload once, in
an order drawn from the seed.  Whole rounds keep the work of a run the same
for every seed, so figures from different seeds can be compared; the seed
moves which op follows which (and so which ring is seen again how soon).

Ring arguments are bundled names (resolved by ffzeta itself) or paths of the
ring files stored in `perfbench/rings`, relative to the checkout root, which
is the working directory of a run.
"""

import os
import random
from dataclasses import dataclass, field

RINGS_DIR = os.path.join("perfbench", "rings")
WORKLOADS = ("zeta-elements", "class-groups", "search-window")

WHY = {
    "zeta-elements": "zeta and powsum at exponents with large digit sums: "
                     "Poly products, ring multiplication and power sums, "
                     "no ideal work",
    "class-groups": "class groups, L-polynomials and all-ideals zeta on "
                    "h = 2..20 rings that several commands ask for again: "
                    "ideal enumeration and class-representative search",
    "search-window": "Artin-Schreier search blocks over many distinct small "
                     "rings, each seen once: validation, small class groups "
                     "and checkpoint writes",
}


@dataclass(frozen=True)
class Entry:
    """One pool entry: a CLI invocation without --json and --checkpoint."""
    id: str
    command: str        # zeta, powsum, check, classgroup, lpoly,
                        # zeta_all_ideals or search
    argv: tuple
    ring: str = None    # ring name, for the two-route checks
    params: dict = field(default_factory=dict, compare=False, hash=False)
    resume: int = 0     # search: records pre-filled into the checkpoint
    block: str = None   # search: id of the fresh block this entry reruns


EXTRA_RINGS = ("h20g4", "h20g2", "h8g2", "ell5")   # stored in RINGS_DIR


def _ring_arg(name):
    path = os.path.join(RINGS_DIR, name + ".ring")
    return path if name in EXTRA_RINGS else name

# (ring, s): digit sums of s in base q range from 1 to 10, weighted toward
# the large ones, where power sums cost most.
_ZETA = (
    ("fqx2", 127), ("fqx2", 63), ("fqx2", 64),
    ("fqx3", 80), ("fqx3", 121), ("fqx3", 26),
    ("fqx4", 127), ("fqx4", 63), ("fqx4", 48),
    ("ex36", 127), ("ex36", 80), ("ex36", 26),
    ("ex26", 127), ("ex26", 63), ("ex26", 31), ("ex26", 8),
    ("h4g3", 127), ("h4g3", 63), ("h4g3", 31), ("h4g3", 12),
    ("h20g4", 63), ("h20g4", 31),
)
# (ring, d, s): each has a zeta entry with the same (ring, s), so S(d) is
# checked against the zeta coefficient of X^d.
_POWSUM = (
    ("fqx2", 5, 63), ("fqx3", 3, 80), ("fqx4", 3, 63),
    ("ex36", 4, 80), ("ex26", 6, 63), ("h4g3", 7, 127),
)
_CHECK = (
    ("hiper", "ex26", 7), ("hiper", "h4g3", 11), ("hiper", "ex36", 3),
    ("dinesh", "h4g3", 15), ("dinesh", "ex26", 31), ("dinesh", "fqx3", 8),
)

# ring -> (t for zeta --all-ideals with and without --direct, or None;
#          s for check --theorem generalization, or None).
# h20g2 has no all-ideals entry: at t = 10 its classwise and direct X^3
# coefficients differ, so the op would fail every run (see README.md).
_CLASS = (
    ("ex36", 2, 1),
    ("ex26", 2, 1),
    ("h4g3", 4, 2),
    ("h8g2", 8, None),
    ("ell5", 5, 1),
    ("h20g2", None, None),
)

_SEARCH_WINDOWS = (
    # (tag, argv, parts, the parts in the pool)
    ("crit9", ("search", "--q", "2", "--family", "artin-schreier",
               "--fix-a", "x^2 + x", "--deg-b", "7", "--b-div-a"),
     4, range(1, 5)),
    # every third block: each of the six a(x) keeps one or two blocks
    ("q2a12b5", ("search", "--q", "2", "--family", "artin-schreier",
                 "--deg-a", "1..2", "--deg-b", "5"), 24, range(1, 25, 3)),
    ("q3a1b5", ("search", "--q", "3", "--family", "artin-schreier",
                "--deg-a", "1", "--deg-b", "5"), 91, range(1, 92)),
)
# (window tag, part, records pre-filled into the checkpoint)
_SEARCH_RESUMES = (("crit9", 2, 4), ("q2a12b5", 1, 4), ("q2a12b5", 22, 3),
                   ("q3a1b5", 1, 5))


def _zeta_pool():
    out = []
    for ring, s in _ZETA:
        out.append(Entry(f"zeta {ring} s={s}", "zeta",
                         ("zeta", "--ring", _ring_arg(ring), "-s", str(s)),
                         ring=ring, params={"s": s}))
    for ring, d, s in _POWSUM:
        out.append(Entry(f"powsum {ring} d={d} s={s}", "powsum",
                         ("powsum", "--ring", _ring_arg(ring), "-d", str(d),
                          "-s", str(s)),
                         ring=ring, params={"s": s, "d": d}))
    for thm, ring, s in _CHECK:
        out.append(Entry(f"check {thm} {ring} s={s}", "check",
                         ("check", "--ring", _ring_arg(ring), "-s", str(s),
                          "--theorem", thm),
                         ring=ring, params={"s": s}))
    return out


def _class_pool():
    out = []
    for ring, t, s_gen in _CLASS:
        arg = _ring_arg(ring)
        out.append(Entry(f"classgroup {ring}", "classgroup",
                         ("classgroup", "--ring", arg), ring=ring))
        out.append(Entry(f"lpoly {ring}", "lpoly", ("lpoly", "--ring", arg),
                         ring=ring))
        if t is not None:
            out.append(Entry(f"zeta-all-ideals {ring} t={t}",
                             "zeta_all_ideals",
                             ("zeta", "--ring", arg, "--all-ideals",
                              "-s", str(t)),
                             ring=ring, params={"t": t, "direct": False}))
            out.append(Entry(f"zeta-all-ideals-direct {ring} t={t}",
                             "zeta_all_ideals",
                             ("zeta", "--ring", arg, "--all-ideals",
                              "--direct", "-s", str(t)),
                             ring=ring, params={"t": t, "direct": True}))
        if s_gen is not None:
            out.append(Entry(f"check generalization {ring} s={s_gen}", "check",
                             ("check", "--ring", arg, "-s", str(s_gen),
                              "--theorem", "generalization"),
                             ring=ring, params={"s": s_gen}))
    return out


def _search_pool():
    out = []
    for tag, argv, parts, picked in _SEARCH_WINDOWS:
        for part in picked:
            out.append(Entry(f"search {tag} {part}/{parts}", "search",
                             argv + ("--parts", str(parts), "--part", str(part))))
    fresh = {e.id: e for e in out}
    for tag, part, k in _SEARCH_RESUMES:
        parts = next(p for t, _, p, _ in _SEARCH_WINDOWS if t == tag)
        block = fresh[f"search {tag} {part}/{parts}"]
        out.append(Entry(f"{block.id} resume={k}", "search", block.argv,
                         resume=k, block=block.id))
    return out


_POOLS = {"zeta-elements": _zeta_pool, "class-groups": _class_pool,
          "search-window": _search_pool}


def pool(workload):
    """The finite, fixed list of entries a workload draws its ops from."""
    if workload not in _POOLS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    return _POOLS[workload]()


def pool_rings(workload):
    """Ring arguments the workload's ops name, in first-use pool order."""
    seen = []
    for e in pool(workload):
        if e.ring is not None and e.ring not in seen:
            seen.append(e.ring)
    return [(name, _ring_arg(name)) for name in seen]


@dataclass(frozen=True)
class Op:
    seq: int            # position in the run
    entry: Entry
    argv: tuple         # what dispatch receives
    checkpoint: str = None


def op_rounds(workload, seed, workdir, entries=None):
    """Endless iterator of rounds; each round is a list of Ops covering every
    pool entry once, in an order drawn from `seed`.  Search ops write a fresh
    checkpoint under `workdir`."""
    entries = list(pool(workload) if entries is None else entries)
    rng = random.Random(f"{workload}:{seed}")
    seq = 0
    while True:
        order = list(range(len(entries)))
        rng.shuffle(order)
        ops = []
        for i in order:
            e = entries[i]
            ckpt = None
            argv = e.argv
            if e.command == "search":
                ckpt = os.path.join(workdir, f"op{seq:06d}.ckpt")
                argv = argv + ("--checkpoint", ckpt)
            ops.append(Op(seq, e, argv + ("--json",), ckpt))
            seq += 1
        yield ops
