"""Numerical semigroups of Weierstrass degrees at the infinite place.

A semigroup is stored as a bitmap (a python int) up to its Frobenius number,
so membership, l(n) counts and gap sets are exact bit arithmetic.  l(n) here
always means the count #(S intersect [0, n]), which for a one-place ring
equals dim W_{n+1}, the space of elements of degree <= n.

The r-gap structure of a semigroup, for a fixed field size q: r >= 1 is valid
when l(iq) = i+1 for 1 <= i <= r, l(g+r) = r+1 and rq <= g+r, where g is the
genus.  Enumeration by genus uses the removal tree (remove one minimal
generator above the Frobenius number per step); a brute-force subset filter
cross-checks it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ffzeta.errors import BudgetError

GENUS_CAP = 12


class NumericalSemigroup:
    """Cofinite additive submonoid of the naturals."""

    __slots__ = ("generators", "gaps", "genus", "frobenius", "_mask")

    def __init__(self, generators, gaps, mask):
        self.generators = generators
        self.gaps = gaps
        self.genus = len(gaps)
        self.frobenius = gaps[-1] if gaps else -1
        self._mask = mask

    @classmethod
    def from_generators(cls, gens):
        gens = sorted({int(g) for g in gens if int(g) > 0})
        if not gens:
            raise ValueError("a numerical semigroup needs a positive generator")
        from math import gcd
        g = 0
        for e in gens:
            g = gcd(g, e)
        if g != 1:
            raise ValueError(f"gcd of generators is {g}; the complement would be infinite")
        a = gens[0]
        bound = max(gens) * a + 1
        while True:
            mask = _closure_mask(gens, bound)
            run = _full_run_start(mask, bound, a)
            if run is not None:
                break
            bound *= 2
        gaps = tuple(n for n in range(run) if not (mask >> n) & 1)
        frob = gaps[-1] if gaps else -1
        mask &= (1 << (frob + 1)) - 1 if frob >= 0 else 1
        S = cls(tuple(gens), gaps, mask)
        S = cls(minimal_generators(S), gaps, mask)
        return S

    @classmethod
    def from_gaps(cls, gaps):
        gaps = tuple(sorted({int(n) for n in gaps}))
        if not gaps:
            return cls.from_generators((1,))
        if gaps[0] < 1:
            raise ValueError("0 cannot be a gap")
        frob = gaps[-1]
        gapset = set(gaps)
        elems = [n for n in range(1, frob + 1) if n not in gapset]
        for i, aa in enumerate(elems):
            for bb in elems[i:]:
                if aa + bb <= frob and aa + bb in gapset:
                    raise ValueError(
                        f"gap set is not co-closed: {aa} + {bb} = {aa + bb} is a gap")
        mask = 0
        for n in range(frob + 1):
            if n not in gapset:
                mask |= 1 << n
        mask |= 1  # 0 always present
        S = cls((), gaps, mask)
        return cls(minimal_generators(S), gaps, mask)

    # -- queries ------------------------------------------------------------

    def contains(self, n):
        if n < 0:
            return False
        if n > self.frobenius:
            return True
        return bool((self._mask >> n) & 1)

    def __contains__(self, n):
        return self.contains(n)

    def l(self, n):
        """#(S intersect [0, n]) = dim W_{n+1} of the associated ring."""
        if n < 0:
            return 0
        if n >= self.frobenius:
            return n + 1 - self.genus
        return ((self._mask & ((1 << (n + 1)) - 1))).bit_count()

    def remove(self, e):
        """S without e; e must be a minimal generator above the Frobenius number."""
        if not self.contains(e) or e <= self.frobenius:
            raise ValueError(f"{e} is not removable")
        gaps = self.gaps + (e,)
        mask = self._mask | (((1 << (e - self.frobenius)) - 1) << (self.frobenius + 1))
        mask &= ~(1 << e)
        S = NumericalSemigroup((), gaps, mask)
        return NumericalSemigroup(minimal_generators(S), gaps, mask)

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gaps == other.gaps

    def __hash__(self):
        return hash(self.gaps)

    def __repr__(self):
        gens = ", ".join(map(str, self.generators))
        return f"<S = <{gens}> genus {self.genus}>"


def _closure_mask(gens, bound):
    limit = (1 << bound) - 1
    mask = 1
    changed = True
    while changed:
        changed = False
        for g in gens:
            new = (mask | (mask << g)) & limit
            if new != mask:
                mask = new
                changed = True
    return mask


def _full_run_start(mask, bound, a):
    """Smallest n with [n, n+a) all present, which makes everything >= n present."""
    run = 0
    for n in range(bound):
        if (mask >> n) & 1:
            run += 1
            if run == a:
                return n - a + 1
        else:
            run = 0
    return None


def minimal_generators(S):
    """Elements of S* not expressible as a sum of two positive elements."""
    a = 1
    while not S.contains(a):
        a += 1
    out = []
    # minimal generators live in [a, F + a], except that a itself always counts
    for e in range(1, max(S.frobenius + a, a) + 1):
        if not S.contains(e):
            continue
        if not any(S.contains(k) and S.contains(e - k) for k in range(1, e // 2 + 1)):
            out.append(e)
    return tuple(out)


def semigroup_from_ring(spec):
    return NumericalSemigroup.from_generators(spec.semigroup_generators())


# -- gap structures ---------------------------------------------------------

@dataclass
class RGapReport:
    q: int
    genus: int
    valid_r: tuple
    scanned: dict

    def max_valid(self):
        return max(self.valid_r) if self.valid_r else None


def r_gap_values(S, q):
    """All r >= 1 with an r-gap structure for field size q, with witnesses."""
    if q < 2:
        raise ValueError("q must be at least 2")
    g = S.genus
    valid = []
    scanned = {}
    for r in range(1, g // (q - 1) + 1):
        l_iq = tuple(S.l(i * q) for i in range(1, r + 1))
        l_tail = S.l(g + r)
        conds = {
            "l_iq": l_iq,
            "l_iq_ok": all(v == i + 1 for i, v in enumerate(l_iq, start=1)),
            "l_g_plus_r": l_tail,
            "l_g_plus_r_ok": l_tail == r + 1,
            "rq_le_g_plus_r": r * q <= g + r,
        }
        conds["ok"] = conds["l_iq_ok"] and conds["l_g_plus_r_ok"] and conds["rq_le_g_plus_r"]
        scanned[r] = conds
        if conds["ok"]:
            valid.append(r)
    return RGapReport(q=q, genus=g, valid_r=tuple(valid), scanned=scanned)


@dataclass
class DegreeQReport:
    q: int
    r: int
    applicable: bool
    passed: bool
    elements: tuple
    reason: str


def degree_q_theorem_check(S, q, r):
    """With an r-gap structure and r >= q-1, the elements of S in [1, rq] are
    exactly q, 2q, .., rq; in particular S has an element of degree q."""
    rep = r_gap_values(S, q)
    if r not in rep.valid_r:
        return DegreeQReport(q, r, False, False, (), f"no {r}-gap structure for q={q}")
    if r < q - 1:
        return DegreeQReport(q, r, False, False, (), f"r = {r} < q - 1 = {q - 1}")
    elems = tuple(n for n in range(1, r * q + 1) if S.contains(n))
    expected = tuple(i * q for i in range(1, r + 1))
    return DegreeQReport(q, r, True, elems == expected, elems,
                         "" if elems == expected else f"expected {expected}")


# -- enumeration by genus ---------------------------------------------------

def enumerate_semigroups(genus, cap=GENUS_CAP):
    """All numerical semigroups of the given genus via the removal tree."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus > cap:
        raise BudgetError(
            f"genus {genus} exceeds the enumeration cap {cap}; pass cap= to raise it")
    level = {NumericalSemigroup.from_generators((1,))}
    for _ in range(genus):
        nxt = set()
        for S in level:
            for e in S.generators:
                if e > S.frobenius:
                    nxt.add(S.remove(e))
        level = nxt
    return sorted(level, key=lambda S: S.gaps)
