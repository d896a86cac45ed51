"""Numerical semigroups of Weierstrass degrees at the infinite place.

A semigroup is stored as a bitmap (a python int) up to its Frobenius number,
so membership, l(n) counts and gap sets are exact bit arithmetic.  l(n) here
always means the count #(S intersect [0, n]), which for a one-place ring
equals dim W_{n+1}, the space of elements of degree <= n.

Every semigroup is built from its gap tuple by one constructor, which sets
the bits 0..F except the gaps and reads off the minimal generators.
`from_generators` finds the gaps by closing the generators under addition
up to a_1 * a_k, which holds every gap by Schur's bound
F <= (a_1 - 1)(a_k - 1) - 1; `from_gaps` checks that the gaps are co-closed;
`remove` appends one gap.

The r-gap structure of a semigroup, for a fixed field size q: r >= 1 is valid
when l(iq) = i+1 for 1 <= i <= r, l(g+r) = r+1 and rq <= g+r, where g is the
genus.  Enumeration by genus uses the removal tree (remove one minimal
generator above the Frobenius number per step); a brute-force subset filter
cross-checks it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from ffzeta.errors import BudgetError

GENUS_CAP = 12


class NumericalSemigroup:
    """Cofinite additive submonoid of the naturals, given by its sorted,
    co-closed tuple of gaps."""

    __slots__ = ("generators", "gaps", "genus", "frobenius", "_mask")

    def __init__(self, gaps):
        self.gaps = gaps
        self.genus = len(gaps)
        F = self.frobenius = gaps[-1] if gaps else -1
        self._mask = (1 << (F + 1)) - 1 - sum(1 << n for n in gaps)
        # the minimal generators are the positive elements that are no sum
        # of two; with m the least positive element they lie in [m, F + m]
        # (above, n - m is an element too).  pos holds the positive elements
        # up to there, and one shift per element of it gives every sum
        pos = (self._mask | -(1 << (F + 1))) & ~1   # every n > F is in S
        m = (pos & -pos).bit_length() - 1
        top = max(F + m, m)
        pos &= (1 << (top + 1)) - 1
        sums = 0
        for e in range(m, top - m + 1):
            if (pos >> e) & 1:
                sums |= pos << e
        gens = pos & ~sums
        self.generators = tuple(n for n in range(m, top + 1) if (gens >> n) & 1)

    @classmethod
    def from_generators(cls, gens):
        gens = sorted({int(g) for g in gens if int(g) > 0})
        if not gens:
            raise ValueError("a numerical semigroup needs a positive generator")
        g = gcd(*gens)
        if g != 1:
            raise ValueError(f"gcd of generators is {g}; the complement would be infinite")
        bound = gens[0] * gens[-1]
        mask = 1
        for e in gens:
            # close under +e: the shifts e, 2e, 4e, .. add every multiple
            while e < bound:
                mask |= mask << e
                e *= 2
        return cls(tuple(n for n in range(bound) if not (mask >> n) & 1))

    @classmethod
    def from_gaps(cls, gaps):
        gaps = tuple(sorted({int(n) for n in gaps}))
        if gaps and gaps[0] < 1:
            raise ValueError("0 cannot be a gap")
        gapset = set(gaps)
        elems = [n for n in range(1, gaps[-1] + 1 if gaps else 1)
                 if n not in gapset]
        for i, aa in enumerate(elems):
            for bb in elems[i:]:
                if aa + bb in gapset:
                    raise ValueError(
                        f"gap set is not co-closed: {aa} + {bb} = {aa + bb} is a gap")
        return cls(gaps)

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
        if e <= self.frobenius or e not in self.generators:
            raise ValueError(f"{e} is not removable")
        return NumericalSemigroup(self.gaps + (e,))

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gaps == other.gaps

    def __hash__(self):
        return hash(self.gaps)

    def __repr__(self):
        gens = ", ".join(map(str, self.generators))
        return f"<S = <{gens}> genus {self.genus}>"


def semigroup_from_ring(spec):
    return NumericalSemigroup.from_generators(spec.semigroup_generators())


# -- gap structures ---------------------------------------------------------

@dataclass
class RGapReport:
    q: int
    genus: int
    valid_r: tuple


def r_gap_values(S, q):
    """All r >= 1 with an r-gap structure for field size q: l(iq) = i + 1
    for i = 1 .. r, l(g + r) = r + 1 and rq <= g + r."""
    if q < 2:
        raise ValueError("q must be at least 2")
    g = S.genus
    valid = tuple(
        r for r in range(1, g // (q - 1) + 1)
        if all(S.l(i * q) == i + 1 for i in range(1, r + 1))
        and S.l(g + r) == r + 1 and r * q <= g + r)
    return RGapReport(q=q, genus=g, valid_r=valid)


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

def enumerate_semigroups(genus):
    """All numerical semigroups of the given genus via the removal tree."""
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus > GENUS_CAP:
        raise BudgetError(
            f"genus {genus} exceeds the enumeration cap {GENUS_CAP}")
    level = {NumericalSemigroup(())}
    for _ in range(genus):
        nxt = set()
        for S in level:
            for e in S.generators:
                if e > S.frobenius:
                    nxt.add(S.remove(e))
        level = nxt
    return sorted(level, key=lambda S: S.gaps)
