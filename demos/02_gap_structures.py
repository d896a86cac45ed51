"""Weierstrass gaps, r-gap structures, and the degree-q consequence.

An r-gap structure (l(iq) = i+1 for i <= r, l(g+r) = r+1, rq <= g+r) forces
the small element degrees to be exact multiples of q.  Genus-5 semigroups
over q = 3 admit no 1-gap structure, and exactly one of the twelve admits a
2-gap structure.
"""

from ffzeta import (
    NumericalSemigroup, degree_q_theorem_check, enumerate_semigroups,
    parse_ring_spec, r_gap_values, semigroup_from_ring,
)

S = semigroup_from_ring(parse_ring_spec("ex26.ring"))
print(f"ex26 degree semigroup <2,7>: gaps {S.gaps}, genus {S.genus}")
print(f"  r-gap structures for q = 2: valid r = {r_gap_values(S, 2)}")
chk = degree_q_theorem_check(S, 2, 3)
print(f"  degree-q consequence at r = 3: elements {chk.elements} "
      f"(passed: {chk.passed})")

print()
quintic = NumericalSemigroup.from_gaps((1, 2, 4, 5, 7, 8))
print(f"quintic gap set {quintic.gaps}: generators {quintic.generators}")
print(f"  q = 3 valid r = {r_gap_values(quintic, 3)};"
      f" l(3) = {quintic.l(3)}, l(6) = {quintic.l(6)}, l(8) = {quintic.l(8)}")

print()
genus5 = enumerate_semigroups(5)
print(f"all {len(genus5)} genus-5 semigroups, q = 3:")
for T in genus5:
    valid_r = r_gap_values(T, 3)
    tag = f"  valid r = {valid_r}" if valid_r else ""
    print(f"  gaps {T.gaps}{tag}")
