"""The all-ideals zeta function and its exact factorization.

When the class group is nontrivial, I^t only makes sense for t divisible by
the class-group exponent e.  On the h = 4 ring, t = 2 gives a double zero
at X = 1, and the polynomial factors exactly as
zeta(-t, X) = zeta_{F_2[x]}(-t, X^2) * U(X) with U(1) != 0, so the order is
exactly q = 2.  The classwise formula is cross-checked against brute-force
ideal enumeration.
"""

from ffzeta import (
    check_generalization, class_group, ideal_zeta_classwise,
    ideal_zeta_direct, parse_ring_spec, poly_to_str,
)
from ffzeta.zeta import coeff_lit, zeta_to_str

spec = parse_ring_spec("h4g3.ring")
cg = class_group(spec)
t = cg.e  # smallest admissible exponent

z = ideal_zeta_classwise(t, cg)
print(f"all-ideals zeta(-{t}, X) on {spec.name}:")
print(f"  classwise: {z}   (d_max {z.d_max})")

direct = ideal_zeta_direct(t, cg)
print(f"  direct enumeration agrees: {z.coeffs == direct.coeffs}")
print(f"  ord at X = 1: {z.ord_at_one()}")

print()
hyp = check_generalization(spec, t // cg.e)
print(f"generalization chain: applicable = {hyp.applicable},"
      f" mu = {hyp.mu}, predicted ord >= {hyp.predicted[1]},"
      f" computed = {hyp.computed}")

rem = hyp.remark  # checked against the chain's own classwise zeta
print(f"exact factorization: U(X) = {zeta_to_str(map(coeff_lit, rem.u_coeffs))}")
print(f"  identity zeta(-t, X) = zeta_(F_2[x])(-t, X^2) * U:"
      f" {rem.identity_holds}")
print(f"  U(1) = {poly_to_str(rem.u_at_one.poly_part())}"
      f"  ->  order exactly q: {rem.order_exactly_q}")
