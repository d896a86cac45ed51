"""Special values zeta(-s, X) and their trivial zeros.

For A = F_q[x] the value zeta(-s) vanishes exactly when (q-1) | s, the
characteristic-p analogue of the negative even integers.  The same machinery
runs unchanged on rings with a genus: the bundled ex36 ring
(y^2 = x^5 + 2x over F_3) gives 1 + 2X^2 = (1 + X)(1 - X), a simple zero
at X = 1.
"""

from ffzeta import GF, RingSpec, parse_ring_spec, poly_to_str, zeta_neg

for q, field in ((2, GF(2)), (3, GF(3)), (4, GF(2, 2))):
    ring = RingSpec.polyring(field)
    zeros = [s for s in range(1, 13) if zeta_neg(s, ring).value_at_one.is_zero]
    print(f"F_{q}[x]: zeta(-s) = 0 for s in {zeros}  (multiples of {q - 1})")

print()
ring = RingSpec.polyring(GF(3))
for s in (2, 4, 6):
    z = zeta_neg(s, ring)
    print(f"zeta_(F_3[x])(-{s}, X) = {z}"
          f"   ord at X=1: {z.ord_at_one()}")

print()
ex36 = parse_ring_spec("ex36.ring")
z = zeta_neg(2, ex36)
print("ex36 (y^2 = x^5 + 2x over F_3):")
print(f"  zeta(-2, X) = {z}")
print(f"  value at 1  = {poly_to_str(z.value_at_one.poly_part())}")
print(f"  ord at X=1  = {z.ord_at_one()}")
