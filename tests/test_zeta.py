import math
import random
from fractions import Fraction

import pytest

from ffzeta.errors import BudgetError
from ffzeta.gf import GF, Poly, monic_polys, poly_from_str
from ffzeta.ring import RingSpec
from ffzeta.zeta import (
    affine_power_sum, binom_mod_p, digit_sum, power_sum_S, vanishing_threshold,
    zeta_neg,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def P(field, s):
    return poly_from_str(field, s)


# -- digit arithmetic -------------------------------------------------------

def test_digit_sum():
    assert digit_sum(7, 2) == 3
    assert digit_sum(8, 3) == 4       # 22 base 3
    assert digit_sum(100, 10) == 1
    assert digit_sum(0, 2) == 0


def test_digit_sum_subadditive():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.choice((2, 3, 4, 5))
        a, b = rng.randrange(500), rng.randrange(500)
        assert digit_sum(a + b, q) <= digit_sum(a, q) + digit_sum(b, q)


def test_vanishing_threshold():
    assert vanishing_threshold(7, 2) == Fraction(3, 1)
    assert vanishing_threshold(8, 3) == Fraction(2, 1)
    assert vanishing_threshold(5, 4) == Fraction(2, 3)


def test_binom_mod_p_is_lucas():
    for p in (2, 3, 5):
        for d in range(30):
            for j in range(d + 1):
                assert binom_mod_p(d, j, p) == math.comb(d, j) % p


# -- affine power sums and the digit-sum vanishing bound --------------------

def test_sharpness_witness():
    # q = 2, k = 3: dim 2 equals the threshold l_2(3)/(2-1), and the sum
    # x^2 + x is independent of the choice of f outside the span
    spec = RingSpec.polyring(F2)
    W = (spec.elem_from_poly(P(F2, "1")), spec.elem_from_poly(P(F2, "x")))
    for f in ("x^2", "x^3 + x"):
        got = affine_power_sum(spec.elem_from_poly(P(F2, f)), W, 3)
        assert got.vec[0] == P(F2, "x^2 + x")


def test_f_inside_span_rejected():
    spec = RingSpec.polyring(F2)
    W = (spec.elem_from_poly(P(F2, "1")), spec.elem_from_poly(P(F2, "x")))
    with pytest.raises(ValueError, match="span"):
        affine_power_sum(spec.elem_from_poly(P(F2, "x + 1")), W, 3)


def test_vanishing_above_threshold_randomized():
    rng = random.Random(11)
    for field in (F2, F3, F4):
        spec = RingSpec.polyring(field)
        q = field.q
        for _ in range(25):
            k = rng.randrange(1, 40)
            dim = digit_sum(k, q) // (q - 1) + 1 + rng.randrange(0, 2)
            # independent by distinct degrees; f of higher degree stays outside
            basis = []
            for d in range(dim):
                c = [rng.randrange(q) for _ in range(d)] + [1 + rng.randrange(q - 1)]
                basis.append(spec.elem_from_poly(Poly(field, c)))
            f = spec.elem_from_poly(Poly.monomial(field, dim + 1))
            assert affine_power_sum(f, basis, k).is_zero


def test_power_sum_brute_force_oracle():
    # compare against a literal sum over the monic slice
    spec = RingSpec.polyring(F3)
    for d, s in ((1, 2), (2, 3), (2, 4)):
        acc = Poly.zero(F3)
        for a in monic_polys(F3, d):
            acc = acc + a ** s
        assert power_sum_S(d, s, spec).vec[0] == acc


def test_power_sum_cab_brute_force(h4g3):
    for d, s in ((2, 1), (7, 1), (8, 2)):
        acc = h4g3.zero()
        for a in h4g3.enumerate_monic(d):
            power = a
            for _ in range(s - 1):
                power = power * a
            acc = acc + power
        assert power_sum_S(d, s, h4g3) == acc


# -- zeta polynomials -------------------------------------------------------

def test_fqx_s3_frozen():
    z = zeta_neg(3, RingSpec.polyring(F2))
    assert str(z) == "1 + (x^2 + x + 1)*X + (x^2 + x)*X^2"
    assert z.d_max == 2
    assert z.value_at_one.is_zero
    assert z.ord_at_one() == 1


def test_fqx3_s2_frozen():
    z = zeta_neg(2, RingSpec.polyring(F3))
    assert str(z) == "1 + 2*X"
    assert z.ord_at_one() == 1


def test_ex36_s2_frozen(ex36):
    z = zeta_neg(2, ex36)
    assert str(z) == "1 + 2*X^2"
    assert z.value_at_one.is_zero
    assert z.ord_at_one() == 1


def test_ex26_hiper_spot(ex26):
    # l_2(s) <= g = 3 holds for 7, 11, 13 but not 15, where ord drops to 1
    for s in (7, 11, 13):
        assert zeta_neg(s, ex26).ord_at_one() == 2
    assert zeta_neg(15, ex26).ord_at_one() == 1


def test_trivial_zero_law_small():
    for q, field in ((2, F2), (3, F3), (4, F4)):
        spec = RingSpec.polyring(field)
        for s in range(1, 21):
            z = zeta_neg(s, spec)
            assert z.value_at_one.is_zero == ((s % (q - 1)) == 0)


def test_cutoff_soundness(ex26):
    # beyond the certified d_max every further power sum vanishes
    for s in (3, 7):
        z = zeta_neg(s, ex26)
        for d in range(z.d_max + 1, z.d_max + 4):
            assert power_sum_S(d, s, ex26).is_zero


def test_constant_term_is_one(h4g3):
    for s in (1, 2, 5):
        z = zeta_neg(s, h4g3)
        assert z.coeffs[0] == h4g3.one()


def ord_at_one_by_division(coeffs, spec):
    """Oracle for the order at X = 1: strip factors of (X - 1) by synthetic
    division until the value at 1 is nonzero."""
    cs = list(coeffs)
    if all(c.is_zero for c in cs):
        raise ValueError("the zero polynomial has no finite order of vanishing at X = 1")
    order = 0
    while True:
        total = spec.zero()
        for c in cs:
            total = total + c
        if not total.is_zero:
            return order
        n = len(cs) - 1
        b = [spec.zero()] * n
        b[n - 1] = cs[n]
        for j in range(n - 1, 0, -1):
            b[j - 1] = cs[j] + b[j]
        cs = b
        order += 1


def test_ord_two_paths_agree(ex26, ex36, h4g3):
    jobs = [(ex26, 7), (ex36, 2), (h4g3, 1), (h4g3, 2),
            (RingSpec.polyring(F2), 5), (RingSpec.polyring(F3), 4)]
    for spec, s in jobs:
        z = zeta_neg(s, spec)
        assert z.ord_at_one() == ord_at_one_by_division(z.coeffs, spec)


def test_budget_refusal(ex26):
    with pytest.raises(BudgetError):
        zeta_neg(21, ex26, budget=4)


def test_gap_degrees_skip_terms(ex26):
    # degrees 1, 3, 5 are gaps of <2, 7>: those coefficients are zero sums
    z = zeta_neg(7, ex26)
    for d in (1, 3, 5):
        if d <= z.d_max:
            assert z.coeffs[d].is_zero
