import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (binom_mod_p, elem_from_str, newton_polygon,
                     ord_from_coeffs, split_degrees)

from ffzeta.errors import BudgetError
from ffzeta.gf import GF, Poly, monic_polys, poly_from_str
from ffzeta.ideal_zeta import ideal_zeta_classwise
from ffzeta.ideals import class_group, involution
from ffzeta.ring import RingSpec
from ffzeta.ringfile import bundled_ring_names, parse_ring_spec
from ffzeta.zeta import (
    ZetaPolynomial, affine_power_sum, digit_sum, power_sum_S,
    vanishing_threshold, zeta_neg,
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
    with pytest.raises(ValueError, match="nonnegative"):
        digit_sum(-1, 2)


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
    with pytest.raises(ValueError, match="basis is linearly dependent"):
        affine_power_sum(spec.elem_from_poly(P(F2, "x^2")), W + W[:1], 3)


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

@pytest.mark.parametrize("ring", bundled_ring_names())
def test_zeta_coefficients_are_monic_power_sums(ring):
    # every coefficient against a sum over the enumerated monic elements,
    # powers by repeated products, at s with base-q digit sums 1, 2, 3, 4
    spec = parse_ring_spec(ring)
    q = spec.q
    for s in (q, q + 1, q * q + q + 1, q ** 3 + q * q + q + 1):
        z = zeta_neg(s, spec)
        for d, coeff in enumerate(z.coeffs):
            acc = spec.zero()
            for a in spec.enumerate_monic(d):
                power = spec.one()
                for _ in range(s):
                    power = power * a
                acc = acc + power
            assert coeff == acc, (s, d)


# -- the rank-2 involution --------------------------------------------------

def test_involution_is_a_ring_automorphism(ex36, ex26):
    for spec in (ex36, ex26):
        a = elem_from_str(spec, "x^3 + 2*x; x + 1")
        b = elem_from_str(spec, "x^2 + 1; x^2")
        y = spec.monomial(0, 1)
        assert involution(y) != y
        for e in (a, b, y, a * b):
            assert involution(involution(e)) == e
        assert involution(a * b) == involution(a) * involution(b)
        assert involution(a + b) == involution(a) + involution(b)


def test_involution_parity_law(ex36, ex26, h4g3):
    # sigma fixes x, of even degree 2, and sends y, of odd degree, to -y plus
    # lower terms, so it maps a monic element of degree d to (-1)^d times a
    # monic one of degree d: sigma(S_d(s)) = (-1)^(d s) S_d(s)
    F5 = GF(5)
    f5 = RingSpec.cab(F5, (P(F5, "4*x^5 + 4*x + 4"), P(F5, "0")))  # y^2 = x^5 + x + 1
    with_y = 0
    for spec in (ex36, ex26, h4g3, f5):
        for s in range(1, 160):
            for d, c in enumerate(zeta_neg(s, spec).coeffs):
                assert involution(c) == (-c if d * s % 2 else c), (spec, s, d)
                with_y += not c.vec[1].is_zero
    assert with_y      # some coefficients leave F_q[x], where sigma moves them


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


@pytest.mark.parametrize("ring, s_max", [("fqx2", 127), ("fqx3", 242),
                                         ("fqx4", 127)])
def test_newton_polygon_slopes_are_simple_on_fq_x(ring, s_max):
    # the Riemann hypothesis for F_q[T] (Sheats, J. Number Theory 71, 1998):
    # the zeros of zeta(-s, X) have distinct valuations at infinity, so each
    # hull segment over the points (d, -deg c_d) has horizontal length 1
    spec = parse_ring_spec(ring)
    for s in range(1, s_max + 1):
        hull = newton_polygon(zeta_neg(s, spec).coeffs)
        assert all(d1 - d0 == 1 for (d0, _), (d1, _) in zip(hull, hull[1:])), s


# (ring, s_max, how many zetas end in a zero coefficient): d_max is the
# degree of zeta(-s, X) at prime q, and can lie above it at q = p^n, n > 1
@pytest.mark.parametrize("ring, s_max, zero_tops", [
    ("fqx2", 300, 0), ("fqx3", 300, 0), ("fqx4", 300, 38),
    ((5, 1), 200, 0), ((2, 3), 200, 24), ((3, 2), 200, 12)],
    ids=["fqx2", "fqx3", "fqx4", "F5", "F8", "F9"])
def test_coefficient_degrees_from_digit_splits(ring, s_max, zero_tops):
    # each coefficient S_d(s) of zeta(-s, X) on F_q[T]: zero or not, and its
    # T-degree, from the carry-free splits of s (Carlitz; Sheats 1998);
    # the split rule also says S_(d_max + 1)(s) = 0
    spec = (parse_ring_spec(ring) if isinstance(ring, str)
            else RingSpec.polyring(GF(*ring)))
    q, p = spec.field.q, spec.field.p
    tops = 0
    for s in range(1, s_max + 1):
        coeffs = zeta_neg(s, spec).coeffs
        degrees = [None if c.is_zero else c.vec[0].degree for c in coeffs]
        assert split_degrees(s, q, p, len(coeffs)) == degrees + [None], s
        tops += degrees[-1] is None
    assert tops == zero_tops


def test_newton_polygon_merges_collinear_points():
    spec = RingSpec.polyring(F2)
    coeffs = [spec.elem_from_poly(P(F2, f)) for f in ("1", "x", "x^2", "0", "1")]
    assert newton_polygon(coeffs) == [(0, 0), (2, -2), (4, 0)]


def test_cutoff_soundness(ex26):
    # beyond the certified d_max every further slice sums to zero, summed
    # by affine_power_sum; power_sum_S answers 0 there with no sum
    for s in (3, 7):
        z = zeta_neg(s, ex26)
        for d in range(z.d_max + 1, z.d_max + 4):
            *below, lead = ex26.basis_W(d + 1)
            if lead.degree == d:
                assert affine_power_sum(lead, below, s).is_zero
            assert power_sum_S(d, s, ex26).is_zero


def test_constant_term_is_one(h4g3):
    for s in (1, 2, 5):
        z = zeta_neg(s, h4g3)
        assert z.coeffs[0] == h4g3.one()


_TESTS = Path(__file__).resolve().parent
_ORD_RINGS = (bundled_ring_names()
              + sorted(map(str, (_TESTS.parent / "perfbench").glob("rings/*.ring")))
              + [str(_TESTS / "golden" / "h34.ring")])
# the class-groups benchmark rings with an all-ideals zeta; h20g2 is refused
# by require_monic_products
_CLASSWISE_RINGS = ("ex36", "ex26", "h4g3",
                    str(_TESTS.parent / "perfbench" / "rings" / "h8g2.ring"),
                    str(_TESTS.parent / "perfbench" / "rings" / "ell5.ring"))


def test_ord_two_paths_agree():
    # division by X - 1 against the Lucas recentering, on element zetas and
    # on classwise all-ideals zetas at t = e, 2e, 4e
    for ring in _ORD_RINGS:
        spec = parse_ring_spec(ring)
        for s in range(1, 65):
            z = zeta_neg(s, spec)
            assert z.ord_at_one() == ord_from_coeffs(z.coeffs, spec), (ring, s)
    for ring in _CLASSWISE_RINGS:
        spec = parse_ring_spec(ring)
        rep = class_group(spec)
        for k in (1, 2, 4):
            z = ideal_zeta_classwise(k * rep.e, rep)
            assert z.ord_at_one() == ord_from_coeffs(z.coeffs, spec), (ring, k)


def test_ord_of_powers_of_one_minus_x():
    # the zetas above vanish to order at most 2; (1 - X)^k has order k
    for field in (F2, F3, F4):
        spec = RingSpec.polyring(field)
        minus_one = field.p - 1
        for k in range(8):
            coeffs = [spec.one().scale_const(math.comb(k, j) * minus_one ** j % field.p)
                      for j in range(k + 1)]
            z = ZetaPolynomial(spec, 1, coeffs)
            assert z.ord_at_one() == ord_from_coeffs(z.coeffs, spec) == k


def test_budget_refusal(ex26, monkeypatch):
    monkeypatch.setattr("ffzeta.zeta.DEFAULT_BUDGET", 4)
    with pytest.raises(BudgetError):
        zeta_neg(21, ex26)


def test_over_budget_refused_before_first_power(no_powers):
    # s = 2^21 - 1 plans S(0..21); S(21) sums over 2^21 monic elements
    with pytest.raises(BudgetError, match=r"^a power-sum slice over 2\^21 "
                       r"points exceeds the budget 1048576$"):
        zeta_neg(2 ** 21 - 1, RingSpec.polyring(F2))


def test_gap_degrees_skip_terms(ex26):
    # degrees 1, 3, 5 are gaps of <2, 7>: those coefficients are zero sums
    z = zeta_neg(7, ex26)
    for d in (1, 3, 5):
        if d <= z.d_max:
            assert z.coeffs[d].is_zero
