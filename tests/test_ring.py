import itertools

import pytest

from ffzeta.errors import RingValidationError
from ffzeta.gf import GF, Poly, monic_polys, poly_from_str, poly_to_str
from ffzeta.ring import RingElement, RingSpec, elem_to_str

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def P(field, s):
    return poly_from_str(field, s)


def cab(field, c0, c1):
    return RingSpec.cab(field, (P(field, c0), P(field, c1)))


# -- validation -------------------------------------------------------------

def test_shipped_specs_validate(ex26, ex36, h4g3):
    for spec, n in ((ex26, 7), (ex36, 5), (h4g3, 7)):
        rep = spec.require_valid()
        assert rep.ok
        assert spec.N == n
        assert spec.m == 2
        assert spec.delta == (0, n)


def test_polyring_validates():
    spec = RingSpec.polyring(F4)
    assert spec.validate().ok
    assert spec.m == 1 and spec.delta == (0,)


def test_gcd_violation_rejected():
    spec = cab(F2, "x^4 + x", "0")   # m = 2, N = 4
    rep = spec.validate()
    assert not rep.ok
    assert any(name == "gcd" for name, _ in rep.failures)
    with pytest.raises(RingValidationError, match="gcd"):
        spec.require_valid()


def test_weight_violation_rejected():
    # w(c_1 y) = 2*3 + 7 = 13 >= m*N = 14 is fine; push c_1 to degree 4
    spec = cab(F2, "x^7 + x", "x^4")
    rep = spec.validate()
    assert not rep.ok
    assert any(name == "weight" for name, _ in rep.failures)


def test_c0_zero_rejected():
    spec = cab(F2, "0", "x")
    assert not spec.validate().ok


def test_smoothness_h4g3_vs_char2_square_form(h4g3):
    assert h4g3.validate().singular_finite == ()
    # y^2 = f with f' != 0 is singular wherever f' vanishes in char 2
    sing = cab(F2, "x^3", "0").validate().singular_finite
    assert sing  # singular at x = 0
    assert any(poly_to_str(p) == "x" for p in sing)


def test_smoothness_odd_char(ex36):
    assert ex36.validate().singular_finite == ()
    # y^2 = x^3 has a cusp at the origin
    sing = cab(F3, "2*x^3", "0").validate().singular_finite
    assert any(poly_to_str(p) == "x" for p in sing)


def test_custom_table_roundtrip(h4g3):
    one, zero = Poly.one(F2), Poly.zero(F2)
    c0, c1 = h4g3.coeffs
    table = [[(one, zero), (zero, one)], [(zero, one), (c0, c1)]]
    spec = RingSpec.custom(F2, (0, 7), table)
    assert spec.validate().ok
    # same structure constants, same products
    a = spec.elem((P(F2, "x^3 + 1"), P(F2, "x")))
    b = spec.elem((P(F2, "x + 1"), P(F2, "1")))
    ha = h4g3.elem(a.vec)
    hb = h4g3.elem(b.vec)
    assert (a * b).vec == (ha * hb).vec


def test_custom_table_broken_identity_rejected():
    one, zero = Poly.one(F2), Poly.zero(F2)
    table = [[(one, zero), (one, one)], [(one, one), (zero, one)]]
    rep = RingSpec.custom(F2, (0, 7), table).validate()
    assert not rep.ok
    assert any(name == "identity" for name, _ in rep.failures)


# -- degrees and monicity ---------------------------------------------------

def test_degrees(h4g3):
    x, y = h4g3.x(), h4g3.y()
    assert x.degree == 2
    assert y.degree == 7
    assert (y + x ** 3).degree == 7
    assert (x ** 4 + y).degree == 8
    assert h4g3.one().degree == 0
    assert h4g3.zero().is_zero


def test_degree_additive(h4g3):
    a = h4g3.elem_from_str("x^3 + x; x")
    b = h4g3.elem_from_str("x + 1; x^2")
    assert (a * b).degree == a.degree + b.degree


def test_monic_leading(h4g3):
    y, x = h4g3.y(), h4g3.x()
    assert y.is_monic and x.is_monic
    e = h4g3.elem_from_str("x^2; 1")    # y + x^2, degree 7
    assert e.degree == 7 and e.is_monic


def test_relation_substitution(h4g3):
    # y^2 = c1 y + c0 over F_2
    y = h4g3.y()
    c0, c1 = h4g3.coeffs
    lhs = y * y
    rhs = y.scale(c1) + h4g3.elem_from_poly(c0)
    assert lhs == rhs


def test_polyring_matches_poly_arithmetic():
    spec = RingSpec.polyring(F3)
    a, b = P(F3, "x^2 + 2*x"), P(F3, "2*x^3 + 1")
    assert (spec.elem_from_poly(a) * spec.elem_from_poly(b)).vec[0] == a * b
    assert spec.elem_from_poly(a).degree == 2


# -- W_d spaces -------------------------------------------------------------

def test_dim_W_sequence(h4g3):
    dims = [h4g3.dim_W(d) for d in range(10)]
    assert dims == [0, 1, 1, 2, 2, 3, 3, 4, 5, 6]


def test_dim_W_steps(ex26, ex36):
    for spec in (ex26, ex36):
        prev = 0
        for d in range(1, 25):
            cur = spec.dim_W(d)
            assert cur - spec.dim_W(d - 1) in (0, 1)
            assert cur >= prev
            prev = cur


def test_basis_W_degrees(h4g3):
    basis = h4g3.basis_W(8)
    assert len(basis) == h4g3.dim_W(8)
    degs = sorted(e.degree for e in basis)
    assert degs == [0, 2, 4, 6, 7]


# -- monic enumeration ------------------------------------------------------

def test_enumerate_monic_zero_degree(h4g3):
    got = list(h4g3.enumerate_monic(0))
    assert got == [h4g3.one()]


def test_enumerate_monic_gap_degree(h4g3):
    assert list(h4g3.enumerate_monic(1)) == []
    assert list(h4g3.enumerate_monic(3)) == []


def test_enumerate_monic_counts(h4g3):
    for d in range(11):
        got = list(h4g3.enumerate_monic(d))
        assert len(got) == h4g3.count_monic(d)
        if got:
            assert len(got) == 2 ** h4g3.dim_W(d)
        assert len(set(got)) == len(got)
        for e in got:
            assert e.is_monic and e.degree == d


def test_enumerate_monic_deterministic(ex36):
    a = [elem_to_str(e) for e in ex36.enumerate_monic(5)]
    b = [elem_to_str(e) for e in ex36.enumerate_monic(5)]
    assert a == b
    assert len(a) == 3 ** ex36.dim_W(5)


def test_polyring_monic_enumeration_is_monic_polys():
    spec = RingSpec.polyring(F2)
    got = [e.vec[0] for e in spec.enumerate_monic(3)]
    assert sorted(p.sort_key for p in got) == sorted(
        p.sort_key for p in monic_polys(F2, 3))
    assert len(got) == 8


# -- element plumbing -------------------------------------------------------

def test_elem_str_roundtrip(h4g3):
    e = h4g3.elem_from_str("x^3 + x + 1; x^2 + 1")
    assert h4g3.elem_from_str(elem_to_str(e)) == e
    # bare polynomial literals embed through the poly part
    assert h4g3.elem_from_str("x^2 + x") == h4g3.elem_from_poly(P(F2, "x^2 + x"))


def test_poly_part(h4g3):
    e = h4g3.elem_from_poly(P(F2, "x^4 + 1"))
    assert e.poly_part() == P(F2, "x^4 + 1")
    assert h4g3.y().poly_part() is None


def test_pow_digits_matches_repeated_product(h4g3):
    e = h4g3.elem_from_str("x + 1; 1")
    acc = h4g3.one()
    for _ in range(11):
        acc = acc * e
    assert e.pow_digits(11) == acc
    assert e ** 11 == acc


def binary_pow(e, k):
    """Oracle: plain binary powering by repeated squaring."""
    r = e.spec.one()
    b = e
    while k:
        if k & 1:
            r = r * b
        b = b * b
        k >>= 1
    return r


def test_power_matches_binary_oracle():
    for field in (F2, F3, F4, GF(5), GF(7), GF(3, 2), GF(13)):
        q = field.q
        # y^2 = x^3 + x + 1, or y^2 + y = x^3 + x + 1 in characteristic 2
        if field.p == 2:
            curve = cab(field, "x^3 + x + 1", "1")
        else:
            c = field.p - 1
            curve = cab(field, f"{c}*x^3 + {c}*x + {c}", "0")
        # 0, digits below q, powers of q, and every digit up to q - 1
        exps = {0, 1, q - 1, q, q * q, q * q - 1, q - 1 + q + min(2, q - 1) * q * q}
        for spec in (RingSpec.polyring(field), curve):
            e = spec.elem_from_str("x + 1; x" if spec.m == 2 else "x^2 + x + 1")
            for s in sorted(exps):
                assert e ** s == binary_pow(e, s), (q, spec.m, s)


def test_negative_power_rejected(h4g3):
    e = h4g3.elem_from_str("x + 1; 1")
    with pytest.raises(ValueError, match="negative element power"):
        e.pow_digits(-1)
    with pytest.raises(ValueError, match="negative element power"):
        e ** -1


def test_frobenius_is_qth_power(ex36):
    e = ex36.elem_from_str("x + 2; 2*x")
    assert e.frobenius_q() == e * e * e


def test_scale_and_neg(ex36):
    e = ex36.elem_from_str("x; 1")
    assert e.scale_const(2) == e + e
    assert e + (-e) == ex36.zero()
