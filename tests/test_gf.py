import random

import pytest

from ffzeta.gf import (
    GF, NEG_INF, Poly, default_modulus, is_irreducible, is_squarefree,
    monic_polys, poly_factor, poly_from_str, poly_gcd, poly_to_str,
    polys_below, valuation_profile,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F9 = GF(3, 2)


def P(field, s):
    return poly_from_str(field, s)


# -- field construction -----------------------------------------------------

def test_field_caps():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(17)
    with pytest.raises(ValueError):
        GF(2, 10)  # q = 1024 over the table cap
    with pytest.raises(ValueError):
        GF(2, 1, modulus=(1, 1))  # modulus is meaningless over the prime field
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2


def test_default_moduli():
    assert F4.modulus == (1, 1, 1)        # t^2 + t + 1
    assert default_modulus(2, 3) == (1, 1, 0, 1)  # t^3 + t + 1
    assert F9.modulus == (1, 0, 1)        # t^2 + 1

def test_field_scalar_ops():
    assert F3.add(2, 2) == 1
    assert F3.mul(2, 2) == 1
    assert F3.inv(2) == 2
    assert F3.neg(1) == 2
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)
    # F4: code 2 encodes t, and t^2 = t + 1 under t^2+t+1
    assert F4.mul(2, 2) == 3
    assert F4.add(2, 3) == 1
    assert F4.pow(2, 3) == 1  # multiplicative order 3


def test_field_scalar_ops_exhaustive():
    for field in (F4, F9, GF(2, 3)):
        p, q = field.p, field.q
        for a in range(q):
            da = field.digits(a)
            assert field.from_digits(da) == a
            assert field.add(a, field.neg(a)) == 0
            if a:
                assert field.mul(a, field.inv(a)) == 1
            # frobenius is the p-th power
            assert field.frob(a) == field.pow(a, p)


# -- polynomial basics ------------------------------------------------------

def test_zero_degree():
    z = Poly.zero(F2)
    assert z.is_zero
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert Poly.one(F2).degree == 0


def test_divrem_frozen_example():
    q, r = divmod(P(F3, "x^2 + 1"), P(F3, "x + 1"))
    assert poly_to_str(q) == "x + 2"
    assert poly_to_str(r) == "2"


def test_gcd_frozen_example():
    g = poly_gcd(P(F2, "x^2 + x"), P(F2, "x^2 + 1"))
    assert poly_to_str(g) == "x + 1"


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(F2, "x"), Poly.zero(F2))


def test_divrem_reconstruction_random():
    rng = random.Random(20260823)
    for field in (F2, F3, F4, F9):
        for _ in range(150):
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 10))])
            b = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 6))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_ring_axioms_random():
    rng = random.Random(99)
    for field in (F2, F3, GF(5), F4, F9):
        for _ in range(60):
            a, b, c = (Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(7))])
                       for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == Poly.zero(field)


def _naive_mul(a, b):
    f = a.field
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1) if a.coeffs and b.coeffs else []
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = f.add(out[i + j], f.mul(ca, cb))
    return Poly(f, out)


def test_numpy_mul_matches_naive():
    rng = random.Random(5)
    for field in (F2, F3, GF(13), F4, F9, GF(2, 3)):
        for ln in (3, 40, 120):
            a = Poly(field, [rng.randrange(field.q) for _ in range(ln)])
            b = Poly(field, [rng.randrange(field.q) for _ in range(ln + 7)])
            assert a * b == _naive_mul(a, b)


def test_degrees_multiply():
    rng = random.Random(6)
    for _ in range(50):
        a = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 8))] + [1])
        b = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 8))] + [2])
        assert (a * b).degree == a.degree + b.degree


def powmod(a, k, modulus):
    """Oracle: square-and-multiply with a reduction after every product."""
    r = Poly.one(a.field) % modulus
    b = a % modulus
    while k:
        if k & 1:
            r = (r * b) % modulus
        b = (b * b) % modulus
        k >>= 1
    return r


def test_pow_and_powmod():
    rng = random.Random(11)
    for field in (F2, F9):
        m = Poly(field, [rng.randrange(field.q) for _ in range(4)] + [1])
        for _ in range(30):
            a = Poly(field, [rng.randrange(field.q) for _ in range(5)])
            k = rng.randrange(1, 40)
            assert powmod(a, k, m) == (a ** k) % m
        assert (a ** 0) == Poly.one(field)


def test_frobenius_is_additive():
    rng = random.Random(12)
    for field in (F2, F3, GF(5), F4, F9):
        p = field.p
        for _ in range(40):
            a = Poly(field, [rng.randrange(field.q) for _ in range(6)])
            b = Poly(field, [rng.randrange(field.q) for _ in range(6)])
            assert (a + b) ** p == a ** p + b ** p


def test_spread_is_q_power():
    # coefficients of F_q are fixed by the q-power map, so a(x)^q = a(x^q)
    rng = random.Random(13)
    for field in (F2, F3, F4, F9):
        q = field.q
        for _ in range(25):
            a = Poly(field, [rng.randrange(q) for _ in range(5)])
            assert a ** q == a.spread(q)


def test_eval_and_derivative():
    f = P(F3, "x^3 + 2*x + 1")
    assert [f.eval(a) for a in range(3)] == [1, 1, 1]  # x^3 + 2x is identically 0 on F_3
    assert poly_to_str(f.derivative()) == "2"  # 3x^2 + 2
    g = P(F3, "x^2 + 1")
    assert [g.eval(a) for a in range(3)] == [1, 2, 2]
    assert P(F2, "x^4 + x^2 + 1").derivative().is_zero


def poly_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g, g monic (or zero)."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    c = Poly.const(f, f.inv(r0.lc))
    return r0.monic(), c * s0, c * t0


def test_xgcd_bezout():
    rng = random.Random(14)
    for _ in range(60):
        a = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(6))])
        b = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(6))])
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        assert g == poly_gcd(a, b)


# -- enumeration ------------------------------------------------------------

def test_monic_enumeration_order():
    assert [poly_to_str(f) for f in monic_polys(F2, 1)] == ["x", "x + 1"]
    assert [poly_to_str(f) for f in monic_polys(F2, 2)] == [
        "x^2", "x^2 + 1", "x^2 + x", "x^2 + x + 1"]
    assert [poly_to_str(f) for f in monic_polys(F3, 0)] == ["1"]
    assert len(list(polys_below(F3, 2))) == 9


# -- factorization ----------------------------------------------------------

def test_factor_frozen_irreducible():
    u, facs = poly_factor(P(F2, "x^5 + x^3 + x^2 + x + 1"))
    assert u == 1
    assert facs == [(P(F2, "x^5 + x^3 + x^2 + x + 1"), 1)]
    assert is_irreducible(P(F2, "x^5 + x^3 + x^2 + x + 1"))


def test_factor_composite():
    u, facs = poly_factor(P(F2, "x^2 + x"))
    assert u == 1
    assert facs == [(P(F2, "x"), 1), (P(F2, "x + 1"), 1)]
    u, facs = poly_factor(P(F3, "2*x^2 + 2"))
    # 2(x^2+1) and x^2+1 is irreducible over F_3
    assert u == 2
    assert facs == [(P(F3, "x^2 + 1"), 1)]


def _reference_irreducible(f):
    if f.degree < 1:
        return False
    for d in range(1, f.degree):
        for g in monic_polys(f.field, d):
            if (f % g).is_zero:
                return False
    return True


@pytest.mark.parametrize("field,maxdeg", [(F2, 6), (F3, 5)])
def test_factor_exhaustive(field, maxdeg):
    for d in range(1, maxdeg + 1):
        for f in monic_polys(field, d):
            u, facs = poly_factor(f)
            prod = Poly.const(field, u)
            for pi, e in facs:
                assert pi.is_monic
                assert _reference_irreducible(pi)
                prod = prod * pi ** e
            assert prod == f
            assert facs == sorted(facs, key=lambda t: t[0].sort_key)


def test_is_squarefree():
    assert is_squarefree(P(F2, "x^2 + x"))
    assert not is_squarefree(P(F2, "x^2"))
    assert not is_squarefree(P(F2, "x^4 + x^2 + 1"))  # (x^2+x+1)^2, derivative 0
    assert not is_squarefree(P(F3, "x^3 + 1"))        # (x+1)^3
    assert is_squarefree(P(F3, "x^3 + 2*x"))
    assert not is_squarefree(Poly.zero(F3))


def test_valuation_profile():
    prof = valuation_profile(P(F2, "x^2 + x"), P(F2, "x^3"))
    assert [(poly_to_str(p), e) for p, e in prof] == [("x", -2), ("x + 1", 1)]
    with pytest.raises(ValueError):
        valuation_profile(Poly.zero(F2), Poly.one(F2))
    # cancellation: v(x/x) is empty
    assert valuation_profile(P(F2, "x"), P(F2, "x")) == []


# -- literals ---------------------------------------------------------------

def test_literal_round_trip_prime():
    for s in ("0", "1", "x", "x + 1", "x^5 + x^3 + x^2 + x + 1"):
        f = P(F2, s)
        assert poly_to_str(f) == s
        assert P(F2, poly_to_str(f)) == f
    assert poly_to_str(P(F3, "2*x^5 + x")) == "2*x^5 + x"


def test_literal_round_trip_extension():
    f = P(F4, "(t+1)*x^2 + t")
    assert poly_to_str(f) == "(t + 1)*x^2 + t"
    assert P(F4, poly_to_str(f)) == f
    g = P(F9, "(2*t + 1)*x^3 + t^2 + 2")
    assert P(F9, poly_to_str(g)) == g


def test_literal_whitespace_and_coefficients():
    assert P(F2, " x^2+x ") == P(F2, "x^2 + x")
    assert P(F3, "4*x") == P(F3, "x")  # coefficients reduce mod p
    assert P(F2, "x^1") == Poly.x(F2)


def test_literal_errors():
    for bad in ("", "x +", "x^", "y + 1", "x^-2", "2 - x", "(x", "x)"):
        with pytest.raises(ValueError):
            P(F2, bad)
    with pytest.raises(ValueError):
        P(F2, "t*x")  # no t over a prime field


def test_poly_constructor_validation():
    with pytest.raises(ValueError):
        Poly(F2, [0, 2])
    assert Poly(F2, [1, 1, 0, 0]).coeffs == (1, 1)
