import operator
import random
from pathlib import Path

import pytest
from oracles import elem_from_str, poly_eval

from ffzeta.gf import (
    _PRIMES, FF, GF, NEG_INF, TABLE_CAP, Poly, default_modulus, is_irreducible,
    is_squarefree,
    monic_polys, poly_factor, poly_from_str, poly_gcd, poly_to_str,
    poly_xgcd, polys_below, square_and_multiply, valuation_profile,
)
from ffzeta.ideals import class_group, ideal_from_generators, ideal_mul
from ffzeta.ringfile import parse_ring_spec

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
        GF(37)
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


def _digits(a, p, n):
    return [a // p ** i % p for i in range(n)]


def _code(ds, p):
    return sum(d % p * p ** i for i, d in enumerate(ds))


def _slow_mul(field, a, b):
    """a * b from the product of the digit polynomials, reduced mod the
    field modulus by long division."""
    p, n = field.p, field.n
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(_digits(a, p, n)):
        for j, y in enumerate(_digits(b, p, n)):
            prod[i + j] += x * y
    for top in range(2 * n - 2, n - 1, -1):
        c = prod[top]
        for i, m in enumerate(field.modulus):
            prod[top - n + i] -= c * m
    return _code(prod[:n], p)


# every default-modulus field with q <= 512, and two other moduli
ALL_FIELDS = [GF(p, n) for p in _PRIMES for n in range(1, 10)
              if p ** n <= 512] + [GF(2, 3, (1, 0, 1, 1)), GF(3, 2, (2, 2, 1))]


def test_field_scalar_ops_exhaustive():
    rng = random.Random(512)
    for field in ALL_FIELDS:
        p, n, q = field.p, field.n, field.q
        for a in range(q):
            da = _digits(a, p, n)
            assert field.digits(a) == tuple(da)
            assert field.from_digits(da) == a
            assert field.neg(a) == _code([-d for d in da], p)
            if a:
                assert _slow_mul(field, a, field.inv(a)) == 1
            x = a
            for _ in range(p - 1):
                x = _slow_mul(field, x, a)
            assert field.pow(a, p) == x
        if q <= 64:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(1000)]
        for a, b in pairs:
            da, db = _digits(a, p, n), _digits(b, p, n)
            assert field.add(a, b) == _code([x + y for x, y in zip(da, db)], p)
            assert field.mul(a, b) == _slow_mul(field, a, b)


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


@pytest.mark.parametrize("field", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_sub_matches_add_negation(field):
    rng = random.Random(field.q)
    polys = [Poly(field, [rng.randrange(field.q) for _ in range(n)])
             for n in (0, 1, 2, 3, 5, 8) for _ in range(4)]
    for a in polys:
        for b in polys:
            assert a - b == a + (-b)
        # a copy of a with a different leading part: the top cancels
        top = Poly.monomial(field, len(a.coeffs) + 2, 1)
        assert (a + top) - top == a
        assert a - a == Poly.zero(field)
        assert Poly.zero(field) - a == -a


# -- tuple-of-codes oracle --------------------------------------------------
# Plain coefficient tuples, lowest degree first, worked coefficient by
# coefficient through the field tables (checked exhaustively above).

def t_strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def t_add(f, a, b):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return t_strip(f.add(x, y) for x, y in zip(a, b))


def t_neg(f, a):
    return tuple(f.neg(x) for x in a)


def t_scale(f, a, c):
    return t_strip(f.mul(c, x) for x in a)


def t_mul(f, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return t_strip(out)


def t_divmod(f, a, b):
    rem = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv = f.inv(b[-1])
    for i in range(len(quo) - 1, -1, -1):
        c = f.mul(rem[i + len(b) - 1], inv)
        quo[i] = c
        for j, y in enumerate(b):
            rem[i + j] = f.add(rem[i + j], f.neg(f.mul(c, y)))
    return t_strip(quo), t_strip(rem[:len(b) - 1])


def t_spread(a, stride):
    out = [0] * (stride * (len(a) - 1) + 1) if a else []
    for i, x in enumerate(a):
        out[stride * i] = x
    return tuple(out)


def t_derivative(f, a):
    return t_strip(f.mul(i % f.p, x) for i, x in enumerate(a) if i)


def t_order_key(a):
    """By degree, then the coefficient codes read from the top: the order of
    packed ints that `valuation_profile` sorts factors by."""
    return (len(a), tuple(reversed(a)))


def _naive_mul(a, b):
    return Poly(a.field, t_mul(a.field, a.coeffs, b.coeffs))


def test_kronecker_mul_matches_naive():
    # slot bound min(la, lb) * n (p-1)^2 (1 + (n-1)(p-1)) on each side of
    # 2^8 and 2^16 where the lengths allow, and unequal lengths; operands
    # with every digit p-1 give the largest slot sums
    rng = random.Random(5)
    for field in (F2, F3, GF(13), GF(31), F4, F9, GF(2, 3), GF(2, 9), GF(7, 3),
                  GF(17, 2)):
        p, n, q = field.p, field.n, field.q
        per_term = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
        top = field.mul(q - 1, q - 1)
        lengths = [(3, 400), (400, 3), (40, 47), (120, 120)]
        for limit in (2 ** 8, 2 ** 16):
            below = (limit - 1) // per_term
            lengths += [(m, m + 9) for m in (below, below + 1) if 1 <= m <= 900]
        for la, lb in lengths:
            a = Poly(field, [rng.randrange(q) for _ in range(la - 1)] + [1])
            b = Poly(field, [rng.randrange(q) for _ in range(lb - 1)] + [1])
            assert a * b == _naive_mul(a, b)
            # coefficient k of the all-(q-1) product counts its terms mod p
            want = [field.mul(min(k + 1, la, lb, la + lb - 1 - k) % p, top)
                    for k in range(la + lb - 1)]
            assert Poly(field, [q - 1] * la) * Poly(field, [q - 1] * lb) == Poly(field, want)


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


@pytest.mark.parametrize("kind", ["code", "poly", "element", "ideal"])
def test_square_and_multiply_counts_products(kind, h4g3):
    # k = 1..40 against repeated products, with exactly
    # bit_length(k) + popcount(k) - 2 products and no identity to start from
    x, mul = {
        "code": (5, F9.mul),
        "poly": (P(F3, "x^2 + 2*x + 2"), operator.mul),
        "element": (elem_from_str(h4g3, "x + 1; 1"), operator.mul),
        "ideal": (ideal_from_generators(
            [elem_from_str(h4g3, "x"), h4g3.monomial(0, 1)], h4g3), ideal_mul),
    }[kind]
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    acc = x
    for k in range(1, 41):
        calls.clear()
        assert square_and_multiply(x, k, counted) == acc, k
        assert len(calls) == k.bit_length() + k.bit_count() - 2, k
        acc = mul(acc, x)
    with pytest.raises(ValueError, match="k >= 1"):
        square_and_multiply(x, 0, mul)


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
    assert [poly_eval(f, a) for a in range(3)] == [1, 1, 1]  # x^3 + 2x is identically 0 on F_3
    assert poly_to_str(f.derivative()) == "2"  # 3x^2 + 2
    g = P(F3, "x^2 + 1")
    assert [poly_eval(g, a) for a in range(3)] == [1, 2, 2]
    assert P(F2, "x^4 + x^2 + 1").derivative().is_zero


def test_xgcd_bezout():
    rng = random.Random(14)
    for field in (F3, F9):
        for _ in range(60):
            a, b = (Poly(field, [rng.randrange(field.q)
                                 for _ in range(rng.randrange(6))])
                    for _ in range(2))
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
            assert facs == sorted(facs, key=lambda t: t[0].packed)


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
    assert P(F2, "x^1") == Poly.monomial(F2, 1)


def test_literal_errors():
    for bad in ("", "x +", "x^", "y + 1", "x^-2", "2 - x", "(x", "x)"):
        with pytest.raises(ValueError):
            P(F2, bad)
    with pytest.raises(ValueError):
        P(F2, "t*x")  # no t over a prime field
    with pytest.raises(ValueError):
        P(F2, "(x + 1)*x")  # a parenthesised factor is a scalar


@pytest.mark.parametrize("field", [f for f in ALL_FIELDS if f.n > 1],
                         ids=repr)
def test_scalar_literals_are_polynomials_in_t(field):
    base = GF(field.p)
    for a in range(field.q):
        s = field.el_to_str(a)
        assert s == poly_to_str(Poly(base, field.digits(a)), "t")
        assert P(field, s) == Poly.const(field, a)


def test_scalar_literal_powers_and_nesting():
    assert P(F4, "t^3") == Poly.one(F4)          # t^2 = t + 1, so t^3 = 1
    assert (P(F4, "((t + 1)*t)*x") == P(F4, "(t^2 + t)*x")
            == Poly.monomial(F4, 1))
    assert P(F9, "(t)*(2*t)*x^2") == P(F9, "2*t^2*x^2")


def test_poly_constructor_validation():
    with pytest.raises(ValueError):
        Poly(F2, [0, 2])
    assert Poly(F2, [1, 1, 0, 0]).coeffs == (1, 1)


# -- the packed form against the oracle -------------------------------------

def _slot_steps(field):
    """Lengths on both sides of the shorter-operand lengths at which the
    Kronecker slot grows past 1 and 2 bytes (256 and 2^16)."""
    p, n = field.p, field.n
    per_term = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
    out = []
    for limit in (2 ** 8, 2 ** 16):
        below = (limit - 1) // per_term
        out += [m for m in (below, below + 1) if 1 <= m <= 900]
    return out


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_packed_ops_match_oracle(field):
    rng = random.Random(field.q * 31 + field.n)
    q = field.q
    polys = [tuple(rng.randrange(q) for _ in range(n)) for n in (0, 1, 2, 3, 5, 9, 24)]
    polys += [(q - 1,) * 6, (0, 0, 1), (1,) + (0,) * 7]
    for a in polys:
        pa = Poly(field, a)
        a = t_strip(a)
        assert pa.coeffs == a
        assert (-pa).coeffs == t_neg(field, a)
        assert pa.derivative().coeffs == t_derivative(field, a)
        for stride in (2, q):
            assert pa.spread(stride).coeffs == t_spread(a, stride)
        for c in {0, 1, field.p - 1, q - 1, rng.randrange(q)}:
            assert Poly._scale(pa, c).coeffs == t_scale(field, a, c)
        for b in polys:
            pb = Poly(field, b)
            b = t_strip(b)
            assert (pa + pb).coeffs == t_add(field, a, b)
            assert (pa - pb).coeffs == t_add(field, a, t_neg(field, b))
            assert (pa * pb).coeffs == t_mul(field, a, b)
            assert (pa == pb) == (a == b)
            if a == b:
                assert hash(pa) == hash(pb)
            assert ((pa.packed < pb.packed)
                    == (t_order_key(a) < t_order_key(b)))
            if b:
                qq, r = divmod(pa, pb)
                assert (qq.coeffs, r.coeffs) == t_divmod(field, a, b)


@pytest.mark.parametrize("field", ALL_FIELDS, ids=repr)
def test_packed_mul_across_slot_widths(field):
    # random operands, and all-(q-1) operands, which give the largest slot
    # sums: coefficient k of their product counts its terms mod p
    rng = random.Random(field.q)
    p, q = field.p, field.q
    top = field.mul(q - 1, q - 1)
    for m in _slot_steps(field):
        a = tuple(rng.randrange(q) for _ in range(m - 1)) + (1,)
        b = tuple(rng.randrange(q) for _ in range(m + 8)) + (q - 1,)
        assert (Poly(field, a) * Poly(field, b)).coeffs == t_mul(field, a, b)
        la, lb = m, m + 9
        want = [field.mul(min(k + 1, la, lb, la + lb - 1 - k) % p, top)
                for k in range(la + lb - 1)]
        assert Poly(field, [q - 1] * la) * Poly(field, [q - 1] * lb) == Poly(field, want)


@pytest.mark.parametrize("p", _PRIMES)
def test_byte_slot_bounds_hold_for_every_prime(p):
    # the bounds the gf module states for a byte slot, at every accepted p
    assert 2 * (p - 1) <= 255          # add, sub: two digits
    assert 8 * (p - 1) <= 255          # _reduce_slots: k <= 8 reduced bytes
    lazy = 255 // (p - 1) - 1          # __divmod__'s steps between reductions
    assert lazy >= 1 and (lazy + 1) * (p - 1) <= 255


def test_next_prime_breaks_a_byte_slot_bound():
    # _PRIMES stops where the bounds stop: the next prime (37 today)
    # overflows _reduce_slots' 8(p-1) <= 255, so widening the list needs a
    # new bound, and a list that stops short of the bounds fails here
    p = next(p for p in range(_PRIMES[-1] + 1, 256)
             if all(p % d for d in range(2, p)))
    assert 8 * (p - 1) > 255
    with pytest.raises(ValueError):
        GF(p)


@pytest.mark.parametrize("p", [2, 11, 13, 31])
def test_divmod_long_quotient_lazy_reduction(p):
    # divmod reduces its slots every 255 // (p-1) - 1 steps (7 at p = 31,
    # 20 at p = 13, 24 at p = 11).  With an all-ones divisor longer than that
    # and an all-ones quotient, every step adds p-1 to each slot of a window
    # that covers the steps since the last reduction, so slots reach the
    # bound.
    field = GF(p)
    ones = Poly(field, [1] * 40)
    quo = Poly(field, [1] * 300)
    assert divmod(ones * quo, ones) == (quo, Poly.zero(field))
    rng = random.Random(p)
    for _ in range(5):
        a = tuple(rng.randrange(p) for _ in range(400)) + (1,)
        b = tuple(rng.randrange(p) for _ in range(rng.randrange(1, 60))) + (rng.randrange(1, p),)
        qq, r = divmod(Poly(field, a), Poly(field, b))
        assert (qq.coeffs, r.coeffs) == t_divmod(field, a, b)


# -- tables kept on the field ----------------------------------------------

# every field with q <= TABLE_CAP: the base fields of the test rings and
# the fields F_(q^k) their point counts run over are among them
EVERY_FIELD = [(p, n) for p in _PRIMES for n in range(1, 10)
               if p ** n <= TABLE_CAP]


def orbits_by_walk(E, r):
    """One (x, size) per orbit of x -> x^r, x the least code of its orbit,
    walked by field powers."""
    seen = set()
    out = []
    for x in range(E.q):
        size, y = 0, x
        while y not in seen:
            seen.add(y)
            size += 1
            y = E.pow(y, r)
        if size:
            out.append((x, size))
    return tuple(out)


def embedding_by_scan(sub, E):
    """The codes in E of sub's elements, t sent to the least root of sub's
    modulus in E."""
    if sub.n == 1:
        return tuple(range(sub.p))
    theta = next(r for r in range(E.q)
                 if poly_eval(Poly(E, sub.modulus), r) == 0)
    return tuple(poly_eval(Poly(E, sub.digits(a)), theta)
                 for a in range(sub.q))


@pytest.mark.parametrize("p,n", EVERY_FIELD,
                         ids=[f"{p}^{n}" for p, n in EVERY_FIELD])
def test_kept_tables_equal_fresh_builds(p, n):
    # the tables GF(p, n) keeps, whichever test built them first, equal
    # those of a fresh FF(p, n) and an independent build
    kept, fresh = GF(p, n), FF(p, n)
    subfields = [GF(p, i) for i in range(1, n + 1) if n % i == 0]
    for field in (kept, fresh):
        for sub in subfields:
            assert field.frobenius_orbits(sub.q) == orbits_by_walk(field, sub.q)
            assert field.embedding(sub) == embedding_by_scan(sub, field)
        d = 1
        while field.q ** d <= TABLE_CAP:
            assert field.irreducibles(d) == tuple(
                M for M in monic_polys(field, d) if is_irreducible(M))
            d += 1
        field.roots((0, 0, 1))
        squares = [[] for _ in range(field.q)]
        shifted = [[] for _ in range(field.q)]
        for z in range(field.q):
            squares[field.mul(z, z)].append(z)
            shifted[field.add(field.mul(z, z), z)].append(z)
        assert field._root_tables == (tuple(map(tuple, squares)),
                                      tuple(map(tuple, shifted)))


def test_kept_tables_refuse_a_field_that_is_no_subfield():
    F16 = GF(2, 4)
    for r in (3, 8, 32):
        with pytest.raises(ValueError, match="no subfield"):
            F16.frobenius_orbits(r)
    for sub in (F3, GF(2, 3)):
        with pytest.raises(ValueError, match="no subfield"):
            F16.embedding(sub)


def test_rings_over_one_field_read_the_same_tables(monkeypatch):
    # ex36 and h8g2 are genus-2 rings over F_3: the class group of the
    # second reads every table the first read, as the same objects
    reads = []
    for name in ("frobenius_orbits", "embedding", "irreducibles"):
        def reader(field, key, real=getattr(FF, name), name=name):
            table = real(field, key)
            reads.append(((name, field, key), table))
            return table
        monkeypatch.setattr(FF, name, reader)

    def tables(ring):
        del reads[:]
        class_group(ring)
        fields = {key[1] for key, _ in reads if key[0] == "frobenius_orbits"}
        return dict(reads), {E: E._root_tables for E in fields}

    first, first_roots = tables(parse_ring_spec("ex36"))
    second, second_roots = tables(parse_ring_spec(
        Path(__file__).resolve().parent.parent / "perfbench/rings/h8g2.ring"))
    assert {key[0] for key in first} == {"frobenius_orbits", "embedding",
                                         "irreducibles"}
    assert second.keys() == first.keys()
    assert all(second[key] is first[key] for key in first)
    assert second_roots.keys() == first_roots.keys()
    assert all(second_roots[E] is first_roots[E] is not None
               for E in first_roots)
