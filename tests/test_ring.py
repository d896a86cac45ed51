import random
from pathlib import Path

import pytest
from oracles import cutoff_by_dims, elem_from_str, monomials_below

from ffzeta.errors import RingValidationError
from ffzeta.gf import GF, Poly, monic_polys, poly_from_str, poly_to_str
from ffzeta.ideals import enumerate_ideals, ideal_from_generators, ideal_mul
from ffzeta.ring import RingSpec, elem_to_str
from ffzeta.ringfile import bundled_ring_names, parse_ring_spec
from ffzeta.semigroup import semigroup_from_ring
from ffzeta.zeta import term_leads, zeta_neg

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


def failure_names(spec):
    return [name for name, _ in spec.validate().failures]


def h4g3_table(b1b0=None):
    """h4g3's table, b_1 * b_0 replaced by b1b0 when given."""
    one, zero = Poly.one(F2), Poly.zero(F2)
    c0, c1 = P(F2, "x^7 + x^6 + x^5 + x"), P(F2, "x^2 + x")
    return [[(one, zero), (zero, one)], [b1b0 or (zero, one), (c0, c1)]]


@pytest.mark.parametrize("delta, names", [
    ((2, 7), ["delta0"]),
    ((0, 4), ["delta-residues", "gcd"]),
], ids=["delta0", "gcd"])
def test_custom_degree_offsets_refused(delta, names):
    assert failure_names(RingSpec.custom(F2, delta, h4g3_table())) == names


def test_custom_colliding_residues_refused():
    # residues 0, 0, 1 mod 3 collide, though gcd(3, 3, 4) = 1
    zero = (Poly.zero(F2),) * 3
    spec = RingSpec.custom(F2, (0, 3, 4), [[zero] * 3] * 3)
    assert failure_names(spec) == ["delta-residues"]


@pytest.mark.parametrize("table, witness", [
    (h4g3_table()[:1], "need an 2x2 table"),
    ([h4g3_table()[0], [(Poly.one(F2),), (Poly.one(F2),)]],
     "entry (1,0) has wrong length"),
], ids=["rows", "entry"])
def test_custom_table_shape_refused(table, witness):
    assert RingSpec.custom(F2, (0, 7), table).validate().failures == [
        ("table-shape", witness)]


def sg345_table(b2b2):
    """The semigroup <3, 4, 5> over F_2 with delta = (0, 4, 5): b_1^2 = x b_2,
    b_1 b_2 = x^3 and b_2^2 = b2b2."""
    zero, one = Poly.zero(F2), Poly.one(F2)
    e = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    b1b2 = (P(F2, "x^3"), zero, zero)
    return [e, [e[1], (zero, zero, P(F2, "x")), b1b2], [e[2], b1b2, b2b2]]


def test_custom_associativity_checked():
    zero = Poly.zero(F2)
    good = RingSpec.custom(F2, (0, 4, 5), sg345_table((zero, P(F2, "x^2"), zero)))
    assert good.validate().ok
    # b_2^2 = x^2 b_1 + 1 keeps every degree, but b_1 (b_2 b_2) gains b_1
    bad = RingSpec.custom(F2, (0, 4, 5),
                          sg345_table((Poly.one(F2), P(F2, "x^2"), zero)))
    assert set(failure_names(bad)) == {"associativity"}


def test_custom_commutativity_checked_before_any_product():
    # b_1 b_0 = 1 + b_1 has the degree 7 of b_0 b_1, but differs from it
    one = Poly.one(F2)
    spec = RingSpec.custom(F2, (0, 7), h4g3_table(b1b0=(one, one)))
    assert failure_names(spec) == ["commutativity"]


def test_unvalidated_asymmetric_table_refused_at_the_first_product():
    # elem() does not validate; the product must not pick one mirror cell
    one = Poly.one(F2)
    spec = RingSpec.custom(F2, (0, 7), h4g3_table(b1b0=(one, one)))
    a = spec.elem((P(F2, "x"), one))
    with pytest.raises(ValueError, match="not commutative: b_0 b_1 != b_1 b_0"):
        a * a


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
    a = elem_from_str(h4g3, "x^3 + x; x")
    b = elem_from_str(h4g3, "x + 1; x^2")
    assert (a * b).degree == a.degree + b.degree


def test_monic_leading(h4g3):
    y, x = h4g3.y(), h4g3.x()
    assert y.is_monic and x.is_monic
    e = elem_from_str(h4g3, "x^2; 1")    # y + x^2, degree 7
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


_TESTS = Path(__file__).resolve().parent
# every bundled, benchmark and golden ring, the rank-3 rings of the ideal
# tests, and m3f2b with its basis listed as 1, y^2, y in a custom table
_LEDGER_RINGS = (bundled_ring_names()
                 + sorted(map(str, (_TESTS.parent / "perfbench").glob("rings/*.ring")))
                 + [str(_TESTS / "golden" / "h34.ring"),
                    "m3f2", "m3f5", "m3f2b", "m3f2b-custom"])


@pytest.fixture(params=_LEDGER_RINGS, ids=lambda name: Path(name).stem)
def ledger_ring(request):
    name = request.param
    if name == "m3f2b-custom":
        spec = request.getfixturevalue("m3f2b")
        perm = (0, 2, 1)
        table = spec.mul_table()
        return RingSpec.custom(
            spec.field, [spec.delta[k] for k in perm],
            [[[table[i][j][k] for k in perm] for j in perm] for i in perm])
    if name.startswith("m3f"):
        return request.getfixturevalue(name)
    return parse_ring_spec(name)


def test_basis_W_matches_monomial_loop(ledger_ring):
    spec = ledger_ring
    assert spec.validate().ok
    for d in range(3 * max(spec.delta) + 3):
        assert spec.basis_W(d) == monomials_below(spec, d), d


def test_zeta_cutoff_matches_dimension_loop(ledger_ring):
    # the last term lead's degree is the certified cutoff
    basis = ledger_ring.basis()
    for s in range(1, 301):
        assert (term_leads(basis, s)[-1].degree
                == cutoff_by_dims(s, ledger_ring)), s


def test_degree_in_semigroup_is_semigroup_membership(ledger_ring):
    S = semigroup_from_ring(ledger_ring)
    for d in range(-2, 3 * max(ledger_ring.delta) + 3):
        assert ledger_ring.degree_in_semigroup(d) == (d in S), d


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
    e = elem_from_str(h4g3, "x^3 + x + 1; x^2 + 1")
    assert elem_from_str(h4g3, elem_to_str(e)) == e
    # bare polynomial literals embed through the poly part
    assert elem_from_str(h4g3, "x^2 + x") == h4g3.elem_from_poly(P(F2, "x^2 + x"))


def test_poly_part(h4g3):
    e = h4g3.elem_from_poly(P(F2, "x^4 + 1"))
    assert e.poly_part() == P(F2, "x^4 + 1")
    assert h4g3.y().poly_part() is None


def test_pow_digits_matches_repeated_product(h4g3):
    e = elem_from_str(h4g3, "x + 1; 1")
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
            e = elem_from_str(spec, "x + 1; x" if spec.m == 2 else "x^2 + x + 1")
            for s in sorted(exps):
                assert e ** s == binary_pow(e, s), (q, spec.m, s)


def test_negative_power_rejected(h4g3):
    e = elem_from_str(h4g3, "x + 1; 1")
    with pytest.raises(ValueError, match="negative element power"):
        e.pow_digits(-1)
    with pytest.raises(ValueError, match="negative element power"):
        e ** -1


def test_frobenius_is_qth_power(ex36):
    e = elem_from_str(ex36, "x + 2; 2*x")
    assert e.frobenius_q() == e * e * e


def test_scale_and_neg(ex36):
    e = elem_from_str(ex36, "x; 1")
    assert e.scale_const(2) == e + e
    assert e + (-e) == ex36.zero()


# -- products against y-polynomial arithmetic -------------------------------

def y_poly_product(spec, a, b):
    """Oracle: a * b as polynomials in y over F_q[x], then long division by
    the monic F = y^m + c_{m-1} y^{m-1} + .. + c_0."""
    m = spec.m
    zero = Poly.zero(spec.field)
    prod = [zero] * (2 * m - 1)
    for i, ga in enumerate(a):
        for j, gb in enumerate(b):
            prod[i + j] = prod[i + j] + ga * gb
    for k in range(2 * m - 2, m - 1, -1):
        top, prod[k] = prod[k], zero
        for i, c in enumerate(spec.coeffs):
            prod[k - m + i] = prod[k - m + i] - top * c
    return tuple(prod[:m])


def _random_vec(spec, rnd, deg):
    """m random polynomials of degree < deg, some coordinates zero."""
    f = spec.field
    return tuple(Poly.zero(f) if rnd.random() < 0.2
                 else Poly(f, [rnd.randrange(f.q) for _ in range(deg)])
                 for _ in range(spec.m))


# (field, F literals c_0 .. c_{m-1}) for m in {1, 2, 3} over q in {2, 3, 4},
# and y^4 + y = x^5 + x over F_4, where the pairs (1, 3) and (2, 2) share y^4
_CAB_RINGS = (
    (F2, ("x^3 + x",)),
    (F3, ("2*x^2 + 1",)),
    (F4, ("x + t",)),
    (F2, ("x^7 + x^6 + x^5 + x", "x^2 + x")),
    (F3, ("2*x^5 + x", "0")),
    (F4, ("x^3 + t", "1")),
    (F2, ("x^4 + x + 1", "x", "1")),
    (F3, ("2*x^4 + 2*x", "2", "0")),           # y^3 - y = x^4 + x
    (F4, ("x^4 + t*x + 1", "x", "t")),
    (F4, ("x^5 + x", "1", "0", "0")),
)


@pytest.mark.parametrize("field, cs", _CAB_RINGS,
                         ids=[f"q{f.q}-m{len(cs)}" for f, cs in _CAB_RINGS])
def test_products_match_y_polynomial_oracle(field, cs):
    spec = RingSpec.cab(field, tuple(P(field, c) for c in cs))
    assert spec.validate().ok
    m = spec.m
    basis = [spec.basis_vec(j) for j in range(m)]
    # the custom-table twin: the same ring, its table taken from the oracle
    twin = RingSpec.custom(field, spec.delta,
                           [[y_poly_product(spec, bi, bj) for bj in basis]
                            for bi in basis])
    assert twin.validate().ok
    assert twin.validate().singular_finite == spec.validate().singular_finite
    rnd = random.Random(m * 100 + field.q)
    vecs = [_random_vec(spec, rnd, 1 + rnd.randrange(6)) for _ in range(12)]
    vecs += basis
    for va in vecs:
        for vb in vecs:
            want = y_poly_product(spec, va, vb)
            assert (spec.elem(va) * spec.elem(vb)).vec == want
            assert (twin.elem(va) * twin.elem(vb)).vec == want


def test_shared_cell_applied_once(monkeypatch):
    # y^4 + y = x^5 + x over F_4: the cell y^4 = x^5 + x + y of the pairs
    # (1, 3) and (2, 2) multiplies their summed products once; applied per
    # pair, zeta_neg(63, .) took 4,677 Poly products
    spec = RingSpec.cab(F4, tuple(P(F4, c) for c in ("x^5 + x", "1", "0", "0")))
    assert spec.validate().ok
    want = zeta_neg(63, spec)    # also fills the ring's product caches
    count = [0]
    real = Poly.__mul__

    def counting(a, b):
        count[0] += 1
        return real(a, b)

    monkeypatch.setattr(Poly, "__mul__", counting)
    assert zeta_neg(63, spec) == want
    assert count[0] <= 4551


# -- value contract ---------------------------------------------------------

def test_values_equal_and_hash_equal_across_routes(h4g3):
    p1 = Poly(F3, [1, 2, 0, 0])
    p2 = P(F3, "2*x + 1")
    p3 = P(F3, "x + 2") * P(F3, "2")
    assert p1 == p2 == p3 and hash(p1) == hash(p2) == hash(p3)
    assert {p1: "a"}[p3] == "a"

    e1 = h4g3.x() * h4g3.y()
    e2 = elem_from_str(h4g3, "0; x")
    assert e1 == e2 and hash(e1) == hash(e2)
    assert {e1: "b"}[e2] == "b"

    I, J = list(enumerate_ideals(h4g3, 1))[:2]
    via_mul = ideal_mul(I, J)
    via_gens = ideal_from_generators(
        [g * k for g in I.generators() for k in J.generators()], h4g3)
    assert via_mul == via_gens and hash(via_mul) == hash(via_gens)
    assert {via_mul: "c"}[via_gens] == "c"
    a, b = elem_from_str(h4g3, "x + 1; 1"), h4g3.x()
    principal = ideal_from_generators([a * b], h4g3)
    product = ideal_mul(ideal_from_generators([a], h4g3),
                        ideal_from_generators([b], h4g3))
    assert principal == product and hash(principal) == hash(product)


def test_operations_leave_operands_unchanged(h4g3):
    big = Poly(F3, [(3 * i + 1) % 3 for i in range(90)])     # Kronecker product size
    small = P(F3, "x^3 + 2*x + 1")
    for a, b in ((big, small), (small, big), (big, big), (small, small)):
        before = (a.coeffs, b.coeffs)
        a + b, a - b, a * b, a ** 3, divmod(a, b), -a
        assert (a.coeffs, b.coeffs) == before

    ea = elem_from_str(h4g3, "x^3 + x; x + 1")
    eb = elem_from_str(h4g3, "x^2; 1")
    vecs = (ea.vec, eb.vec)
    ea + eb, ea - eb, ea * eb, ea ** 5, eb * Poly.x(F2), -ea
    assert (ea.vec, eb.vec) == vecs

    I, J = list(enumerate_ideals(h4g3, 2))[:2]
    cols = (I.cols, J.cols)
    ideal_mul(I, J), ideal_mul(I, I)
    assert (I.cols, J.cols) == cols
