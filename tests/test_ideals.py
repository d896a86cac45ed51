import dataclasses
import random
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from oracles import (brute_points, cantor_compose, elem, elem_from_str,
                     ideal_echelon, primitive_pairs_by_composition,
                     walk_every_class)

import ffzeta.ideals as ideals
from ffzeta.errors import BudgetError, ConsistencyError, NonMaximalRingError
from ffzeta.gf import (FF, TABLE_CAP, GF, Poly, monic_polys, poly_from_str,
                       poly_gcd, polys_below)
from ffzeta.ideals import (
    class_equivalent, class_group, count_ideal_candidates, elem_divexact,
    enumerate_ideals, ideal_from_generators, ideal_is_principal, ideal_mul,
    ideal_pow, ideal_quotient, involution, reduced_basis, require_ideal_scan,
    _enumerate_ideals_general,
)
from ffzeta.ring import (RingSpec, affine_combinations, count_affine_points,
                         elem_to_str)
from ffzeta.ringfile import parse_ring_spec
from ffzeta.semigroup import semigroup_from_ring

PERFBENCH_RINGS = Path(__file__).resolve().parent.parent / "perfbench" / "rings"
GOLDEN = Path(__file__).resolve().parent / "golden"
F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def P(field, s):
    return poly_from_str(field, s)


@pytest.fixture(scope="module")
def elliptic():
    """y^2 = x^3 + 2x + 1 over F_3: 6 affine points, h = 7."""
    return RingSpec.cab(F3, (P(F3, "2*x^3 + x + 2"), P(F3, "0")), name="ell")


@pytest.fixture(scope="module")
def f4as():
    """y^2 + y = x^3 + t over F_4: no affine points, h = 1."""
    return RingSpec.cab(F4, (P(F4, "x^3 + t"), P(F4, "1")), name="f4as")


@pytest.fixture(scope="module")
def h20g2():
    """y^2 = 2x^5 + 2x^4 + 2x^2 + x over F_3: genus 2, h = 20."""
    return RingSpec.cab(F3, (P(F3, "x^5 + x^4 + x^2 + 2*x"), P(F3, "0")),
                        name="h20g2")


@pytest.fixture(scope="module")
def g2f5():
    """y^2 = x^5 + 3x^4 + x^3 + 4x^2 + 3 over F_5: genus 2, h = 9, and
    5^4 > 512, so the point counts stop at K = 3 < 2g."""
    return RingSpec.cab(GF(5), (P(GF(5), "4*x^5 + 2*x^4 + 4*x^3 + x^2 + 2"),
                                P(GF(5), "0")), name="g2f5")


@pytest.fixture(scope="module")
def h34():
    """y^2 = x^7 + x + 1 over F_3: genus 3, h = 34, cyclic."""
    return RingSpec.cab(F3, (P(F3, "2*x^7 + 2*x + 2"), P(F3, "0")), name="h34")


def prime_x(h4g3):
    return ideal_from_generators(
        [elem_from_str(h4g3, "x"), h4g3.monomial(0, 1)], h4g3)


def prime_x1(h4g3):
    return ideal_from_generators(
        [elem_from_str(h4g3, "x + 1"), h4g3.monomial(0, 1)], h4g3)


def unit_ideal(spec):
    return ideal_from_generators([spec.one()], spec)


# -- HNF canonical form -----------------------------------------------------

def test_hnf_independent_of_generators(h4g3, h20g2, m3f2):
    a = elem_from_str(h4g3, "x^2 + x")
    b = h4g3.monomial(0, 1)
    I1 = ideal_from_generators([a, b], h4g3)
    I2 = ideal_from_generators([b, a, a + b, a * b], h4g3)
    I3 = ideal_from_generators([a + b, b], h4g3)
    assert I1 == I2 == I3
    assert hash(I1) == hash(I2)
    # the order the columns go into the reduction is its one degree of
    # freedom: every class representative comes back from its generators
    # reversed, rotated, and among redundant sums
    for spec in (h20g2, m3f2):
        for c in class_group(spec).classes:
            gens = list(c.rep.generators())
            total = sum(gens[1:], gens[0])
            for order in (gens[::-1], gens[1:] + gens[:1],
                          [total, *gens, gens[0] + gens[-1], total * gens[-1]]):
                assert ideal_from_generators(order, spec) == c.rep


def test_hnf_shape(h4g3):
    I = prime_x(h4g3)
    assert I.deg == 1
    for j, col in enumerate(I.cols):
        assert col[j].is_monic
        for i in range(j + 1, h4g3.m):
            assert col[i].is_zero
    # off-diagonal reduced below the row diagonal
    u = I.cols[0][0]
    r = I.cols[1][0]
    assert r.is_zero or r.degree < u.degree


def test_unit_ideal(h4g3):
    U = unit_ideal(h4g3)
    assert U.deg == 0
    assert U.contains(h4g3.monomial(0, 1))
    assert ideal_mul(U, U) == U


def test_contains(h4g3):
    I = prime_x(h4g3)
    assert I.contains(elem_from_str(h4g3, "x"))
    assert I.contains(h4g3.monomial(0, 1) * h4g3.monomial(1, 0))
    assert not I.contains(h4g3.one())
    assert not I.contains(elem_from_str(h4g3, "x + 1"))


# -- products ---------------------------------------------------------------

def test_degree_additive_under_product(h4g3):
    I = prime_x(h4g3)
    J = prime_x1(h4g3)
    assert ideal_mul(I, J).deg == I.deg + J.deg
    assert ideal_mul(I, I).deg == 2


def test_product_commutes_associates(h4g3):
    I = prime_x(h4g3)
    J = prime_x1(h4g3)
    K = ideal_from_generators([h4g3.monomial(0, 1)], h4g3)
    assert ideal_mul(I, J) == ideal_mul(J, I)
    assert ideal_mul(ideal_mul(I, J), K) == ideal_mul(I, ideal_mul(J, K))


def test_pow_is_repeated_product(h4g3):
    I = prime_x(h4g3)
    acc = I
    for k in range(1, 6):
        assert ideal_pow(I, k) == acc
        acc = ideal_mul(acc, I)
    with pytest.raises(ValueError):
        ideal_pow(I, 0)


@pytest.mark.parametrize("name", ["h4g3", "ex36", "m3f2", "m3f5"])
def test_square_forms_each_symmetric_product_once(name, request, monkeypatch):
    # I I against I J for J an equal but distinct object, which takes all
    # m^2 products a_i b_j
    spec = request.getfixturevalue(name)
    m = spec.m
    widths = []
    real = ideals._hnf_columns

    def recording(spec, cols):
        widths.append(len(cols))
        return real(spec, cols)

    monkeypatch.setattr(ideals, "_hnf_columns", recording)
    g = semigroup_from_ring(spec).genus
    for d in range(g + 1):
        for I in enumerate_ideals(spec, d):
            J = ideals.IdealHNF(spec, I.cols)
            widths.clear()
            assert ideal_mul(I, I) == ideal_mul(I, J)
            assert widths == [m * (m + 1) // 2, m * m]


def test_ramified_prime_squares(h4g3):
    # P_x^2 = (x), P_{x+1}^2 = (x+1), (P_x P_{x+1})^2 = (x^2 + x)
    for prime, gen in ((prime_x(h4g3), "x"), (prime_x1(h4g3), "x + 1")):
        sq = ideal_pow(prime, 2)
        ok, g = ideal_is_principal(sq)
        assert ok and elem_to_str(g) == f"{gen}, 0"
    both = ideal_mul(prime_x(h4g3), prime_x1(h4g3))
    ok, g = ideal_is_principal(ideal_pow(both, 2))
    assert ok and g == elem_from_str(h4g3, "x^2 + x")


# -- principality and echelon ----------------------------------------------

def test_principal_ideal_roundtrip(h4g3):
    rng = random.Random(3)
    for _ in range(12):
        vec = tuple(poly_from_str(F2, "0") + sum(
            (P(F2, f"x^{k}") for k in range(6) if rng.randrange(2)),
            P(F2, "0")) for _ in range(2))
        alpha = elem(h4g3, vec)
        if alpha.is_zero:
            continue
        I = ideal_from_generators([alpha], h4g3)
        assert I.deg == alpha.degree
        ok, gen = ideal_is_principal(I)
        assert ok
        assert ideal_from_generators([gen], h4g3) == I


def test_principality_checks_membership(h4g3, monkeypatch):
    # a least-degree element that is not in I is a bug, not a generator
    I = ideal_from_generators([elem_from_str(h4g3, "x")], h4g3)
    monkeypatch.setattr(ideals, "reduced_basis",
                        lambda J: [elem_from_str(h4g3, "x + 1")])
    with pytest.raises(ConsistencyError, match="not in the ideal"):
        ideal_is_principal(I)


def test_prime_not_principal(h4g3):
    ok, gen = ideal_is_principal(prime_x(h4g3))
    assert not ok and gen is None


def degree_basis(I, up_to):
    """Degree -> x^t monic(w_k) over the reduced basis w_k of I, for every
    element degree up to the bound: one F_q-basis element per degree."""
    m, field = I.spec.m, I.spec.field
    out = {}
    for w in reduced_basis(I):
        for t in range((up_to - w.degree) // m + 1):
            out[w.degree + m * t] = w.monic() * Poly.monomial(field, t)
    return out


def test_echelon_complete(h4g3):
    I = prime_x(h4g3)
    basis = degree_basis(I, 12)
    # brute: a degree-d element of I exists iff some monic element of A of
    # degree d lies in I
    for d in range(13):
        brute = any(I.contains(e) for e in h4g3.enumerate_monic(d))
        assert (d in basis) == brute
        if d in basis:
            e = basis[d]
            assert e.degree == d and e.leading()[2] == 1 and I.contains(e)


def ideal_degrees(I, up_to):
    """Attained element degrees of I up to the bound, ascending."""
    return tuple(sorted(degree_basis(I, up_to)))


def test_ideal_degrees(h4g3):
    I = prime_x(h4g3)
    degs = ideal_degrees(I, 10)
    # deg I = 1 and x in I: attained degrees follow <2, 7> shifted by content
    assert degs[0] >= 1
    for d in degs:
        assert any(I.contains(e) for e in h4g3.enumerate_monic(d))


def test_monic_slice_matches_filter(h4g3):
    # the monic elements of I of degree d: the basis element of degree d
    # plus every combination of those below it
    I = ideal_mul(prime_x(h4g3), prime_x1(h4g3))
    basis = degree_basis(I, 9)
    for d in range(2, 10):
        lower = [basis[e] for e in sorted(basis) if e < d]
        slice_d = affine_combinations(basis[d], lower) if d in basis else ()
        got = sorted(elem_to_str(e) for e in slice_d)
        brute = sorted(elem_to_str(e) for e in h4g3.enumerate_monic(d)
                       if I.contains(e))
        assert got == brute


@pytest.mark.parametrize("name", ["h4g3", "ex36", "elliptic", "h20g2",
                                  "m3f2", "m3f5", "m3f2b"])
def test_reduced_basis_matches_echelon(name, request):
    # every ideal of degree <= g + 1 and every power I_k^d, d | h, of a
    # class representative, against the F_q-echelon oracle
    spec = request.getfixturevalue(name)
    rep = class_group(spec)
    g, h = rep.genus, rep.h
    pool = [I for d in range(g + 2) for I in enumerate_ideals(spec, d)]
    pool += [ideal_pow(c.rep, d) for c in rep.classes
             for d in range(1, h + 1) if h % d == 0]
    for I in pool:
        basis = reduced_basis(I)
        assert sorted(w.leading()[1] for w in basis) == list(range(spec.m))
        assert ideals.IdealHNF(spec, ideals._hnf_columns(
            spec, [list(w.vec) for w in basis])) == I
        bound = I.deg + g
        ech = ideal_echelon(I, bound)
        assert ideal_degrees(I, bound) == tuple(sorted(
            d for d in ech if d <= bound))
        gen = ech.get(I.deg)
        assert ideal_is_principal(I) == (gen is not None, gen)


def test_reduced_basis_checks_the_determinant(h4g3):
    # columns (1, x) and (x, 1) are not a Hermite form: their diagonal
    # claims degree 0, but deg_x det = deg(1 - x^2) = 2
    one, x = Poly.one(F2), P(F2, "x")
    with pytest.raises(ConsistencyError, match="disagree with deg I"):
        reduced_basis(ideals.IdealHNF(h4g3, ((one, x), (x, one))))


# -- quotients and equivalence ----------------------------------------------

def test_quotient_inverts_prime(h4g3):
    Px = prime_x(h4g3)
    alpha = elem_from_str(h4g3, "x")     # alpha in P_x, (x) = P_x^2
    Q = ideal_quotient(alpha, Px)
    assert ideal_mul(Q, Px) == ideal_from_generators([alpha], h4g3)
    assert Q == Px     # self-inverse ramified prime


@pytest.mark.parametrize("name", ["h4g3", "ex36", "h20g2", "m3f2", "m3f5"])
def test_quotient_times_ideal_is_principal(name, request):
    # (alpha) : J = (alpha) J^-1 for alpha in J, over every J of degree
    # <= g (so every class representative): times J it gives (alpha), and
    # its degree is deg alpha - deg J
    spec = request.getfixturevalue(name)
    g = semigroup_from_ring(spec).genus
    for d in range(g + 1):
        for J in enumerate_ideals(spec, d):
            for alpha in (reduced_basis(J)[0], J.col_elem(0)):
                Q = ideal_quotient(alpha, J)
                assert ideal_mul(Q, J) == ideal_from_generators([alpha], spec)
                assert Q.deg == alpha.degree - J.deg


def inverse(J):
    """(alpha) : J for alpha = J's first column, an ideal of the inverse
    class, as class_group builds it once per representative."""
    return ideal_quotient(J.col_elem(0), J)


def test_class_equivalence_h4g3(h4g3):
    Px, P1 = prime_x(h4g3), prime_x1(h4g3)
    unit = unit_ideal(h4g3)
    assert class_equivalent(Px, inverse(Px))
    assert not class_equivalent(Px, inverse(P1))
    assert not class_equivalent(Px, inverse(unit))
    # P_x * P_{x+1} sits in the third nontrivial class
    both = ideal_mul(Px, P1)
    assert not class_equivalent(both, inverse(Px))
    assert not class_equivalent(both, inverse(unit))
    # multiplying by a principal ideal stays in the class
    shifted = ideal_mul(Px, ideal_from_generators([h4g3.monomial(0, 1)], h4g3))
    assert class_equivalent(shifted, inverse(Px))


def test_class_group_quotients_each_examined_ideal_once(m3f5, monkeypatch):
    # rank 3: one quotient tests each ideal of degree <= g
    calls = []
    real = ideals.ideal_quotient

    def counting(alpha, J):
        calls.append(J)
        return real(alpha, J)

    monkeypatch.setattr(ideals, "ideal_quotient", counting)
    rep = class_group(m3f5)
    assert rep.h == 6
    assert len(set(calls)) == len(calls)
    assert {c.rep for c in rep.classes} <= set(calls)
    assert len(calls) == sum(rep.counts[:rep.genus + 1])


def test_class_group_takes_no_quotient_at_rank_two(h20g2, monkeypatch):
    # rank 2: the reduced ideals are the primitive ones, read off the
    # Hermite form
    def refuse(alpha, J):
        raise AssertionError("class_group took an ideal quotient")

    monkeypatch.setattr(ideals, "ideal_quotient", refuse)
    assert class_group(h20g2).h == 20


@pytest.mark.parametrize("shift", [-1, 1])
def test_class_group_counts_every_reduced_ideal_against_h(shift, h20g2, m3f5,
                                                          monkeypatch):
    # every reduced ideal of degree <= g is counted, at rank 2 (h20g2) and
    # rank 3 (m3f5), so an L-polynomial whose P(1) is off by one either way
    # raises: h + 1 finds too few, h - 1 too many
    real = ideals._l_polynomial

    def off_by(spec, g):
        lp, low = real(spec, g)
        lpoly = lp.lpoly[:-1] + (lp.lpoly[-1] + shift,)
        return dataclasses.replace(lp, lpoly=lpoly), low

    monkeypatch.setattr(ideals, "_l_polynomial", off_by)
    for spec, h in ((h20g2, 20), (m3f5, 6)):
        with pytest.raises(ConsistencyError,
                           match=f"found {h} reduced ideals .* but h = {h + shift}"):
            class_group(spec)


def test_class_group_makes_no_pairwise_class_test(h20g2, monkeypatch):
    def refuse(I, J_inv):
        raise AssertionError("class_group called class_equivalent")

    monkeypatch.setattr(ideals, "class_equivalent", refuse)
    assert class_group(h20g2).h == 20


def pairwise_class_search(spec, report):
    """Oracle for class_group's representatives, orders and generators: the
    first ideal of each class in degree order, found by testing every ideal
    against an inverse of each class found so far; the order of I is the
    least k with I^k principal."""
    reps, inverses = [], []
    for d in range(report.genus + 1):
        for I in enumerate_ideals(spec, d):
            if len(reps) < report.h and not any(
                    class_equivalent(I, J_inv) for J_inv in inverses):
                reps.append(I)
                inverses.append(inverse(I))
    out = []
    for I in reps:
        k, (ok, gen) = 1, ideal_is_principal(I)
        while not ok:
            k += 1
            ok, gen = ideal_is_principal(ideal_pow(I, k))
        out.append((I, k, gen))
    return out


@pytest.mark.parametrize("name,h", [
    ("h4g3", 4), ("ex26", 2), ("ex36", 8), ("elliptic", 7), ("f4as", 1),
    ("h20g2", 20), ("m3f2", 5), ("m3f5", 6), ("m3f2b", 24)])
def test_class_group_matches_pairwise_search(name, h, request):
    spec = request.getfixturevalue(name)
    rep = class_group(spec)
    assert rep.h == h
    got = [(c.rep, c.order, c.generator) for c in rep.classes]
    assert got == pairwise_class_search(spec, rep)
    # each representative is the least-degree integral ideal of its class
    for c in rep.classes:
        J_inv = inverse(c.rep)
        for d in range(c.degree):
            assert not any(class_equivalent(I, J_inv)
                           for I in enumerate_ideals(spec, d))


def test_divexact(h4g3):
    a = elem_from_str(h4g3, "x^3 + x; x")
    b = elem_from_str(h4g3, "x + 1; 1")
    assert elem_divexact(a * b, b) == a
    assert elem_divexact(a * b, a) == b
    with pytest.raises(ConsistencyError):
        elem_divexact(a * b + h4g3.one(), b)
    with pytest.raises(ZeroDivisionError):
        elem_divexact(a, h4g3.zero())


@pytest.mark.parametrize("name", ["h4g3", "ex36", "elliptic", "h20g2",
                                  "m3f2", "m3f5", "h8g2", "ell5", "h34.ring"])
def test_is_reduced_marks_exactly_the_representatives(name, request):
    # over every ideal of degree <= g, not only those class_group examines
    # before it has h representatives; the oracle is the first ideal of each
    # class in degree order, classes told apart by class_equivalent
    if name in ("h8g2", "ell5"):
        spec = parse_ring_spec(PERFBENCH_RINGS / f"{name}.ring")
    elif name == "h34.ring":
        spec = parse_ring_spec(GOLDEN / name)
    else:
        spec = request.getfixturevalue(name)
    rep = class_group(spec)
    inverses = [inverse(c.rep) for c in rep.classes]
    reps = {c.rep for c in rep.classes}
    first = {}
    for d in range(rep.genus + 1):
        for I in enumerate_ideals(spec, d):
            hits = [j for j, J_inv in enumerate(inverses)
                    if class_equivalent(I, J_inv)]
            assert len(hits) == 1
            least = first.setdefault(hits[0], I)
            assert ideals._is_reduced(I) == (least is I) == (I in reps)
    assert len(first) == rep.h


# -- enumeration ------------------------------------------------------------

def test_enumeration_fast_equals_general(h4g3):
    for d in range(6):
        fast = {I for I in enumerate_ideals(h4g3, d)}
        general = {I for I in _enumerate_ideals_general(h4g3, d)}
        assert fast == general


def test_rank_two_scan_with_a_y_term_equals_stable_scan(xy5, h4g3):
    # at odd p with h != 0, (u', y + v') is an ideal when (u', -v') is a
    # Mumford pair, u' | f + h v' - v'^2; the sign of h matters.  h4g3 has
    # a y-term at p = 2, and h8g2 none at odd p; degree g + 1 is the first
    # past the reduced ideals that class_group reads
    h8g2 = parse_ring_spec(PERFBENCH_RINGS / "h8g2.ring")
    for spec in (xy5, h4g3, h8g2):
        g = semigroup_from_ring(spec).genus
        for d in range(g + 2):
            assert (set(enumerate_ideals(spec, d))
                    == set(_enumerate_ideals_general(spec, d)))


def test_class_group_with_a_y_term_at_odd_p(xy5):
    rep = class_group(xy5)
    assert (rep.h, rep.e) == (25, 25)
    assert rep.lpoly == (1, -1, 5, -5, 25)


def documented_order(spec, d):
    """Oracle for the m = 2 enumeration order: the Hermite forms
    ((w u', 0), (w v', w)) of degree d by ascending deg w, then w, u' and v'
    in counting order, kept when y times each column stays in the span."""
    field, y = spec.field, spec.monomial(0, 1)
    zero = Poly.zero(field)
    out = []
    for jw in range(d // 2 + 1):
        iu = d - 2 * jw
        for w in monic_polys(field, jw):
            for up in monic_polys(field, iu):
                for vp in polys_below(field, iu):
                    I = ideals.IdealHNF(spec, ((w * up, zero), (w * vp, w)))
                    if all(I.contains(y * c) for c in I.generators()):
                        out.append(I)
    return out


def curve(q, f, h="0"):
    """y^2 + h y = f over F_q as a cab ring, c0 = -f and c1 = h."""
    field = GF(q)
    return RingSpec.cab(field, (-P(field, f), P(field, h)))


@pytest.fixture(scope="module")
def ram3():
    """y^2 + x y = x^5 + 2x^2 + 2x over F_3: h^2 + 4f = x (x + 1) (x + 2)
    (x^2 + 1), so primes of degree 1 and 2 ramify at odd p with h != 0;
    h = 8."""
    return curve(3, "x^5 + 2*x^2 + 2*x", "x")


@pytest.fixture(scope="module")
def f4h():
    """y^2 + (x + 1) y = x^5 + x + 1 over F_4: x + 1 ramifies, and every
    other prime has even degree over F_2; h = 40."""
    return RingSpec.cab(F4, (P(F4, "x^5 + x + 1"), P(F4, "x + 1")),
                        name="f4h")


# the prime route's cases: p = 2 over F_2 (h4g3, ell5) and over F_4, where
# every extension degree is even (f4as, f4h: the trace split); ramified
# primes at p = 2 (h4g3, f4h) and at odd p (ex36, h20g2, ram3); a y-term at
# odd p (xy5, ram3)
@pytest.mark.parametrize("ring", ["h4g3", "ex36", "h20g2", "h8g2", "xy5",
                                  "ell5", "f4as", "f4h", "ram3"])
def test_enumeration_follows_documented_order(ring, request):
    # class numbering in `classgroup` output follows this order
    spec = (parse_ring_spec(PERFBENCH_RINGS / f"{ring}.ring")
            if ring in ("h8g2", "ell5") else request.getfixturevalue(ring))
    g = semigroup_from_ring(spec).genus
    # degrees 0..g + 2, or 0..g where the oracle's q^(2d) candidates at
    # d = g + 2 exceed 10^4
    top = g + 2 if spec.field.q ** (2 * g + 4) <= 10 ** 4 else g
    for d in range(top + 1):
        assert list(enumerate_ideals(spec, d)) == documented_order(spec, d)


# every rank-2 ring of the fixtures and of perfbench/rings, and the genus-2
# F_13 curve y^2 = x^5 + x + 1
RANK_TWO = ["ex26", "ex36", "h4g3", "xy5", "e1", "elliptic", "f4as", "h20g2",
            "g2f5", "h34", "ram3", "f4h", "ell5", "h8g2", "h20g4", "F13"]


def rank_two_ring(name, request):
    if name == "F13":
        return curve(13, "x^5 + x + 1")
    if name in ("ell5", "h8g2", "h20g4"):
        return parse_ring_spec(PERFBENCH_RINGS / f"{name}.ring")
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", RANK_TWO)
def test_crt_composition_matches_the_general_formula(name, request):
    # compose takes coprime u1, u2 by the Chinese remainder theorem; the
    # oracle forms w = e1 u1 v2 + e2 u2 v1 and reduces it mod u1 u2.  The
    # pairs meet the first 16 in the library's order, themselves included,
    # so the doubling and the shared-factor branches are checked too
    spec = rank_two_ring(name, request)
    g = semigroup_from_ring(spec).genus
    law = ideals.CantorLaw(spec)
    pairs = [P for level in ideals._PrimitivePairs(spec).upto(g)
             for P in level]
    coprime = 0
    for P in pairs:
        for Q in pairs[:16]:
            assert law.compose(P, Q) == cantor_compose(law, P, Q)
            coprime += (P[0].degree > 0 and Q[0].degree > 0
                        and P is not Q and poly_gcd(P[0], Q[0]).degree == 0)
    # ex26, e1 and f4as have at most one pair of positive degree up to g
    assert coprime or sum(P[0].degree > 0 for P in pairs) <= 1


@pytest.mark.parametrize("name", RANK_TWO)
def test_sigma_products_match_the_composed_pairs(name, request):
    # the library composes along the first root of each split prime and
    # takes the second root's products as sigma-images; the oracle composes
    # along both roots, with primes from is_irreducible
    spec = rank_two_ring(name, request)
    g = semigroup_from_ring(spec).genus
    law = ideals.CantorLaw(spec)
    assert (ideals._PrimitivePairs(spec).upto(g + 1)
            == primitive_pairs_by_composition(law, g + 1))


# the affine point counts N_k - 1 over F_(q^k), k = 1..K, and so K, as the
# certificate found them before the tables were kept on the fields
PINNED_POINTS = {
    "ex26": [0, 6, 0, 6, 20, 42],
    "ex36": [3, 5, 27, 109],
    "h4g3": [2, 2, 2, 6, 22, 86],
    "ell5": [4, 4],
    "h8g2": [3, 5, 27, 109],
    "h20g2": [5, 9, 41, 77],
    "h20g4": [2, 6, 8, 6, 32, 102, 128, 318],
    "xy5": [4, 34, 124],
    "F13": [14, 176],
}


@pytest.mark.parametrize("name", PINNED_POINTS)
def test_point_counts_and_points_checked_are_pinned(name, request):
    spec = rank_two_ring(name, request)
    want = PINNED_POINTS[name]
    assert count_affine_points(spec, len(want)) == want
    assert ideals.l_polynomial(spec).points_checked == len(want)


@pytest.mark.parametrize("q, lpoly", [(11, (1, -4, 14, -44, 121)),
                                      (13, (1, 1, 4, 13, 169))])
def test_genus_two_l_polynomials_from_the_primes(q, lpoly):
    # y^2 = x^5 + x + 1: h = 88 over F_11 and h = 188 over F_13
    lp = ideals.l_polynomial(curve(q, "x^5 + x + 1"))
    assert lp.lpoly == lpoly
    assert lp.h == {11: 88, 13: 188}[q]


def test_rank_two_enumeration_refuses_a_singular_ring():
    # y^2 = x^5 + x + 1 over F_9 is singular at x + 2, so not maximal: its
    # ideals do not factor into primes, and a product of primes would miss
    # 9 of its 130 ideal matrices of degree 2
    F9 = GF(3, 2)
    spec = RingSpec.cab(F9, (P(F9, "2*x^5 + 2*x + 2"), P(F9, "0")))
    message = r"^finite singular locus at x \+ 2; the ring is not maximal$"
    with pytest.raises(NonMaximalRingError, match=message):
        enumerate_ideals(spec, 2)
    with pytest.raises(NonMaximalRingError, match=message):
        ideals.l_polynomial(spec)


def test_a_wrong_root_fails_the_mumford_check(monkeypatch):
    real = ideals._prime_roots
    monkeypatch.setattr(ideals, "_prime_roots", lambda law, prime: [
        r + Poly.one(prime.field) for r in real(law, prime)])
    with pytest.raises(ConsistencyError, match="^Mumford pair"):
        list(enumerate_ideals(curve(3, "2*x^5 + 2*x^4 + 2*x^2 + x"), 1))


def test_primitive_pairs_are_built_once_per_spec(monkeypatch):
    spec = curve(3, "x^5 + 2*x^2 + 2*x", "x")
    first = [list(enumerate_ideals(spec, d)) for d in range(4)]

    def refuse(*args):
        raise AssertionError("a root was taken again")

    monkeypatch.setattr(ideals, "_prime_roots", refuse)
    assert [list(enumerate_ideals(spec, d)) for d in range(4)] == first
    # an equal spec keeps its own pairs, and dies with them
    with pytest.raises(AssertionError, match="again"):
        list(enumerate_ideals(curve(3, "x^5 + 2*x^2 + 2*x", "x"), 1))


def test_enumeration_counts_h4g3(h4g3):
    got = [len(list(enumerate_ideals(h4g3, d))) for d in range(7)]
    assert got == [1, 2, 3, 4, 6, 12, 32]


def test_enumeration_distinct_and_degree(h4g3):
    for d in range(5):
        seen = set()
        for I in enumerate_ideals(h4g3, d):
            assert I.deg == d
            assert I not in seen
            seen.add(I)


def test_enumeration_polyring():
    spec = RingSpec.polyring(F3)
    for d in range(4):
        got = list(enumerate_ideals(spec, d))
        assert len(got) == 3 ** d   # monic polynomials of degree d


def test_rank_one_ideals_are_monic_generators():
    # rank one goes through the general scan: one ideal per monic generator,
    # in counting order, also for a cab ring y + c_0(x) = 0
    specs = [RingSpec.polyring(F) for F in (F2, F3, F4)]
    specs.append(RingSpec.cab(F3, (P(F3, "x^2 + 1"),)))
    for spec in specs:
        for d in range(5):
            got = [I.cols for I in enumerate_ideals(spec, d)]
            assert got == [((u,),) for u in monic_polys(spec.field, d)]


def test_polyring_candidates_are_monic_polys():
    for field in (F2, F3, F4):
        spec = RingSpec.polyring(field)
        for d in range(6):
            assert count_ideal_candidates(spec, d) == field.q ** d


def shape_of(m, q):
    """A stand-in carrying only the rank and field size of a ring."""
    return SimpleNamespace(m=m, field=SimpleNamespace(q=q))


def test_candidate_count_grows_with_degree(h4g3, m3f2b, m3f5):
    # so a scan of degrees 0..top is within a budget exactly when degree top
    # is, which `require_ideal_scan` reads
    for m, q in product(range(1, 5), (2, 3, 4, 5, 31)):
        counts = [count_ideal_candidates(shape_of(m, q), d) for d in range(12)]
        assert counts == sorted(set(counts))
    # the count reads only m and q
    for spec in (RingSpec.polyring(F3), h4g3, m3f2b, m3f5):
        assert ([count_ideal_candidates(spec, d) for d in range(12)]
                == [count_ideal_candidates(shape_of(spec.m, spec.field.q), d)
                    for d in range(12)])
    assert count_ideal_candidates(h4g3, 3) == 72


def test_enumeration_budget(h4g3):
    # the counts of h4g3 are 1, 4, 18, 72, ...: degree 6 is over 4, and
    # degree 2 is the least degree over it
    assert count_ideal_candidates(h4g3, 6) > 4
    with pytest.raises(BudgetError, match=r"^degree-2 ideal enumeration scans "
                       r"18 candidates, over the budget 4$"):
        require_ideal_scan(h4g3, 6, 4)
    assert require_ideal_scan(h4g3, 6, count_ideal_candidates(h4g3, 6)) is None


def test_class_group_over_budget_refused_before_enumerating(h4g3,
                                                           monkeypatch):
    # degrees 0..2 of h4g3 (g = 3) are within 71 candidates, degree 3 is not
    def refuse(*args):
        raise AssertionError("an ideal candidate was enumerated")

    monkeypatch.setattr(ideals, "monic_polys", refuse)
    with pytest.raises(BudgetError, match=r"^degree-3 ideal enumeration scans "
                       r"72 candidates, over the budget 71$"):
        class_group(h4g3, budget=71)


def test_class_group_refusal_names_the_least_degree_over_budget(h4g3,
                                                                monkeypatch):
    # the counts of h4g3 are 1, 4, 18, 72: the budget 17 is first exceeded
    # at degree 2, below g = 3, and the refusal names that degree
    def refuse(*args):
        raise AssertionError("an ideal candidate was enumerated")

    monkeypatch.setattr(ideals, "monic_polys", refuse)
    with pytest.raises(BudgetError, match=r"^degree-2 ideal enumeration scans "
                       r"18 candidates, over the budget 17$"):
        class_group(h4g3, budget=17)


# -- class groups -----------------------------------------------------------

def test_class_group_h4g3(h4g3_classes):
    rep = h4g3_classes
    assert rep.genus == 3
    assert rep.counts == (1, 2, 3, 4, 6, 12, 32)
    assert rep.lpoly == (1, 0, -1, -2, -2, 0, 8)
    assert rep.h == 4
    assert rep.e == 2
    got = {(c.degree, c.order, elem_to_str(c.generator))
           for c in rep.nontrivial()}
    assert got == {(1, 2, "x, 0"), (1, 2, "x + 1, 0"), (2, 2, "x^2 + x, 0")}


def test_class_group_ex26(ex26):
    rep = class_group(ex26)
    assert rep.counts == (1, 0, 3, 0, 6, 4, 16)
    assert rep.lpoly == (1, -2, 3, -6, 6, -8, 8)
    assert rep.h == 2 and rep.e == 2
    (cls,) = rep.nontrivial()
    assert (cls.degree, cls.order) == (2, 2)
    assert elem_to_str(cls.generator) == "x^2 + x + 1, 0"


def test_class_group_ex36(ex36):
    rep = class_group(ex36)
    assert rep.counts == (1, 3, 7, 21, 72)
    assert rep.lpoly == (1, 0, -2, 0, 9)
    assert rep.h == 8 and rep.e == 2     # (Z/2)^3
    assert all(c.order == 2 for c in rep.nontrivial())


def test_class_group_elliptic(elliptic):
    rep = class_group(elliptic)
    assert rep.counts == (1, 6, 21)
    assert rep.lpoly == (1, 3, 3)
    assert rep.h == 7 and rep.e == 7     # cyclic
    assert sorted(c.degree for c in rep.nontrivial()) == [1] * 6


def test_class_group_trivial(f4as):
    rep = class_group(f4as)
    assert rep.counts == (1, 0, 4)
    assert rep.lpoly == (1, -4, 4)
    assert rep.h == 1 and rep.e == 1
    assert rep.nontrivial() == ()


def test_class_group_polyring():
    rep = class_group(RingSpec.polyring(F2))
    assert rep.h == 1 and rep.genus == 0


def test_functional_equation(h4g3_classes, ex26, ex36):
    for rep in (h4g3_classes, class_group(ex26), class_group(ex36)):
        g, q = rep.genus, rep.spec.field.q
        p = rep.lpoly
        for i in range(2 * g + 1):
            assert p[2 * g - i] == q ** (g - i) * p[i]


def test_singular_refused():
    cusp = RingSpec.cab(F3, (P(F3, "2*x^3"), P(F3, "0")))
    with pytest.raises(NonMaximalRingError, match="singular"):
        class_group(cusp)


def prime_factors(n):
    return {p for p in range(2, n + 1) if n % p == 0
            and all(p % r for r in range(2, p))}


def test_class_orders_divide_h(h4g3_classes, elliptic, h34):
    # order certificate, independent of how class_group finds the order:
    # I^order is principal and no I^(order/p), p a prime factor, is
    h34_classes = class_group(h34)
    assert h34_classes.h == 34 and h34_classes.e == 34
    assert {c.order for c in h34_classes.classes} == {1, 2, 17, 34}
    for rep in (h4g3_classes, class_group(elliptic), h34_classes):
        for c in rep.classes:
            assert rep.h % c.order == 0
            ok, gen = ideal_is_principal(ideal_pow(c.rep, c.order))
            assert ok and gen == c.generator
            for p in prime_factors(c.order):
                assert not ideal_is_principal(ideal_pow(c.rep, c.order // p))[0]
        assert rep.classes[0].order == 1


def test_class_group_tests_only_divisors_of_h(h34, h20g2, monkeypatch):
    # the trivial class takes one test, at k = 1: its rep (1) is the one
    # reduced ideal of degree 0.  Then one walk per pair {C, C^-1} and none
    # at a 2-torsion class: h34 (cyclic) has one class of order 2, so
    # (34 - 2) / 2 walks, and h20g2 (Z/2 x Z/10) three, so (20 - 4) / 2.
    # Each walk ends at its first principal power, with at most one test per
    # divisor of h (a power-by-power search makes one per power), and none at
    # k = 1.  At rank 2 the walk tests Miller triples.
    results = []
    real = ideals.CantorLaw.principal

    def counting(law, P):
        out = real(law, P)
        results.append(out[0])
        return out

    monkeypatch.setattr(ideals.CantorLaw, "principal", counting)
    for spec, walks in ((h34, 16), (h20g2, 8)):
        results.clear()
        rep = class_group(spec)
        per_class, run = [], 0
        for ok in results:
            run += 1
            if ok:
                per_class.append(run)
                run = 0
        assert run == 0 and per_class[0] == 1
        two_torsion = sum(1 for c in rep.nontrivial() if c.order == 2)
        assert len(per_class) - 1 == (rep.h - 1 - two_torsion) // 2 == walks
        n_divisors = sum(1 for k in range(1, rep.h + 1) if rep.h % k == 0)
        assert max(per_class[1:]) <= n_divisors - 1


@pytest.mark.parametrize("name", ["h4g3", "ex36", "ex26", "h8g2", "ell5",
                                  "h20g2", "h34", "xy5", "F11", "F13"])
def test_class_group_matches_the_every_class_walk(name, request):
    # the oracle walks every class on its own; class_group walks one class
    # of each pair {C, C^-1} and none of order 2
    if name in ("F11", "F13"):
        spec = curve(int(name[1:]), "x^5 + x + 1")
    else:
        spec = stored_ring(name, request)
    assert [(c.rep, c.degree, c.order, c.generator)
            for c in class_group(spec).classes] == walk_every_class(spec)


def test_involution_image_outside_the_reps_raises(h20g2, monkeypatch):
    # (x u, v) has degree above g, so it is no representative; the first
    # call builds the pairs, so the patched involution reaches only the
    # partner lookup
    class_group(h20g2)
    x = Poly.monomial(F3, 1)
    monkeypatch.setattr(ideals.CantorLaw, "involution",
                        lambda self, u, v: (x * u, v))
    with pytest.raises(ConsistencyError, match="no representative"):
        class_group(h20g2)


def test_self_paired_class_at_odd_h_raises(xy5, monkeypatch):
    # a class sigma fixes has order 2, which cannot divide h = 25; the
    # first call builds the pairs, and the principal class is walked with
    # no reduction step, so the patched involution reaches only the
    # partner lookup
    class_group(xy5)
    monkeypatch.setattr(ideals.CantorLaw, "involution",
                        lambda self, u, v: (u, v))
    with pytest.raises(ConsistencyError,
                       match="a class of order 2, but h = 25 is odd"):
        class_group(xy5)


def test_rank_three_class_group_enumerates_once(m3f2, monkeypatch):
    # the counts and the representatives share one enumeration per degree,
    # and with no sigma beyond m = 2 the report has no partners
    real, asked = ideals.enumerate_ideals, []
    monkeypatch.setattr(ideals, "enumerate_ideals",
                        lambda spec, d: asked.append(d) or real(spec, d))
    rep = class_group(m3f2)
    assert asked == list(range(rep.genus + 1))
    assert rep.partners is None


# -- Cantor's law and Miller triples at rank 2 ------------------------------

def stored_ring(name, request):
    """A fixture ring, or a stored one from perfbench/rings."""
    if name in ("h8g2", "ell5"):
        return parse_ring_spec(PERFBENCH_RINGS / f"{name}.ring")
    return request.getfixturevalue(name)


def triple_ideal(spec, triple):
    """den * I for the ideal I = (u, y - v) * (num / den) a triple stands
    for, an integral ideal."""
    u, v, num, den = triple
    return ideal_from_generators(
        [num * u, num * elem(spec, (-v, Poly.one(spec.field)))], spec)


@pytest.mark.parametrize("name", ["h4g3", "ex26", "ex36", "h8g2", "ell5",
                                  "h20g2", "h34", "xy5"])
def test_cantor_powers_match_hermite_powers(name, request):
    # the Hermite-form route is the oracle: for every representative and
    # every divisor k of h up to its order, the k-th power by Cantor's law
    # stands for I^k, and is principal, with the same generator, exactly
    # when I^k is
    spec = stored_ring(name, request)
    rep = class_group(spec)
    law = ideals.CantorLaw(spec)
    for c in rep.classes:
        for k in (k for k in range(1, c.order + 1) if rep.h % k == 0):
            P = law.power(law.triple(c.rep), k)
            Ik = ideal_pow(c.rep, k)
            assert triple_ideal(spec, P) == ideal_from_generators(
                [g * P[3] for g in Ik.generators()], spec)
            assert law.principal(P) == ideal_is_principal(Ik)


def test_class_group_at_rank_two_takes_no_hermite_power(h20g2, h34,
                                                        monkeypatch):
    want = {spec.name: [(c.rep, c.order, c.generator)
                        for c in class_group(spec).classes]
            for spec in (h20g2, h34)}

    def refuse(*args):
        raise AssertionError("a Hermite-form power or principality test")

    monkeypatch.setattr(ideals, "ideal_pow", refuse)
    monkeypatch.setattr(ideals, "ideal_is_principal", refuse)
    for spec in (h20g2, h34):
        assert [(c.rep, c.order, c.generator)
                for c in class_group(spec).classes] == want[spec.name]


def test_cantor_division_failure_raises(h20g2, monkeypatch):
    # a remainder anywhere in the law is a bug, and is not rounded away
    rep = class_group(h20g2)
    law = ideals.CantorLaw(h20g2)
    law.f += Poly.one(F3)
    with pytest.raises(ConsistencyError, match="remainder|dividing"):
        for c in rep.classes:
            law.power(law.triple(c.rep), c.order)


def sigma_ideal(I):
    """The image of I under the hyperelliptic involution."""
    return ideal_from_generators([involution(g) for g in I.generators()],
                                 I.spec)


@pytest.mark.parametrize("name", ["h4g3", "ex36", "ex26", "h8g2", "h20g2",
                                  "ell5", "h34", "xy5"])
def test_involution_maps_each_class_to_its_inverse(name, request):
    # sigma(rep C) is the representative of C^-1, of the same order, and
    # sigma of C's generator, made monic, generates it
    spec = stored_ring(name, request)
    rep = class_group(spec)
    for c, j in zip(rep.classes, rep.partners):
        inv = rep.classes[j]
        assert inv.rep == sigma_ideal(c.rep)
        assert ideal_is_principal(ideal_mul(c.rep, inv.rep))[0]
        assert inv.order == c.order
        assert inv.generator == involution(c.generator).monic()


def test_class_group_over_f13():
    # y^2 = x^5 + x + 1 over F_13: a class group past the reach of
    # Hermite-form powers at every class, checked at three of them
    F13 = GF(13)
    spec = RingSpec.cab(F13, (P(F13, "12*x^5 + 12*x + 12"), P(F13, "0")),
                        name="f13")
    rep = class_group(spec)
    assert (rep.h, rep.e) == (188, 94)
    assert rep.classes[0].order == 1
    for c in (rep.classes[1], rep.classes[-1],
              max(rep.classes, key=lambda c: (c.order, c.degree))):
        assert ideal_is_principal(ideal_pow(c.rep, c.order)) == (True,
                                                                 c.generator)


# -- counts up to degree g, functional equation, point-count certificate ----

RINGS = ["h4g3", "ex26", "ex36", "elliptic", "f4as", "h20g2", "xy5", "h34"]


def full_enumeration(spec):
    """Oracle: c_0..c_{2g} by enumerating every degree up to 2g, and
    p_d = c_d - q c_{d-1}."""
    g = semigroup_from_ring(spec).genus
    q = spec.field.q
    counts = [sum(1 for _ in enumerate_ideals(spec, d)) for d in range(2 * g + 1)]
    lpoly = [counts[0]] + [counts[d] - q * counts[d - 1]
                           for d in range(1, 2 * g + 1)]
    return tuple(counts), tuple(lpoly)


@pytest.mark.parametrize("name", RINGS)
def test_counts_match_full_enumeration(name, request):
    spec = request.getfixturevalue(name)
    rep = class_group(spec)
    assert (rep.counts, rep.lpoly) == full_enumeration(spec)


@pytest.mark.parametrize("name", RINGS + ["g2f5"])
def test_class_representatives_within_genus(name, request):
    rep = class_group(request.getfixturevalue(name))
    assert len(rep.classes) == rep.h
    assert all(c.degree <= rep.genus for c in rep.classes)


@pytest.mark.parametrize("name,K", [("h4g3", 6), ("ex36", 4), ("elliptic", 2),
                                    ("f4as", 2), ("g2f5", 3)])
def test_points_checked_up_to_field_cap(name, K, request):
    # K = min(2g, largest k with q^k <= 512)
    assert class_group(request.getfixturevalue(name)).points_checked == K


# cab rings y^2 + c1 y + c0 = 0 whose c1 is nonzero and vanishes somewhere,
# so both root tables of the rank-2 count meet the brute force: odd p, and
# two extension fields
_POINT_RINGS = {
    "f3-c1": (F3, "2*x^5 + x + 2", "x^2 + 1"),
    "f4-c1": (F4, "x^5 + t*x + 1", "x"),
    "f9-c1": (GF(3, 2), "x^5 + t*x + 1", "t*x^2"),
}


@pytest.mark.parametrize("name,k_max", [("ex36", 3), ("h4g3", 4),
                                        ("elliptic", 2), ("m3", 2),
                                        ("f3-c1", 3), ("f4-c1", 3),
                                        ("f9-c1", 2)])
def test_point_count_matches_brute_force(name, k_max, request):
    if name == "m3":      # y^3 - y = x^4 + x over F_3
        spec = RingSpec.cab(F3, (P(F3, "2*x^4 + 2*x"), P(F3, "2"), P(F3, "0")))
    elif name in _POINT_RINGS:
        field, c0, c1 = _POINT_RINGS[name]
        spec = RingSpec.cab(field, (P(field, c0), P(field, c1)))
    else:
        spec = request.getfixturevalue(name)
    spec.require_valid()
    twin = RingSpec.custom(spec.field, spec.delta, spec.mul_table())
    want = [brute_points(spec, k) for k in range(1, k_max + 1)]
    assert count_affine_points(spec, k_max) == want
    assert count_affine_points(twin, k_max) == want


def test_point_count_polyring():
    assert count_affine_points(RingSpec.polyring(F4), 3) == [4, 16, 64]


# every bundled and benchmark rank-2 ring, and y^2 = f genus-2 curves
@pytest.mark.parametrize("name", ["ex26", "ex36", "h4g3", "ell5", "h8g2",
                                  "h20g2", "h20g4", "F13", "F19"])
def test_rank_two_root_tables_match_the_root_scan(name, monkeypatch):
    # count_affine_points reads the roots of T^2 + c1 T + c0 from the two
    # tables FF.roots keeps at m = 2, and scans F_(q^k) at other m; each
    # root list it reads, whether the tables were built now or by an
    # earlier count, must be the one the scan finds, at every k with
    # q^k <= TABLE_CAP
    if name in ("F13", "F19"):
        spec = curve(int(name[1:]), "x^5 + x + 1" if name == "F13"
                     else "x^5 + 3*x + 1")
    elif name.startswith("ex") or name == "h4g3":
        spec = parse_ring_spec(name)
    else:
        spec = parse_ring_spec(PERFBENCH_RINGS / f"{name}.ring")
    assert spec.m == 2
    asked = []
    kept = FF.roots

    def checked(E, cs):
        got = kept(E, cs)
        scan = [b for b in range(E.q) if not E.evaluate(cs, b)]
        asked.append((cs, len(cs) == 3 and sorted(got) == scan))
        return got

    monkeypatch.setattr(FF, "roots", checked)
    K = 1
    while spec.q ** (K + 1) <= TABLE_CAP:
        K += 1
    count_affine_points(spec, K)
    assert asked and [cs for cs, same in asked if not same] == []


@pytest.mark.parametrize("k", [1, 3])
def test_point_count_mismatch_raises(k, ex36, monkeypatch):
    real = ideals.count_affine_points
    monkeypatch.setattr(ideals, "count_affine_points", lambda spec, K: [
        n + (j == k) for j, n in enumerate(real(spec, K), 1)])
    with pytest.raises(ConsistencyError, match=f"N_{k} = "):
        class_group(ex36)
