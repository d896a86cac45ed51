import random
from pathlib import Path

import pytest
from oracles import elem_from_str, ideal_echelon, poly_eval

import ffzeta.ideals as ideals
from ffzeta.errors import BudgetError, ConsistencyError, NonMaximalRingError
from ffzeta.gf import GF, Poly, monic_polys, poly_from_str, polys_below
from ffzeta.ideals import (
    class_equivalent, class_group, count_ideal_candidates, elem_divexact,
    enumerate_ideals, ideal_from_generators, ideal_is_principal, ideal_mul,
    ideal_pow, ideal_quotient, low_ideal_scan, reduced_basis, unit_ideal,
    _enumerate_ideals_general,
)
from ffzeta.ring import (RingSpec, affine_combinations, count_affine_points,
                         elem_to_str)
from ffzeta.ringfile import parse_ring_spec
from ffzeta.semigroup import semigroup_from_ring

PERFBENCH_RINGS = Path(__file__).resolve().parent.parent / "perfbench" / "rings"
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
        [elem_from_str(h4g3, "x"), h4g3.y()], h4g3)


def prime_x1(h4g3):
    return ideal_from_generators(
        [elem_from_str(h4g3, "x + 1"), h4g3.y()], h4g3)


# -- HNF canonical form -----------------------------------------------------

def test_hnf_independent_of_generators(h4g3, h20g2, m3f2):
    a = elem_from_str(h4g3, "x^2 + x")
    b = h4g3.y()
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
    assert U.contains(h4g3.y())
    assert ideal_mul(U, U) == U


def test_contains(h4g3):
    I = prime_x(h4g3)
    assert I.contains(elem_from_str(h4g3, "x"))
    assert I.contains(h4g3.y() * h4g3.x())
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
    K = ideal_from_generators([h4g3.y()], h4g3)
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
        alpha = h4g3.elem(vec)
        if alpha.is_zero:
            continue
        I = ideal_from_generators([alpha], h4g3)
        assert I.deg == alpha.degree
        ok, gen = ideal_is_principal(I)
        assert ok
        assert ideal_from_generators([gen], h4g3) == I


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
            assert e.degree == d and e.is_monic and I.contains(e)


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
    shifted = ideal_mul(Px, ideal_from_generators([h4g3.y()], h4g3))
    assert class_equivalent(shifted, inverse(Px))


def test_class_group_quotients_each_examined_ideal_once(h20g2, monkeypatch):
    calls = []
    real = ideals.ideal_quotient

    def counting(alpha, J):
        calls.append(J)
        return real(alpha, J)

    monkeypatch.setattr(ideals, "ideal_quotient", counting)
    rep = class_group(h20g2)
    assert rep.h == 20
    assert len(set(calls)) == len(calls)
    assert {c.rep for c in rep.classes} <= set(calls)
    assert len(calls) <= sum(rep.counts[:rep.genus + 1])


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
                                  "m3f2", "m3f5"])
def test_is_reduced_marks_exactly_the_representatives(name, request):
    # over every ideal of degree <= g, not only those class_group examines
    # before it has h representatives
    spec = request.getfixturevalue(name)
    rep = class_group(spec)
    inverses = [inverse(c.rep) for c in rep.classes]
    reps = {c.rep for c in rep.classes}
    for d in range(rep.genus + 1):
        for I in enumerate_ideals(spec, d):
            assert sum(class_equivalent(I, J_inv) for J_inv in inverses) == 1
            assert ideals._is_reduced(I) == (I in reps)


# -- enumeration ------------------------------------------------------------

def test_enumeration_fast_equals_general(h4g3):
    for d in range(6):
        fast = {I for I in enumerate_ideals(h4g3, d)}
        general = {I for I in _enumerate_ideals_general(h4g3, d)}
        assert fast == general


def documented_order(spec, d):
    """Oracle for the m = 2 enumeration order: the Hermite forms
    ((w u', 0), (w v', w)) of degree d by ascending deg w, then w, u' and v'
    in counting order, kept when y times each column stays in the span."""
    field, y = spec.field, spec.y()
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


@pytest.mark.parametrize("ring", ["h4g3", "ex36", "h20g2", "h8g2"])
def test_enumeration_follows_documented_order(ring, request):
    # class numbering in `classgroup` output follows this order
    spec = (parse_ring_spec(PERFBENCH_RINGS / f"{ring}.ring")
            if ring == "h8g2" else request.getfixturevalue(ring))
    g = semigroup_from_ring(spec).genus
    for d in range(g + 3):
        assert list(enumerate_ideals(spec, d)) == documented_order(spec, d)


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


def test_candidate_count_grows_with_degree(h4g3, m3f2b, m3f5):
    # so an enumeration of degrees 0..g is within a budget exactly when
    # degree g is, which `low_ideal_scan` reads
    for spec in (RingSpec.polyring(F3), h4g3, m3f2b, m3f5):
        counts = [count_ideal_candidates(spec, d) for d in range(8)]
        assert counts == sorted(set(counts))
    assert low_ideal_scan(h4g3) == count_ideal_candidates(h4g3, 3) == 72


def test_enumeration_budget(h4g3):
    assert count_ideal_candidates(h4g3, 6) > 4
    with pytest.raises(BudgetError):
        list(enumerate_ideals(h4g3, 6, budget=4))


def test_class_group_over_budget_refused_before_enumerating(h4g3,
                                                           monkeypatch):
    # degrees 0..2 of h4g3 (g = 3) are within 71 candidates, degree 3 is not
    def refuse(*args):
        raise AssertionError("an ideal candidate was enumerated")

    monkeypatch.setattr(ideals, "monic_polys", refuse)
    with pytest.raises(BudgetError, match=r"^degree-3 ideal enumeration scans "
                       r"72 candidates, over the budget 71$"):
        class_group(h4g3, budget=71)


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


def test_class_group_tests_only_divisors_of_h(h34, monkeypatch):
    # each class ends at its first principal power; before it, at most one
    # test per divisor of h (a power-by-power search makes one per power),
    # and none at k = 1 but for the trivial class, whose rep (1) is the one
    # reduced ideal of degree 0
    results = []
    real = ideals.ideal_is_principal

    def counting(I):
        out = real(I)
        results.append(out[0])
        return out

    monkeypatch.setattr(ideals, "ideal_is_principal", counting)
    rep = class_group(h34)
    per_class, run = [], 0
    for ok in results:
        run += 1
        if ok:
            per_class.append(run)
            run = 0
    assert run == 0 and len(per_class) == rep.h
    n_divisors = sum(1 for k in range(1, rep.h + 1) if rep.h % k == 0)
    assert n_divisors == 4
    assert per_class[0] == 1
    assert max(per_class[1:]) <= n_divisors - 1


# -- counts up to degree g, functional equation, point-count certificate ----

RINGS = ["h4g3", "ex26", "ex36", "elliptic", "f4as", "h20g2"]


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


def brute_points(spec, k):
    """Solutions (x, y) over GF(p, k) of y^m + c_{m-1}(x) y^{m-1} + .. +
    c_0(x) = 0 for a cab ring over a prime field."""
    E = GF(spec.field.p, k)
    cs = [Poly(E, c.coeffs) for c in spec.coeffs]
    total = 0
    for x0 in range(E.q):
        vals = [poly_eval(c, x0) for c in cs]
        for y0 in range(E.q):
            acc = 1
            for c in reversed(vals):
                acc = E.add(E.mul(acc, y0), c)
            total += acc == 0
    return total


@pytest.mark.parametrize("name,k_max", [("ex36", 3), ("h4g3", 4),
                                        ("elliptic", 2), ("m3", 2)])
def test_point_count_matches_brute_force(name, k_max, request):
    if name == "m3":      # y^3 - y = x^4 + x over F_3
        spec = RingSpec.cab(F3, (P(F3, "2*x^4 + 2*x"), P(F3, "2"), P(F3, "0")))
    else:
        spec = request.getfixturevalue(name)
    spec.require_valid()
    twin = RingSpec.custom(spec.field, spec.delta, spec.mul_table())
    for k in range(1, k_max + 1):
        want = brute_points(spec, k)
        assert count_affine_points(spec, k) == want
        assert count_affine_points(twin, k) == want


def test_point_count_polyring():
    for k in (1, 2, 3):
        assert count_affine_points(RingSpec.polyring(F4), k) == 4 ** k


@pytest.mark.parametrize("k", [1, 3])
def test_point_count_mismatch_raises(k, ex36, monkeypatch):
    real = ideals.count_affine_points
    monkeypatch.setattr(ideals, "count_affine_points",
                        lambda spec, j: real(spec, j) + (j == k))
    with pytest.raises(ConsistencyError, match=f"N_{k} = "):
        class_group(ex36)
