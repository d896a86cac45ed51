from pathlib import Path

import pytest
from oracles import classwise_terms, elem_from_str

import ffzeta.ideal_zeta as ideal_zeta
import ffzeta.ideals as ideals
from ffzeta.errors import BudgetError, ConsistencyError
from ffzeta.gf import GF, poly_from_str
from ffzeta.ideal_zeta import (
    _class_cuts, ideal_power_value, ideal_zeta_classwise, ideal_zeta_direct,
    remark_exact_check,
)
from ffzeta.ideals import (class_group, enumerate_ideals,
                           ideal_from_generators, ideal_is_principal,
                           ideal_pow, involution, involution_partners)
from ffzeta.ring import RingSpec, elem_to_str
from ffzeta.ringfile import parse_ring_spec
from ffzeta.theorems import check_tesismc
from ffzeta.zeta import (ZetaPolynomial, coeff_lit, term_leads, zeta_neg,
                         zeta_to_str)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


def P(field, s):
    return poly_from_str(field, s)


@pytest.fixture(scope="module")
def elliptic():
    return RingSpec.cab(F3, (P(F3, "2*x^3 + x + 2"), P(F3, "0")), name="ell")


@pytest.fixture(scope="module")
def f4as():
    return RingSpec.cab(F4, (P(F4, "x^3 + t"), P(F4, "1")), name="f4as")


# -- ideal powers through the class group -----------------------------------

def test_ideal_power_value(h4g3, h4g3_classes):
    x, y = h4g3.monomial(1, 0), h4g3.monomial(0, 1)
    Px = ideal_from_generators([x, y], h4g3)
    assert ideal_power_value(Px, 2, h4g3_classes) == elem_from_str(h4g3, "x")
    assert ideal_power_value(Px, 4, h4g3_classes) == elem_from_str(h4g3, "x^2")
    principal = ideal_from_generators([y], h4g3)
    assert ideal_power_value(principal, 2, h4g3_classes) == y ** 2


@pytest.mark.parametrize("name", ["h4g3", "h8g2"])
def test_ideal_power_value_matches_hermite_powers(name, request):
    # every ideal I = w J of degree <= 3, w its content and J primitive:
    # Cantor's law on J against the Hermite-form power of I
    spec = (request.getfixturevalue(name) if name == "h4g3" else
            parse_ring_spec(PERFBENCH_RINGS / f"{name}.ring"))
    rep = class_group(spec)
    e = rep.e
    seen = set()
    for d in range(4):
        for I in enumerate_ideals(spec, d):
            (a, _), (_, w) = I.cols
            seen.add("primitive" if not w.degree else
                     "w J, J = (1)" if a == w else "w J, J != (1)")
            ok, gen = ideal_is_principal(ideal_pow(I, e))
            assert ok
            for t in (e, 2 * e):
                assert ideal_power_value(I, t, rep) == gen ** (t // e)
    assert seen == {"primitive", "w J, J = (1)", "w J, J != (1)"}


def test_direct_at_rank_two_takes_no_hermite_power(h4g3_classes, monkeypatch):
    def refuse(*args):
        raise AssertionError("a Hermite-form power or principality test")

    want = ideal_zeta_classwise(4, h4g3_classes).coeffs
    monkeypatch.setattr(ideals, "ideal_pow", refuse)
    monkeypatch.setattr(ideals, "ideal_is_principal", refuse)
    assert ideal_zeta_direct(4, h4g3_classes).coeffs == want


def test_ideal_power_needs_exponent_multiple(h4g3, h4g3_classes):
    Px = ideal_from_generators([h4g3.monomial(1, 0), h4g3.monomial(0, 1)],
                               h4g3)
    with pytest.raises(ValueError,
                       match="exponent not a multiple of class-group exponent"):
        ideal_power_value(Px, 3, h4g3_classes)


# -- classwise values -------------------------------------------------------

def test_h4g3_t2_frozen(h4g3_classes):
    z = ideal_zeta_classwise(2, h4g3_classes)
    assert str(z) == "1 + X + (x^2 + x + 1)*X^2 + X^3 + (x^2 + x)*X^4"
    assert z.d_max == 4
    assert z.value_at_one.is_zero
    assert z.ord_at_one() == 2


def test_h4g3_t4_frozen(h4g3_classes):
    z = ideal_zeta_classwise(4, h4g3_classes)
    assert str(z) == "1 + X + (x^4 + x^2 + 1)*X^2 + X^3 + (x^4 + x^2)*X^4"
    assert z.ord_at_one() == 2


def test_ex26_t2_frozen(ex26):
    rep = class_group(ex26)
    z = ideal_zeta_classwise(2, rep)
    assert str(z) == "1 + (x^2 + x)*X^2 + (x^2 + x + 1)*X^4"
    assert z.ord_at_one() == 2


def test_ex36_t2_frozen(ex36):
    rep = class_group(ex36)
    z = ideal_zeta_classwise(2, rep)
    assert str(z) == "1 + (x^2 + 2)*X^2 + (2*x^2)*X^3"
    assert z.ord_at_one() == 1


def test_refuses_non_multiple(h4g3_classes):
    with pytest.raises(ValueError,
                       match="exponent not a multiple of class-group exponent"):
        ideal_zeta_classwise(3, h4g3_classes)


def test_constant_term_enforced(h4g3):
    with pytest.raises(ConsistencyError):
        ZetaPolynomial(h4g3, 2, (h4g3.zero(), h4g3.one()))


# -- agreement with the direct enumeration oracle ---------------------------

def test_classwise_equals_direct(h4g3, ex26, ex36, elliptic, f4as, xy5,
                                 h4g3_classes):
    jobs = [(h4g3, h4g3_classes, (2, 4, 30)),
            (ex26, class_group(ex26), (2, 4)),
            (ex36, class_group(ex36), (2,)),
            (elliptic, class_group(elliptic), (7, 14)),
            (f4as, class_group(f4as), (1, 2, 3)),
            (xy5, class_group(xy5), (25, 50))]
    for spec, rep, ts in jobs:
        for t in ts:
            zc = ideal_zeta_classwise(t, rep)
            # the direct route's default cutoff is the classwise one
            zd = ideal_zeta_direct(t, rep)
            assert (zd.d_max, zd.coeffs) == (zc.d_max, zc.coeffs)


@pytest.mark.parametrize("name,flips", [
    ("xy5", {"mu"}), ("elliptic", {"lambda", "mu"}), ("ell5", set()),
    ("h8g2", set()), ("h34", set())],
    ids=["xy5", "elliptic", "ell5", "h8g2", "h34"])
def test_sigma_pairs_match_the_every_class_sums(name, flips, request,
                                                monkeypatch):
    # the oracle sums every class; ideal_zeta_classwise sums one class of
    # each pair {C, C^-1} and maps the other by sigma.  By the parity law,
    # lambda_D = (-1)^D and mu = (-1)^(k d_C), so the term of C^-1 at X^j,
    # D = j + d_C, is (-1)^(t D) (-1)^(t d_C) sigma(term of C).  flips names
    # the factors that are -1 at some summed term at t = e: both need odd p
    # and odd t (xy5 at t = e = 25, elliptic at t = e = 7), and on xy5 every
    # summed term has even D
    spec = (request.getfixturevalue(name) if name in ("xy5", "elliptic") else
            parse_ring_spec(GOLDEN / "h34.ring") if name == "h34" else
            parse_ring_spec(PERFBENCH_RINGS / f"{name}.ring"))
    rep = class_group(spec)
    partners = involution_partners([c.rep for c in rep.classes])
    summed = sum(1 for i, j in enumerate(partners) if j >= i)
    assert summed < rep.h
    seen = set()
    for t in (rep.e, 2 * rep.e):
        terms = classwise_terms(t, rep)
        for i, j in enumerate(partners):
            d = rep.classes[i].degree
            assert terms[j].keys() == terms[i].keys()
            for x, term in terms[i].items():
                lam, mu = (-1) ** (t * (x + d)), (-1) ** (t * d)
                assert terms[j][x] == involution(term).scale_const(
                    lam * mu % spec.field.p)
                if j > i and spec.field.p > 2:
                    seen |= {"lambda"} if lam < 0 else set()
                    seen |= {"mu"} if mu < 0 else set()
        width = 1 + max(cut for *_, cut in _class_cuts(t, rep))
        want = [spec.zero()] * width
        for term in terms:
            for x, c in term.items():
                want[x] += c
        calls = []
        real = ideal_zeta.affine_power_sum
        monkeypatch.setattr(ideal_zeta, "affine_power_sum",
                            lambda *a: calls.append(1) or real(*a))
        assert ideal_zeta_classwise(t, rep).coeffs == tuple(want)
        monkeypatch.undo()
        leads = len(next(_class_cuts(t, rep))[1])
        assert len(calls) == summed * leads
    assert seen == flips


def test_trivial_group_divides_by_one_without_a_solve(f4as, monkeypatch):
    # h = 1: every class-term division is by 1, so no Cramer determinant
    def refuse(rows):
        raise AssertionError("poly_det called")

    rep = class_group(f4as)
    monkeypatch.setattr("ffzeta.ideals.poly_det", refuse)
    for t in (1, 3, 5):
        zc = ideal_zeta_classwise(t, rep)
        assert zc.coeffs == ideal_zeta_direct(t, rep).coeffs


def test_classwise_division_failure_raises(h4g3_classes, monkeypatch):
    def refuse(num, den):
        raise ConsistencyError("element division left a remainder")

    monkeypatch.setattr("ffzeta.ideal_zeta.elem_divexact", refuse)
    with pytest.raises(ConsistencyError, match="remainder"):
        ideal_zeta_classwise(2, h4g3_classes)


def test_refused_where_monic_is_not_multiplicative():
    # y^2 = 2x^5 + 2x^4 + 2x^2 + x over F_3: y is monic, y * y is not
    spec = RingSpec.cab(F3, (P(F3, "x^5 + x^4 + x^2 + 2*x"), P(F3, "0")))
    rep = class_group(spec)
    assert rep.h == 20 and rep.e == 10
    for route in (ideal_zeta_classwise, ideal_zeta_direct):
        with pytest.raises(ValueError,
                           match=r"b_1 \* b_1 has leading coefficient 2"):
            route(10, rep)


def test_direct_beyond_certified_cutoff_is_zero(h4g3, h4g3_classes):
    # the ideals of the two degrees past the certified cutoff sum to zero
    d_max = ideal_zeta_direct(2, h4g3_classes).d_max
    for d in (d_max + 1, d_max + 2):
        acc = h4g3.zero()
        for I in enumerate_ideals(h4g3, d):
            acc = acc + ideal_power_value(I, 2, h4g3_classes)
        assert acc.is_zero


PERFBENCH_RINGS = Path(__file__).resolve().parent.parent / "perfbench" / "rings"
GOLDEN = Path(__file__).resolve().parent / "golden"
RINGS = (["ex26", "ex36", "fqx2", "fqx3", "fqx4", "h4g3"]
         + sorted(str(p) for p in PERFBENCH_RINGS.glob("*.ring")))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: Path(r).stem)
def test_trivial_class_cut_is_the_element_cutoff(ring):
    # the principal class is summed like the others: its representative is
    # (1), of degree 0 with generator 1, and its leads are zeta_neg's, the
    # term leads of the ring's own basis
    spec = parse_ring_spec(ring)
    rep = class_group(spec)
    for k in (1, 2, 3, 5, 8, 13, 31, 63):
        t = k * rep.e
        cls, leads, cut = next(_class_cuts(t, rep))
        assert (cls.order, cls.degree, cls.generator) == (1, 0, spec.one())
        assert leads == term_leads(spec.basis(), t), t
        assert cut == zeta_neg(t, spec).d_max, t


def test_trivial_zeros_extend(h4g3, ex36, f4as, h4g3_classes):
    # value at 1 vanishes whenever (q-1) | t, matching the monic-element law
    jobs = [(h4g3, h4g3_classes, (2, 4, 6)), (ex36, class_group(ex36), (2, 4)),
            (f4as, class_group(f4as), (3,))]
    for spec, rep, ts in jobs:
        q = spec.field.q
        for t in ts:
            z = ideal_zeta_classwise(t, rep)
            assert t % (q - 1) == 0
            assert z.value_at_one.is_zero


def test_class_slice_over_budget_refused_before_first_power(
        h4g3_classes, monkeypatch, no_powers):
    # t = 2 plans slices over 2^0 and 2^1 points; the larger one is over the
    # budget and refused before any power
    monkeypatch.setattr("ffzeta.zeta.DEFAULT_BUDGET", 1)
    with pytest.raises(BudgetError, match=r"^a power-sum slice over 2\^1 "
                       r"points exceeds the budget 1$"):
        ideal_zeta_classwise(2, h4g3_classes)


def test_classwise_over_budget_refused_before_first_power(h4g3_classes,
                                                          no_powers):
    # t = 2 (2^21 - 1) has l_2(t) = 21, so every class plans slices over
    # 2^0 .. 2^21 points; the largest is over the budget and refused
    with pytest.raises(BudgetError, match=r"^a power-sum slice over 2\^21 "
                       r"points exceeds the budget 1048576$"):
        ideal_zeta_classwise(2 * (2 ** 21 - 1), h4g3_classes)


def test_direct_over_budget_refused_before_first_ideal(h4g3_classes,
                                                       monkeypatch, no_powers):
    # t = 510 plans degrees 0..11, and degree 11 scans over 4M candidates
    def refuse(*args):
        raise AssertionError("an ideal was enumerated")

    monkeypatch.setattr("ffzeta.ideals.monic_polys", refuse)
    monkeypatch.setattr("ffzeta.ideal_zeta.ideal_power_value", refuse)
    with pytest.raises(BudgetError, match=r"^degree-11 ideal enumeration scans "
                       r"\d+ candidates, over the budget 4000000$"):
        ideal_zeta_direct(510, h4g3_classes)


# -- exact factorization (h = 2 and beyond) ---------------------------------

def test_remark_h4g3(h4g3_classes):
    zc = ideal_zeta_classwise(2, h4g3_classes)
    r = remark_exact_check(zc, h4g3_classes)
    assert r.t == 2
    assert r.identity_holds
    assert zeta_to_str(map(coeff_lit, r.u_coeffs)) == "1 + X + (x^2 + x)*X^2"
    assert elem_to_str(r.u_at_one) == "x^2 + x, 0"
    assert r.order_exactly_q
    assert not r.h2_shortcut


def test_remark_ex26(ex26):
    rep = class_group(ex26)
    r = remark_exact_check(ideal_zeta_classwise(2, rep), rep)
    assert r.identity_holds
    assert zeta_to_str(map(coeff_lit, r.u_coeffs)) == "1 + (x^2 + x + 1)*X^2"
    assert r.order_exactly_q
    assert r.h2_shortcut          # h = 2


def test_remark_order_needs_the_identity(h4g3_classes, monkeypatch):
    # U(1) != 0 decides the order only through a verified identity
    zc = ideal_zeta_classwise(2, h4g3_classes)
    monkeypatch.setattr("ffzeta.ideal_zeta.matches_base_substituted",
                        lambda *args, **kwargs: False)
    r = remark_exact_check(zc, h4g3_classes)
    assert not r.identity_holds and not r.u_at_one.is_zero
    assert not r.order_exactly_q


def test_remark_not_applicable(ex36, elliptic):
    # the remark belongs to an applicable all-ideals chain only
    assert check_tesismc(ex36, 1).remark is None
    assert check_tesismc(elliptic, 1).remark is None
