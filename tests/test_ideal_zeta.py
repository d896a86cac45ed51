import pytest

from ffzeta.errors import BudgetError, ConsistencyError
from ffzeta.gf import GF, poly_from_str
from ffzeta.ideal_zeta import (
    ideal_power_value, ideal_zeta_classwise, ideal_zeta_direct,
    remark_exact_check,
)
from ffzeta.ideals import class_group, ideal_from_generators
from ffzeta.ring import RingSpec, affine_combinations, elem_to_str
from ffzeta.theorems import check_tesismc
from ffzeta.zeta import ZetaPolynomial, coeff_lit, zeta_neg, zeta_to_str

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
    Px = ideal_from_generators([h4g3.x(), h4g3.y()], h4g3)
    assert ideal_power_value(Px, 2, h4g3_classes) == h4g3.elem_from_str("x")
    assert ideal_power_value(Px, 4, h4g3_classes) == h4g3.elem_from_str("x^2")
    principal = ideal_from_generators([h4g3.y()], h4g3)
    assert ideal_power_value(principal, 2, h4g3_classes) == h4g3.y() ** 2


def test_ideal_power_needs_exponent_multiple(h4g3, h4g3_classes):
    Px = ideal_from_generators([h4g3.x(), h4g3.y()], h4g3)
    with pytest.raises(ValueError,
                       match="exponent not a multiple of class-group exponent"):
        ideal_power_value(Px, 3, h4g3_classes)


# -- classwise values -------------------------------------------------------

def test_h4g3_t2_frozen(h4g3, h4g3_classes):
    z = ideal_zeta_classwise(2, h4g3_classes, h4g3)
    assert str(z) == "1 + X + (x^2 + x + 1)*X^2 + X^3 + (x^2 + x)*X^4"
    assert z.d_max == 4
    assert z.value_at_one.is_zero
    assert z.ord_at_one() == 2


def test_h4g3_t4_frozen(h4g3, h4g3_classes):
    z = ideal_zeta_classwise(4, h4g3_classes, h4g3)
    assert str(z) == "1 + X + (x^4 + x^2 + 1)*X^2 + X^3 + (x^4 + x^2)*X^4"
    assert z.ord_at_one() == 2


def test_ex26_t2_frozen(ex26):
    rep = class_group(ex26)
    z = ideal_zeta_classwise(2, rep, ex26)
    assert str(z) == "1 + (x^2 + x)*X^2 + (x^2 + x + 1)*X^4"
    assert z.ord_at_one() == 2


def test_ex36_t2_frozen(ex36):
    rep = class_group(ex36)
    z = ideal_zeta_classwise(2, rep, ex36)
    assert str(z) == "1 + (x^2 + 2)*X^2 + (2*x^2)*X^3"
    assert z.ord_at_one() == 1


def test_refuses_non_multiple(h4g3, h4g3_classes):
    with pytest.raises(ValueError,
                       match="exponent not a multiple of class-group exponent"):
        ideal_zeta_classwise(3, h4g3_classes, h4g3)


def test_constant_term_enforced(h4g3):
    with pytest.raises(ConsistencyError):
        ZetaPolynomial(h4g3, 2, (h4g3.zero(), h4g3.one()), 1)


# -- agreement with the direct enumeration oracle ---------------------------

def test_classwise_equals_direct(h4g3, ex26, ex36, elliptic, f4as,
                                 h4g3_classes):
    jobs = [(h4g3, h4g3_classes, (2, 4)),
            (ex26, class_group(ex26), (2, 4)),
            (ex36, class_group(ex36), (2,)),
            (elliptic, class_group(elliptic), (7, 14)),
            (f4as, class_group(f4as), (1, 2, 3))]
    for spec, rep, ts in jobs:
        for t in ts:
            zc = ideal_zeta_classwise(t, rep, spec)
            # the direct route's default cutoff is the classwise one
            zd = ideal_zeta_direct(t, spec=spec, report=rep)
            assert (zd.d_max, zd.coeffs) == (zc.d_max, zc.coeffs)


def test_classwise_division_failure_raises(h4g3, h4g3_classes, monkeypatch):
    def refuse(num, den):
        raise ConsistencyError("element division left a remainder")

    monkeypatch.setattr("ffzeta.ideal_zeta.elem_divexact", refuse)
    with pytest.raises(ConsistencyError, match="remainder"):
        ideal_zeta_classwise(2, h4g3_classes, h4g3)


def test_refused_where_monic_is_not_multiplicative(monkeypatch):
    # y^2 = 2x^5 + 2x^4 + 2x^2 + x over F_3: y is monic, y * y is not
    spec = RingSpec.cab(F3, (P(F3, "x^5 + x^4 + x^2 + 2*x"), P(F3, "0")))
    rep = class_group(spec)
    assert rep.h == 20 and rep.e == 10
    with pytest.raises(ValueError, match=r"b_1 \* b_1 has leading coefficient 2"):
        ideal_zeta_classwise(10, rep, spec)

    def no_class_group(*args, **kwargs):
        raise AssertionError("class group computed before the refusal")

    monkeypatch.setattr("ffzeta.ideal_zeta.class_group", no_class_group)
    with pytest.raises(ValueError, match="leading coefficient 2"):
        ideal_zeta_direct(10, 3, spec)


def test_direct_beyond_certified_cutoff_is_zero(h4g3, h4g3_classes):
    zc = ideal_zeta_classwise(2, h4g3_classes, h4g3)
    zd = ideal_zeta_direct(2, zc.d_max + 2, h4g3, report=h4g3_classes)
    for c in zd.coeffs[zc.d_max + 1:]:
        assert c.is_zero


def test_direct_below_certified_cutoff_rejected(h4g3, h4g3_classes):
    # at t = 4 the certified cutoff is 4 and ord at X = 1 is 2; cut at 1,
    # the sum would read 1 + X with ord 1
    assert ideal_zeta_direct(4, None, h4g3, report=h4g3_classes).d_max == 4
    with pytest.raises(ValueError, match="d_max = 1 is below"):
        ideal_zeta_direct(4, 1, h4g3, report=h4g3_classes)


def test_direct_negative_cutoff_rejected(h4g3, h4g3_classes):
    with pytest.raises(ValueError, match="d_max"):
        ideal_zeta_direct(2, -1, h4g3, report=h4g3_classes)


def test_trivial_zeros_extend(h4g3, ex36, f4as, h4g3_classes):
    # value at 1 vanishes whenever (q-1) | t, matching the monic-element law
    jobs = [(h4g3, h4g3_classes, (2, 4, 6)), (ex36, class_group(ex36), (2, 4)),
            (f4as, class_group(f4as), (3,))]
    for spec, rep, ts in jobs:
        q = spec.field.q
        for t in ts:
            z = ideal_zeta_classwise(t, rep, spec)
            assert t % (q - 1) == 0
            assert z.value_at_one.is_zero


def test_class_slice_over_budget_refused_before_first_power(
        h4g3, h4g3_classes, monkeypatch):
    # the principal and class slices of the bundled rings are equally large,
    # so the principal part comes precomputed to reach a class slice at all
    principal = zeta_neg(2, h4g3)
    monkeypatch.setattr("ffzeta.ideal_zeta.zeta_neg",
                        lambda *args, **kwargs: principal)
    sizes = []

    def recording(lead, basis):
        sizes.append(len(basis))
        return affine_combinations(lead, basis)

    monkeypatch.setattr("ffzeta.zeta.affine_combinations", recording)
    with pytest.raises(BudgetError, match=r"q\^dim = 2 points exceeds the budget 1"):
        ideal_zeta_classwise(2, h4g3_classes, h4g3, budget=1)
    # slices within the budget (one element) were summed; the one over it
    # (two elements) was refused before any of its powers
    assert sizes and set(sizes) == {0}


# -- exact factorization (h = 2 and beyond) ---------------------------------

def test_remark_h4g3(h4g3, h4g3_classes):
    zc = ideal_zeta_classwise(2, h4g3_classes, h4g3)
    r = remark_exact_check(zc, h4g3_classes)
    assert r.t == 2
    assert r.identity_holds
    assert zeta_to_str(map(coeff_lit, r.u_coeffs)) == "1 + X + (x^2 + x)*X^2"
    assert elem_to_str(r.u_at_one) == "x^2 + x, 0"
    assert r.order_exactly_q
    assert not r.h2_shortcut


def test_remark_ex26(ex26):
    rep = class_group(ex26)
    r = remark_exact_check(ideal_zeta_classwise(2, rep, ex26), rep)
    assert r.identity_holds
    assert zeta_to_str(map(coeff_lit, r.u_coeffs)) == "1 + (x^2 + x + 1)*X^2"
    assert r.order_exactly_q
    assert r.h2_shortcut          # h = 2


def test_remark_not_applicable(ex36, elliptic):
    # the remark belongs to an applicable all-ideals chain only
    assert check_tesismc(ex36, 1).remark is None
    assert check_tesismc(elliptic, 1).remark is None
