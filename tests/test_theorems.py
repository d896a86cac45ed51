from math import gcd

import pytest
from oracles import check_hyperelliptic_rgap_proposition

import ffzeta.theorems as theorems
from ffzeta.errors import BudgetError
from ffzeta.gf import GF, poly_from_str
from ffzeta.ideal_zeta import ideal_zeta_classwise
from ffzeta.ring import RingSpec
from ffzeta.semigroup import NumericalSemigroup, r_gap_values
from ffzeta.theorems import (
    _dinesh_checks, check_dinesh, check_generalization, check_hiper,
    check_tesismc,
)

F2 = GF(2)
F3 = GF(3)


def P(field, s):
    return poly_from_str(field, s)


@pytest.fixture(scope="module")
def wild():
    """y^2 + (x^2+x) y = x^7 + x^3 + 1: smooth, but u = b/a^2 has even
    pole orders at x and x+1, so the wild-ramification condition fails."""
    return RingSpec.cab(F2, (P(F2, "x^7 + x^3 + 1"), P(F2, "x^2 + x")),
                        name="wild")


# -- hyperelliptic exact-order theorem --------------------------------------

def test_hiper_ex26(ex26):
    rep = check_hiper(ex26, 7)
    assert rep.applicable
    assert rep.predicted == ("exact", 2)
    assert rep.computed == 2
    assert rep.failed_check() is None


def test_hiper_inapplicable_still_computes(ex26):
    rep = check_hiper(ex26, 15)      # l_2(15) = 4 > g = 3
    assert not rep.applicable
    assert rep.predicted is None
    assert rep.failed_check().name == "l_2(s) <= g"
    assert rep.computed == 1


def test_hiper_wrong_field(ex36):
    rep = check_hiper(ex36, 2)
    assert not rep.applicable
    assert rep.failed_check().name == "q = 2"
    assert rep.computed == 1


def test_hiper_needs_m2():
    rep = check_hiper(RingSpec.polyring(F2), 3)
    assert not rep.applicable
    assert rep.failed_check().name == "hyperelliptic form (m = 2)"


# -- degree-q / dinesh ------------------------------------------------------

def test_dinesh_ex26(ex26):
    rep = check_dinesh(ex26, 5)
    assert rep.applicable
    assert rep.predicted == ("exact", 2)
    assert rep.computed == 2
    assert rep.identity is True      # m = q = 2: zeta equals base in X^q


def test_dinesh_ratio_too_large(ex26):
    rep = check_dinesh(ex26, 15)     # l_2(15) = 4 > max valid r = 3
    assert not rep.applicable
    assert rep.failed_check().name == "l_q(s)/(q-1) <= r"


def test_dinesh_ex36_no_big_r(ex36):
    rep = check_dinesh(ex36, 2)
    assert not rep.applicable
    assert rep.failed_check().name == "r-gap structure with r >= q-1"


@pytest.mark.parametrize("check", [check_hiper, check_dinesh])
def test_chain_stops_at_the_first_failure(check, ex36):
    # ex36 fails q = 2 and r >= q-1 = 2; nothing after is listed
    rep = check(ex36, 2)
    assert not rep.applicable
    assert [c.passed for c in rep.checks].count(False) == 1
    assert rep.checks[-1] is rep.failed_check()


@pytest.mark.parametrize("check", [check_hiper, check_dinesh, check_tesismc,
                                   check_generalization])
@pytest.mark.parametrize("s", [0, -1])
def test_nonpositive_s_refused_before_any_class_group(check, s, ex26,
                                                      monkeypatch):
    def refuse(spec):
        raise AssertionError("a class group was computed")

    monkeypatch.setattr(theorems, "class_group", refuse)
    with pytest.raises(ValueError, match=f"s must be a positive integer, got {s}"):
        check(ex26, s)


def test_dinesh_quintic_semigroup():
    S = NumericalSemigroup.from_gaps((1, 2, 4, 5, 7, 8))
    rep = _dinesh_checks(S, 3, 2)
    assert rep.applicable
    assert rep.predicted == ("exact", 3)
    assert rep.computed is None      # semigroup level: nothing to sum
    rep = _dinesh_checks(S, 3, 3)
    assert not rep.applicable        # 2 does not divide 3


# -- all-ideals chains ------------------------------------------------------

def test_tesismc_h4g3(h4g3):
    rep = check_tesismc(h4g3, 1)
    assert rep.applicable
    assert [c.passed for c in rep.checks] == [True] * 10
    assert rep.predicted == ("at_least", 2)
    assert rep.computed == 2
    assert rep.mu == 1
    assert rep.exponent == 2         # es = e * s
    assert rep.remark is not None
    assert rep.remark.identity_holds
    assert rep.remark.order_exactly_q


def test_tesismc_squarefree_relaxation_witness(h4g3):
    rep = check_tesismc(h4g3, 1)
    (item,) = [c for c in rep.checks
               if c.name == "each f_k squarefree and divides b(x)"]
    assert item.passed
    flags = {w["f_k"]: w["irreducible"] for w in item.witness}
    assert flags == {"x": True, "x + 1": True, "x^2 + x": False}


def test_tesismc_ex26(ex26):
    rep = check_tesismc(ex26, 1)
    assert rep.applicable
    assert rep.mu == 1
    assert rep.computed == 2
    assert rep.remark.h2_shortcut


def test_tesismc_wild_ramification_fails(wild):
    assert wild.validate().ok and wild.validate().singular_finite == ()
    rep = check_tesismc(wild, 1)
    assert not rep.applicable
    bad = rep.failed_check()
    assert bad.name == "negative exponents of u = b/a^q coprime to p"
    assert bad is rep.checks[-1]     # chain stops at the first failure
    assert sorted(bad.witness["violations"]) == [("x", -2), ("x + 1", -2)]


def test_tesismc_not_artin_schreier(ex36):
    rep = check_tesismc(ex36, 1)
    assert not rep.applicable
    assert rep.failed_check().name == "form y^q - a^{q-1} y = b"


def test_tesismc_q3_reaches_the_rgap_item():
    # y^3 - x^2 y = x^5 + x over F_3: a = x is recovered and every item up
    # to the r-gap one passes; <3, 5> has no r-gap structure (see the
    # module docstring)
    spec = RingSpec.cab(F3, (P(F3, "2*x^5 + 2*x"), P(F3, "2*x^2"),
                             P(F3, "0")))
    assert spec.validate().ok
    rep = check_tesismc(spec, 2)
    assert not rep.applicable
    assert [c.passed for c in rep.checks] == [True] * 4 + [False]
    assert rep.checks[0].witness == {"a": "x", "b": "x^5 + x"}
    assert rep.failed_check().name == "r-gap structure with r >= q-1"
    assert rep.failed_check().witness == {"valid_r": []}


def test_tesismc_q3_refuses_a_non_monic_a_squared():
    spec = RingSpec.cab(F3, (P(F3, "2*x^5 + 2*x"), P(F3, "x^2"), P(F3, "0")))
    rep = check_tesismc(spec, 2)
    assert [c.passed for c in rep.checks] == [False]
    assert rep.failed_check().witness == {
        "reason": "-c_1 is not monic, so not a (q-1)-th power"}


@pytest.mark.parametrize("field, coeffs, reason", [
    (F3, ("x^4 + 1", "2*x", "x"), "middle coefficients nonzero"),
    (F3, ("x^4 + 1", "2*x", "0"),
     "-c_1 has a factor multiplicity not divisible by q-1"),
    (F2, ("x^3 + x + 1", "0"), "no y term: a = 0"),
], ids=["middle", "multiplicity", "no-y"])
def test_tesismc_form_refusals(field, coeffs, reason):
    spec = RingSpec.cab(field, tuple(P(field, c) for c in coeffs))
    assert spec.validate().ok
    rep = check_tesismc(spec, 2)
    assert [c.passed for c in rep.checks] == [False]
    assert rep.failed_check().witness == {"reason": reason}


@pytest.mark.parametrize("check", [check_tesismc, check_generalization])
def test_non_maximal_ring_fails_at_the_class_group(check):
    # y^2 + (x^2+x) y = x^7 + x^6 validates but is singular at x = 0
    spec = RingSpec.cab(F2, (P(F2, "x^7 + x^6"), P(F2, "x^2 + x")))
    assert spec.validate().singular_finite == (P(F2, "x"),)
    rep = check(spec, 1)
    assert not rep.applicable
    bad = rep.failed_check()
    assert bad.name == "class group computed"
    assert bad.witness["error"].startswith("finite singular locus at x")


def test_tesismc_digit_condition(h4g3):
    # l_2(es) <= mu = 1 forces es to a power of two; s = 3 gives es = 6
    rep = check_tesismc(h4g3, 3)
    assert not rep.applicable
    assert rep.failed_check().name == "l_q(es)/(q-1) <= mu"
    assert rep.mu == 1 and rep.exponent == 6


def test_tesismc_conditions_take_one_s_and_a_deferred_class_group(
        h4g3, h4g3_classes, wild, monkeypatch):
    # the conditions alone: no zeta, so no order and no remark; the class
    # report is called once the equation conditions hold, and not before
    want = check_tesismc(h4g3, 2)
    monkeypatch.setattr(theorems, "ideal_zeta_classwise", None)
    rep, cg = theorems.tesismc_conditions(h4g3, 2, lambda: h4g3_classes)
    assert cg is h4g3_classes
    assert rep.applicable and rep.mu == 1 and rep.exponent == 4
    assert rep.checks == want.checks
    assert rep.computed is None and rep.remark is None

    def refuse():
        raise AssertionError("class group computed before the equation")

    rep, cg = theorems.tesismc_conditions(wild, 1, refuse)
    assert cg is None and not rep.applicable
    assert rep.mu is None and rep.exponent is None


def test_generalization_h4g3(h4g3):
    rep = check_generalization(h4g3, 1)
    assert rep.applicable
    assert rep.predicted == ("at_least", 2)
    assert rep.computed == 2
    assert rep.remark is not None and rep.remark.identity_holds
    # the q = 2 chain imposes no r-gap or u-conditions
    names = [c.name for c in rep.checks]
    assert "negative exponents of u = b/a^q coprime to p" not in names
    assert "r-gap structure with r >= q-1" not in names


def test_generalization_e1_digit_condition(e1):
    # genus 1 caps mu at 1, and l_2(7) = 3 exceeds it; a larger mu would
    # predict ord >= 2 where the computed order is 1
    rep = check_generalization(e1, 7)
    assert not rep.applicable
    assert rep.failed_check().name == "l_q(es)/(q-1) <= mu"
    assert rep.mu == 1 and rep.computed is None


@pytest.mark.parametrize("name", ["h4g3", "ex26", "e1"])
def test_all_ideals_predictions_hold(name, request):
    # every applicable all-ideals chain with a computed order meets its
    # lower bound ord >= q
    spec = request.getfixturevalue(name)
    seen = 0
    for check in (check_generalization, check_tesismc):
        for s in range(1, 9):
            rep = check(spec, s)
            if rep.applicable and rep.computed is not None:
                assert rep.predicted == ("at_least", spec.field.q)
                assert rep.computed >= spec.field.q
                seen += 1
    assert seen


def test_generalization_wild_fails_elsewhere(wild):
    # the q = 2 chain has no ramification condition, so the wild fixture
    # gets further: it dies at the class-structure check instead, because
    # its nontrivial classes sit over x and x + 1, neither of which
    # divides b = x^7 + x^3 + 1
    rep = check_generalization(wild, 1)
    assert not rep.applicable
    bad = rep.failed_check()
    assert bad.name == "each f_k squarefree and divides b(x)"
    assert any(w.get("divides_b") is False for w in bad.witness)


def test_generalization_q3_rejected(ex36):
    rep = check_generalization(ex36, 1)
    assert not rep.applicable
    assert rep.failed_check().name == "q = 2"


def test_chain_computes_classwise_zeta_once(h4g3, monkeypatch):
    calls = []

    def counting(t, *args, **kwargs):
        calls.append(t)
        return ideal_zeta_classwise(t, *args, **kwargs)

    for module in ("ffzeta.ideal_zeta", "ffzeta.theorems"):
        monkeypatch.setattr(f"{module}.ideal_zeta_classwise", counting)
    rep = check_tesismc(h4g3, 1)
    assert rep.applicable and rep.computed == 2
    assert rep.remark.identity_holds
    assert calls == [2]


def test_chain_over_budget_leaves_order_and_remark_unset(h4g3, monkeypatch):
    def refuse(*args, **kwargs):
        raise BudgetError("over the element budget")

    monkeypatch.setattr("ffzeta.theorems.ideal_zeta_classwise", refuse)
    rep = check_tesismc(h4g3, 1)
    assert rep.applicable
    assert rep.computed is None and rep.remark is None


# -- hyperelliptic r-gap proposition ----------------------------------------

def test_rgap_proposition_default():
    rep = check_hyperelliptic_rgap_proposition()
    assert rep.all_ok
    ns = [n for n, _, _, _ in rep.entries]
    assert ns == list(range(3, 22, 2))
    for n, g, valid_r, ok in rep.entries:
        assert g == (n - 1) // 2
        assert set(valid_r) <= {g - 1, g}
        assert ok


def test_rgap_proposition_rejects_even():
    with pytest.raises(ValueError):
        check_hyperelliptic_rgap_proposition((4,))
    with pytest.raises(ValueError):
        check_hyperelliptic_rgap_proposition((1,))


# -- the q >= 3 obstruction -------------------------------------------------

def test_no_rgap_structure_beyond_q2():
    # the semigroup <q, N> of a ring the tesismc chain recognises has no
    # valid r once q >= 3, so that chain always stops at its r-gap check;
    # at q = 2 a valid r exists and is g - 1 or g
    for q in range(2, 10):
        for N in range(2, 60):
            if gcd(q, N) != 1:
                continue
            S = NumericalSemigroup.from_generators((q, N))
            assert S.genus == (q - 1) * (N - 1) // 2
            valid_r = r_gap_values(S, q)
            if q == 2:
                assert valid_r and set(valid_r) <= {S.genus - 1, S.genus}
            else:
                assert valid_r == ()
