import pytest

from ffzeta.gf import GF, poly_from_str
from ffzeta.ring import RingSpec
from ffzeta.semigroup import NumericalSemigroup
from ffzeta.theorems import (
    _dinesh_checks, check_dinesh, check_generalization, check_hiper,
    check_hyperelliptic_rgap_proposition, check_tesismc,
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


def test_dinesh_quintic_semigroup():
    S = NumericalSemigroup.from_gaps((1, 2, 4, 5, 7, 8))
    rep = _dinesh_checks(S, 3, 2)
    assert rep.applicable
    assert rep.predicted == ("exact", 3)
    assert rep.computed is None      # semigroup level: nothing to sum
    rep = _dinesh_checks(S, 3, 3)
    assert not rep.applicable        # 2 does not divide 3


# -- all-ideals chains ------------------------------------------------------

def test_tesismc_h4g3(h4g3, h4g3_classes):
    rep = check_tesismc(h4g3, 1, h4g3_classes)
    assert rep.applicable
    assert [c.passed for c in rep.checks] == [True] * 10
    assert rep.predicted == ("at_least", 2)
    assert rep.computed == 2
    assert rep.mu == 1
    assert rep.exponent == 2         # es = e * s
    assert rep.remark is not None
    assert rep.remark.identity_holds
    assert rep.remark.order_exactly_q


def test_tesismc_squarefree_relaxation_witness(h4g3, h4g3_classes):
    rep = check_tesismc(h4g3, 1, h4g3_classes)
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


def test_tesismc_mu_override(h4g3, h4g3_classes):
    # mu = 2 breaks N > q mu + e_k d_k on the degree-2 class: 7 < 4 + 4
    rep = check_tesismc(h4g3, 1, h4g3_classes, mu=2)
    assert not rep.applicable
    assert rep.failed_check().name == "mu override satisfies N > q mu + e_k d_k"
    rep = check_tesismc(h4g3, 1, h4g3_classes, mu=1)
    assert rep.applicable and rep.mu == 1


def test_tesismc_digit_condition(h4g3, h4g3_classes):
    # l_2(es) <= mu = 1 forces es to a power of two; s = 3 gives es = 6
    rep = check_tesismc(h4g3, 3, h4g3_classes)
    assert not rep.applicable
    assert rep.failed_check().name == "l_q(es)/(q-1) <= mu"


def test_generalization_h4g3(h4g3, h4g3_classes):
    rep = check_generalization(h4g3, 1, h4g3_classes)
    assert rep.applicable
    assert rep.predicted == ("at_least", 2)
    assert rep.computed == 2
    assert rep.remark is not None and rep.remark.identity_holds
    # the q = 2 chain imposes no r-gap or u-conditions
    names = [c.name for c in rep.checks]
    assert "negative exponents of u = b/a^q coprime to p" not in names
    assert "r-gap structure with r >= q-1" not in names


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


def test_without_remark_flag(h4g3, h4g3_classes):
    rep = check_tesismc(h4g3, 1, h4g3_classes, with_remark=False)
    assert rep.applicable and rep.remark is None


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
