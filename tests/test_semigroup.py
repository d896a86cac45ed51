import random
from math import gcd

import pytest

from ffzeta.errors import BudgetError
from ffzeta.semigroup import (
    GENUS_CAP, NumericalSemigroup, degree_q_theorem_check,
    enumerate_semigroups, r_gap_values, semigroup_from_ring, theorem_r_values,
)


@pytest.fixture(scope="module")
def S27():
    return NumericalSemigroup.from_generators((2, 7))


@pytest.fixture(scope="module")
def quintic():
    """The q = 3, genus-6 semigroup with gaps 1, 2, 4, 5, 7, 8."""
    return NumericalSemigroup.from_gaps((1, 2, 4, 5, 7, 8))


# -- construction -----------------------------------------------------------

def test_hyperelliptic_basic(S27):
    assert S27.gaps == (1, 3, 5)
    assert S27.genus == 3
    assert S27.frobenius == 5
    assert S27.generators == (2, 7)


def test_remove_appends_one_gap(S27):
    T = S27.remove(7)
    assert T.gaps == (1, 3, 5, 7) and T.generators == (2, 9)
    for e in (4, 5, 9):   # below F, a gap, and 2 + 7
        with pytest.raises(ValueError, match="not removable"):
            S27.remove(e)


def test_from_gaps_matches_generators(quintic):
    assert quintic == NumericalSemigroup.from_generators((3, 10, 11))
    assert quintic.genus == 6
    assert quintic.generators == (3, 10, 11)


def test_bad_gap_set_rejected():
    with pytest.raises(ValueError, match="co-closed"):
        NumericalSemigroup.from_gaps((1, 4))   # 2 + 2 = 4 would be a gap
    with pytest.raises(ValueError, match="^0 cannot be a gap$"):
        NumericalSemigroup.from_gaps([0])


def test_from_generators_matches_membership_oracle():
    rng = random.Random(7)
    for _ in range(300):
        gens = rng.sample(range(1, 20), rng.randrange(1, 5))
        if gcd(*gens) != 1:
            continue
        S = NumericalSemigroup.from_generators(gens)
        # oracle: n is a member when n - g is one for some generator g; a
        # run of min(gens) members makes every larger n a member
        member = [True]
        while not all(member[-min(gens):]) or len(member) < min(gens):
            n = len(member)
            member.append(any(g <= n and member[n - g] for g in gens))
        assert S.gaps == tuple(n for n, ok in enumerate(member) if not ok)
        assert all((n in S) == ok for n, ok in enumerate(member))
        positive = [n for n, ok in enumerate(member) if ok and n] + [
            len(member) + i for i in range(max(gens))]
        sums = {u + v for u in positive for v in positive}
        assert S.generators == tuple(n for n in positive if n not in sums)


def test_gcd_refused():
    with pytest.raises(ValueError, match="gcd"):
        NumericalSemigroup.from_generators((4, 6))
    with pytest.raises(ValueError, match="needs a positive generator"):
        NumericalSemigroup.from_generators([])


def test_full_semigroup():
    S = NumericalSemigroup.from_generators((1,))
    assert S.genus == 0 and S.gaps == () and S.frobenius == -1
    assert S.l(5) == 6


def test_from_ring(ex26, ex36):
    assert semigroup_from_ring(ex26).generators == (2, 7)
    assert semigroup_from_ring(ex36).generators == (2, 5)
    from ffzeta.ring import RingSpec
    from ffzeta.gf import GF
    assert semigroup_from_ring(RingSpec.polyring(GF(3))).genus == 0


# -- l values and the gap criterion -----------------------------------------

def test_l_values(S27):
    assert [S27.l(n) for n in range(10)] == [1, 1, 2, 2, 3, 3, 4, 5, 6, 7]


def test_gap_criterion(quintic):
    for n in range(1, 2 * quintic.genus + 2):
        is_gap = quintic.l(n - 1) == quintic.l(n)
        assert is_gap == (n in quintic.gaps) == (n not in quintic)


def test_l_against_ring_dims(h4g3):
    S = semigroup_from_ring(h4g3)
    for d in range(12):
        assert S.l(d - 1) == h4g3.dim_W(d)


# -- r-gap structures -------------------------------------------------------

def test_rgap_27(S27):
    assert r_gap_values(S27, 2) == (2, 3)
    assert S27.genus == 3


def test_rgap_genus_zero_literal():
    S = NumericalSemigroup.from_generators((1,))
    assert r_gap_values(S, 2) == ()


def test_rgap_quintic(quintic):
    assert 2 in r_gap_values(quintic, 3)
    assert quintic.l(3) == 2
    assert quintic.l(6) == 3
    assert quintic.l(8) == 3


def test_degree_q_examples(S27, quintic):
    rep = degree_q_theorem_check(S27, 2, 3)
    assert rep.applicable and rep.passed
    assert rep.elements == (2, 4, 6)
    rep = degree_q_theorem_check(quintic, 3, 2)
    assert rep.applicable and rep.passed
    assert rep.elements == (3, 6)
    assert not degree_q_theorem_check(S27, 2, 1).applicable


def test_theorem_r_values_drop_r_below_q_minus_one():
    # <3,7,8> has a 1- and a 2-gap structure at q = 3; the theorems take 2
    S = NumericalSemigroup.from_generators((3, 7, 8))
    assert r_gap_values(S, 3) == (1, 2)
    assert theorem_r_values(S, 3) == (2,)
    rep = degree_q_theorem_check(S, 3, 1)
    assert not rep.applicable and rep.reason == "r = 1 < q - 1 = 2"
    assert degree_q_theorem_check(S, 3, 2).applicable
    # at q = 2 every valid r qualifies
    for g in range(7):
        for T in enumerate_semigroups(g):
            assert theorem_r_values(T, 2) == r_gap_values(T, 2)


# -- genus-5 story ----------------------------------------------------------

def test_genus5_no_1gap_for_q3():
    for S in enumerate_semigroups(5):
        assert 1 not in r_gap_values(S, 3)


def test_genus5_2gap_unique_for_q3():
    hits = [S for S in enumerate_semigroups(5) if 2 in r_gap_values(S, 3)]
    assert len(hits) == 1
    assert hits[0].gaps == (1, 2, 4, 5, 7)


# -- enumeration ------------------------------------------------------------

def test_census():
    assert [len(enumerate_semigroups(g)) for g in range(9)] == [
        1, 1, 2, 4, 7, 12, 23, 39, 67]


def test_enumeration_invariants():
    for g in range(GENUS_CAP + 1):
        seen = set()
        for S in enumerate_semigroups(g):
            assert S.genus == g
            assert len(S.gaps) == g
            assert S.frobenius <= 2 * g - 1
            assert S.gaps not in seen
            seen.add(S.gaps)
            # both public constructors give back the same semigroup
            assert NumericalSemigroup.from_gaps(S.gaps) == S
            T = NumericalSemigroup.from_generators(S.generators)
            assert T == S and T.generators == S.generators


def test_enumeration_matches_subset_filter():
    # independent oracle: brute force over candidate gap subsets of [1, 2g-1]
    from itertools import combinations
    g = 5
    brute = set()
    universe = range(1, 2 * g)
    for gaps in combinations(universe, g):
        try:
            S = NumericalSemigroup.from_gaps(gaps)
        except ValueError:
            continue
        brute.add(S.gaps)
    assert brute == {S.gaps for S in enumerate_semigroups(g)}


def test_cap_refused():
    with pytest.raises(BudgetError,
                       match="^genus 13 exceeds the enumeration cap 12$"):
        enumerate_semigroups(13)


def test_l_step_property():
    for S in enumerate_semigroups(4):
        for n in range(1, 2 * S.genus + 3):
            step = S.l(n) - S.l(n - 1)
            assert step in (0, 1)
            assert (step == 0) == (n in S.gaps)
