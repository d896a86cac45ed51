"""End-to-end acceptance checks.

One test per criterion, each guarding its own wall-clock budget, so a
verbose pytest run prints exactly one pass/fail line per criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ffzeta.cli import dispatch
from ffzeta.gf import GF, Poly, poly_from_str
from ffzeta.ideal_zeta import (
    ideal_zeta_classwise, ideal_zeta_direct, remark_exact_check,
)
from ffzeta.ideals import class_group
from ffzeta.ring import RingSpec
from ffzeta.ringfile import parse_ring_spec
from ffzeta.search import (
    candidate_key, merge_summaries, search_partition, search_run, SearchSpace,
)
from ffzeta.semigroup import (
    degree_q_theorem_check, enumerate_semigroups, NumericalSemigroup,
    r_gap_values,
)
from ffzeta.theorems import (
    check_generalization, check_hiper, check_hyperelliptic_rgap_proposition,
)
from ffzeta.zeta import affine_power_sum, digit_sum, zeta_neg

F2, F3, F4 = GF(2), GF(3), GF(2, 2)


@contextmanager
def wall_budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"runtime {elapsed:.2f}s over the {seconds}s budget"


def poly_of(c):
    """Coefficients of zeta polynomials as plain F_q[x] polynomials."""
    if isinstance(c, Poly):
        return c
    p = c.poly_part()
    assert p is not None, f"coefficient {c} is not in F_q[x]"
    return p


def padded(polys, length, field):
    out = list(polys) + [Poly.zero(field)] * (length - len(polys))
    return out


def test_criterion_1_ex36_reproduction():
    with wall_budget(1):
        res = dispatch(["zeta", "--ring", "ex36.ring", "-s", "2"])
        assert res.exit_code == 0
        assert "zeta(-2, X) = 1 + 2*X^2" in res.text
        assert "ord at X = 1: 1" in res.text
        # 1 + 2X^2 = (1 + X)(1 - X) over F_3
        prod = [1, (1 + 2) % 3, 2 % 3]
        assert [str(c) for c in prod] == res.data["coeffs"]


def test_criterion_2_hiper_on_ex26():
    with wall_budget(30):
        ex26 = parse_ring_spec("ex26.ring")
        base_ring = RingSpec.polyring(F2)
        checked = 0
        for s in range(1, 32):
            if digit_sum(s, 2) > 3:
                continue
            checked += 1
            z = zeta_neg(s, ex26)
            assert z.ord_at_one() == 2, f"s = {s}: ord {z.ord_at_one()} != 2"
            rep = check_hiper(ex26, s)
            assert rep.applicable and rep.predicted == ("exact", 2)
            # dinesh identity: zeta_A(-s, X) = zeta_{F_2[x]}(-s, X^2)
            zb = zeta_neg(s, base_ring)
            a = [poly_of(c) for c in z.coeffs]
            b = [poly_of(c) for c in zb.coeffs]
            n = max(len(a), 2 * len(b) - 1)
            a = padded(a, n, F2)
            for k in range(n):
                want = b[k // 2] if (k % 2 == 0 and k // 2 < len(b)) \
                    else Poly.zero(F2)
                assert a[k] == want, f"s = {s}, X^{k} coefficient differs"
        assert checked == 25


def test_criterion_3_trivial_zero_law():
    with wall_budget(60):
        for field in (F2, F3, F4):
            q = field.q
            ring = RingSpec.polyring(field)
            for s in range(1, 101):
                z = zeta_neg(s, ring)
                vanishes = z.value_at_one.is_zero
                assert vanishes == ((s % (q - 1) == 0) if q > 2 else True), \
                    f"q = {q}, s = {s}"
                if q == 2 and vanishes:
                    assert z.ord_at_one() == 1, f"q = 2, s = {s}"


def test_criterion_4_power_sum_vanishing():
    with wall_budget(30):
        rng = random.Random(20260823)
        rings = {f.q: RingSpec.polyring(f) for f in (F2, F3, F4)}
        fields = [F2, F3, F4]
        for i in range(500):
            field = fields[i % 3]
            ring = rings[field.q]
            k = rng.randrange(1, 32)
            tau = Fraction(digit_sum(k, field.q), field.q - 1)
            dim = int(tau) + 1          # smallest dimension forcing zero
            degrees = sorted(rng.sample(range(dim + 2), dim))
            basis = []
            for d in degrees:
                cs = [rng.randrange(field.q) for _ in range(d)] + [1]
                basis.append(ring.elem_from_poly(Poly(field, cs)))
            f = ring.elem_from_poly(Poly(field, [0] * (degrees[-1] + 1) + [1]))
            total = affine_power_sum(f, basis, k)
            assert total.is_zero, f"instance {i}: q={field.q}, k={k}, dim={dim}"
        # sharpness witness: dim 2 equals l_2(3)/(2-1), sum is x^2 + x
        ring = rings[2]
        basis = [ring.one(), ring.x()]
        w = affine_power_sum(ring.elem_from_str("x^2"), basis, 3)
        assert poly_of(w) == poly_from_str(F2, "x^2 + x")


def test_criterion_5_gap_machinery():
    with wall_budget(60):
        assert NumericalSemigroup.from_generators((2, 7)).gaps == (1, 3, 5)

        quintic = NumericalSemigroup.from_gaps((1, 2, 4, 5, 7, 8))
        rep = r_gap_values(quintic, 3)
        assert 2 in rep.valid_r
        assert quintic.l(3) == 2
        assert quintic.l(6) == 3 and quintic.l(8) == 3

        genus5 = enumerate_semigroups(5)
        assert len(genus5) == 12
        assert all(1 not in r_gap_values(S, 3).valid_r for S in genus5)
        two_gap = [S for S in genus5 if 2 in r_gap_values(S, 3).valid_r]
        assert len(two_gap) == 1
        assert two_gap[0].gaps == (1, 2, 4, 5, 7)

        applicable = 0
        for genus in range(9):
            for S in enumerate_semigroups(genus):
                for q in (2, 3, 4):
                    for r in r_gap_values(S, q).valid_r:
                        if r < q - 1:
                            continue
                        chk = degree_q_theorem_check(S, q, r)
                        assert chk.applicable and chk.passed, (S.gaps, q, r)
                        applicable += 1
        assert applicable >= 20      # the structure is rare but not empty


def test_criterion_6_hyperelliptic_proposition():
    with wall_budget(5):
        rep = check_hyperelliptic_rgap_proposition()
        assert rep.all_ok
        ns = [n for n, _, _, _ in rep.entries]
        assert ns == list(range(3, 22, 2))
        for n, g, valid_r, ok in rep.entries:
            assert ok and set(valid_r) <= {g - 1, g}


def test_criterion_7_class_group_with_oracle():
    with wall_budget(120):
        h4g3 = parse_ring_spec("h4g3.ring")
        cg = class_group(h4g3)
        assert cg.h == 4
        assert sum(cg.lpoly) == 4            # P(1) from ideal counts
        assert len(cg.classes) == cg.h
        g, q = cg.genus, h4g3.q
        for i in range(g + 1):
            assert cg.lpoly[2 * g - i] == q ** (g - i) * cg.lpoly[i]
        # degree-1 ideals against direct point counting of y^m + sum c_j y^j
        field = h4g3.field
        points = 0
        for x0 in range(field.q):
            vals = [c.eval(x0) for c in h4g3.coeffs] + [1]
            fy = Poly(field, vals)
            points += sum(1 for y0 in range(field.q) if fy.eval(y0) == 0)
        assert points == cg.counts[1]


def test_criterion_8_all_ideals_zeta():
    with wall_budget(300):
        h4g3 = parse_ring_spec("h4g3.ring")
        base_ring = RingSpec.polyring(F2)
        cg = class_group(h4g3)
        for s in (1, 2, 4):
            hyp = check_generalization(h4g3, s, cg)
            assert hyp.applicable and hyp.mu == 1
            es = hyp.exponent
            assert es == cg.e * s and digit_sum(es, 2) <= hyp.mu
            assert hyp.computed >= 2

            zc = ideal_zeta_classwise(es, cg, h4g3)
            assert zc.ord_at_one() >= 2
            zd = ideal_zeta_direct(es, zc.d_max, h4g3, report=cg)
            assert zc.coeffs == zd.coeffs    # every computed coefficient

            rem = remark_exact_check(es, cg, h4g3, hypothesis_report=hyp)
            assert rem.applicable and rem.identity_holds
            # re-expand zeta_{F_2[x]}(-es, X^2) * U independently
            zb = [poly_of(c) for c in zeta_neg(es, base_ring).coeffs]
            u = [poly_of(c) for c in rem.u_coeffs]
            n = zc.d_max + 1
            prod = [Poly.zero(F2) for _ in range(n)]
            for i, bi in enumerate(zb):
                for j, uj in enumerate(u):
                    if 2 * i + j < n:
                        prod[2 * i + j] = prod[2 * i + j] + bi * uj
            have = padded([poly_of(c) for c in zc.coeffs], n, F2)
            assert prod == have


def test_criterion_9_search_determinism(tmp_path):
    with wall_budget(300):
        space = SearchSpace(F2, fixed_a=poly_from_str(F2, "x^2 + x"),
                            deg_b=(7, 7), b_multiple_of_a=True)
        key = candidate_key(poly_from_str(F2, "x^2 + x"),
                            poly_from_str(F2, "x^7 + x^6 + x^5 + x"))
        records, summary = search_run(space)
        assert key in summary.passing

        records2, summary2 = search_run(space)
        assert summary2 == summary
        assert [(r.index, r.coeffs, r.stage, r.verdict) for r in records] == \
               [(r.index, r.coeffs, r.stage, r.verdict) for r in records2]

        merged = merge_summaries(
            [search_run(p)[1] for p in search_partition(space, 4)])
        assert merged == summary

        ckpt = tmp_path / "acceptance.ckpt"
        import dataclasses
        search_run(dataclasses.replace(space, stop=16), checkpoint=str(ckpt))
        resumed, resumed_summary = search_run(space, checkpoint=str(ckpt))
        assert resumed_summary == summary
        assert sum(r.resumed for r in resumed) == 16
        assert key in resumed_summary.passing
