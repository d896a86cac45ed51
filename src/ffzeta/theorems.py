"""Hypothesis checkers: each theorem becomes a report listing its conditions
in order, the certified constants (r, mu), the predicted vanishing order,
and the machine-computed order when the zeta is in budget.

The chain stops at the first failing condition; applicable means every
condition was evaluated and passed.  Orders are predicted per theorem
wording: exact for the principal-ideal theorems, lower bounds for the
all-ideals ones.  An applicable all-ideals chain computes its classwise
zeta once and attaches the exact-factorization remark checked on that value.

One deliberate deviation: the all-ideals theorems ask for each class-power
generator f_k to be an irreducible polynomial dividing b(x), but a class
whose representatives all have reducible power generators can still carry
the argument if f_k is squarefree (the congruence f_k | g_0^{e_k} => f_k | g_0
only needs distinct prime factors).  The binding check is therefore
squarefree-and-divides; irreducibility is recorded per class as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ffzeta.errors import BudgetError, NonMaximalRingError
from ffzeta.gf import (Poly, is_irreducible, is_squarefree, poly_factor,
                       poly_to_str, valuation_profile)
from ffzeta.ideal_zeta import (ideal_zeta_classwise, matches_base_substituted,
                               remark_exact_check)
from ffzeta.ideals import class_group, DEFAULT_IDEAL_BUDGET
from ffzeta.semigroup import (NumericalSemigroup, r_gap_values,
                              semigroup_from_ring)
from ffzeta.zeta import (DEFAULT_BUDGET, digit_sum, vanishing_threshold,
                         zeta_neg)


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: object = None


@dataclass
class HypothesisReport:
    theorem: str
    checks: tuple
    applicable: bool
    predicted: object = None    # ("exact", k) or ("at_least", k)
    computed: object = None     # measured order, when in budget
    mu: object = None
    exponent: object = None     # the s with zeta(-s, X) under discussion
    identity: object = None     # structural-identity verdict, when checked
    remark: object = None       # attached exact-factorization verdict

    def failed_check(self):
        for c in self.checks:
            if not c.passed:
                return c
        return None


def _ord_principal(spec, s, budget):
    try:
        return zeta_neg(s, spec, budget=budget).ord_at_one()
    except BudgetError:
        return None


def check_hiper(spec, s, *, budget=DEFAULT_BUDGET):
    """q = 2, hyperelliptic, l_2(s) <= g: order of vanishing exactly 2."""
    spec.require_valid()
    q = spec.field.q
    S = semigroup_from_ring(spec)
    l2 = digit_sum(s, 2)
    checks = (
        CheckItem("q = 2", q == 2, {"q": q}),
        CheckItem("hyperelliptic form (m = 2)", spec.m == 2, {"m": spec.m}),
        CheckItem("l_2(s) <= g", l2 <= S.genus, {"l_2(s)": l2, "g": S.genus}),
    )
    applicable = all(c.passed for c in checks)
    return HypothesisReport(
        theorem="hiper", checks=checks, applicable=applicable,
        predicted=("exact", 2) if applicable else None,
        computed=_ord_principal(spec, s, budget), exponent=s)


def check_dinesh(spec, s, *, budget=DEFAULT_BUDGET):
    """r-gap structure with r >= q-1 and l_q(s)/(q-1) <= r: order exactly q;
    with m = q, also zeta_A(-s, X) = zeta_{F_q[x]}(-s, X^q) on the same zeta."""
    spec.require_valid()
    q = spec.field.q
    report = _dinesh_checks(semigroup_from_ring(spec), q, s)
    try:
        z = zeta_neg(s, spec, budget=budget)
    except BudgetError:
        return report
    report.computed = z.ord_at_one()
    if report.applicable and spec.m == q:
        try:
            report.identity = matches_base_substituted(z, (spec.one(),), budget=budget)
        except BudgetError:
            pass
    return report


def _dinesh_checks(S, q, s):
    rr = r_gap_values(S, q)
    good = [r for r in rr.valid_r if r >= q - 1]
    ratio = vanishing_threshold(s, q)
    checks = (
        CheckItem("(q-1) | s", s % (q - 1) == 0, {"q": q, "s": s}),
        CheckItem("r-gap structure with r >= q-1", bool(good),
                  {"valid_r": list(rr.valid_r), "required": q - 1}),
        CheckItem("l_q(s)/(q-1) <= r", bool(good) and ratio <= max(good),
                  {"ratio": str(ratio), "r": max(good) if good else None}),
    )
    applicable = all(c.passed for c in checks)
    return HypothesisReport(
        theorem="dinesh", checks=checks, applicable=applicable,
        predicted=("exact", q) if applicable else None, exponent=s)


def _recover_artin_schreier(spec):
    """(a, b) with the ring equation y^q - a^{q-1} y = b, or (None, reason)."""
    q = spec.field.q
    if spec.form != "cab" or spec.m != q:
        return None, f"form is not degree-{q} Artin-Schreier (m = {spec.m})"
    c = spec.coeffs
    if any(not c[j].is_zero for j in range(2, q)):
        return None, "middle coefficients nonzero"
    b = -c[0]
    neg_c1 = -c[1]
    if neg_c1.is_zero:
        return None, "no y term: a = 0"
    if q == 2:
        return (neg_c1, b), None
    if neg_c1.lc != 1:
        return None, "-c_1 is not monic, so not a (q-1)-th power"
    unit, factors = poly_factor(neg_c1)
    if any(mult % (q - 1) for _, mult in factors):
        return None, "-c_1 has a factor multiplicity not divisible by q-1"
    a = Poly.one(spec.field)
    for f, mult in factors:
        a = a * f ** (mult // (q - 1))
    return (a, b), None


def check_tesismc(spec, s, class_report=None, *, mu=None,
                  budget=DEFAULT_IDEAL_BUDGET):
    """Full all-ideals chain for y^q - a^{q-1}y = b: order at least q."""
    spec.require_valid()
    return _all_ideals_chain(spec, s, class_report, theorem="tesismc",
                             q_required=None, mu_override=mu, budget=budget)


def check_generalization(spec, s, class_report=None, *, mu=None,
                         budget=DEFAULT_IDEAL_BUDGET):
    """The q = 2 all-ideals theorem for y^2 - a y = b: order at least 2.

    Same chain as check_tesismc minus the ramification conditions the q = 2
    statement does not impose (no r-gap requirement, no condition on
    u = b / a^q); mu is capped by the genus since the principal part relies
    on the q = 2 hyperelliptic theorem.
    """
    spec.require_valid()
    return _all_ideals_chain(spec, s, class_report, theorem="generalization",
                             q_required=2, mu_override=mu, budget=budget)


def _all_ideals_chain(spec, s, class_report, *, theorem, q_required,
                      mu_override, budget):
    q = spec.field.q
    p = spec.field.p
    N = spec.N
    checks = []
    full = theorem == "tesismc"

    def fail():
        return HypothesisReport(theorem=theorem, checks=tuple(checks),
                                applicable=False, exponent=None)

    if q_required is not None:
        checks.append(CheckItem(f"q = {q_required}", q == q_required, {"q": q}))
        if q != q_required:
            return fail()

    if full:
        ab, reason = _recover_artin_schreier(spec)
        checks.append(CheckItem("form y^q - a^{q-1} y = b", ab is not None,
                                {"reason": reason} if reason else
                                {"a": poly_to_str(ab[0]), "b": poly_to_str(ab[1])}))
        if ab is None:
            return fail()
        a, b = ab
    else:
        ok = spec.m == 2 and N % 2 == 1
        a = b = None
        if ok:
            r0, r1 = spec.mul_table()[1][1]    # b_1^2 = r0 + r1 b_1
            a, b = r1, r0
            ok = not a.is_zero
        checks.append(CheckItem("form y^2 - a y = b, N odd", ok,
                                {"a": poly_to_str(a), "b": poly_to_str(b)}
                                if ok else {"m": spec.m, "N": N}))
        if not ok:
            return fail()

    if full:
        checks.append(CheckItem("gcd(N, p) = 1", N % p != 0 or N == 1,
                                {"N": N, "p": p}))
        if not checks[-1].passed:
            return fail()
        da = a.degree
        checks.append(CheckItem("N > q deg a", N > q * da,
                                {"N": N, "q deg a": q * da}))
        if not checks[-1].passed:
            return fail()
        profile = valuation_profile(b, a ** q)
        bad = [(poly_to_str(f), n) for f, n in profile if n < 0 and abs(n) % p == 0]
        checks.append(CheckItem("negative exponents of u = b/a^q coprime to p",
                                not bad,
                                {"profile": [(poly_to_str(f), n) for f, n in profile],
                                 "violations": bad}))
        if bad:
            return fail()

    S = semigroup_from_ring(spec)
    rr = r_gap_values(S, q)
    good_r = [r for r in rr.valid_r if r >= q - 1]
    if full:
        checks.append(CheckItem("r-gap structure with r >= q-1", bool(good_r),
                                {"valid_r": list(rr.valid_r)}))
        if not good_r:
            return fail()

    if class_report is None:
        try:
            class_report = class_group(spec, budget=budget)
        except (BudgetError, NonMaximalRingError) as err:
            checks.append(CheckItem("class group computed", False,
                                    {"error": str(err)}))
            return fail()
    checks.append(CheckItem("class group computed", True,
                            {"h": class_report.h, "e": class_report.e}))

    nontrivial = [c for c in class_report.classes if c.order > 1]
    witness = []
    all_ok = True
    for k, cls in enumerate(nontrivial, start=1):
        fp = cls.generator.poly_part()
        if fp is None:
            witness.append({"k": k, "f_k": None, "note": "generator not in F_q[x]"})
            all_ok = False
            continue
        sqf = is_squarefree(fp)
        div = (b % fp).is_zero
        witness.append({"k": k, "f_k": poly_to_str(fp), "squarefree": sqf,
                        "divides_b": div, "irreducible": is_irreducible(fp)})
        all_ok = all_ok and sqf and div
    checks.append(CheckItem("each f_k squarefree and divides b(x)", all_ok,
                            witness))
    if not all_ok:
        return fail()

    mu_parts = [(N - cls.order * cls.degree - 1) // q for cls in nontrivial]
    cap = max(good_r) if full else S.genus
    if mu_override is not None:
        mu_eff = mu_override
        consistent = all(N > q * mu_eff + cls.order * cls.degree
                         for cls in nontrivial)
        checks.append(CheckItem("mu override satisfies N > q mu + e_k d_k",
                                consistent, {"mu": mu_eff}))
        if not consistent:
            return fail()
    else:
        mu_eff = min([cap] + mu_parts)
    checks.append(CheckItem("mu >= 1", mu_eff >= 1,
                            {"mu": mu_eff, "cap": cap,
                             "per_class": mu_parts}))
    if mu_eff < 1:
        return fail()

    if full:
        checks.append(CheckItem("(q-1) | s", s % (q - 1) == 0, {"s": s}))
        if not checks[-1].passed:
            return fail()

    es = class_report.e * s
    ratio = vanishing_threshold(es, q)
    checks.append(CheckItem("l_q(es)/(q-1) <= mu", ratio <= mu_eff,
                            {"es": es, "ratio": str(ratio)}))
    applicable = checks[-1].passed

    report = HypothesisReport(
        theorem=theorem, checks=tuple(checks), applicable=applicable,
        predicted=("at_least", q) if applicable else None,
        mu=mu_eff, exponent=es)
    if applicable:
        # one classwise zeta gives the order and feeds the remark; if either
        # zeta is over its budget, both stay None
        try:
            zc = ideal_zeta_classwise(es, class_report, spec, budget=budget)
            remark = remark_exact_check(zc, class_report, budget=budget)
        except BudgetError:
            return report
        report.computed = zc.ord_at_one()
        report.remark = remark
    return report


@dataclass(frozen=True)
class PropositionReport:
    entries: tuple    # (N, genus, valid_r, ok)
    all_ok: bool


def check_hyperelliptic_rgap_proposition(n_values=None):
    """q = 2 hyperelliptic semigroups <2, N>: every valid r is g-1 or g."""
    if n_values is None:
        n_values = range(3, 22, 2)
    entries = []
    for N in n_values:
        if N % 2 == 0 or N < 3:
            raise ValueError(f"N = {N}: need odd N >= 3")
        S = NumericalSemigroup.from_generators((2, N))
        rr = r_gap_values(S, 2)
        ok = set(rr.valid_r) <= {S.genus - 1, S.genus}
        entries.append((N, S.genus, tuple(rr.valid_r), ok))
    return PropositionReport(entries=tuple(entries),
                             all_ok=all(e[3] for e in entries))
