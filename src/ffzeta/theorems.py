"""Hypothesis checkers: each theorem becomes a report listing its conditions
in order, the certified constants (r, mu), the predicted vanishing order,
and the machine-computed order when every slice of the zeta is in budget.

A check runs its conditions, which stop at the first failure (applicable
means every one was evaluated and passed), then the order step, which
computes the zeta unless it is over budget.  Orders are predicted per
theorem wording: exact for the principal-ideal theorems, lower bounds for
the all-ideals ones, whose conditions fix mu without s before the digit
condition, and whose order step attaches the exact-factorization remark on
the same zeta.  `THEOREMS` is the one list of theorem names.

One deliberate deviation: the all-ideals theorems ask for each class-power
generator f_k to be an irreducible polynomial dividing b(x), but a class
whose representatives all have reducible power generators can still carry
the argument if f_k is squarefree (the congruence f_k | g_0^{e_k} => f_k | g_0
only needs distinct prime factors).  The binding check is therefore
squarefree-and-divides; irreducibility is recorded per class as a witness.

At q >= 3 the tesismc chain cannot pass: a ring it recognises has the
semigroup <q, N>, gcd(q, N) = 1, of genus g = (q-1)(N-1)/2 >= N-1, so for r
with rq <= g+r the elements 0, q, .., rq and N lie in [0, g+r] and
l(g+r) >= r+2.  No r is valid; at q = 2 the valid r are g-1 and g (the
hyperelliptic r-gap proposition, which the tests check).  There a chain
that reaches its digit condition has e <= 2: each nontrivial class I_k
passed "each f_k squarefree and divides b(x)", so f_k lies in F_2[x] and
the hyperelliptic involution sigma gives sigma(I_k)^{e_k} = (f_k) =
I_k^{e_k}; ideals of the Dedekind ring A factor uniquely, so
sigma(I_k) = I_k and I_k^2 = I_k sigma(I_k) = (N I_k) is principal.  At
s = q - 1 = 1 then l_2(es) = 1 <= mu: search tests that one s.
"""

from __future__ import annotations

import functools
from contextlib import suppress
from dataclasses import dataclass
from math import prod

from ffzeta.errors import BudgetError, NonMaximalRingError
from ffzeta.gf import (Poly, is_irreducible, is_squarefree, poly_factor,
                       poly_to_str, valuation_profile)
from ffzeta.ideal_zeta import (ideal_zeta_classwise, matches_base_substituted,
                               remark_exact_check)
from ffzeta.ideals import class_group
from ffzeta.semigroup import (r_gap_values, semigroup_from_ring,
                               theorem_r_values)
from ffzeta.zeta import (digit_sum, require_positive_exponent,
                         vanishing_threshold, zeta_neg)


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
        return None if self.applicable else self.checks[-1]


class _ChainStop(Exception):
    """A hypothesis of a chain failed; the chain ends there."""


def _need(checks, name, passed, witness):
    """Record one hypothesis in checks; a failure ends the chain, so an
    applicable chain is one whose last check passed."""
    checks.append(CheckItem(name, passed, witness))
    if not passed:
        raise _ChainStop


def _report(theorem, checks, predicted, **fields):
    """The report of a chain, applicable if its last check passed."""
    applicable = checks[-1].passed
    return HypothesisReport(theorem, tuple(checks), applicable,
                            predicted if applicable else None, **fields)


def _order(report, zeta, *args):
    """zeta(*args), its order at X = 1 set on report; None over budget."""
    try:
        z = zeta(*args)
    except BudgetError:
        return None
    report.computed = z.ord_at_one()
    return z


def check_hiper(spec, s):
    """q = 2, hyperelliptic, l_2(s) <= g: order of vanishing exactly 2."""
    spec.require_valid()
    require_positive_exponent(s)
    q = spec.field.q
    S = semigroup_from_ring(spec)
    l2 = digit_sum(s, 2)
    checks = []
    need = functools.partial(_need, checks)
    with suppress(_ChainStop):
        need("q = 2", q == 2, {"q": q})
        need("hyperelliptic form (m = 2)", spec.m == 2, {"m": spec.m})
        need("l_2(s) <= g", l2 <= S.genus, {"l_2(s)": l2, "g": S.genus})
    report = _report("hiper", checks, ("exact", 2), exponent=s)
    _order(report, zeta_neg, s, spec)
    return report


def check_dinesh(spec, s):
    """r-gap structure with r >= q-1 and l_q(s)/(q-1) <= r: order exactly q;
    with m = q, also zeta_A(-s, X) = zeta_{F_q[x]}(-s, X^q) on the same zeta."""
    spec.require_valid()
    require_positive_exponent(s)
    q = spec.field.q
    report = _dinesh_checks(semigroup_from_ring(spec), q, s)
    z = _order(report, zeta_neg, s, spec)
    if z is not None and report.applicable and spec.m == q:
        # its F_q[x] zeta's largest slice equals z's, so it is within budget
        report.identity = matches_base_substituted(z, (spec.one(),))
    return report


def _dinesh_checks(S, q, s):
    checks = []
    need = functools.partial(_need, checks)
    with suppress(_ChainStop):
        need("(q-1) | s", s % (q - 1) == 0, {"q": q, "s": s})
        good = theorem_r_values(S, q)
        need("r-gap structure with r >= q-1", bool(good),
             {"valid_r": list(r_gap_values(S, q)), "required": q - 1})
        ratio = vanishing_threshold(s, q)
        need("l_q(s)/(q-1) <= r", ratio <= max(good),
             {"ratio": str(ratio), "r": max(good)})
    return _report("dinesh", checks, ("exact", q), exponent=s)


def _recover_artin_schreier(spec):
    """(a, b) with the ring equation y^q - a^{q-1} y = b, or (None, reason)."""
    q = spec.field.q
    if spec.form != "cab" or spec.m != q:
        return None, f"form is not degree-{q} Artin-Schreier (m = {spec.m})"
    c = spec.coeffs
    if any(not c[j].is_zero for j in range(2, q)):
        return None, "middle coefficients nonzero"
    b, neg_c1 = -c[0], -c[1]
    if neg_c1.is_zero:
        return None, "no y term: a = 0"
    if neg_c1.lc != 1:
        return None, "-c_1 is not monic, so not a (q-1)-th power"
    _, factors = poly_factor(neg_c1)
    if any(mult % (q - 1) for _, mult in factors):
        return None, "-c_1 has a factor multiplicity not divisible by q-1"
    a = prod((f ** (mult // (q - 1)) for f, mult in factors),
             start=Poly.one(spec.field))
    return (a, b), None


def _tesismc_form(spec, need):
    """The tesismc conditions on the equation; returns (b, the cap on mu)."""
    q, p, N = spec.field.q, spec.field.p, spec.N
    ab, reason = _recover_artin_schreier(spec)
    need("form y^q - a^{q-1} y = b", ab is not None,
         {"reason": reason} if reason else
         {"a": poly_to_str(ab[0]), "b": poly_to_str(ab[1])})
    a, b = ab
    need("gcd(N, p) = 1", N % p != 0 or N == 1, {"N": N, "p": p})
    need("N > q deg a", N > q * a.degree, {"N": N, "q deg a": q * a.degree})
    profile = valuation_profile(b, a ** q)
    bad = [(poly_to_str(f), n) for f, n in profile
           if n < 0 and abs(n) % p == 0]
    need("negative exponents of u = b/a^q coprime to p", not bad,
         {"profile": [(poly_to_str(f), n) for f, n in profile],
          "violations": bad})
    S = semigroup_from_ring(spec)
    good_r = theorem_r_values(S, q)
    need("r-gap structure with r >= q-1", bool(good_r),
         {"valid_r": list(r_gap_values(S, q))})
    return b, max(good_r)


def _generalization_form(spec, need):
    """The q = 2 conditions on the equation; mu is capped by the genus since
    the principal part relies on the q = 2 hyperelliptic theorem."""
    q, N = spec.field.q, spec.N
    need("q = 2", q == 2, {"q": q})
    ok = spec.m == 2 and N % 2 == 1
    if ok:
        b, h = spec.hyperelliptic()    # y^2 - a y = b with a = -h
        a = -h
        ok = not a.is_zero
    need("form y^2 - a y = b, N odd", ok,
         {"a": poly_to_str(a), "b": poly_to_str(b)}
         if ok else {"m": spec.m, "N": N})
    return b, semigroup_from_ring(spec).genus


def tesismc_conditions(spec, s, class_report):
    """(report, class report or None) of the tesismc conditions at s, with
    no order.  `class_report()` is called only once the equation
    conditions hold, so a caller sets the class group's budget."""
    return _all_ideals_conditions("tesismc", _tesismc_form, spec, s,
                                  class_report, divisible=True)


def check_tesismc(spec, s):
    """Full all-ideals chain for y^q - a^{q-1}y = b: order at least q."""
    return _all_ideals_order(*tesismc_conditions(
        spec, s, functools.partial(class_group, spec)))


def check_generalization(spec, s):
    """The q = 2 all-ideals theorem for y^2 - a y = b: order at least 2.
    The chain of check_tesismc without the conditions the q = 2 statement
    does not impose: r-gap structure, u = b / a^q and (q-1) | s."""
    return _all_ideals_order(*_all_ideals_conditions(
        "generalization", _generalization_form, spec, s,
        functools.partial(class_group, spec)))


def _all_ideals_conditions(theorem, form, spec, s, class_report, *,
                           divisible=False):
    """form(spec, need), `class_report()`, the class conditions and mu,
    (q-1) | s when `divisible`, then the digit condition, which decides
    applicability and, passed or failed, sets mu and the exponent es."""
    spec.require_valid()
    require_positive_exponent(s)
    q, N = spec.field.q, spec.N
    checks = []
    need = functools.partial(_need, checks)
    cg, fields = None, {}
    with suppress(_ChainStop):
        b, cap = form(spec, need)
        try:
            cg = class_report()
        except (BudgetError, NonMaximalRingError) as err:
            need("class group computed", False, {"error": str(err)})
        need("class group computed", True, {"h": cg.h, "e": cg.e})

        nontrivial = cg.nontrivial()
        witness = []
        for k, cls in enumerate(nontrivial, start=1):
            fp = cls.generator.poly_part()
            witness.append(
                {"k": k, "f_k": None, "note": "generator not in F_q[x]"}
                if fp is None else
                {"k": k, "f_k": poly_to_str(fp), "squarefree": is_squarefree(fp),
                 "divides_b": (b % fp).is_zero, "irreducible": is_irreducible(fp)})
        need("each f_k squarefree and divides b(x)",
             all(w.get("squarefree") and w.get("divides_b") for w in witness),
             witness)

        mu_parts = [(N - cls.order * cls.degree - 1) // q for cls in nontrivial]
        mu = min([cap] + mu_parts)
        need("mu >= 1", mu >= 1, {"mu": mu, "cap": cap, "per_class": mu_parts})
        if divisible:
            need("(q-1) | s", s % (q - 1) == 0, {"s": s})
        es = cg.e * s
        ratio = vanishing_threshold(es, q)
        fields = {"mu": mu, "exponent": es}
        need("l_q(es)/(q-1) <= mu", ratio <= mu,
             {"es": es, "ratio": str(ratio)})
    return _report(theorem, checks, ("at_least", q), **fields), cg


def _all_ideals_order(report, class_report):
    """The order step of an applicable chain: one classwise zeta gives the
    order and the remark, whose F_q[x] zeta is then within budget too."""
    if report.applicable:
        zc = _order(report, ideal_zeta_classwise, report.exponent, class_report)
        if zc is not None:
            report.remark = remark_exact_check(zc, class_report)
    return report


# the one list of theorem names; a check is looked up per call, so a wrapper
# rebound over one (a profiler's, say) sees the calls made through the table
THEOREMS = {
    "hiper": lambda spec, s: check_hiper(spec, s),
    "dinesh": lambda spec, s: check_dinesh(spec, s),
    "generalization": lambda spec, s: check_generalization(spec, s),
    "tesismc": lambda spec, s: check_tesismc(spec, s),
}
