"""Zeta polynomial over all ideals, not only the principal ones.

For t a multiple of the class-group exponent e, the value of an ideal is
I^t := a^(t/e) with a the monic generator of I^e, and

    zeta(-t, X) = sum_d X^d sum_{deg I = d} I^t.

Two computations are provided, and the tests check that they agree.  Both
return a `zeta.ZetaPolynomial`, the value type of the element zeta.  The
direct path enumerates all ideals per degree up to the largest class
cutoff.  The classwise path splits the sum by ideal class, and treats every
class the same way: the class-k part collects monic elements alpha of the
representative I_k at degree d + d_k, read off its reduced basis (those
alpha are exactly the products I_k * I over integral I of degree d in the
inverse class), divided by the constant prefactor f_k^(t/e_k).  The
principal class is one of them: its representative is (1), with d = 0 and
f = 1, so its part is the element zeta, slice by slice S(d).  At m = 2
the involution y -> -h - y pairs each class with its inverse
(`report.partners`), and only one class of each pair is summed.  Each class
term has its leads from `zeta.term_leads` over the reduced basis of its
representative, and the last lead's degree is the term's certified cutoff
(`_class_cuts`, shared by both paths), so the classwise result is a
complete polynomial.  Leads whose largest slice is over the power-sum
budget are refused before they are built.  The direct path checks its
ideal scan once, at its top degree, before the first enumeration, and a
refusal names the least degree over the ideal budget.

`remark_exact_check` takes a classwise zeta already computed, for instance
by the all-ideals hypothesis chain of `theorems`, and checks it against the
exact factorization zeta(-t, X) = zeta_{F_q[x]}(-t, X^q) * U through
`matches_base_substituted`, which `theorems.check_dinesh` uses with U = 1.

Both routes need a product of monic elements to be monic: the value of I^t
is built from monic generators, and the classwise route multiplies them.
Rings where some basis product b_i * b_j has a leading coefficient other
than 1 are refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass

from ffzeta.errors import ConsistencyError
from ffzeta.ideals import (DEFAULT_IDEAL_BUDGET, elem_divexact,
                           enumerate_ideals, involution, power_route,
                           reduced_basis, require_ideal_scan)
from ffzeta.ring import RingElement, RingSpec
from ffzeta.zeta import (ZetaPolynomial, affine_power_sum,
                         require_positive_exponent, term_leads, zeta_neg)


def require_monic_products(spec):
    """Refuse a ring on which a product of monic elements can fail to be
    monic, i.e. some basis product b_i * b_j has leading coefficient != 1."""
    spec.require_valid()
    for i, row in enumerate(spec.mul_table()):
        for j, cell in enumerate(row):
            c = RingElement(spec, cell).leading()[2]
            if c != 1:
                raise ValueError(
                    f"b_{i} * b_{j} has leading coefficient "
                    f"{spec.field.el_to_str(c)}, so products of monic elements "
                    f"are not always monic; the all-ideals zeta is refused on "
                    f"this ring")


def _require_exponent(t, report):
    require_positive_exponent(t)
    if t % report.e:
        raise ValueError("exponent not a multiple of class-group exponent")


def ideal_power_value(I, t, report):
    """I^t as a ring element: a^(t/e) for a the monic generator of I^e,
    on the power route of `class_group`."""
    _require_exponent(t, report)
    start, power, principal = power_route(report.spec)
    ok, a = principal(power(start(I), report.e))
    if not ok:
        raise ConsistencyError("I^e is not principal; class data inconsistent")
    return a ** (t // report.e)


def ideal_zeta_direct(t, report):
    """Enumerate every ideal of each degree up to the largest class cutoff,
    which needs no power, and sum the power values.
    The scan is checked against the budget at its top degree first."""
    spec = report.spec
    require_monic_products(spec)
    _require_exponent(t, report)
    d_max = max(cut for *_, cut in _class_cuts(t, report))
    require_ideal_scan(spec, d_max, DEFAULT_IDEAL_BUDGET)
    return ZetaPolynomial(spec, t, [
        sum((ideal_power_value(I, t, report) for I in enumerate_ideals(spec, d)),
            spec.zero()) for d in range(d_max + 1)])


def _class_cuts(t, report):
    """Yield (class, leads, cut) per class: the leads are `term_leads` over
    the monic reduced basis of I_k, the slice at X^d, d = deg lead - d_k,
    sums over lead + span(leads below), and the term vanishes beyond
    X-degree cut = deg(last lead) - d_k.  For the principal class,
    I_k = (1) and the leads are those of `zeta_neg`."""
    for cls in report.classes:
        leads = term_leads([w.monic() for w in reduced_basis(cls.rep)], t)
        yield cls, leads, leads[-1].degree - cls.degree


def ideal_zeta_classwise(t, report):
    """Class-by-class evaluation with certified per-class cutoffs.

    Every class's leads, the principal one's included, pass the budget
    before the first power.  A class term whose exact division leaves the
    ring raises ConsistencyError.  At m = 2 the involution sigma pairs each
    class C with C^-1, whose index is `report.partners`, and only the
    earlier of the two is summed.  sigma maps the monic elements of I_C at degree D to
    lambda_D times those of I_(C^-1), lambda_D the leading coefficient of
    sigma(lead), and f_C to mu f_(C^-1), mu that of sigma(f_C); so the
    term of C^-1 at D is lambda_D^(-t) mu^(t/k) sigma(term of C), k the
    order of C.
    """
    spec = report.spec
    field = spec.field
    require_monic_products(spec)
    _require_exponent(t, report)
    classes = report.classes
    partners = report.partners or range(len(classes))
    coeffs = []
    pending = {}    # partner index -> (lead, term) pairs of a class summed
    # every class's leads are refused or built before the first power
    for i, (cls, leads, cut) in enumerate(list(_class_cuts(t, report))):
        coeffs += [spec.zero()] * (cut + 1 - len(coeffs))
        if i in pending:
            mu = involution(classes[partners[i]].generator).leading()[2]
            for lead, term in pending.pop(i):
                lam = involution(lead).leading()[2]
                c = field.mul(field.pow(lam, -t),
                              field.pow(mu, t // cls.order))
                coeffs[lead.degree - cls.degree] += (
                    involution(term).scale_const(c))
            continue
        denom = cls.generator ** (t // cls.order)
        terms = []
        for j, lead in enumerate(leads):
            acc = affine_power_sum(lead, leads[:j], t)
            if not acc.is_zero:
                terms.append((lead, elem_divexact(acc, denom)))
                coeffs[lead.degree - cls.degree] += terms[-1][1]
        if partners[i] > i:
            pending[partners[i]] = terms
    return ZetaPolynomial(spec, t, coeffs)


def matches_base_substituted(z, u_coeffs):
    """Whether z = zeta(-s, X) equals zeta_{F_q[x]}(-s, X^q) * U
    coefficientwise, U given by its coefficients in z's ring.  The F_q[x]
    zeta is computed under the element budget; over it, BudgetError."""
    spec = z.spec
    q = spec.field.q
    base = zeta_neg(z.s, RingSpec.polyring(spec.field))
    width = max(z.d_max + 1, q * base.d_max + len(u_coeffs))
    want = [spec.zero()] * width
    for j, cj in enumerate(base.coeffs):
        emb = spec.elem_from_poly(cj.vec[0])
        for i, ui in enumerate(u_coeffs):
            want[q * j + i] = want[q * j + i] + emb * ui
    return list(z.coeffs) + [spec.zero()] * (width - len(z.coeffs)) == want


@dataclass
class RemarkReport:
    """Outcome of the exact-factorization identity check."""
    t: int
    identity_holds: bool
    u_coeffs: tuple       # coefficients of U by X-degree
    u_at_one: object
    order_exactly_q: bool
    h2_shortcut: bool     # h = 2; no closed form is used


def remark_exact_check(zc, report):
    """Check the classwise zeta zc = zeta(-t, X) against
    zeta_{F_q[x]}(-t, X^q) * U coefficientwise, with
    U = sum_k f_k^((t/e_k)(e_k - 1)) X^((e_k - 1) d_k) over every class, the
    principal one giving the constant term 1; the vanishing order is
    exactly q when the identity holds and U(1) != 0."""
    spec = zc.spec
    t = zc.s
    u = {}
    for cls in report.classes:
        dX = (cls.order - 1) * cls.degree
        f_pow = cls.generator ** ((t // cls.order) * (cls.order - 1))
        u[dX] = u.get(dX, spec.zero()) + f_pow
    u_coeffs = tuple(u.get(d, spec.zero()) for d in range(max(u) + 1))
    u_at_one = sum(u_coeffs, spec.zero())
    ident = matches_base_substituted(zc, u_coeffs)
    return RemarkReport(t=t, identity_holds=ident, u_coeffs=u_coeffs,
                        u_at_one=u_at_one,
                        order_exactly_q=ident and not u_at_one.is_zero,
                        h2_shortcut=report.h == 2)
