"""Zeta polynomial over all ideals, not only the principal ones.

For t a multiple of the class-group exponent e, the value of an ideal is
I^t := a^(t/e) with a the monic generator of I^e, and

    zeta(-t, X) = sum_d X^d sum_{deg I = d} I^t.

Two computations are provided, and the tests check that they agree.  The
direct path enumerates all ideals per degree up to a caller-supplied bound.
The classwise path splits the sum by ideal class: the principal part is the
element zeta, and the class-k part collects monic elements alpha of the
representative I_k at degree d + d_k (those alpha are exactly the products
I_k * I over integral I of degree d in the inverse class), divided by the
constant prefactor f_k^(t/e_k).  Each class term has its own certified
cutoff from the power-sum vanishing bound, so the classwise result is a
complete polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from ffzeta.errors import ConsistencyError
from ffzeta.ideals import (elem_divexact, ideal_echelon, ideal_is_principal,
                           ideal_pow, monic_slice, DEFAULT_IDEAL_BUDGET,
                           enumerate_ideals)
from ffzeta.ring import RingSpec
from ffzeta.zeta import (digit_profile, ord_from_coeffs, zeta_neg,
                         zeta_to_str, DEFAULT_BUDGET)


@dataclass(frozen=True)
class PerClassTerm:
    """One nontrivial class's contribution, numerator and prefactor kept
    separate so that no division leaves the ring."""
    index: int          # position in the class report
    d_k: int
    e_k: int
    denominator: object     # f_k^(t/e_k), a monic RingElement
    coeffs: tuple           # numerator series by output degree d
    d_max: int              # certified cutoff in output degree


class IdealZetaPolynomial:
    __slots__ = ("spec", "t", "coeffs", "d_max", "per_class_terms")

    def __init__(self, spec, t, coeffs, d_max, per_class_terms=None):
        self.spec = spec
        self.t = t
        self.coeffs = tuple(coeffs)
        self.d_max = d_max
        self.per_class_terms = per_class_terms
        if not self.coeffs or self.coeffs[0] != spec.one():
            raise ConsistencyError("ideal zeta constant term is not 1")

    @property
    def value_at_one(self):
        acc = self.spec.zero()
        for c in self.coeffs:
            acc = acc + c
        return acc

    def ord_at_one(self):
        return ord_from_coeffs(self.coeffs, self.spec)

    def __str__(self):
        return zeta_to_str(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, IdealZetaPolynomial)
                and self.spec == other.spec and self.t == other.t
                and self.coeffs == other.coeffs)


def ideal_power_value(I, t, report, spec=None):
    """I^t as a ring element: a^(t/e) for a the monic generator of I^e."""
    e = report.e
    if t <= 0 or t % e:
        raise ValueError("exponent not a multiple of class-group exponent")
    ok, a = ideal_is_principal(ideal_pow(I, e))
    if not ok:
        raise ConsistencyError("I^e is not principal; class data inconsistent")
    return a ** (t // e)


def ideal_zeta_direct(t, d_max, spec, *, report=None,
                      budget=DEFAULT_IDEAL_BUDGET):
    """Enumerate every ideal of each degree up to d_max and sum the power
    values."""
    if report is None:
        from ffzeta.ideals import class_group
        report = class_group(spec, budget=budget)
    if t <= 0 or t % report.e:
        raise ValueError("exponent not a multiple of class-group exponent")
    coeffs = []
    for d in range(d_max + 1):
        acc = spec.zero()
        for I in enumerate_ideals(spec, d, budget=budget):
            acc = acc + ideal_power_value(I, t, report)
        coeffs.append(acc)
    return IdealZetaPolynomial(spec, t, coeffs, d_max)


def _class_cutoff(I, tau, genus):
    """Echelon of I together with the least D such that the space of
    elements of I of degree < D has dimension above tau."""
    need = int(tau) + 1
    U = I.deg + 2 * genus + I.spec.m * (need + 1) + 2
    while True:
        ech = ideal_echelon(I, U)
        degs = sorted(d for d in ech if d <= U)
        if len(degs) >= need:
            return ech, degs[need - 1] + 1
        U += 2 * (I.spec.m + 2)


def ideal_zeta_classwise(t, report, spec=None, *,
                         budget=DEFAULT_IDEAL_BUDGET):
    """Class-by-class evaluation with certified per-class cutoffs.

    A class term whose exact division leaves the ring raises
    ConsistencyError.
    """
    spec = spec or report.spec
    if t <= 0 or t % report.e:
        raise ValueError("exponent not a multiple of class-group exponent")
    q = spec.field.q
    tau = digit_profile(t, q).threshold
    from ffzeta.semigroup import semigroup_from_ring
    genus = semigroup_from_ring(spec).genus

    principal = zeta_neg(t, spec, budget=min(budget, DEFAULT_BUDGET))
    terms = []
    divided = []
    for k, cls in enumerate(report.classes):
        if cls.order == 1:
            continue
        I = cls.rep
        d_k = cls.degree
        denom = cls.generator ** (t // cls.order)
        ech, D = _class_cutoff(I, tau, genus)
        cut = D - d_k - 1
        numer = []
        div_k = []
        for d in range(cut + 1):
            acc = spec.zero()
            for alpha in monic_slice(I, ech, d + d_k):
                acc = acc + alpha ** t
            numer.append(acc)
            div_k.append(spec.zero() if acc.is_zero
                         else elem_divexact(acc, denom))
        terms.append(PerClassTerm(index=k, d_k=d_k, e_k=cls.order,
                                  denominator=denom,
                                  coeffs=tuple(numer), d_max=cut))
        divided.append(div_k)

    d_max = max([principal.d_max] + [term.d_max for term in terms])
    coeffs = []
    for d in range(d_max + 1):
        acc = principal.coeffs[d] if d <= principal.d_max else spec.zero()
        for term, div_k in zip(terms, divided):
            if d <= term.d_max:
                acc = acc + div_k[d]
        coeffs.append(acc)
    return IdealZetaPolynomial(spec, t, coeffs, d_max,
                               per_class_terms=tuple(terms))


@dataclass
class RemarkReport:
    """Outcome of the exact-factorization identity check."""
    t: int
    applicable: bool
    mu: object = None
    identity_holds: object = None
    u_coeffs: object = None       # coefficients of U by X-degree
    u_at_one: object = None
    order_exactly_q: object = None
    h2_shortcut: bool = False
    warning: object = None
    hypothesis: object = None


def remark_exact_check(t, report, spec=None, *, hypothesis_report=None,
                       budget=DEFAULT_IDEAL_BUDGET):
    """Verify zeta(-t, X) = zeta_{F_q[x]}(-t, X^q) * U coefficientwise, with
    U = 1 + sum_k f_k^((t/e_k)(e_k - 1)) X^((e_k - 1) d_k), and decide from
    U(1) whether the vanishing order is exactly q."""
    spec = spec or report.spec
    q = spec.field.q
    if t <= 0 or t % report.e:
        return RemarkReport(t=t, applicable=False,
                            warning="exponent not a multiple of class-group exponent")
    if hypothesis_report is None:
        from ffzeta.theorems import check_tesismc
        hypothesis_report = check_tesismc(spec, t // report.e, report,
                                          budget=budget, with_remark=False)
    if not hypothesis_report.applicable:
        return RemarkReport(t=t, applicable=False,
                            warning="hypothesis chain not satisfied",
                            hypothesis=hypothesis_report)

    u = {0: spec.one()}
    for cls in report.classes:
        if cls.order == 1:
            continue
        dX = (cls.order - 1) * cls.degree
        f_pow = cls.generator ** ((t // cls.order) * (cls.order - 1))
        u[dX] = u.get(dX, spec.zero()) + f_pow
    u_deg = max(u)
    u_coeffs = tuple(u.get(d, spec.zero()) for d in range(u_deg + 1))
    u_at_one = spec.zero()
    for c in u_coeffs:
        u_at_one = u_at_one + c

    zc = ideal_zeta_classwise(t, report, spec, budget=budget)
    base = zeta_neg(t, RingSpec.polyring(spec.field),
                    budget=min(budget, DEFAULT_BUDGET))
    prod_len = q * base.d_max + u_deg + 1
    width = max(prod_len, zc.d_max + 1)
    prod = [spec.zero()] * width
    for j, cj in enumerate(base.coeffs):
        emb = spec.elem_from_poly(cj.vec[0])
        for i, ui in enumerate(u_coeffs):
            prod[q * j + i] = prod[q * j + i] + emb * ui
    ident = all((zc.coeffs[d] if d <= zc.d_max else spec.zero()) == prod[d]
                for d in range(width))

    return RemarkReport(t=t, applicable=True, mu=hypothesis_report.mu,
                        identity_holds=ident, u_coeffs=u_coeffs,
                        u_at_one=u_at_one,
                        order_exactly_q=not u_at_one.is_zero,
                        h2_shortcut=report.h == 2,
                        hypothesis=hypothesis_report)
