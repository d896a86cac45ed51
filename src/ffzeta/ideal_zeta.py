"""Zeta polynomial over all ideals, not only the principal ones.

For t a multiple of the class-group exponent e, the value of an ideal is
I^t := a^(t/e) with a the monic generator of I^e, and

    zeta(-t, X) = sum_d X^d sum_{deg I = d} I^t.

Two computations are provided, and the tests check that they agree.  Both
return a `zeta.ZetaPolynomial`, the value type of the element zeta.  The
direct path enumerates all ideals per degree up to a bound, by default the
classwise path's certified cutoff.  The classwise path splits the sum by
ideal class: the principal part is the element zeta, and the class-k part
collects monic elements alpha of the representative I_k at degree d + d_k
(those alpha are exactly the products I_k * I over integral I of degree d in
the inverse class), divided by the constant prefactor f_k^(t/e_k).  Each
class term has its own certified cutoff from the power-sum vanishing bound
(`_class_cuts`, shared by both paths), so the classwise result is a complete
polynomial.  Every degree slice is summed by `zeta.affine_power_sum`, which
checks the budget before the first power.

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
from ffzeta.ideals import (DEFAULT_IDEAL_BUDGET, class_group, elem_divexact,
                           enumerate_ideals, ideal_echelon, ideal_is_principal,
                           ideal_pow)
from ffzeta.ring import RingElement, RingSpec
from ffzeta.zeta import (DEFAULT_BUDGET, ZetaPolynomial, affine_power_sum,
                         vanishing_threshold, zeta_cutoff, zeta_neg)


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


def ideal_power_value(I, t, report):
    """I^t as a ring element: a^(t/e) for a the monic generator of I^e."""
    e = report.e
    if t <= 0 or t % e:
        raise ValueError("exponent not a multiple of class-group exponent")
    ok, a = ideal_is_principal(ideal_pow(I, e))
    if not ok:
        raise ConsistencyError("I^e is not principal; class data inconsistent")
    return a ** (t // e)


def ideal_zeta_direct(t, d_max=None, spec=None, *, report=None,
                      budget=DEFAULT_IDEAL_BUDGET):
    """Enumerate every ideal of each degree up to d_max and sum the power
    values.  d_max defaults to the classwise route's certified cutoff, which
    needs no power; below that cutoff the result would not be certified
    complete, so a smaller d_max is refused.  spec defaults to report.spec."""
    spec = spec or report.spec
    require_monic_products(spec)
    if report is None:
        report = class_group(spec, budget=budget)
    if t <= 0 or t % report.e:
        raise ValueError("exponent not a multiple of class-group exponent")
    cutoff = max([zeta_cutoff(t, spec)]
                 + [cut for _, _, cut in _class_cuts(t, report, spec)])
    if d_max is None:
        d_max = cutoff
    elif d_max < cutoff:
        raise ValueError(f"coefficient cutoff d_max = {d_max} is below the "
                         f"certified cutoff {cutoff}")
    coeffs = []
    for d in range(d_max + 1):
        acc = spec.zero()
        for I in enumerate_ideals(spec, d, budget=budget):
            acc = acc + ideal_power_value(I, t, report)
        coeffs.append(acc)
    return ZetaPolynomial(spec, t, coeffs, d_max)


def _class_cuts(t, report, spec):
    """Yield (class, echelon of I_k, cut) for each nontrivial class: its term
    of zeta(-t, X) vanishes beyond X-degree cut = D - d_k - 1, D the least
    degree with dim{alpha in I_k : deg alpha < D} > l_q(t)/(q-1).

    By Riemann's inequality the elements of I_k of degree <= n span at least
    n - d_k - g + 1 dimensions, so one echelon up to d_k + g + need - 1
    holds the `need` least degrees."""
    need = int(vanishing_threshold(t, spec.field.q)) + 1
    for cls in report.classes:
        if cls.order == 1:
            continue
        U = cls.degree + report.genus + need - 1
        ech = ideal_echelon(cls.rep, U)
        degs = sorted(d for d in ech if d <= U)
        if len(degs) < need:
            raise ConsistencyError(
                f"only {len(degs)} element degrees <= {U} in a degree-"
                f"{cls.degree} ideal, fewer than Riemann's inequality gives")
        yield cls, ech, degs[need - 1] - cls.degree


def ideal_zeta_classwise(t, report, spec=None, *,
                         budget=DEFAULT_IDEAL_BUDGET):
    """Class-by-class evaluation with certified per-class cutoffs.

    Every degree slice, principal or not, is refused before its first
    power when it holds more than min(budget, DEFAULT_BUDGET) elements.  A
    class term whose exact division leaves the ring raises ConsistencyError.
    """
    spec = spec or report.spec
    require_monic_products(spec)
    if t <= 0 or t % report.e:
        raise ValueError("exponent not a multiple of class-group exponent")
    budget = min(budget, DEFAULT_BUDGET)

    coeffs = list(zeta_neg(t, spec, budget=budget).coeffs)
    for cls, ech, cut in _class_cuts(t, report, spec):
        d_k = cls.degree
        denom = cls.generator ** (t // cls.order)
        coeffs += [spec.zero()] * (cut + 1 - len(coeffs))
        for d in range(cut + 1):
            lead = ech.get(d + d_k)
            if lead is None:
                continue
            below = [ech[e] for e in sorted(ech) if e < d + d_k]
            acc = affine_power_sum(lead, below, t, budget=budget)
            if not acc.is_zero:
                coeffs[d] = coeffs[d] + elem_divexact(acc, denom)
    return ZetaPolynomial(spec, t, coeffs, len(coeffs) - 1)


def matches_base_substituted(z, u_coeffs, *, budget=DEFAULT_BUDGET):
    """Whether z = zeta(-s, X) equals zeta_{F_q[x]}(-s, X^q) * U
    coefficientwise, U given by its coefficients in z's ring.  The F_q[x]
    zeta is computed under min(budget, DEFAULT_BUDGET); over it, BudgetError."""
    spec = z.spec
    q = spec.field.q
    base = zeta_neg(z.s, RingSpec.polyring(spec.field),
                    budget=min(budget, DEFAULT_BUDGET))
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


def remark_exact_check(zc, report, *, budget=DEFAULT_IDEAL_BUDGET):
    """Check the classwise zeta zc = zeta(-t, X) against
    zeta_{F_q[x]}(-t, X^q) * U coefficientwise, with
    U = 1 + sum_k f_k^((t/e_k)(e_k - 1)) X^((e_k - 1) d_k), and decide from
    U(1) whether the vanishing order is exactly q."""
    spec = zc.spec
    t = zc.s
    u = {0: spec.one()}
    for cls in report.classes:
        if cls.order == 1:
            continue
        dX = (cls.order - 1) * cls.degree
        f_pow = cls.generator ** ((t // cls.order) * (cls.order - 1))
        u[dX] = u.get(dX, spec.zero()) + f_pow
    u_coeffs = tuple(u.get(d, spec.zero()) for d in range(max(u) + 1))
    u_at_one = sum(u_coeffs, spec.zero())
    ident = matches_base_substituted(zc, u_coeffs, budget=budget)
    return RemarkReport(t=t, identity_holds=ident, u_coeffs=u_coeffs,
                        u_at_one=u_at_one,
                        order_exactly_q=not u_at_one.is_zero,
                        h2_shortcut=report.h == 2)
