"""Zeta polynomials of one-place rings at negative integers, exactly.

zeta(-s, X) = sum_d S(d) X^d where S(d) adds a^s over the monic elements of
degree d: the monomial of degree d plus the F_q-span W_d of those below it.
Once dim W_d exceeds l_q(s)/(q-1), the vanishing theorem for power sums over
affine subspaces forces S(d') = 0 for every d' >= d.  So the
floor(l_q(s)/(q-1)) + 1 least monomials (`term_leads`) head every slice that
can be nonzero, and the last one's degree is the certified cutoff: values
and orders of vanishing at X = 1 are exact.  Each slice is one
`affine_power_sum`, and `slice_leads` refuses the leads before it builds
them when the largest slice exceeds DEFAULT_BUDGET points.

The order of vanishing at X = 1 is read off by its definition: divide out
X - 1 until the value at 1 is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from ffzeta.errors import BudgetError, ConsistencyError
from ffzeta.gf import poly_to_str
from ffzeta.ring import affine_combinations, echelon_insert, least_multiples

DEFAULT_BUDGET = 2 ** 20    # points summed per power-sum slice


def digit_sum(k, q):
    """l_q(k): sum of the base-q digits of k."""
    if k < 0:
        raise ValueError("digit sums are defined for nonnegative integers")
    total = 0
    while k:
        k, r = divmod(k, q)
        total += r
    return total


def vanishing_threshold(s, q):
    """l_q(s)/(q-1): a power sum over an affine F_q-space of larger
    dimension vanishes."""
    return Fraction(digit_sum(s, q), q - 1)


def slice_leads(ws, count):
    """The `count` least elements x^j w, w in the degree-reduced basis ws,
    ascending by degree (`ring.least_multiples`): lead i heads the slice
    lead_i + span(leads[:i]).  Refused before any lead is built when the
    largest slice, over q^(count-1) points, exceeds DEFAULT_BUDGET."""
    q, dim = ws[0].spec.q, count - 1
    # q^dim > DEFAULT_BUDGET already when dim reaches its bit length
    if q ** min(dim, DEFAULT_BUDGET.bit_length()) > DEFAULT_BUDGET:
        raise BudgetError(f"a power-sum slice over {q}^{dim} points exceeds "
                          f"the budget {DEFAULT_BUDGET}")
    return least_multiples(ws, count)


def term_leads(ws, s):
    """The leads of one zeta term at exponent s over the degree-reduced
    basis ws: the floor(l_q(s)/(q-1)) + 1 least multiples.  Every later
    slice spans more than l_q(s)/(q-1) dimensions and vanishes, so the last
    lead's degree is the term's certified cutoff."""
    return slice_leads(ws, int(vanishing_threshold(s, ws[0].spec.q)) + 1)


def affine_power_sum(f, basis, k):
    """Sum of (f + w)^k over the F_q-span of `basis`; f must lie outside it.
    No budget is checked here: the leads come from `slice_leads`.

    Vanishes whenever len(basis) > l_q(k)/(q-1); the sharpness witnesses in
    the tests show the bound is tight.
    """
    ech = {}
    for w in basis:
        if not echelon_insert(ech, w):
            raise ValueError("the W basis is linearly dependent over F_q")
    if not echelon_insert(ech, f):
        raise ValueError("f lies in the span of W; the theorem needs f outside it")
    acc = f.spec.zero()
    for e in affine_combinations(f, basis):
        acc = acc + e ** k
    return acc


def power_sum_S(d, s, spec):
    """S(d): sum of a^s over the monic elements of degree d, the last slice
    of the dim W_d + 1 least monomials; past the budget check, 0 with no
    power at a gap (the last lead is not of degree d) or past the cutoff."""
    spec.require_valid()
    require_positive_exponent(s)
    *below, lead = slice_leads(spec.basis(), spec.dim_W(d) + 1)
    if lead.degree != d or len(below) > vanishing_threshold(s, spec.q):
        return spec.zero()
    return affine_power_sum(lead, below, s)


class ZetaPolynomial:
    """zeta(-s, X) with exact coefficients up to its certified cutoff d_max.

    One value type for both sums: over the monic elements (`zeta_neg`) and
    over all ideals (`ideal_zeta`).  Either way the constant term is 1.
    """

    __slots__ = ("spec", "s", "coeffs")

    def __init__(self, spec, s, coeffs):
        self.spec = spec
        self.s = s
        self.coeffs = tuple(coeffs)
        if not self.coeffs or self.coeffs[0] != spec.one():
            raise ConsistencyError("zeta constant term is not 1")

    @property
    def d_max(self):
        """The certified cutoff: every coefficient beyond it is zero."""
        return len(self.coeffs) - 1

    @property
    def value_at_one(self):
        return sum(self.coeffs, self.spec.zero())

    def ord_at_one(self):
        """Multiplicity of the root X = 1.  Dividing by X - 1 leaves the
        suffix sums c_(j+1) + ... + c_(d_max) as the quotient's coefficients,
        and the full sum is the value at 1; the constant term 1 keeps the
        polynomial nonzero, so the division stops."""
        top_first, order = self.coeffs[::-1], 0
        while True:
            *quotient, value = accumulate(top_first)
            if not value.is_zero:
                return order
            top_first, order = quotient, order + 1

    def __eq__(self, other):
        return (isinstance(other, ZetaPolynomial)
                and (self.spec, self.s, self.coeffs) == (other.spec, other.s, other.coeffs))

    def __str__(self):
        return zeta_to_str(map(coeff_lit, self.coeffs))

    def __repr__(self):
        return f"ZetaPolynomial[s={self.s}, {self}]"


def require_positive_exponent(s):
    """Refuse an exponent s that is not a positive integer."""
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"s must be a positive integer, got {s!r}")


def zeta_neg(s, spec):
    """zeta(-s, X) over the monic elements of spec, with certified cutoff."""
    spec.require_valid()
    require_positive_exponent(s)
    leads = term_leads(spec.basis(), s)
    coeffs = [spec.zero()] * (leads[-1].degree + 1)
    for i, lead in enumerate(leads):
        coeffs[lead.degree] = affine_power_sum(lead, leads[:i], s)
    return ZetaPolynomial(spec, s, coeffs)


# -- rendering --------------------------------------------------------------

def coeff_lit(c):
    """Re-ingestible literal of a ring element: its F_q[x] part when it has
    no other coordinate, else its coordinates joined by '; '."""
    pp = c.poly_part()
    if pp is not None:
        return poly_to_str(pp)
    return "; ".join(map(poly_to_str, c.vec))


def zeta_to_str(lits):
    """The polynomial in X whose coefficients have the literals `lits`
    (`coeff_lit`), constant term first."""
    terms = []
    for d, cs in enumerate(lits):
        if cs == "0":
            continue
        if ";" in cs:
            cs, parens = f"[{cs}]", False
        else:
            parens = " + " in cs or "*" in cs
        if d == 0:
            terms.append(cs)
            continue
        xp = "X" if d == 1 else f"X^{d}"
        if cs == "1":
            terms.append(xp)
        elif parens:
            terms.append(f"({cs})*{xp}")
        else:
            terms.append(f"{cs}*{xp}")
    return " + ".join(terms) if terms else "0"
