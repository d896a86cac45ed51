"""Zeta polynomials of one-place rings at negative integers, exactly.

zeta(-s, X) = sum_d S(d) X^d where S(d) adds a^s over the monic elements of
degree d.  The sum is a polynomial: once dim W_d exceeds l_q(s)/(q-1), the
vanishing theorem for power sums over affine subspaces forces S(d') = 0 for
every d' >= d (each S(d') is a sum of (lead + w)^s over the F_q-space W_{d'},
whose dimension never decreases).  The cutoff certifies every omitted
coefficient is zero, so values and orders of vanishing at X = 1 are exact.

Recentering at X = 1 uses binomials mod p via Lucas; the order of vanishing
is the first nonzero recentered coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ffzeta.errors import BudgetError, ConsistencyError
from ffzeta.gf import poly_to_str
from ffzeta.ring import affine_combinations, echelon_insert, elem_to_str

DEFAULT_BUDGET = 2 ** 20


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


def binom_mod_p(d, j, p):
    """C(d, j) mod p by Lucas: the product of digitwise binomials."""
    r = 1
    while j or d:
        d, dd = divmod(d, p)
        j, jj = divmod(j, p)
        if jj > dd:
            return 0
        r = r * comb(dd, jj) % p
    return r


def affine_power_sum(f, basis, k, *, budget=DEFAULT_BUDGET):
    """Sum of (f + w)^k over the F_q-span of `basis`; f must lie outside it.

    Vanishes whenever len(basis) > l_q(k)/(q-1); the sharpness witnesses in
    the tests show the bound is tight.
    """
    ech = {}
    for w in basis:
        if not echelon_insert(ech, w):
            raise ValueError("the W basis is linearly dependent over F_q")
    if not echelon_insert(ech, f):
        raise ValueError("f lies in the span of W; the theorem needs f outside it")
    total = f.spec.field.q ** len(basis)
    if total > budget:
        raise BudgetError(
            f"affine power sum over q^dim = {total} points exceeds the budget {budget}")
    acc = f.spec.zero()
    for e in affine_combinations(f, basis):
        acc = acc + e ** k
    return acc


def power_sum_S(d, s, spec, *, budget=DEFAULT_BUDGET):
    """S(d): sum of a^s over the monic elements of degree d (0 at gaps)."""
    count = spec.count_monic(d)
    if count > budget:
        raise BudgetError(
            f"S({d}) sums over {count} monic elements, over the budget {budget}")
    acc = spec.zero()
    for e in spec.enumerate_monic(d):
        acc = acc + e ** s
    return acc


class ZetaPolynomial:
    """zeta(-s, X) with exact coefficients and a certified cutoff d_max.

    One value type for both sums: over the monic elements (`zeta_neg`) and
    over all ideals (`ideal_zeta`).  Either way the constant term is 1.
    """

    __slots__ = ("spec", "s", "coeffs", "d_max")

    def __init__(self, spec, s, coeffs, d_max):
        self.spec = spec
        self.s = s
        self.coeffs = tuple(coeffs)
        self.d_max = d_max
        if not self.coeffs or self.coeffs[0] != spec.one():
            raise ConsistencyError("zeta constant term is not 1")

    @property
    def value_at_one(self):
        return sum(self.coeffs, self.spec.zero())

    def ord_at_one(self):
        return ord_from_coeffs(self.coeffs, self.spec)

    def __eq__(self, other):
        return (isinstance(other, ZetaPolynomial)
                and (self.spec, self.s, self.coeffs) == (other.spec, other.s, other.coeffs))

    def __str__(self):
        return zeta_to_str(map(coeff_lit, self.coeffs))

    def __repr__(self):
        return f"ZetaPolynomial[s={self.s}, {self}]"


def zeta_cutoff(s, spec):
    """Certified d_max of zeta(-s, X): the last degree d with
    dim W_d <= l_q(s)/(q-1); every S(d') beyond it vanishes."""
    tau = vanishing_threshold(s, spec.q)
    d = 0
    while spec.dim_W(d) <= tau:
        d += 1
    return d - 1


def zeta_neg(s, spec, *, budget=DEFAULT_BUDGET):
    """zeta(-s, X) over the monic elements of spec, with certified cutoff."""
    spec.require_valid()
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"s must be a positive integer, got {s!r}")
    d_max = zeta_cutoff(s, spec)
    coeffs = tuple(power_sum_S(dd, s, spec, budget=budget)
                   for dd in range(d_max + 1))
    return ZetaPolynomial(spec, s, coeffs, d_max)


# -- recentering at X = 1 ---------------------------------------------------

def centered_coeffs(coeffs, spec):
    """c_j = sum_d C(d, j) coeffs[d], the (X-1)-expansion, binomials mod p."""
    p = spec.field.p
    out = []
    for j in range(len(coeffs)):
        acc = spec.zero()
        for d in range(j, len(coeffs)):
            b = binom_mod_p(d, j, p)
            if b:
                acc = acc + coeffs[d].scale_const(b)
        out.append(acc)
    return tuple(out)


def ord_from_coeffs(coeffs, spec):
    """Multiplicity of the root X = 1; identically zero input is an error."""
    for j, c in enumerate(centered_coeffs(coeffs, spec)):
        if not c.is_zero:
            return j
    raise ValueError("the zero polynomial has no finite order of vanishing at X = 1")


# -- rendering --------------------------------------------------------------

def coeff_lit(c):
    """Re-ingestible literal of a ring element: its F_q[x] part when it has
    no other coordinate, else its coordinates joined by '; '."""
    pp = c.poly_part()
    return poly_to_str(pp) if pp is not None else elem_to_str(c).replace(", ", "; ")


def zeta_to_str(lits, var="X"):
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
        xp = var if d == 1 else f"{var}^{d}"
        if cs == "1":
            terms.append(xp)
        elif parens:
            terms.append(f"({cs})*{xp}")
        else:
            terms.append(f"{cs}*{xp}")
    return " + ".join(terms) if terms else "0"
