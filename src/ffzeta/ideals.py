"""Nonzero ideals of a one-place ring in Hermite normal form, and the class
group certified through the L-polynomial.

An ideal is the column span over F_q[x] of an upper-triangular m x m matrix
with monic diagonal and off-diagonal entries reduced mod the diagonal of
their row; that form is unique per ideal, so equality is matrix equality.
deg I = sum of the diagonal degrees = dim_{F_q} A/I.

One column reduction over F_q[x] (`_reduce`) does all the lattice work,
and its callers differ only in the pivot rule.  Pivoting on the last
nonzero row gives the Hermite form of a generating set or a product; on
the last nonzero row of a linear system, with an identity below it that
records the unknowns, a kernel basis, whose recorded parts are a basis of
the ideal quotient and go to its Hermite form as they are; on the leading
index of the element degree, a degree-reduced (weak Popov) basis
w_0..w_{m-1} of I (`reduced_basis`; Mulders and Storjohann, J. Symbolic
Comput. 35, 2003).  Every degree question is read off that basis: by the
degree rule of `ring`, the element degrees of I are deg w_k + m t, t >= 0.
As (alpha) inside I has codimension deg alpha, I is principal exactly when
deg w_0 = deg I, and then monic(w_0), the unique monic element of least
degree, generates: (w_0) lies in I with the same codimension.

At m = 2 `enumerate_ideals` builds the ideals from the primes and scans no
candidate.  An ideal of degree d is w J, w monic of degree j and J primitive
of degree d - 2j with Hermite columns (u', 0), (v', 1): J = (u, y - v) for
the Mumford pair (u, v) = (u', -v' mod u') of Cantor's law, and
`_PrimitivePairs` builds these pairs as products of prime-power pairs by
Cantor's composition (`CantorLaw.compose`).  That needs a maximal ring, so
a ring with finite singular points is refused (`require_maximal`).

The L-polynomial (`l_polynomial`) counts the ideals of degree 0..g once
`require_ideal_scan` admits degree g (at m = 2 it counts the Hermite scan
the primes replaced, which still keeps `class_group` from Miller walks of
minutes): at m = 2 by c_d = sum_(j <= d/2) q^j n_(d-2j), n_e the pairs of
degree e, with no ideal built; at other m by enumerating them.  It forms
p_d = c_d - q c_{d-1} for d <= g, fills p_{g+1}..p_{2g} by the functional
equation p_{2g-i} = q^{g-i} p_i and rebuilds c_{g+1}..c_{2g} from them.
The point counts N_k over F_{q^k}, k = 1..K (K = min(2g, largest k with
q^k <= 512)), certify the result: below g they test the counts, beyond g
the half the functional equation filled in.  One `count_affine_points`
call gives them all, on tables the fields keep.  The class group
(`class_group`) reads off h = P(1) and keeps, in degree order, one reduced
ideal per class: every class holds exactly one integral ideal of least
degree (Hess's reduction), of degree <= g by Riemann-Roch.  At m = 2 these
are the pairs of degree <= g (Mumford's representation; Cantor, Math.
Comp. 48, 1987), the only ideals given a Hermite form; at other m, the
enumerated ideals one ideal quotient each finds reduced (`_is_reduced`).
They are counted against h.  A class order divides h (Lagrange), so the
order of I is the least divisor k of h with I^k principal, and only the
divisors are tried, in ascending order; each I^k is built from the largest
power I^b already built with b | k, as (I^b)^(k/b).  (1) is the one reduced
ideal of the principal class, so a representative of positive degree starts
at the second divisor.  The powers follow `power_route`.  At m = 2 they are
Miller triples under Cantor's group law (`CantorLaw`):
I^k = (u, y - v) (num / den) with (u, v) a reduced Mumford pair, principal
exactly when u = 1, and then generated by monic(num / den), so no Hermite
form is built.  At other m they are Hermite forms, tested by
`ideal_is_principal`.  At m = 2 only one class of each pair {C, C^-1} is
walked: the involution sigma: y -> -h - y (`involution`) maps the pair
(u, v) of C to (u, -h - v mod u) (`CantorLaw.involution`), that of C^-1,
whose index is kept as C's partner (`ClassGroupReport.partners`); the later
of the two takes the earlier one's order and sigma(generator), made monic.
A representative of positive degree that sigma fixes, u | 2v + h, is
2-torsion with I^2 = I sigma(I) = (u), so its order is 2 and its generator
u, with no walk.

Ideals are `IdealHNF` values, immutable by convention like the `Poly` and
`RingElement` values they are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product
from math import lcm

from ffzeta.errors import BudgetError, ConsistencyError, NonMaximalRingError
from ffzeta.gf import (TABLE_CAP, Poly, monic_polys, poly_det, poly_to_str,
                       poly_xgcd, polys_below, square_and_multiply)
from ffzeta.ring import RingElement, count_affine_points
from ffzeta.semigroup import semigroup_from_ring

DEFAULT_IDEAL_BUDGET = 4_000_000


# -- column reduction over F_q[x] -------------------------------------------

def _reduce(vectors, pivot):
    """Column reduction of vectors (tuples of Polys) under a pivot rule.

    pivot(v) names v's pivot coordinate, or None when v has none.  The
    vectors go in one by one; when v meets a kept w with the same pivot i,
    the one of lower degree at i stays and the other goes on as
    v - (v_i // w_i) w.  Column operations only, so the span is kept.
    Returns the kept vectors by pivot, and the list left without one.
    """
    kept = {}
    rest = []
    for v in vectors:
        i = pivot(v)
        while i in kept:
            w = kept[i]
            if v[i].degree < w[i].degree:
                kept[i], v, w = v, w, v
            qq = v[i] // w[i]
            v = tuple(a - qq * b for a, b in zip(v, w))
            i = pivot(v)
        if i is None:
            rest.append(v)
        else:
            kept[i] = v
    return kept, rest


def _last_nonzero(v, rows):
    """The echelon pivot: the last nonzero one of v's first `rows`
    coordinates, or None."""
    for i in range(rows - 1, -1, -1):
        if v[i].packed:
            return i
    return None


def _hnf_columns(spec, cols):
    """Canonical upper-triangular column HNF of a full-rank column family."""
    m = spec.m
    field = spec.field
    pivots, _ = _reduce(cols, lambda v: _last_nonzero(v, m))
    if len(pivots) != m:
        raise ValueError("columns do not span a rank-m module (zero ideal?)")
    out = []
    for i in range(m):
        col = pivots[i]
        lc = col[i].lc
        if lc != 1:
            inv = field.inv(lc)
            col = [Poly._scale(g, inv) for g in col]
        out.append(col)
    # reduce off-diagonal entries modulo the diagonal of their row
    for j in range(m):
        for i in range(j - 1, -1, -1):
            qq = out[j][i] // out[i][i]
            if not qq.is_zero:
                out[j] = [out[j][r] - qq * out[i][r] for r in range(m)]
    return tuple(tuple(col) for col in out)


# -- ideals -----------------------------------------------------------------

class IdealHNF:
    """Nonzero ideal in canonical Hermite form."""

    __slots__ = ("spec", "cols")

    def __init__(self, spec, cols):
        self.spec = spec
        self.cols = cols

    @property
    def deg(self):
        return sum(self.cols[i][i].degree for i in range(self.spec.m))

    def col_elem(self, j):
        return RingElement(self.spec, self.cols[j])

    def generators(self):
        return tuple(self.col_elem(j) for j in range(self.spec.m))

    def contains(self, e):
        self._same_spec_elem(e)
        g = list(e.vec)
        for i in range(self.spec.m - 1, -1, -1):
            qq, r = divmod(g[i], self.cols[i][i])
            if not r.is_zero:
                return False
            if not qq.is_zero:
                col = self.cols[i]
                g = [g[r2] - qq * col[r2] for r2 in range(self.spec.m)]
        return all(gi.is_zero for gi in g)

    def _same_spec_elem(self, e):
        if e.spec is not self.spec and e.spec != self.spec:
            raise ValueError("element belongs to a different ring")

    def __eq__(self, other):
        return (isinstance(other, IdealHNF) and self.cols == other.cols
                and (self.spec is other.spec or self.spec == other.spec))

    def __hash__(self):
        return hash(tuple(g.packed for col in self.cols for g in col))

    def __repr__(self):
        body = "; ".join("[" + ", ".join(poly_to_str(g) for g in row) + "]"
                         for row in zip(*self.cols))
        return f"Ideal[{body}]"


def ideal_from_generators(gens, spec):
    """Smallest ideal containing the given ring elements."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("the zero ideal has no Hermite form here")
    cols = [(g * RingElement(spec, spec.basis_vec(j))).vec
            for g in gens for j in range(spec.m)]
    return IdealHNF(spec, _hnf_columns(spec, cols))


def ideal_mul(I, J):
    """I J; a square I I forms each symmetric product a_i a_j, i <= j, once."""
    spec = I.spec
    a = I.generators()
    if J is I:
        cols = [(x * y).vec for i, x in enumerate(a) for y in a[i:]]
    else:
        cols = [(x * y).vec for x in a for y in J.generators()]
    return IdealHNF(spec, _hnf_columns(spec, cols))


def ideal_pow(I, k):
    """I^k for k >= 1."""
    return square_and_multiply(I, k, ideal_mul)


# -- reduced bases and principality -----------------------------------------

def reduced_basis(I):
    """Degree-reduced basis w_0..w_{m-1} of I over F_q[x], ascending by degree.

    `_reduce` on the Hermite columns, pivoting on the leading index: of two
    columns with one leading index, one division by the other's coordinate
    there drops the degree.  Once the leading indices differ,
    deg sum_k f_k w_k = max_k (m deg f_k + deg w_k), and deg_x det = deg I
    is checked on them.
    """
    spec = I.spec
    kept, _ = _reduce(I.cols, lambda v: RingElement(spec, v).leading()[1])
    basis = sorted((RingElement(spec, v) for v in kept.values()),
                   key=lambda w: w.degree)
    if sum(w.degree for w in basis) != spec.m * I.deg + sum(spec.delta):
        raise ConsistencyError("reduced basis degrees disagree with deg I")
    return basis


def ideal_is_principal(I):
    """(True, monic generator) or (False, None): principal iff the least
    element degree, deg w_0 of the reduced basis, is deg I.  Then (gen) has
    codimension deg gen = deg I, so gen in I proves (gen) = I."""
    gen = reduced_basis(I)[0].monic()
    if gen.degree != I.deg:
        return False, None
    if not I.contains(gen):
        raise ConsistencyError("degree-matched element is not in the ideal; ideal bug")
    return True, gen


# -- Cantor's group law at rank 2 -------------------------------------------

class CantorLaw:
    """Cantor's group law on the rank-2 ring y^2 + h y = f
    (`RingSpec.hyperelliptic`; Math. Comp. 48, 1987) of genus
    g = (N - 1) / 2, with the factors of Miller's double-and-add
    (J. Cryptology 17, 2004).

    A Miller triple (u, v, num, den) stands for the ideal
    (u, y - v) * (num / den): (u, v) is a Mumford pair, u monic with
    u | f - h v - v^2 (`mumford`) and deg v < deg u, num a ring element and
    den a monic polynomial.  `compose` takes two pairs to d (u, y - v), d
    the gcd of u1, u2 and v1 + v2 + h, and `mul` scales num by d and
    reduces while deg u > g, each step
    (u, y - v) = (u', y - v') (y - v) / u'.  At the fixed degrees of the
    one-place ring (deg f = 2g + 1, deg h <= g) a step lowers deg u, and the
    reduced pairs are the classes, so a triple stands for a principal ideal
    exactly when u = 1, and then monic(num / den) generates it.  Every
    division is exact, and a remainder raises ConsistencyError.
    """

    def __init__(self, spec):
        self.spec = spec
        self.g = (spec.N - 1) // 2
        self.f, self.h = spec.hyperelliptic()

    def mumford(self, v):
        """f - h v - v^2: a monic u with deg v < deg u makes (u, y - v) an
        ideal, the Mumford pair (u, v), exactly when u divides it."""
        return self.f - self.h * v - v * v

    def triple(self, I):
        """The reduced triple of I = w J, w the content of I: the primitive
        J has Hermite columns (a, 0), (b, 1), its pair is (a, -b mod a), and
        num = w."""
        (a, _), (b, w) = I.cols
        u, v = a // w, b // w
        return self._reduce(u, -v % u, self.spec.elem_from_poly(w),
                            Poly.one(w.field))

    def _reduce(self, u, v, num, den):
        while u.degree > self.g:
            up, r = divmod(self.mumford(v), u)
            if r:
                raise ConsistencyError(
                    "Mumford pair with u not dividing f - h v - v^2")
            up = up.monic()
            num *= RingElement(self.spec, (-v, Poly.one(u.field)))
            den *= up
            # (u', v) is a Mumford pair, and the step goes to its sigma-image
            u, v = self.involution(up, v)
        return u, v, num, den

    def involution(self, u, v):
        """The pair of sigma((u, y - v)) = (u, y + h + v), sigma the
        involution y -> -h - y (`involution`): (u, -h - v mod u)."""
        return u, (-self.h - v) % u

    def compose(self, P, Q):
        """Cantor's composition with no reduction: (u, v, d) with
        (u1, y - v1) (u2, y - v2) = d (u, y - v) for the Mumford pairs
        (u1, v1) and (u2, v2) that open P and Q, d the monic gcd of u1, u2
        and v1 + v2 + h.  Coprime u1, u2 give d = 1, u = u1 u2 and, by the
        Chinese remainder theorem, v = v1 + u1 ((v2 - v1) s mod u2) for
        s u1 + t u2 = 1: v = v1 mod u1, v = v2 mod u2 and deg v < deg u."""
        u1, v1 = P[0], P[1]
        u2, v2 = Q[0], Q[1]
        if P is Q:
            d0, e1, e2 = u1, Poly.one(u1.field), Poly.zero(u1.field)
        else:
            d0, e1, e2 = poly_xgcd(u1, u2)
        if not d0.degree:
            return u1 * u2, v1 + u1 * ((v2 - v1) * e1 % u2), d0
        d, c1, c2 = poly_xgcd(d0, v1 + v2 + self.h)
        w = c1 * (e1 * u1 * v2 + e2 * u2 * v1) + c2 * (v1 * v2 + self.f)
        u, r = divmod(u1 * u2, d * d)
        w, r2 = divmod(w, d)
        if r or r2:
            raise ConsistencyError("Cantor composition left a remainder")
        return u, w % u, d

    def mul(self, P, Q):
        """The triple of the product of the ideals P and Q stand for."""
        u, v, d = self.compose(P, Q)
        num = P[2] * Q[2]
        if d.degree:
            num = num.scale(d)
        return self._reduce(u, v, num, P[3] * Q[3])

    def power(self, P, k):
        return square_and_multiply(P, k, self.mul)

    def principal(self, P):
        """(True, monic generator) or (False, None), like
        `ideal_is_principal` on the ideal P stands for."""
        u, _, num, den = P
        if u.degree:
            return False, None
        vec = []
        for c in num.vec:
            qq, r = divmod(c, den)
            if r:
                raise ConsistencyError("Miller generator left a remainder")
            vec.append(qq)
        return True, RingElement(self.spec, tuple(vec)).monic()


def power_route(spec):
    """(start, power, principal) of an order walk at spec's rank: the k-th
    power of the ideal I is power(start(I), k), and principal on a power
    is `ideal_is_principal` on the ideal it stands for.  At m = 2 the powers
    are Miller triples under `CantorLaw`; at other m, Hermite forms."""
    if spec.m != 2:
        return (lambda I: I), ideal_pow, ideal_is_principal
    law = CantorLaw(spec)
    return law.triple, law.power, law.principal


def involution(e):
    """sigma(g0 + g1 y) = (g0 - h g1) - g1 y on the rank-2 ring
    y^2 + h y = f (`RingSpec.hyperelliptic`): the automorphism over F_q[x]
    that swaps y with the other root -h - y of its equation.  It keeps
    degrees, as deg h < deg y, so it sends a monic element of degree d to
    (-1)^d times a monic one; and as I sigma(I) = (N I) is principal, it
    sends each ideal class C to C^-1."""
    _, h = e.spec.hyperelliptic()
    g0, g1 = e.vec
    return RingElement(e.spec, (g0 - h * g1, -g1))


# -- quotients and class equivalence ----------------------------------------

def ideal_quotient(alpha, J):
    """(alpha) : J = {b in A : b J inside (alpha)} as an ideal."""
    spec = J.spec
    m = spec.m
    if alpha.is_zero:
        raise ValueError("quotient by a zero element")
    # beta qualifies iff for every generator col_j: beta * col_j = alpha * (..)
    # unknown blocks: beta's coordinates f (m), plus one m-vector h_j per col_j.
    # Below the linear system, an identity on f records each column's f.
    # The system has rank m^2 (alpha != 0), and the m columns the reduction
    # leaves without a pivot in its rows are a basis of its kernel; f
    # determines the h_j (h_j = beta col_j / alpha), so their f parts are a
    # basis of (alpha) : J.
    mul_alpha = _mult_matrix(alpha)
    cols = []
    gen_mats = [_mult_matrix(J.col_elem(j)) for j in range(m)]
    nrows = m * m
    for i in range(m):  # column for f_i
        col = []
        for Mj in gen_mats:
            col.extend(Mj[r][i] for r in range(m))
        cols.append(col)
    zero = Poly.zero(spec.field)
    for j in range(m):  # columns for h_j components
        for i in range(m):
            col = [zero] * nrows
            for r in range(m):
                col[j * m + r] = -mul_alpha[r][i]
            cols.append(col)
    one = Poly.one(spec.field)
    stacked = [(*col, *(one if k == i else zero for k in range(m)))
               for i, col in enumerate(cols)]
    _, kernel = _reduce(stacked, lambda v: _last_nonzero(v, nrows))
    if len(kernel) != m:
        raise ConsistencyError(
            f"ideal quotient kernel has {len(kernel)} vectors, not m = {m}")
    return IdealHNF(spec, _hnf_columns(spec, [v[nrows:] for v in kernel]))


def _mult_matrix(e):
    """m x m polynomial matrix of multiplication by e in the module basis."""
    spec = e.spec
    m = spec.m
    cols = [spec._mul_vec(e.vec, spec.basis_vec(k)) for k in range(m)]
    return tuple(tuple(cols[k][i] for k in range(m)) for i in range(m))


def elem_divexact(num, den):
    """num / den inside the ring, num itself when den is 1; otherwise a Cramer
    solve against den's multiplication matrix, exact at every division."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero element")
    spec = num.spec
    if den == spec.one():
        return num
    m = spec.m
    if num.is_zero:
        return spec.zero()
    M = _mult_matrix(den)
    D = poly_det([list(row) for row in M])
    sol = []
    for i in range(m):
        Mi = [[(num.vec[r] if c == i else M[r][c]) for c in range(m)]
              for r in range(m)]
        qq, rr = divmod(poly_det(Mi), D)
        if not rr.is_zero:
            raise ConsistencyError("element division left a remainder")
        sol.append(qq)
    out = RingElement(spec, tuple(sol))
    if out * den != num:
        raise ConsistencyError("element division verification failed")
    return out


def class_equivalent(I, J_inv):
    """I ~ J in the class group, given J_inv = (alpha) : J for a nonzero
    alpha in J (an ideal of the inverse class): I * J_inv is principal.
    The tests' oracle for class_group, which needs no pairwise test
    (`_is_reduced`); perfbench/tracing.py wraps it by name."""
    return ideal_is_principal(ideal_mul(I, J_inv))[0]


# -- enumeration ------------------------------------------------------------

def count_ideal_candidates(spec, d):
    """Size of the family of candidate Hermite forms of degree d: the one
    `enumerate_ideals` scans at m != 2.  At m = 2 it is the size of the scan
    the primes replaced; it still bounds the Miller walk of `class_group`,
    which runs for minutes on y^2 = x^7 + x + 1 over F_13 (h = 4,140)."""
    m = spec.m
    q = spec.field.q
    if m == 2:
        return sum(q ** (2 * d - 3 * j) for j in range(d // 2 + 1))
    total = 0
    for comp in _compositions(d, m):
        c = 1
        for i, di in enumerate(comp):
            c *= q ** (di * (1 + m - 1 - i))
        total += c
    return total


def _compositions(d, m):
    if m == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _compositions(d - first, m - 1):
            yield (first,) + rest


def require_ideal_scan(spec, top, budget):
    """Refuse, before the first candidate, a scan of degrees 0..top whose
    candidate count exceeds `budget` at some degree.  The count grows with
    the degree (raising the first diagonal degree of a degree-d candidate
    gives one of degree d + 1), so the top degree decides, and the message
    names the least degree over the budget."""
    if count_ideal_candidates(spec, top) > budget:
        d, n = next((d, n) for d in range(top + 1)
                    if (n := count_ideal_candidates(spec, d)) > budget)
        raise BudgetError(f"degree-{d} ideal enumeration scans {n} "
                          f"candidates, over the budget {budget}")


def require_maximal(spec):
    """Refuse an invalid ring, or one with finite singular points: such a
    ring is not maximal, so its ideals do not factor into primes."""
    rep = spec.require_valid()
    if rep.singular_finite:
        locus = ", ".join(poly_to_str(p) for p in rep.singular_finite)
        raise NonMaximalRingError(
            f"finite singular locus at {locus}; the ring is not maximal")


def enumerate_ideals(spec, d):
    """All ideals of degree d in a fixed documented order, as an iterator.

    m = 2: the ideals w (u', y + v') with Hermite columns (w u', 0),
    (w v', w), built from the primes (`_PrimitivePairs`), by ascending
    deg w, then w, u', v' in counting order; a ring that is not maximal is
    refused (`require_maximal`).  Other m: full candidate scan with
    stability filtering (for m = 1, the monic generators in counting
    order).
    """
    if spec.m == 2:
        require_maximal(spec)
        return _enumerate_ideals_m2(spec, d)
    spec.require_valid()
    return _enumerate_ideals_general(spec, d)


def _enumerate_ideals_m2(spec, d):
    zero = Poly.zero(spec.field)
    spec._pairs = spec._pairs or _PrimitivePairs(spec)
    pairs = spec._pairs.upto(d)
    for jw in range(d // 2 + 1):
        for w in monic_polys(spec.field, jw):
            for u, _, _, vp in pairs[d - 2 * jw]:
                yield IdealHNF(spec, ((w * u, zero), (w * vp, w)))


class _PrimitivePairs:
    """The primitive ideals (u, y - v) of a maximal rank-2 ring, built from
    its primes degree by degree and kept on the spec.

    Such an ideal is a product of prime-power pairs with coprime u: a split
    prime P gives (P, r) for each of its two roots r of v^2 + h v - f mod P
    (`_prime_roots`) and the powers (P^k, v) along each root, a ramified
    prime gives (P, r) alone, an inert prime nothing.  Primes are the
    field's irreducibles (`FF.irreducibles`), numbered by degree, then
    counting order, and a pair of degree e is a prime power or the
    composition (`CantorLaw.compose`) of a pair of lower degree, whose
    primes all come earlier, with a prime power, so each pair is built
    once.  Only the powers along the first root of a split prime are
    composed: sigma swaps the two roots and keeps u, so it maps the pairs
    whose primes all come earlier onto themselves, and
    R sigma(X) = sigma(sigma(R) X) gives the products along the second root
    as sigma-images (`CantorLaw.involution`).
    Every pair passes the Mumford condition before it is kept.  Per degree,
    `upto` lists (u, v, number of the last prime, v' = -v mod u) by u, then
    v', in counting order.
    """

    def __init__(self, spec):
        self.law = CantorLaw(spec)
        one, zero = Poly.one(spec.field), Poly.zero(spec.field)
        self.powers = [[]]              # (prime number, pair, root pair)
        self.pairs = [[(one, zero, -1, zero)]]

    def upto(self, d):
        while len(self.pairs) <= d:
            self._extend()
        return self.pairs

    def _checked(self, u, v):
        if self.law.mumford(v) % u:
            raise ConsistencyError(
                "Mumford pair with u not dividing f - h v - v^2")
        return u, v

    def _extend(self):
        law = self.law
        field = law.spec.field
        e = len(self.pairs)
        # the next power along the first root of each split prime of
        # degree | e, then the primes of degree e; a ramified prime has no
        # root pair, as its square is principal
        powers = [(i, self._checked(*law.compose(pair, root)[:2]), root)
                  for j in range(1, e) for i, pair, root in self.powers[j]
                  if root is not None and root[0].degree == e - j]
        numbered = sum(len(field.irreducibles(j)) for j in range(1, e))
        for i, P in enumerate(field.irreducibles(e), numbered):
            roots = _prime_roots(law, P)
            if roots:
                pair = self._checked(P, roots[0])
                powers.append((i, pair, pair if len(roots) == 2 else None))
        self.powers.append(powers)
        built = []
        for k in range(1, e + 1):
            for i, X, root in self.powers[k]:
                products = [X] if k == e else [
                    self._checked(*law.compose(R, X)[:2])
                    for R in self.pairs[e - k] if R[2] < i]
                for Y in products:
                    built.append((*Y, i))
                    if root is not None:
                        built.append((*self._checked(*law.involution(*Y)), i))
        self.pairs.append(sorted(((u, v, i, -v % u) for u, v, i in built),
                                 key=lambda t: (t[0].packed, t[3].packed)))


def _prime_roots(law, P):
    """The roots v mod P of v^2 + h v - f: two at a split prime, one at a
    ramified prime, none at an inert one.

    F_q[x]/P is the field of Q = q^deg P elements.  Odd p: the roots are
    (-h +- s) / 2 with s^2 = h^2 + 4 f, taken by Tonelli-Shanks; P ramifies
    when it divides h^2 + 4 f and is inert when that is no square.  p = 2:
    P ramifies when it divides h, and v = f^(Q/2) is the square root of f.
    Otherwise v = h z, z^2 + z = c for c = f / h^2, with roots exactly when
    the absolute trace of c, sum_(i<N) c^(2^i) over Q = 2^N, is 0.  Then
    z = sum_(0<i<N) T_i c^(2^i), T_i = sum_(j<i) tau^(2^j), for any tau of
    trace 1: tau = 1 when N is odd, which makes z the half-trace, and
    otherwise the first tau in counting order with trace 1 (the trace
    split).  The other root is v + h.
    """
    field = P.field
    one, zero = Poly.one(field), Poly.zero(field)
    Q = field.q ** P.degree

    def mul(a, b):
        return a * b % P

    def power(a, k):
        return square_and_multiply(a, k, mul) if k else one

    f, h = law.f % P, law.h % P
    if field.p == 2:
        if not h:
            return [power(f, Q // 2)]
        N = Q.bit_length() - 1

        def conjugates(a):
            out = [a]
            for _ in range(N - 1):
                out.append(mul(out[-1], out[-1]))
            return out

        cs = conjugates(mul(f, power(mul(h, h), Q - 2)))
        if sum(cs, zero):
            return []
        tau = one if N % 2 else next(
            t for t in polys_below(field, P.degree) if sum(conjugates(t), zero))
        z = T = zero
        for ti, ci in zip(conjugates(tau), cs):
            z += mul(T, ci)
            T += ti
        v = mul(h, z)
        return [v, v + h]
    half = field.inv(2)
    disc = (h * h + Poly._scale(f, 4 % field.p)) % P
    if not disc:
        return [Poly._scale(-h, half)]
    if power(disc, (Q - 1) // 2) != one:
        return []
    # Tonelli-Shanks with Q - 1 = 2^S T, T odd
    S, T = 0, Q - 1
    while not T % 2:
        S, T = S + 1, T // 2
    t, s = power(disc, T), power(disc, (T + 1) // 2)
    if t != one:
        # a nonsquare; the constants are squares when deg P is even
        others = islice(polys_below(field, P.degree),
                        field.q if P.degree % 2 == 0 else 1, None)
        c = power(next(a for a in others
                       if power(a, (Q - 1) // 2) != one), T)
        while t != one:
            i, t2 = 1, mul(t, t)
            while t2 != one:
                i, t2 = i + 1, mul(t2, t2)
            b = c
            for _ in range(S - i - 1):
                b = mul(b, b)
            S, c = i, mul(b, b)
            t, s = mul(t, c), mul(s, b)
    return [Poly._scale(s - h, half), Poly._scale(-s - h, half)]


def _enumerate_ideals_general(spec, d):
    """The enumerator for every rank m != 2: scan all canonical triangular
    matrices, filter by A-stability against the module generators."""
    m = spec.m
    field = spec.field
    # a cab ring is generated over F_q[x] by y = b_1 alone
    check = range(1, min(m, 2) if spec.form == "cab" else m)
    for comp in _compositions(d, m):
        diag_iters = [list(monic_polys(field, di)) for di in comp]
        off_positions = [(i, j) for j in range(m) for i in range(j)]
        off_iters = [list(polys_below(field, comp[i])) for i, _ in off_positions]
        for diag in product(*diag_iters):
            for offs in product(*off_iters):
                cols = [[Poly.zero(field)] * m for _ in range(m)]
                for j in range(m):
                    cols[j][j] = diag[j]
                for (i, j), v in zip(off_positions, offs):
                    cols[j][i] = v
                cand = IdealHNF(spec, tuple(tuple(c) for c in cols))
                if _is_stable(cand, check):
                    yield cand


def _is_stable(I, basis_indices):
    spec = I.spec
    for g in basis_indices:
        bg = RingElement(spec, spec.basis_vec(g))
        for j in range(spec.m):
            if not I.contains(bg * I.col_elem(j)):
                return False
    return True


# -- class group ------------------------------------------------------------

@dataclass
class ClassData:
    rep: IdealHNF
    degree: int
    order: int
    generator: RingElement  # monic generator of rep**order

    def __repr__(self):
        return f"<class rep deg {self.degree} order {self.order}>"


@dataclass
class LPolynomial:
    """The L-polynomial from the ideal counts, certified by point counts."""
    spec: object
    genus: int
    counts: tuple      # c_0 .. c_{2g}
    lpoly: tuple       # integer coefficients p_0 .. p_{2g}
    points_checked: int    # K: N_1 .. N_K matched the point counts

    @property
    def h(self):
        """P(1), the class number."""
        return sum(self.lpoly)


@dataclass
class ClassGroupReport(LPolynomial):
    """The L-polynomial and the classes, one reduced ideal each."""
    e: int             # lcm of the class orders
    classes: tuple     # ClassData, classes[0] is the trivial class
    partners: tuple    # m = 2: per class, the index of its inverse; else None

    def nontrivial(self):
        return self.classes[1:]


def l_polynomial(spec, *, budget=DEFAULT_IDEAL_BUDGET):
    """The certified L-polynomial; refuses rings with finite singular
    points."""
    require_maximal(spec)
    g = semigroup_from_ring(spec).genus
    require_ideal_scan(spec, g, budget)
    return _l_polynomial(spec, g)[0]


def _l_polynomial(spec, g):
    """(L-polynomial, low) of a ring of genus g whose scan is admitted: low
    lists, per degree 0..g, the primitive pairs (u, v, prime number, v') of
    `_PrimitivePairs` at m = 2, which give the counts
    c_d = sum_(j <= d/2) q^j n_(d-2j), n_e = len(low[e]); at other m, the
    ideals `enumerate_ideals` lists, which it counts."""
    q = spec.field.q
    if spec.m == 2:
        spec._pairs = spec._pairs or _PrimitivePairs(spec)
        low = spec._pairs.upto(g)[:g + 1]
        counts = [sum(q ** j * len(low[d - 2 * j]) for j in range(d // 2 + 1))
                  for d in range(g + 1)]
    else:
        low = [tuple(enumerate_ideals(spec, d)) for d in range(g + 1)]
        counts = [len(ideals) for ideals in low]
    if counts[0] != 1:
        raise ConsistencyError(f"c_0 = {counts[0]} != 1")
    lpoly = [1] + [counts[d] - q * counts[d - 1] for d in range(1, g + 1)]
    for d in range(g + 1, 2 * g + 1):
        lpoly.append(q ** (d - g) * lpoly[2 * g - d])
        counts.append(q * counts[d - 1] + lpoly[d])
    points_checked = _certify_by_points(spec, g, lpoly)
    if sum(lpoly) < 1:
        raise ConsistencyError(f"P(1) = {sum(lpoly)} < 1")
    return LPolynomial(spec=spec, genus=g, counts=tuple(counts),
                       lpoly=tuple(lpoly),
                       points_checked=points_checked), low


def class_group(spec, *, budget=DEFAULT_IDEAL_BUDGET):
    """Certified class group data, one reduced ideal per class; refuses
    rings with finite singular points."""
    require_maximal(spec)
    g = semigroup_from_ring(spec).genus
    require_ideal_scan(spec, g, budget)
    lp, low = _l_polynomial(spec, g)
    h = lp.h
    low = list(chain.from_iterable(low))
    if spec.m == 2:
        # every pair of degree <= g is the reduced ideal of its class
        one, zero = Poly.one(spec.field), Poly.zero(spec.field)
        reps = [IdealHNF(spec, ((u, zero), (vp, one))) for u, _, _, vp in low]
    else:
        # each class has one reduced ideal, of degree <= g; the ascending
        # enumeration meets it before any other ideal of its class.  Every
        # ideal of degree <= g is tested, so the reduced ones count against h.
        reps = [I for I in low if _is_reduced(I)]
    if len(reps) != h:
        raise ConsistencyError(
            f"found {len(reps)} reduced ideals of degree <= g = {g}, "
            f"but h = {h}")
    walk = _order_walk(spec, h)
    if spec.m != 2:
        classes, partners = [walk(I) for I in reps], None
    else:
        # sigma pairs each class C with C^-1, of the same order: the later
        # of the two takes sigma of the earlier one's generator, and a class
        # sigma fixes is 2-torsion, I^2 = I sigma(I) = (u)
        law = CantorLaw(spec)
        index = {(u, v): i for i, (u, v, _, _) in enumerate(low)}
        partners = tuple(index.get(law.involution(u, v)) for u, v, _, _ in low)
        if None in partners:
            raise ConsistencyError(
                "the involution maps a class representative to an ideal "
                "that is no representative")
        classes = []
        for I, j in zip(reps, partners):
            if j < len(classes):
                c = classes[j]
                classes.append(ClassData(
                    rep=I, degree=I.deg, order=c.order,
                    generator=involution(c.generator).monic()))
            elif j == len(classes) and I.deg:
                if h % 2:
                    raise ConsistencyError(
                        f"a class of order 2, but h = {h} is odd")
                classes.append(ClassData(
                    rep=I, degree=I.deg, order=2,
                    generator=spec.elem_from_poly(I.cols[0][0])))
            else:
                classes.append(walk(I))
    e = lcm(*(c.order for c in classes))
    return ClassGroupReport(**vars(lp), e=e, classes=tuple(classes),
                            partners=partners)


def _order_walk(spec, h):
    """The class data of a representative I by its order walk: the least
    divisor k of h with I^k principal, on the powers of `power_route`."""
    divisors = [k for k in range(1, h + 1) if h % k == 0]
    start, power, principal = power_route(spec)

    def walk(I):
        # (1) is the one reduced ideal of the principal class, so a rep of
        # positive degree is not principal
        powers = {1: start(I)}
        for k in divisors[1 if I.deg else 0:]:
            b = max(b for b in powers if k % b == 0)
            powers[k] = power(powers[b], k // b)
            ok, gen = principal(powers[k])
            if ok:
                return ClassData(rep=I, degree=I.deg, order=k, generator=gen)
        raise ConsistencyError("class order exceeds h; group law violated")

    return walk


def _is_reduced(I):
    """Whether I, of degree <= g, is the least-degree integral ideal of its
    class.

    For nonzero alpha in I, the integral ideals of I's class are
    (beta/alpha) I for nonzero beta in (alpha) : I, of degree
    deg I + deg beta - deg alpha, and alpha itself is such a beta; so I is
    reduced exactly when the quotient has no nonzero element of degree below
    deg alpha.  Any alpha would do; this takes w_0 of the reduced basis.
    """
    alpha = reduced_basis(I)[0]
    return reduced_basis(ideal_quotient(alpha, I))[0].degree >= alpha.degree


def _certify_by_points(spec, g, lpoly):
    """Match N_k = q^k + 1 - S_k against 1 + the affine points over F_{q^k}
    for k = 1..K, K = min(2g, largest k with q^k <= TABLE_CAP); returns K.

    S_k, the k-th power sum of the inverse roots of P, follows from Newton's
    identities k p_k + sum_{j=1}^{k} S_j p_{k-j} = 0.  Up to k = g this tests
    the enumerated counts against the geometry; beyond g it tests the half
    of P that the functional equation filled in.
    """
    q = spec.field.q
    K = 0
    while K < 2 * g and q ** (K + 1) <= TABLE_CAP:
        K += 1
    sums = []
    for k, points in enumerate(count_affine_points(spec, K), 1):
        s_k = -k * lpoly[k] - sum(sums[j - 1] * lpoly[k - j] for j in range(1, k))
        sums.append(s_k)
        want = q ** k + 1 - s_k
        got = points + 1
        if got != want:
            raise ConsistencyError(
                f"N_{k} = {got} points over GF({q}^{k}), but the L-polynomial "
                f"gives {want}")
    return K
