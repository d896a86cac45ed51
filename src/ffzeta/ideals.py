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
degree, generates.

The L-polynomial (`l_polynomial`) enumerates the ideals of degree 0..g,
forms p_d = c_d - q c_{d-1} for d <= g, fills p_{g+1}..p_{2g} by the
functional equation p_{2g-i} = q^{g-i} p_i and rebuilds c_{g+1}..c_{2g}
from them.  The point counts N_k over F_{q^k}, k = 1..K (K = min(2g, largest
k with q^k <= 512)), certify the result: below g they test the enumeration,
beyond g the half the functional equation filled in.  The class group
(`class_group`) reads off h = P(1), then keeps, in degree order, the same
enumerated ideals that are reduced until it has h of them: every class
holds exactly one integral ideal of least degree, its reduced ideal (Hess's
reduction; Cantor's reduced divisors for m = 2), of degree <= g by
Riemann-Roch, and one ideal quotient per ideal tests it (`_is_reduced`).
A class order divides h (Lagrange), so the order of I is the least divisor
k of h with I^k principal, and only the divisors are tried, in ascending
order; each I^k is built from the largest power I^b already built with
b | k, as (I^b)^(k/b).  (1) is the one reduced ideal of the principal
class, so a representative of positive degree starts at the second divisor.

Ideals are `IdealHNF` values, immutable by convention like the `Poly` and
`RingElement` values they are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import lcm

from ffzeta.errors import BudgetError, ConsistencyError, NonMaximalRingError
from ffzeta.gf import (TABLE_CAP, Poly, monic_polys, poly_det, poly_to_str,
                       polys_below, square_and_multiply)
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

    def rows(self):
        m = self.spec.m
        return tuple(tuple(self.cols[j][i] for j in range(m)) for i in range(m))

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
        rows = self.rows()
        body = "; ".join("[" + ", ".join(poly_to_str(g) for g in row) + "]" for row in rows)
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


def unit_ideal(spec):
    return ideal_from_generators([spec.one()], spec)


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
    element degree, deg w_0 of the reduced basis, is deg I."""
    gen = reduced_basis(I)[0].monic()
    if gen.degree != I.deg:
        return False, None
    if ideal_from_generators([gen], I.spec) != I:
        raise ConsistencyError("degree-matched element failed to generate; ideal bug")
    return True, gen


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
    """Size of the candidate matrix family scanned for degree d."""
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


def enumerate_ideals(spec, d, *, budget=DEFAULT_IDEAL_BUDGET):
    """All ideals of degree d in a fixed documented order; the call checks
    the budget before the first candidate, and returns an iterator.

    m = 2: stability prunes the triangular candidates to w | u, w | v and
    u' | F(-v') (u = w u', v = w v'), scanned by ascending deg w, then w,
    u', v' in counting order.  Other m: full candidate scan with stability
    filtering (for m = 1, the monic generators in counting order).
    """
    spec.require_valid()
    if d < 0:
        return iter(())
    if count_ideal_candidates(spec, d) > budget:
        raise BudgetError(
            f"degree-{d} ideal enumeration scans "
            f"{count_ideal_candidates(spec, d)} candidates, over the budget {budget}")
    if spec.m == 2:
        return _enumerate_ideals_m2(spec, d)
    return _enumerate_ideals_general(spec, d)


def _enumerate_ideals_m2(spec, d):
    field = spec.field
    zero = Poly.zero(field)
    r0, r1 = spec.mul_table()[1][1]    # b_1^2 = r0 + r1 b_1
    for jw in range(d // 2 + 1):
        iu = d - 2 * jw
        # u' | F(v') = v'^2 - r1 v' - r0 certifies A-stability; F(v') is
        # formed once per v' and tested against every (w, u')
        values = [(vp, vp * vp - r1 * vp - r0) for vp in polys_below(field, iu)]
        for w in monic_polys(field, jw):
            for up in monic_polys(field, iu):
                col0 = (w * up, zero)
                for vp, f in values:
                    if not f % up:
                        yield IdealHNF(spec, (col0, (w * vp, w)))


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
    low_ideals: tuple  # per degree 0 .. g, its ideals in enumeration order

    @property
    def h(self):
        """P(1), the class number."""
        return sum(self.lpoly)


@dataclass
class ClassGroupReport(LPolynomial):
    """The L-polynomial and the classes read off its ideals."""
    e: int             # lcm of the class orders
    classes: tuple     # ClassData, classes[0] is the trivial class

    def nontrivial(self):
        return self.classes[1:]


def low_ideal_scan(spec):
    """The candidates `l_polynomial` (so `class_group`) scans at its largest
    degree.  It enumerates degrees 0..g, and the count grows with the degree
    (raising the first diagonal degree of a degree-d candidate gives one of
    degree d + 1), so either is refused over a budget exactly when this
    count exceeds it, and the count needs no enumeration."""
    return count_ideal_candidates(spec, semigroup_from_ring(spec).genus)


def l_polynomial(spec, *, budget=DEFAULT_IDEAL_BUDGET):
    """The certified L-polynomial; refuses rings with finite singular
    points."""
    rep = spec.require_valid()
    if rep.singular_finite:
        locus = ", ".join(poly_to_str(p) for p in rep.singular_finite)
        raise NonMaximalRingError(
            f"finite singular locus at {locus}; the ring is not maximal")
    S = semigroup_from_ring(spec)
    g = S.genus
    q = spec.field.q
    # every degree is checked against the budget before any is enumerated
    planned = [enumerate_ideals(spec, d, budget=budget) for d in range(g + 1)]
    low = tuple(tuple(ideals) for ideals in planned)
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
                       lpoly=tuple(lpoly), points_checked=points_checked,
                       low_ideals=low)


def class_group(spec, *, budget=DEFAULT_IDEAL_BUDGET):
    """Certified class group data on the ideals `l_polynomial` enumerated;
    refuses rings with finite singular points."""
    lp = l_polynomial(spec, budget=budget)
    g, h = lp.genus, lp.h
    # each class has one reduced ideal, of degree <= g; the ascending
    # enumeration meets it before any other ideal of its class
    reps = []
    for I in chain.from_iterable(lp.low_ideals):
        if _is_reduced(I):
            reps.append(I)
            if len(reps) == h:
                break
    if len(reps) < h:
        raise ConsistencyError(
            f"found only {len(reps)} of {h} classes among the ideals of "
            f"degree <= g = {g}")
    divisors = [k for k in range(1, h + 1) if h % k == 0]
    classes = []
    for I in reps:
        # (1) is the one reduced ideal of the principal class, so a rep of
        # positive degree is not principal
        powers = {1: I}
        for k in divisors[1 if I.deg else 0:]:
            b = max(b for b in powers if k % b == 0)
            powers[k] = ideal_pow(powers[b], k // b)
            ok, gen = ideal_is_principal(powers[k])
            if ok:
                break
        else:
            raise ConsistencyError("class order exceeds h; group law violated")
        classes.append(ClassData(rep=I, degree=I.deg, order=k, generator=gen))
    e = lcm(*(c.order for c in classes))
    return ClassGroupReport(**vars(lp), e=e, classes=tuple(classes))


def _is_reduced(I):
    """Whether I is the least-degree integral ideal of its class.

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
    for k in range(1, K + 1):
        s_k = -k * lpoly[k] - sum(sums[j - 1] * lpoly[k - j] for j in range(1, k))
        sums.append(s_k)
        want = q ** k + 1 - s_k
        got = count_affine_points(spec, k) + 1
        if got != want:
            raise ConsistencyError(
                f"N_{k} = {got} points over GF({q}^{k}), but the L-polynomial "
                f"gives {want}")
    return K
