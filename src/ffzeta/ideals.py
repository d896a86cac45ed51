"""Nonzero ideals of a one-place ring in Hermite normal form, and the class
group certified through the L-polynomial.

An ideal is the column span over F_q[x] of an upper-triangular m x m matrix
with monic diagonal and off-diagonal entries reduced mod the diagonal of
their row; that form is unique per ideal, so equality is matrix equality.
deg I = sum of the diagonal degrees = dim_{F_q} A/I.

The class group pipeline enumerates the ideals of degree 0..g, forms the
L-polynomial p_d = c_d - q c_{d-1} for d <= g, fills p_{g+1}..p_{2g} by the
functional equation p_{2g-i} = q^{g-i} p_i and rebuilds c_{g+1}..c_{2g}
from them.  The point counts N_k over F_{q^k}, k = 1..K (K = min(2g, largest
k with q^k <= 512)), certify the result: below g they test the enumeration,
beyond g the half the functional equation filled in.  It reads off h = P(1),
then keeps, in degree order, the enumerated ideals that are reduced until it
has h of them.  With one rational place at infinity, two elements of equal
degree differ by one of lower degree, so the least-degree elements of a
fractional ideal span one F_q-line: every class holds exactly one integral
ideal of least degree, its reduced ideal (Hess's reduction; Cantor's reduced
divisors for m = 2), and Riemann-Roch puts it at degree <= g.  One ideal
quotient per ideal tests it (`_is_reduced`).  Principality itself is read
off the F_q-echelon of the ideal: I is principal exactly when it contains an
element of degree deg I (such an element generates, since (alpha) sits
inside I with the same codimension deg alpha = deg I).

Ideals are `IdealHNF` values, immutable by convention like the `Poly` and
`RingElement` values they are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import lcm

from ffzeta.errors import BudgetError, ConsistencyError, NonMaximalRingError
from ffzeta.gf import (TABLE_CAP, Poly, monic_polys, poly_det, poly_to_str,
                       polys_below)
from ffzeta.ring import RingElement, count_affine_points, echelon_insert
from ffzeta.semigroup import semigroup_from_ring

DEFAULT_IDEAL_BUDGET = 4_000_000


# -- column elimination over F_q[x] -----------------------------------------

def _eliminate_rows(cols, rows):
    """Column-echelon elimination on the given pivot rows, in order.

    cols: list of mutable lists of Polys.  Returns (pivots, leftovers) where
    pivots maps row -> single column with the gcd of that row's entries (and
    zeros in previously processed rows), leftovers have zeros in all pivot
    rows.  Column operations only, so spans are preserved.
    """
    pivots = {}
    pool = [c for c in cols if any(not g.is_zero for g in c)]
    for i in rows:
        active = [c for c in pool if not c[i].is_zero]
        rest = [c for c in pool if c[i].is_zero]
        while len(active) > 1:
            active.sort(key=lambda c: c[i].degree)
            base = active[0]
            keep = [base]
            for c in active[1:]:
                qq = c[i] // base[i]
                cc = [c[r] - qq * base[r] for r in range(len(c))]
                if cc[i].is_zero:
                    if any(not g.is_zero for g in cc):
                        rest.append(cc)
                else:
                    keep.append(cc)
            active = keep
        if active:
            pivots[i] = active[0]
        pool = rest
    return pivots, pool


def _hnf_columns(spec, cols):
    """Canonical upper-triangular column HNF of a full-rank column family."""
    m = spec.m
    field = spec.field
    work = [list(c) for c in cols]
    pivots, _ = _eliminate_rows(work, range(m - 1, -1, -1))
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


def _kernel_columns(mat_cols, nrows):
    """Kernel basis (as coefficient vectors) of the matrix with the given
    columns over F_q[x]: stack an identity below and keep the combinations
    whose top part eliminated to zero."""
    k = len(mat_cols)
    if k == 0:
        return []
    field = mat_cols[0][0].field
    stacked = []
    for j, col in enumerate(mat_cols):
        unit = [Poly.zero(field)] * k
        unit[j] = Poly.one(field)
        stacked.append(list(col) + unit)
    _, leftovers = _eliminate_rows(stacked, range(nrows - 1, -1, -1))
    return [tuple(c[nrows:]) for c in leftovers]


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

    @property
    def diagonal(self):
        return tuple(self.cols[i][i] for i in range(self.spec.m))

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
    cols = []
    for g in gens:
        for j in range(spec.m):
            prod = g * RingElement(spec, spec.basis_vec(j))
            cols.append(list(prod.vec))
    return IdealHNF(spec, _hnf_columns(spec, cols))


def ideal_mul(I, J):
    spec = I.spec
    cols = []
    for a in I.generators():
        for b in J.generators():
            cols.append(list((a * b).vec))
    return IdealHNF(spec, _hnf_columns(spec, cols))


def ideal_pow(I, k):
    if k < 1:
        raise ValueError("ideal powers need k >= 1")
    r = None
    b = I
    while k:
        if k & 1:
            r = b if r is None else ideal_mul(r, b)
        k >>= 1
        if k:
            b = ideal_mul(b, b)
    return r


def unit_ideal(spec):
    return ideal_from_generators([spec.one()], spec)


# -- echelon bases and principality -----------------------------------------

def ideal_echelon(I, up_to):
    """F_q-echelon of {a in I : deg a <= up_to}: degree -> monic element.

    Complete for every degree <= up_to.  Generators are x^t * col_j with t
    bounded by back-substitution through the triangular form, which is what
    makes low-degree elements reachable even when every generating column
    has higher degree.
    """
    spec = I.spec
    m = spec.m
    field = spec.field
    # B_i: max deg_x of coordinate i among elements of degree <= up_to
    B = [(up_to - spec.delta[i]) // m if up_to >= spec.delta[i] else -1
         for i in range(m)]
    F = [0] * m
    for j in range(m - 1, -1, -1):
        num = B[j]
        for j2 in range(j + 1, m):
            r = I.cols[j2][j]
            if not r.is_zero and F[j2] >= 0:
                num = max(num, r.degree + F[j2])
        F[j] = num - I.cols[j][j].degree
    ech = {}
    for j in range(m):
        col = I.col_elem(j)
        for t in range(F[j] + 1):
            echelon_insert(ech, col if t == 0 else col * Poly.monomial(field, t))
    return ech


def ideal_is_principal(I):
    """(True, monic generator) or (False, None).

    I is principal iff it contains an element of degree deg I: any such monic
    element generates, because (alpha) inside I has codimension deg alpha.
    """
    d = I.deg
    ech = ideal_echelon(I, d)
    gen = ech.get(d)
    if gen is None:
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
    # Stack the linear system and read beta from the kernel.
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
    kern = _kernel_columns(cols, nrows)
    gens = []
    for vec in kern:
        f_part = vec[:m]
        if any(not g.is_zero for g in f_part):
            gens.append(RingElement(spec, tuple(f_part)))
    if not gens:
        raise ConsistencyError("empty ideal quotient; alpha J^-1 should be nonzero")
    return ideal_from_generators(gens, spec)


def _mult_matrix(e):
    """m x m polynomial matrix of multiplication by e in the module basis."""
    spec = e.spec
    m = spec.m
    cols = [spec._mul_vec(e.vec, spec.basis_vec(k)) for k in range(m)]
    return tuple(tuple(cols[k][i] for k in range(m)) for i in range(m))


def elem_divexact(num, den):
    """num / den inside the ring; Cramer solve against den's multiplication
    matrix, with a zero-remainder requirement at every division."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero element")
    spec = num.spec
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
    """All ideals of degree d, in a fixed documented order.

    m = 1: monic generators in counting order.  m = 2: stability prunes the
    triangular candidates to w | u, w | v and u' | F(-v') (u = w u',
    v = w v'), scanned by ascending deg w, then w, u', v' in counting order.
    Larger m: full candidate scan with stability filtering.
    """
    spec.require_valid()
    if d < 0:
        return
    if count_ideal_candidates(spec, d) > budget:
        raise BudgetError(
            f"degree-{d} ideal enumeration scans "
            f"{count_ideal_candidates(spec, d)} candidates, over the budget {budget}")
    m = spec.m
    field = spec.field
    if m == 1:
        for u in monic_polys(field, d):
            yield IdealHNF(spec, ((u,),))
        return
    if m == 2:
        r0, r1 = spec.mul_table()[1][1]    # b_1^2 = r0 + r1 b_1
        for jw in range(d // 2 + 1):
            iu = d - 2 * jw
            for w in monic_polys(field, jw):
                for up in monic_polys(field, iu):
                    u = w * up
                    for vp in polys_below(field, iu):
                        # u' | v'^2 - r1 v' - r0  certifies A-stability
                        if (vp * vp - r1 * vp - r0) % up:
                            continue
                        col0 = (u, Poly.zero(field))
                        col1 = (w * vp, w)
                        yield IdealHNF(spec, (col0, col1))
        return
    yield from _enumerate_ideals_general(spec, d)


def _enumerate_ideals_general(spec, d):
    """Reference path: scan all canonical triangular matrices, filter by
    A-stability against the module generators."""
    m = spec.m
    field = spec.field
    check = range(1, 2) if spec.form == "cab" else range(1, m)
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
class ClassGroupReport:
    spec: object
    genus: int
    counts: tuple      # c_0 .. c_{2g}
    lpoly: tuple       # integer coefficients p_0 .. p_{2g}
    h: int
    e: int             # lcm of the class orders
    classes: tuple     # ClassData, classes[0] is the trivial class
    points_checked: int    # K: N_1 .. N_K matched the point counts

    def nontrivial(self):
        return self.classes[1:]


def class_group(spec, *, budget=DEFAULT_IDEAL_BUDGET):
    """Certified class group data; refuses rings with finite singular points."""
    rep = spec.require_valid()
    if rep.singular_finite:
        locus = ", ".join(poly_to_str(p) for p in rep.singular_finite)
        raise NonMaximalRingError(
            f"finite singular locus at {locus}; the ring is not maximal")
    S = semigroup_from_ring(spec)
    g = S.genus
    q = spec.field.q
    low = [list(enumerate_ideals(spec, d, budget=budget)) for d in range(g + 1)]
    counts = [len(ideals) for ideals in low]
    if counts[0] != 1:
        raise ConsistencyError(f"c_0 = {counts[0]} != 1")
    lpoly = [1] + [counts[d] - q * counts[d - 1] for d in range(1, g + 1)]
    for d in range(g + 1, 2 * g + 1):
        lpoly.append(q ** (d - g) * lpoly[2 * g - d])
        counts.append(q * counts[d - 1] + lpoly[d])
    points_checked = _certify_by_points(spec, g, lpoly)
    h = sum(lpoly)
    if h < 1:
        raise ConsistencyError(f"P(1) = {h} < 1")
    # each class has one reduced ideal, of degree <= g; the ascending
    # enumeration meets it before any other ideal of its class
    reps = []
    for I in chain.from_iterable(low):
        if _is_reduced(I, g):
            reps.append(I)
            if len(reps) == h:
                break
    if len(reps) < h:
        raise ConsistencyError(
            f"found only {len(reps)} of {h} classes among the ideals of "
            f"degree <= g = {g}")
    classes = []
    for I in reps:
        order = None
        power = None
        for k in range(1, h + 1):
            power = I if power is None else ideal_mul(power, I)
            ok, gen = ideal_is_principal(power)
            if ok:
                order = k
                break
        if order is None:
            raise ConsistencyError("class order exceeds h; group law violated")
        classes.append(ClassData(rep=I, degree=I.deg, order=order, generator=gen))
    e = lcm(*(c.order for c in classes))
    return ClassGroupReport(spec=spec, genus=g, counts=tuple(counts),
                            lpoly=tuple(lpoly), h=h, e=e, classes=tuple(classes),
                            points_checked=points_checked)


def _is_reduced(I, g):
    """Whether I is the least-degree integral ideal of its class.

    For nonzero alpha in I, the integral ideals of I's class are
    (beta/alpha) I for nonzero beta in (alpha) : I, of degree
    deg I + deg beta - deg alpha, and alpha itself is such a beta; so I is
    reduced exactly when the quotient has no nonzero element of degree below
    deg alpha.  Any alpha would do; the least-degree one, of degree
    <= deg I + g by Riemann-Roch, keeps the quotient at degree <= g.
    """
    ech = ideal_echelon(I, I.deg + g)
    least = min(ech)
    below = ideal_echelon(ideal_quotient(ech[least], I), least - 1)
    return min(below, default=least) >= least


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
