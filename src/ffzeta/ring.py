"""One-place affine coordinate rings presented as free F_q[x]-modules.

A ring spec fixes a basis 1 = b_0, b_1, .., b_{m-1} over F_q[x] together with
degree offsets delta_j, and grades elements by deg(x^i b_j) = i*m + delta_j
(minus the valuation at the single infinite place; deg x = m).  Three forms:

* polyring: the degenerate m = 1 spec, A = F_q[x], deg x = 1.
* cab: A = F_q[x][y] / (F) for F = y^m + c_{m-1} y^{m-1} + .. + c_0 with
  weights w(x) = m, w(y) = N = deg c_0, subject to gcd(m, N) = 1,
  w(c_0) = m*N exactly and w(c_j y^j) < m*N for 0 < j < m.  Basis b_j = y^j,
  delta_j = j*N.
* custom: explicit degree vector and an m x m multiplication table; validation
  checks commutativity, associativity, identity row, degree compatibility and
  the gcd / distinct-residue conditions that make degrees well defined.

Every form multiplies through one table of basis products b_i * b_j
(`RingSpec.mul_table`): the custom table as given, and for cab and polyring
the cells y^(i+j) reduced by F, built once per spec.  The ring is
commutative, so a product applies each distinct cell once, to the sum of
the products a_i b_j of the pairs i <= j that share it and of their
mirrors (for cab, y^(i+j) serves every pair with one sum i + j).

The rank-2 equation.  At m = 2 the one cell b_1^2 = f - h b_1 is read as
the equation b_1^2 + h b_1 = f (`RingSpec.hyperelliptic`), so a cab ring
y^2 + c_1 y + c_0 has f = -c_0 and h = c_1.  The singular locus, Cantor's
group law and the prime roots that build the ideals in `ideals`, and the
form test of `theorems` take (f, h) from there, in this one sign
convention.

Elements are coordinate vectors of m polynomials, immutable by convention.
The degree of a nonzero element is attained by a unique monomial (the
delta_j are pairwise distinct mod m), which is what makes "monic" meaningful.

The degree rule.  If the degrees of a basis w_0 .. w_{m-1} of an
F_q[x]-module inside A are pairwise distinct mod m (degree-reduced), then
deg sum_k f_k w_k = max_k (m deg f_k + deg w_k): the elements of degree < D
are the F_q-span of the x^s w_k below D, one dimension at each degree
deg w_k + m s (Hess, J. Symbolic Comput. 33, 2002).  `least_multiples`
lists them in ascending degree: for w_k = b_k the monomials (`basis_W`) and
the zeta slices (`zeta.term_leads`), for the reduced basis of an ideal
(`ideals.reduced_basis`) the class slices of `ideal_zeta`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

from ffzeta.errors import RingValidationError
from ffzeta.gf import (
    GF, NEG_INF, Poly, poly_det, poly_factor, poly_gcd, poly_to_str,
    square_and_multiply,
)


@dataclass
class RingValidationReport:
    """Outcome of ring_validate: ok flag, named failures with witnesses, and
    the finite singular locus (None where it is not computed)."""
    ok: bool
    failures: list     # (name, witness) pairs
    singular_finite: tuple | None


class RingSpec:
    """Presentation of a one-place affine coordinate ring."""

    __slots__ = ("field", "form", "m", "delta", "coeffs", "table", "name",
                 "_report", "_table", "_cells", "_basis_qpow", "_pairs")

    def __init__(self, field, form, m, delta, coeffs=None, table=None, name=None):
        self.field = field
        self.form = form
        self.m = m
        self.delta = tuple(delta)
        self.coeffs = None if coeffs is None else tuple(coeffs)
        self.table = table
        self.name = name
        self._report = None
        self._table = table
        self._cells = None
        self._basis_qpow = None
        self._pairs = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def polyring(cls, field, name=None):
        return cls(field, "polyring", 1, (0,), name=name)

    @classmethod
    def cab(cls, field, coeffs, name=None):
        """coeffs = (c_0, .., c_{m-1}) of F = y^m + c_{m-1} y^{m-1} + .. + c_0."""
        coeffs = tuple(coeffs)
        m = len(coeffs)
        if m == 0:
            raise ValueError("cab form needs at least the coefficient c_0")
        n_deg = coeffs[0].degree
        N = n_deg if isinstance(n_deg, int) else 0
        delta = tuple(j * N for j in range(m))
        return cls(field, "cab", m, delta, coeffs=coeffs, name=name)

    @classmethod
    def custom(cls, field, delta, table, name=None):
        """table[i][j] = coordinate vector (m Polys) of b_i * b_j."""
        delta = tuple(delta)
        m = len(delta)
        table = tuple(tuple(tuple(v) for v in row) for row in table)
        return cls(field, "custom", m, delta, table=table, name=name)

    # -- identity -----------------------------------------------------------

    def _key(self):
        return (self.field, self.form, self.m, self.delta, self.coeffs, self.table)

    def __eq__(self, other):
        return isinstance(other, RingSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        label = self.name or self.form
        return f"<RingSpec {label} over GF({self.field.p}^{self.field.n}) m={self.m}>"

    # -- validation ---------------------------------------------------------

    def validate(self):
        if self._report is None:
            self._report = ring_validate(self)
        return self._report

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            what = "; ".join(f"{name}: {detail}" for name, detail in rep.failures)
            raise RingValidationError(f"invalid ring spec: {what}", rep)
        return rep

    # -- degree bookkeeping -------------------------------------------------

    @property
    def q(self):
        return self.field.q

    @property
    def N(self):
        """Degree of b_1 (= deg y for cab); None for the polynomial ring."""
        return self.delta[1] if self.m > 1 else None

    def degree_in_semigroup(self, d):
        """Is d the degree of some monomial x^i b_j?"""
        return d >= 0 and self.dim_W(d + 1) > self.dim_W(d)

    def dim_W(self, d):
        """Number of monomials x^i b_j with degree < d."""
        return sum(-(-(d - dj) // self.m) for dj in self.delta if dj < d)

    def basis(self):
        """b_0 .. b_{m-1} as elements: A's own degree-reduced basis."""
        return [self.monomial(0, j) for j in range(self.m)]

    def basis_W(self, d):
        """Monomials of degree < d as elements, ascending degree."""
        self.require_valid()
        return least_multiples(self.basis(), self.dim_W(d))

    # -- element constructors -----------------------------------------------

    def zero(self):
        return RingElement(self, (Poly.zero(self.field),) * self.m)

    def one(self):
        return self.monomial(0, 0)

    def monomial(self, i, j, c=1):
        vec = [Poly.zero(self.field)] * self.m
        vec[j] = Poly.monomial(self.field, i, c)
        return RingElement(self, tuple(vec))

    def elem_from_poly(self, g):
        vec = [Poly.zero(self.field)] * self.m
        vec[0] = g
        return RingElement(self, tuple(vec))

    # -- multiplication machinery -------------------------------------------

    def mul_table(self):
        """table[i][j] = coordinate vector of b_i * b_j.  For cab and polyring
        b_i = y^i, so the cell is y^(i+j) reduced by F, built on first use."""
        if self._table is not None:
            return self._table
        m = self.m
        zero = Poly.zero(self.field)
        top = tuple(-c for c in self.coeffs or ())    # y^m
        ypow = [self.basis_vec(k) for k in range(m)]
        for _ in range(m - 1):
            prev = ypow[-1]
            ypow.append(tuple((prev[i - 1] if i else zero) + prev[-1] * top[i]
                              for i in range(m)))
        self._table = tuple(tuple(ypow[i + j] for j in range(m))
                            for i in range(m))
        return self._table

    def hyperelliptic(self):
        """(f, h) of the rank-2 equation b_1^2 + h b_1 = f, read from the
        cell b_1^2 = f - h b_1; for cab, f = -c_0 and h = c_1."""
        f, minus_h = self.mul_table()[1][1]
        return f, -minus_h

    def _mul_vec(self, a, b):
        """Per distinct cell of the table, sum the products a_i b_j of the
        index pairs that share it, then apply the cell once; a unit entry is
        added without a product.  A pair i < j stands for its mirror too,
        which relies on b_i b_j = b_j b_i, as `_symmetric_cells` enforces."""
        cells = self._cells
        if cells is None:
            cells = self._cells = _symmetric_cells(self.mul_table())
        zero = Poly.zero(self.field)
        out = [zero] * self.m
        for products, terms in cells:
            acc = None
            for i, j in products:
                ga, gb = a[i], b[j]
                if ga.packed and gb.packed:
                    acc = ga * gb if acc is None else acc + ga * gb
            if acc is not None:
                for k, g in terms:
                    term = acc if g is None else acc * g
                    # the first term of a slot is stored, not added to zero
                    out[k] = term if out[k] is zero else out[k] + term
        return tuple(out)

    def basis_vec(self, j):
        vec = [Poly.zero(self.field)] * self.m
        vec[j] = Poly.one(self.field)
        return tuple(vec)

    def basis_qpow(self):
        """Coordinate vectors of b_j^q, for `RingElement.frobenius_q`."""
        if self._basis_qpow is None:
            self._basis_qpow = tuple(
                square_and_multiply(self.basis_vec(j), self.q, self._mul_vec)
                for j in range(self.m))
        return self._basis_qpow

    # -- enumeration --------------------------------------------------------

    def enumerate_monic(self, d):
        """Monic elements of degree d: leading monomial plus every combination
        of lower-degree monomials, in counting order of the coefficient vector
        (first basis monomial least significant).  The tests' brute-force
        oracle for `zeta`; `perfbench/tracing.py` wraps it by name."""
        self.require_valid()
        if not self.degree_in_semigroup(d):
            return
        *below, lead = self.basis_W(d + 1)
        yield from affine_combinations(lead, below)

    def count_monic(self, d):
        return self.field.q ** self.dim_W(d) if self.degree_in_semigroup(d) else 0


class RingElement:
    """Element of a RingSpec, a coordinate vector of m polynomials."""

    __slots__ = ("spec", "vec")

    def __init__(self, spec, vec):
        self.spec = spec
        self.vec = vec

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self):
        return all(g.is_zero for g in self.vec)

    @property
    def degree(self):
        return NEG_INF if self.is_zero else self.leading()[0]

    def leading(self):
        """(degree, component index, coefficient code) of the top monomial."""
        spec = self.spec
        terms = [(spec.m * g.degree + spec.delta[j], j, g.lc)
                 for j, g in enumerate(self.vec) if g.packed]
        if not terms:
            raise ValueError("the zero element has no leading monomial")
        return max(terms)

    def monic(self):
        _, _, c = self.leading()
        if c == 1:
            return self
        return self.scale_const(self.spec.field.inv(c))

    def poly_part(self):
        """The F_q[x] coordinate if the element lies in F_q[x], else None."""
        if any(not g.is_zero for g in self.vec[1:]):
            return None
        return self.vec[0]

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        return (isinstance(other, RingElement) and self.vec == other.vec
                and (self.spec is other.spec or self.spec == other.spec))

    def __hash__(self):
        return hash(tuple(g.packed for g in self.vec))

    def _same_spec(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("elements of different rings")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        self._same_spec(other)
        return RingElement(self.spec, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        return RingElement(self.spec, tuple(-a for a in self.vec))

    def __sub__(self, other):
        self._same_spec(other)
        return RingElement(self.spec, tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __mul__(self, other):
        if isinstance(other, Poly):
            return self.scale(other)
        self._same_spec(other)
        return RingElement(self.spec, self.spec._mul_vec(self.vec, other.vec))

    def scale(self, g):
        return RingElement(self.spec, tuple(a * g for a in self.vec))

    def scale_const(self, c):
        return RingElement(self.spec, tuple(Poly._scale(a, c) for a in self.vec))

    def __pow__(self, k):
        return self.pow_digits(k)

    def frobenius_q(self):
        """The q-power, via a^q = sum spread(g_j) * b_j^q."""
        spec = self.spec
        q = spec.q
        rows = spec.basis_qpow()
        zero = Poly.zero(spec.field)
        acc = [zero] * spec.m
        for j, g in enumerate(self.vec):
            if not g.packed:
                continue
            gq = g.spread(q)
            for i, r in enumerate(rows[j]):
                if r.packed:
                    term = gq * r
                    acc[i] = term if acc[i] is zero else acc[i] + term
        return RingElement(spec, tuple(acc))

    def pow_digits(self, s):
        """a^s = prod_i (a^(q^i))^(d_i) over the base-q digits d_i of s.

        Successive a^(q^i) come from the cached Frobenius, and each nonzero
        digit power (a^(q^i))^(d_i) is one `gf.square_and_multiply`.  No
        product has the identity as a factor; a^0 is the identity itself.
        """
        if s < 0:
            raise ValueError("negative element power")
        q = self.spec.q
        r = None
        base = self
        while s:
            s, d = divmod(s, q)
            if d:
                piece = square_and_multiply(base, d, operator.mul)
                r = piece if r is None else r * piece
            if s:
                base = base.frobenius_q()
        return self.spec.one() if r is None else r

    def __repr__(self):
        return f"RingElement[{elem_to_str(self)}]"


def elem_to_str(e):
    return ", ".join(poly_to_str(g) for g in e.vec)


def _symmetric_cells(table):
    """(products, terms) for each distinct nonzero cell of the table:
    products the index pairs (i, j) and (j, i) of every pair i <= j whose
    cell b_i b_j it is, terms its nonzero entries (k, entry); entry None
    stands for the unit 1.  A table with b_i b_j != b_j b_i is refused: one
    cell serves both."""
    products = {}
    for i, row in enumerate(table):
        for j in range(i, len(row)):
            if row[j] != table[j][i]:
                raise ValueError(f"the table is not commutative: b_{i} b_{j} != b_{j} b_{i}")
            if any(g.packed for g in row[j]):
                mirrors = ((i, j),) if i == j else ((i, j), (j, i))
                products.setdefault(row[j], []).extend(mirrors)
    return tuple((tuple(pairs), tuple((k, None if g.packed == 1 else g)
                                      for k, g in enumerate(cell) if g.packed))
                 for cell, pairs in products.items())


def least_multiples(ws, count):
    """The `count` least elements x^s w, w in the degree-reduced basis ws and
    s >= 0, ascending by degree (the degree rule of the module docstring)."""
    m, field = ws[0].spec.m, ws[0].spec.field
    least = sorted((w.degree + m * s, k, s) for k, w in enumerate(ws)
                   for s in range(count))
    return [ws[k] * Poly.monomial(field, s) for _, k, s in least[:count]]


def affine_combinations(lead, basis):
    """lead plus every F_q-combination of basis, in counting order of the
    coefficient vector (first basis element least significant)."""
    q = lead.spec.field.q
    # multiples[i][c] = c * basis[i], built once for every combination
    multiples = [[None] + [w.scale_const(c) for c in range(1, q)] for w in basis]
    for k in range(q ** len(basis)):
        acc = lead
        kk = k
        for mult in multiples:
            if kk == 0:
                break
            kk, c = divmod(kk, q)
            if c:
                acc = acc + mult[c]
        yield acc


def echelon_insert(ech, v):
    """Reduce v against the monic F_q-echelon `ech` (leading degree ->
    element); store a nonzero remainder there made monic.  True when v was
    independent of ech."""
    while not v.is_zero:
        d, _, c = v.leading()
        w = ech.get(d)
        if w is None:
            ech[d] = v.scale_const(v.spec.field.inv(c))
            return True
        v = v - w.scale_const(c)
    return False


# -- points -----------------------------------------------------------------

def count_affine_points(spec, K):
    """Affine points of the ring over F_{q^k} for k = 1..K, as a list: pairs
    of x0 in F_{q^k} and basis images beta_0 = 1, beta_1 .. beta_{m-1} in
    F_{q^k} that satisfy beta_i beta_j = sum_l T_ijl(x0) beta_l for every
    cell of the table.

    Such a beta_j is an eigenvalue of multiplication by b_j at x0, so the
    candidates are the roots of that characteristic polynomial
    (`FF.roots`: two tables at m = 2, a scan of F_{q^k} at other m), and
    every tuple of them is tested against all cells.  The characteristic
    polynomials are taken once over F_q[x], and each distinct polynomial
    among them and the cells is evaluated once per x0.  The table has
    coefficients in F_q, so x0 and its conjugate x0^q carry equally many
    points: one x0 per Frobenius orbit (`FF.frobenius_orbits`) is solved
    and counted with the orbit's size.  F_{q^k} is GF(p, n k) with F_q
    embedded by a root of F_q's modulus (`FF.embedding`).  Orbits, root
    tables and embeddings are kept on the fields, so only the first count
    over a field builds them.
    """
    field = spec.field
    m = spec.m
    table = spec.mul_table()
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    distinct = {}

    def index(g):
        return distinct.setdefault(g.coeffs, len(distinct))

    cells = [[index(g) for g in table[i][j]] for i, j in pairs]
    chis = [[index(e) for e in chi] for chi in _char_polys(spec)]
    counts = []
    for k in range(1, K + 1):
        E = GF(field.p, field.n * k)
        addl, mull = E._addl, E._mull
        emb = E.embedding(field)
        polys = [[emb[c] for c in cs] for cs in distinct]
        count = 0
        for x0, orbit in E.frobenius_orbits(field.q):
            vals = [E.evaluate(cs, x0) for cs in polys]
            rows = [[vals[c] for c in cell] for cell in cells]
            cands = [(1,)]
            for chi in chis:
                cands.append(E.roots([vals[c] for c in chi]))
            for beta in product(*cands):
                if all(mull[beta[i]][beta[j]] == _dot(row, beta, addl, mull)
                       for (i, j), row in zip(pairs, rows)):
                    count += orbit
        counts.append(count)
    return counts


def _char_polys(spec):
    """For j = 1 .. m-1, det(T I - M_j) as its coefficients in F_q[x], lowest
    power of T first, where column c of M_j is the cell b_j * b_c.  The
    coefficient of T^(m-k) is (-1)^k times the sum of the k x k principal
    minors of M_j."""
    m = spec.m
    table = spec.mul_table()
    zero, one = Poly.zero(spec.field), Poly.one(spec.field)
    out = []
    for j in range(1, m):
        M = [[table[j][c][r] for c in range(m)] for r in range(m)]
        chi = []
        for k in range(m, -1, -1):
            e = sum((poly_det([[M[r][c] for c in S] for r in S])
                     for S in combinations(range(m), k)), zero) if k else one
            chi.append(-e if k % 2 else e)
        out.append(chi)
    return out


def _dot(vec, beta, addl, mull):
    acc = 0
    for v, b in zip(vec, beta):
        acc = addl[acc][mull[v][b]]
    return acc


# -- validation -------------------------------------------------------------

def ring_validate(spec):
    """Check the invariants of the presented form; failures carry witnesses.

    The finite singular locus is computed for valid specs of rank m <= 2,
    from the equation b_1^2 + h b_1 = f when m = 2; it is None otherwise.
    """
    failures = []
    m = spec.m
    if spec.form == "polyring":
        if m != 1 or spec.delta != (0,):
            failures.append(("polyring-shape", f"m={m}, delta={spec.delta}"))
    elif spec.form == "cab":
        _validate_cab(spec, failures)
    elif spec.form == "custom":
        _validate_custom(spec, failures)
    else:
        failures.append(("form", f"unknown form {spec.form!r}"))
    singular = None
    if not failures and m == 1:
        singular = ()
    elif not failures and m == 2:
        singular = _singular_locus_m2(spec.field, *spec.hyperelliptic())
    return RingValidationReport(not failures, failures, singular)


def _validate_cab(spec, failures):
    m = spec.m
    coeffs = spec.coeffs
    for j, c in enumerate(coeffs):
        if not isinstance(c, Poly) or c.field != spec.field:
            failures.append(("coefficients", f"c_{j} is not a polynomial over the base field"))
            return
    c0 = coeffs[0]
    if c0.is_zero or (c0.degree < 1 and m > 1):
        failures.append(("c0-degree", f"c_0 = {poly_to_str(c0)} must have degree >= 1"))
        return
    N = c0.degree
    if gcd(m, N) != 1:
        failures.append(("gcd", f"gcd(m, N) = gcd({m}, {N}) != 1"))
    for j in range(1, m):
        cj = coeffs[j]
        if not cj.is_zero and m * cj.degree + j * N >= m * N:
            failures.append(
                ("weight", f"w(c_{j} y^{j}) = {m * cj.degree + j * N} >= m*N = {m * N}"))


def _singular_locus_m2(field, f, h):
    """Monic irreducibles over whose roots y^2 + h y = f is singular."""
    if field.p == 2:
        df, dh = f.derivative(), h.derivative()
        g = poly_gcd(h, dh * dh * f + df * df)
    else:
        inv4 = Poly.const(field, field.inv(field.mul(2, 2)))
        disc = h * h * inv4 + f
        g = poly_gcd(disc, disc.derivative())
    if g.degree < 1:
        return ()
    _, facs = poly_factor(g)
    return tuple(pi for pi, _ in facs)


def _validate_custom(spec, failures):
    m = spec.m
    delta = spec.delta
    table = spec.table
    if delta[0] != 0:
        failures.append(("delta0", f"delta_0 = {delta[0]} must be 0"))
    if any(d < 0 for d in delta):
        failures.append(("delta-sign", f"negative degree offset in {delta}"))
    if len({d % m for d in delta}) != m:
        failures.append(("delta-residues", f"delta residues mod m collide: {delta}"))
    g = m
    for d in delta[1:]:
        g = gcd(g, d)
    if m > 1 and g != 1:
        failures.append(("gcd", f"gcd(m, delta_1, ..) = {g} != 1"))
    if len(table) != m or any(len(row) != m for row in table):
        failures.append(("table-shape", f"need an {m}x{m} table"))
        return
    for i in range(m):
        for j in range(m):
            if len(table[i][j]) != m:
                failures.append(("table-shape", f"entry ({i},{j}) has wrong length"))
                return
    if failures:
        return
    # identity row
    for j in range(m):
        if table[0][j] != spec.basis_vec(j):
            failures.append(("identity", f"b_0 * b_{j} != b_{j}"))
    # commutativity
    for i in range(m):
        for j in range(i + 1, m):
            if table[i][j] != table[j][i]:
                failures.append(("commutativity", f"b_{i} b_{j} != b_{j} b_{i}"))
    # degree compatibility
    for i, j in product(range(m), repeat=2):
        deg = RingElement(spec, table[i][j]).degree
        if deg != delta[i] + delta[j]:
            failures.append(("degree", f"deg(b_{i} b_{j}) = {deg} != {delta[i] + delta[j]}"))
    if failures:
        return
    # associativity on basis triples, products only of a commutative table
    for i, j, k in product(range(m), repeat=3):
        if (spec._mul_vec(table[i][j], spec.basis_vec(k))
                != spec._mul_vec(spec.basis_vec(i), table[j][k])):
            failures.append(("associativity", f"(b_{i} b_{j}) b_{k} != b_{i} (b_{j} b_{k})"))
