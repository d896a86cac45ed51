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

Elements are immutable coordinate vectors of m polynomials.  The degree of a
nonzero element is attained by a unique monomial (the delta_j are pairwise
distinct mod m), which is what makes "monic" meaningful.
"""

from __future__ import annotations

from ffzeta.errors import RingValidationError
from ffzeta.gf import (
    NEG_INF, Poly, is_squarefree, poly_factor, poly_gcd, poly_to_str,
    poly_from_str,
)


class RingValidationReport:
    """Outcome of ring_validate: ok flag, named failures with witnesses, and
    derived data (degree semigroup generators, finite singular locus)."""

    def __init__(self, ok, failures, form, m, delta, singular_finite):
        self.ok = ok
        self.failures = failures
        self.form = form
        self.m = m
        self.delta = delta
        self.singular_finite = singular_finite

    def __repr__(self):
        state = "ok" if self.ok else f"failed {[name for name, _ in self.failures]}"
        return f"<RingValidationReport {self.form} m={self.m} {state}>"


class RingSpec:
    """Presentation of a one-place affine coordinate ring."""

    __slots__ = ("field", "form", "m", "delta", "coeffs", "table", "name",
                 "_report", "_ypow_rows", "_basis_qpow")

    def __init__(self, field, form, m, delta, coeffs=None, table=None, name=None):
        self.field = field
        self.form = form
        self.m = m
        self.delta = tuple(delta)
        self.coeffs = None if coeffs is None else tuple(coeffs)
        self.table = table
        self.name = name
        self._report = None
        self._ypow_rows = None
        self._basis_qpow = None

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

    def semigroup_generators(self):
        return (self.m,) + tuple(self.delta[1:]) if self.m > 1 else (1,)

    def degree_in_semigroup(self, d):
        """Is d the degree of some monomial x^i b_j?"""
        if d < 0:
            return False
        j = self._residue_basis(d)
        return j is not None and self.delta[j] <= d

    def _residue_basis(self, d):
        r = d % self.m
        for j, dj in enumerate(self.delta):
            if dj % self.m == r:
                return j
        return None

    def dim_W(self, d):
        """Number of monomials x^i b_j with degree < d."""
        total = 0
        for dj in self.delta:
            if dj < d:
                total += -(-(d - dj) // self.m)  # ceil
        return total

    def basis_W(self, d):
        """Monomials of degree < d as elements, ascending degree."""
        self.require_valid()
        mons = []
        for j, dj in enumerate(self.delta):
            i = 0
            while self.m * i + dj < d:
                mons.append((self.m * i + dj, i, j))
                i += 1
        mons.sort()
        return [self.monomial(i, j) for _, i, j in mons]

    def leading_monomial(self, d):
        """The unique monomial x^i b_j of degree d, as an element."""
        j = self._residue_basis(d)
        if j is None or self.delta[j] > d:
            raise ValueError(f"{d} is a gap of the degree semigroup")
        return self.monomial((d - self.delta[j]) // self.m, j)

    # -- element constructors -----------------------------------------------

    def elem(self, vec):
        vec = tuple(vec)
        if len(vec) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(vec)}")
        for g in vec:
            if not isinstance(g, Poly) or g.field != self.field:
                raise ValueError("coordinates must be polynomials over the ring's field")
        return RingElement(self, vec)

    def zero(self):
        return RingElement(self, (Poly.zero(self.field),) * self.m)

    def one(self):
        return self.monomial(0, 0)

    def x(self):
        return self.elem_from_poly(Poly.x(self.field))

    def y(self):
        if self.m < 2:
            raise ValueError("the polynomial ring has no second generator")
        return self.monomial(0, 1)

    def monomial(self, i, j, c=1):
        vec = [Poly.zero(self.field)] * self.m
        vec[j] = Poly.monomial(self.field, i, c)
        return RingElement(self, tuple(vec))

    def elem_from_poly(self, g):
        vec = [Poly.zero(self.field)] * self.m
        vec[0] = g
        return RingElement(self, tuple(vec))

    def elem_from_str(self, s):
        parts = s.split(";") if ";" in s else s.split(",")
        if len(parts) == 1 and self.m > 1:
            # bare polynomial literal: the poly-part embedding
            return self.elem_from_poly(poly_from_str(self.field, s))
        if len(parts) != self.m:
            raise ValueError(
                f"element literal needs {self.m} comma-separated components, got {len(parts)}")
        return self.elem(tuple(poly_from_str(self.field, part) for part in parts))

    # -- multiplication machinery -------------------------------------------

    def _rows(self):
        """Coordinate rows of y^m, .., y^{2m-2} for cab reduction."""
        if self._ypow_rows is None:
            self.require_valid()
            m = self.m
            first = tuple(-c for c in self.coeffs)
            rows = [first]
            zero = Poly.zero(self.field)
            for _ in range(m - 2):
                prev = rows[-1]
                top = prev[-1]
                shifted = (zero,) + prev[:-1]
                rows.append(tuple(shifted[i] + top * first[i] for i in range(m)))
            self._ypow_rows = tuple(rows)
        return self._ypow_rows

    def _mul_vec(self, a, b):
        m = self.m
        if m == 1:
            return (a[0] * b[0],)
        if self.form == "cab":
            conv = [Poly.zero(self.field) for _ in range(2 * m - 1)]
            for i, ga in enumerate(a):
                if ga.is_zero:
                    continue
                for j, gb in enumerate(b):
                    if not gb.is_zero:
                        conv[i + j] = conv[i + j] + ga * gb
            out = conv[:m]
            rows = self._rows()
            for k in range(m, 2 * m - 1):
                extra = conv[k]
                if extra.is_zero:
                    continue
                row = rows[k - m]
                out = [out[i] + extra * row[i] for i in range(m)]
            return tuple(out)
        out = [Poly.zero(self.field) for _ in range(m)]
        for i, ga in enumerate(a):
            if ga.is_zero:
                continue
            for j, gb in enumerate(b):
                if gb.is_zero:
                    continue
                coef = ga * gb
                cell = self.table[i][j]
                for k in range(m):
                    if not cell[k].is_zero:
                        out[k] = out[k] + coef * cell[k]
        return tuple(out)

    def basis_vec(self, j):
        vec = [Poly.zero(self.field)] * self.m
        vec[j] = Poly.one(self.field)
        return tuple(vec)

    def basis_qpow(self):
        """Coordinate vectors of b_j^q, for `RingElement.frobenius_q`."""
        if self._basis_qpow is None:
            q = self.q
            out = []
            for j in range(self.m):
                acc = self.basis_vec(0)
                base = self.basis_vec(j)
                k = q
                while k:
                    if k & 1:
                        acc = self._mul_vec(acc, base)
                    base = self._mul_vec(base, base)
                    k >>= 1
                out.append(acc)
            self._basis_qpow = tuple(out)
        return self._basis_qpow

    # -- enumeration --------------------------------------------------------

    def enumerate_monic(self, d):
        """Monic elements of degree d: leading monomial plus every combination
        of lower-degree monomials, in counting order of the coefficient vector
        (first basis monomial least significant)."""
        self.require_valid()
        if d == 0:
            yield self.one()
            return
        if d < 0 or not self.degree_in_semigroup(d):
            return
        yield from affine_combinations(self.leading_monomial(d), self.basis_W(d))

    def count_monic(self, d):
        if d == 0:
            return 1
        if d < 0 or not self.degree_in_semigroup(d):
            return 0
        return self.field.q ** self.dim_W(d)


class RingElement:
    """Immutable element of a RingSpec, a coordinate vector of m polynomials."""

    __slots__ = ("spec", "vec", "_hash")

    def __init__(self, spec, vec):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RingElement is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self):
        return all(g.is_zero for g in self.vec)

    @property
    def degree(self):
        spec = self.spec
        best = NEG_INF
        for j, g in enumerate(self.vec):
            if not g.is_zero:
                d = spec.m * g.degree + spec.delta[j]
                if d > best:
                    best = d
        return best

    def leading(self):
        """(degree, component index, coefficient code) of the top monomial."""
        spec = self.spec
        best = None
        for j, g in enumerate(self.vec):
            if not g.is_zero:
                d = spec.m * g.degree + spec.delta[j]
                if best is None or d > best[0]:
                    best = (d, j, g.lc)
        if best is None:
            raise ValueError("the zero element has no leading monomial")
        return best

    @property
    def is_monic(self):
        return not self.is_zero and self.leading()[2] == 1

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
        h = self._hash
        if h is None:
            h = hash(tuple(g.coeffs for g in self.vec))
            object.__setattr__(self, "_hash", h)
        return h

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
        acc = [Poly.zero(spec.field)] * spec.m
        for j, g in enumerate(self.vec):
            if g.is_zero:
                continue
            gq = g.spread(q)
            row = rows[j]
            for i in range(spec.m):
                if not row[i].is_zero:
                    acc[i] = acc[i] + gq * row[i]
        return RingElement(spec, tuple(acc))

    def pow_digits(self, s):
        """a^s = prod_i (a^(q^i))^(d_i) over the base-q digits d_i of s.

        Successive a^(q^i) come from the cached Frobenius; each digit power
        is taken by square-and-multiply.  No product has the identity as a
        factor.
        """
        if s < 0:
            raise ValueError("negative element power")
        q = self.spec.q
        r = None
        base = self
        while s:
            s, d = divmod(s, q)
            if d:
                piece = None
                b = base
                while True:
                    if d & 1:
                        piece = b if piece is None else piece * b
                    d >>= 1
                    if not d:
                        break
                    b = b * b
                r = piece if r is None else r * piece
            if s:
                base = base.frobenius_q()
        return self.spec.one() if r is None else r

    def __repr__(self):
        return f"RingElement[{elem_to_str(self)}]"


def elem_to_str(e):
    return ", ".join(poly_to_str(g) for g in e.vec)


def affine_combinations(lead, basis):
    """lead plus every F_q-combination of basis, in counting order of the
    coefficient vector (first basis element least significant)."""
    q = lead.spec.field.q
    for k in range(q ** len(basis)):
        acc = lead
        kk = k
        for w in basis:
            if kk == 0:
                break
            kk, c = divmod(kk, q)
            if c:
                acc = acc + w.scale_const(c)
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


# -- validation -------------------------------------------------------------

def ring_validate(spec):
    """Check the invariants of the presented form; failures carry witnesses."""
    failures = []
    singular = None
    m = spec.m
    if spec.form == "polyring":
        if m != 1 or spec.delta != (0,):
            failures.append(("polyring-shape", f"m={m}, delta={spec.delta}"))
        singular = ()
    elif spec.form == "cab":
        singular = _validate_cab(spec, failures)
    elif spec.form == "custom":
        singular = _validate_custom(spec, failures)
    else:
        failures.append(("form", f"unknown form {spec.form!r}"))
    return RingValidationReport(not failures, failures, spec.form, m, spec.delta, singular)


def _validate_cab(spec, failures):
    m = spec.m
    coeffs = spec.coeffs
    for j, c in enumerate(coeffs):
        if not isinstance(c, Poly) or c.field != spec.field:
            failures.append(("coefficients", f"c_{j} is not a polynomial over the base field"))
            return None
    c0 = coeffs[0]
    if c0.is_zero or (c0.degree < 1 and m > 1):
        failures.append(("c0-degree", f"c_0 = {poly_to_str(c0)} must have degree >= 1"))
        return None
    N = c0.degree
    from math import gcd
    if gcd(m, N) != 1:
        failures.append(("gcd", f"gcd(m, N) = gcd({m}, {N}) != 1"))
    for j in range(1, m):
        cj = coeffs[j]
        if not cj.is_zero and m * cj.degree + j * N >= m * N:
            failures.append(
                ("weight", f"w(c_{j} y^{j}) = {m * cj.degree + j * N} >= m*N = {m * N}"))
    if failures:
        return None
    if m == 1:
        return ()
    if m == 2:
        return _singular_locus_m2(spec.field, coeffs[0], coeffs[1])
    return None


def _singular_locus_m2(field, c0, c1):
    """Monic irreducibles over whose roots y^2 + c1 y + c0 = 0 is singular."""
    if field.p == 2:
        d0, d1 = c0.derivative(), c1.derivative()
        g = poly_gcd(c1, d1 * d1 * c0 + d0 * d0)
    else:
        inv4 = Poly.const(field, field.inv(field.mul(2, 2)))
        disc = c1 * c1 * inv4 - c0
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
    from math import gcd
    g = m
    for d in delta[1:]:
        g = gcd(g, d)
    if m > 1 and g != 1:
        failures.append(("gcd", f"gcd(m, delta_1, ..) = {g} != 1"))
    if len(table) != m or any(len(row) != m for row in table):
        failures.append(("table-shape", f"need an {m}x{m} table"))
        return None
    for i in range(m):
        for j in range(m):
            if len(table[i][j]) != m:
                failures.append(("table-shape", f"entry ({i},{j}) has wrong length"))
                return None
    if failures:
        return None
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
    for i in range(m):
        for j in range(m):
            prod = RingElement(spec, table[i][j])
            if prod.degree != delta[i] + delta[j]:
                failures.append(
                    ("degree", f"deg(b_{i} b_{j}) = {prod.degree} != {delta[i] + delta[j]}"))
    if failures:
        return None
    # associativity on basis triples
    for i in range(m):
        for j in range(m):
            for k in range(m):
                left = spec._mul_vec(spec._mul_vec(spec.basis_vec(i), spec.basis_vec(j)),
                                     spec.basis_vec(k))
                right = spec._mul_vec(spec.basis_vec(i),
                                      spec._mul_vec(spec.basis_vec(j), spec.basis_vec(k)))
                if left != right:
                    failures.append(("associativity", f"(b_{i} b_{j}) b_{k} != b_{i} (b_{j} b_{k})"))
    if failures:
        return None
    if m == 2:
        # b_1^2 = t0 + t1 b_1 means y^2 - t1 y - t0 = 0
        t0, t1 = table[1][1]
        return _singular_locus_m2(spec.field, -t0, -t1)
    return None
