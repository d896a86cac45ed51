"""Exact arithmetic in small finite fields F_q and in the polynomial ring F_q[x].

Field elements are plain ints in [0, q).  For a prime field the code is the
residue itself; for F_{p^n} the base-p digits of the code are the coefficients
of the residue polynomial in the generator t, lowest power first, reduced by
the field modulus.  All element operations go through tables precomputed on
the `FF` instance, so values stay exact machine ints throughout.

Polynomials are immutable `Poly` values: a field reference plus a tuple of
coefficient codes, lowest degree first, no trailing zeros.  The zero
polynomial has an empty tuple and degree `NEG_INF`.  Products of long
polynomials run through numpy convolutions (per base-p digit plane for
extension fields); everything is reduced mod p immediately, so no rounding
ever enters.

Polynomial literals use one grammar everywhere (files, CLI, reprs): terms
joined by `+`, each term `c`, `c*x^k`, `x^k` or `x`, coefficients are plain
integers reduced mod p, or for extension fields polynomials in `t` such as
`(t+1)*x^2 + t`.  Output is re-ingestible.
"""

from __future__ import annotations

import itertools

import numpy as np

NEG_INF = float("-inf")

_PRIMES = (2, 3, 5, 7, 11, 13)
_TABLE_CAP = 512

# numpy paths pay off only past these sizes; below them plain loops with the
# scalar tables win on constant factors.
_ADD_NP_MIN = 64
_MUL_NP_MIN = 81


class FF:
    """Tables for F_q, q = p^n <= 512, elements encoded as ints in [0, q)."""

    __slots__ = (
        "p", "n", "q", "modulus",
        "_addl", "_subl", "_mull", "_negl", "_invl", "_frobl",
        "_add_np", "_mul_np", "_dig", "_red", "_powvec",
    )

    def __init__(self, p, n=1, modulus=None):
        if p not in _PRIMES:
            raise ValueError(f"characteristic must be one of {_PRIMES}, got {p}")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        q = p ** n
        if q > _TABLE_CAP:
            raise ValueError(f"q = p^n must be <= {_TABLE_CAP}, got {q}")
        self.p = p
        self.n = n
        self.q = q
        if n == 1:
            if modulus is not None:
                raise ValueError("modulus applies only to extension fields (n > 1)")
            self.modulus = None
        else:
            if modulus is None:
                modulus = default_modulus(p, n)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {n} over F_{p}, got {modulus}")
            if not is_irreducible(Poly(GF(p), modulus)):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, n, q = self.p, self.n, self.q
        codes = np.arange(q, dtype=np.int64)
        powvec = p ** np.arange(n, dtype=np.int64)
        dig = (codes[:, None] // powvec[None, :]) % p
        self._dig = dig
        self._powvec = powvec
        add = ((dig[:, None, :] + dig[None, :, :]) % p) @ powvec
        self._add_np = add
        if n == 1:
            mul = (codes[:, None] * codes[None, :]) % p
            red = None
        else:
            # rows of `red` express t^(n+j) in the power basis
            mod = np.array(self.modulus[:-1], dtype=np.int64)
            red = np.zeros((n - 1, n), dtype=np.int64)
            row = (-mod) % p
            for j in range(n - 1):
                red[j] = row
                row = np.concatenate(([0], row[:-1])) + row[-1] * ((-mod) % p)
                row %= p
            # coefficients of the product of two digit vectors, then reduce
            prod = np.zeros((q, q, 2 * n - 1), dtype=np.int64)
            for a in range(n):
                for b in range(n):
                    prod[:, :, a + b] += np.outer(dig[:, a], dig[:, b])
            low = prod[:, :, :n]
            high = prod[:, :, n:]
            mul = ((low + high @ red) % p) @ powvec
        self._red = red
        self._mul_np = mul
        self._addl = add.tolist()
        self._mull = mul.tolist()
        self._negl = (((-dig) % p) @ powvec).tolist()
        sub = ((dig[:, None, :] - dig[None, :, :]) % p) @ powvec
        self._subl = sub.tolist()
        inv = [0] * q
        for a in range(1, q):
            # q is tiny, a linear scan per element is fine
            row = self._mull[a]
            inv[a] = row.index(1)
        self._invl = inv
        frob = [0] * q
        for a in range(q):
            acc = a
            for _ in range(1, p):
                acc = self._mull[acc][a]
            frob[a] = acc
        self._frobl = frob

    # -- scalar operations --------------------------------------------------

    def add(self, a, b):
        return self._addl[a][b]

    def sub(self, a, b):
        return self._subl[a][b]

    def mul(self, a, b):
        return self._mull[a][b]

    def neg(self, a):
        return self._negl[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._invl[a]

    def frob(self, a):
        """a^p."""
        return self._frobl[a]

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        r = 1
        while k:
            if k & 1:
                r = self._mull[r][a]
            a = self._mull[a][a]
            k >>= 1
        return r

    def digits(self, a):
        """Base-p digit tuple of the code, lowest power of t first."""
        return tuple(int(d) for d in self._dig[a])

    def from_digits(self, ds):
        c = 0
        for d in reversed(tuple(ds)):
            c = c * self.p + (int(d) % self.p)
        return c

    # -- element literals ---------------------------------------------------

    def el_to_str(self, a):
        if self.n == 1:
            return str(a)
        ds = self.digits(a)
        terms = []
        for k in range(self.n - 1, -1, -1):
            c = ds[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                tp = "t" if k == 1 else f"t^{k}"
                terms.append(tp if c == 1 else f"{c}*{tp}")
        return " + ".join(terms) if terms else "0"

    def el_from_str(self, s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")") and _top_level_span(s):
            s = s[1:-1]
        acc = 0
        for piece in _split_top(s, "+"):
            piece = piece.strip()
            if not piece:
                raise ValueError(f"empty term in field element literal {s!r}")
            acc = self.add(acc, self._el_term(piece, s))
        return acc

    def _el_term(self, piece, ctx):
        code = 1
        exp = 0
        for part in _split_top(piece, "*"):
            part = part.strip()
            if part.isdigit():
                code = self.mul(code, int(part) % self.p)
            elif part == "t" or (part.startswith("t^") and part[2:].isdigit()):
                if self.n == 1:
                    raise ValueError(f"'t' is not defined over the prime field: {ctx!r}")
                exp += 1 if part == "t" else int(part[2:])
            elif part.startswith("(") and _top_level_span(part):
                code = self.mul(code, self.el_from_str(part[1:-1]))
            else:
                raise ValueError(f"bad token {part!r} in field element literal {ctx!r}")
        if exp:
            code = self.mul(code, self.pow(self.p, exp))  # code p encodes t
        return code

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FF)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        mod = Poly(GF(self.p), self.modulus)
        return f"GF({self.p}^{self.n}, {poly_to_str(mod, 't')})"


_FIELDS: dict = {}


def GF(p, n=1, modulus=None):
    """Cached field constructor; GF(p, n) reuses one table set per modulus."""
    key = (p, n, None if modulus is None else tuple(int(c) % p for c in modulus))
    f = _FIELDS.get(key)
    if f is None:
        f = FF(p, n, modulus)
        _FIELDS[key] = f
        _FIELDS[(p, n, f.modulus)] = f
    return f


def default_modulus(p, n):
    """Smallest monic irreducible of degree n over F_p in counting order."""
    base = GF(p)
    for k in range(p ** n):
        cand = Poly(base, _digits_of(k, p, n) + (1,))
        if is_irreducible(cand):
            return cand.coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _digits_of(k, q, width):
    ds = []
    for _ in range(width):
        k, r = divmod(k, q)
        ds.append(r)
    return tuple(ds)


class Poly:
    """Immutable dense polynomial over a fixed finite field."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs):
        q = field.q
        cs = []
        for c in coeffs:
            c = int(c)
            if not 0 <= c < q:
                raise ValueError(f"coefficient {c!r} is not a code in [0, {q})")
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        self._init(field, tuple(cs))

    def _init(self, field, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, field, coeffs):
        self = object.__new__(cls)
        self._init(field, coeffs)
        return self

    @classmethod
    def zero(cls, field):
        return cls._raw(field, ())

    @classmethod
    def one(cls, field):
        return cls._raw(field, (1,))

    @classmethod
    def x(cls, field):
        return cls._raw(field, (0, 1))

    @classmethod
    def const(cls, field, c):
        return cls._raw(field, (c,) if c else ())

    @classmethod
    def monomial(cls, field, k, c=1):
        return cls._raw(field, (0,) * k + (c,)) if c else cls.zero(field)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def sort_key(self):
        """Orders by degree, then by counting order of the coefficient vector."""
        return (len(self.coeffs), tuple(reversed(self.coeffs)))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Poly)
                and self.coeffs == other.coeffs
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.coeffs, self.field.p, self.field.n))
            object.__setattr__(self, "_hash", h)
        return h

    def _same_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("polynomials over different fields")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if not a:
            return other
        if not b:
            return self
        if len(a) < len(b):
            a, b = b, a
        if len(a) >= _ADD_NP_MIN:
            f = self.field
            arr = np.array(a, dtype=np.int64)
            arr[: len(b)] = f._add_np[arr[: len(b)], np.array(b, dtype=np.int64)]
            return Poly._raw(f, _strip(arr.tolist()))
        addl = self.field._addl
        out = list(a)
        for i, c in enumerate(b):
            out[i] = addl[out[i]][c]
        return Poly._raw(self.field, _strip(out))

    def __neg__(self):
        negl = self.field._negl
        return Poly._raw(self.field, tuple(negl[c] for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        if len(a) == 1:
            return self._scale(other, a[0])
        if len(b) == 1:
            return self._scale(self, b[0])
        if len(a) * len(b) < _MUL_NP_MIN:
            mull, addl = f._mull, f._addl
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca == 0:
                    continue
                row = mull[ca]
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = addl[out[i + j]][row[cb]]
            return Poly._raw(f, _strip(out))
        return self._mul_np(other)

    @staticmethod
    def _scale(poly, c):
        if c == 0:
            return Poly.zero(poly.field)
        if c == 1:
            return poly
        row = poly.field._mull[c]
        return Poly._raw(poly.field, tuple(row[v] for v in poly.coeffs))

    def _mul_np(self, other):
        # float64 convolution is exact here: every partial sum is bounded by
        # min(len) * (p-1)^2 which stays far below 2^53 at any usable size
        f = self.field
        p = f.p
        la, lb = len(self.coeffs), len(other.coeffs)
        dtype = np.float64 if min(la, lb) * (p - 1) * (p - 1) < 2**52 else np.int64
        if f.n == 1:
            a = np.array(self.coeffs, dtype=dtype)
            b = np.array(other.coeffs, dtype=dtype)
            out = np.convolve(a, b).astype(np.int64) % p
            return Poly._raw(f, _strip(out.tolist()))
        A = f._dig[np.array(self.coeffs, dtype=np.int64)].astype(dtype)
        B = f._dig[np.array(other.coeffs, dtype=np.int64)].astype(dtype)
        n = f.n
        prod = np.zeros((la + lb - 1, 2 * n - 1), dtype=np.int64)
        for a in range(n):
            col = A[:, a]
            if not col.any():
                continue
            for b in range(n):
                if B[:, b].any():
                    prod[:, a + b] += np.convolve(col, B[:, b]).astype(np.int64)
        digs = (prod[:, :n] + prod[:, n:] @ f._red) % p
        codes = digs @ f._powvec
        return Poly._raw(f, _strip(codes.tolist()))

    def __divmod__(self, other):
        self._same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        db = other.degree
        if self.degree < db:
            return Poly.zero(f), self
        inv_lb = f.inv(other.lc)
        mull, subl = f._mull, f._subl
        rem = list(self.coeffs)
        b = other.coeffs
        qcs = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            qc = mull[c][inv_lb]
            qcs[i - db] = qc
            row = mull[qc]
            off = i - db
            for j in range(db + 1):
                rem[off + j] = subl[rem[off + j]][row[b[j]]]
        return Poly._raw(f, _strip(qcs)), Poly._raw(f, _strip(rem[:db]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        r = Poly.one(self.field)
        b = self
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return r

    # -- derived operations -------------------------------------------------

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return Poly._scale(self, self.field.inv(self.lc))

    def shift(self, k):
        """Multiply by x^k."""
        if self.is_zero or k == 0:
            return self
        return Poly._raw(self.field, (0,) * k + self.coeffs)

    def spread(self, stride):
        """Substitute x -> x^stride; equals the q-power Frobenius when stride = q."""
        if stride == 1 or self.is_zero:
            return self
        out = [0] * (stride * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[stride * i] = c
        return Poly._raw(self.field, tuple(out))

    def derivative(self):
        f = self.field
        mull = f._mull
        # the integer i mod p is its own code in every F_{p^n}
        out = [mull[i % f.p][self.coeffs[i]] for i in range(1, len(self.coeffs))]
        return Poly._raw(f, _strip(out))

    def eval(self, a):
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, a), c)
        return acc

    def __repr__(self):
        return f"Poly[{poly_to_str(self)}]"


def _strip(cs):
    k = len(cs)
    while k and cs[k - 1] == 0:
        k -= 1
    return tuple(cs[:k])


def poly_gcd(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


# -- enumeration ------------------------------------------------------------

def monic_polys(field, degree):
    """Monic polynomials of exact degree, ascending counting order.

    Counting order: the coefficient vector (c_0, .., c_{d-1}) is read as a
    base-q integer with the constant term least significant, so over F_2 the
    degree-1 sequence is x, x+1.
    """
    if degree < 0:
        return
    q = field.q
    for k in range(q ** degree):
        yield Poly._raw(field, _digits_of(k, q, degree) + (1,))


def polys_below(field, degree):
    """All polynomials of degree < `degree` (q^degree of them), counting order."""
    q = field.q
    for k in range(q ** max(degree, 0)):
        yield Poly._raw(field, _strip(_digits_of(k, q, degree)))


# -- factorization ----------------------------------------------------------

def poly_factor(f):
    """(unit code, [(monic irreducible, multiplicity), ...]) sorted ascending.

    Trial division in counting order; every input in this library's workload
    has degree around ten or less, so simplicity wins over asymptotics.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lc
    g = f.monic()
    out = []
    d = 1
    while 2 * d <= g.degree:
        for cand in monic_polys(f.field, d):
            if 2 * d > g.degree:
                break
            e = 0
            while True:
                q_, r = divmod(g, cand)
                if not r.is_zero:
                    break
                g = q_
                e += 1
            if e:
                out.append((cand, e))
        d += 1
    if g.degree >= 1:
        out.append((g, 1))
    return unit, out


def is_irreducible(f):
    if f.is_zero or f.degree < 1:
        return False
    d = 1
    while 2 * d <= f.degree:
        for cand in monic_polys(f.field, d):
            if (f % cand).is_zero:
                return False
        d += 1
    return True


def is_squarefree(f):
    """Squarefree test via gcd with the derivative (exact in char p).

    In char p the derivative vanishes on p-th powers, so a zero derivative
    with positive degree means not squarefree; otherwise gcd(f, f') = 1 is
    equivalent to squarefree.
    """
    if f.is_zero:
        return False
    if f.degree == 0:
        return True
    d = f.derivative()
    if d.is_zero:
        return False
    return poly_gcd(f, d).degree == 0


def valuation_profile(num, den):
    """Valuations of the fraction num/den at every finite irreducible place.

    Returns [(monic irreducible, exponent)] with nonzero exponents only,
    sorted ascending; denominators contribute negative exponents.
    """
    if num.is_zero:
        raise ValueError("valuation profile of 0 is not defined")
    if den.is_zero:
        raise ZeroDivisionError("valuation profile with zero denominator")
    vals: dict = {}
    for sign, poly in ((1, num), (-1, den)):
        _, facs = poly_factor(poly)
        for pi, e in facs:
            vals[pi] = vals.get(pi, 0) + sign * e
    out = [(pi, e) for pi, e in vals.items() if e]
    out.sort(key=lambda t: t[0].sort_key)
    return out


# -- literals ---------------------------------------------------------------

def _split_top(s, sep):
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {s!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {s!r}")
    parts.append("".join(cur))
    return parts


def _top_level_span(s):
    """True when the opening paren at 0 matches the final character."""
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i == len(s) - 1
    return False


def poly_from_str(field, s, var="x"):
    s = s.strip()
    if not s:
        raise ValueError("empty polynomial literal")
    if "-" in s:
        raise ValueError(
            f"{s!r}: '-' is not part of the literal grammar; use mod-{field.p} coefficients")
    acc = Poly.zero(field)
    for piece in _split_top(s, "+"):
        piece = piece.strip()
        if not piece:
            raise ValueError(f"empty term in polynomial literal {s!r}")
        acc = acc + _parse_term(field, piece, var, s)
    return acc


def _parse_term(field, piece, var, ctx):
    code = 1
    exp = 0
    for part in _split_top(piece, "*"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty factor in term {piece!r} of {ctx!r}")
        if part == var:
            exp += 1
        elif part.startswith(var + "^") and part[len(var) + 1:].isdigit():
            exp += int(part[len(var) + 1:])
        elif part.isdigit():
            code = field.mul(code, int(part) % field.p)
        elif part.startswith("("):
            code = field.mul(code, field.el_from_str(part))
        elif "t" in part and field.n > 1:
            code = field.mul(code, field.el_from_str(part))
        else:
            raise ValueError(f"bad token {part!r} in polynomial literal {ctx!r}")
    return Poly.monomial(field, exp, code)


def poly_to_str(f, var="x"):
    if f.is_zero:
        return "0"
    field = f.field
    terms = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        cs = field.el_to_str(c)
        if k == 0:
            terms.append(cs)
            continue
        xp = var if k == 1 else f"{var}^{k}"
        if c == 1:
            terms.append(xp)
        elif field.n > 1 and c >= field.p:
            terms.append(f"({cs})*{xp}")
        else:
            terms.append(f"{cs}*{xp}")
    return " + ".join(terms)
