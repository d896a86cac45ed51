"""Exact arithmetic in small finite fields F_q and in the polynomial ring F_q[x].

Field elements are plain ints in [0, q).  For a prime field the code is the
residue itself; for F_{p^n} the base-p digits of the code are the coefficients
of the residue polynomial in the generator t, lowest power first, reduced by
the field modulus.  All element operations go through tables precomputed on
the `FF` instance, so values stay exact machine ints throughout.

A field also keeps the tables that depend on it alone, each built on first
use (`FF` lists them): the Frobenius orbits, the quadratic-root tables, the
embeddings of its subfields and its monic irreducibles by degree.  `GF()`
hands out one `FF` per field, and only fields with q <= TABLE_CAP exist, so
every ring over a field reads the same tables and their memory is bounded.

Polynomials are `Poly` values: a field reference plus one packed Python int,
immutable by convention (no operation writes to an existing `Poly`).  The
int holds one little-endian byte per base-p digit: byte n*j + i is digit i
of the code of c_j, so a prime field has one byte per coefficient, and the
bytes i, i + n, i + 2n, ... form digit plane i.  The int has no leading zero
bytes, so the zero polynomial is 0 (degree `NEG_INF`) and the degree follows
from the bit length.  Packed ints order by degree, then like the coefficient
vectors read from the top, which is the order `valuation_profile` sorts
factors in; `coeffs` decodes the tuple of codes.

Every digit is below p <= 31, and every operation keeps each byte slot below
256 until `bytes.translate` reduces it mod p, so no carry ever crosses a
slot:
* add and sub sum two digits, at most 2(p-1); at p = 2 they are XOR.
  Negation and scaling by a prime-field code are one translate; scaling by
  another code c maps each coefficient code through row c of the
  multiplication table and repacks, so no slot holds a sum.
* a product spreads each digit plane into k-byte slots and multiplies plane
  pairs as big ints (Kronecker substitution; Karatsuba over the two planes
  of F_{p^2}).  A slot then sums at most min(la, lb) n (p-1)^2
  (1 + (n-1)(p-1)) once the planes above t^(n-1) are folded back, and k is
  the least byte count above that bound; k = 1 needs no spreading.
  Reducing a slot sums its k <= 8 bytes, each reduced mod p first, so at
  most 8(p-1) <= 255: the tightest bound here, and the one that caps p.
* divmod adds negated multiples of the divisor, digits at most p-1 each,
  and reduces every 255 // (p-1) - 1 steps, so a slot stays at most
  (steps + 1)(p-1) <= 255.
No floats enter anywhere.

Polynomial literals use one grammar everywhere (files, CLI, reprs): terms
joined by `+`, each term a `*`-product of factors `x`, `x^k`, plain integers
reduced mod p, parenthesised constant literals, and over an extension field
`t` or `t^k`.  A field element is itself a polynomial in t read by this
grammar, as the modulus is: `poly_from_str` reads `(t+1)*x^2 + t`, and
`poly_to_str`, through `FF.el_to_str`, writes it back.  Output is
re-ingestible.
"""

from __future__ import annotations

import operator
from itertools import product

NEG_INF = float("-inf")

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
TABLE_CAP = 512


class FF:
    """Tables for F_q, q = p^n <= 512, elements encoded as ints in [0, q).

    The arithmetic tables are built with the field.  Four more are built on
    first use and kept:
    * `frobenius_orbits(r)`: one code per orbit of x -> x^r, with its size,
      per subfield order r;
    * `roots`: for a monic quadratic, the square roots and the roots of
      Z^2 + Z, one tuple of codes per value;
    * `embedding(sub)`: the codes of a subfield's elements, per subfield;
    * `irreducibles(d)`: the monic irreducibles of degree d, about q^d / d
      of them, for the degrees the ideal scans ask for, which their budget
      bounds.
    The first three hold at most q entries per key, and a field has at most
    nine subfields.
    """

    __slots__ = (
        "p", "n", "q", "modulus",
        "_addl", "_mull", "_invl",
        "_dig", "_codeb", "_packl", "_unpack", "_mulb", "_mods", "_fold",
        "_slot_bound",
        "_orbits", "_root_tables", "_embeddings", "_irreducibles",
    )

    def __init__(self, p, n=1, modulus=None):
        if p not in _PRIMES:
            raise ValueError(f"characteristic must be one of {_PRIMES}, got {p}")
        if n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n}")
        q = p ** n
        if q > TABLE_CAP:
            raise ValueError(f"q = p^n must be <= {TABLE_CAP}, got {q}")
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
        self._orbits = {}
        self._root_tables = None
        self._embeddings = {}
        self._irreducibles = [()]

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        p, n, q = self.p, self.n, self.q
        codes = range(q)
        # a code is a base-p digit vector: digit i of a is a // p^i % p
        self._dig = dig = [tuple(a // p ** i % p for i in range(n)) for a in codes]
        self._addl = add = [list(codes)]
        for a in codes[1:]:
            up = add[a // p]
            add.append([p * up[b // p] + (a + b) % p for b in codes])
        # scalars d < p act digitwise
        self._mull = mul = [[self.from_digits(d * c for c in ds) for ds in dig]
                            for d in range(p)]
        if n > 1:
            # multiplication by t: shift the digits up, fold t^n back in
            top = p ** (n - 1)
            t_n = self.from_digits(-c for c in self.modulus[:-1])
            tmul = [add[b % top * p][mul[b // top][t_n]] for b in codes]
            # Horner's rule: a = (a // p) t + a % p
            for a in codes[p:]:
                mul.append([add[tmul[x]][y] for x, y in zip(mul[a // p], mul[a % p])])
        self._invl = [0] + [mul[a].index(1) for a in codes[1:]]
        # the packed form of Poly: one byte per digit; _codeb is big-endian
        self._codeb = [bytes(reversed(ds)) for ds in dig]
        self._packl = [int.from_bytes(bs, "big") for bs in self._codeb]
        self._unpack = {v: a for a, v in enumerate(self._packl)}
        # byte v -> d v mod p: scaling by the prime-field code d
        self._mulb = [_times_mod(d, p) for d in range(p)]
        # byte v -> v 256^j mod p, for byte j of a Kronecker slot (8 suffice)
        self._mods = [_times_mod(pow(256, j, p), p) for j in range(8)]
        # digits of t^(n-1+j), j = 1 .. n-1, and the slot bound per term of
        # a Kronecker product (see Poly.__mul__)
        self._fold = [dig[mul[p ** (n - 1)][p ** j]] for j in range(1, n)]
        self._slot_bound = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))

    # -- scalar operations --------------------------------------------------

    def add(self, a, b):
        return self._addl[a][b]

    def mul(self, a, b):
        return self._mull[a][b]

    def neg(self, a):
        return self._mull[self.p - 1][a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._invl[a]

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        return square_and_multiply(a, k, self.mul) if k else 1

    def digits(self, a):
        """Base-p digit tuple of the code, lowest power of t first."""
        return self._dig[a]

    def from_digits(self, ds):
        c = 0
        for d in reversed(tuple(ds)):
            c = c * self.p + (int(d) % self.p)
        return c

    def evaluate(self, cs, x):
        """The value at x of the polynomial with codes cs, lowest power
        first, by Horner's rule."""
        addl, mull = self._addl, self._mull
        acc = 0
        for c in reversed(cs):
            acc = addl[mull[acc][x]][c]
        return acc

    # -- kept tables --------------------------------------------------------

    def frobenius_orbits(self, r):
        """(x, size) per orbit of x -> x^r on this field, r the order of a
        subfield, x the least code of its orbit, ascending.  x^r is
        F_p-linear: the code a is a % p + t (a // p), so its image is
        a % p + t^r (a // p)^r, one table step from that of a // p."""
        orbits = self._orbits.get(r)
        if orbits is None:
            if r not in (self.p ** i for i in range(1, self.n + 1)
                         if self.n % i == 0):
                raise ValueError(f"{r} is the order of no subfield of {self!r}")
            addl, mull = self._addl, self._mull
            t_r = self.pow(self.p, r) if self.n > 1 else 0    # code p is t
            image = [0] * self.q
            for a in range(1, self.q):
                image[a] = addl[mull[t_r][image[a // self.p]]][a % self.p]
            seen = bytearray(self.q)
            orbits = []
            for x in range(self.q):
                size, y = 0, x
                while not seen[y]:
                    seen[y] = 1
                    size += 1
                    y = image[y]
                if size:
                    orbits.append((x, size))
            orbits = self._orbits[r] = tuple(orbits)
        return orbits

    def roots(self, cs):
        """The roots in this field of the polynomial with codes cs, lowest
        power first, as a sequence of codes.

        A monic quadratic T^2 + c1 T + c0 reads them from two kept tables:
        the Z with Z^2 = v, and the Z with Z^2 + Z = v.  If c1 = 0 the roots
        are the square roots of -c0; otherwise T = c1 Z turns the equation
        into Z^2 + Z = -c0 / c1^2.  Both hold in every characteristic.  Any
        other polynomial is evaluated at every code.
        """
        if len(cs) != 3 or cs[2] != 1:
            return [b for b in range(self.q) if not self.evaluate(cs, b)]
        mull = self._mull
        if self._root_tables is None:
            addl = self._addl
            sqrts = [[] for _ in range(self.q)]
            shifted = [[] for _ in range(self.q)]
            for z in range(self.q):
                z2 = mull[z][z]
                sqrts[z2].append(z)
                shifted[addl[z2][z]].append(z)
            self._root_tables = (tuple(map(tuple, sqrts)),
                                 tuple(map(tuple, shifted)))
        sqrts, shifted = self._root_tables
        c0, c1, _ = cs
        negl = mull[self.p - 1]
        if not c1:
            return sqrts[negl[c0]]
        inv = self._invl[c1]
        return [mull[c1][z] for z in shifted[mull[negl[c0]][mull[inv][inv]]]]

    def embedding(self, sub):
        """The codes in this field of the elements of its subfield `sub`:
        the identity on a prime field, else t goes to the least root of
        sub's modulus here (F_p codes agree)."""
        emb = self._embeddings.get(sub)
        if emb is None:
            if sub.p != self.p or self.n % sub.n:
                raise ValueError(f"{sub!r} is no subfield of {self!r}")
            if sub.n == 1:
                emb = tuple(range(sub.p))
            else:
                addl, mull = self._addl, self._mull
                theta = min(self.roots(sub.modulus))
                powers = [1]
                for _ in range(sub.n - 1):
                    powers.append(mull[powers[-1]][theta])
                emb = []
                for a in range(sub.q):
                    acc = 0
                    for d, tp in zip(sub.digits(a), powers):
                        acc = addl[acc][mull[d][tp]]
                    emb.append(acc)
                emb = tuple(emb)
            self._embeddings[sub] = emb
        return emb

    def irreducibles(self, d):
        """The monic irreducibles of degree d >= 1, in counting order, by a
        product sieve: the monic polynomials of degree d that are no
        product of an irreducible of degree <= d/2 and a monic cofactor."""
        irr = self._irreducibles
        while len(irr) <= d:
            e = len(irr)
            composite = {(P * M).packed for j in range(1, e // 2 + 1)
                         for P in irr[j] for M in monic_polys(self, e - j)}
            irr.append(tuple(M for M in monic_polys(self, e)
                             if M.packed not in composite))
        return irr[d]

    # -- element literals ---------------------------------------------------

    def el_to_str(self, a):
        """The literal of code a: the integer over a prime field, else the
        residue polynomial in t as `poly_to_str` writes it."""
        if self.n == 1:
            return str(a)
        return poly_to_str(Poly(GF(self.p), self.digits(a)), "t")

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


def square_and_multiply(x, k, mul):
    """x^k for k >= 1 under the product `mul`, by the binary digits of k.

    Takes bit_length(k) + popcount(k) - 2 products, and none of them has an
    identity factor, so no caller needs an identity to start from.
    """
    if k < 1:
        raise ValueError(f"square-and-multiply needs k >= 1, got {k}")
    r = None
    while True:
        if k & 1:
            r = x if r is None else mul(r, x)
        k >>= 1
        if not k:
            return r
        x = mul(x, x)


def _times_mod(r, p):
    """The `bytes.translate` table of v -> r v mod p; it has period p."""
    return (bytes(r * v % p for v in range(p)) * (256 // p + 1))[:256]


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


def field_of_size(q):
    """GF(p, n) for q = p^n, with the default modulus when n > 1."""
    for p in _PRIMES:
        for n in range(1, TABLE_CAP.bit_length()):
            if p ** n == q:
                return GF(p, n)
    raise ValueError(f"q must be a prime power p^n <= {TABLE_CAP} with p in "
                     f"{_PRIMES}, got {q}")


def default_modulus(p, n):
    """Smallest monic irreducible of degree n over F_p in counting order."""
    return next(f for f in monic_polys(GF(p), n) if is_irreducible(f)).coeffs


class Poly:
    """Dense polynomial over a fixed finite field, packed into one int as the
    module docstring describes."""

    __slots__ = ("field", "packed")

    def __init__(self, field, coeffs):
        q = field.q
        cs = []
        for c in coeffs:
            c = int(c)
            if not 0 <= c < q:
                raise ValueError(f"coefficient {c!r} is not a code in [0, {q})")
            cs.append(c)
        self.field = field
        self.packed = int.from_bytes(
            b"".join(map(field._codeb.__getitem__, reversed(cs))), "big")

    @classmethod
    def zero(cls, field):
        return _poly(field, 0)

    @classmethod
    def one(cls, field):
        return _poly(field, 1)

    @classmethod
    def const(cls, field, c):
        return _poly(field, field._packl[c])

    @classmethod
    def monomial(cls, field, k, c=1):
        return _poly(field, field._packl[c] << 8 * field.n * k)

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self):
        """Tuple of coefficient codes, lowest degree first, no trailing zeros."""
        f = self.field
        n = f.n
        v = self.packed
        raw = v.to_bytes(n * _length(v, n), "little")
        if n == 1:
            return tuple(raw)
        unpack = f._unpack
        return tuple(unpack[int.from_bytes(raw[i:i + n], "little")]
                     for i in range(0, len(raw), n))

    @property
    def degree(self):
        v = self.packed
        return (v.bit_length() - 1) // (8 * self.field.n) if v else NEG_INF

    @property
    def is_zero(self):
        return not self.packed

    @property
    def lc(self):
        v = self.packed
        if not v:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.field._unpack[v >> 8 * self.field.n * self.degree]

    @property
    def is_monic(self):
        return bool(self.packed) and self.lc == 1

    def __bool__(self):
        return bool(self.packed)

    def __eq__(self, other):
        return (isinstance(other, Poly)
                and self.packed == other.packed
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.packed, self.field.p, self.field.n))

    def _same_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("polynomials over different fields")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        f = self.field
        if other.field is not f:
            self._same_field(other)
        a, b = self.packed, other.packed
        if not b:
            return self
        if not a:
            return other
        if f.p == 2:
            return _poly(f, a ^ b)
        # slots a_i + b_i <= 2(p-1) < 256
        return _poly(f, _translate(a + b, f._mods[0]))

    def __neg__(self):
        f = self.field
        if f.p == 2:
            return self
        return _poly(f, _translate(self.packed, f._mulb[f.p - 1]))

    def __sub__(self, other):
        f = self.field
        if other.field is not f:
            self._same_field(other)
        a, b = self.packed, other.packed
        if not b:
            return self
        if not a:
            return -other
        p = f.p
        if p == 2:
            return _poly(f, a ^ b)
        # -b has digits <= p-1, so slots a_i + (-b)_i <= 2(p-1) < 256
        return _poly(f, _translate(a + _translate(b, f._mulb[p - 1]), f._mods[0]))

    def __mul__(self, other):
        f = self.field
        if other.field is not f:
            self._same_field(other)
        a, b = self.packed, other.packed
        if not a or not b:
            return _poly(f, 0)
        n = f.n
        w = 8 * n
        mods = f._mods
        # Kronecker substitution: each digit plane is spread into k-byte
        # slots and plane pairs multiply as big ints.  A slot of one plane
        # product sums at most min(la, lb) digit products <= (p-1)^2; plane r
        # of the digit-polynomial product sums at most n plane products, and
        # folding t^(n-1+j) = sum_r c_jr t^r (c_jr <= p-1) adds the n-1 high
        # planes to each low one.  So no slot exceeds
        # min(la, lb) n (p-1)^2 (1 + (n-1)(p-1)) < 256^k and no carry crosses
        # a slot.  At n = 2 the Karatsuba middle product (A0+A1)(B0+B1) has
        # slots <= min(la, lb) 4(p-1)^2, within that bound, and subtracting
        # the outer products from it leaves slotwise sums >= 0.
        shorter = (min(a, b).bit_length() + w - 1) // w
        k = ((shorter * f._slot_bound).bit_length() + 7) // 8
        if n == k == 1:
            return _poly(f, _translate(a * b, mods[0]))
        if shorter == 1:
            # a constant factor scales the other one coefficientwise
            c, g = (a, other) if a <= b else (b, self)
            return Poly._scale(g, f._unpack[c])
        la = (a.bit_length() + w - 1) // w
        lb = (b.bit_length() + w - 1) // w
        ra = a.to_bytes(n * la, "little")
        rb = b.to_bytes(n * lb, "little")
        A = [_spread(ra[i::n], k) for i in range(n)]
        B = [_spread(rb[i::n], k) for i in range(n)]
        if n == 2:
            lo, hi = A[0] * B[0], A[1] * B[1]
            prod = [lo, (A[0] + A[1]) * (B[0] + B[1]) - lo - hi, hi]
        else:
            prod = [0] * (2 * n - 1)
            for i, ai in enumerate(A):
                for j, bj in enumerate(B):
                    prod[i + j] += ai * bj
        for high, fold in zip(prod[n:], f._fold):
            for r, c in enumerate(fold):
                if c:
                    prod[r] += c * high
        size = la + lb - 1
        out = bytearray(n * size)
        for i, plane in enumerate(prod[:n]):
            out[i::n] = _reduce_slots(plane, k, size, mods)
        return _poly(f, int.from_bytes(out, "little"))

    @staticmethod
    def _scale(poly, c):
        f = poly.field
        if c == 0:
            return _poly(f, 0)
        if c == 1:
            return poly
        if c < f.p:
            # a prime-field code scales every digit alike
            return _poly(f, _translate(poly.packed, f._mulb[c]))
        # any other code maps each coefficient through its table row
        row, codeb = f._mull[c], f._codeb
        return _poly(f, int.from_bytes(
            b"".join([codeb[row[a]] for a in reversed(poly.coeffs)]), "big"))

    def __divmod__(self, other):
        f = self.field
        if other.field is not f:
            self._same_field(other)
        b = other.packed
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        p, n = f.p, f.n
        w = 8 * n
        rem = self.packed
        da = (rem.bit_length() - 1) // w
        db = (b.bit_length() - 1) // w
        if da < db:
            return _poly(f, 0), self
        unpack, packl, mull = f._unpack, f._packl, f._mull
        negl = mull[p - 1]
        inv = f._invl[unpack[b >> w * db]]
        mod = f._mods[0]
        mask = (1 << w) - 1
        # Each step adds a negated multiple of the divisor, digits <= p-1, to
        # a window of slots.  A reduced slot holds <= p-1, so after s steps
        # without reduction it holds <= (s+1)(p-1); reducing every
        # 255 // (p-1) - 1 steps keeps (s+1)(p-1) <= 255.
        lazy = 255 // (p - 1) - 1
        negs = {}
        quo = 0
        steps = 0
        for i in range(da, db - 1, -1):
            top = (rem >> w * i) & mask
            c = top % p if n == 1 else unpack[_translate(top, mod)]
            if not c:
                continue
            qc = mull[c][inv]
            neg = negs.get(qc)
            if neg is None:
                neg = negs[qc] = Poly._scale(other, negl[qc]).packed
            shift = w * (i - db)
            rem += neg << shift
            quo += packl[qc] << shift
            steps += 1
            if steps == lazy:
                rem = _translate(rem, mod)
                steps = 0
        rem = _translate(rem & ((1 << w * db) - 1), mod)
        return _poly(f, quo), _poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        return square_and_multiply(self, k, operator.mul) if k else Poly.one(self.field)

    # -- derived operations -------------------------------------------------

    def monic(self):
        if self.is_zero or self.is_monic:
            return self
        return Poly._scale(self, self.field.inv(self.lc))

    def spread(self, stride):
        """Substitute x -> x^stride; equals the q-power Frobenius when stride = q."""
        v = self.packed
        if stride == 1 or not v:
            return self
        n = self.field.n
        length = _length(v, n)
        raw = v.to_bytes(n * length, "little")
        out = bytearray(n * (stride * (length - 1) + 1))
        for i in range(n):
            out[i::n * stride] = raw[i::n]
        return _poly(self.field, int.from_bytes(out, "little"))

    def derivative(self):
        f = self.field
        mull = f._mull
        cs = self.coeffs
        # the integer i mod p is its own code in every F_{p^n}
        return Poly(f, [mull[i % f.p][cs[i]] for i in range(1, len(cs))])

    def __repr__(self):
        return f"Poly[{poly_to_str(self)}]"


def _poly(field, packed):
    """Unchecked constructor: packed holds reduced digits only."""
    self = _new(Poly)
    self.field = field
    self.packed = packed
    return self


_new = object.__new__


def _length(v, n):
    """Number of coefficients of the packed int v over a field of degree n."""
    w = 8 * n
    return (v.bit_length() + w - 1) // w


def _translate(v, table):
    """The int whose little-endian bytes are those of v mapped through table."""
    return int.from_bytes(
        v.to_bytes((v.bit_length() + 7) // 8, "little").translate(table), "little")


def _spread(data, width):
    """The int whose little-endian width-byte slots hold the bytes of data."""
    if width > 1:
        slots = bytearray(width * len(data))
        slots[::width] = data
        data = slots
    return int.from_bytes(data, "little")


def _reduce_slots(v, k, size, mods):
    """The size k-byte slots of v reduced mod p, one byte each; mods[j] maps
    a byte to its value times 256^j mod p."""
    raw = v.to_bytes(k * size, "little")
    if k > 1:
        # k <= 8 reduced terms sum to at most 8(p-1) < 256
        acc = 0
        for j in range(k):
            acc += int.from_bytes(raw[j::k].translate(mods[j]), "little")
        raw = acc.to_bytes(size, "little")
    return raw.translate(mods[0])


def poly_det(M):
    """Determinant of a square matrix of Polys, by expansion along row 0."""
    n = len(M)
    if n == 1:
        return M[0][0]
    det = None
    for j in range(n):
        minor = [[M[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = M[0][j] * poly_det(minor)
        if j % 2:
            term = -term
        det = term if det is None else det + term
    return det


def poly_gcd(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_xgcd(a, b):
    """(g, s, t) with s a + t b = g, g the monic gcd; (0, 1, 0) for
    a = b = 0."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero:
        qq, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - qq * s1
        t0, t1 = t1, t0 - qq * t1
    if r0.is_zero or r0.lc == 1:
        return r0, s0, t0
    c = f.inv(r0.lc)
    return Poly._scale(r0, c), Poly._scale(s0, c), Poly._scale(t0, c)


# -- enumeration ------------------------------------------------------------

def monic_polys(field, degree):
    """Monic polynomials of exact degree, ascending counting order.

    Counting order: the coefficient vector (c_0, .., c_{d-1}) is read as a
    base-q integer with the constant term least significant, so over F_2 the
    degree-1 sequence is x, x+1.
    """
    if degree < 0:
        return
    yield from _counting(field, degree, field._codeb[1])


def monic_poly_at(field, degree, k):
    """Entry k of `monic_polys(field, degree)`, built alone: the base-q
    digits of k are its coefficients below the leading 1."""
    q = field.q
    return Poly(field, [k // q ** i % q for i in range(degree)] + [1])


def polys_below(field, degree):
    """All polynomials of degree < `degree` (q^degree of them), counting order."""
    yield from _counting(field, max(degree, 0), b"")


def _counting(field, width, lead):
    """lead followed by every vector of width codes, in counting order.  The
    packed int is read big-endian, top coefficient first, so `product`,
    whose last factor runs fastest, counts with c_0 least significant."""
    for low in product(field._codeb, repeat=width):
        yield _poly(field, int.from_bytes(lead + b"".join(low), "big"))


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
    return bool(f) and f.degree >= 1 and [e for _, e in poly_factor(f)[1]] == [1]


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
    out.sort(key=lambda t: t[0].packed)
    return out


# -- literals ---------------------------------------------------------------

def is_ascii_digits(text):
    """Whether text is one or more of the digits 0-9: the integers of the
    literal grammar and of ring files.  str.isdigit alone also takes other
    Unicode digits, such as a superscript 2 or an Arabic-Indic 3."""
    return text.isascii() and text.isdigit()


def int_or_none(text):
    """text as an integer when it is ASCII digits after an optional '-' (a
    negative value is left to the caller's own check), else None: the one
    integer reader of ring files and command-line flags."""
    text = text.strip()
    return int(text) if is_ascii_digits(text.removeprefix("-")) else None


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
        k = _power_of(part, var)
        if k is not None:
            exp += k
        elif is_ascii_digits(part):
            code = field.mul(code, int(part) % field.p)
        elif field.n > 1 and (k := _power_of(part, "t")) is not None:
            code = field.mul(code, field.pow(field.p, k))  # code p encodes t
        elif part[0] == "(" and part[-1] == ")" and (
                c := poly_from_str(field, part[1:-1], var)).degree < 1:
            code = field.mul(code, c.coeffs[0] if c else 0)
        else:
            raise ValueError(f"bad token {part!r} in polynomial literal {ctx!r}")
    return Poly.monomial(field, exp, code)


def _power_of(part, name):
    """k when part is `name` or `name^k`, else None."""
    if part == name:
        return 1
    if part.startswith(name + "^") and is_ascii_digits(part[len(name) + 1:]):
        return int(part[len(name) + 1:])
    return None


def poly_to_str(f, var="x"):
    if f.is_zero:
        return "0"
    field = f.field
    coeffs = f.coeffs
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
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
