"""Small independent helpers that several test modules use as oracles."""

import functools
from dataclasses import dataclass
from itertools import chain
from math import comb

from ffzeta.errors import ConsistencyError
from ffzeta.gf import (GF, Poly, is_irreducible, monic_polys, poly_from_str,
                       poly_xgcd)
from ffzeta.ideal_zeta import _class_cuts
from ffzeta.ideals import (_is_reduced, _prime_roots, elem_divexact,
                           l_polynomial, power_route)
from ffzeta.ring import RingElement, echelon_insert
from ffzeta.semigroup import NumericalSemigroup, r_gap_values
from ffzeta.zeta import affine_power_sum, vanishing_threshold


def poly_eval(f, a):
    """f(a) for a field code a, by Horner's rule on the field tables."""
    field = f.field
    acc = 0
    for c in reversed(f.coeffs):
        acc = field.add(field.mul(acc, a), c)
    return acc


def brute_points(spec, k):
    """Solutions (x, y) over F_{q^k} of y^m + c_{m-1}(x) y^{m-1} + .. +
    c_0(x) = 0 for a cab ring over F_q = GF(p, n), which sits in
    E = GF(p, n k) through the least root of its modulus."""
    field = spec.field
    E = GF(field.p, field.n * k)
    emb = list(range(field.q))
    if field.n > 1:
        theta = next(r for r in range(E.q)
                     if poly_eval(Poly(E, field.modulus), r) == 0)
        emb = [poly_eval(Poly(E, field.digits(a)), theta)
               for a in range(field.q)]
    cs = [Poly(E, [emb[a] for a in c.coeffs]) for c in spec.coeffs]
    total = 0
    for x0 in range(E.q):
        vals = [poly_eval(c, x0) for c in cs]
        for y0 in range(E.q):
            acc = 1
            for c in reversed(vals):
                acc = E.add(E.mul(acc, y0), c)
            total += acc == 0
    return total


def elem(spec, vec):
    """The element of spec with coordinates vec, checked to be m
    polynomials over the ring's field."""
    vec = tuple(vec)
    if len(vec) != spec.m:
        raise ValueError(f"expected {spec.m} coordinates, got {len(vec)}")
    for g in vec:
        if not isinstance(g, Poly) or g.field != spec.field:
            raise ValueError("coordinates must be polynomials over the ring's field")
    return RingElement(spec, vec)


def elem_from_str(spec, s):
    """The ring element with coordinate literals separated by ';' or ',';
    a bare polynomial literal is the F_q[x] part embedded."""
    parts = s.split(";") if ";" in s else s.split(",")
    if len(parts) == 1 and spec.m > 1:
        return spec.elem_from_poly(poly_from_str(spec.field, s))
    if len(parts) != spec.m:
        raise ValueError(
            f"element literal needs {spec.m} comma-separated components, got {len(parts)}")
    return elem(spec, (poly_from_str(spec.field, part) for part in parts))


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


def monomials_below(spec, d):
    """The monomials x^i b_j of degree < d in ascending degree, counted per
    basis element b_j and sorted."""
    mons = []
    for j, dj in enumerate(spec.delta):
        i = 0
        while spec.m * i + dj < d:
            mons.append((spec.m * i + dj, i, j))
            i += 1
    mons.sort()
    return [spec.monomial(i, j) for _, i, j in mons]


def cutoff_by_dims(s, spec):
    """The last degree d with dim W_d <= l_q(s)/(q-1), found by stepping d."""
    tau = vanishing_threshold(s, spec.q)
    d = 0
    while spec.dim_W(d) <= tau:
        d += 1
    return d - 1


# -- recentering at X = 1 ---------------------------------------------------

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


# -- Newton polygon at infinity ---------------------------------------------

def newton_polygon(coeffs):
    """Vertices (d, -deg c_d) of the lower convex hull of the points over the
    nonzero coefficients, left to right; collinear points are not vertices."""
    hull = []
    for d, c in enumerate(coeffs):
        if c.is_zero:
            continue
        pt = (d, -c.degree)
        while len(hull) >= 2:
            (d0, v0), (d1, v1) = hull[-2:]
            # drop the last vertex unless the turn to pt is counterclockwise
            if (d1 - d0) * (pt[1] - v0) - (v1 - v0) * (pt[0] - d0) > 0:
                break
            hull.pop()
        hull.append(pt)
    return hull


# -- carry-free digit splits on F_q[T] --------------------------------------

def split_degrees(s, q, p, d_top):
    """deg_T S_d(s) on F_q[T] for d = 0 .. d_top, None where S_d(s) = 0.

    The monic a = T^d + c_(d-1) T^(d-1) + .. + c_0 has a^s = sum over the
    splits s = k_0 + .. + k_d that are carry-free in base p (Lucas) of
    multinomial * T^(d k_d) * prod (c_i T^i)^(k_i), and summing c_i over F_q
    keeps a split exactly when k_i is a positive multiple of q - 1 for every
    i < d.  The largest split degree sum_i i k_i never cancels, so S_d(s) is
    nonzero exactly when some split is kept, of that degree.  With R_t =
    k_t + .. + k_d the degree is R_1 + .. + R_d, so best(j, r) below is the
    largest R_1 + .. + R_j over chains r = R_0 > R_1 > .. > R_j that drop
    a kept part at each step, digit by digit in base p."""
    def subdigits(r):
        """Every k <= r digitwise in base p, k > 0."""
        out = [0]
        place = 1
        while r:
            r, digit = divmod(r, p)
            out = [k + c * place for k in out for c in range(digit + 1)]
            place *= p
        return out[1:]

    @functools.cache
    def best(j, r):
        if j == 0:
            return 0
        found = [r - k + rest for k in subdigits(r) if k % (q - 1) == 0
                 if (rest := best(j - 1, r - k)) is not None]
        return max(found, default=None)

    return [best(d, s) for d in range(d_top + 1)]


# -- every class on its own ------------------------------------------------

def walk_every_class(spec):
    """Oracle for `class_group`'s classes: (rep, degree, order, generator)
    for every reduced ideal of degree <= g in enumeration order, each found
    by its own order walk, the least divisor k of h with I^k principal on
    the powers of `power_route`, with no pairing of a class and its
    inverse."""
    lp = l_polynomial(spec)
    h = lp.h
    divisors = [k for k in range(1, h + 1) if h % k == 0]
    start, power, principal = power_route(spec)
    out = []
    for I in chain.from_iterable(lp.low_ideals):
        if not _is_reduced(I):
            continue
        powers = {1: start(I)}
        for k in divisors[1 if I.deg else 0:]:
            b = max(b for b in powers if k % b == 0)
            powers[k] = power(powers[b], k // b)
            ok, gen = principal(powers[k])
            if ok:
                out.append((I, I.deg, k, gen))
                break
    return out


def classwise_terms(t, report):
    """Oracle for `ideal_zeta_classwise`: per class, its term by X-degree,
    each class summed from its own leads and divided by its own
    f_k^(t/e_k), with no use of the involution."""
    out = []
    for cls, leads, _ in _class_cuts(t, report):
        denom = cls.generator ** (t // cls.order)
        term = {}
        for i, lead in enumerate(leads):
            acc = affine_power_sum(lead, leads[:i], t)
            if not acc.is_zero:
                term[lead.degree - cls.degree] = elem_divexact(acc, denom)
        out.append(term)
    return out


# -- the hyperelliptic r-gap proposition ------------------------------------

@dataclass(frozen=True)
class PropositionReport:
    entries: tuple    # (N, genus, valid_r, ok)
    all_ok: bool


def check_hyperelliptic_rgap_proposition(n_values=range(3, 22, 2)):
    """q = 2 hyperelliptic semigroups <2, N>: every valid r is g-1 or g."""
    entries = []
    for N in n_values:
        if N % 2 == 0 or N < 3:
            raise ValueError(f"N = {N}: need odd N >= 3")
        S = NumericalSemigroup.from_generators((2, N))
        valid_r = r_gap_values(S, 2)
        ok = set(valid_r) <= {S.genus - 1, S.genus}
        entries.append((N, S.genus, valid_r, ok))
    return PropositionReport(entries=tuple(entries),
                             all_ok=all(e[3] for e in entries))


def cantor_compose(law, P, Q):
    """Cantor's composition by the general formula for every pair, the
    coprime u1, u2 included: w = c1 (e1 u1 v2 + e2 u2 v1) + c2 (v1 v2 + f)
    with e1 u1 + e2 u2 = gcd(u1, u2) and c1, c2 the Bezout factors of
    d = gcd(u1, u2, v1 + v2 + h), then (u1 u2 / d^2, (w / d) mod u, d)."""
    u1, v1 = P[0], P[1]
    u2, v2 = Q[0], Q[1]
    one = Poly.one(u1.field)
    if P is Q:
        d0, e1, e2 = u1, one, Poly.zero(u1.field)
    else:
        d0, e1, e2 = poly_xgcd(u1, u2)
    if d0.degree:
        d, c1, c2 = poly_xgcd(d0, v1 + v2 + law.h)
        w = c1 * (e1 * u1 * v2 + e2 * u2 * v1) + c2 * (v1 * v2 + law.f)
        u, r = divmod(u1 * u2, d * d)
        w, r2 = divmod(w, d)
        if r or r2:
            raise ConsistencyError("Cantor composition left a remainder")
    else:
        d, u, w = one, u1 * u2, e1 * u1 * v2 + e2 * u2 * v1
    return u, w % u, d


def primitive_pairs_by_composition(law, d):
    """Per degree 0..d, the primitive pairs (u, v, number of the last
    prime, -v mod u) of the rank-2 ring of `law` as `ideals._PrimitivePairs`
    lists them, with every product composed: the powers along both roots
    of each split prime, and the primes found by `is_irreducible`."""
    field = law.spec.field
    one, zero = Poly.one(field), Poly.zero(field)
    pairs = [[(one, zero, -1, zero)]]
    powers = [[]]
    numbered = 0
    for e in range(1, d + 1):
        level = [(i, cantor_compose(law, pair, root)[:2], root)
                 for j in range(1, e) for i, pair, root in powers[j]
                 if root is not None and root[0].degree == e - j]
        primes = [P for P in monic_polys(field, e) if is_irreducible(P)]
        for i, P in enumerate(primes, numbered):
            roots = _prime_roots(law, P)
            for r in roots:
                level.append((i, (P, r), (P, r) if len(roots) == 2 else None))
        numbered += len(primes)
        powers.append(level)
        built = [(*pair, i) for i, pair, _ in level]
        built += [(*cantor_compose(law, R, pair)[:2], i)
                  for k in range(1, e) for i, pair, _ in powers[k]
                  for R in pairs[e - k] if R[2] < i]
        for u, v, _ in built:
            if law.mumford(v) % u:
                raise AssertionError("not a Mumford pair")
        pairs.append(sorted(((u, v, i, -v % u) for u, v, i in built),
                            key=lambda t: (t[0].packed, t[3].packed)))
    return pairs
