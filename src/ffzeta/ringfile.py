"""Ring-spec files: parse, validate, serialize.

The on-disk format is an INI document with two sections:

    [field]
    p = 2           # characteristic
    n = 1           # extension degree, optional, default 1
    modulus = ...   # monic degree-n literal in t, required when n > 1

    [ring]
    form = cab      # polyring | cab | custom
    name = h4g3     # optional label, defaults to the file stem
    m = 2
    c0 = x^7 + x^6 + x^5 + x
    c1 = x^2 + x

The cab form lists c0 .. c{m-1} of F = y^m + c_{m-1} y^{m-1} + .. + c_0.
The custom form replaces them with `delta = 0, 5, 7` and multiplication-table
entries `t_i_j = poly, poly, ..` (m comma-separated literals, the coordinates
of b_i * b_j; only i <= j is needed, the mirror entry is implied).  All
polynomial literals use the same grammar the parser emits, so files round-trip.

parse_ring_spec() accepts a filesystem path or the bare name of a bundled
example (ex26.ring, ex36.ring, h4g3.ring, fqx2.ring, fqx3.ring, fqx4.ring).
Malformed files, unread keys and extra sections raise RingFileError naming the
key; files that parse but describe an invalid ring raise RingValidationError.
"""

import configparser
import os
from importlib import resources

from ffzeta.errors import RingFileError
from ffzeta.gf import GF, Poly, int_or_none, poly_from_str, poly_to_str
from ffzeta.ring import RingSpec

_FORMS = ("polyring", "cab", "custom")


def bundled_ring_names():
    """Names of the ring files shipped inside the package."""
    root = resources.files("ffzeta") / "rings"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".ring"))


def _bundled_text(name):
    res = resources.files("ffzeta") / "rings" / name
    if res.is_file():
        return res.read_text(encoding="utf-8")
    return None


def parse_ring_spec(path):
    """Read a ring-spec file (or bundled example) into a validated RingSpec."""
    path = os.fspath(path)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(path))[0]
    else:
        # bare names (no directory part) fall back to the bundled examples
        name = path if path.endswith(".ring") else path + ".ring"
        text = _bundled_text(name) if os.path.basename(name) == name else None
        if text is None:
            raise RingFileError(
                f"no such ring file: {path!r} (bundled: {', '.join(bundled_ring_names())})")
        stem = name[:-len(".ring")]
    spec = parse_ring_text(text, default_name=stem)
    spec.require_valid()
    return spec


def parse_ring_text(text, default_name=None):
    """Parse ring-spec file contents; syntactic problems raise RingFileError."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise RingFileError(f"ring file syntax: {exc}") from exc
    odd = sorted({"field", "ring"} ^ set(cp.sections()))
    if odd:
        kind = "missing" if odd[0] in ("field", "ring") else "unknown"
        raise RingFileError(f"{kind} section [{odd[0]}]")

    field = _parse_field(cp["field"])
    ring = cp["ring"]
    form = _require(ring, "ring", "form")
    if form not in _FORMS:
        raise RingFileError(f"[ring] form must be one of {_FORMS}, got {form!r}")
    name = ring.get("name", default_name)

    if form == "polyring":
        if ring.get("m", "1").strip() != "1":
            raise RingFileError("[ring] form polyring requires m = 1")
        _only_keys(ring, "ring", "form", "name", "m")
        return RingSpec.polyring(field, name=name)
    if form == "cab":
        m = _int_key(ring, "ring", "m")
        if m < 1:
            raise RingFileError("[ring] m must be a positive integer")
        _only_keys(ring, "ring", "form", "name", "m",
                   *(f"c{j}" for j in range(m)))
        coeffs = [_poly_key(field, ring, "ring", f"c{j}") for j in range(m)]
        return RingSpec.cab(field, coeffs, name=name)
    return _parse_custom(field, ring, name)


def _parse_field(sect):
    _only_keys(sect, "field", "p", "n", "modulus")
    p = _int_key(sect, "field", "p")
    n = _int_key(sect, "field", "n") if "n" in sect else 1
    mod_text = sect.get("modulus")
    if n > 1 and mod_text is None:
        raise RingFileError(
            "missing key 'modulus' in [field]: extension fields (n > 1) "
            "need a monic irreducible literal in t")
    if n == 1 and mod_text is not None:
        raise RingFileError("[field] modulus is only meaningful when n > 1")
    try:
        if mod_text is None:
            return GF(p, n)
        mod = poly_from_str(GF(p), mod_text, var="t")
        return GF(p, n, modulus=mod.coeffs)
    except ValueError as exc:
        raise RingFileError(f"[field] {exc}") from exc


def _parse_custom(field, ring, name):
    delta_text = _require(ring, "ring", "delta")
    delta = tuple(map(int_or_none, delta_text.split(",")))
    if None in delta:
        raise RingFileError(
            f"[ring] delta must be comma-separated integers, got {delta_text!r}")
    m = _int_key(ring, "ring", "m") if "m" in ring else len(delta)
    if m != len(delta):
        raise RingFileError(f"[ring] m = {m} disagrees with {len(delta)} delta entries")
    _only_keys(ring, "ring", "form", "name", "m", "delta",
               *(f"t_{i}_{j}" for i in range(m) for j in range(m)))
    table = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            key, mirror = f"t_{i}_{j}", f"t_{j}_{i}"
            text = ring.get(key) or ring.get(mirror)
            if text is None:
                raise RingFileError(f"missing key {key!r} in [ring]")
            vec = _split_vec(field, text, key)
            if mirror in ring and _split_vec(field, ring[mirror], mirror) != vec:
                raise RingFileError(f"[ring] {mirror} contradicts {key}")
            if len(vec) != m:
                raise RingFileError(f"[ring] {key} needs {m} coordinates, got {len(vec)}")
            table[i][j] = table[j][i] = vec
    return RingSpec.custom(field, delta, table, name=name)


def _split_vec(field, text, key):
    try:
        return tuple(poly_from_str(field, tok) for tok in text.split(","))
    except ValueError as exc:
        raise RingFileError(f"[ring] {key}: {exc}") from exc


def _only_keys(sect, sname, *allowed):
    """Refuse a key of [sname] not `allowed`: the parser would ignore it."""
    for key in sect:
        if key not in allowed:
            raise RingFileError(f"unknown key {key!r} in [{sname}]")


def _require(sect, sname, key):
    val = sect.get(key)
    if val is None:
        raise RingFileError(f"missing key {key!r} in [{sname}]")
    return val.strip()


def _int_key(sect, sname, key):
    val = _require(sect, sname, key)
    n = int_or_none(val)
    if n is None:
        raise RingFileError(f"[{sname}] {key} must be an integer, got {val!r}")
    return n


def _poly_key(field, sect, sname, key):
    val = _require(sect, sname, key)
    try:
        return poly_from_str(field, val)
    except ValueError as exc:
        raise RingFileError(f"[{sname}] {key}: {exc}") from exc


def serialize_ring_spec(spec):
    """Render a RingSpec back into file text; parse_ring_text inverts this."""
    f = spec.field
    lines = ["[field]", f"p = {f.p}"]
    if f.n > 1:
        lines.append(f"n = {f.n}")
        lines.append(f"modulus = {poly_to_str(Poly(GF(f.p), f.modulus), var='t')}")
    lines += ["", "[ring]", f"form = {spec.form}"]
    if spec.name:
        lines.append(f"name = {spec.name}")
    if spec.form == "cab":
        lines.append(f"m = {spec.m}")
        for j, c in enumerate(spec.coeffs):
            lines.append(f"c{j} = {poly_to_str(c)}")
    elif spec.form == "custom":
        lines.append(f"m = {spec.m}")
        lines.append("delta = " + ", ".join(str(d) for d in spec.delta))
        for i in range(spec.m):
            for j in range(i, spec.m):
                vec = ", ".join(poly_to_str(c) for c in spec.table[i][j])
                lines.append(f"t_{i}_{j} = {vec}")
    return "\n".join(lines) + "\n"
