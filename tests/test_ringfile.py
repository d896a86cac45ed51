import pytest

from ffzeta.errors import RingFileError, RingValidationError
from ffzeta.gf import GF, poly_from_str
from ffzeta.ring import RingSpec
from ffzeta.ringfile import (
    bundled_ring_names, parse_ring_spec, parse_ring_text, serialize_ring_spec,
)


def test_bundled_roster():
    assert bundled_ring_names() == ["ex26.ring", "ex36.ring", "fqx2.ring",
                                    "fqx3.ring", "fqx4.ring", "h4g3.ring"]


@pytest.mark.parametrize("name", ["ex26.ring", "ex36.ring", "fqx2.ring",
                                  "fqx3.ring", "fqx4.ring", "h4g3.ring"])
def test_bundled_round_trip(name):
    spec = parse_ring_spec(name)
    again = parse_ring_text(serialize_ring_spec(spec))
    assert again == spec
    assert again.field is spec.field
    assert again.name == spec.name


def test_bare_name_drops_extension():
    assert parse_ring_spec("h4g3") == parse_ring_spec("h4g3.ring")


def test_filesystem_path_wins(tmp_path):
    # a file named like a bundled ring shadows the bundle
    p = tmp_path / "ex36.ring"
    p.write_text("[field]\np = 2\n\n[ring]\nform = polyring\n")
    spec = parse_ring_spec(str(p))
    assert spec.form == "polyring" and spec.q == 2


def test_parse_file_matches_parse_text(tmp_path):
    text = serialize_ring_spec(parse_ring_spec("h4g3.ring"))
    p = tmp_path / "roundtrip.ring"
    p.write_text(text)
    assert parse_ring_spec(str(p)) == parse_ring_text(text)


def test_unknown_name_lists_bundle():
    with pytest.raises(RingFileError, match="ex36.ring"):
        parse_ring_spec("no-such-ring")


def test_default_name_from_text():
    spec = parse_ring_text("[field]\np = 3\n\n[ring]\nform = polyring\n",
                           default_name="mine")
    assert spec.name == "mine"


def test_extension_field_round_trip():
    spec = parse_ring_spec("fqx4.ring")
    assert spec.q == 4 and spec.field.n == 2
    text = serialize_ring_spec(spec)
    assert "modulus = t^2 + t + 1" in text
    assert parse_ring_text(text).field is spec.field


def h4g3_as_table():
    F2 = GF(2)
    base = parse_ring_spec("h4g3.ring")
    one, zero = poly_from_str(F2, "1"), poly_from_str(F2, "0")
    c0, c1 = base.coeffs
    table = [[(one, zero), (zero, one)], [(zero, one), (c0, c1)]]
    return RingSpec.custom(F2, (0, 7), table, name="h4g3-table")


def test_custom_form_round_trip():
    custom = h4g3_as_table()
    text = serialize_ring_spec(custom)
    assert "form = custom" in text and "delta = " in text
    again = parse_ring_text(text)
    assert again == custom
    # mirror entries below the diagonal are implied, not written
    assert "t_1_0" not in text and "t_0_1" in text


def test_custom_form_accepts_lower_triangle():
    custom = h4g3_as_table()
    text = serialize_ring_spec(custom).replace("t_0_1", "t_1_0")
    parsed = parse_ring_text(text)
    assert parsed.table == custom.table
    # both cells of a mirror pair may be given when they agree
    text = serialize_ring_spec(custom).replace("t_0_1 = 0, 1",
                                               "t_0_1 = 0, 1\nt_1_0 = 0,1")
    assert parse_ring_text(text).table == custom.table


# -- diagnostics ------------------------------------------------------------

def err(text):
    with pytest.raises(RingFileError) as info:
        parse_ring_text(text)
    return str(info.value)


def test_syntax_error_is_ring_file_error():
    msg = err("this is not ini")
    assert "parse" in msg or "line" in msg


def test_missing_sections():
    assert "[field]" in err("[ring]\nform = polyring\n")
    assert "[ring]" in err("[field]\np = 2\n")


def test_missing_modulus_named():
    msg = err("[field]\np = 2\nn = 2\n\n[ring]\nform = polyring\n")
    assert "modulus" in msg and "irreducible" in msg


def test_modulus_refused_for_prime_field():
    msg = err("[field]\np = 5\nmodulus = t^2 + 2\n\n[ring]\nform = polyring\n")
    assert "modulus" in msg


def test_missing_c0():
    msg = err("[field]\np = 2\n\n[ring]\nform = cab\nm = 2\n"
              "c1 = x^2 + x\n")
    assert "c0" in msg


def test_bad_literal_names_key():
    msg = err("[field]\np = 2\n\n[ring]\nform = cab\nm = 2\n"
              "c0 = x^7 + -\nc1 = x^2 + x\n")
    assert "c0" in msg


def test_bad_integer():
    msg = err("[field]\np = two\n\n[ring]\nform = polyring\n")
    assert "p" in msg


# integers are ASCII digits: int() and str.isdigit also take underscores
# and other Unicode digits, ARABIC_3 = U+0663 and SUPERSCRIPT_2 = U+00B2
ARABIC_3, SUPERSCRIPT_2 = "\u0663", "\u00b2"
CAB_HEAD = "[field]\np = 2\n\n[ring]\nform = cab\nm = 2\n"


@pytest.mark.parametrize("text, message", [
    ("[field]\np = 1_1\n\n[ring]\nform = polyring\n",
     "[field] p must be an integer, got '1_1'"),
    (f"[field]\np = {ARABIC_3}\n\n[ring]\nform = polyring\n",
     f"[field] p must be an integer, got '{ARABIC_3}'"),
    (f"{CAB_HEAD}c0 = x^{ARABIC_3} + x + 1\nc1 = 0\n",
     f"[ring] c0: bad token 'x^{ARABIC_3}' in polynomial literal "
     f"'x^{ARABIC_3} + x + 1'"),
    (f"{CAB_HEAD}c0 = x^{SUPERSCRIPT_2} + x + 1\nc1 = 0\n",
     f"[ring] c0: bad token 'x^{SUPERSCRIPT_2}' in polynomial literal "
     f"'x^{SUPERSCRIPT_2} + x + 1'"),
], ids=["underscore", "arabic-indic", "arabic-indic-exponent",
        "superscript-exponent"])
def test_integers_are_ascii_digits(text, message):
    assert err(text) == message


def test_delta_integers():
    head = "[field]\np = 2\n\n[ring]\nform = custom\n"
    tail = "t_0_0 = 1, 0\nt_0_1 = 0, 1\nt_1_1 = x^3 + x + 1, 0\n"
    msg = err(f"{head}delta = 0, {ARABIC_3}\n{tail}")
    assert msg == f"[ring] delta must be comma-separated integers, got '0, {ARABIC_3}'"
    # a negative offset parses and is refused by validation
    spec = parse_ring_text(f"{head}delta = 0, -3\n{tail}")
    assert spec.delta == (0, -3)
    assert "delta-sign" in [name for name, _ in spec.validate().failures]


CUSTOM_HEAD = "[field]\np = 2\n\n[ring]\nform = custom\ndelta = 0, 7\n"


@pytest.mark.parametrize("text, message", [
    ("[field]\np = 2\n\n[ring]\nform = polyring\nm = 2\n",
     "[ring] form polyring requires m = 1"),
    ("[field]\np = 2\n\n[ring]\nform = cab\nm = 0\n",
     "[ring] m must be a positive integer"),
    (f"{CUSTOM_HEAD}m = 3\n", "[ring] m = 3 disagrees with 2 delta entries"),
    (f"{CUSTOM_HEAD}t_0_0 = 1, 0\nt_1_1 = x^7 + x, x^2 + x\n",
     "missing key 't_0_1' in [ring]"),
    (f"{CUSTOM_HEAD}t_0_0 = 1, 0\nt_0_1 = 0, 1\nt_1_1 = x^7 + x\n",
     "[ring] t_1_1 needs 2 coordinates, got 1"),
], ids=["polyring-m", "cab-m", "custom-m", "custom-cell", "custom-length"])
def test_shape_errors_name_the_key(text, message):
    assert err(text) == message


CUSTOM_CELLS = "t_0_0 = 1, 0\nt_0_1 = 0, 1\nt_1_1 = x^7 + x, x^2 + x\n"


@pytest.mark.parametrize("text, message", [
    ("[field]\np = 2\nq = 4\n\n[ring]\nform = polyring\n",
     "unknown key 'q' in [field]"),
    (f"{CAB_HEAD}c0 = x^3 + x + 1\nc1 = 0\nc2 = x\n",
     "unknown key 'c2' in [ring]"),
    ("[field]\np = 2\n\n[ring]\nform = polyring\nc0 = x\n",
     "unknown key 'c0' in [ring]"),
    (f"{CUSTOM_HEAD}{CUSTOM_CELLS}t_0_2 = 0, 0\n",
     "unknown key 't_0_2' in [ring]"),
    (f"{CUSTOM_HEAD}{CUSTOM_CELLS}t_1_0 = 1, 0\n",
     "[ring] t_1_0 contradicts t_0_1"),
    ("[field]\np = 2\n\n[ring]\nform = polyring\n\n[notes]\nby = me\n",
     "unknown section [notes]"),
    ("[DEFAULT]\nname = z\n\n[field]\np = 2\n\n[ring]\nform = polyring\n",
     "unknown key 'name' in [field]"),
], ids=["field-q", "cab-c2", "polyring-c0", "custom-cell", "custom-mirror",
        "section", "default-section"])
def test_keys_that_would_be_ignored_are_refused(text, message):
    assert err(text) == message


def test_unknown_form():
    assert "form" in err("[field]\np = 2\n\n[ring]\nform = weird\n")


def test_validation_failures_are_distinct(tmp_path):
    # even-degree c0 against m = 2 parses fine but fails ring validation
    text = ("[field]\np = 2\n\n[ring]\nform = cab\nm = 2\n"
            "c0 = x^4 + x + 1\nc1 = x\n")
    p = tmp_path / "bad-gcd.ring"
    p.write_text(text)
    with pytest.raises(RingValidationError, match="gcd"):
        parse_ring_spec(str(p))
    # the text-level parser leaves semantic checks to the caller
    spec = parse_ring_text(text)
    assert not spec.validate().ok
    assert not issubclass(RingValidationError, RingFileError)
    assert not issubclass(RingFileError, RingValidationError)


def test_serialized_text_is_stable():
    text = serialize_ring_spec(parse_ring_spec("ex36.ring"))
    assert text == ("[field]\np = 3\n\n[ring]\nform = cab\nname = ex36\n"
                    "m = 2\nc0 = 2*x^5 + x\nc1 = 0\n")
