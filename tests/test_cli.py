import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import brute_points

import ffzeta.ideal_zeta
from ffzeta.cli import _jsonable, build_parser, dispatch
from ffzeta.ringfile import serialize_ring_spec, parse_ring_spec
from ffzeta.theorems import THEOREMS

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run(*argv):
    return dispatch(list(argv))


def jrun(*argv):
    res = dispatch(list(argv) + ["--json"])
    assert res.exit_code in (0, 1), res.text
    return res.exit_code, json.loads(res.text)


def test_jsonable_refuses_a_type_it_cannot_render():
    assert _jsonable({1: (Fraction(1, 2), None, {True})}) == {
        "1": ["1/2", None, [True]]}
    with pytest.raises(TypeError, match="no JSON rendering for a float"):
        _jsonable([1.5])


# -- zeta -------------------------------------------------------------------

def test_zeta_ex36():
    res = run("zeta", "--ring", "ex36.ring", "-s", "2")
    assert res.exit_code == 0
    assert "zeta(-2, X) = 1 + 2*X^2" in res.text
    assert "ord at X = 1: 1" in res.text


def test_zeta_json_matches_data():
    code, doc = jrun("zeta", "--ring", "ex36.ring", "-s", "2")
    assert code == 0
    assert doc["zeta"] == "1 + 2*X^2"
    assert doc["ord"] == 1
    assert doc["coeffs"] == ["1", "0", "2"]
    assert doc["field"] == {"p": 3, "n": 1, "q": 3}
    assert doc["d_max"] == 2


def test_zeta_json_names_the_extension_modulus():
    code, doc = jrun("zeta", "--ring", "fqx4", "-s", "3")
    assert code == 0
    assert doc["field"] == {"p": 2, "n": 2, "q": 4, "modulus": "t^2 + t + 1"}


def test_zeta_coefficient_outside_fq_x_is_bracketed():
    # the X^5 coefficient of zeta(-53) on ex36 lies in y F_3[x]: the text
    # brackets its coordinates, the document lists them joined by '; '
    code, doc = jrun("zeta", "--ring", "ex36", "-s", "53")
    assert code == 0 and doc["d_max"] == 5
    top = doc["coeffs"][5]
    assert top.startswith("0; 2*x^107 + 2*x^105 + 2*x^99 + x^98 + 2*x^97 + ")
    assert all(";" not in c for c in doc["coeffs"][:5])
    res = run("zeta", "--ring", "ex36", "-s", "53")
    assert res.exit_code == 0
    line = f"zeta(-53, X) = {doc['zeta']}"
    assert line in res.text.splitlines()
    assert line.endswith(f")*X^4 + [{top}]*X^5")
    assert line.count("[") == 1


def test_zeta_fqx_trivial_zero():
    code, doc = jrun("zeta", "--ring", "fqx3.ring", "-s", "2")
    assert doc["zeta"] == "1 + 2*X"
    assert doc["value_at_one"] == "0"
    assert doc["ord"] == 1


def test_zeta_all_ideals():
    code, doc = jrun("zeta", "--ring", "h4g3.ring", "-s", "2",
                     "--all-ideals")
    assert code == 0
    assert doc["method"] == "classwise"
    assert doc["zeta"] == "1 + X + (x^2 + x + 1)*X^2 + X^3 + (x^2 + x)*X^4"
    assert doc["ord"] == 2
    assert doc["h"] == 4 and doc["e"] == 2


def test_zeta_all_ideals_direct_agrees():
    _, classwise = jrun("zeta", "--ring", "h4g3.ring", "-s", "2",
                        "--all-ideals")
    _, direct = jrun("zeta", "--ring", "h4g3.ring", "-s", "2",
                     "--all-ideals", "--direct")
    assert direct["method"] == "direct"
    assert direct["d_max"] == classwise["d_max"]
    assert direct["coeffs"] == classwise["coeffs"]


def test_zeta_direct_default_cutoff_computes_no_classwise_zeta(monkeypatch):
    _, classwise = jrun("zeta", "--ring", "h4g3", "-s", "4", "--all-ideals")

    def refuse(*args, **kwargs):
        raise RuntimeError("a classwise zeta was computed on the direct route")

    monkeypatch.setattr("ffzeta.cli.ideal_zeta_classwise", refuse)
    monkeypatch.setattr("ffzeta.ideal_zeta.ideal_zeta_classwise", refuse)
    res = dispatch(["zeta", "--all-ideals", "--direct", "--ring", "h4g3",
                    "-s", "4", "--json"])
    assert res.exit_code == 0, res.text
    direct = json.loads(res.text)
    assert direct["d_max"] == classwise["d_max"]
    assert direct["coeffs"] == classwise["coeffs"]


def test_zeta_over_budget_refused_before_first_power(no_powers):
    res = run("zeta", "--ring", "fqx2", "-s", "2097151")
    assert res.exit_code == 1
    assert res.text == ("error: a power-sum slice over 2^21 points exceeds "
                        "the budget 1048576")
    res = run("zeta", "--ring", "h4g3", "-s", "4194302", "--all-ideals")
    assert res.exit_code == 1
    assert res.text == ("error: a power-sum slice over 2^21 points exceeds "
                        "the budget 1048576")


def test_zeta_all_ideals_bad_exponent():
    res = run("zeta", "--ring", "h4g3.ring", "-s", "3", "--all-ideals")
    assert res.exit_code == 1
    assert "class-group exponent" in res.text


@pytest.mark.parametrize("route", [("zeta", "--all-ideals"),
                                   ("zeta", "--all-ideals", "--direct"),
                                   ("powsum", "-d", "2")])
def test_zeta_all_ideals_zero_exponent(route):
    # 0 is a multiple of every exponent e; it is refused as s < 1, and
    # powsum refuses it the same way
    res = run(*route, "--ring", "h4g3", "-s", "0")
    assert res.exit_code == 1
    assert res.text == "error: s must be a positive integer, got 0"


def test_zeta_direct_needs_all_ideals():
    res = run("zeta", "--ring", "h4g3.ring", "-s", "3", "--direct")
    assert res.exit_code == 2
    assert "--direct" in res.text


def test_zeta_dmax_is_usage_error():
    # the direct route always stops at the certified cutoff; there is no
    # option to cut it shorter
    res = run("zeta", "--ring", "h4g3", "-s", "4", "--all-ideals",
              "--direct", "--dmax", "1")
    assert res.exit_code == 2
    assert "--dmax" in res.text


def test_zeta_ring_file(tmp_path):
    p = tmp_path / "mine.ring"
    p.write_text(serialize_ring_spec(parse_ring_spec("ex36.ring")))
    res = run("zeta", "--ring", str(p), "-s", "2")
    assert res.exit_code == 0 and "1 + 2*X^2" in res.text


# -- gaps / semigroups ------------------------------------------------------

def test_gaps():
    code, doc = jrun("gaps", "--ring", "ex26.ring")
    assert doc["generators"] == [2, 7]
    assert doc["gaps"] == [1, 3, 5]
    assert doc["genus"] == 3
    assert doc["frobenius"] == 5
    assert doc["valid_r"] == [2, 3]


def test_semigroups_census():
    code, doc = jrun("semigroups", "--genus", "3")
    assert doc["count"] == 4
    assert len(doc["semigroups"]) == 4
    code, doc = jrun("semigroups", "--genus", "3", "--q", "2")
    assert all("valid_r" in s for s in doc["semigroups"])


# -- class group / lpoly -----------------------------------------------------

def test_classgroup_text_and_json():
    res = run("classgroup", "--ring", "h4g3.ring")
    assert res.exit_code == 0
    assert "h = 4, exponent e = 2" in res.text
    assert "ideal counts c_0..c_6: 1, 2, 3, 4, 6, 12, 32" in res.text
    code, doc = jrun("classgroup", "--ring", "h4g3.ring")
    assert doc["h"] == 4 and doc["e"] == 2
    assert doc["counts"] == [1, 2, 3, 4, 6, 12, 32]
    assert doc["classes"] == [{"d": 1, "e": 2, "f": "x"},
                              {"d": 1, "e": 2, "f": "x + 1"},
                              {"d": 2, "e": 2, "f": "x^2 + x"}]


def test_classgroup_trivial():
    res = run("classgroup", "--ring", "fqx2")
    assert res.exit_code == 0
    assert res.text.endswith("h = 1, exponent e = 1\ntrivial class group")


def test_lpoly():
    code, doc = jrun("lpoly", "--ring", "h4g3.ring")
    assert doc["lpoly"] == [1, 0, -1, -2, -2, 0, 8]
    assert doc["P"] == "1 - t^2 - 2*t^3 - 2*t^4 + 8*t^6"
    assert doc["value_at_one"] == 4
    assert doc["functional_equation"] is True


def _ring_file(tmp_path, name, field, c0):
    p = tmp_path / f"{name}.ring"
    p.write_text(f"[field]\n{field}\n\n[ring]\nform = cab\nname = {name}\n"
                 f"m = 2\nc0 = {c0}\nc1 = 0\n")
    return str(p)


def test_lpoly_finds_no_class_representatives(monkeypatch):
    # the L-polynomial needs the ideal counts only, not the classes
    def refuse(I):
        raise AssertionError("lpoly tested an ideal for reducedness")

    monkeypatch.setattr("ffzeta.ideals._is_reduced", refuse)
    code, doc = jrun("lpoly", "--ring", "h4g3.ring")
    assert code == 0
    assert doc["lpoly"] == [1, 0, -1, -2, -2, 0, 8]


H20G2 = str(Path(__file__).resolve().parent.parent / "perfbench" / "rings"
            / "h20g2.ring")


def test_rank_two_counts_and_classes_build_no_ideal_with_content(
        monkeypatch):
    # at m = 2 the counts and the representatives come from the Mumford
    # pairs alone: no monic content w is listed and no ideal is enumerated
    want = {(cmd, ring): run(cmd, "--ring", ring).text
            for cmd in ("lpoly", "classgroup") for ring in ("h4g3", H20G2)}

    def refuse(*args):
        raise AssertionError("an ideal with content was built")

    monkeypatch.setattr("ffzeta.ideals.monic_polys", refuse)
    monkeypatch.setattr("ffzeta.ideals.enumerate_ideals", refuse)
    for (cmd, ring), text in want.items():
        res = run(cmd, "--ring", ring)
        assert res.exit_code == 0 and res.text == text
    assert want["lpoly", "h4g3"].endswith(
        "P(t) = 1 - t^2 - 2*t^3 - 2*t^4 + 8*t^6\nP(1) = 4\n"
        "functional equation: verified")
    assert want["classgroup", "h4g3"].endswith(
        "genus = 3\nideal counts c_0..c_6: 1, 2, 3, 4, 6, 12, 32\n"
        "h = 4, exponent e = 2\n"
        "class 1: d_1 = 1, e_1 = 2, f_1 = x\n"
        "class 2: d_2 = 1, e_2 = 2, f_2 = x + 1\n"
        "class 3: d_3 = 2, e_3 = 2, f_3 = x^2 + x")
    assert want["lpoly", H20G2].endswith(
        "P(t) = 1 + 2*t + 2*t^2 + 6*t^3 + 9*t^4\nP(1) = 20\n"
        "functional equation: verified")
    code, doc = jrun("classgroup", "--ring", H20G2)
    assert (doc["counts"], doc["h"], doc["e"]) == ([1, 5, 17, 57, 180], 20, 10)
    assert [(c["d"], c["e"]) for c in doc["classes"]] == [
        (1, 2), (1, 10), (1, 10), (1, 10), (1, 10), (2, 2), (2, 10), (2, 10),
        (2, 10), (2, 10), (2, 10), (2, 10), (2, 5), (2, 5), (2, 2), (2, 10),
        (2, 10), (2, 5), (2, 5)]
    assert doc["classes"][5]["f"] == "x^2 + 1"


def test_lpoly_reports_points_checked():
    res = run("lpoly", "--ring", "h4g3.ring")
    assert res.text.endswith("functional equation: verified")
    code, doc = jrun("lpoly", "--ring", "h4g3.ring")
    assert doc["points_checked"] == 6 and doc["functional_equation"] is True
    code, doc = jrun("lpoly", "--ring", "fqx2.ring")
    assert doc["points_checked"] == 0 and doc["functional_equation"] is True


def test_lpoly_point_counts_below_2g(tmp_path):
    # genus 2 over F_5: 5^4 > 512, so K = 3, still past g
    ring = _ring_file(tmp_path, "g2f5", "p = 5",
                      "4*x^5 + 2*x^4 + 4*x^3 + x^2 + 2")
    code, doc = jrun("lpoly", "--ring", ring)
    assert code == 0
    assert doc["lpoly"] == [1, -5, 13, -25, 25]
    assert doc["points_checked"] == 3
    assert doc["functional_equation"] is True


def test_lpoly_functional_equation_by_construction(tmp_path):
    # genus 1 over F_25: 25^2 > 512, so K = 1 = g and the top half of P is
    # never compared with a point count
    ring = _ring_file(tmp_path, "e25", "p = 5\nn = 2\nmodulus = t^2 + 2",
                      "4*x^3 + (2*t + 4)*x^2 + (3*t + 4)*x + 2*t + 4")
    code, doc = jrun("lpoly", "--ring", ring)
    assert code == 0
    assert doc["lpoly"] == [1, -10, 25]
    assert doc["points_checked"] == 1
    assert doc["functional_equation"] is False
    res = run("lpoly", "--ring", ring)
    assert res.text.endswith(
        "functional equation: holds by construction; point count N_1 checked")


@pytest.mark.parametrize("p,c0,lpoly,points_checked", [
    (17, "16*x^3 + 16*x + 16", [1, 0, 17], 2),   # y^2 = x^3 + x + 1
    (31, "30*x^3 + 30*x + 28", [1, 9, 31], 1),   # y^2 = x^3 + x + 3
], ids=["F17", "F31"])
def test_elliptic_curves_above_p13(tmp_path, p, c0, lpoly, points_checked):
    # genus 1, P = 1 + a T + p T^2: the brute-force count gives
    # N_1 = p + 1 + a and, over F_(p^2) when it fits the table cap,
    # N_2 = p^2 + 1 + 2p - a^2
    ring = _ring_file(tmp_path, f"e{p}", f"p = {p}", c0)
    spec = parse_ring_spec(ring)
    a = brute_points(spec, 1) - p
    assert lpoly == [1, a, p]
    if points_checked == 2:
        assert 1 + brute_points(spec, 2) == p * p + 1 + 2 * p - a * a
    code, doc = jrun("lpoly", "--ring", ring)
    assert code == 0
    assert doc["lpoly"] == lpoly
    assert doc["points_checked"] == points_checked
    code, doc = jrun("classgroup", "--ring", ring)
    assert code == 0
    assert doc["h"] == sum(lpoly)
    assert len(doc["classes"]) == sum(lpoly) - 1   # the nontrivial ones


def test_all_ideals_refused_when_monic_not_multiplicative(tmp_path,
                                                         monkeypatch):
    # y^2 = 2x^5 + ..: y is monic, y^2 is not, so the two all-ideals routes
    # normalise generators differently; both are refused before any class
    # group is computed
    ring = _ring_file(tmp_path, "h20g2", "p = 3", "x^5 + x^4 + x^2 + 2*x")

    def no_class_group(*args, **kwargs):
        raise AssertionError("class group computed before the refusal")

    with monkeypatch.context() as patch:
        patch.setattr("ffzeta.cli.class_group", no_class_group)
        for extra in ([], ["--direct"]):
            res = run("zeta", "--ring", ring, "--all-ideals", "-s", "10",
                      *extra)
            assert res.exit_code == 1
            assert res.text.startswith(
                "error: b_1 * b_1 has leading coefficient 2")
            code, doc = jrun("zeta", "--ring", ring, "--all-ideals", "-s",
                             "10", *extra)
            assert code == 1 and doc["kind"] == "ValueError"
    code, doc = jrun("classgroup", "--ring", ring)
    assert code == 0 and doc["h"] == 20
    code, doc = jrun("lpoly", "--ring", ring)
    assert code == 0 and doc["value_at_one"] == 20


def test_classgroup_refuses_singular(tmp_path):
    p = tmp_path / "cusp.ring"
    p.write_text("[field]\np = 3\n\n[ring]\nform = cab\nm = 2\n"
                 "c0 = 2*x^3\nc1 = 0\n")
    res = run("classgroup", "--ring", str(p))
    assert res.exit_code == 1
    assert "singular" in res.text


def test_y_term_at_odd_p(tmp_path):
    # y^2 + x y = x^5 + x + 1 over F_5: the ideal scan must read the sign
    # of the y-term, or Cantor's law meets a non-ideal and fails
    p = tmp_path / "xy5.ring"
    p.write_text("[field]\np = 5\n\n[ring]\nform = cab\nm = 2\n"
                 "c0 = 4*x^5 + 4*x + 4\nc1 = x\n")
    code, doc = jrun("classgroup", "--ring", str(p))
    assert code == 0
    assert (doc["h"], doc["e"]) == (25, 25)
    assert doc["counts"] == [1, 4, 25, 120, 625]
    assert run("classgroup", "--ring", str(p)).exit_code == 0
    code, doc = jrun("lpoly", "--ring", str(p))
    assert code == 0 and doc["lpoly"] == [1, -1, 5, -5, 25]
    routes = []
    for extra in ([], ["--direct"]):
        assert run("zeta", "--ring", str(p), "--all-ideals", "-s", "25",
                   *extra).exit_code == 0
        code, doc = jrun("zeta", "--ring", str(p), "--all-ideals", "-s",
                         "25", *extra)
        assert code == 0
        routes.append((doc["d_max"], doc["coeffs"]))
    assert routes[0] == routes[1]


# -- check ------------------------------------------------------------------

def test_check_hiper():
    code, doc = jrun("check", "--ring", "ex26.ring", "-s", "7",
                     "--theorem", "hiper")
    assert doc["applicable"] is True
    assert doc["predicted"] == {"kind": "exact", "order": 2}
    assert doc["computed"] == 2
    assert all(c["passed"] for c in doc["checks"])


def test_check_tesismc_text():
    res = run("check", "--ring", "h4g3.ring", "-s", "1",
              "--theorem", "tesismc")
    assert res.exit_code == 0
    assert "[ok  ]" in res.text and "[FAIL]" not in res.text
    assert "predicted: ord >= 2" in res.text
    assert "computed ord: 2" in res.text
    assert "order exactly q" in res.text


def test_check_tesismc_json_remark():
    code, doc = jrun("check", "--ring", "h4g3.ring", "-s", "1",
                     "--theorem", "tesismc")
    assert doc["mu"] == 1 and doc["exponent"] == 2
    assert doc["remark"]["identity_holds"] is True
    assert doc["remark"]["u_coeffs"] == ["1", "1", "x^2 + x"]
    assert doc["remark"]["order_exactly_q"] is True


GOLDEN = {
    "check_tesismc_h4g3_s1":
        ["check", "--theorem", "tesismc", "--ring", "h4g3", "-s", "1"],
    "check_generalization_ex26_s1":
        ["check", "--theorem", "generalization", "--ring", "ex26", "-s", "1"],
    "zeta_all_ideals_h4g3_s2":
        ["zeta", "--all-ideals", "--ring", "h4g3", "-s", "2"],
    "classgroup_ex36": ["classgroup", "--ring", "ex36"],
    # h = 34, cyclic: every nontrivial class is tested up to its order
    "classgroup_h34": ["classgroup", "--ring", str(GOLDEN_DIR / "h34.ring")],
    # stops at the form
    "check_tesismc_ex36_s2":
        ["check", "--theorem", "tesismc", "--ring", "ex36", "-s", "2"],
    # stops at "form y^2 - a y = b, N odd"
    "check_generalization_fqx2_s3":
        ["check", "--theorem", "generalization", "--ring", "fqx2", "-s", "3"],
    # fails the digit condition and reports mu
    "check_tesismc_h4g3_s3":
        ["check", "--theorem", "tesismc", "--ring", "h4g3", "-s", "3"],
    # applicable: computed ord 2 and the structural identity
    "check_dinesh_h4g3_s7":
        ["check", "--theorem", "dinesh", "--ring", "h4g3", "-s", "7"],
}


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name, fmt):
    # files under tests/golden hold the exact stdout, text and --json
    argv = GOLDEN[name] + (["--json"] if fmt == "json" else [])
    res = dispatch(argv)
    assert res.exit_code == 0
    want = (GOLDEN_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert res.text + "\n" == want


@pytest.mark.parametrize("theorem",
                         ["hiper", "dinesh", "generalization", "tesismc"])
def test_check_mu_is_usage_error(theorem):
    # mu is derived by the all-ideals chains; there is no option to set it
    res = run("check", "--ring", "ex26.ring", "-s", "7",
              "--theorem", theorem, "--mu", "1")
    assert res.exit_code == 2
    assert "--mu" in res.text


def test_check_theorem_choices_are_the_theorem_table():
    (check,) = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    (theorem,) = [a for a in check.choices["check"]._actions
                  if a.dest == "theorem"]
    assert list(theorem.choices) == list(THEOREMS)


def test_check_failed_chain_renders():
    res = run("check", "--ring", "ex36.ring", "-s", "1",
              "--theorem", "tesismc")
    assert res.exit_code == 0      # an inapplicable chain is still a result
    assert "[FAIL]" in res.text
    code, doc = jrun("check", "--ring", "ex36.ring", "-s", "1",
                     "--theorem", "tesismc")
    assert doc["applicable"] is False
    assert doc["checks"][-1]["passed"] is False


# -- powsum -----------------------------------------------------------------

def test_powsum():
    code, doc = jrun("powsum", "--ring", "fqx2.ring", "-s", "3", "-d", "2")
    assert doc["S"] == "x^2 + x"
    assert doc["is_zero"] is False
    assert doc["dim_W"] == 2
    assert doc["threshold"] == "2"


def test_powsum_over_budget_refused_at_once(no_powers):
    # S(100000) over F_2[x] sums over 2^100000 elements; the refusal names
    # the slice readably and builds no basis first
    start = time.perf_counter()
    res = run("powsum", "--ring", "fqx2", "-d", "100000", "-s", "1")
    assert time.perf_counter() - start < 1
    assert res.exit_code == 1
    assert res.text == ("error: a power-sum slice over 2^100000 points "
                        "exceeds the budget 1048576")


def test_powsum_vanishing():
    # dim W_3 = 3 exceeds l_2(3)/(2-1) = 2, so the sum is forced to zero
    code, doc = jrun("powsum", "--ring", "fqx2.ring", "-s", "3", "-d", "3")
    assert doc["S"] == "0" and doc["is_zero"] is True


def test_powsum_beyond_threshold_takes_no_power(no_powers):
    # dim W_11 = 11 exceeds l_3(1)/2 = 1/2: zero with no power taken, though
    # the slice's 3^11 points are within the budget
    code, doc = jrun("powsum", "--ring", "fqx3", "-d", "11", "-s", "1")
    assert code == 0
    assert doc["S"] == "0" and doc["dim_W"] == 11


# -- search -----------------------------------------------------------------

FAMILY = ("search", "--q", "2", "--family", "artin-schreier",
          "--fix-a", "x^2 + x", "--deg-b", "7..7", "--b-div-a")


def test_search_window():
    code, doc = jrun(*FAMILY, "--parts", "4", "--part", "2")
    assert code == 0
    assert doc["space"]["window"] == [8, 16]
    assert doc["summary"]["total"] == 8
    assert [r["index"] for r in doc["records"]] == list(range(8, 16))


def test_search_q_is_the_field_size(tmp_path):
    ckpt = tmp_path / "q4.ckpt"
    code, doc = jrun("search", "--q", "4", "--family", "artin-schreier",
                     "--deg-a", "1", "--deg-b", "5", "--parts", "512",
                     "--part", "1", "--checkpoint", str(ckpt))
    assert code == 0
    assert doc["space"]["q"] == 4
    assert len(doc["records"]) == 8
    assert "a=x;b=x^5 + t" in [r["coeffs"] for r in doc["records"]]
    assert ckpt.read_text().startswith("# search q=4 ")
    res = run("search", "--q", "6", "--family", "artin-schreier")
    assert res.exit_code == 1
    assert res.text.startswith("error: q must be a prime power p^n")
    assert res.text.endswith("got 6")


def test_search_part_validation():
    res = run("search", "--q", "2", "--family", "artin-schreier",
              "--deg-b", "3..3", "--part", "2")
    assert res.exit_code == 2
    res = run("search", "--q", "2", "--family", "artin-schreier",
              "--deg-b", "3..3", "--parts", "2", "--part", "3")
    assert res.exit_code == 2
    res = run("search", "--q", "2", "--family", "artin-schreier",
              "--parts", "0", "--part", "0")
    assert res.exit_code == 2
    assert "--parts must be at least 1, got 0" in res.text


def test_search_full_family():
    res = run(*FAMILY)
    assert res.exit_code == 0
    assert "total 32" in res.text
    assert "hypotheses:pass: 2" in res.text
    assert "a=x^2 + x;b=x^7 + x^6 + x^5 + x" in res.text
    code, doc = jrun(*FAMILY)
    assert doc["summary"]["passing"] == [
        "a=x^2 + x;b=x^7 + x^6 + x^5 + x",
        "a=x^2 + x;b=x^7 + x^4 + x^3 + x"]


def test_search_computes_no_zeta(monkeypatch):
    # search takes each candidate's conditions; the order step, which sums
    # a classwise zeta and checks the remark on it, never runs
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("ideal_zeta_classwise", "remark_exact_check"):
        fn = getattr(ffzeta.ideal_zeta, name)
        for module in ("ffzeta.ideal_zeta", "ffzeta.theorems"):
            monkeypatch.setattr(f"{module}.{name}", counted(name, fn))
    code, doc = jrun(*FAMILY)
    assert calls == []
    assert doc["summary"] == {
        "total": 32,
        "outcomes": {
            "hypotheses:failed: each f_k squarefree and divides b(x)": 6,
            "hypotheses:pass": 2, "ring-valid:singular": 24},
        "passing": ["a=x^2 + x;b=x^7 + x^6 + x^5 + x",
                    "a=x^2 + x;b=x^7 + x^4 + x^3 + x"]}


def test_search_h_budget_refuses_large_class_groups():
    argv = ("search", "--q", "2", "--family", "artin-schreier",
            "--deg-a", "1", "--deg-b", "3", "--h-budget", "1")
    res = run(*argv)
    assert res.exit_code == 0
    assert "class-group:budget-exceeded: 8" in res.text
    assert "ring-valid:singular: 8" in res.text
    code, doc = jrun(*argv)
    assert doc["summary"] == {
        "total": 16, "passing": [],
        "outcomes": {"class-group:budget-exceeded": 8,
                     "ring-valid:singular": 8}}
    # below 1 no class group fits; the search is refused, not run
    argv = argv[:-1] + ("-1",)
    res = run(*argv)
    assert res.exit_code == 1
    assert res.text == "error: h_budget must be at least 1, got -1"
    code, doc = jrun(*argv)
    assert code == 1 and doc == {
        "error": "h_budget must be at least 1, got -1", "kind": "ValueError"}


def test_search_has_no_min_r_flag():
    # the r >= q - 1 threshold is the theorems' own; search adds no other
    res = run("search", "--q", "2", "--family", "artin-schreier",
              "--deg-b", "3", "--min-r", "2")
    assert res.exit_code == 2
    assert "unrecognized arguments: --min-r 2" in res.text


def test_search_checkpoint(tmp_path):
    ckpt = tmp_path / "cli.ckpt"
    code, first = jrun(*FAMILY, "--parts", "2", "--part", "1",
                       "--checkpoint", str(ckpt))
    code, full = jrun(*FAMILY, "--checkpoint", str(ckpt))
    resumed = [r for r in full["records"] if r["resumed"]]
    assert len(resumed) == 16
    assert full["summary"]["total"] == 32


# -- plumbing ---------------------------------------------------------------

def test_usage_errors_exit_2():
    assert run("zeta", "--ring", "ex36.ring").exit_code == 2       # no -s
    assert run("nonsense").exit_code == 2
    assert run("zeta", "--ring", "ex36.ring", "-s", "nope").exit_code == 2


SEARCH_AS = ("search", "--family", "artin-schreier")


# integer flags read ASCII digits after an optional '-', like ring files;
# each of these ran before (as 2, 10, 3, 2, 10, 5..6 and 1000)
@pytest.mark.parametrize("argv, flag", [
    (("zeta", "--ring", "ex36", "-s", "٢"), "-s"),
    (("zeta", "--ring", "ex36", "-s", "+2"), "-s"),
    (("zeta", "--ring", "ex36", "-s", "1_0"), "-s"),
    (("semigroups", "--genus", "٣"), "--genus"),
    ((*SEARCH_AS, "--q", "٢"), "--q"),
    ((*SEARCH_AS, "--q", "2", "--deg-b", "1_0"), "--deg-b"),
    ((*SEARCH_AS, "--q", "2", "--deg-b", "5..٦"), "--deg-b"),
    ((*SEARCH_AS, "--q", "2", "--parts", "1_000", "--part", "1"), "--parts"),
], ids=["s-arabic", "s-plus", "s-underscore", "genus-arabic", "q-arabic",
        "deg-b-underscore", "deg-b-range-arabic", "parts-underscore"])
def test_integer_flags_are_ascii_digits(argv, flag):
    res = run(*argv)
    assert res.exit_code == 2
    assert f"argument {flag}: expected " in res.text


def test_negative_integer_flags_reach_their_checks():
    res = run("zeta", "--ring", "ex36", "-s", "-1")
    assert res.exit_code == 1
    assert "s must be a positive integer, got -1" in res.text
    code, doc = jrun("powsum", "--ring", "ex36", "-d", "-1", "-s", "3")
    assert code == 0 and doc["S"] == "0" and doc["dim_W"] == 0


def test_error_json_doc():
    code, doc = jrun("zeta", "--ring", "no-such.ring", "-s", "2")
    assert code == 1
    assert set(doc) == {"error", "kind"}
    assert doc["kind"] == "RingFileError"


def test_error_text_mode():
    res = run("zeta", "--ring", "no-such.ring", "-s", "2")
    assert res.exit_code == 1
    assert res.text.startswith("error:")


def test_help_exits_zero():
    assert run("--help").exit_code == 0
    assert run("zeta", "--help").exit_code == 0


@pytest.mark.parametrize("argv,key", [
    (["zeta", "--ring", "ex26.ring", "-s", "7"], "zeta"),
    (["gaps", "--ring", "ex26.ring"], "gaps"),
    (["classgroup", "--ring", "ex36.ring"], "h"),
    (["lpoly", "--ring", "ex26.ring"], "P"),
    (["check", "--ring", "h4g3.ring", "-s", "1",
      "--theorem", "generalization"], "applicable"),
    (["powsum", "--ring", "fqx3.ring", "-s", "2", "-d", "1"], "S"),
    (["semigroups", "--genus", "2"], "semigroups"),
])
def test_json_text_same_data(argv, key):
    """--json prints exactly the data dict every command also returns."""
    plain = dispatch(argv)
    jres = dispatch(argv + ["--json"])
    assert plain.exit_code == jres.exit_code == 0
    doc = json.loads(jres.text)
    assert key in doc
    assert doc == json.loads(json.dumps(plain.data))


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "ffzeta", "zeta", "--ring", "ex36.ring",
         "-s", "2"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "1 + 2*X^2" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "ffzeta", "zeta"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr and not proc.stdout


def test_broken_pipe_exits_1_without_a_traceback():
    # stdout is a pipe whose reader has already gone
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ffzeta", "classgroup", "--ring", "ex36"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
