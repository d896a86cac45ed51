import json
import subprocess
import sys
from pathlib import Path

import pytest

from ffzeta.cli import _jsonable, dispatch
from ffzeta.ringfile import serialize_ring_spec, parse_ring_spec

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run(*argv):
    return dispatch(list(argv))


def jrun(*argv):
    res = dispatch(list(argv) + ["--json"])
    assert res.exit_code in (0, 1), res.text
    return res.exit_code, json.loads(res.text)


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


def test_zeta_all_ideals_bad_exponent():
    res = run("zeta", "--ring", "h4g3.ring", "-s", "3", "--all-ideals")
    assert res.exit_code == 1
    assert "class-group exponent" in res.text


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


def test_all_ideals_refused_when_monic_not_multiplicative(tmp_path):
    # y^2 = 2x^5 + ..: y is monic, y^2 is not, so the two all-ideals routes
    # normalise generators differently; both are refused
    ring = _ring_file(tmp_path, "h20g2", "p = 3", "x^5 + x^4 + x^2 + 2*x")
    for extra in ([], ["--direct"]):
        res = run("zeta", "--ring", ring, "--all-ideals", "-s", "10", *extra)
        assert res.exit_code == 1
        assert res.text.startswith("error: b_1 * b_1 has leading coefficient 2")
        code, doc = jrun("zeta", "--ring", ring, "--all-ideals", "-s", "10",
                         *extra)
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


def test_check_mu_forbidden_for_hiper():
    res = run("check", "--ring", "ex26.ring", "-s", "7",
              "--theorem", "hiper", "--mu", "1")
    assert res.exit_code == 2
    assert "--mu" in res.text


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


def test_powsum_vanishing():
    # dim W_3 = 3 exceeds l_2(3)/(2-1) = 2, so the sum is forced to zero
    code, doc = jrun("powsum", "--ring", "fqx2.ring", "-s", "3", "-d", "3")
    assert doc["S"] == "0" and doc["is_zero"] is True


# -- search -----------------------------------------------------------------

FAMILY = ("search", "--q", "2", "--family", "artin-schreier",
          "--fix-a", "x^2 + x", "--deg-b", "7..7", "--b-div-a")


def test_search_window():
    code, doc = jrun(*FAMILY, "--parts", "4", "--part", "2")
    assert code == 0
    assert doc["space"]["window"] == [8, 16]
    assert doc["summary"]["total"] == 8
    assert [r["index"] for r in doc["records"]] == list(range(8, 16))


def test_search_part_validation():
    res = run("search", "--q", "2", "--family", "artin-schreier",
              "--deg-b", "3..3", "--part", "2")
    assert res.exit_code == 2
    res = run("search", "--q", "2", "--family", "artin-schreier",
              "--deg-b", "3..3", "--parts", "2", "--part", "3")
    assert res.exit_code == 2


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
    assert doc == json.loads(json.dumps(_jsonable(plain.data)))


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
