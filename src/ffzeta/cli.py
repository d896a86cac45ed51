"""Command-line frontend.

Subcommands: zeta, gaps, classgroup, lpoly, check, powsum, search,
semigroups.  Every subcommand accepts --json and then emits a structured
document carrying exactly the data the text rendering shows.  Exit codes:
0 success, 1 a computation was refused or failed, 2 usage error.

dispatch(argv) runs one invocation in process and returns a CommandResult,
which is what the test suite exercises; main() is the console entry point.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from ffzeta.errors import ConsistencyError
from ffzeta.gf import GF, Poly, poly_from_str, poly_to_str
from ffzeta.ideal_zeta import (ideal_zeta_classwise, ideal_zeta_direct,
                               require_monic_products)
from ffzeta.ideals import DEFAULT_IDEAL_BUDGET, class_group
from ffzeta.ring import RingElement
from ffzeta.ringfile import parse_ring_spec
from ffzeta.search import (FAMILIES, SearchSpace, search_partition,
                           search_run)
from ffzeta.semigroup import (enumerate_semigroups, r_gap_values,
                              semigroup_from_ring)
from ffzeta.theorems import (check_dinesh, check_generalization, check_hiper,
                             check_tesismc)
from ffzeta.zeta import (coeff_lit, power_sum_S, vanishing_threshold,
                         zeta_neg, zeta_to_str)

_THEOREMS = ("hiper", "dinesh", "generalization", "tesismc")


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    text: str
    data: dict = None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of killing the process."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}".rstrip())


# -- serialization helpers --------------------------------------------------

def _lit(v):
    """Re-ingestible literal for a coefficient-like value."""
    if isinstance(v, RingElement):
        return coeff_lit(v)
    if isinstance(v, Poly):
        return poly_to_str(v)
    if isinstance(v, Fraction):
        return str(v)
    return v


def _jsonable(v):
    v = _lit(v)
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        return [_jsonable(x) for x in v]
    return str(v)


def _field_doc(field):
    doc = {"p": field.p, "n": field.n, "q": field.q}
    if field.modulus is not None:
        doc["modulus"] = poly_to_str(Poly(GF(field.p), field.modulus), var="t")
    return doc


def _int_poly_str(coeffs, var="t"):
    """Integer-coefficient polynomial, low degree first in storage."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        body = (str(mag) if k == 0
                else (var if k == 1 else f"{var}^{k}") if mag == 1
                else f"{mag}*{var}{'' if k == 1 else f'^{k}'}")
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(terms) if terms else "0"


def _ring_header(spec):
    f = spec.field
    label = spec.name or spec.form
    return f"ring: {label} ({spec.form}, m = {spec.m}, over GF({f.q}))"


def _predicted_str(predicted):
    if predicted is None:
        return "none"
    kind, k = predicted
    return f"ord = {k} exactly" if kind == "exact" else f"ord >= {k}"


# -- subcommand handlers ----------------------------------------------------

def _cmd_zeta(args):
    if args.direct and not args.all_ideals:
        raise _UsageError("--direct applies with --all-ideals only")
    spec = parse_ring_spec(args.ring)
    data = {"ring": spec.name, "field": _field_doc(spec.field)}
    lines = [_ring_header(spec)]
    if not args.all_ideals:
        z = zeta_neg(args.s, spec)
        data["s"] = args.s
    else:
        require_monic_products(spec)
        report = class_group(spec)
        t = args.s
        if args.direct:
            z = ideal_zeta_direct(t, spec=spec, report=report)
            method = "direct"
        else:
            z = ideal_zeta_classwise(t, report, spec)
            method = "classwise"
        data.update({"t": t, "all_ideals": True, "method": method,
                     "h": report.h, "e": report.e})
        lines.append(f"all-ideals zeta(-{t}, X), {method} "
                     f"(h = {report.h}, e = {report.e})")
    lits = [coeff_lit(c) for c in z.coeffs]
    data.update({
        "zeta": zeta_to_str(lits),
        "coeffs": lits,
        "d_max": z.d_max,
        "value_at_one": _lit(z.value_at_one),
        "ord": z.ord_at_one(),
    })
    lines += [
        f"zeta(-{z.s}, X) = {data['zeta']}",
        f"d_max = {data['d_max']} (certified cutoff)",
        f"value at X = 1: {data['value_at_one']}",
        f"ord at X = 1: {data['ord']}",
    ]
    return "\n".join(lines), data


def _cmd_gaps(args):
    spec = parse_ring_spec(args.ring)
    S = semigroup_from_ring(spec)
    rep = r_gap_values(S, spec.q)
    data = {
        "ring": spec.name, "q": spec.q,
        "generators": list(S.generators),
        "gaps": list(S.gaps),
        "genus": S.genus,
        "frobenius": S.frobenius,
        "valid_r": list(rep.valid_r),
    }
    fmt = lambda xs: ", ".join(str(x) for x in xs) if xs else "(none)"
    text = "\n".join([
        _ring_header(spec),
        f"semigroup generators: {fmt(data['generators'])}",
        f"gaps: {fmt(data['gaps'])}",
        f"genus = {data['genus']}",
        f"frobenius number = {data['frobenius']}",
        f"valid r (q = {spec.q}): {fmt(data['valid_r'])}",
    ])
    return text, data


def _cmd_classgroup(args):
    spec = parse_ring_spec(args.ring)
    rep = class_group(spec)
    classes = [{"d": c.degree, "e": c.order, "f": _lit(c.generator)}
               for c in rep.nontrivial()]
    data = {
        "ring": spec.name, "genus": rep.genus,
        "counts": list(rep.counts), "h": rep.h, "e": rep.e,
        "classes": classes,
    }
    lines = [
        _ring_header(spec),
        f"genus = {rep.genus}",
        f"ideal counts c_0..c_{2 * rep.genus}: "
        + ", ".join(str(c) for c in rep.counts),
        f"h = {rep.h}, exponent e = {rep.e}",
    ]
    if not classes:
        lines.append("trivial class group")
    for k, c in enumerate(classes, start=1):
        lines.append(f"class {k}: d_{k} = {c['d']}, e_{k} = {c['e']}, "
                     f"f_{k} = {c['f']}")
    return "\n".join(lines), data


def _cmd_lpoly(args):
    spec = parse_ring_spec(args.ring)
    rep = class_group(spec)
    K = rep.points_checked
    data = {
        "ring": spec.name, "genus": rep.genus,
        "lpoly": list(rep.lpoly),
        "P": _int_poly_str(rep.lpoly),
        "value_at_one": rep.h,
        # the top half p_{g+1}..p_{2g} comes from the functional equation;
        # it is verified once a point count past degree g matched (genus 0
        # has no top half)
        "functional_equation": K > rep.genus or rep.genus == 0,
        "points_checked": K,
    }
    if data["functional_equation"]:
        fe_line = "functional equation: verified"
    else:
        checked = "point count N_1" if K == 1 else f"point counts N_1..N_{K}"
        fe_line = f"functional equation: holds by construction; {checked} checked"
    text = "\n".join([
        _ring_header(spec),
        f"P(t) = {data['P']}",
        f"P(1) = {rep.h}",
        fe_line,
    ])
    return text, data


def _cmd_check(args):
    spec = parse_ring_spec(args.ring)
    if args.mu is not None and args.theorem in ("hiper", "dinesh"):
        raise _UsageError("--mu applies to generalization and tesismc only")
    if args.theorem == "hiper":
        rep = check_hiper(spec, args.s)
    elif args.theorem == "dinesh":
        rep = check_dinesh(spec, args.s)
    elif args.theorem == "generalization":
        rep = check_generalization(spec, args.s, mu=args.mu)
    else:
        rep = check_tesismc(spec, args.s, mu=args.mu)

    data = {
        "theorem": rep.theorem, "ring": spec.name, "s": args.s,
        "checks": [{"name": c.name, "passed": c.passed,
                    "witness": _jsonable(c.witness)} for c in rep.checks],
        "applicable": rep.applicable,
        "predicted": (None if rep.predicted is None
                      else {"kind": rep.predicted[0], "order": rep.predicted[1]}),
        "computed": rep.computed,
        "mu": rep.mu,
        "exponent": rep.exponent,
        "identity": rep.identity,
    }
    lines = [f"theorem: {rep.theorem}", _ring_header(spec), f"s = {args.s}"]
    for c in rep.checks:
        mark = "ok  " if c.passed else "FAIL"
        suffix = "" if c.witness is None else f"  [{_jsonable(c.witness)}]"
        lines.append(f"  [{mark}] {c.name}{suffix}")
    lines.append(f"applicable: {'yes' if rep.applicable else 'no'}")
    lines.append(f"predicted: {_predicted_str(rep.predicted)}")
    if rep.exponent is not None:
        lines.append(f"zeta exponent: {rep.exponent}")
    if rep.mu is not None:
        lines.append(f"mu = {rep.mu}")
    if rep.computed is not None:
        lines.append(f"computed ord: {rep.computed}")
    if rep.identity is not None:
        lines.append(f"structural identity: {'holds' if rep.identity else 'FAILS'}")
    if rep.remark is not None:
        r = rep.remark
        u_lits = [coeff_lit(c) for c in r.u_coeffs]
        # "applicable" and "warning" are constant, kept for readers of the
        # document: a remark is attached only to an applicable chain
        data["remark"] = {
            "applicable": True,
            "identity_holds": r.identity_holds,
            "u_coeffs": u_lits,
            "u_at_one": _lit(r.u_at_one),
            "order_exactly_q": r.order_exactly_q,
            "h2_shortcut": r.h2_shortcut,
            "warning": None,
        }
        lines.append(f"exact factorization: U = {zeta_to_str(u_lits)}, "
                     f"identity {'holds' if r.identity_holds else 'FAILS'}, "
                     f"U(1) = {_lit(r.u_at_one)}"
                     + (", order exactly q" if r.order_exactly_q
                        else ", order may exceed q"))
    return "\n".join(lines), data


def _cmd_powsum(args):
    spec = parse_ring_spec(args.ring)
    val = power_sum_S(args.d, args.s, spec)
    tau = vanishing_threshold(args.s, spec.q)
    data = {
        "ring": spec.name, "d": args.d, "s": args.s,
        "S": _lit(val), "is_zero": val.is_zero,
        "dim_W": spec.dim_W(args.d), "threshold": _lit(tau),
    }
    text = "\n".join([
        _ring_header(spec),
        f"S({args.d}) at s = {args.s}: {data['S']}",
        f"dim W_{args.d} = {data['dim_W']}, vanishing threshold "
        f"l_q(s)/(q-1) = {tau}",
    ])
    return text, data


def _cmd_search(args):
    field = GF(args.q)
    fixed_a = (None if args.fix_a is None
               else poly_from_str(field, args.fix_a))
    space = SearchSpace(field=field, family=args.family,
                        deg_a=args.deg_a, deg_b=args.deg_b,
                        min_r=args.min_r,
                        h_budget=args.h_budget,
                        fixed_a=fixed_a,
                        b_multiple_of_a=args.b_div_a)
    if (args.parts is None) != (args.part is None):
        raise _UsageError("--parts and --part go together")
    if args.parts is not None:
        if not 1 <= args.part <= args.parts:
            raise _UsageError(f"--part must be in 1..{args.parts}")
        space = search_partition(space, args.parts)[args.part - 1]
    records, summary = search_run(space, checkpoint=args.checkpoint)
    data = {
        "space": space.describe(),
        "records": [{"index": r.index, "coeffs": r.coeffs, "stage": r.stage,
                     "verdict": r.verdict, "resumed": r.resumed}
                    for r in records],
        "summary": {"total": summary.total,
                    "outcomes": dict(sorted(summary.outcomes.items())),
                    "passing": list(summary.passing)},
    }
    d = space.describe()
    head = (f"search: family {d['family']}, q = {d['q']}, "
            f"deg_a {d['deg_a'][0]}..{d['deg_a'][1]}, "
            f"deg_b {d['deg_b'][0]}..{d['deg_b'][1]}, "
            f"window [{d['window'][0]}, {d['window'][1]}) of {d['size']}")
    lines = [head]
    for r in records:
        star = " (resumed)" if r.resumed else ""
        lines.append(f"{r.index}\t{r.coeffs}\t{r.stage}\t{r.verdict}{star}")
    lines.append(f"total {summary.total}")
    for key, n in sorted(summary.outcomes.items()):
        lines.append(f"  {key}: {n}")
    lines.append("passing: " + (", ".join(summary.passing)
                                if summary.passing else "(none)"))
    return "\n".join(lines), data


def _cmd_semigroups(args):
    out = []
    for S in enumerate_semigroups(args.genus):
        entry = {"generators": list(S.generators), "gaps": list(S.gaps),
                 "frobenius": S.frobenius}
        if args.q is not None:
            entry["valid_r"] = list(r_gap_values(S, args.q).valid_r)
        out.append(entry)
    data = {"genus": args.genus, "count": len(out), "semigroups": out}
    if args.q is not None:
        data["q"] = args.q
    fmt = lambda xs: ", ".join(str(x) for x in xs) if xs else "(none)"
    lines = [f"genus {args.genus}: {len(out)} semigroups"]
    for entry in out:
        line = (f"  <{fmt(entry['generators'])}>  "
                f"gaps {fmt(entry['gaps'])}")
        if args.q is not None:
            line += f"  valid_r(q={args.q}) {fmt(entry['valid_r'])}"
        lines.append(line)
    return "\n".join(lines), data


# -- parser and dispatch ----------------------------------------------------

def _range_pair(text):
    """LO..HI or a single degree N (meaning N..N)."""
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI or a single integer, got {text!r}")
    return (lo, hi)


def build_parser():
    parser = _Parser(prog="ffzeta", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, help_):
        sp = subs.add_parser(name, help=help_)
        sp.add_argument("--json", action="store_true",
                        help="emit a structured document instead of text")
        return sp

    sp = sub("zeta", "zeta(-s, X) of a ring, plain or over all ideals")
    sp.add_argument("--ring", required=True, help="ring file or bundled name")
    sp.add_argument("-s", type=int, required=True, help="exponent s >= 1")
    sp.add_argument("--all-ideals", action="store_true",
                    help="sum over all nonzero ideals instead of monic elements")
    sp.add_argument("--direct", action="store_true",
                    help="with --all-ideals: enumerate ideals degree by degree")
    sp.set_defaults(handler=_cmd_zeta)

    sp = sub("gaps", "Weierstrass gap data of the semigroup at infinity")
    sp.add_argument("--ring", required=True)
    sp.set_defaults(handler=_cmd_gaps)

    sp = sub("classgroup", "ideal class group: h, exponent, class data")
    sp.add_argument("--ring", required=True)
    sp.set_defaults(handler=_cmd_classgroup)

    sp = sub("lpoly", "L-polynomial from ideal counts")
    sp.add_argument("--ring", required=True)
    sp.set_defaults(handler=_cmd_lpoly)

    sp = sub("check", "test the hypothesis chain of a vanishing theorem")
    sp.add_argument("--ring", required=True)
    sp.add_argument("-s", type=int, required=True)
    sp.add_argument("--theorem", required=True, choices=_THEOREMS)
    sp.add_argument("--mu", type=int,
                    help="override the derived mu (generalization/tesismc)")
    sp.set_defaults(handler=_cmd_check)

    sp = sub("powsum", "power sum S(d) = sum of a^s over monic a of degree d")
    sp.add_argument("--ring", required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("-s", type=int, required=True)
    sp.set_defaults(handler=_cmd_powsum)

    sp = sub("search", "staged brute-force scan of Artin-Schreier candidates")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--deg-a", type=_range_pair, default=(1, 1),
                    metavar="LO..HI")
    sp.add_argument("--deg-b", type=_range_pair, default=(3, 3),
                    metavar="LO..HI")
    sp.add_argument("--min-r", type=int)
    sp.add_argument("--h-budget", type=int, default=DEFAULT_IDEAL_BUDGET)
    sp.add_argument("--parts", type=int, help="split into N contiguous blocks")
    sp.add_argument("--part", type=int, help="run block I of N (1-based)")
    sp.add_argument("--checkpoint", help="append-only resume file")
    sp.add_argument("--fix-a", metavar="POLY",
                    help="pin a(x) to one polynomial literal")
    sp.add_argument("--b-div-a", action="store_true",
                    help="restrict b to multiples of a")
    sp.set_defaults(handler=_cmd_search)

    sp = sub("semigroups", "numerical semigroups of a given genus")
    sp.add_argument("--genus", type=int, required=True)
    sp.add_argument("--q", type=int, help="also report valid r per semigroup")
    sp.set_defaults(handler=_cmd_semigroups)

    return parser


def dispatch(argv):
    """Run one invocation in process; never raises for user-level failures."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return CommandResult(2, str(exc))
    except SystemExit as exc:   # --help path: argparse already printed
        return CommandResult(exc.code or 0, "")
    try:
        text, data = args.handler(args)
    except _UsageError as exc:
        return CommandResult(2, str(exc))
    except (ValueError, ConsistencyError, OSError) as exc:
        data = {"error": str(exc), "kind": type(exc).__name__}
        text = json.dumps(data, indent=2) if args.json else f"error: {exc}"
        return CommandResult(1, text, data)
    if args.json:
        return CommandResult(0, json.dumps(_jsonable(data), indent=2), data)
    return CommandResult(0, text, data)


def main(argv=None):
    res = dispatch(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if res.exit_code == 2 else sys.stdout
    if res.text:
        print(res.text, file=stream)
    return res.exit_code


if __name__ == "__main__":
    sys.exit(main())
