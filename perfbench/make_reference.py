#!/usr/bin/env python3
"""Regenerate the stored references the benchmark checks ops against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every fresh pool entry once through `ffzeta.cli.dispatch` and writes
its mathematical fields (checks.math_fields) to
`perfbench/reference/<workload>.json`.  Resume entries share the reference
of the block they rerun.  For every ring a workload names it also records
that it validates nonsingular and its genus and class number found two
ways: g from the degree semigroup and from (m-1)(N-1)/2, h as P(1) and as
the number of classes found, and c_1 against an affine point count.

Only regenerate on purpose: a reference written from a wrong program makes
the benchmark accept wrong results.
"""

import json
import os
import sys

import run
import checks
import pools


def ring_record(name, spec, cg_doc, lp_doc, points):
    rep = spec.validate()
    from ffzeta.semigroup import semigroup_from_ring

    rec = {
        "validates": rep.ok,
        "nonsingular": rep.singular_finite == (),
        "q": spec.q,
        "genus_semigroup": semigroup_from_ring(spec).genus,
        "genus_formula": 0 if spec.m == 1 else (spec.m - 1) * (spec.N - 1) // 2,
        "h_lpoly": sum(lp_doc["lpoly"]),
        "h_classes": len(cg_doc["classes"]) + 1,
        "e": cg_doc["e"],
    }
    agree = (rec["validates"] and rec["nonsingular"]
             and rec["genus_semigroup"] == rec["genus_formula"]
             == cg_doc["genus"]
             and rec["h_lpoly"] == rec["h_classes"] == cg_doc["h"])
    if name in points:
        rec["c1"] = cg_doc["counts"][1]
        rec["affine_points"] = points[name][1]
        agree = agree and rec["c1"] == rec["affine_points"]
    rec["agree"] = agree
    return rec


def _json(cli, argv):
    res = cli.dispatch(list(argv) + ["--json"])
    if res.exit_code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit code {res.exit_code}: "
                         f"{res.text}")
    return json.loads(res.text)


def build(workload, cli, specs, points):
    entries = {}
    for e in pools.pool(workload):
        if e.block is None:
            entries[e.id] = checks.math_fields(e.command, _json(cli, e.argv))
            print(f"  {e.id}", file=sys.stderr)
    rings = {}
    for name, arg in pools.pool_rings(workload):
        cg_doc = _json(cli, ("classgroup", "--ring", arg))
        lp_doc = _json(cli, ("lpoly", "--ring", arg))
        rings[name] = ring_record(name, specs[name], cg_doc, lp_doc, points)
    bad = [n for n, r in rings.items() if not r["agree"]]
    if bad:
        raise SystemExit(f"two-route ring facts disagree for {bad}")
    return {"workload": workload, "entries": entries, "rings": rings}


def main(argv):
    run.pin_threads()
    run.import_program()
    os.chdir(run.ROOT)
    for workload in argv or pools.WORKLOADS:
        print(workload, file=sys.stderr)
        cli, specs = run.setup(workload)
        points = run.ring_facts(specs)
        out = build(workload, cli, specs, points)
        path = os.path.join(run.HERE, "reference", workload + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
