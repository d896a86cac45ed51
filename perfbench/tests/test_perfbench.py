"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks   # noqa: E402
import pools    # noqa: E402
import run      # noqa: E402
import speed    # noqa: E402
import tracing  # noqa: E402

run.import_program()


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _argvs(workload, seed, n_rounds=2):
    rounds = pools.op_rounds(workload, seed, "work")
    return [op.argv for _ in range(n_rounds) for op in next(rounds)]


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_seed_fixes_the_argv_sequence(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7) != _argvs(workload, 8)


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_every_round_runs_the_whole_pool_once(workload):
    ids = sorted(e.id for e in pools.pool(workload))
    assert len(set(ids)) == len(ids)
    rounds = pools.op_rounds(workload, 3, "work")
    for _ in range(3):
        assert sorted(op.entry.id for op in next(rounds)) == ids


@pytest.mark.parametrize("workload", pools.WORKLOADS)
def test_every_entry_has_a_reference(workload):
    ref = run.load_reference(workload)["entries"]
    for e in pools.pool(workload):
        assert (e.block or e.id) in ref


def _cheap_ops(tmp_path):
    """A few fast entries of every workload, as ops."""
    picks = {
        "zeta-elements": ("zeta fqx2 s=63", "powsum fqx2 d=5 s=63",
                          "check hiper ex36 s=3", "zeta ex36 s=26"),
        "class-groups": ("classgroup ell5", "lpoly ell5",
                         "zeta-all-ideals ell5 t=5",
                         "zeta-all-ideals-direct ell5 t=5",
                         "check generalization ell5 s=1"),
        "search-window": ("search q3a1b5 1/91", "search q3a1b5 1/91 resume=5",
                          "search q2a12b5 19/24"),
    }
    out = []
    for workload, ids in picks.items():
        entries = [e for e in pools.pool(workload) if e.id in ids]
        assert len(entries) == len(ids)
        ops = next(pools.op_rounds(workload, 0, str(tmp_path), entries))
        out.append((workload, ops))
    return out


def _run(workload, ops, tracer=None):
    cli, specs = run.setup(workload)
    reference = run.load_reference(workload)["entries"]
    checker = checks.Checker(reference, run.ring_facts(specs))
    results = run.Results(keep_text=True)
    run.run_ops(ops, cli, checker, reference, results, tracer)
    return results


def test_traced_and_untraced_ops_give_identical_results(in_root, tmp_path):
    for workload, ops in _cheap_ops(tmp_path):
        plain = _run(workload, ops)
        tracer = tracing.Tracer()
        with tracer:
            traced = _run(workload, ops, tracer)
        assert plain.failures == [] and traced.failures == []
        assert traced.texts == plain.texts
        assert tracer.stats["cli.dispatch"][0] == len(ops)


def test_wrappers_leave_no_patched_name_behind():
    import ffzeta.cli  # noqa: F401  loads every ffzeta module

    def bindings():
        out = {}
        for name, mod in sys.modules.items():
            if name == "ffzeta" or name.startswith("ffzeta."):
                for key, val in vars(mod).items():
                    out[(name, key)] = val
                    if isinstance(val, type):
                        for attr, member in vars(val).items():
                            out[(name, key, attr)] = member
        return out

    before = bindings()
    tracer = tracing.Tracer()
    with tracer:
        patched = tracing.patched_names()
        assert ("ffzeta.cli", "class_group") in patched
        assert ("ffzeta.search", "class_group") in patched
        assert ("ffzeta.ideals", "class_group") in patched
        assert ("ffzeta.gf:Poly", "__mul__") in patched
    assert tracing.patched_names() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_a_wrong_result_fails_the_op(in_root, tmp_path):
    workload, ops = _cheap_ops(tmp_path)[1]
    cli, specs = run.setup(workload)
    reference = json.loads(json.dumps(run.load_reference(workload)["entries"]))
    reference["classgroup ell5"]["h"] += 1
    checker = checks.Checker(reference, run.ring_facts(specs))
    results = run.Results()
    run.run_ops(ops, cli, checker, reference, results)
    assert [op_id for op_id, _ in results.failures] == ["classgroup ell5"]
    assert checker.missing_routes(workload) == []


def test_op_times_are_scaled_by_the_kernel_samples_around_them():
    results = run.Results(calibrate=True)
    results.times = [("a", "zeta", 0.2), ("b", "lpoly", 0.5),
                     ("a", "zeta", 0.6), ("a", "zeta", 0.4)]
    results.kernel_s = [2 * speed.REF_S] * 4
    assert speed.scales(results.kernel_s) == [0.5] * 4
    assert results.entry_times() == {"a": ("zeta", 0.2), "b": ("lpoly", 0.25)}
    assert speed.scales([1.0, 4.0, 1.0, 4.0, 4.0], window=1) == [
        speed.REF_S / m for m in (2.5, 1.0, 4.0, 4.0, 4.0)]


def test_metric_names_match_benchmark_json(in_root):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(pools.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        pools.WHY[w] for w in pools.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)

    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        line, _ = run.run("zeta-elements", 1, 0.0, trace)
        assert line["correct"] and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in listed]
        for m in listed:
            assert line["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(line["metrics"][m["name"]]["value"], float)
