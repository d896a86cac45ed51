#!/usr/bin/env python3
"""ffzeta benchmark: seeded CLI ops end to end, per-layer spans when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works in the checkout that holds it and imports ffzeta
from that checkout's `src`.  Load: one client in a closed loop, one op at a
time, in one process and one thread (numpy's thread pools pinned to 1).  An
op is one in-process `ffzeta.cli.dispatch([..., "--json"])` call, the path
every CLI user takes; its output is checked (see checks.py).  A run executes
whole rounds of the workload's pool (see pools.py) until at least S seconds
have passed.  Times are scaled to a reference machine speed, measured by a
calibration kernel run between ops (see speed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 first runs whole rounds
untraced for S/3 seconds, then replays the same ops with every layer wrapped
(see tracing.py), and prints the per-layer metrics per round plus the
tracing overhead (traced over untraced op time of the same ops).

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
import pools   # noqa: E402
import speed   # noqa: E402

SETUP_SAMPLES = 11
SETUP_KERNELS = 10  # kernel samples before each set-up probe and after the last
MIN_ROUNDS = 3     # rounds an untraced run makes at least
TAIL_BEYOND = 10   # samples beyond op_tail_ms, at least

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better); per round of the pool, from the traced replay
PER_LAYER = (
    ("cli.dispatch.self_s", "s", "lower"),
    ("ringfile.parse_ring_spec.calls", "count", "lower"),
    ("ringfile.parse_ring_spec.total_s", "s", "lower"),
    ("ring.RingSpec.validate.calls", "count", "lower"),
    ("ring.RingSpec.validate.total_s", "s", "lower"),
    ("ring.RingSpec.enumerate_monic.elements", "count", "lower"),
    ("ring.RingElement.mul.calls", "count", "lower"),
    ("ring.RingElement.mul.self_s", "s", "lower"),
    ("ring.RingElement.pow.calls", "count", "lower"),
    ("ring.RingElement.pow.total_s", "s", "lower"),
    ("ring.RingElement.pow_digits.calls", "count", "lower"),
    ("ring.RingElement.pow_digits.total_s", "s", "lower"),
    ("gf.Poly.mul.calls", "count", "lower"),
    ("gf.Poly.mul.self_s", "s", "lower"),
    ("gf.Poly.mul.coeff_products", "count", "lower"),
    ("gf.Poly.mul.calls_small", "count", "lower"),
    ("gf.Poly.mul.calls_large", "count", "lower"),
    ("gf.Poly.add.calls", "count", "lower"),
    ("gf.Poly.add.self_s", "s", "lower"),
    ("gf.Poly.sub.calls", "count", "lower"),
    ("gf.Poly.sub.self_s", "s", "lower"),
    ("gf.Poly.divmod.calls", "count", "lower"),
    ("gf.Poly.divmod.self_s", "s", "lower"),
    ("zeta.zeta_neg.calls", "count", "lower"),
    ("zeta.zeta_neg.total_s", "s", "lower"),
    ("zeta.power_sum_S.calls", "count", "lower"),
    ("zeta.power_sum_S.total_s", "s", "lower"),
    ("zeta.power_sum_S.elements_per_s", "1/s", "higher"),
    ("semigroup.semigroup_from_ring.total_s", "s", "lower"),
    ("semigroup.r_gap_values.total_s", "s", "lower"),
    ("ideals.class_group.calls", "count", "lower"),
    ("ideals.class_group.total_s", "s", "lower"),
    ("ideals.class_group.self_s", "s", "lower"),
    ("ideals.enumerate_ideals.calls", "count", "lower"),
    ("ideals.enumerate_ideals.total_s", "s", "lower"),
    ("ideals.enumerate_ideals.ideals", "count", "lower"),
    ("ideals.enumerate_ideals.candidates", "count", "lower"),
    ("ideals.enumerate_ideals.yield_ratio", "ratio", "higher"),
    ("ideals.class_equivalent.calls", "count", "lower"),
    ("ideals.class_equivalent.total_s", "s", "lower"),
    ("ideals.ideal_mul.calls", "count", "lower"),
    ("ideals.ideal_mul.total_s", "s", "lower"),
    ("ideals.ideal_is_principal.calls", "count", "lower"),
    ("ideals.ideal_is_principal.total_s", "s", "lower"),
    ("ideals.ideal_quotient.calls", "count", "lower"),
    ("ideals.ideal_quotient.total_s", "s", "lower"),
    ("ideal_zeta.ideal_zeta_classwise.total_s", "s", "lower"),
    ("ideal_zeta.ideal_zeta_direct.total_s", "s", "lower"),
    ("ideal_zeta.remark_exact_check.total_s", "s", "lower"),
    ("theorems.check.calls", "count", "lower"),
    ("theorems.check.self_s", "s", "lower"),
    ("search.evaluate_candidate.calls", "count", "lower"),
    ("search.evaluate_candidate.total_s", "s", "lower"),
    ("search.evaluate_candidate.self_s", "s", "lower"),
    ("search.stage.ring_valid", "count", "higher"),
    ("search.stage.gap_structure", "count", "higher"),
    ("search.stage.class_group", "count", "lower"),
    ("search.stage.hypotheses", "count", "lower"),
    ("search.pass_ratio", "ratio", "higher"),
    ("search.resumed", "count", "higher"),
    ("search.checkpoint_bytes", "bytes", "lower"),
    ("tracing.overhead", "ratio", "lower"),
)

# per-layer metrics that are not plain stat fields: metric -> counter name
_COUNTERS = {
    "ring.RingSpec.enumerate_monic.elements": "ring.RingSpec.enumerate_monic.yields",
    "gf.Poly.mul.coeff_products": "gf.Poly.mul.coeff_products",
    "gf.Poly.mul.calls_small": "gf.Poly.mul.calls_small",
    "gf.Poly.mul.calls_large": "gf.Poly.mul.calls_large",
    "ideals.enumerate_ideals.ideals": "ideals.enumerate_ideals.yields",
    "ideals.enumerate_ideals.candidates": "ideals.enumerate_ideals.candidates",
    "search.stage.ring_valid": "search.stage.ring_valid",
    "search.stage.gap_structure": "search.stage.gap_structure",
    "search.stage.class_group": "search.stage.class_group",
    "search.stage.hypotheses": "search.stage.hypotheses",
}
_STAT_FIELDS = {"calls": 0, "total_s": 1, "self_s": 2}


# -- set-up -----------------------------------------------------------------

def pin_threads():
    """One thread: numpy's pools read these before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """Make the checkout's ffzeta importable; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "ffzeta", "cli.py")):
        raise SystemExit(f"perfbench: no ffzeta sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def setup(workload):
    """What a user's process does before its first op: import ffzeta, build
    the fields and parse (and so validate) the workload's rings.  Returns
    the cli module and ring name -> RingSpec."""
    from ffzeta import cli
    from ffzeta.gf import GF
    from ffzeta.ringfile import parse_ring_spec

    GF(2)
    GF(3)
    return cli, {name: parse_ring_spec(arg)
                 for name, arg in pools.pool_rings(workload)}


def ring_facts(specs):
    """Check each pool ring validates nonsingular with the genus its form
    predicts, and count its affine points over F_q here (for c_1).
    Returns ring name -> (q, points) for the rings with a rank-2 cab form."""
    from ffzeta.semigroup import semigroup_from_ring

    points = {}
    for name, spec in specs.items():
        rep = spec.validate()
        if not rep.ok or rep.singular_finite:
            raise RuntimeError(f"pool ring {name} is not a nonsingular ring")
        if spec.form != "cab":
            continue
        genus = (spec.m - 1) * (spec.N - 1) // 2
        if semigroup_from_ring(spec).genus != genus:
            raise RuntimeError(f"pool ring {name}: semigroup genus differs "
                               f"from (m-1)(N-1)/2 = {genus}")
        if spec.field.n == 1:
            points[name] = (spec.q, checks.affine_points(
                spec.field.p, [list(c.coeffs) for c in spec.coeffs]))
    return points


def measure_setup(workload, samples=SETUP_SAMPLES):
    """Median time from process start to first op ready, over fresh
    processes (after one unmeasured start that compiles bytecode), scaled
    by the median of the kernel samples taken between the probes.  Returns
    (scaled median, raw median)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload]
    times = []
    kernels = []
    for i in range(samples + 1):
        kernels += [speed.sample() for _ in range(SETUP_KERNELS)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        times.append(elapsed)
    kernels += [speed.sample() for _ in range(SETUP_KERNELS)]
    raw = statistics.median(times[1:])
    return raw * speed.REF_S / statistics.median(kernels), raw


# -- running ops ------------------------------------------------------------

def _prepare(op, reference):
    """Fresh checkpoint for a search op, pre-filled for resume entries."""
    if op.checkpoint is None:
        return
    if os.path.exists(op.checkpoint):
        os.remove(op.checkpoint)
    if op.entry.resume:
        records = reference[op.entry.block]["records"][:op.entry.resume]
        with open(op.checkpoint, "w", encoding="utf-8") as fh:
            for _, key, stage, verdict in records:
                fh.write(f"{key}\t{stage}\t{verdict}\n")


class Results:
    """Per-op outcomes of a run phase.  With `calibrate`, a kernel sample
    follows every op (see speed.py)."""

    def __init__(self, keep_text=False, calibrate=False):
        self.times = []           # (entry id, command, seconds)
        self.kernel_s = [] if calibrate else None   # one per op
        self.failures = []        # (entry id, messages)
        self.candidates = {}      # search entry id -> candidates evaluated
        self.resumed = 0
        self.checkpoint_bytes = 0
        self.texts = [] if keep_text else None

    @property
    def attempted(self):
        return len(self.times)

    @property
    def busy_s(self):
        return sum(t for _, _, t in self.times)

    def entry_times(self):
        """Entry id -> (command, median of its scaled op times in the run)."""
        scaled = {}
        for (eid, cmd, t), k in zip(self.times, speed.scales(self.kernel_s)):
            scaled.setdefault(eid, (cmd, []))[1].append(t * k)
        return {eid: (cmd, statistics.median(ts))
                for eid, (cmd, ts) in scaled.items()}


def run_ops(ops, cli, checker, reference, results, tracer=None):
    pc = time.perf_counter
    for op in ops:
        _prepare(op, reference)
        if tracer is not None:
            tracer.op_id = op.seq
        t0 = pc()
        try:
            res = cli.dispatch(list(op.argv))
        except Exception as exc:   # a bug in the program fails the op
            dt = pc() - t0
            errors = [f"{type(exc).__name__}: {exc}"]
            res = None
        else:
            dt = pc() - t0
            errors = checker.check(op, res.exit_code, res.text)
        results.times.append((op.entry.id, op.entry.command, dt))
        if errors:
            results.failures.append((op.entry.id, errors))
        if results.texts is not None:
            results.texts.append(None if res is None else res.text)
        if op.checkpoint is not None:
            if os.path.exists(op.checkpoint):
                results.checkpoint_bytes += os.path.getsize(op.checkpoint)
                os.remove(op.checkpoint)
            if res is not None and res.exit_code == 0:
                records = json.loads(res.text)["records"]
                resumed = sum(1 for r in records if r["resumed"])
                results.resumed += resumed
                results.candidates[op.entry.id] = len(records) - resumed
        if results.kernel_s is not None:
            results.kernel_s.append(speed.sample())


def run_rounds(rounds, seconds, min_rounds, run_round):
    """Run whole rounds until `seconds` have passed and at least
    `min_rounds` are done; returns the rounds run."""
    done = []
    start = time.perf_counter()
    for ops in rounds:
        run_round(ops)
        done.append(ops)
        if (len(done) >= min_rounds
                and time.perf_counter() - start >= seconds):
            return done
    return done


# -- metrics ----------------------------------------------------------------
#
# Op times are scaled to the reference speed (speed.py) and taken per pool
# entry as the median of its ops in the run.

def tail(entry_times):
    """(value, percentile): the median time of the entry with TAIL_BEYOND /
    ceil(MIN_ROUNDS / 2) slower entries.  Each entry ran at least MIN_ROUNDS
    times, so each slower entry has at least ceil(MIN_ROUNDS / 2) ops at or
    above its median, which is above the value: at least TAIL_BEYOND samples
    lie beyond it."""
    xs = sorted(entry_times)
    k = max(len(xs) - 1 - TAIL_BEYOND // ((MIN_ROUNDS + 1) // 2), 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(results, setup_s):
    import resource

    times = [t for _, t in results.entry_times().values()]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail(times)[0] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def details(results, checker):
    """Figures printed besides the metrics: per-command medians, search
    throughput, the tail's percentile, the machine speed, raw (unscaled)
    figures over every op, failures and two-route coverage."""
    entries = results.entry_times()
    by_cmd = {}
    for cmd, t in entries.values():
        by_cmd.setdefault(cmd, []).append(t)
    out = {f"{cmd}.p50_ms": statistics.median(ts) * 1e3
           for cmd, ts in sorted(by_cmd.items())}
    if results.candidates:
        out["search.candidates_per_s"] = (
            sum(results.candidates.values())
            / sum(entries[eid][1] for eid in results.candidates))
    out["op_tail_percentile"] = tail([t for _, t in entries.values()])[1]
    out["kernel_ms.p50"] = statistics.median(results.kernel_s) * 1e3
    out["speed"] = speed.REF_S / statistics.median(results.kernel_s)
    times = [t for _, _, t in results.times]
    out["raw.all_ops.ops_per_s"] = len(times) / results.busy_s
    out["raw.all_ops.p50_ms"] = statistics.median(times) * 1e3
    out["ops"] = len(times)
    out["failed_ratio"] = len(results.failures) / max(len(times), 1)
    out["two_route_checks"] = dict(sorted(checker.routes.items()))
    return out


def per_layer(tracer, n_rounds, results, overhead):
    """Per-layer metrics per round of the pool."""
    out = {}
    for name, _, _ in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if name in _COUNTERS:
            value = tracer.counters.get(_COUNTERS[name], 0) / n_rounds
        elif field in _STAT_FIELDS:
            value = tracer.stats.get(prefix, [0, 0.0, 0.0])[_STAT_FIELDS[field]]
            value /= n_rounds
        else:
            value = None
        out[name] = value
    total = tracer.stats.get("zeta.power_sum_S", [0, 0.0])[1]
    elements = tracer.counters.get("zeta.power_sum_S.elements", 0)
    out["zeta.power_sum_S.elements_per_s"] = elements / total if total else 0.0
    candidates = tracer.counters.get("ideals.enumerate_ideals.candidates", 0)
    found = tracer.counters.get("ideals.enumerate_ideals.yields", 0)
    out["ideals.enumerate_ideals.yield_ratio"] = (found / candidates
                                                  if candidates else 0.0)
    evaluated = tracer.stats.get("search.evaluate_candidate", [0])[0]
    out["search.pass_ratio"] = (tracer.counters.get("search.passed", 0)
                                / evaluated if evaluated else 0.0)
    out["search.resumed"] = results.resumed / n_rounds
    out["search.checkpoint_bytes"] = results.checkpoint_bytes / n_rounds
    out["tracing.overhead"] = overhead
    return out


# -- main -------------------------------------------------------------------

def load_reference(workload):
    path = os.path.join(HERE, "reference", workload + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line dict, detail dict)."""
    cli, specs = setup(workload)
    points = ring_facts(specs)
    reference = load_reference(workload)["entries"]
    speed.warm_up()
    setup_s, raw_setup_s = (None, None) if trace else measure_setup(workload)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    try:
        rounds = pools.op_rounds(workload, seed, workdir)
        checker = checks.Checker(reference, points)
        plain = Results(calibrate=True)
        done = run_rounds(rounds, seconds / 3 if trace else seconds,
                          1 if trace else MIN_ROUNDS,
                          lambda ops: run_ops(ops, cli, checker, reference, plain))
        failures = list(plain.failures)
        attempted = plain.attempted
        detail = details(plain, checker)
        if trace:
            from tracing import Tracer

            traced = Results()
            tracer = Tracer()
            with tracer:
                for ops in done:
                    run_ops(ops, cli, checker, reference, traced, tracer)
            failures += traced.failures
            attempted += traced.attempted
            overhead = traced.busy_s / plain.busy_s
            metrics = per_layer(tracer, len(done), traced, overhead)
            units = {n: u for n, u, _ in PER_LAYER}
            spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.tsv")
            tracer.write_spans(spans)
            detail["spans_file"] = os.path.relpath(spans, ROOT)
            detail["spans"] = len(tracer.spans)
        else:
            metrics = end_to_end(plain, setup_s)
            units = {n: u for n, u, _, _ in END_TO_END}
            detail["raw.setup_s"] = raw_setup_s
        detail["rounds"] = len(done)
        detail["pool"] = len(done[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = checker.missing_routes(workload)
    if missing:
        failures.append(("two-route", [f"never ran: {', '.join(missing)}"]))
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": sum(1 for f in failures if f[0] != "two-route"),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    detail["failures"] = failures[:20]
    return line, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_threads()
    import_program()
    os.chdir(ROOT)
    if args.setup_only:
        setup(args.workload)
        print("ready", flush=True)
        return 0
    line, detail = run(args.workload, args.seed, args.seconds, args.trace)
    for name, m in line["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
