"""Traced runs: spans and counters recorded from outside the program.

`Tracer.install()` replaces public functions and methods of ffzeta's modules
with timing wrappers, where each is defined and at every module global bound
to it (so `from ffzeta.ideals import class_group` in cli, search, theorems
and ideal_zeta is wrapped too); `Tracer.restore()` puts every original back.

Each wrapped call is a span: name, start, end, parent span and op id.  Spans
of the coarse layers are kept in memory and written out at the end of a run;
the hot leaf operations (Poly arithmetic, ring element products and powers,
validation, generator resumes) run millions of times, so they are only
aggregated.  Every wrapped call, recorded or not, keeps the call stack, so a
layer's self time is its duration minus the part its child spans cover.

Generators (`enumerate_ideals`, `enumerate_monic`) are wrapped lazily: each
resume is timed and each yield counted as the consumer pulls it, so an early
`break` in the consumer stops them exactly where it did before.

There is one thread and no queue, so no layer waits for another: the trace
has no waiting-time metric.
"""

import functools
import sys
import time

MUL_SPLIT = 81    # coefficient products at which Poly.mul counts as large


class Tracer:
    def __init__(self):
        self.stats = {}       # name -> [calls, total_s, self_s, active depth]
        self.counters = {}    # name -> count
        self.spans = []       # [name, start, end, parent span, op id]
        self.stack = []       # per active call: [time covered by children]
        self.cur_span = -1
        self.op_id = -1
        self._patches = []

    # -- recording ----------------------------------------------------------

    def stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name, fn, *, record=True, pre=None, post=None):
        """Timing wrapper around fn under span name `name`."""
        st = self.stat(name)
        stack = self.stack
        spans = self.spans
        pc = time.perf_counter
        tracer = self

        if record:
            def wrapper(*args, **kwargs):
                if pre is not None:
                    pre(args, kwargs)
                frame = [0.0]
                stack.append(frame)
                st[3] += 1
                parent = tracer.cur_span
                sid = len(spans)
                t0 = pc()
                spans.append([name, t0, t0, parent, tracer.op_id])
                tracer.cur_span = sid
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = pc()
                    dt = t1 - t0
                    spans[sid][2] = t1
                    tracer.cur_span = parent
                    stack.pop()
                    st[0] += 1
                    st[2] += dt - frame[0]
                    st[3] -= 1
                    if not st[3]:
                        st[1] += dt
                    if stack:
                        stack[-1][0] += dt
                if post is not None:
                    post(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                if pre is not None:
                    pre(args, kwargs)
                frame = [0.0]
                stack.append(frame)
                st[3] += 1
                t0 = pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = pc() - t0
                    stack.pop()
                    st[0] += 1
                    st[2] += dt - frame[0]
                    st[3] -= 1
                    if not st[3]:
                        st[1] += dt
                    if stack:
                        stack[-1][0] += dt
        functools.update_wrapper(wrapper, fn)
        wrapper._perfbench_original = fn
        return wrapper

    def wrap_generator(self, name, fn, *, pre=None):
        """Wrapper for a generator function: counts generators made and
        items yielded, and times each resume as a span."""
        st = self.stat(name)
        stack = self.stack
        pc = time.perf_counter
        items = name + ".yields"
        counters = self.counters
        counters.setdefault(items, 0)

        def resumes(it):
            try:
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = pc()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = pc() - t0
                        stack.pop()
                        st[1] += dt
                        st[2] += dt - frame[0]
                        if stack:
                            stack[-1][0] += dt
                    counters[items] += 1
                    yield item
            finally:
                it.close()

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            st[0] += 1
            return resumes(fn(*args, **kwargs))
        functools.update_wrapper(wrapper, fn)
        wrapper._perfbench_original = fn
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        """Wrap every traced function of ffzeta; see `_targets`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ffzeta" or n.startswith("ffzeta.")) and m is not None]
        try:
            for owner_path, attr, name, kind, opts in _targets(self):
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                if kind == "gen":
                    wrapped = self.wrap_generator(name, original, **opts)
                else:
                    wrapped = self.wrap(name, original, **opts)
                self._patch(owner, attr, original, wrapped)
                if isinstance(owner, type):
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original and (mod, key) != (owner, attr):
                            self._patch(mod, key, original, wrapped)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")


def _resolve(path):
    mod_name, _, cls = path.partition(":")
    mod = sys.modules[mod_name]
    return getattr(mod, cls) if cls else mod


def _targets(tr):
    """(owner, attribute, span name, kind, options) of every traced callable.

    Owners are `module` or `module:Class`.  Span names are the per-layer
    metric prefixes.
    """
    def mul_pre(args, kwargs):
        n = len(args[0].coeffs) * len(args[1].coeffs)
        tr.count("gf.Poly.mul.coeff_products", n)
        tr.count("gf.Poly.mul.calls_small" if n < MUL_SPLIT
                 else "gf.Poly.mul.calls_large")

    def power_sum_pre(args, kwargs):
        d, _, spec = args[:3]
        tr.count("zeta.power_sum_S.elements", spec.count_monic(d))

    def ideals_pre(args, kwargs):
        spec, d = args[:2]
        if d >= 0:
            tr.count("ideals.enumerate_ideals.candidates",
                     sys.modules["ffzeta.ideals"].count_ideal_candidates(spec, d))

    def candidate_post(result):
        stage, verdict, _ = result
        tr.count("search.stage." + stage.replace("-", "_"))
        if verdict == "pass":
            tr.count("search.passed")

    hot = {"record": False}
    return [
        ("ffzeta.cli", "dispatch", "cli.dispatch", "fn", {}),
        ("ffzeta.ringfile", "parse_ring_spec", "ringfile.parse_ring_spec", "fn", {}),
        ("ffzeta.ring:RingSpec", "validate", "ring.RingSpec.validate", "fn", hot),
        ("ffzeta.ring:RingSpec", "enumerate_monic",
         "ring.RingSpec.enumerate_monic", "gen", {}),
        ("ffzeta.ring:RingElement", "__mul__", "ring.RingElement.mul", "fn", hot),
        ("ffzeta.ring:RingElement", "__pow__", "ring.RingElement.pow", "fn", hot),
        ("ffzeta.ring:RingElement", "pow_digits", "ring.RingElement.pow_digits",
         "fn", hot),
        ("ffzeta.gf:Poly", "__mul__", "gf.Poly.mul", "fn",
         {"record": False, "pre": mul_pre}),
        ("ffzeta.gf:Poly", "__add__", "gf.Poly.add", "fn", hot),
        ("ffzeta.gf:Poly", "__sub__", "gf.Poly.sub", "fn", hot),
        ("ffzeta.gf:Poly", "__divmod__", "gf.Poly.divmod", "fn", hot),
        ("ffzeta.zeta", "zeta_neg", "zeta.zeta_neg", "fn", {}),
        ("ffzeta.zeta", "power_sum_S", "zeta.power_sum_S", "fn",
         {"pre": power_sum_pre}),
        ("ffzeta.semigroup", "semigroup_from_ring",
         "semigroup.semigroup_from_ring", "fn", {}),
        ("ffzeta.semigroup", "r_gap_values", "semigroup.r_gap_values", "fn", {}),
        ("ffzeta.ideals", "class_group", "ideals.class_group", "fn", {}),
        ("ffzeta.ideals", "enumerate_ideals", "ideals.enumerate_ideals", "gen",
         {"pre": ideals_pre}),
        ("ffzeta.ideals", "class_equivalent", "ideals.class_equivalent", "fn", {}),
        ("ffzeta.ideals", "ideal_mul", "ideals.ideal_mul", "fn", {}),
        ("ffzeta.ideals", "ideal_is_principal", "ideals.ideal_is_principal",
         "fn", {}),
        ("ffzeta.ideals", "ideal_quotient", "ideals.ideal_quotient", "fn", {}),
        ("ffzeta.ideal_zeta", "ideal_zeta_classwise",
         "ideal_zeta.ideal_zeta_classwise", "fn", {}),
        ("ffzeta.ideal_zeta", "ideal_zeta_direct",
         "ideal_zeta.ideal_zeta_direct", "fn", {}),
        ("ffzeta.ideal_zeta", "remark_exact_check",
         "ideal_zeta.remark_exact_check", "fn", {}),
        ("ffzeta.theorems", "check_hiper", "theorems.check", "fn", {}),
        ("ffzeta.theorems", "check_dinesh", "theorems.check", "fn", {}),
        ("ffzeta.theorems", "check_generalization", "theorems.check", "fn", {}),
        ("ffzeta.theorems", "check_tesismc", "theorems.check", "fn", {}),
        ("ffzeta.search", "evaluate_candidate", "search.evaluate_candidate", "fn",
         {"post": candidate_post}),
    ]


def patched_names():
    """(owner, attribute) of every ffzeta name still bound to a wrapper."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "ffzeta" or mod_name.startswith("ffzeta.")):
            continue
        for key, val in vars(mod).items():
            if hasattr(val, "_perfbench_original"):
                found.append((mod_name, key))
            if isinstance(val, type) and val.__module__ == mod_name:
                for attr, member in vars(val).items():
                    if hasattr(member, "_perfbench_original"):
                        found.append((f"{mod_name}:{val.__name__}", attr))
    return found
