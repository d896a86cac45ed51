"""Output checks for benchmark ops.

Each op's `--json` document is compared with the stored reference of its
pool entry on its mathematical fields only, so keys a later change adds
(such as a `stats` block) or presentation fields (rendered strings, method
labels, class representatives) do not matter.  Results that the CLI can give
two ways are also compared with each other within a run:

- `zeta --all-ideals` classwise against `--direct` coefficients, same t;
- `lpoly` P(1) against `classgroup` h and its number of classes;
- c_1 (`classgroup` counts, `lpoly` p_1 + q) against a point count of the
  ring's affine curve made here, not by ffzeta;
- `powsum` S(d) against the X^d coefficient of `zeta` at the same s.

A mismatch fails the op.
"""

import json
from collections import Counter

# fields compared with the reference, per command
MATH_FIELDS = {
    "zeta": ("coeffs", "d_max", "ord"),
    "zeta_all_ideals": ("h", "e", "coeffs", "d_max", "ord"),
    "powsum": ("S", "is_zero"),
    "check": ("applicable", "predicted", "computed"),
    "classgroup": ("genus", "counts", "h", "e"),
    "lpoly": ("genus", "lpoly"),
}

# two-route checks and the workloads each applies to
TWO_ROUTE = {
    "classwise_vs_direct": "class-groups",
    "lpoly_vs_classgroup": "class-groups",
    "c1_vs_point_count": "class-groups",
    "powsum_vs_zeta": "zeta-elements",
}


def math_fields(command, doc):
    """The part of a --json document the benchmark checks."""
    if command == "search":
        summary = doc["summary"]
        return {
            "total": summary["total"],
            "outcomes": summary["outcomes"],
            "passing": summary["passing"],
            "records": [[r["index"], r["coeffs"], r["stage"], r["verdict"]]
                        for r in doc["records"]],
        }
    return {k: doc[k] for k in MATH_FIELDS[command]}


def affine_points(p, coeffs):
    """Points of y^m + c_{m-1} y^{m-1} + .. + c_0 = 0 over the prime field
    F_p, each c_j given by its coefficient list (lowest degree first)."""
    def ev(cs, x):
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % p
        return acc

    count = 0
    for x in range(p):
        vals = [ev(cs, x) for cs in coeffs] + [1]
        for y in range(p):
            if ev(vals, y) == 0:
                count += 1
    return count


class Checker:
    """Checks op results against the reference and against each other.

    `reference` maps entry id -> math fields; `points` maps ring name ->
    (q, number of affine points over F_q).
    """

    def __init__(self, reference, points=None):
        self.reference = reference
        self.points = points or {}
        self.routes = Counter()     # two-route check -> times it ran
        self._seen = {}

    def check(self, op, exit_code, text):
        """List of failure messages for one op; empty when it is correct."""
        e = op.entry
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            doc = json.loads(text)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        want = self.reference.get(e.block or e.id)
        if want is None:
            return [f"no reference for {e.id!r}"]
        try:
            have = math_fields(e.command, doc)
        except (KeyError, TypeError) as exc:
            return [f"output lacks field {exc}"]
        errors = [f"{k}: {have.get(k)!r} != reference {v!r}"
                  for k, v in want.items() if have.get(k) != v]
        if e.command == "search":
            resumed = sum(1 for r in doc["records"] if r["resumed"])
            if resumed != e.resume:
                errors.append(f"{resumed} records resumed, expected {e.resume}")
        errors += getattr(self, "_route_" + e.command, _no_route)(e, doc)
        return errors

    def _compare(self, route, key, value, what):
        """Record value under key; if the other route already gave one,
        compare.  Returns a failure list."""
        other = self._seen.get((route, key))
        self._seen[(route, key)] = value
        if other is None or other[0] == value[0]:
            return []
        self.routes[route] += 1
        if other[1] != value[1]:
            return [f"{route}: {what} {value[1]!r} != {other[1]!r}"]
        return []

    def _route_zeta_all_ideals(self, e, doc):
        route = "direct" if e.params["direct"] else "classwise"
        return self._compare("classwise_vs_direct", (e.ring, e.params["t"]),
                             (route, doc["coeffs"]), f"{route} coeffs")

    def _c1(self, e, c1):
        if e.ring not in self.points:
            return []
        self.routes["c1_vs_point_count"] += 1
        n1 = self.points[e.ring][1]
        if c1 != n1:
            return [f"c1_vs_point_count: c_1 = {c1} but {n1} affine points"]
        return []

    def _route_classgroup(self, e, doc):
        h, classes = doc["h"], len(doc["classes"]) + 1
        errors = self._c1(e, doc["counts"][1])
        if h != classes:
            errors.append(f"h = {h} but {classes} classes")
        return errors + self._compare("lpoly_vs_classgroup", e.ring,
                                      ("classgroup", h), "h")

    def _route_lpoly(self, e, doc):
        lp = doc["lpoly"]
        errors = []
        if e.ring in self.points:
            errors += self._c1(e, lp[1] + self.points[e.ring][0])
        if sum(lp) != doc["value_at_one"]:
            errors.append(f"P(1) = {sum(lp)} but value_at_one "
                          f"{doc['value_at_one']}")
        return errors + self._compare("lpoly_vs_classgroup", e.ring,
                                      ("lpoly", sum(lp)), "P(1)")

    def _route_zeta(self, e, doc):
        self._seen[("zeta", e.ring, e.params["s"])] = doc["coeffs"]
        return self._powsum_pairs(e.ring, e.params["s"])

    def _route_powsum(self, e, doc):
        key = ("powsum", e.ring, e.params["s"])
        self._seen.setdefault(key, {})[e.params["d"]] = doc["S"]
        return self._powsum_pairs(e.ring, e.params["s"])

    def _powsum_pairs(self, ring, s):
        coeffs = self._seen.get(("zeta", ring, s))
        if coeffs is None:
            return []
        sums = self._seen.pop(("powsum", ring, s), {})
        errors = []
        for d, val in sums.items():
            self.routes["powsum_vs_zeta"] += 1
            want = coeffs[d] if d < len(coeffs) else "0"
            if val != want:
                errors.append(f"powsum_vs_zeta: S({d}) = {val!r} but zeta "
                              f"has {want!r} at X^{d}")
        return errors

    def missing_routes(self, workload):
        """Two-route checks that apply to the workload but never ran."""
        return [r for r, w in TWO_ROUTE.items()
                if w == workload and not self.routes[r]]


def _no_route(entry, doc):
    return []
