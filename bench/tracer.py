"""In-memory spans around the public functions of vmsdta, and their analysis.

A span is (name, start, end, parent index); spans nest by call order on one
thread, so a span's children cover disjoint parts of it and its self time is
its duration minus theirs.  Wrappers are installed at the names callers look
up (for example ``vmsdta.daytoday.run_dnl``, which the day loop calls), so
nothing in the package changes.  A target that no longer exists is recorded
as unmeasured instead of being reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter


def resolve(target):
    """(owner, attribute) for a dotted name such as ``vmsdta.dnl.DnlResult.mu``."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return (obj, parts[-1]) if hasattr(obj, parts[-1]) else None
    return None


class Tracer:
    """Spans, counters and per-day marks of one traced process."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []
        self.counters = {}
        self.unmeasured = {}  # span or counter name -> target that could not be wrapped
        self.day_marks = []  # perf_counter at the end of each simulated day

    def add(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name, fn, observe=None):
        """``fn`` wrapped so each call records a span; ``observe(result)`` runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def wrap(self, target, name, observe=None, count=None):
        """Replace ``target`` by a version that records span ``name``.

        With ``count`` the wrapper records no span and only adds
        ``count(*args)`` to the counter ``name``.  Returns False, and records
        ``name`` as unmeasured, when ``target`` does not exist.
        """
        found = resolve(target)
        if found is None:
            self.unmeasured[name] = target
            return False
        owner, attr = found
        fn = getattr(owner, attr)
        if count is None:
            setattr(owner, attr, self.span(name, fn, observe))
            return True

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name, count(*args))
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)
        return True

    def inject_on_day(self, target, hook):
        """Make ``target`` pass ``hook`` as its ``on_day`` callback (chained)."""
        found = resolve(target)
        if found is None or "on_day" not in inspect.signature(getattr(*found)).parameters:
            self.unmeasured["on_day"] = f"{target}(on_day=...)"
            return False
        owner, attr = found
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def with_hook(*args, on_day=None, **kwargs):
            def both(record):
                hook(record)
                if on_day is not None:
                    on_day(record)

            return fn(*args, on_day=both, **kwargs)

        setattr(owner, attr, with_hook)
        return True

    def dump(self):
        return {
            "spans": [list(s) for s in zip(self.names, self.starts, self.ends, self.parents)],
            "counters": self.counters,
            "unmeasured": self.unmeasured,
            "day_marks": self.day_marks,
        }


# ---------------------------------------------------------------------------
# analysis of a dumped trace


def layer_times(spans):
    """Per span name: total seconds, self seconds, calls, and each duration."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        rec = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0, "durations": []})
        rec["total"] += end - start
        rec["self"] += end - start - child[i]
        rec["calls"] += 1
        rec["durations"].append(end - start)
    return out


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum is
    given.
    """
    ordered = sorted(values)
    return ordered[-1] if len(ordered) <= 10 else ordered[-11]


# Per-layer metrics: name -> (unit, span or counter names it needs, value).
# ``t`` maps a span name to its layer_times record, ``c`` holds the counters.
PER_LAYER = {
    "network.load_scenario_s": ("s", ["network.load_scenario"], lambda t, c: t["network.load_scenario"]["total"]),
    "network.validate_s": ("s", ["network.validate"], lambda t, c: t["network.validate"]["total"]),
    "dnl.run_dnl_s": ("s", ["dnl.run_dnl"], lambda t, c: t["dnl.run_dnl"]["total"]),
    "dnl.day_ms_p50": ("ms", ["dnl.run_dnl"], lambda t, c: 1e3 * statistics.median(t["dnl.run_dnl"]["durations"])),
    "dnl.day_ms_tail": ("ms", ["dnl.run_dnl"], lambda t, c: 1e3 * tail(t["dnl.run_dnl"]["durations"])),
    "dnl.solve_junction_s": ("s", ["dnl.solve_junction"], lambda t, c: t["dnl.solve_junction"]["total"]),
    "dnl.junction_calls": ("count", ["dnl.solve_junction"], lambda t, c: t["dnl.solve_junction"]["calls"]),
    "dnl.junction_throttled_share": ("ratio", ["dnl.solve_junction"],
                                     lambda t, c: c["junction_throttled"] / t["dnl.solve_junction"]["calls"]),
    "dnl.path_times_s": ("s", ["dnl.path_times"], lambda t, c: t["dnl.path_times"]["total"]),
    "dnl.mu_points": ("count", ["mu_points"], lambda t, c: c["mu_points"]),
    "dnl.extrapolated_queries": ("count", ["on_day", "dnl.run_dnl"], lambda t, c: c["extrapolated_queries"]),
    "dnl.residual_veh": ("veh", ["on_day", "dnl.run_dnl"], lambda t, c: c["residual_veh_max"]),
    "daytoday.cost_table_s": ("s", ["daytoday.cost_table"], lambda t, c: t["daytoday.cost_table"]["self"]),
    "daytoday.phi_table_s": ("s", ["daytoday.phi_table"], lambda t, c: t["daytoday.phi_table"]["total"]),
    "daytoday.update_departures_s": ("s", ["daytoday.update_departures"],
                                     lambda t, c: t["daytoday.update_departures"]["total"]),
    "daytoday.solve_eta_s": ("s", ["daytoday.solve_eta"], lambda t, c: t["daytoday.solve_eta"]["total"]),
    "daytoday.eta_iterations": ("count", ["daytoday.solve_eta"], lambda t, c: c["eta_iterations"]),
    "daytoday.loop_self_s": ("s", ["daytoday.run_day_to_day"], lambda t, c: t["daytoday.run_day_to_day"]["self"]),
    "daytoday.day_ms_p50": ("ms", ["on_day"], lambda t, c: 1e3 * statistics.median(c["day_s"])),
    "daytoday.day_ms_tail": ("ms", ["on_day"], lambda t, c: 1e3 * tail(c["day_s"])),
    "compliance.step_s": ("s", ["compliance.step"], lambda t, c: t["compliance.step"]["total"]),
    "compliance.partial_traversal_calls": ("count", ["partial_traversal_calls"],
                                           lambda t, c: c["partial_traversal_calls"]),
    "scenario.write_outputs_s": ("s", ["scenario.write_outputs"], lambda t, c: t["scenario.write_outputs"]["self"]),
    "scenario.emit_plot_data_s": ("s", ["scenario.emit_plot_data"],
                                  lambda t, c: t["scenario.emit_plot_data"]["total"]),
    "cli.self_s": ("s", ["cli"], lambda t, c: t["cli"]["self"]),
}


def layer_values(dump):
    """(values, unmeasured) of one traced run; unmeasured maps metric -> reason."""
    times = layer_times(dump["spans"])
    counters = dict(dump["counters"])
    marks = dump["day_marks"]
    if marks and "daytoday.run_day_to_day" in times:
        loop_start = next(s[1] for s in dump["spans"] if s[0] == "daytoday.run_day_to_day")
        counters["day_s"] = [end - start for start, end in zip([loop_start] + marks[:-1], marks)]
    gone = dump["unmeasured"]
    values, unmeasured = {}, {}
    for name, (_unit, needs, value) in PER_LAYER.items():
        missing = [gone[n] for n in needs if n in gone]
        if missing:
            unmeasured[name] = "not found: " + ", ".join(missing)
            continue
        try:
            values[name] = value(times, counters)
        except (KeyError, ZeroDivisionError, statistics.StatisticsError):
            unmeasured[name] = "no calls recorded for " + ", ".join(needs)
    return values, unmeasured


if __name__ == "__main__":
    # python3 bench/tracer.py SPANS.json: print the per-layer values as JSON
    with open(sys.argv[1]) as fh:
        values, unmeasured = layer_values(json.load(fh))
    print(json.dumps({"values": values, "unmeasured": unmeasured}))
