"""Run one ``vmsdta`` command in-process with spans around each layer.

    python3 bench/traced.py SPANS.json run --network ... --out OUT --quiet

The command after the spans file is passed to ``vmsdta.cli.cli_run``
unchanged; the process exits with its code.  The spans, counters and the
targets that could not be wrapped are written to SPANS.json at the end.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np
import vmsdta.cli
from tracer import Tracer


def install(tracer):
    """Wrap each layer at the name its caller looks up."""
    state = {"dnl": None}

    def keep_dnl(result):
        state["dnl"] = result

    def junction(theta):
        tracer.add("junction_throttled", int(min(theta, default=1.0) < 1.0))

    def eta(sol):
        if sol is not None:
            tracer.add("eta_iterations", sol.iterations)

    def day_end(_record):
        tracer.day_marks.append(perf_counter())
        result = state["dnl"]
        if result is not None:
            tracer.add("extrapolated_queries", result.extrapolated_queries)
            residual = result.total_residual
            tracer.counters["residual_veh_max"] = max(
                tracer.counters.get("residual_veh_max", residual), residual)
            state["dnl"] = None

    w = tracer.wrap
    w("vmsdta.scenario.load_scenario", "network.load_scenario")
    w("vmsdta.network.Network.validate", "network.validate")
    tracer.inject_on_day("vmsdta.scenario.run_day_to_day", day_end)
    w("vmsdta.scenario.run_day_to_day", "daytoday.run_day_to_day")
    w("vmsdta.daytoday.run_dnl", "dnl.run_dnl", observe=keep_dnl)
    w("vmsdta.dnl.solve_junction", "dnl.solve_junction", observe=junction)
    w("vmsdta.dnl.DnlResult.path_times", "dnl.path_times")
    w("vmsdta.dnl.DnlResult.mu", "mu_points", count=lambda _self, _link, t: int(np.size(t)))
    w("vmsdta.dnl.DnlResult.partial_traversal_time", "partial_traversal_calls",
      count=lambda *_: 1)
    w("vmsdta.daytoday.cost_table", "daytoday.cost_table")
    w("vmsdta.daytoday.phi_table", "daytoday.phi_table")
    w("vmsdta.daytoday.update_departures", "daytoday.update_departures")
    w("vmsdta.daytoday.solve_eta", "daytoday.solve_eta", observe=eta)
    w("vmsdta.daytoday.step_compliance", "compliance.step")
    w("vmsdta.scenario.write_outputs", "scenario.write_outputs")
    w("vmsdta.scenario.emit_plot_data", "scenario.emit_plot_data")


def main(argv):
    spans_file, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.span("cli", vmsdta.cli.cli_run)(command)
    with open(spans_file, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
