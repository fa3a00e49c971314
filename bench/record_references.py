"""Rewrite references.json from the current sources.

    python3 bench/record_references.py

Runs ``vmsdta run`` once on fig1 and on every grid layout of both grid
workloads and stores each run's final total cost and final compliance rates.
Only a change that is meant to alter the model's results should rerun it.
"""

from __future__ import annotations

import json
import shutil

from run import BENCH, LAYOUTS, WORK, WORKLOADS, make_scenario, spawn, vmsdta


def record(workload, layout, work):
    scenario, out = work / "scenario", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    flags, _ = make_scenario(workload, layout or 0, scenario)
    _, _, code = spawn(vmsdta("run", *flags, "--out", out, "--quiet"), work / "run.log")
    if code != 0:
        raise RuntimeError(f"{workload} layout {layout}: exit code {code}")
    summary = json.loads((out / "summary.json").read_text())
    return {key: summary[key] for key in ("final_total_cost", "final_cr")}


def main():
    refs = {}
    for workload, demand in WORKLOADS.items():
        work = WORK / f"reference-{workload}"
        if demand is None:
            refs[workload] = record(workload, None, work)
        else:
            refs[workload] = {str(k): record(workload, k, work) for k in range(LAYOUTS)}
        print(workload, "done", flush=True)
    (BENCH / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
