"""The vmsdta benchmark: ``vmsdta run`` end to end, timed through the CLI.

    python3 bench/run.py --workload fig1 --seed 1 --seconds 50 --trace 0

Run it from anywhere; it works in the repository that contains it, builds
nothing and writes only under ``.bench_work/``.  The loop is closed: one
``vmsdta`` process at a time, each waited for before the next starts.

Workloads (BENCHMARK.json lists fig1 and grid-free):

* ``fig1`` - the built-in fixture with its default config, run to
  convergence (day 83).  It has no random input, so the seed changes nothing.
  Its network is tiny, so per-day fixed costs and output writing show, and
  its merges throttle about 13% of junction solves.
* ``grid-free`` - a generated 8 x 8 grid (bench/gridgen.py), Model IV,
  100 veh per O-D, a fixed budget of ``GRID_DAYS`` days.  The loader is most
  of the time and no junction solve throttles, so a change for congested
  junctions should show on fig1 and not here.
* ``grid-jam`` - the same layouts at 300 veh per O-D; about 10% of junction
  solves throttle.  It is left out of BENCHMARK.json so that, within the
  benchmark's time budget, each run lasts long enough to be steady on a
  noisy machine; run it by hand when working on the junction solver.

The seed picks one of ``LAYOUTS`` grid layouts (seed mod ``LAYOUTS``), each
with reference results in references.json.

``--trace 0`` times repeated ``vmsdta run`` processes for ``--seconds`` and
reports the end-to-end metrics: medians over the repetitions.  ``--trace 1``
alternates plain runs with runs of bench/traced.py, which executes the same
CLI command in-process with spans around each layer, and reports the
per-layer metrics (medians over the traced runs) and the tracing overhead:
the traced runs' median time over the plain runs', minus one.
Every run's outputs are checked (bench/checker.py) and must hash identically
to the first run's; a failed check or a nonzero exit counts in ``failed``.

The last line of stdout is the JSON result; the line before it gives the
machine, the sample counts, every sample and any problem found.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from checker import check_run, csv_hashes
from tracer import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = {"fig1": None, "grid-jam": 300.0, "grid-free": 100.0}  # veh per O-D
GRID_DAYS = 5
LAYOUTS = 16
SETUP_REPS = 5
MIN_RUNS = 2  # the determinism check needs a second run
CHILD_LIMIT_S = 120.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # byte-compile once, as an installed package would be, instead of every start
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(args, log):
    """Run a child to completion: (wall seconds, peak RSS in MiB, exit code).

    The RSS comes from ``os.wait4`` for this child alone, not the cumulative
    RUSAGE_CHILDREN maximum, which would carry over from earlier children.  On
    Linux a child's figure is at least this process's RSS when it was spawned,
    so this process stays small: it imports neither numpy nor vmsdta and
    leaves generating scenarios and analysing spans to children.
    """
    with open(log, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        guard = threading.Timer(CHILD_LIMIT_S, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            guard.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def vmsdta(*args):
    return [sys.executable, "-m", "vmsdta.cli", *map(str, args)]


def machine_facts():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_at_start": list(os.getloadavg()),
    }


def make_scenario(workload, seed, outdir):
    """Write the workload's scenario files; returns (CLI flags, layout or None)."""
    demand = WORKLOADS[workload]
    if demand is None:
        layout = None
        args = vmsdta("fixtures", "fig1", "--out", outdir)
    else:
        layout = seed % LAYOUTS
        args = [sys.executable, str(BENCH / "gridgen.py"), "--seed", str(layout),
                "--demand", str(demand), "--days", str(GRID_DAYS), "--out", str(outdir)]
    log = outdir.with_suffix(".log")
    _, _, code = spawn(args, log)
    if code != 0:
        raise RuntimeError(f"writing the scenario exited {code}: {log.read_text()[-300:]}")
    flags = []
    for flag, name in (("--network", "network.json"), ("--paths", "paths.json"),
                       ("--demand", "demand.csv"), ("--tolerances", "tolerances.csv"),
                       ("--vms", "vms.json"), ("--config", "config.json")):
        flags += [flag, str(outdir / name)]
    return flags, layout


def reference_for(workload, layout):
    refs = json.loads((BENCH / "references.json").read_text())
    return refs[workload] if layout is None else refs[workload][str(layout)]


class Runs:
    """Repeated ``vmsdta run`` of one scenario, with every output checked."""

    def __init__(self, work, scenario, flags, reference):
        self.work, self.scenario, self.flags, self.reference = work, scenario, flags, reference
        self.out = work / "out"
        self.attempted = self.failed = 0
        self.walls = {False: [], True: []}  # by traced
        self.rss = []
        self.layers = []  # per traced run: {"values": ..., "unmeasured": ...}
        self.first = None  # hashes, days and bytes of the first correct run
        self.problems = []

    def run(self, traced):
        shutil.rmtree(self.out, ignore_errors=True)
        spans = self.work / "spans.json"
        if traced:
            args = [sys.executable, str(BENCH / "traced.py"), str(spans), "run", *self.flags,
                    "--out", str(self.out), "--quiet"]
        else:
            args = vmsdta("run", *self.flags, "--out", self.out, "--quiet")
        wall, rss, code = spawn(args, self.work / "run.log")
        self.attempted += 1
        self.walls[traced].append(wall)
        if not traced:
            self.rss.append(rss)
        problems = self.check() if code == 0 else [f"exit code {code}: {self._log_tail()}"]
        if problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in problems[:5]]
        elif traced:
            self.layers.append(self.analyse(spans))

    def check(self):
        hashes = csv_hashes(self.out)
        if self.first is not None:
            return [] if hashes == self.first["hashes"] else ["CSVs differ from the first run's"]
        problems = check_run(self.out, self.scenario, self.reference)
        if not problems:
            summary = json.loads((self.out / "summary.json").read_text())
            self.first = {
                "hashes": hashes,
                "days": summary["days"],
                "bytes": sum(p.stat().st_size for p in self.out.iterdir()),
            }
        return problems

    def analyse(self, spans):
        """Per-layer values of one traced run, computed in a child process."""
        log = self.work / "layers.json"
        _, _, code = spawn([sys.executable, str(BENCH / "tracer.py"), str(spans)], log)
        if code != 0:
            raise RuntimeError(f"span analysis exited {code}: {log.read_text()[-300:]}")
        return json.loads(log.read_text())

    def _log_tail(self):
        return (self.work / "run.log").read_text(errors="replace")[-300:].strip()


def setup_times(flags, work):
    """``vmsdta validate`` on the scenario: one warm-up, then SETUP_REPS timed."""
    walls = []
    for i in range(SETUP_REPS + 1):
        wall, _, code = spawn(vmsdta("validate", *flags), work / "validate.log")
        if code != 0:
            raise RuntimeError(f"vmsdta validate exited {code}: "
                               + (work / "validate.log").read_text(errors="replace")[-300:])
        if i:
            walls.append(wall)
    return walls


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runs, setup):
    run_s = statistics.median(runs.walls[False])
    days = runs.first["days"] if runs.first else 0
    return {
        "run_s": metric(run_s, "s"),
        "days_per_s": metric(days / run_s, "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(statistics.median(runs.rss), "MiB"),
        "days": metric(days, "count"),
    }


def per_layer(runs):
    """Medians over the traced runs, plus bytes written and the tracing overhead."""
    samples, unmeasured = {}, {}
    for layers in runs.layers:
        unmeasured.update(layers["unmeasured"])
        for name, v in layers["values"].items():
            samples.setdefault(name, []).append(v)
    out = {name: metric(statistics.median(samples[name]), PER_LAYER[name][0])
           for name in PER_LAYER if name in samples and name not in unmeasured}
    if runs.first:
        out["scenario.bytes_written"] = metric(runs.first["bytes"], "B")
    untraced, traced = runs.walls[False], runs.walls[True]
    if untraced and traced:
        out["trace.overhead_share"] = metric(
            statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
    return out, unmeasured


def main(argv=None):
    ap = argparse.ArgumentParser(description="vmsdta end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "vmsdta" / "cli.py").is_file():
        print(f"no vmsdta sources at {SRC}", file=sys.stderr)
        return 2

    facts = machine_facts()
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario"
    flags, layout = make_scenario(args.workload, args.seed, scenario)
    setup = setup_times(flags, work)

    runs = Runs(work, scenario, flags, reference_for(args.workload, layout))
    start = perf_counter()
    traced = False
    # trace 1 alternates plain and traced runs, at least one of each
    while runs.attempted < MIN_RUNS or perf_counter() - start < args.seconds:
        runs.run(traced)
        traced = bool(args.trace) and not traced

    unmeasured = {}
    if args.trace:
        metrics, unmeasured = per_layer(runs)
    else:
        metrics = end_to_end(runs, setup)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "layout": layout, "trace": args.trace,
        "machine": facts, "loop": "closed, one vmsdta process at a time",
        "samples": {"run_s": runs.walls[False], "traced_run_s": runs.walls[True], "setup_s": setup,
                    "peak_rss_mb": runs.rss},
        "unmeasured": unmeasured, "problems": runs.problems,
    }))
    print(json.dumps({"correct": runs.failed == 0, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
