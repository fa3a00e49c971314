"""Every per-layer benchmark metric stays measured.

``bench/traced.py`` wraps public functions of the package by name and
``bench/tracer.py`` turns the spans into the per-layer metrics.  A renamed
function, or one that is no longer called (for example a junction solver the
loader skips when nothing throttles), leaves its metric unmeasured; these
short traced runs catch that before a benchmark run does.
"""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vmsdta import daytoday, dnl
from vmsdta.scenario import build_profile, dump_curves, fig1_config, fig1_network

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


def _fig1(tmp_path):
    """The fig1 fixture, stopped after 3 days."""
    out = tmp_path / "scenario"
    _run(["-m", "vmsdta.cli", "fixtures", "fig1", "--out", out], tmp_path)
    config = json.loads((out / "config.json").read_text())
    config["solver"]["max_days"] = 3
    (out / "config.json").write_text(json.dumps(config))
    return out


def _grid(tmp_path):
    """Grid layout 1 at 100 veh per O-D (the grid-free workload), one day."""
    out = tmp_path / "scenario"
    _run([BENCH / "gridgen.py", "--seed", 1, "--demand", 100, "--days", 1, "--out", out], tmp_path)
    return out


@pytest.mark.parametrize("scenario", [_fig1, _grid], ids=["fig1", "grid-free"])
def test_every_per_layer_metric_is_measured(tmp_path, scenario):
    files = scenario(tmp_path)
    flags = []
    for name in ("network", "paths", "demand", "config", "tolerances", "vms"):
        ext = "csv" if name in ("demand", "tolerances") else "json"
        flags += [f"--{name}", files / f"{name}.{ext}"]
    spans = tmp_path / "spans.json"
    _run([BENCH / "traced.py", spans, "run", *flags, "--out", tmp_path / "out", "--quiet"], tmp_path)
    report = json.loads(_run([BENCH / "tracer.py", spans], tmp_path).splitlines()[-1])
    assert report["unmeasured"] == {}
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    values = report["values"]
    assert sorted(values) == sorted(tracer.PER_LAYER)
    bad = {name: v for name, v in values.items() if not math.isfinite(v)}
    assert not bad, bad


def test_fig1_solves_each_bin_with_flow_once_and_keeps_its_turning_ratios(tmp_path, monkeypatch):
    # bench/traced.py counts dnl.junction_calls and junction_throttled_share from
    # these calls; the counts and the dumped bytes were recorded with the dense
    # node model, so a loader that adds, skips or moves a call or a bit fails here
    throttled, with_flow = [], []
    solve, load = dnl.solve_junction, daytoday.run_dnl

    def counting(*args):
        theta = solve(*args)
        throttled.append(min(theta, default=1.0) < 1.0)
        return theta

    def loading(*args, **kwargs):
        result = load(*args, **kwargs)
        with_flow.append(int(np.count_nonzero(result.demand.any(axis=1))))
        return result

    monkeypatch.setattr(dnl, "solve_junction", counting)
    monkeypatch.setattr(daytoday, "run_dnl", loading)
    net, cfg = fig1_network(), fig1_config()
    run = daytoday.run_day_to_day(net, build_profile(net, cfg), cfg.compliance,
                                  cfg.penalty, replace(cfg.solver, max_days=3))
    assert (len(throttled), sum(throttled)) == (386, 25)
    assert sum(with_flow) == len(throttled)
    ratios = run.final_dnl.turning_ratios
    assert run.final_dnl.turning_ratios is ratios  # built once, on first read
    files = dump_curves(run.final_dnl, tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    assert digests == {
        "curves": "dae4134795c49cd4102fbf9629ccac39caa44be8653c2619cb9f3d008a8c8148",
        "turning_ratios": "6559489cda8080a2766d454bb4c38862887d4f9e9da247e0fbbb7be41c17b6de",
    }
