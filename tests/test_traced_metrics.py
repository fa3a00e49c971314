"""Every per-layer benchmark metric stays measured.

``bench/traced.py`` wraps public functions of the package by name and
``bench/tracer.py`` turns the spans into the per-layer metrics.  A renamed
function, or one that is no longer called (for example a junction solver the
loader skips when nothing throttles), leaves its metric unmeasured; these
short traced runs catch that before a benchmark run does.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
