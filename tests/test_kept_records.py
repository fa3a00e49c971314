"""What a run keeps of its days.

``RunResult.days`` keeps each day's record without a per-bin array, so a
run's memory does not grow with its length by a paths x bins table a day.
"""

import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np

from vmsdta import daytoday
from vmsdta.daytoday import DayRecord, run_day_to_day
from vmsdta.network import DepartureProfile
from vmsdta.scenario import fig1_config, fig1_network, load_bundle

ROOT = Path(__file__).resolve().parents[1]


def _grid(tmp_path, days):
    """Grid layout 1 at 100 veh per O-D (the grid-free workload) as a loaded bundle."""
    out = tmp_path / "grid"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(ROOT / "bench" / "gridgen.py"), "--seed", "1", "--demand", "100",
                    "--days", str(days), "--out", str(out)], env=env, check=True, capture_output=True,
                   timeout=120)
    return load_bundle(out / "network.json", out / "paths.json", out / "demand.csv", out / "config.json",
                       out / "tolerances.csv", out / "vms.json")


def _arrays(value):
    """The numpy arrays and departure profiles inside ``value``, through dicts, lists and tuples."""
    if isinstance(value, (np.ndarray, DepartureProfile)):
        return [value]
    if isinstance(value, dict):
        value = list(value.keys()) + list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays(item)]
    return []


def test_a_run_grows_by_less_than_16_kib_a_day_and_keeps_no_profile(tmp_path):
    # the traced memory at the same point of days 5 and 15 (on_day, which the
    # loop calls as each day ends): it holds the same transients both times,
    # so the difference is what ten more kept days cost.  Tracing starts on
    # day 3, so every transient of day 5 was allocated under it.
    bundle = _grid(tmp_path, 15)
    cfg = bundle.config
    traced = {}

    def on_day(rec):
        if rec.day == 3:
            tracemalloc.start()
        elif rec.day in (5, 15):
            traced[rec.day] = tracemalloc.get_traced_memory()[0]

    try:
        res = run_day_to_day(bundle.network, cfg.grid, bundle.profile, cfg.compliance, cfg.penalty,
                             cfg.solver, on_day=on_day)
    finally:
        tracemalloc.stop()
    assert len(res.days) == 15
    per_day = (traced[15] - traced[5]) / 10
    assert per_day < 16 * 1024, f"{per_day / 1024:.1f} KiB a day"

    for rec in res.days:
        held = {f.name: _arrays(getattr(rec, f.name)) for f in fields(DayRecord)}
        assert not any(held.values()), (rec.day, {name: len(a) for name, a in held.items() if a})


def test_yesterdays_record_is_gone_when_today_loads(monkeypatch):
    # on_day keeps only weak references to each day's psi and phi: when the next day's loading
    # starts, the day loop holds neither the last record nor the last loading, so both are gone
    net, cfg = fig1_network(), fig1_config(solver={"lambda": 0.0002, "max_days": 4, "gap_tolerance": 1e-3})
    refs, alive = [], []
    load = daytoday.run_dnl

    def checked(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return load(*args, **kwargs)

    monkeypatch.setattr(daytoday, "run_dnl", checked)
    res = run_day_to_day(net, cfg.grid, DepartureProfile.uniform(net, cfg.grid, window=(900.0, 1800.0)),
                         cfg.compliance, cfg.penalty, cfg.solver,
                         on_day=lambda rec: refs.extend([weakref.ref(rec.psi), weakref.ref(rec.phi)]))
    assert len(res.days) == 4
    assert alive == [[], [False] * 2, [False] * 4, [False] * 6]
