"""What a run keeps of its days, and the output read from the kept records.

``RunResult.days`` keeps each day's record without a per-bin array, except
the newest day's departure profile, so a run's memory does not grow with its
length by a paths x bins table a day.  The flow shares are written from each
record's ``departed`` totals, which must give the bytes the whole profiles give.
"""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from vmsdta.daytoday import DayRecord, run_day_to_day
from vmsdta.network import DepartureProfile
from vmsdta.scenario import build_profile, emit_plot_data, fig1_config, fig1_network, load_bundle

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


def test_a_run_grows_by_less_than_16_kib_a_day_and_keeps_one_profile(tmp_path):
    # the traced memory at the same point of days 5 and 15 (on_day, which the
    # loop calls after each day's gap): it holds the same transients both times,
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
        if rec is res.days[-1]:
            assert held.pop("profile") == [rec.profile]
        else:
            assert rec.profile is None
        assert not any(held.values()), (rec.day, {name: len(a) for name, a in held.items() if a})


def _shares_text(network, grid, whole):
    """plot_flow_shares.csv as the whole records' profiles give it: per-path row
    sums times dt, as shares of their O-D's total."""
    buf = io.StringIO(newline="")
    wr = csv.writer(buf)
    wr.writerow(["day", "od_id", "path", "share"])
    for rec in whole:
        for od in network.ods:
            pids = network.od_paths(od)
            totals = {pid: float(rec.profile.rate(pid).sum()) * grid.dt for pid in pids}
            whole_od = sum(totals.values())
            for pid in pids:
                wr.writerow([rec.day, od, pid, totals[pid] / whole_od if whole_od > 0 else math.nan])
    return buf.getvalue()


@pytest.mark.parametrize("scenario", ["fig1", "grid-free"])
def test_flow_shares_match_the_whole_profiles(tmp_path, scenario):
    if scenario == "fig1":
        network, cfg = fig1_network(), fig1_config()
        profile = build_profile(network, cfg)
    else:
        bundle = _grid(tmp_path, 5)
        network, cfg, profile = bundle.network, bundle.config, bundle.profile
    whole = []
    res = run_day_to_day(network, cfg.grid, profile, cfg.compliance, cfg.penalty, cfg.solver,
                         on_day=whole.append)
    assert len(whole) == len(res.days) == (83 if scenario == "fig1" else 5)
    files = emit_plot_data(res, tmp_path / "out")
    with open(files["plot_flow_shares"], newline="") as fh:
        assert fh.read() == _shares_text(network, cfg.grid, whole)
