"""Checks on the outputs of one ``vmsdta run``.

``check_run`` returns a list of problems (empty when the run is correct):

* the final day's departures conserve each O-D's demand to 1e-6 relative;
* every rate is >= 0 and every compliance rate lies in [0, 1];
* flows.csv and costs.csv hold days x paths x bins rows, days.csv one per day;
* ``final_total_cost`` and the final compliance rates match the stored
  reference to ``REF_REL_TOL``.  The tolerance is far above the 1e-8 relative
  stop of the current dual bisection, so an exact dual solver passes, and far
  below any change a modelling error would make.

``csv_hashes`` gives the digests used to check that repeated runs are
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

CONSERVATION_REL_TOL = 1e-6
REF_REL_TOL = 1e-6


def csv_hashes(outdir) -> dict:
    hashes = {}
    for path in sorted(Path(outdir).glob("*.csv")):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        hashes[path.name] = digest.hexdigest()
    return hashes


def _rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        yield from reader


def check_run(outdir, scenario_dir, reference=None) -> list:
    """Problems found in the outputs in ``outdir`` of the scenario in ``scenario_dir``."""
    try:
        return _check(Path(outdir), Path(scenario_dir), reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable or malformed output: {exc!r}"]


def _check(outdir, scenario_dir, reference):
    summary = json.loads((outdir / "summary.json").read_text())
    config = json.loads((scenario_dir / "config.json").read_text())
    path_od = {p["id"]: p["od"] for p in json.loads((scenario_dir / "paths.json").read_text())}
    demand = {row[0]: float(row[3]) for row in _rows(scenario_dir / "demand.csv")}
    grid = config["grid"]
    dt = float(grid["dt"])
    n_bins = round((float(grid["tf"]) - float(grid["t0"])) / dt)
    days = int(summary["days"])
    problems = []

    n_flows = 0
    final = dict.fromkeys(demand, 0.0)
    negative = 0
    for day, pid, _k, rate in _rows(outdir / "flows.csv"):
        n_flows += 1
        r = float(rate)
        if not r >= 0.0:
            negative += 1
        if int(day) == days:
            final[path_od[pid]] += r * dt
    if negative:
        problems.append(f"flows.csv: {negative} rates not >= 0")
    for od, q in demand.items():
        if abs(final[od] - q) > CONSERVATION_REL_TOL * max(q, 1.0):
            problems.append(f"day {days}: O-D {od} departs {final[od]!r} veh, demand {q!r}")

    expected = days * len(path_od) * n_bins
    n_costs = sum(1 for _ in _rows(outdir / "costs.csv"))
    n_days = sum(1 for _ in _rows(outdir / "days.csv"))
    for name, got, want in (("flows.csv", n_flows, expected), ("costs.csv", n_costs, expected),
                            ("days.csv", n_days, days)):
        if got != want:
            problems.append(f"{name}: {got} rows, expected {want}")

    with open(outdir / "compliance.csv", newline="") as fh:
        bad_cr = [row["cr"] for row in csv.DictReader(fh) if not 0.0 <= float(row["cr"]) <= 1.0]
    if bad_cr:
        problems.append(f"compliance.csv: {len(bad_cr)} rates outside [0, 1], e.g. {bad_cr[0]}")

    if reference is not None:
        got = summary["final_total_cost"]
        if not math.isclose(got, reference["final_total_cost"], rel_tol=REF_REL_TOL):
            problems.append(f"final_total_cost {got!r}, reference {reference['final_total_cost']!r}")
        if set(summary["final_cr"]) != set(reference["final_cr"]):
            problems.append(f"final_cr pairs {sorted(summary['final_cr'])}, "
                            f"reference {sorted(reference['final_cr'])}")
        else:
            for pair, want in reference["final_cr"].items():
                if not math.isclose(summary["final_cr"][pair], want, rel_tol=REF_REL_TOL):
                    problems.append(f"final CR {pair} {summary['final_cr'][pair]!r}, reference {want!r}")
    return problems
