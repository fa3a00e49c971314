"""Record one-day loadings as golden copies for ``tests/test_golden.py``.

    PYTHONPATH=src python3 -m tests.golden.record

Writes one compressed ``.npz`` per case next to this file.  Each holds, per
link, the cumulative curves ``up|<link>`` and ``down|<link>``; per path the
travel time at bin midpoints ``path_time|<path>``; for every affected
(O-D, sign) pair the partial traversal times from the sign's junction
``partial|<node>|<path>``; the turning ratios ``ratio|<node>|<in>|<out>``; and
``totals`` = (departed, arrived, residual).  Every compliance rate is 0.5.
Re-record only for an intended change to the loading.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path as FsPath

import numpy as np

from vmsdta.dnl import run_dnl
from vmsdta.network import affected_ods
from vmsdta.scenario import build_profile, fig1_config, fig1_network

from ..randnet import random_network

HERE = FsPath(__file__).parent
CR = 0.5
GRID_LAYOUT = 1
GRID_DEMAND = 300.0  # veh per O-D, as the benchmark's grid-jam workload


def fig1_case():
    network, cfg = fig1_network(), fig1_config()
    return network, build_profile(network, cfg)


def jammed_case():
    """The random network of ``test_jammed_random_network_throttles``."""
    network, profile, _ = random_network(np.random.default_rng(100), n_ods=4,
                                         demand=(400.0, 600.0), capacity=(0.1, 0.2))
    return network, profile


def grid_case():
    """Layout 1 of the benchmark's generated 8 x 8 grid at 300 veh per O-D."""
    spec = importlib.util.spec_from_file_location(
        "gridgen", HERE.parents[1] / "bench" / "gridgen.py")
    gridgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gridgen)
    network, cfg = gridgen.grid_network(GRID_LAYOUT, GRID_DEMAND), gridgen.grid_config(1)
    return network, build_profile(network, cfg)


CASES = {"fig1": fig1_case, "jammed": jammed_case, "grid": grid_case}


def loading_arrays(network, profile) -> dict:
    """Run one loading at CR 0.5 and flatten what it exposes to named arrays."""
    rates = {(od, sg.id): CR for sg in network.signs for od in affected_ods(network, sg)}
    res = run_dnl(network, profile, compliance_rates=rates)
    out = {}
    for a in network.links:
        out[f"up|{a}"] = res.up[a]
        out[f"down|{a}"] = res.down[a]
    for pid, times in res.path_times().items():
        out[f"path_time|{pid}"] = times
    for sg in network.signs:
        for fset, nfset in affected_ods(network, sg).values():
            for pid, times in res.partial_traversal_time(sg.junction, fset + nfset,
                                                         profile.grid.mids()).items():
                out[f"partial|{sg.junction}|{pid}"] = times
    for node, per_in in res.turning_ratios.items():
        for a, per_out in per_in.items():
            for b, arr in per_out.items():
                out[f"ratio|{node}|{a}|{b}"] = arr
    out["totals"] = np.array([res.total_departed, res.total_arrived, res.total_residual])
    return out


def main():
    for name, build in CASES.items():
        np.savez_compressed(HERE / f"{name}.npz", **loading_arrays(*build()))


if __name__ == "__main__":
    main()
