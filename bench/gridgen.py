"""Seeded Manhattan-grid scenarios for the benchmark.

An 8 x 8 grid of nodes joined by one-way east and north links with the
fig1 link parameters.  The eight O-Ds and their five monotone paths each are
the same for every seed (the paths are drawn once, from ``PATHS_SEED``), so
the loader's work barely depends on the seed; the seed places the four signs.
Signs stand only at junctions where one O-D's paths through the same host
link split east and north, so every sign has an affected O-D.

    PYTHONPATH=src python3 bench/gridgen.py --seed 3 --demand 300 --days 5 --out grid3
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path as FsPath

import numpy as np

from vmsdta.network import Link, Network, ODPair, Path, VmsSign, normalize_intervals, save_scenario_files
from vmsdta.scenario import config_to_dict, parse_config

N = 8
PATHS_PER_OD = 5
N_SIGNS = 4
EPSILON_S = 150.0
T_ARRIVAL = 2100.0
OMEGA = ((600.0, 3000.0),)
# Model IV disutility is mean x std of traversal time (s^2); this scale keeps
# the logit argument of order one, so compliance rates stay inside (0, 1).
BETA_IV = 2e-4
# (origin, (dx, dy)) per O-D: each spans 7 links and has C(7, 3) = 35
# monotone paths.  These spans and PATHS_SEED were picked among random
# candidates: over the first 16 seeds the junction solves of a 5-day run vary
# by about 4-5% between quartiles; at 300 veh per O-D about 10% of them
# throttle a leg, at 100 veh none do.
PATHS_SEED = 4
OD_SPANS = (
    ((4, 1), (3, 4)), ((3, 1), (3, 4)), ((3, 4), (4, 3)), ((4, 2), (3, 4)),
    ((0, 4), (4, 3)), ((4, 0), (3, 4)), ((4, 3), (3, 4)), ((3, 3), (3, 4)),
)


def _node(i, j):
    return f"n{i}_{j}"


def _link(lid, a, b):
    return Link(id=lid, from_node=a, to_node=b, length=500.0, vf=12.5,
                capacity=0.5, kjam=0.15, w=5.0)


def grid_links():
    """East links ``e{i}_{j}`` and north links ``u{i}_{j}`` leaving node (i, j)."""
    links = {}
    for j in range(N):
        for i in range(N):
            if i + 1 < N:
                links[f"e{i}_{j}"] = _link(f"e{i}_{j}", _node(i, j), _node(i + 1, j))
            if j + 1 < N:
                links[f"u{i}_{j}"] = _link(f"u{i}_{j}", _node(i, j), _node(i, j + 1))
    return links


def _moves_to_links(origin, moves):
    i, j = origin
    out = []
    for m in moves:
        if m == "E":
            out.append(f"e{i}_{j}")
            i += 1
        else:
            out.append(f"u{i}_{j}")
            j += 1
    return tuple(out)


def _sign_candidates(links, paths, od):
    """(node, host, east out, north out) where the O-D's paths through host split."""
    nexts = {}
    for p in paths.values():
        if p.od != od:
            continue
        for a, b in zip(p.links, p.links[1:]):
            nexts.setdefault(a, set()).add(b)
    found = []
    for host in sorted(nexts):
        outs = nexts[host]
        east = sorted(b for b in outs if b.startswith("e"))
        north = sorted(b for b in outs if b.startswith("u"))
        if east and north:
            found.append((links[host].to_node, host, east[0], north[0]))
    return found


def grid_network(seed, demand) -> Network:
    """The seed's grid layout with ``demand`` vehicles per O-D."""
    path_rng = np.random.default_rng(PATHS_SEED)
    links = grid_links()
    paths, ods = {}, {}
    for k, (origin, (dx, dy)) in enumerate(OD_SPANS):
        dest = (origin[0] + dx, origin[1] + dy)
        od = f"od{k + 1}"
        chosen = []
        while len(chosen) < PATHS_PER_OD:
            moves = ["E"] * dx + ["N"] * dy
            path_rng.shuffle(moves)
            seq = _moves_to_links(origin, moves)
            if seq not in chosen:
                chosen.append(seq)
        pids = [f"{od}_p{j + 1}" for j in range(PATHS_PER_OD)]
        for pid, seq in zip(pids, chosen):
            paths[pid] = Path(pid, od, seq)
        ods[od] = ODPair(od, _node(*origin), _node(*dest), float(demand), T_ARRIVAL,
                         dict.fromkeys(pids, EPSILON_S))
    rng = np.random.default_rng(seed)
    candidates = [c for od in ods for c in _sign_candidates(links, paths, od)]
    signs, taken = [], set()
    for idx in rng.permutation(len(candidates)):
        node, host, east, north = candidates[idx]
        if node in taken:
            continue
        taken.add(node)
        from_link, to_link = (east, north) if rng.random() < 0.5 else (north, east)
        signs.append(VmsSign(id=f"vms{len(signs) + 1}", host_link=host, junction=node,
                             from_link=from_link, to_link=to_link,
                             omega=normalize_intervals(OMEGA)))
        if len(signs) == N_SIGNS:
            break
    if len(signs) < N_SIGNS:
        raise ValueError(f"grid seed {seed}: only {len(signs)} sign sites")
    return Network(links=links, paths=paths, ods=ods, signs=signs)


def grid_config(days):
    """fig1's grid, penalty and step size; Model IV over a fixed day budget."""
    return parse_config({
        "grid": {"t0": 0.0, "tf": 3600.0, "dt": 10.0},
        "model": "IV",
        "compliance": {"w": 0.3, "beta": 0.01, "beta_iv": BETA_IV},
        "penalty": {"early": 0.5, "late": 1.5},
        # a gap tolerance no run reaches, so every run lasts exactly `days`
        "solver": {"lambda": 0.0002, "max_days": days, "gap_tolerance": 1e-12},
        "init_profile": {"mode": "uniform", "window": [900.0, 1800.0]},
        "seed": 0,
    })


def write_grid_scenario(outdir, seed, demand, days) -> dict:
    """Write the scenario files; returns the file map (as save_scenario_files)."""
    outdir = FsPath(outdir)
    files = save_scenario_files(grid_network(seed, demand), outdir)
    files["config"] = outdir / "config.json"
    files["config"].write_text(json.dumps(config_to_dict(grid_config(days)), indent=2) + "\n")
    return files


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--demand", type=float, required=True)
    ap.add_argument("--days", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    files = write_grid_scenario(args.out, args.seed, args.demand, args.days)
    print(json.dumps({k: str(v) for k, v in files.items()}))


if __name__ == "__main__":
    main()
