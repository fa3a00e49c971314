"""Exact symmetries of the engine, checked bit for bit.

- Renaming nodes so that their sorted order reverses moves no bit: the
  junction order follows the sorted node names, but every junction is solved
  on its own legs and slots.
- Multiplying every demand, capacity and jam density by a power of two, and
  the step size lambda with them, scales every vehicle count by it exactly
  and leaves every time, cost and compliance rate as it was (fig1, generated
  grids and random networks).
- A disjoint union of networks loads each component as it loads alone.

The order of the link records is part of the input: it fixes the order in
which the loader sums flows, so a shuffle moves path times only by rounding.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np
import pytest

from vmsdta.daytoday import run_day_to_day
from vmsdta.dnl import run_dnl
from vmsdta.network import SINK, DepartureProfile, Network, Path
from vmsdta.scenario import build_profile, fig1_config, fig1_network, load_bundle

from .randnet import GRID, random_network

ROOT = FsPath(__file__).resolve().parents[1]

RANDNET = [(s, False) for s in range(4)] + [(100, True), (101, True)]
JAMMED = dict(n_ods=4, demand=(400.0, 600.0), capacity=(0.1, 0.2))


def _randnet(seed, jammed):
    return random_network(np.random.default_rng(seed), **(JAMMED if jammed else {}))


def _rebuilt(network, node=None, sfx="", scale=1.0, link_order=None):
    """``network`` with its nodes renamed by ``node``, every id suffixed by ``sfx``, demand,
    capacity and jam density times ``scale``, and its link records in ``link_order``."""
    node = node or {n: n + sfx for n in network.nodes}
    links = {a + sfx: replace(lk, id=lk.id + sfx, from_node=node[lk.from_node], to_node=node[lk.to_node],
                              capacity=scale * lk.capacity, kjam=scale * lk.kjam)
             for a, lk in ((a, network.links[a]) for a in (link_order or network.links))}
    paths = {p.id + sfx: Path(p.id + sfx, p.od + sfx, tuple(a + sfx for a in p.links))
             for p in network.paths.values()}
    ods = {od.id + sfx: replace(od, id=od.id + sfx, origin=node[od.origin], destination=node[od.destination],
                                demand=scale * od.demand,
                                tolerances={p + sfx: eps for p, eps in od.tolerances.items()})
           for od in network.ods.values()}
    signs = [replace(sg, id=sg.id + sfx, host_link=sg.host_link + sfx, junction=node[sg.junction],
                     from_link=sg.from_link + sfx, to_link=sg.to_link + sfx) for sg in network.signs]
    return Network(links=links, paths=paths, ods=ods, signs=signs)


def _reversed_names(network):
    """Node names whose sorted order is the reverse of ``network``'s."""
    order = sorted(network.nodes)
    return {n: f"v{len(order) - i:04d}" for i, n in enumerate(order)}


def _assert_loads_alike(res, ref, node=None, sfx="", scale=1.0):
    """``res`` loads ``ref``'s network (nodes renamed by ``node``, ids suffixed by ``sfx``)
    bit for bit, with every vehicle count times ``scale``."""
    node = node or {n: n + sfx for n in ref.network.nodes}
    for a in ref.network.links:
        np.testing.assert_array_equal(res.up[a + sfx], scale * ref.up[a], err_msg=a)
        np.testing.assert_array_equal(res.down[a + sfx], scale * ref.down[a], err_msg=a)
        for pid, curve in ref.up_by_path[a].items():
            np.testing.assert_array_equal(res.up_by_path[a + sfx][pid + sfx], scale * curve, err_msg=a)
    times = res.path_times()
    for pid, t in ref.path_times().items():
        np.testing.assert_array_equal(times[pid + sfx], t, err_msg=pid)
    for n, per_in in ref.turning_ratios.items():
        for a, per_out in per_in.items():
            for out, ratios in per_out.items():
                np.testing.assert_array_equal(
                    res.turning_ratios[node[n]][a + sfx][out if out == SINK else out + sfx], ratios)


def _assert_runs_alike(run, ref, scale=1.0):
    """Day by day the same costs and compliance, with the departure rates times ``scale``;
    each run is a ``RunResult`` and its whole records, as ``on_day`` saw them."""
    (run, days), (ref, ref_days) = run, ref
    assert len(days) == len(run.days) == len(ref.days) == len(ref_days) and run.converged == ref.converged
    for rec, base in zip(days, ref_days):
        np.testing.assert_array_equal(rec.psi, base.psi)
        np.testing.assert_array_equal(rec.phi, base.phi)
        np.testing.assert_array_equal(rec.profile.rates, scale * base.profile.rates)
        assert (rec.cr_used, rec.compliance_trace, rec.min_cost) == (base.cr_used, base.compliance_trace,
                                                                     base.min_cost)
        assert rec.total_cost == scale * base.total_cost
        assert rec.gap == base.gap or (np.isnan(rec.gap) and np.isnan(base.gap))


def _collected(run, *args, **kwargs):
    """``run``'s result and the whole record of each day, collected through ``on_day``."""
    days = []
    return run(*args, **kwargs, on_day=days.append), days


def _fig1_run(network, model, scale=1.0, max_days=10):
    cfg = fig1_config(model=model)
    solver = replace(cfg.solver, max_days=max_days, step_size=scale * cfg.solver.step_size)
    return _collected(run_day_to_day, network, cfg.grid, build_profile(network, cfg), cfg.compliance,
                      cfg.penalty, solver)


# ---------------------------------------------------------------------------
# node names


@pytest.mark.parametrize("seed, jammed", RANDNET)
def test_reversing_the_node_order_moves_no_bit_of_a_random_loading(seed, jammed):
    network, profile, rates = _randnet(seed, jammed)
    names = _reversed_names(network)
    ref = run_dnl(network, GRID, profile, compliance_rates=rates)
    res = run_dnl(_rebuilt(network, node=names), GRID, profile, compliance_rates=rates)
    _assert_loads_alike(res, ref, node=names)


def test_reversing_the_node_order_moves_no_bit_of_a_fig1_run():
    network = fig1_network()
    names = _reversed_names(network)
    renamed = _rebuilt(network, node=names)
    # the junction order reverses
    assert list(renamed.loading.node_legs) == [names[n] for n in reversed(network.loading.node_legs)]
    _assert_runs_alike(_fig1_run(renamed, "I"), _fig1_run(network, "I"))


# ---------------------------------------------------------------------------
# power-of-two scaling


@pytest.mark.parametrize("model", ["I", "II", "III", "IV"])
def test_power_of_two_scaling_is_exact_over_a_fig1_run(model):
    network = fig1_network()
    ref = _fig1_run(network, model)
    for c in (2.0, 0.5):
        _assert_runs_alike(_fig1_run(_rebuilt(network, scale=c), model, scale=c), ref, scale=c)


@pytest.mark.parametrize("layout", [1, 2])
def test_power_of_two_scaling_is_exact_over_a_generated_grid_run(layout, tmp_path):
    # bench/gridgen.py at 300 veh per O-D, where some junction solves throttle, over 5 days
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(ROOT / "bench" / "gridgen.py"), "--seed", str(layout),
                    "--demand", "300", "--days", "5", "--out", str(tmp_path)], env=env, check=True,
                   capture_output=True, timeout=300)
    names = ("network.json", "paths.json", "demand.csv", "config.json", "tolerances.csv", "vms.json")
    bundle = load_bundle(*(tmp_path / name for name in names))
    cfg = bundle.config

    def run(network, scale):
        profile = DepartureProfile(cfg.grid, network.path_ids, scale * bundle.profile.rates)
        solver = replace(cfg.solver, step_size=scale * cfg.solver.step_size)
        return _collected(run_day_to_day, network, cfg.grid, profile, cfg.compliance, cfg.penalty, solver)

    ref = run(bundle.network, 1.0)
    assert len(ref[1]) == 5
    for c in (2.0, 0.5):
        _assert_runs_alike(run(_rebuilt(bundle.network, scale=c), c), ref, scale=c)


@pytest.mark.parametrize("seed, jammed", RANDNET)
def test_power_of_two_scaling_is_exact_on_a_random_loading(seed, jammed):
    network, profile, rates = _randnet(seed, jammed)
    ref = run_dnl(network, GRID, profile, compliance_rates=rates)
    for c in (2.0, 0.5):
        scaled = DepartureProfile(GRID, profile.path_ids, c * profile.rates)
        res = run_dnl(_rebuilt(network, scale=c), GRID, scaled, compliance_rates=rates)
        _assert_loads_alike(res, ref, scale=c)
        assert res.total_arrived == c * ref.total_arrived


# ---------------------------------------------------------------------------
# disjoint unions


def test_each_component_of_a_disjoint_union_loads_as_alone():
    # two fig1 variants, one with a slower detour, and a component without demand
    grid = fig1_config().grid
    detour = fig1_network(demand=540.0)
    detour = Network(links={a: replace(lk, capacity=0.3 if a in ("3", "6") else lk.capacity)
                            for a, lk in detour.links.items()},
                     paths=detour.paths, ods=detour.ods, signs=detour.signs)
    parts = {"_a": (fig1_network(), 0.6), "_b": (detour, 0.3), "_c": (fig1_network(demand=0.0), 0.5)}
    rng = np.random.default_rng(7)
    alone, rows, crs, pieces = {}, [], {}, []
    for sfx, (net, cr) in parts.items():
        profile = DepartureProfile.random(net, grid, rng, window=(600.0, 2400.0))
        alone[sfx] = run_dnl(net, grid, profile, compliance_rates={("od1", "vms1"): cr})
        rows.append(profile.rates)
        crs[("od1" + sfx, "vms1" + sfx)] = cr
        pieces.append(_rebuilt(net, sfx=sfx))
    union = Network(**{field: {k: v for piece in pieces for k, v in getattr(piece, field).items()}
                       for field in ("links", "paths", "ods")},
                    signs=[sg for piece in pieces for sg in piece.signs])
    res = run_dnl(union, grid, DepartureProfile(grid, union.path_ids, np.vstack(rows)), compliance_rates=crs)
    assert alone["_b"].demand.any() and not alone["_c"].demand.any()
    for sfx, ref in alone.items():
        _assert_loads_alike(res, ref, sfx=sfx)


# ---------------------------------------------------------------------------
# link order


@pytest.mark.parametrize("seed, jammed", RANDNET)
def test_shuffled_link_records_move_path_times_only_by_rounding(seed, jammed):
    network, profile, rates = _randnet(seed, jammed)
    order = list(np.random.default_rng(seed).permutation(list(network.links)))
    ref = run_dnl(network, GRID, profile, compliance_rates=rates)
    res = run_dnl(_rebuilt(network, link_order=order), GRID, profile, compliance_rates=rates)
    times = res.path_times()
    for pid, t in ref.path_times().items():
        np.testing.assert_allclose(times[pid], t, rtol=0.0, atol=1e-6, err_msg=pid)
