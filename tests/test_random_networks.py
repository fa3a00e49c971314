"""Loader invariants on seeded random acyclic networks."""

import numpy as np
import pytest

from vmsdta import dnl
from vmsdta.dnl import run_dnl

from .conftest import assert_dnl_invariants
from .oracles import list_loader
from .randnet import GRID, random_network


def _load(network, profile, rates, monkeypatch):
    """Run one loading; returns (result, number of junction solves that throttle)."""
    throttled = []
    solve = dnl.solve_junction

    def counting(*args):
        theta = solve(*args)
        throttled.append(min(theta, default=1.0) < 1.0)
        return theta

    monkeypatch.setattr(dnl, "solve_junction", counting)
    return run_dnl(network, GRID, profile, compliance_rates=rates), sum(throttled)


@pytest.mark.parametrize("seed", range(8))
def test_random_network_invariants_and_demand(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    network, profile, rates = random_network(rng)
    errors, _ = network.validate(GRID)
    assert not errors, errors
    assert network.signs and rates
    res, _ = _load(network, profile, rates, monkeypatch)
    assert_dnl_invariants(res)
    demand = sum(od.demand for od in network.ods.values())
    assert res.total_departed == pytest.approx(demand, rel=1e-12)


def test_jammed_random_network_throttles(monkeypatch):
    rng = np.random.default_rng(100)
    network, profile, rates = random_network(rng, n_ods=4, demand=(400.0, 600.0),
                                             capacity=(0.1, 0.2))
    assert not network.validate(GRID)[0]
    res, throttled = _load(network, profile, rates, monkeypatch)
    assert throttled > 0
    assert_dnl_invariants(res)
    demand = sum(od.demand for od in network.ods.values())
    assert res.total_departed == pytest.approx(demand, rel=1e-12)


@pytest.mark.parametrize("seed, jammed", [(s, False) for s in range(6)] + [(100, True), (101, True)])
def test_array_loader_matches_the_list_loader(seed, jammed):
    # same arithmetic in the same order, so the curves agree to the bit
    kw = dict(n_ods=4, demand=(400.0, 600.0), capacity=(0.1, 0.2)) if jammed else {}
    network, profile, rates = random_network(np.random.default_rng(seed), **kw)
    res = run_dnl(network, GRID, profile, compliance_rates=rates)
    up, down, up_by_path, ratios, arrived = list_loader(network, GRID, profile, rates)
    assert list(res.up) == list(up)
    for leg in up:
        np.testing.assert_array_equal(res.up[leg], up[leg], err_msg=f"up {leg}")
        np.testing.assert_array_equal(res.down[leg], down[leg], err_msg=f"down {leg}")
        for pid, curve in up_by_path[leg].items():
            np.testing.assert_array_equal(res.up_by_path[leg][pid], curve, err_msg=f"{leg} {pid}")
    assert res.turning_ratios.keys() == ratios.keys()
    for node, per_in in ratios.items():
        assert res.turning_ratios[node].keys() == per_in.keys()
        for a, per_out in per_in.items():
            assert list(res.turning_ratios[node][a]) == list(per_out)
            for b, arr in per_out.items():
                np.testing.assert_array_equal(res.turning_ratios[node][a][b], arr)
    assert res.total_arrived == arrived


@pytest.mark.parametrize("seed, jammed", [(3, False), (4, False), (100, True)])
def test_path_times_match_path_travel_time(seed, jammed):
    # the stacked mu calls are elementwise, so times and counts agree to the bit
    kw = dict(n_ods=4, demand=(400.0, 600.0), capacity=(0.1, 0.2)) if jammed else {}
    network, profile, rates = random_network(np.random.default_rng(seed), **kw)
    stacked = run_dnl(network, GRID, profile, compliance_rates=rates)
    single = run_dnl(network, GRID, profile, compliance_rates=rates)
    times = stacked.path_times()
    assert list(times) == list(network.paths)
    for pid in network.paths:
        np.testing.assert_array_equal(times[pid], single.path_travel_time(pid, GRID.mids()),
                                      err_msg=pid)
    assert stacked.extrapolated_queries == single.extrapolated_queries > 0
