"""Loader invariants on seeded random acyclic networks."""

import numpy as np
import pytest

from vmsdta import dnl
from vmsdta.dnl import run_dnl

from .conftest import assert_dnl_invariants
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
