"""Loader invariants on seeded random acyclic networks."""

import numpy as np
import pytest

from vmsdta import dnl
from vmsdta.compliance import MODELS, ComplianceParams
from vmsdta.daytoday import PenaltyFunction, SolverConfig, run_day_to_day
from vmsdta.dnl import run_dnl

from .conftest import assert_dnl_invariants
from .oracles import compose_exit, list_loader, path_legs
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


@pytest.mark.parametrize("seed, jammed", [(s, False) for s in range(6)] + [(100, True), (101, True)])
def test_junction_table_partitions_the_loaders_legs_and_slots(seed, jammed):
    kw = dict(n_ods=4, demand=(400.0, 600.0), capacity=(0.1, 0.2)) if jammed else {}
    network, _, _ = random_network(np.random.default_rng(seed), **kw)
    t = network.loading
    legs, nodes = t.in_legs + t.q_legs, list(t.node_legs)
    pair_slot, slot_junction, junctions = t.junctions
    assert len(junctions) == len(nodes)
    assert sorted(i for j_legs, _, _, _ in junctions for i in j_legs) == list(range(len(legs)))
    assert sorted(e for _, j_slots, _, _ in junctions for e in j_slots) == list(range(len(t.slots)))
    placed = []
    for j, (j_legs, j_slots, weights, block) in enumerate(junctions):
        # a junction is a node: its in-links and queues, and the slots leaving it
        assert {network.links[legs[i]].to_node if legs[i] in network.links else legs[i][0]
                for i in j_legs} <= {nodes[j]}
        assert {t.slots[e][0] for e in j_slots} == {nodes[j]}
        assert all(slot_junction[e] == j for e in j_slots)
        assert weights == [network.links[legs[i] if legs[i] in network.links else legs[i][1]].capacity
                           for i in j_legs]
        # each of its (leg, slot) pairs sits at its leg's row and its slot's column
        for p, row, col in block:
            assert (t.leg_of_pair[p], pair_slot[p]) == (j_legs[row], j_slots[col])
            placed.append(p)
    assert sorted(placed) == list(range(len(t.leg_of_pair)))


@pytest.mark.parametrize("seed, jammed", [(3, False), (4, False), (100, True)])
def test_path_times_match_path_travel_time(seed, jammed):
    # the stacked mu calls are elementwise, so times and counts agree to the
    # bit with each path's legs composed on their own
    kw = dict(n_ods=4, demand=(400.0, 600.0), capacity=(0.1, 0.2)) if jammed else {}
    network, profile, rates = random_network(np.random.default_rng(seed), **kw)
    stacked = run_dnl(network, GRID, profile, compliance_rates=rates)
    single = run_dnl(network, GRID, profile, compliance_rates=rates)
    times, mids = stacked.path_times(), GRID.mids()
    assert list(times) == list(network.paths)
    for pid in network.paths:
        np.testing.assert_array_equal(times[pid],
                                      compose_exit(single, path_legs(network, pid), mids) - mids,
                                      err_msg=pid)
    assert stacked.extrapolated_queries == single.extrapolated_queries > 0


def test_a_query_late_in_time_and_level_counts_once():
    # after tf, on a leg that still holds vehicles at tf, a query is past the
    # horizon both in time and in its exit level: one extrapolated query
    network, profile, rates = random_network(np.random.default_rng(100), n_ods=4,
                                             demand=(400.0, 600.0), capacity=(0.1, 0.2))
    res = run_dnl(network, GRID, profile, compliance_rates=rates)
    leg = "n0_1-n1_2"
    assert res.up[leg][-1] - res.down[leg][-1] > 100.0
    before = res.extrapolated_queries
    assert res.mu(leg, [GRID.tf + 5.0]) == GRID.tf + 5.0 + network.links[leg].fft
    assert res.extrapolated_queries == before + 1


@pytest.mark.parametrize("seed, jammed", [(3, False), (4, False), (100, True)])
def test_partial_traversal_times_match_the_per_leg_chain(seed, jammed):
    # every sign's junction, with every path through it in one call
    kw = dict(n_ods=4, demand=(400.0, 600.0), capacity=(0.1, 0.2)) if jammed else {}
    network, profile, rates = random_network(np.random.default_rng(seed), **kw)
    stacked = run_dnl(network, GRID, profile, compliance_rates=rates)
    single = run_dnl(network, GRID, profile, compliance_rates=rates)
    mids = GRID.mids()
    assert network.signs
    for sg in network.signs:
        pids = [pid for pid in network.paths if sg.junction in network.node_sequence(pid)]
        times = stacked.partial_traversal_time(sg.junction, pids, mids)
        assert list(times) == pids
        for pid in pids:
            tail = network.tail_links(pid, sg.junction)
            np.testing.assert_array_equal(times[pid], compose_exit(single, tail, mids) - mids,
                                          err_msg=f"{sg.junction} {pid}")
    assert stacked.extrapolated_queries == single.extrapolated_queries


@pytest.mark.parametrize("seed", range(8))
def test_day_loop_on_random_networks(seed):
    network, profile, _ = random_network(np.random.default_rng(seed))
    params = ComplianceParams(model=MODELS[seed % len(MODELS)])
    solver = SolverConfig(step_size=2e-4, max_days=3, gap_tolerance=1e-12)
    whole = []  # the kept records have no profile but the last
    run = run_day_to_day(network, GRID, profile, params, PenaltyFunction(), solver, on_day=whole.append)
    assert len(run.days) == len(whole) == 3 and not run.converged
    for rec in whole:
        for od, total in rec.profile.od_totals(network).items():
            assert total == pytest.approx(network.ods[od].demand, rel=1e-12, abs=0.0)
        assert rec.cr_used and all(0.0 < cr < 1.0 for cr in rec.cr_used.values())
        assert all(0.0 <= row["fset_share"] <= 1.0 for row in rec.compliance_trace)
    assert_dnl_invariants(run.final_dnl)
