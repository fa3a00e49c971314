import json
import math

import numpy as np
import pytest

from vmsdta import dnl
from vmsdta.compliance import ComplianceParams
from vmsdta.daytoday import DayState, PenaltyFunction, SolverConfig, advance
from vmsdta.dnl import (
    DnlError,
    _finite_rounds,
    revise_turning_ratios,
    run_dnl,
)
from vmsdta.network import DepartureProfile, Link, Network, ODPair, Path, TimeGrid
from vmsdta.cli import cli_run
from vmsdta.scenario import fig1_config, fig1_network, write_fig1_fixture

from .conftest import assert_dnl_invariants, link_inflow, make_corridor
from .oracles import (compose_exit, list_loader, path_legs, point_queue_corridor, slotwise_waterfill,
                      solve_dense)

# ---------------------------------------------------------------------------
# turning-ratio revision


def test_revision_identity_at_zero_compliance():
    assert revise_turning_ratios(0.6, 0.4, 0.0) == (0.6, 0.4)


def test_revision_diverts_all_at_full_compliance():
    assert revise_turning_ratios(0.6, 0.4, 1.0) == (0.0, 1.0)


def test_revision_half_compliance():
    rf, rt = revise_turning_ratios(0.6, 0.4, 0.5)
    assert rf == pytest.approx(0.3, abs=1e-15)
    assert rt == pytest.approx(0.7, abs=1e-15)


def test_revision_rejects_bad_compliance():
    with pytest.raises(ValueError):
        revise_turning_ratios(0.6, 0.4, 1.5)
    with pytest.raises(ValueError):
        revise_turning_ratios(0.6, 0.4, -0.1)


def test_revision_preserves_sum_and_bounds():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        a_from = float(rng.random())
        a_to = 1.0 - a_from
        cr = float(rng.random())
        rf, rt = revise_turning_ratios(a_from, a_to, cr)
        assert 0.0 <= rf <= 1.0 and 0.0 <= rt <= 1.0
        assert rf + rt == a_from + a_to  # bit-for-bit


# ---------------------------------------------------------------------------
# link dynamics


def test_single_link_free_flow_time():
    # 1000 m at 20 m/s -> 50 s for every departure
    grid = TimeGrid(0.0, 600.0, 1.0)
    net, prof = make_corridor(
        [{"length": 1000.0, "vf": 20.0, "cap": 0.5, "kjam": 0.2, "w": 5.0}],
        grid, demand=60.0, window=(0.0, 300.0))
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    times = res.path_times()["p"]
    assert np.allclose(times, 50.0, atol=1e-9)
    assert res.total_residual == pytest.approx(0.0, abs=1e-12)


def test_serial_links_add_free_flow_times():
    grid = TimeGrid(0.0, 600.0, 1.0)
    net, prof = make_corridor(
        [{"length": 1000.0, "vf": 20.0, "cap": 0.5, "kjam": 0.2, "w": 5.0},
         {"length": 600.0, "vf": 20.0, "cap": 0.5, "kjam": 0.2, "w": 5.0}],
        grid, demand=50.0, window=(0.0, 250.0))
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    assert np.allclose(res.path_times()["p"], 50.0 + 30.0, atol=1e-9)
    # composition of exit times equals addition under free flow
    assert compose_exit(res, ("L1", "L2"), 100.0) == pytest.approx(180.0, abs=1e-9)


def test_half_capacity_bottleneck_stays_free_flow():
    grid = TimeGrid(0.0, 600.0, 1.0)
    net, prof = make_corridor(
        [{"length": 500.0, "vf": 10.0, "cap": 0.4, "kjam": 0.4, "w": 5.0}],
        grid, demand=60.0, window=(0.0, 300.0))  # 0.2 veh/s against 0.4 veh/s
    res = run_dnl(net, grid, prof)
    assert np.allclose(res.path_times()["p"], 50.0, atol=1e-9)


def test_bottleneck_against_point_queue_oracle():
    # one bin of inflow at twice capacity, then the queue drains
    grid = TimeGrid(0.0, 400.0, 1.0)
    specs = [{"length": 200.0, "vf": 20.0, "cap": 0.25, "kjam": 0.5, "w": 5.0}]
    net, prof = make_corridor(specs, grid, demand=5.0, window=(0.0, 10.0))  # 0.5 veh/s
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    _, oracle = point_queue_corridor([net.links["L1"]], prof.rates[0], grid)
    mids = grid.mids()[:10]
    engine = res.path_times()["p"][:10]
    expected = oracle(mids)
    assert np.max(np.abs(engine - expected)) <= grid.dt + 1e-9
    # the last vehicle of the burst waits about dt*(rho - 1) * bins behind it
    assert engine[9] > engine[0]


def test_origin_queue_is_a_curve_pair_between_departures_and_first_link():
    # departures at twice the first link's capacity queue at the origin
    grid = TimeGrid(0.0, 400.0, 1.0)
    net, prof = make_corridor(
        [{"length": 200.0, "vf": 20.0, "cap": 0.25, "kjam": 0.5, "w": 5.0}],
        grid, demand=25.0, window=(0.0, 50.0))
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    queue = ("n0", "L1")
    departed = np.concatenate(([0.0], np.cumsum(prof.rate("p")) * grid.dt))
    assert np.array_equal(res.up[queue], departed)
    assert np.array_equal(res.up_by_path[queue]["p"], departed)
    assert np.array_equal(res.down[queue], res.up["L1"])
    assert np.max(res.up[queue] - res.down[queue]) > 5.0, "no origin queue formed"
    assert res.total_departed == pytest.approx(25.0, rel=1e-12)


def _residual_warned(net, grid, prof):
    """Whether the day step that loads ``prof`` warns of vehicles left in the network at tf."""
    _, record, _ = advance(DayState(prof, {}), net, grid, ComplianceParams(), PenaltyFunction(),
                           SolverConfig())
    return len(record.warnings) == 1 and "still in the network at tf" in record.warnings[0]


def test_origin_queue_still_long_at_tf_loads_the_last_bin():
    # the last bin's backlog exceeds half the departures, where
    # entered + (departed - entered) can round one ulp above departed
    grid = TimeGrid(0.0, 50.0, 1.0)
    net, prof = make_corridor(
        [{"length": 20.0, "vf": 10.0, "cap": 0.3, "kjam": 0.5, "w": 5.0}],
        grid, demand=47.0, window=(0.0, 50.0), t_arrival=49.0)
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    assert res.down[("n0", "L1")][-1] == pytest.approx(0.3 * 50.0, rel=1e-12)
    assert _residual_warned(net, grid, prof)


def test_quiet_spell_between_departure_waves_does_not_end_the_day():
    # the corridor empties between two waves of departures: idle bins may be
    # skipped only after the last departure
    grid = TimeGrid(0.0, 3600.0, 10.0)
    spec = {"length": 500.0, "vf": 12.5, "cap": 0.5, "kjam": 0.15, "w": 5.0}
    net, prof = make_corridor([spec, spec], grid, demand=100.0, window=(0.0, 100.0))
    prof.rates[0] = 0.0
    prof.rates[0, 10:15] = prof.rates[0, 200:205] = 1.0
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    assert res.total_arrived == pytest.approx(100.0, rel=1e-12)
    up, down, *_ = list_loader(net, grid, prof, {})
    for leg in up:
        np.testing.assert_array_equal(res.up[leg], up[leg])
        np.testing.assert_array_equal(res.down[leg], down[leg])


def test_three_link_corridor_against_oracle():
    grid = TimeGrid(0.0, 900.0, 1.0)
    specs = [
        {"length": 400.0, "vf": 20.0, "cap": 0.5, "kjam": 0.5, "w": 5.0},
        {"length": 300.0, "vf": 15.0, "cap": 0.2, "kjam": 0.5, "w": 5.0},
        {"length": 200.0, "vf": 10.0, "cap": 0.4, "kjam": 0.5, "w": 5.0},
    ]
    net, prof = make_corridor(specs, grid, demand=60.0, window=(0.0, 200.0))  # 0.3 veh/s
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    _, oracle = point_queue_corridor([net.links[a] for a in ("L1", "L2", "L3")],
                                     prof.rates[0], grid)
    mids = grid.mids()[:200]
    engine = res.path_times()["p"][:200]
    assert np.max(np.abs(engine - oracle(mids))) <= grid.dt + 1e-9


# ---------------------------------------------------------------------------
# spillback


def _spillback_net(tail_cap):
    grid = TimeGrid(0.0, 1200.0, 10.0)
    links = {
        "A": Link("A", "n0", "n1", 1000.0, 20.0, 0.5, 0.5, 5.0),
        "B": Link("B", "n1", "n2", 500.0, 12.5, 0.5, 0.15, 5.0),  # 75 veh storage
        "C": Link("C", "n2", "n3", 500.0, 12.5, tail_cap, 0.15, 5.0),
    }
    paths = {"p": Path("p", "od", ("A", "B", "C"))}
    ods = {"od": ODPair("od", "n0", "n3", 300.0, 1190.0, {"p": 0.0})}
    net = Network(links=links, paths=paths, ods=ods)
    errors, _ = net.validate(grid)
    assert not errors, errors
    prof = DepartureProfile.uniform(net, grid, window=(0.0, 600.0))  # 0.5 veh/s
    return net, grid, prof


def test_spillback_jam_full_link_admits_exactly_zero():
    # a dead tail link freezes B's outflow, so B fills to exactly its storage
    net, grid, prof = _spillback_net(tail_cap=1e-18)
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    gap = res.up["B"] - res.down["B"]
    storage = net.links["B"].storage
    full = np.flatnonzero(gap[:-1] == storage)
    assert full.size > 0, "link B never reached jam storage exactly"
    inflow = link_inflow(res, "B")
    assert np.all(inflow[full] == 0.0)
    assert _residual_warned(net, grid, prof), "residual vehicles should be reported"


def test_spillback_blocked_inflow_causal_with_drainage():
    # with a real trickle tail the jam gap settles at storage minus whatever
    # the backward wave releases over its travel time, and inflow never
    # exceeds that release
    net, grid, prof = _spillback_net(tail_cap=0.05)
    res = run_dnl(net, grid, prof)
    assert_dnl_invariants(res)
    lk = net.links["B"]
    gap = res.up["B"] - res.down["B"]
    inflow = link_inflow(res, "B")
    wave_bins = int(round(lk.length / lk.w / grid.dt))
    drained_per_wave = 0.05 * lk.length / lk.w  # tail capacity x wave lag
    assert gap.max() == pytest.approx(lk.storage - drained_per_wave, abs=1.0)
    jammed = np.flatnonzero(gap[:-1] >= gap.max() - 1e-6)
    assert jammed.size > 0
    for k in jammed:
        lo = max(0, k + 1 - wave_bins)
        released = res.down["B"][lo] + lk.storage - res.up["B"][k]
        assert inflow[k] <= max(released, 0.0) + 1e-9


# ---------------------------------------------------------------------------
# junction allocation


def test_junction_merge_is_capacity_proportional():
    # two legs of capacity 2:1 compete for half their joint demand
    theta = solve_dense(
        sending=[10.0, 10.0], receiving=[10.0],
        oriented=[[10.0], [10.0]], weights=[2.0, 1.0])
    flows = [th * 10.0 for th in theta]
    assert flows[0] == pytest.approx(20.0 / 3.0, rel=1e-9)
    assert flows[1] == pytest.approx(10.0 / 3.0, rel=1e-9)


def test_junction_merge_redistributes_unused_share():
    theta = solve_dense(
        sending=[2.0, 10.0], receiving=[10.0],
        oriented=[[2.0], [10.0]], weights=[1.0, 1.0])
    assert theta[0] == pytest.approx(1.0)
    assert theta[1] * 10.0 == pytest.approx(8.0, rel=1e-9)


def test_junction_fifo_diverge_throttles_whole_leg():
    # 40% of the leg heads to a blocked slot: the whole column slows
    theta = solve_dense(
        sending=[10.0], receiving=[2.0, 100.0],
        oriented=[[4.0, 6.0]], weights=[1.0])
    assert theta[0] == pytest.approx(0.5, rel=1e-9)


def test_junction_diverge_frees_merge_capacity():
    # leg 0 throttled by slot 0 releases room for leg 1 in slot 1
    theta = solve_dense(
        sending=[10.0, 10.0], receiving=[1.0, 12.0],
        oriented=[[5.0, 5.0], [0.0, 10.0]], weights=[1.0, 1.0])
    assert theta[0] == pytest.approx(0.2, rel=1e-9)
    # leg 1 takes everything slot 1 leaves available: 12 - 0.2*5 = 11 > 10
    assert theta[1] == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# VMS diversion inside the loader


@pytest.fixture
def fig1_loaded(fig1):
    net, cfg = fig1
    prof = DepartureProfile.uniform(net, cfg.grid, window=(900.0, 1800.0))
    return net, cfg.grid, prof


def test_full_compliance_blocks_discouraged_link_during_omega(fig1_loaded):
    net, grid, prof = fig1_loaded
    res = run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): 1.0})
    assert_dnl_invariants(res)
    inflow2 = link_inflow(res, "2")
    omega = net.signs[0].omega[0]
    active = (grid.edges()[:-1] >= omega[0]) & (grid.edges()[1:] <= omega[1])
    assert np.all(inflow2[active] == 0.0)
    # flow exists outside the active window only if departures do; here the
    # whole window covers the demand, so link 2 stays empty
    assert res.up["2"][-1] == pytest.approx(0.0, abs=1e-9)


def test_compliance_monotonically_fills_recommended_link(fig1_loaded):
    net, grid, prof = fig1_loaded
    totals = []
    for cr in (0.0, 0.25, 0.5, 0.75, 1.0):
        res = run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): cr})
        assert_dnl_invariants(res)
        totals.append(res.up["3"][-1])
    assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))
    assert totals[0] == pytest.approx(120.0, rel=1e-9)  # p3's own third
    assert totals[-1] == pytest.approx(360.0, rel=1e-9)


def test_revised_ratios_reflect_diversion(fig1_loaded):
    net, grid, prof = fig1_loaded
    res = run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): 0.5})
    ratios = res.turning_ratios["b"]["1"]
    mids = grid.mids()
    active = np.any([(s <= mids) & (mids < e) for s, e in net.signs[0].omega], axis=0)
    flowing = link_inflow(res, "2") + link_inflow(res, "3") > 1e-9
    # base split is 2/3 toward link 2; half of it diverts while the sign is on
    sel = active & flowing
    assert np.allclose(ratios["2"][sel], 1.0 / 3.0, atol=1e-9)
    assert np.allclose(ratios["3"][sel], 2.0 / 3.0, atol=1e-9)


def test_outside_omega_the_host_link_loads_as_without_the_sign():
    # uncongested, with the sign on for part of the departures: in the bins
    # outside its active set the host link's flow per (leg, slot) pair is the
    # CR-0 loading's, bit for bit, and in the active bins it is not
    net = fig1_network(demand=120.0, omega=((1200.0, 1500.0),))
    grid = fig1_config().grid
    prof = DepartureProfile.uniform(net, grid, window=(900.0, 1800.0))
    loads = [run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): cr}) for cr in (0.0, 0.5)]
    host = net.loading.leg_of_pair == net.loading.leg_ix["1"]
    off, on = (res.demand[:, host] for res in loads)
    mids = grid.mids()
    active = (1200.0 <= mids) & (mids < 1500.0)
    assert np.array_equal(on[~active], off[~active])
    assert off[~active].any() and not np.array_equal(on[active], off[active])


def test_grid_tables_are_built_once_per_grid_and_load_as_fresh_copies(monkeypatch):
    # one network loaded on two grids in turn, each twice, loads bit for bit as
    # fresh copies of it do, and builds its grid tables once per grid
    build, builds = dnl._grid_tables, []

    def counted(t, grid):
        builds.append((t, grid))
        return build(t, grid)

    monkeypatch.setattr(dnl, "_grid_tables", counted)

    def load(network, grid):
        prof = DepartureProfile.uniform(network, grid, window=(900.0, 1800.0))
        return run_dnl(network, grid, prof, compliance_rates={("od1", "vms1"): 0.5})

    net, grids = fig1_network(), [TimeGrid(0.0, 3600.0, 10.0), TimeGrid(0.0, 3000.0, 5.0)]
    for grid in grids + grids:
        shared, fresh = load(net, grid), load(fig1_network(), grid)
        for leg, pids in fresh.up_by_path.items():
            assert np.array_equal(shared.up[leg], fresh.up[leg])
            assert np.array_equal(shared.down[leg], fresh.down[leg])
            assert all(np.array_equal(shared.up_by_path[leg][p], fresh.up_by_path[leg][p]) for p in pids)
        times = shared.path_times()
        assert all(np.array_equal(times[p], t) for p, t in fresh.path_times().items())
        assert shared.total_arrived == fresh.total_arrived
    assert [grid for t, grid in builds if t is net.loading] == grids


def test_a_link_no_path_uses_has_no_curves_and_changes_no_output(tmp_path):
    # fig1 plus a link c -> a that no path uses: the loading keeps curves for fig1's 8 legs (7 links
    # and the origin queue) only, the new link reads one shared read-only zero curve, every other
    # curve is fig1's bit for bit, and a run writes fig1's per-day tables byte for byte
    net = fig1_network()
    extra = Link("8", "c", "a", 500.0, 12.5, 0.5, 0.15, 5.0)
    wider = Network(dict(net.links, **{"8": extra}), net.paths, net.ods, net.signs)
    grid = fig1_config().grid
    assert wider.validate(grid)[0] == []
    prof = DepartureProfile.uniform(net, grid, window=(900.0, 1800.0))
    alone, res = (run_dnl(n, grid, prof, compliance_rates={("od1", "vms1"): 0.5}) for n in (net, wider))
    assert len(wider.loading.leg_ix) == 8 and "8" not in wider.loading.leg_ix
    assert res.up["8"] is res.down["8"] and not res.up["8"].flags.writeable
    assert np.array_equal(res.up["8"], np.zeros(grid.n_bins + 1))
    for leg in alone.up:
        assert np.array_equal(res.up[leg], alone.up[leg]) and np.array_equal(res.down[leg], alone.down[leg])
    assert np.array_equal(res.demand, alone.demand)
    # the per-bin demand is kept for the bins with flow only
    assert sorted(res.oriented) == np.flatnonzero(res.demand.any(axis=1)).tolist() != list(range(grid.n_bins))

    written = {}
    for name in ("fig1", "wider"):
        files = write_fig1_fixture(tmp_path / name)
        if name == "wider":
            obj = json.loads(files["network"].read_text())
            obj["links"].append(dict(obj["links"][0], id="8", **{"from": "c", "to": "a"}))
            files["network"].write_text(json.dumps(obj))
        flags = [f"--{key}={path}" for key, path in files.items()]
        assert cli_run(["run", *flags, f"--out={tmp_path / name / 'out'}", "--quiet"]) == 0
        written[name] = {table: (tmp_path / name / "out" / table).read_bytes()
                         for table in ("flows.csv", "costs.csv", "days.csv", "compliance.csv")}
    assert written["wider"] == written["fig1"]


def test_bad_compliance_rate_is_a_dnl_error(fig1_loaded):
    net, grid, prof = fig1_loaded
    with pytest.raises(DnlError):
        run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): 1.2})


def test_unknown_sign_pair_is_a_dnl_error(fig1_loaded):
    net, grid, prof = fig1_loaded
    with pytest.raises(DnlError, match=r"\('od1', 'vmsX'\): not an affected \(O-D, sign\) pair"):
        run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): 0.5, ("od1", "vmsX"): 0.5})


def _random_junction(rng, split):
    """2-4 legs (one may be empty) into 2-4 slots; a slot may be a sink or blocked."""
    n_in, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    oriented = []
    for _ in range(n_in):
        fed = rng.choice(n_out, size=int(rng.integers(1, n_out + 1)) if split else 1, replace=False)
        row = [0.0] * n_out
        demand = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.1, 10.0))
        for e, share in zip(fed, rng.dirichlet(np.ones(len(fed)))):
            row[int(e)] = demand * float(share)
        oriented.append(row)
    receiving = [math.inf if u < 0.15 else 0.0 if u < 0.25 else float(rng.uniform(0.0, 15.0))
                 for u in rng.random(n_out)]
    sending = [sum(row) for row in oriented]
    weights = [float(w) for w in rng.uniform(0.2, 2.0, n_in)]
    return sending, receiving, oriented, weights


def _throttled(theta, sending):
    return [i for i, th in enumerate(theta) if th < 1.0 - 1e-9 and sending[i] > 0.0]


def test_junction_properties_on_random_junctions():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        sending, receiving, oriented, weights = _random_junction(rng, split=True)
        theta = solve_dense(sending, receiving, oriented, weights)
        assert all(0.0 <= th <= 1.0 for th in theta)
        slack = [r - sum(th * row[e] for th, row in zip(theta, oriented))
                 for e, r in enumerate(receiving)]
        assert all(s >= -1e-9 for s in slack)
        share = [th * s / w for th, s, w in zip(theta, sending, weights)]
        binding = {}
        for i in _throttled(theta, sending):
            full = [e for e in range(len(receiving)) if oriented[i][e] > 0.0 and slack[e] <= 1e-9]
            # maximality: a throttled leg is held back by a slot with no slack left
            assert full, (sending, receiving, oriented, weights)
            # it takes the largest capacity-proportional share of such a slot
            top = [e for e in full
                   if share[i] >= max(share[k] for k, row in enumerate(oriented) if row[e] > 0.0) - 1e-9]
            assert top, (sending, receiving, oriented, weights)
            for e in top:
                binding.setdefault(e, []).append(share[i])
        for shares in binding.values():
            assert max(shares) - min(shares) <= 1e-9


def test_junction_invariance_to_demand_of_throttled_legs():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(2000):
        sending, receiving, oriented, weights = _random_junction(rng, split=True)
        theta = solve_dense(sending, receiving, oriented, weights)
        held = _throttled(theta, sending)
        if not held:
            continue
        more = [[2.0 * x for x in row] if i in held else row for i, row in enumerate(oriented)]
        theta2 = solve_dense([sum(row) for row in more], receiving, more, weights)
        for i, row in enumerate(more):
            assert theta2[i] * sum(row) == pytest.approx(theta[i] * sending[i], abs=1e-9)
        checked += 1
    assert checked > 1000


def test_junction_matches_slotwise_waterfill_when_legs_do_not_split():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        args = _random_junction(rng, split=False)
        assert solve_dense(*args) == pytest.approx(slotwise_waterfill(*args), abs=1e-12)


def _junction_union(parts, leg_node, slot_node):
    """The parts' legs and slots in one call, at the positions their labels take."""
    sending, receiving = np.zeros(len(leg_node)), np.zeros(len(slot_node))
    oriented, weights = np.zeros((len(leg_node), len(slot_node))), np.zeros(len(leg_node))
    for j, (s, r, o, w) in enumerate(parts):
        li, si = np.flatnonzero(leg_node == j), np.flatnonzero(slot_node == j)
        sending[li], receiving[si], weights[li] = s, r, w
        oriented[np.ix_(li, si)] = o
    return sending, receiving, oriented, weights


def test_junction_union_solves_each_junction_on_its_own():
    # the loader passes every junction of a bin in one call, each leg and slot
    # labelled with its junction: a block-diagonal union must give each
    # junction its own flows, exactly, and those of the finite rounds run over
    # the whole junction to rounding
    rng = np.random.default_rng(17)
    throttled = 0
    for _ in range(1000):
        parts = [_random_junction(rng, split=True) for _ in range(int(rng.integers(2, 5)))]
        leg_node = np.repeat(np.arange(len(parts)), [len(p[0]) for p in parts])
        slot_node = np.repeat(np.arange(len(parts)), [len(p[1]) for p in parts])
        sending, receiving, oriented, weights = _junction_union(parts, leg_node, slot_node)
        theta = solve_dense(sending, receiving, oriented, weights, leg_node, slot_node)
        assert list(theta) == list(np.concatenate([solve_dense(*p) for p in parts]))
        rounds = np.concatenate([_finite_rounds(*p) for p in parts])
        np.testing.assert_allclose(theta, rounds, rtol=0.0, atol=1e-12)
        throttled += bool(np.any(theta < 1.0))
    assert throttled > 500


def test_junction_labels_not_contiguity_define_a_junction():
    # two junctions whose legs and slots interleave in index order, as a node's
    # in-links and origin queues do in the loader
    rng = np.random.default_rng(19)
    throttled = 0
    for _ in range(1000):
        parts = [_random_junction(rng, split=True) for _ in range(2)]
        leg_node = rng.permutation(np.repeat([0, 1], [len(parts[0][0]), len(parts[1][0])]))
        slot_node = rng.permutation(np.repeat([0, 1], [len(parts[0][1]), len(parts[1][1])]))
        sending, receiving, oriented, weights = _junction_union(parts, leg_node, slot_node)
        theta = solve_dense(sending, receiving, oriented, weights, leg_node, slot_node)
        for j, part in enumerate(parts):
            assert list(theta[leg_node == j]) == list(solve_dense(*part))
        throttled += bool(np.any(theta < 1.0))
    assert throttled > 500


# ---------------------------------------------------------------------------
# partial traversal


def test_partial_from_origin_equals_full_time_under_free_flow():
    grid = TimeGrid(0.0, 600.0, 1.0)
    net, prof = make_corridor(
        [{"length": 1000.0, "vf": 20.0, "cap": 0.5, "kjam": 0.2, "w": 5.0},
         {"length": 600.0, "vf": 20.0, "cap": 0.5, "kjam": 0.2, "w": 5.0}],
        grid, demand=30.0, window=(0.0, 300.0))
    res = run_dnl(net, grid, prof)
    t = 120.0
    assert res.partial_traversal_time("n0", ["p"], [t])["p"] == pytest.approx(
        compose_exit(res, path_legs(net, "p"), t) - t, abs=1e-9)
    assert res.partial_traversal_time("n1", ["p"], [t])["p"] == pytest.approx(30.0, abs=1e-9)


def test_partial_traversal_matches_explicit_composition(fig1_loaded):
    net, grid, prof = fig1_loaded
    res = run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): 0.5})
    t = np.linspace(600.0, 2400.0, 7)
    explicit = compose_exit(res, ("3", "6", "7"), t) - t
    assert np.allclose(res.partial_traversal_time("b", ["p3"], t)["p3"], explicit, atol=1e-12)


def test_partial_requires_node_on_path(fig1_loaded):
    net, grid, prof = fig1_loaded
    res = run_dnl(net, grid, prof)
    with pytest.raises(ValueError):
        res.partial_traversal_time("c", ["p3"], [100.0])
