import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from vmsdta.compliance import initial_state
from vmsdta.daytoday import (
    DayRecord,
    DayState,
    DayToDayError,
    PenaltyFunction,
    SolverConfig,
    advance,
    br_cost,
    min_od_cost,
    relative_gap,
    run_day_to_day,
    solve_eta,
    travel_cost,
    update_departures,
)
from vmsdta.network import DepartureProfile, Link, Network, ODPair, Path, TimeGrid
from vmsdta.scenario import build_profile, fig1_config, fig1_network

from .conftest import make_corridor
from .oracles import qp_projection


# ---------------------------------------------------------------------------
# costs


def test_penalty_shape():
    f = PenaltyFunction(early=0.5, late=1.5)
    assert f(0.0) == 0.0
    assert f(-10.0) == pytest.approx(5.0)
    assert f(10.0) == pytest.approx(15.0)
    with pytest.raises(ValueError):
        PenaltyFunction(early=-1.0)


def test_travel_cost_examples():
    zero = PenaltyFunction(0.0, 0.0)
    assert travel_cost(50.0, 100.0, 120.0, zero) == pytest.approx(50.0)
    f = PenaltyFunction(0.5, 1.5)
    # on-time arrival carries no penalty
    assert travel_cost(50.0, 950.0, 1000.0, f) == pytest.approx(50.0)
    # departing at T_A with b = 0.5 late weight: 50 + 0.5 * 50
    assert travel_cost(50.0, 1000.0, 1000.0, PenaltyFunction(0.0, 0.5)) == pytest.approx(75.0)


def test_min_od_cost_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    psi = rng.uniform(10.0, 500.0, size=(4, 17))
    rows = [0, 2, 3]
    expected = min(psi[i, k] for i in rows for k in range(psi.shape[1]))
    assert min_od_cost(psi, rows) == pytest.approx(expected)
    assert min_od_cost(np.full((1, 5), 42.0), [0]) == 42.0


def test_br_cost_examples():
    # best path still carries the uniform band
    assert br_cost(100.0, 100.0, 30.0, 30.0) == pytest.approx(130.0)
    # zero tolerance collapses to the raw cost
    assert br_cost(130.0, 100.0, 0.0, 0.0) == pytest.approx(130.0)
    # costs beyond the band pass through
    assert br_cost(160.0, 100.0, 30.0, 30.0) == pytest.approx(160.0)
    # path-specific tolerance: the relative band term shifts the output
    assert br_cost(100.0, 100.0, 50.0, 30.0) == pytest.approx(150.0 - 20.0)
    with pytest.raises(ValueError):
        br_cost(1.0, 1.0, 10.0, 20.0)


# ---------------------------------------------------------------------------
# the dual search


def test_eta_one_path_one_bin():
    sol = solve_eta(np.array([2.0]), np.array([100.0]), 0.01, demand=2.0, dt=1.0)
    assert sol.eta == pytest.approx(1.0, abs=1e-7)


def test_eta_zero_when_consistent():
    h = np.array([1.0, 2.0, 1.0])
    sol = solve_eta(h, np.zeros(3), 0.5, demand=float(h.sum()), dt=1.0)
    assert sol.eta == pytest.approx(0.0, abs=1e-7)


def test_eta_piecewise_linear_case():
    # {h - lam*phi} = {3, -1}: max(3+eta,0) + max(-1+eta,0) = 4 at eta = 1
    sol = solve_eta(np.array([3.0, -1.0]), np.zeros(2), 1.0, demand=4.0, dt=1.0)
    assert sol.eta == pytest.approx(1.0, abs=1e-7)


def test_eta_zero_demand_sentinel():
    assert solve_eta(np.array([1.0]), np.array([1.0]), 0.1, demand=0.0, dt=1.0) is None


def test_eta_matches_projection_oracle():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 17))
        h = rng.uniform(0, 3, n)
        phi = rng.uniform(0, 800, n)
        lam = 10 ** rng.uniform(-4, -1)
        dt = float(rng.uniform(0.5, 30))
        demand = float(rng.uniform(0.1, 50))
        sol = solve_eta(h, phi, lam, demand, dt)
        x = np.maximum(h - lam * phi + sol.eta, 0.0)
        assert np.max(np.abs(x - qp_projection(h - lam * phi, dt, demand))) < 1e-9
        assert sol.iterations == np.count_nonzero(x)
        # conservation is exact up to rounding
        assert abs(x.sum() * dt - demand) <= 1e-12 * demand


# ---------------------------------------------------------------------------
# projected update


def _toy_net(n_paths=2, n_bins=6, demand=10.0, dt=5.0):
    grid = TimeGrid(0.0, n_bins * dt, dt)
    links = {}
    paths = {}
    tol = {}
    for i in range(n_paths):
        lid = f"L{i}"
        links[lid] = Link(lid, "o", "d", 600.0, 12.0, 0.5, 0.3, 5.0)
        paths[f"p{i}"] = Path(f"p{i}", "od", (lid,))
        tol[f"p{i}"] = 0.0
    ods = {"od": ODPair("od", "o", "d", demand, grid.tf - dt, tol)}
    net = Network(links=links, paths=paths, ods=ods)
    return net, grid


def test_update_identity_for_uniform_phi():
    net, grid = _toy_net()
    prof = DepartureProfile.uniform(net, grid, window=(0.0, grid.tf))
    phi = np.full_like(prof.rates, 250.0)
    nxt, etas = update_departures(prof, phi, 0.01, net)
    assert np.allclose(nxt.rates, prof.rates, atol=1e-8)
    assert etas["od"] == pytest.approx(0.01 * 250.0, abs=1e-6)


def test_update_near_identity_for_tiny_step():
    net, grid = _toy_net()
    prof = DepartureProfile.uniform(net, grid, window=(0.0, grid.tf))
    rng = np.random.default_rng(3)
    phi = rng.uniform(50, 500, prof.rates.shape)
    nxt, _ = update_departures(prof, phi, 1e-12, net)
    assert np.allclose(nxt.rates, prof.rates, atol=1e-8)


def test_update_matches_projection_oracle():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n_paths = int(rng.integers(1, 3))
        n_bins = int(rng.integers(2, 7))
        if n_paths * n_bins > 12:
            continue
        dt = float(rng.uniform(1.0, 10.0))
        demand = float(rng.uniform(1.0, 30.0))
        net, grid = _toy_net(n_paths, n_bins, demand, dt)
        prof = DepartureProfile.uniform(net, grid, window=(0.0, grid.tf))
        lam = 10 ** rng.uniform(-3, -1)
        phi = rng.uniform(0.0, 400.0, prof.rates.shape)
        nxt, _ = update_departures(prof, phi, lam, net)
        v = prof.rates - lam * phi
        expected = qp_projection(v.ravel(), dt, demand).reshape(v.shape)
        assert np.max(np.abs(nxt.rates - expected)) < 1e-6
        # feasibility: exact nonnegativity, demand to rounding
        assert np.all(nxt.rates >= 0.0)
        assert nxt.od_totals(net)["od"] == pytest.approx(demand, rel=1e-12)


def test_update_zero_demand_clears_rates():
    net, grid = _toy_net(demand=0.0)
    prof = DepartureProfile.zeros(net, grid)
    prof.rates += 0.0
    nxt, etas = update_departures(prof, np.ones_like(prof.rates), 0.1, net)
    assert etas["od"] is None
    assert np.all(nxt.rates == 0.0)


def test_profile_in_another_path_order_is_rejected(fig1):
    # phi's rows follow network.path_ids; a profile in another order would
    # take other paths' costs, in the update and in the day's total cost
    net, cfg = fig1
    prof = build_profile(net, cfg)
    order = [prof.index(pid) for pid in ("p3", "p2", "p1")]
    shuffled = DepartureProfile(cfg.grid, ("p3", "p2", "p1"), prof.rates[order])
    phi = np.zeros_like(prof.rates)
    phi[net.path_ids.index("p1")] = 1000.0
    with pytest.raises(ValueError, match=r"\('p3', 'p2', 'p1'\).*\('p1', 'p2', 'p3'\)"):
        update_departures(shuffled, phi, cfg.solver.step_size, net)
    with pytest.raises(DayToDayError, match=r"^day 1: dual solve: profile path order"):
        run_day_to_day(net, cfg.grid, shuffled, cfg.compliance, cfg.penalty, cfg.solver)


# ---------------------------------------------------------------------------
# relative gap


def test_relative_gap_examples():
    net, grid = _toy_net()
    a = DepartureProfile.uniform(net, grid, window=(0.0, grid.tf))
    assert relative_gap(a, a) == 0.0
    b = a.copy()
    b.rates *= 2.0
    assert relative_gap(b, a) == pytest.approx(1.0)  # ||2h - h|| / ||h||
    c = a.copy()
    c.rates[0, 0] += 0.25
    expected = math.sqrt(0.25 ** 2 * grid.dt) / math.sqrt(float((a.rates ** 2).sum()) * grid.dt)
    assert relative_gap(c, a) == pytest.approx(expected, rel=1e-12)


def test_relative_gap_zero_reference_is_nan():
    net, grid = _toy_net(demand=0.0)
    empty = DepartureProfile.zeros(net, grid)
    bumped = empty.copy()
    bumped.rates[0, 0] = 1.0
    assert math.isnan(relative_gap(bumped, empty))
    assert relative_gap(empty, empty) == 0.0  # identical profiles, even empty ones


def test_relative_gap_homogeneous_in_perturbation():
    net, grid = _toy_net()
    base = DepartureProfile.uniform(net, grid, window=(0.0, grid.tf))
    delta = np.zeros_like(base.rates)
    delta[0, 1] = 0.1
    gaps = []
    for s in (1.0, 2.0, 4.0):
        pert = base.copy()
        pert.rates = base.rates + s * delta
        gaps.append(relative_gap(pert, base))
    assert gaps[1] == pytest.approx(2 * gaps[0], rel=1e-12)
    assert gaps[2] == pytest.approx(4 * gaps[0], rel=1e-12)


# ---------------------------------------------------------------------------
# the day loop


def test_zero_demand_run_converges_immediately():
    net = fig1_network(demand=0.0)
    cfg = fig1_config()
    prof = DepartureProfile.zeros(net, cfg.grid)
    res = run_day_to_day(net, cfg.grid, prof, cfg.compliance, cfg.penalty, cfg.solver)
    assert res.converged
    assert len(res.days) == 2
    assert res.days[1].gap == 0.0


def test_single_path_od_keeps_profile_and_compliance_idle():
    # one O-D, one path: no diversion partition exists, zero arrival penalty
    # and free flow make the cost uniform, so the update is the identity up to
    # rounding (the interpolated free-flow costs differ across bins by ~1e-13 s)
    grid = TimeGrid(0.0, 1200.0, 10.0)
    net, prof = make_corridor(
        [{"length": 1000.0, "vf": 20.0, "cap": 0.5, "kjam": 0.2, "w": 5.0}],
        grid, demand=30.0, window=(0.0, grid.tf))
    solver = SolverConfig(step_size=1e-4, max_days=3, gap_tolerance=1e-15)
    whole = []  # the kept records have no profile but the last
    res = run_day_to_day(net, grid, prof, fig1_config().compliance,
                         PenaltyFunction(0.0, 0.0), solver, on_day=whole.append)
    assert res.converged and len(res.days) == len(whole) == 2
    for rec in whole:
        assert np.allclose(rec.profile.rates, prof.rates, rtol=0.0, atol=1e-15)
        assert rec.cr_used == {}  # no affected pair, compliance skipped
    assert res.days[1].gap < 1e-15


def test_feasibility_preserved_across_days(fig1):
    net, cfg = fig1
    prof = build_profile(net, cfg)
    whole = []
    res = run_day_to_day(net, cfg.grid, prof, cfg.compliance, cfg.penalty, cfg.solver,
                         on_day=whole.append)
    assert res.converged and len(res.days) == len(whole) == 83
    for rec in whole:
        assert np.all(rec.profile.rates >= 0.0)
        assert rec.profile.od_totals(net)["od1"] == pytest.approx(360.0, rel=1e-12)
        for (od, sign), cr in rec.cr_used.items():
            assert 0.0 < cr < 1.0


def test_br_equilibrium_is_a_fixed_point():
    # two identical parallel links, flat demand below capacity: all used bins
    # share the same cost, so with a uniform band the update changes nothing
    net, grid = _toy_net(n_paths=2, n_bins=6, demand=12.0, dt=5.0)
    tol = {pid: 60.0 for pid in net.paths}
    net = Network(net.links, net.paths, {"od": ODPair("od", "o", "d", 12.0, grid.tf - grid.dt, tol)})
    prof = DepartureProfile.uniform(net, grid, window=(0.0, grid.tf))
    solver = SolverConfig(step_size=1e-3, max_days=4, gap_tolerance=1e-15)
    res = run_day_to_day(net, grid, prof, fig1_config().compliance,
                         PenaltyFunction(0.0, 0.0), solver)
    assert np.allclose(res.final_state.profile.rates, prof.rates, atol=1e-10)


def test_thirty_day_smoke_cr_rises_with_positive_saving(fig1):
    net, cfg = fig1
    prof = build_profile(net, cfg)
    solver = SolverConfig(step_size=cfg.solver.step_size, max_days=30, gap_tolerance=1e-12)
    res = run_day_to_day(net, cfg.grid, prof, cfg.compliance, cfg.penalty, solver)
    crs = [rec.cr_used[("od1", "vms1")] for rec in res.days]
    assert crs[0] == 0.5
    assert crs[-1] > 0.55  # positive savings pull compliance above neutral
    # per-day totals and the record structure
    for rec in res.days:
        assert rec.total_cost > 0.0
        assert set(rec.min_cost) == {"od1"}
        assert rec.eta["od1"] is not None


def test_dnl_failure_aborts_with_day_index(fig1, monkeypatch):
    from vmsdta import daytoday
    from vmsdta.daytoday import DayToDayError
    from vmsdta.dnl import DnlError

    def fail(*args, **kwargs):
        raise DnlError("loading failed")

    net, cfg = fig1
    prof = build_profile(net, cfg)
    monkeypatch.setattr(daytoday, "run_dnl", fail)
    solver = SolverConfig(step_size=2e-4, max_days=5)
    with pytest.raises(DayToDayError) as err:
        run_day_to_day(net, cfg.grid, prof, cfg.compliance, cfg.penalty, solver)
    assert str(err.value).startswith("day 1:")


def test_one_loading_is_alive_at_a_time(fig1, monkeypatch):
    # day d's loading is gone when day d+1's is built; the run keeps the last one
    from vmsdta import daytoday, dnl

    loadings, dead_on_entry = [], []

    def run_dnl(*args, **kwargs):
        dead_on_entry.append([ref() is None for ref in loadings])
        result = dnl.run_dnl(*args, **kwargs)
        loadings.append(weakref.ref(result))
        return result

    net, cfg = fig1
    monkeypatch.setattr(daytoday, "run_dnl", run_dnl)
    solver = replace(cfg.solver, max_days=5, gap_tolerance=1e-15)
    res = run_day_to_day(net, cfg.grid, build_profile(net, cfg), cfg.compliance, cfg.penalty, solver)
    assert dead_on_entry == [[True] * day for day in range(5)]
    assert loadings[-1]() is res.final_dnl is not None


@pytest.mark.parametrize("name, stage", [
    ("run_dnl", "loading"),
    ("cost_table", "cost table"),
    ("phi_table", "BR cost"),
    ("update_departures", "dual solve"),
    ("step_compliance", "compliance step"),
])
def test_day_loop_failure_names_day_and_stage(fig1, monkeypatch, name, stage):
    from vmsdta import daytoday

    real = getattr(daytoday, name)
    calls = []

    def fail_on_day_2(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:  # fig1 calls each stage once a day (one O-D, one sign)
            raise ValueError("broken")
        return real(*args, **kwargs)

    net, cfg = fig1
    monkeypatch.setattr(daytoday, name, fail_on_day_2)
    solver = SolverConfig(step_size=2e-4, max_days=5)
    with pytest.raises(DayToDayError) as err:
        run_day_to_day(net, cfg.grid, build_profile(net, cfg), cfg.compliance, cfg.penalty, solver)
    assert str(err.value) == f"day 2: {stage}: broken"


def test_day_records_report_gap_series(fig1):
    net, cfg = fig1
    prof = build_profile(net, cfg)
    solver = SolverConfig(step_size=2e-4, max_days=10, gap_tolerance=1e-12)
    res = run_day_to_day(net, cfg.grid, prof, cfg.compliance, cfg.penalty, solver)
    assert math.isnan(res.days[0].gap)
    assert all(rec.gap >= 0.0 for rec in res.days[1:])


def test_on_day_gets_whole_records_and_the_run_keeps_them_without_cost_tables(fig1):
    # ... and without profiles
    net, cfg = fig1
    seen = []
    solver = SolverConfig(step_size=2e-4, max_days=4, gap_tolerance=1e-12)
    res = run_day_to_day(net, cfg.grid, build_profile(net, cfg), cfg.compliance, cfg.penalty, solver,
                         on_day=seen.append)
    assert [rec.day for rec in seen] == [rec.day for rec in res.days] == [1, 2, 3, 4]
    for whole, kept in zip(seen, res.days):
        assert whole.psi.shape == whole.phi.shape == (len(net.path_ids), cfg.grid.n_bins)
        assert kept.profile is None and kept.psi is None and kept.phi is None
        _assert_same_record(kept, replace(whole, profile=None, psi=None, phi=None))


# ---------------------------------------------------------------------------
# one day as a step


def _assert_same_record(a, b):
    for f in fields(DayRecord):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "profile":
            x, y = getattr(x, "rates", x), getattr(y, "rates", y)
        if isinstance(x, np.ndarray) or f.name == "gap":
            assert np.array_equal(x, y, equal_nan=True), f.name
        else:
            assert x == y, f.name


def test_a_day_leaves_its_input_profile_unchanged(fig1):
    net, cfg = fig1
    prof = build_profile(net, cfg)
    before = prof.rates.copy()
    nxt, _ = update_departures(prof, np.ones_like(prof.rates), cfg.solver.step_size, net)
    assert nxt is not prof and np.array_equal(prof.rates, before)

    state = DayState(prof, {ctx.key: initial_state(cfg.compliance, ctx, net)
                            for ctx in list(net.pairs.values())})
    one = advance(state, net, cfg.grid, cfg.compliance, cfg.penalty, cfg.solver)
    assert np.array_equal(prof.rates, before)
    assert one[1].profile is prof  # the record keeps the profile it loaded, not a copy
    two = advance(state, net, cfg.grid, cfg.compliance, cfg.penalty, cfg.solver)
    _assert_same_record(one[1], two[1])
    assert one[0].perception == two[0].perception
    assert np.array_equal(one[0].profile.rates, two[0].profile.rates)
    assert np.array_equal(prof.rates, before)


def test_a_day_with_an_unknown_sign_pair_fails_in_loading(fig1):
    net, cfg = fig1
    (ctx,) = list(net.pairs.values())
    state = initial_state(cfg.compliance, ctx, net)
    day = DayState(build_profile(net, cfg), {ctx.key: state, ("od1", "vmsX"): state})
    with pytest.raises(DayToDayError, match=r"^day 1: loading: .*\('od1', 'vmsX'\)"):
        advance(day, net, cfg.grid, cfg.compliance, cfg.penalty, cfg.solver)


@pytest.mark.parametrize("params", [
    {"model": "I"},
    {"model": "II"},
    {"model": "III", "gamma": 30.0},
    {"model": "IV", "beta_iv": 1e-4},
], ids=lambda params: params["model"])
def test_a_run_continued_with_advance_matches_a_straight_run(fig1, params):
    net, cfg = fig1
    compliance = replace(cfg.compliance, **params)
    solver = replace(cfg.solver, max_days=20, gap_tolerance=1e-15)

    def run(max_days, on_day=None):
        return run_day_to_day(net, cfg.grid, build_profile(net, cfg), compliance, cfg.penalty,
                              replace(solver, max_days=max_days), on_day=on_day)

    whole = []  # the straight run's records with their cost tables
    straight, first = run(20, whole.append), run(10)
    assert len(straight.days) == 20 and len(first.days) == 10 and not first.converged
    state = first.final_state
    for want in whole[10:]:
        state, rec, _ = advance(state, net, cfg.grid, compliance, cfg.penalty, solver)
        _assert_same_record(rec, want)
    end = straight.final_state
    assert np.array_equal(state.profile.rates, end.profile.rates)
    assert state.perception == end.perception
    assert (state.day, state.gap, state.drift) == (end.day, end.gap, end.drift) and end.day == 21


@pytest.mark.parametrize("model", ["I", "II", "III", "IV"])
def test_one_more_day_from_a_converged_run_moves_neither_profile_nor_compliance(fig1, model):
    # the joint fixed-point test: the day after a converged fig1 run is converged too
    net, cfg = fig1
    compliance = replace(cfg.compliance, model=model)
    res = run_day_to_day(net, cfg.grid, build_profile(net, cfg), compliance, cfg.penalty, cfg.solver)
    assert res.converged and res.final_state.day == len(res.days) + 1
    nxt, rec, _ = advance(res.final_state, net, cfg.grid, compliance, cfg.penalty, cfg.solver)
    tol = cfg.solver.gap_tolerance
    assert rec.converged and rec.day == len(res.days) + 1 and nxt.day == rec.day + 1
    assert nxt.gap < tol and nxt.drift < tol, (nxt.gap, nxt.drift)


def test_fig1_final_cost_and_cr_hold_at_finer_time_steps():
    # the LTM converges as dt shrinks (Yperman 2007): fig1's final cost at dt 10, 5 and
    # 2.5 s is 132,271.7, 132,238.6 and 132,256.1, and its final CR 0.5979 at each
    net, finals = fig1_network(), []
    for dt in (10.0, 5.0, 2.5):
        cfg = fig1_config(grid={"t0": 0.0, "tf": 3600.0, "dt": dt})
        res = run_day_to_day(net, cfg.grid, build_profile(net, cfg), cfg.compliance, cfg.penalty, cfg.solver)
        assert res.converged, dt
        finals.append((res.days[-1].total_cost, res.days[-1].cr_used[("od1", "vms1")]))
    costs, crs = zip(*finals)
    assert max(costs) - min(costs) <= 5e-4 * min(costs), finals
    assert max(crs) - min(crs) <= 1e-3, finals
