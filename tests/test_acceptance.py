"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from dataclasses import replace

import numpy as np

from vmsdta.compliance import (
    ComplianceParams,
    compliance_logit,
    initial_state,
    step_compliance,
)
from vmsdta.daytoday import run_day_to_day, update_departures
from vmsdta.dnl import revise_turning_ratios, run_dnl
from vmsdta.network import (
    DepartureProfile,
    Link,
    Network,
    ODPair,
    Path,
    TimeGrid,
    omega_bin_overlap,
)
from vmsdta.scenario import build_profile, fig1_config, fig1_network

from .conftest import assert_dnl_invariants, link_inflow, make_corridor
from .oracles import compose_exit, point_queue_corridor, qp_projection


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_turning_ratio_algebra():
    omega = ((100.0, 400.0), (500.0, 800.0))
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        a_from = float(rng.random())
        a_to = 1.0 - a_from
        cr = float(rng.random())
        t = float(rng.uniform(0.0, 1000.0))
        rf, rt = revise_turning_ratios(a_from, a_to, cr, t, omega)
        ok &= 0.0 <= rf <= 1.0 and 0.0 <= rt <= 1.0
        ok &= (rf + rt) == (a_from + a_to) == 1.0
        # identity cases, bit for bit
        ok &= revise_turning_ratios(a_from, a_to, 0.0, t, omega) == (a_from, a_to)
        rf1, rt1 = revise_turning_ratios(a_from, a_to, 1.0, t, omega)
        if any(s <= t < e for s, e in omega):
            ok &= rf1 == 0.0 and rt1 == 1.0
        else:
            ok &= (rf1, rt1) == (a_from, a_to)
    elapsed = time.perf_counter() - start
    _report(1, "revised ratios stay in [0,1], sum to 1 exactly, identities bit-for-bit",
            ok and elapsed < 1.0, f"{elapsed:.2f}s for 1000 triples")


def test_criterion_2_dnl_point_queue_oracle():
    rng = np.random.default_rng(7)
    grid = TimeGrid(0.0, 1500.0, 1.0)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        n_links = int(rng.integers(1, 4))
        specs = []
        for _ in range(n_links):
            vf = float(rng.choice([10.0, 20.0, 25.0]))
            secs = int(rng.integers(10, 41))
            specs.append({"length": vf * secs, "vf": vf,
                          "cap": float(rng.uniform(0.2, 0.5)),
                          "kjam": 0.5, "w": 5.0})
        cap_min = min(sp["cap"] for sp in specs)
        net, prof = make_corridor(specs, grid, demand=1.0, window=(0.0, 300.0))
        rates = rng.uniform(0.0, 2.0 * cap_min, grid.n_bins) * (grid.mids() < 300.0)
        prof.rates[0] = rates
        net.ods["od"] = ODPair("od", net.ods["od"].origin, net.ods["od"].destination,
                               float(rates.sum() * grid.dt), grid.tf - grid.dt, {"p": 0.0})
        res = run_dnl(net, grid, prof)
        assert_dnl_invariants(res)
        assert res.total_residual < 1e-9, "corridor did not drain inside the horizon"
        link_objs = [net.links[a] for a in net.paths["p"].links]
        _, oracle = point_queue_corridor(link_objs, prof.rates[0], grid)
        mids = grid.mids()[:300]
        err = float(np.max(np.abs(res.path_times()["p"][:300] - oracle(mids))))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _report(2, "corridor travel times match the point-queue oracle within one bin",
            worst <= grid.dt and elapsed < 10.0,
            f"worst |err| = {worst:.3f}s <= dt = {grid.dt}s, {elapsed:.1f}s")


def test_criterion_3_conservation_fifo_spillback():
    runs = 0
    # congested fig1 at several compliance levels
    net = fig1_network()
    grid = fig1_config().grid
    prof = DepartureProfile.uniform(net, grid, window=(600.0, 1200.0))
    for cr in (0.0, 0.3, 0.7, 1.0):
        res = run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): cr})
        assert_dnl_invariants(res, conservation_tol=1e-9)
        runs += 1
    # a jam-full link must admit exactly zero while blocked
    grid2 = TimeGrid(0.0, 1200.0, 10.0)
    links = {
        "A": Link("A", "n0", "n1", 1000.0, 20.0, 0.5, 0.5, 5.0),
        "B": Link("B", "n1", "n2", 500.0, 12.5, 0.5, 0.15, 5.0),
        "C": Link("C", "n2", "n3", 500.0, 12.5, 1e-18, 0.15, 5.0),
    }
    paths = {"p": Path("p", "od", ("A", "B", "C"))}
    ods = {"od": ODPair("od", "n0", "n3", 300.0, 1190.0, {"p": 0.0})}
    net2 = Network(links=links, paths=paths, ods=ods)
    prof2 = DepartureProfile.uniform(net2, grid2, window=(0.0, 600.0))
    res2 = run_dnl(net2, grid2, prof2)
    assert_dnl_invariants(res2, conservation_tol=1e-9)
    runs += 1
    gap = res2.up["B"] - res2.down["B"]
    blocked = np.flatnonzero(gap[:-1] == net2.links["B"].storage)
    inflow = link_inflow(res2, "B")
    ok = blocked.size > 0 and bool(np.all(inflow[blocked] == 0.0))
    _report(3, "conservation to 1e-9, strict FIFO, jam-full link admits zero inflow",
            ok, f"{runs} loadings checked, {blocked.size} fully blocked bins")


def test_criterion_4_projection_feasibility_and_qp_oracle():
    rng = np.random.default_rng(2718)
    checked_oracle = 0
    ok = True
    for trial in range(100):
        n_paths = int(rng.integers(1, 4))
        n_bins = int(rng.integers(2, 9))
        dt = float(rng.uniform(1.0, 20.0))
        demand = float(rng.uniform(0.5, 40.0))
        grid = TimeGrid(0.0, n_bins * dt, dt)
        links, paths, tol = {}, {}, {}
        for i in range(n_paths):
            lid = f"L{i}"
            links[lid] = Link(lid, "o", "d", 400.0, 10.0, 0.5, 0.5, 5.0)
            paths[f"p{i}"] = Path(f"p{i}", "od", (lid,))
            tol[f"p{i}"] = float(rng.uniform(0.0, 50.0))
        net = Network(links=links, paths=paths,
                      ods={"od": ODPair("od", "o", "d", demand, grid.tf - dt, tol)})
        prof = DepartureProfile(grid, tuple(paths), rng.uniform(0.0, 2.0, (n_paths, n_bins)))
        lam = 10 ** rng.uniform(-3, -1)
        phi = rng.uniform(0.0, 500.0, prof.rates.shape)
        nxt, _ = update_departures(prof, phi, lam, net)
        ok &= bool(np.all(nxt.rates >= 0.0))
        ok &= abs(nxt.od_totals(net)["od"] - demand) <= 1e-12 * demand
        if n_paths * n_bins <= 12:
            v = (prof.rates - lam * phi).ravel()
            expected = qp_projection(v, dt, demand).reshape(prof.rates.shape)
            ok &= float(np.max(np.abs(nxt.rates - expected))) < 1e-6
            checked_oracle += 1
    _report(4, "projection keeps rates feasible and matches the exhaustive QP oracle",
            ok, f"100 fixtures, {checked_oracle} oracle comparisons")


def test_criterion_5_compliance_identities():
    net = fig1_network()
    cfg = fig1_config()
    prof = build_profile(net, cfg)
    solver = replace(cfg.solver, max_days=50, gap_tolerance=1e-15)
    runs = {}
    for model, gamma in (("I", 0.0), ("III", 0.0)):
        params = replace(cfg.compliance, model=model, gamma=gamma)
        runs[model] = run_day_to_day(net, cfg.grid, prof.copy(), params, cfg.penalty, solver)
    ok = len(runs["I"].days) == len(runs["III"].days) == 50
    for rec1, rec3 in zip(runs["I"].days, runs["III"].days):
        ok &= rec1.cr_used == rec3.cr_used  # exact, not approximate
        ok &= np.array_equal(rec1.profile.rates, rec3.profile.rates)
    for res in runs.values():
        for rec in res.days:
            ok &= all(0.0 < cr < 1.0 for cr in rec.cr_used.values())
    ok &= compliance_logit(0.0, 0.01) == 0.5

    # three-day hand-computed smoothing/logit trace against the engine's step
    light = fig1_network(demand=30.0)
    res = run_dnl(light, cfg.grid, DepartureProfile.uniform(light, cfg.grid, (900.0, 1800.0)),
                  compliance_rates={("od1", "vms1"): 0.5})
    ctx = list(light.pairs.values())[0]
    params = ComplianceParams(model="I", w=0.3, beta=0.01, x0=0.0)
    mids = cfg.grid.mids()
    weights = omega_bin_overlap(cfg.grid, ctx.sign.omega)
    partial = {p: compose_exit(res, light.tail_links(p, "b"), mids) - mids
               for p in ("p1", "p2", "p3")}
    s_bar = float(np.dot(0.5 * (partial["p1"] + partial["p2"]) - partial["p3"], weights)
                  / weights.sum())
    state = initial_state(params, ctx, light)
    x_hand = 0.0
    max_err = 0.0
    for _day in range(3):
        state, trace = step_compliance(state, params, res, ctx, cfg.grid)
        x_hand = (1 - 0.3) * x_hand + 0.3 * s_bar
        cr_hand = math.exp(0.01 * x_hand) / (math.exp(-0.01 * x_hand) + math.exp(0.01 * x_hand))
        max_err = max(max_err, abs(state.x - x_hand), abs(state.cr - cr_hand))
    ok &= max_err <= 1e-9
    _report(5, "Model III(gamma=0) == Model I exactly; CR in (0,1); logit(0)=0.5; "
               "hand trace to 1e-9", ok, f"hand-trace err {max_err:.1e}")


def test_criterion_6_model1_qualitative_shape():
    net = fig1_network()
    cfg = fig1_config()
    solver = replace(cfg.solver, max_days=200, gap_tolerance=1e-15)  # force 200 days
    start = time.perf_counter()
    res = run_day_to_day(net, cfg.grid, build_profile(net, cfg),
                         cfg.compliance, cfg.penalty, solver)
    elapsed = time.perf_counter() - start
    crs = [rec.cr_used[("od1", "vms1")] for rec in res.days]
    shares = [rec.compliance_trace[0]["fset_share"] for rec in res.days]
    savings = [rec.compliance_trace[0]["s_bar"] for rec in res.days]
    stable = max(abs(b - a) for a, b in zip(crs[-21:-1], crs[-20:])) < 1e-3
    congested_original = all(s > 0 for s in savings)  # not-follow corridor is slower
    share_up = shares[-1] >= shares[0] - 1e-12
    ok = len(res.days) == 200 and stable and congested_original and share_up
    ok &= elapsed < 120.0
    _report(6, "200-day Model I: CR stabilizes and the recommended route's share rises",
            ok, f"CR {crs[0]:.3f}->{crs[-1]:.3f}, share {shares[0]:.3f}->{shares[-1]:.3f}, "
                f"{elapsed:.0f}s")


def test_criterion_7_model3_convergence():
    net = fig1_network()
    cfg = fig1_config()
    params = replace(cfg.compliance, model="III", gamma=200.0)
    res = run_day_to_day(net, cfg.grid, build_profile(net, cfg),
                         params, cfg.penalty, cfg.solver)
    gaps = [(rec.day, rec.gap) for rec in res.days[1:]]
    crossing = next((d for d, g in gaps if g < 1e-3), None)
    tail = ", ".join(f"d{d}:{g:.1e}" for d, g in gaps[-5:])
    ok = res.converged and crossing is not None and crossing <= 200
    _report(7, "Model III (gamma=200s) relative gap falls below 1e-3 within 200 days",
            ok, f"converged={res.converged} at day {len(res.days)}, gap tail [{tail}]")


def test_criterion_7b_nonconvergence_is_reported_not_raised():
    # a run cut off mid-transient must end at max_days with converged=False
    net = fig1_network()
    cfg = fig1_config()
    solver = replace(cfg.solver, max_days=12)
    res = run_day_to_day(net, cfg.grid, build_profile(net, cfg),
                         cfg.compliance, cfg.penalty, solver)
    ok = (not res.converged) and len(res.days) == 12
    _report(7, "non-convergence ends at max_days with converged=false, no error",
            ok, f"{len(res.days)} days, converged={res.converged}")


def test_criterion_8_sensitivity_ranking():
    net = fig1_network()
    cfg = fig1_config()
    solver = replace(cfg.solver, max_days=80, gap_tolerance=1e-15)

    def final_cr(**overrides):
        params = replace(cfg.compliance, **overrides)
        res = run_day_to_day(net, cfg.grid, build_profile(net, cfg),
                             params, cfg.penalty, solver)
        return res.days[-1].cr_used[("od1", "vms1")]

    beta_crs = [final_cr(beta=b) for b in (0.001, 0.01, 0.1)]
    x0_crs = [final_cr(x0=x) for x in (-600.0, 0.0, 600.0)]
    beta_range = max(beta_crs) - min(beta_crs)
    x0_range = max(x0_crs) - min(x0_crs)
    ok = beta_range > x0_range
    _report(8, "final CR is more sensitive to beta than to the initial perception",
            ok, f"range(beta)={beta_range:.4f} > range(x0)={x0_range:.2e}")
