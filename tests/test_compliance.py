import math

import numpy as np
import pytest

from vmsdta.compliance import (
    ComplianceParams,
    apply_threshold,
    average_saving,
    average_time,
    compliance_logit,
    initial_state,
    step_compliance,
    time_std,
    update_perception,
)
from vmsdta.daytoday import SolverConfig, run_day_to_day
from vmsdta.dnl import run_dnl
from vmsdta.network import (
    DepartureProfile,
    Link,
    Network,
    ODPair,
    Path,
    TimeGrid,
    VmsSign,
    omega_bin_overlap,
)
from vmsdta.scenario import build_profile, fig1_config, fig1_network

from .oracles import compose_exit, fine_mean_std


def mean_partial_times(res, pids, node):
    """Mean traversal time from `node` over the paths, at each bin midpoint."""
    times = res.partial_traversal_time(node, pids, res.grid.mids())
    return sum(times[pid] for pid in pids) / len(pids)


def two_tail_network():
    """Host link into a diversion junction with a 300 s and a 200 s tail."""
    links = {
        "H": Link("H", "o", "j", 500.0, 12.5, 0.5, 0.15, 5.0),
        "NFL": Link("NFL", "j", "d", 3750.0, 12.5, 0.5, 0.15, 5.0),  # 300 s
        "FL": Link("FL", "j", "d", 2500.0, 12.5, 0.5, 0.15, 5.0),  # 200 s
    }
    paths = {
        "pnf": Path("pnf", "od", ("H", "NFL")),
        "pf": Path("pf", "od", ("H", "FL")),
    }
    ods = {"od": ODPair("od", "o", "d", 12.0, 1000.0, {"pnf": 0.0, "pf": 0.0})}
    signs = [VmsSign("s1", "H", "j", "NFL", "FL", ((0.0, 600.0),))]
    net = Network(links=links, paths=paths, ods=ods, signs=signs)
    grid = TimeGrid(0.0, 1200.0, 10.0)
    errors, _ = net.validate(grid)
    assert not errors, errors
    prof = DepartureProfile.uniform(net, grid, window=(0.0, 120.0))
    return net, grid, prof


@pytest.fixture(scope="module")
def two_tail_result():
    net, grid, prof = two_tail_network()
    return net, grid, run_dnl(net, grid, prof)


@pytest.fixture(scope="module")
def fig1_freeflow_result():
    net = fig1_network(demand=30.0)  # light load: everything at free flow
    grid = fig1_config().grid
    prof = DepartureProfile.uniform(net, grid, window=(900.0, 1800.0))
    return net, grid, run_dnl(net, grid, prof, compliance_rates={("od1", "vms1"): 0.5})


# ---------------------------------------------------------------------------
# saving


def test_saving_is_difference_of_mean_tails(two_tail_result):
    net, grid, res = two_tail_result
    s = mean_partial_times(res, ("pnf",), "j") - mean_partial_times(res, ("pf",), "j")
    assert np.allclose(s, 300.0 - 200.0, atol=1e-9)  # free flow at every bin midpoint


def test_saving_zero_for_identical_tails(two_tail_result):
    net, grid, res = two_tail_result
    s = mean_partial_times(res, ("pf",), "j") - mean_partial_times(res, ("pf",), "j")
    assert np.all(s == 0.0)


def test_fig1_saving_matches_explicit_composition(fig1_freeflow_result):
    # S(t) = mean of the two not-follow compositions minus the follow one,
    # all measured from node b
    net, grid, res = fig1_freeflow_result
    t = grid.mids()
    explicit = 0.5 * ((compose_exit(res, ("2", "5", "7"), t) - t)
                      + (compose_exit(res, ("2", "4", "6", "7"), t) - t)) \
        - (compose_exit(res, ("3", "6", "7"), t) - t)
    got = mean_partial_times(res, ("p1", "p2"), "b") - mean_partial_times(res, ("p3",), "b")
    assert np.allclose(got, explicit, atol=1e-12)
    assert np.allclose(got, 20.0, atol=1e-9)  # free-flow asymmetry of the diamond


def test_average_saving_constant_and_antisymmetric():
    grid = TimeGrid(0.0, 100.0, 10.0)
    omega = ((0.0, 100.0),)
    assert average_saving(np.full(10, 7.5), grid, omega) == pytest.approx(7.5)
    vals = np.concatenate((np.full(5, 100.0), np.full(5, -100.0)))
    assert average_saving(vals, grid, omega) == pytest.approx(0.0, abs=1e-12)


def test_average_saving_linear_profile():
    # S(t) = t on omega = [0, 10) averages to 5
    grid = TimeGrid(0.0, 10.0, 1.0)
    vals = grid.mids()
    assert average_saving(vals, grid, ((0.0, 10.0),)) == pytest.approx(5.0, abs=1e-12)


def test_average_saving_weights_partial_bins():
    grid = TimeGrid(0.0, 40.0, 10.0)
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    # omega covers bin 1 fully and half of bin 2
    got = average_saving(vals, grid, ((10.0, 25.0),))
    assert got == pytest.approx((2.0 * 10 + 3.0 * 5) / 15)


def test_average_saving_requires_overlap():
    grid = TimeGrid(0.0, 40.0, 10.0)
    with pytest.raises(ValueError):
        average_saving(np.zeros(4), grid, ((50.0, 60.0),))


# ---------------------------------------------------------------------------
# threshold and perception updates


def test_threshold_examples():
    assert apply_threshold(150.0, 200.0) == 0.0
    assert apply_threshold(-50.0, 200.0) == -50.0
    assert apply_threshold(250.0, 200.0) == 250.0
    for s in (0.0, 1.0, 42.0):
        assert apply_threshold(s, 0.0) == s  # gamma = 0 is the identity


def test_update_perception_examples():
    assert update_perception(0.0, 100.0, 0.3) == pytest.approx(30.0)
    for w in (0.2, 0.5, 0.9):
        assert update_perception(3.0, 3.0, w) == pytest.approx(3.0)


def test_perception_converges_geometrically():
    x, s, w = 0.0, 50.0, 0.3
    for day in range(1, 60):
        x = update_perception(x, s, w)
        assert abs(x - s) == pytest.approx(abs(0.0 - s) * (1 - w) ** day, rel=1e-9)
    assert x == pytest.approx(s, abs=1e-6)


def test_perception_stays_in_convex_hull():
    rng = np.random.default_rng(11)
    x = float(rng.uniform(-100, 100))
    observed = [x]
    for _ in range(200):
        s = float(rng.uniform(-500, 500))
        observed.append(s)
        x = update_perception(x, s, 0.35)
        assert min(observed) - 1e-9 <= x <= max(observed) + 1e-9


# ---------------------------------------------------------------------------
# logits (Models I/III pass the advantage 2x: the saving x against its negation)


def test_logit1_symmetric_at_zero():
    assert compliance_logit(0.0, 0.01) == 0.5


def test_logit1_closed_form():
    expected = math.exp(2.0) / (1.0 + math.exp(2.0))
    assert compliance_logit(2.0 * 100.0, 0.01) == pytest.approx(expected, rel=1e-12)
    assert compliance_logit(2.0 * 100.0, 0.01) == pytest.approx(0.88080, abs=5e-6)


def test_logit1_limits_stay_open():
    assert 0.0 < compliance_logit(2.0 * -1e9, 0.1) < 0.5
    assert 0.5 < compliance_logit(2.0 * 1e9, 0.1) < 1.0


def test_logit1_depends_only_on_product():
    for x, beta in ((120.0, 0.01), (12.0, 0.1), (1.2, 1.0)):
        assert compliance_logit(2.0 * x, beta) == pytest.approx(
            compliance_logit(2.0 * 1.2, 1.0), rel=1e-12)


def test_logit1_monotone_in_x():
    xs = np.linspace(-400, 400, 41)
    crs = [compliance_logit(2.0 * x, 0.01) for x in xs]
    assert all(b > a for a, b in zip(crs, crs[1:]))


def test_logit2_examples():
    # Models II/IV: the advantage is y_nf - y_f
    assert compliance_logit(300.0 - 300.0, 0.01) == 0.5
    assert compliance_logit(600.0 - 400.0, 0.01) == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0)), rel=1e-12)
    assert compliance_logit(1e8 - 0.0, 0.01) < 1.0  # strictly inside


# ---------------------------------------------------------------------------
# Models II / IV statistics


def test_experienced_times_fig1(fig1_freeflow_result):
    net, grid, res = fig1_freeflow_result
    mu_f = mean_partial_times(res, ("p3",), "b")
    mu_nf = mean_partial_times(res, ("p1", "p2"), "b")
    explicit_f = compose_exit(res, ("3", "6", "7"), grid.mids()) - grid.mids()
    assert np.allclose(mu_f, explicit_f, atol=1e-12)
    assert np.allclose(mu_nf - mu_f, 20.0, atol=1e-9)


def test_average_time_constant_and_ramp():
    assert average_time(np.full(50, 123.0)) == pytest.approx(123.0)
    grid = TimeGrid(0.0, 200.0, 2.0)
    ramp = grid.mids()  # linear 0..T
    assert average_time(ramp) == pytest.approx(100.0, abs=1e-12)


def test_average_time_matches_fine_quadrature():
    grid = TimeGrid(0.0, 100.0, 1.0)
    fn = lambda t: 60.0 + 10.0 * np.sin(t / 7.0) + 0.05 * t
    coarse = average_time(fn(grid.mids()))
    fine_mean, _ = fine_mean_std(fn, 0.0, 100.0, 0.1)
    assert coarse == pytest.approx(fine_mean, abs=0.05)


def test_time_std_examples():
    assert time_std(np.full(30, 55.0), 55.0) == 0.0
    two_level = np.concatenate((np.full(10, 40.0), np.full(10, 100.0)))
    assert time_std(two_level, 70.0) == pytest.approx(30.0)  # |a-b|/2
    grid = TimeGrid(0.0, 120.0, 1.0)
    ramp = grid.mids()
    assert time_std(ramp, float(ramp.mean())) == pytest.approx(120.0 / math.sqrt(12.0), rel=1e-4)


def test_time_std_matches_fine_quadrature():
    grid = TimeGrid(0.0, 100.0, 1.0)
    fn = lambda t: 60.0 + 10.0 * np.sin(t / 7.0)
    vals = fn(grid.mids())
    _, fine_std = fine_mean_std(fn, 0.0, 100.0, 0.1)
    assert time_std(vals, float(vals.mean())) == pytest.approx(fine_std, abs=0.05)


def test_update_perceived_times_examples():
    assert update_perception(0.0, 600.0, 0.3) == pytest.approx(180.0)
    assert update_perception(77.0, 77.0, 0.4) == pytest.approx(77.0)
    # Model IV with zero variability: the perceived disutility decays to zero
    y = 500.0
    for _ in range(80):
        y = update_perception(y, 0.0, 0.3)
    assert y == pytest.approx(500.0 * 0.7 ** 80, rel=1e-9)


# ---------------------------------------------------------------------------
# daily step


def _pair_ctx(net):
    ctxs = list(net.pairs.values())
    assert len(ctxs) == 1
    return ctxs[0]


def test_initial_states():
    net, grid, prof = two_tail_network()
    ctx = _pair_ctx(net)
    p1 = ComplianceParams(model="I", x0=0.0, beta=0.01)
    st = initial_state(p1, ctx, net)
    assert st.cr == 0.5 and st.x == 0.0
    p2 = ComplianceParams(model="II", w=0.3, beta=0.01)
    st2 = initial_state(p2, ctx, net)
    assert st2.y_f == pytest.approx(200.0) and st2.y_nf == pytest.approx(300.0)
    assert st2.cr == pytest.approx(compliance_logit(300.0 - 200.0, 0.01))


def test_step_model1_three_day_hand_trace(fig1_freeflow_result):
    """Recompute the smoothing/logit chain by hand from the loading output."""
    net, grid, res = fig1_freeflow_result
    ctx = _pair_ctx(net)
    params = ComplianceParams(model="I", w=0.3, beta=0.01, x0=0.0)
    weights = omega_bin_overlap(grid, ctx.sign.omega)
    mids = grid.mids()
    tails = {p: net.tail_links(p, "b") for p in ("p1", "p2", "p3")}
    partials = {p: compose_exit(res, tails[p], mids) - mids for p in tails}
    s_t = 0.5 * (partials["p1"] + partials["p2"]) - partials["p3"]
    s_bar = float(np.dot(s_t, weights) / weights.sum())

    state = initial_state(params, ctx, net)
    x_hand, cr_hand = 0.0, 0.5
    for _day in range(3):
        assert state.cr == pytest.approx(cr_hand, abs=1e-9)
        state, trace = step_compliance(state, params, res, ctx, grid)
        x_hand = 0.7 * x_hand + 0.3 * s_bar
        cr_hand = math.exp(0.01 * x_hand) / (math.exp(-0.01 * x_hand) + math.exp(0.01 * x_hand))
        assert trace["s_bar"] == pytest.approx(s_bar, abs=1e-9)
        assert state.x == pytest.approx(x_hand, abs=1e-9)
        assert state.cr == pytest.approx(cr_hand, abs=1e-9)


def test_model3_gamma_zero_reproduces_model1(fig1_freeflow_result):
    net, grid, res = fig1_freeflow_result
    ctx = _pair_ctx(net)
    p1 = ComplianceParams(model="I", w=0.3, beta=0.01)
    p3 = ComplianceParams(model="III", w=0.3, beta=0.01, gamma=0.0)
    s1, s3 = initial_state(p1, ctx, net), initial_state(p3, ctx, net)
    for _day in range(50):
        s1, _ = step_compliance(s1, p1, res, ctx, grid)
        s3, _ = step_compliance(s3, p3, res, ctx, grid)
        assert s3 == s1  # exact trajectory equality, not approximate


def test_model3_threshold_freezes_small_savings(fig1_freeflow_result):
    net, grid, res = fig1_freeflow_result
    ctx = _pair_ctx(net)
    params = ComplianceParams(model="III", w=0.3, beta=0.01, gamma=200.0)
    state = initial_state(params, ctx, net)
    for _day in range(5):
        state, trace = step_compliance(state, params, res, ctx, grid)
    # the 20 s saving sits inside [0, gamma): perception never moves
    assert 0.0 < trace["s_bar"] < 200.0
    assert state.x == 0.0 and state.cr == 0.5


def test_step_model2_and_model4(fig1_freeflow_result):
    net, grid, res = fig1_freeflow_result
    ctx = _pair_ctx(net)
    p2 = ComplianceParams(model="II", w=0.3, beta=0.01)
    st = initial_state(p2, ctx, net)
    st, tr = step_compliance(st, p2, res, ctx, grid)
    assert tr["mu_nf"] - tr["mu_f"] == pytest.approx(20.0, abs=1e-9)
    assert st.cr > 0.5  # follow is faster, so compliance exceeds one half
    p4 = ComplianceParams(model="IV", w=0.3, beta=0.01, beta_iv=1e-4)
    st4 = initial_state(p4, ctx, net)
    st4, tr4 = step_compliance(st4, p4, res, ctx, grid)
    assert tr4["sigma_f"] >= 0.0 and tr4["sigma_nf"] >= 0.0
    assert 0.0 < st4.cr < 1.0


@pytest.mark.parametrize("model", ["II", "IV"])
def test_average_over_omega_averages_hand_composed_partial_times(model):
    # the last day's statistics come from the kept final loading: the F and NF
    # sets' partial times from the sign's junction, averaged over the active set
    net, cfg = fig1_network(), fig1_config()
    params = ComplianceParams(model=model, w=0.3, beta=0.01, beta_iv=1e-4,
                              average_over_omega=True)
    run = run_day_to_day(net, cfg.grid, build_profile(net, cfg), params, cfg.penalty,
                         SolverConfig(step_size=2e-4, max_days=3, gap_tolerance=1e-12))
    ctx, res, mids = _pair_ctx(net), run.final_dnl, cfg.grid.mids()
    (trace,) = run.days[-1].compliance_trace
    for key, pids in (("f", ctx.fset), ("nf", ctx.nfset)):
        by_hand = sum(compose_exit(res, net.tail_links(pid, ctx.sign.junction), mids) - mids
                      for pid in pids) / len(pids)
        mean = average_saving(by_hand, cfg.grid, ctx.sign.omega)
        assert trace[f"mu_{key}"] == mean
        assert mean != average_time(by_hand)  # the active set is not the horizon
        if model == "IV":
            assert trace[f"sigma_{key}"] == time_std(by_hand, mean)


def test_compliance_params_validation():
    assert ComplianceParams(model="V").check()
    assert ComplianceParams(w=0.0).check()
    assert ComplianceParams(beta=0.0).check()
    assert ComplianceParams(gamma=-1.0).check()
    assert ComplianceParams().check() == []
