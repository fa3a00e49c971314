"""Day-to-day boundedly-rational adjustment of departure rates.

Each day the network is loaded with the current compliance rates, travel
costs are formed from path travel times plus a schedule-delay penalty, the
bounded-rationality cost operator caps every used alternative at the O-D
minimum plus its tolerance band, and the profile moves along a projected step:
clip(h - lambda * Phi + eta) with the per-O-D dual eta set exactly so demand
is conserved.  Compliance perception advances from the same loading
result (simultaneous update).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .compliance import ComplianceParams, initial_state, step_compliance
from .dnl import DnlError, DnlResult, run_dnl
from .network import DepartureProfile, Network, np


class DayToDayError(Exception):
    """The day loop failed; message names the day and the stage."""


@dataclass(frozen=True)
class PenaltyFunction:
    """Piecewise-linear arrival penalty: early and late weights per second."""

    early: float = 0.5
    late: float = 1.5

    def __post_init__(self):
        for name, value in (("early", self.early), ("late", self.late)):
            if value < 0:
                raise ValueError(f"penalty.{name} must be nonnegative, got {value!r}")

    def __call__(self, x):
        return self.early * np.maximum(0.0, -x) + self.late * np.maximum(0.0, x)


@dataclass(frozen=True)
class SolverConfig:
    step_size: float = 0.01  # lambda in the projected update
    max_days: int = 200
    gap_tolerance: float = 1e-3
    residual_warn_fraction: float = 0.005

    def check(self):
        errors = []
        if self.step_size <= 0:
            errors.append(f"config: solver.lambda (step size) {self.step_size} must be positive")
        if self.gap_tolerance <= 0:
            errors.append("config: solver.gap_tolerance must be positive")
        if self.max_days < 1:
            errors.append("config: solver.max_days must be at least 1")
        if self.residual_warn_fraction < 0:
            errors.append("config: solver.residual_warn_fraction must be nonnegative")
        return errors


@dataclass(frozen=True)
class DayRecord:
    """One day of a run.  ``on_day`` sees it whole; ``RunResult.days`` keeps it without
    ``profile``, ``psi`` and ``phi``, so a run holds no per-bin array of a past day."""

    day: int
    profile: DepartureProfile | None  # the departure rates loaded that day
    psi: np.ndarray | None  # travel cost per path x bin
    phi: np.ndarray | None  # bounded-rationality cost per path x bin
    min_cost: dict  # od -> v_ij
    eta: dict  # od -> dual value (None for zero demand)
    gap: float  # relative L2 gap vs. the previous day (nan on day 1)
    converged: bool  # the gap and the compliance drift into this day both below gap_tolerance
    total_cost: float
    cr_used: dict  # (od, sign) -> compliance rate in effect
    compliance_trace: list  # per pair dicts for the CSV output
    residual: float
    warnings: list


@dataclass(frozen=True)
class DayState:
    profile: DepartureProfile  # the departure rates the day loads
    perception: dict  # network.pairs key -> ComplianceState; pairs without demand left out
    day: int = 1
    gap: float = math.nan  # relative_gap of profile against the profile that produced it
    drift: float = math.nan  # largest |CR change| over the day that produced it


@dataclass
class RunResult:
    days: list
    converged: bool  # the last day's
    final_dnl: DnlResult | None  # the last day's loading (None if no day ran)
    final_state: DayState  # what the next day would load; advance() continues the run


# ---------------------------------------------------------------------------
# costs


def travel_cost(travel_time, depart_time, t_arrival, penalty: PenaltyFunction):
    """Generalized cost: travel time plus penalty on arrival-time deviation."""
    return travel_time + penalty(depart_time + travel_time - t_arrival)


def cost_table(result: DnlResult, penalty: PenaltyFunction) -> np.ndarray:
    """Psi for every path of the loading (row order = network.path_ids) at its bin midpoints."""
    network, mids = result.network, result.grid.mids()
    times = result.path_times()
    psi = np.empty((len(network.path_ids), len(mids)))
    for i, pid in enumerate(network.path_ids):
        t_a = network.ods[network.paths[pid].od].t_arrival
        psi[i] = travel_cost(times[pid], mids, t_a, penalty)
    return psi


def min_od_cost(psi: np.ndarray, rows) -> float:
    """Least cost over the O-D's paths and departure bins."""
    if len(rows) == 0:
        raise ValueError("O-D has no paths")
    return float(psi[list(rows)].min())


def br_cost(psi, v_ij: float, eps_p: float, eps_min: float):
    """Bounded-rationality cost: max(Psi, v + eps_p) - (eps_p - eps_min)."""
    if eps_min < 0 or eps_p < eps_min:
        raise ValueError("tolerances must satisfy eps_p >= eps_min >= 0")
    return np.maximum(psi, v_ij + eps_p) - (eps_p - eps_min)


def phi_table(psi: np.ndarray, network: Network) -> tuple:
    """BR costs for all paths (rows in network.path_ids order) plus the per-O-D minimum costs."""
    phi = np.empty_like(psi)
    row = {pid: i for i, pid in enumerate(network.path_ids)}
    v = {}
    for od in network.ods:
        rows = [row[pid] for pid in network.od_paths(od)]
        v_ij = min_od_cost(psi, rows)
        v[od] = v_ij
        tol = network.ods[od].tolerances
        eps_min = min(tol[pid] for pid in network.od_paths(od))
        for pid in network.od_paths(od):
            phi[row[pid]] = br_cost(psi[row[pid]], v_ij, tol[pid], eps_min)
    return phi, v


# ---------------------------------------------------------------------------
# the projected update


@dataclass(frozen=True)
class EtaSolve:
    eta: float
    iterations: int  # size of the active set (rates left positive)


def solve_eta(h, phi, lam: float, demand: float, dt: float) -> EtaSolve | None:
    """Exact root of sum(clip(h - lam*phi + eta)) * dt = demand.

    This is the threshold of the projection onto {x >= 0, sum(x) * dt = demand}
    (Held, Wolfe & Crowder 1974; Duchi et al. 2008): with the values sorted in
    decreasing order, the active set is the longest prefix whose shifted
    values stay positive.  Returns None for zero demand (all rates map to zero); raises
    ValueError when h - lam*phi is not finite or so large that it rounds away demand / dt.
    """
    if demand < 0:
        raise ValueError("demand must be nonnegative")
    if demand == 0:
        return None
    with np.errstate(all="ignore"):  # a non-finite value is reported below
        base = np.asarray(h, dtype=float).ravel() - lam * np.asarray(phi, dtype=float).ravel()
        v = np.sort(base)[::-1]
        shift = (demand / dt - np.cumsum(v)) / np.arange(1, v.size + 1)
        active = np.flatnonzero(v + shift > 0)
    if active.size == 0 or not np.isfinite(v).all():
        raise ValueError(f"h - lambda*phi, from {v[-1]:g} to {v[0]:g}, is not finite or too large "
                         f"for demand/dt {demand / dt:g} (lambda {lam:g})")
    n_active = int(active[-1]) + 1
    return EtaSolve(eta=float(shift[n_active - 1]), iterations=n_active)


def update_departures(profile: DepartureProfile, phi: np.ndarray, lam: float,
                      network: Network):
    """One projected step of the departure rates; returns (next profile, etas)."""
    if tuple(profile.path_ids) != network.path_ids:  # phi's rows are in network order
        raise ValueError(f"profile path order {tuple(profile.path_ids)} is not the "
                         f"network's {network.path_ids}")
    nxt = profile.copy()
    etas = {}
    for od in network.ods:
        rows = [profile.index(pid) for pid in network.od_paths(od)]
        demand = network.ods[od].demand
        sol = solve_eta(profile.rates[rows], phi[rows], lam, demand, profile.grid.dt)
        if sol is None:
            etas[od] = None
            nxt.rates[rows] = 0.0
            continue
        etas[od] = sol.eta
        nxt.rates[rows] = np.maximum(profile.rates[rows] - lam * phi[rows] + sol.eta, 0.0)
    return nxt, etas


def relative_gap(now: DepartureProfile, prev: DepartureProfile) -> float:
    """L2 distance between consecutive profiles, normalized by the older one.

    Identical profiles give 0 even when both are empty; otherwise an empty
    reference profile yields nan (undefined).
    """
    diff = now.rates - prev.rates
    dt = prev.grid.dt
    num = math.sqrt(float((diff * diff).sum()) * dt)
    if num == 0.0:
        return 0.0
    den = math.sqrt(float((prev.rates * prev.rates).sum()) * dt)
    if den == 0.0:
        return math.nan
    return num / den


# ---------------------------------------------------------------------------
# the day loop


def advance(state: DayState, network: Network, compliance: ComplianceParams,
            penalty: PenaltyFunction, solver: SolverConfig):
    """Load ``state`` as day ``state.day`` on its profile's grid; returns (next state, its record,
    loading).  The record is converged when the state's gap and CR drift are below ``solver.gap_tolerance``,
    and warns when the vehicles left at tf exceed ``solver.residual_warn_fraction`` of departures."""
    cr_used = {key: st.cr for key, st in state.perception.items()}
    stage = "loading"
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # a float error fails the day
            result = run_dnl(network, state.profile, compliance_rates=cr_used)
            stage = "cost table"
            psi = cost_table(result, penalty)
            total_cost = float((state.profile.rates * psi).sum() * state.profile.grid.dt)
            stage = "BR cost"
            phi, v = phi_table(psi, network)
            stage = "dual solve"
            next_profile, etas = update_departures(state.profile, phi, solver.step_size, network)
            gap = relative_gap(next_profile, state.profile)
            stage = "compliance step"
            traces = []
            perception = {}
            od_totals = state.profile.od_totals(network)
            for key, st in state.perception.items():
                ctx = network.pairs[key]
                perception[key], tr = step_compliance(st, compliance, result, ctx)
                row = {"od": ctx.od, "sign": ctx.sign.id, "model": compliance.model,
                       "cr": cr_used[key], **tr}
                # realized share of the O-D's vehicles that took the recommendation
                od_total = od_totals[ctx.od]
                took = sum(float(result.up_by_path[ctx.sign.to_link][pid][-1]) for pid in ctx.fset)
                row["fset_share"] = took / od_total if od_total > 0 else math.nan
                traces.append(row)
    except (DnlError, ValueError, FloatingPointError) as exc:
        raise DayToDayError(f"day {state.day}: {stage}: {exc}") from exc

    total, residual = result.total_departed, result.total_residual
    stranded = total > 0 and residual > solver.residual_warn_fraction * total
    record = DayRecord(
        day=state.day, profile=state.profile, psi=psi, phi=phi, min_cost=v, eta=etas, gap=state.gap,
        converged=state.gap < solver.gap_tolerance and state.drift < solver.gap_tolerance,
        total_cost=total_cost, cr_used=cr_used, compliance_trace=traces, residual=residual,
        warnings=[f"{residual:.3f} vehicles ({residual / total:.2%} of demand) still in the network at tf"]
        if stranded else [],
    )
    drift = max((abs(st.cr - cr_used[key]) for key, st in perception.items()), default=0.0)
    return DayState(next_profile, perception, state.day + 1, gap, drift), record, result


def run_day_to_day(network: Network, profile: DepartureProfile, compliance: ComplianceParams,
                   penalty: PenaltyFunction, solver: SolverConfig, on_day=None) -> RunResult:
    """Couple loading, compliance learning and departure adjustment over days, up to the
    first converged day (see ``advance``) or ``max_days`` (a non-converged run is a valid
    outcome, not an error).  ``on_day`` gets each day's whole record as the day ends;
    ``RunResult.days`` keeps a copy with ``profile``, ``psi`` and ``phi`` set to None.
    """
    # pairs for O-Ds without demand have no drivers to divert; skip them
    state = DayState(profile, {key: initial_state(compliance, ctx, network)
                               for key, ctx in network.pairs.items()
                               if network.ods[ctx.od].demand > 0})
    days = []
    result = None
    for _ in range(solver.max_days):
        rec = result = None  # one day in memory: the last day's record and loading go before the next is built
        state, rec, result = advance(state, network, compliance, penalty, solver)
        if on_day is not None:
            on_day(rec)
        days.append(replace(rec, profile=None, psi=None, phi=None))
        if rec.converged:
            break

    return RunResult(days, bool(days) and days[-1].converged, final_dnl=result, final_state=state)
