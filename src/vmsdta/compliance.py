"""Day-scale evolution of drivers' perception of the VMS and their compliance rate.

Four learning models per affected (O-D, sign) pair:

* Model I   — perceived saving from following the sign, smoothed day to day,
              mapped through a symmetric binary logit.
* Model II  — separately perceived follow / not-follow traversal times.
* Model III — Model I with an indifference threshold on the saving.
* Model IV  — Model II weighted by travel-time variability (mean x std).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .network import Network, PairContext, TimeGrid, np, omega_bin_overlap

MODELS = ("I", "II", "III", "IV")

_CR_FLOOR = 5e-324  # smallest positive double; keeps CR strictly inside (0, 1)
_CR_CEIL = math.nextafter(1.0, 0.0)


def _clamp_open01(v: float) -> float:
    return min(max(v, _CR_FLOOR), _CR_CEIL)


@dataclass(frozen=True)
class ComplianceParams:
    model: str = "I"
    w: float = 0.3  # learning weight on the newest observation
    beta: float = 0.01  # logit scale, 1/s
    gamma: float = 0.0  # indifference threshold for Model III, s
    x0: float = 0.0  # initial perceived saving, s
    y_f0: float | None = None  # initial perceived follow time; free-flow default
    y_nf0: float | None = None
    beta_iv: float | None = None  # Model IV logit scale (disutility is s^2); beta if unset
    average_over_omega: bool = False  # Models II/IV: average over the active set only

    def check(self):
        errors = []
        if self.model not in MODELS:
            errors.append(f"config: unknown model {self.model!r}")
        if not 0.0 < self.w < 1.0:
            errors.append(f"config: compliance.w={self.w} must lie in (0, 1)")
        if self.beta <= 0:
            errors.append(f"config: compliance.beta={self.beta} must be positive")
        if self.gamma < 0:
            errors.append(f"config: compliance.gamma={self.gamma} must be nonnegative")
        if self.beta_iv is not None and self.beta_iv <= 0:
            errors.append(f"config: compliance.beta_iv={self.beta_iv} must be positive")
        return errors

    @property
    def logit_scale(self) -> float:
        if self.model == "IV" and self.beta_iv is not None:
            return self.beta_iv
        return self.beta


@dataclass(frozen=True)
class ComplianceState:
    """Perception carried across days for one (O-D, sign) pair."""

    cr: float  # compliance rate used on the current day
    x: float = 0.0  # Models I/III: perceived saving, s
    y_f: float = 0.0  # Models II/IV: perceived follow disutility
    y_nf: float = 0.0


# ---------------------------------------------------------------------------
# elementary operations


def average_saving(values, grid: TimeGrid, omega) -> float:
    """Overlap-weighted mean of a bin-sampled profile over the active set."""
    weights = omega_bin_overlap(grid, omega)
    total = weights.sum()
    if total <= 0:
        raise ValueError("active set does not overlap the horizon")
    return float(np.dot(np.asarray(values), weights) / total)


def apply_threshold(s_bar: float, gamma: float) -> float:
    """Model III indifference rule: gains below gamma count as no saving.

    Negative savings pass through unchanged; the interval [0, gamma) maps to 0.
    """
    if gamma < 0:
        raise ValueError(f"gamma {gamma} must be nonnegative")
    return 0.0 if 0.0 <= s_bar < gamma else s_bar


def update_perception(prev: float, observed: float, w: float) -> float:
    """Exponential smoothing of a perceived saving or disutility."""
    if not 0.0 < w < 1.0:
        raise ValueError(f"weight {w} outside (0, 1)")
    return (1.0 - w) * prev + w * observed


def compliance_logit(advantage: float, beta: float) -> float:
    """Binary logit of following the sign: 1 / (1 + exp(-beta * advantage)).

    ``advantage`` is the perceived gain from following: 2x for Models I/III
    (saving x versus its negation -x), y_nf - y_f for Models II/IV.  The result
    stays strictly inside (0, 1).
    """
    if beta <= 0:
        raise ValueError(f"beta {beta} must be positive")
    z = beta * advantage
    if z >= 0:
        cr = 1.0 / (1.0 + math.exp(-z))
    else:
        ez = math.exp(z)
        cr = ez / (1.0 + ez)
    return _clamp_open01(cr)


def average_time(values) -> float:
    """Plain bin mean over the full horizon."""
    return float(np.mean(np.asarray(values)))


def time_std(values, mean: float) -> float:
    """Population standard deviation of the bin-sampled travel-time vector."""
    dev = np.asarray(values) - mean
    return float(math.sqrt(np.mean(dev * dev)))


# ---------------------------------------------------------------------------
# daily step


def initial_state(params: ComplianceParams, ctx: PairContext, network: Network) -> ComplianceState:
    """Day-1 state: neutral saving or free-flow traversal times by default."""
    if params.model in ("I", "III"):
        return ComplianceState(cr=compliance_logit(2.0 * params.x0, params.beta), x=params.x0)
    ff_f = sum(network.freeflow_partial(pid, ctx.sign.junction) for pid in ctx.fset) / len(ctx.fset)
    ff_nf = sum(network.freeflow_partial(pid, ctx.sign.junction) for pid in ctx.nfset) / len(ctx.nfset)
    y_f = params.y_f0 if params.y_f0 is not None else ff_f
    y_nf = params.y_nf0 if params.y_nf0 is not None else ff_nf
    return ComplianceState(cr=compliance_logit(y_nf - y_f, params.logit_scale), y_f=y_f, y_nf=y_nf)


def step_compliance(state: ComplianceState, params: ComplianceParams, result, ctx: PairContext):
    """Advance one pair's perception by one day from the day's loading result, on its grid.

    Returns ``(next_state, trace)`` where the trace holds the day's observed
    statistics for the CSV output; next_state.cr is the compliance rate the
    *next* day's loading will use.
    """
    # mean traversal time from the sign's junction over each set, per bin midpoint
    times = result.partial_traversal_time(ctx.sign.junction, ctx.fset + ctx.nfset, result.grid.mids())
    mu_f_t, mu_nf_t = (sum(times[p] for p in ps) / len(ps) for ps in (ctx.fset, ctx.nfset))
    if params.model in ("I", "III"):
        s_bar = average_saving(mu_nf_t - mu_f_t, result.grid, ctx.sign.omega)
        s_eff = apply_threshold(s_bar, params.gamma) if params.model == "III" else s_bar
        x = update_perception(state.x, s_eff, params.w)
        nxt = ComplianceState(cr=compliance_logit(2.0 * x, params.beta), x=x)
        trace = {"s_bar": s_bar, "x": x}
        return nxt, trace
    if params.average_over_omega:
        mu_f = average_saving(mu_f_t, result.grid, ctx.sign.omega)
        mu_nf = average_saving(mu_nf_t, result.grid, ctx.sign.omega)
    else:
        mu_f = average_time(mu_f_t)
        mu_nf = average_time(mu_nf_t)
    trace = {"mu_f": mu_f, "mu_nf": mu_nf}
    if params.model == "IV":
        sigma_f = time_std(mu_f_t, mu_f)
        sigma_nf = time_std(mu_nf_t, mu_nf)
        stat_f, stat_nf = mu_f * sigma_f, mu_nf * sigma_nf
        trace.update({"sigma_f": sigma_f, "sigma_nf": sigma_nf})
    else:
        stat_f, stat_nf = mu_f, mu_nf
    y_f = update_perception(state.y_f, stat_f, params.w)
    y_nf = update_perception(state.y_nf, stat_nf, params.w)
    nxt = ComplianceState(cr=compliance_logit(y_nf - y_f, params.logit_scale), y_f=y_f, y_nf=y_nf)
    trace.update({"y_f": y_f, "y_nf": y_nf})
    return nxt, trace
