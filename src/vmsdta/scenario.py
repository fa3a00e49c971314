"""Scenario configuration, built-in fixtures, run orchestration and outputs."""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path as _FsPath

import numpy as np

from .compliance import ComplianceParams
from .daytoday import PenaltyFunction, RunResult, SolverConfig, run_day_to_day
from .network import (
    DepartureProfile,
    Link,
    Network,
    ODPair,
    Path,
    ScenarioError,
    TimeGrid,
    VmsSign,
    check_keys,
    load_scenario,
    normalize_intervals,
    save_scenario_files,
)

# parameter ranges exercised in the source study; exceeding them only warns
RANGE_WARNINGS = {
    "x0": (-600.0, 600.0),
    "w": (0.2, 0.5),
    "beta": (0.001, 0.1),
    "gamma": (0.0, 300.0),
}


@dataclass(frozen=True)
class InitProfileConfig:
    mode: str = "uniform"  # "uniform" or "random"
    window: tuple | None = None  # shared departure window; per-O-D [t0, T_A] if None
    seed: int = 0


@dataclass(frozen=True)
class RunConfig:
    grid: TimeGrid
    compliance: ComplianceParams = ComplianceParams()
    penalty: PenaltyFunction = PenaltyFunction()
    solver: SolverConfig = SolverConfig()
    init: InitProfileConfig = InitProfileConfig()
    default_epsilon: float = 0.0
    dump_curves: bool = False

    def check(self):
        errors = list(self.compliance.check()) + list(self.solver.check())
        return errors

    def range_warnings(self):
        warnings = []
        values = {
            "x0": self.compliance.x0,
            "w": self.compliance.w,
            "beta": self.compliance.beta,
            "gamma": self.compliance.gamma,
        }
        for name, (lo, hi) in RANGE_WARNINGS.items():
            v = values[name]
            if not lo <= v <= hi:
                warnings.append(
                    f"config: {name}={v:g} outside the tested range [{lo:g}, {hi:g}]"
                )
        return warnings


CONFIG_KEYS = ("grid", "model", "compliance", "penalty", "solver", "init_profile", "seed",
               "default_epsilon_s", "output")
SECTION_KEYS = {
    "grid": ("t0", "tf", "dt"),
    "compliance": ("model", "w", "beta", "gamma", "x0", "y_f0", "y_nf0", "beta_iv",
                   "average_over_omega"),
    "penalty": ("early", "late"),
    "solver": ("lambda", "max_days", "gap_tolerance", "residual_warn_fraction"),
    "init_profile": ("mode", "window"),
    "output": ("dump_curves",),
}


def _finite(value, name: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return x


def _integer(value, name: str) -> int:
    _finite(value, name)
    return int(value)


def parse_config(obj: dict) -> RunConfig:
    """Build a RunConfig from a parsed config.json dict."""
    try:
        check_keys(obj, CONFIG_KEYS, "top level")
        for section, known in SECTION_KEYS.items():
            check_keys(obj.get(section, {}), known, section)
        g = obj["grid"]
        grid = TimeGrid(_finite(g["t0"], "grid.t0"), _finite(g["tf"], "grid.tf"),
                        _finite(g["dt"], "grid.dt"))
        comp = obj.get("compliance", {})

        def optional(key):
            return None if comp.get(key) is None else _finite(comp[key], f"compliance.{key}")

        compliance = ComplianceParams(
            model=str(obj.get("model", comp.get("model", "I"))),
            w=_finite(comp.get("w", 0.3), "compliance.w"),
            beta=_finite(comp.get("beta", 0.01), "compliance.beta"),
            gamma=_finite(comp.get("gamma", 0.0), "compliance.gamma"),
            x0=_finite(comp.get("x0", 0.0), "compliance.x0"),
            y_f0=optional("y_f0"),
            y_nf0=optional("y_nf0"),
            beta_iv=optional("beta_iv"),
            average_over_omega=bool(comp.get("average_over_omega", False)),
        )
        pen = obj.get("penalty", {})
        penalty = PenaltyFunction(_finite(pen.get("early", 0.5), "penalty.early"),
                                  _finite(pen.get("late", 1.5), "penalty.late"))
        sol = obj.get("solver", {})
        solver = SolverConfig(
            step_size=_finite(sol.get("lambda", 0.01), "solver.lambda"),
            max_days=_integer(sol.get("max_days", 200), "solver.max_days"),
            gap_tolerance=_finite(sol.get("gap_tolerance", 1e-3), "solver.gap_tolerance"),
            residual_warn_fraction=_finite(sol.get("residual_warn_fraction", 0.005),
                                           "solver.residual_warn_fraction"),
        )
        init_obj = obj.get("init_profile", {})
        window = init_obj.get("window")
        init = InitProfileConfig(
            mode=str(init_obj.get("mode", "uniform")),
            window=None if window is None else (_finite(window[0], "init_profile.window"),
                                                _finite(window[1], "init_profile.window")),
            seed=_integer(obj.get("seed", 0), "seed"),
        )
        cfg = RunConfig(
            grid=grid, compliance=compliance, penalty=penalty, solver=solver, init=init,
            default_epsilon=_finite(obj.get("default_epsilon_s", 0.0), "default_epsilon_s"),
            dump_curves=bool(obj.get("output", {}).get("dump_curves", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError([f"config: {exc}"]) from exc
    errors = cfg.check()
    if errors:
        raise ScenarioError(errors)
    if init.mode not in ("uniform", "random"):
        raise ScenarioError([f"config: unknown init_profile mode {init.mode!r}"])
    return cfg


def read_config(path) -> RunConfig:
    try:
        obj = json.loads(_FsPath(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError([f"config file {path}: {exc}"]) from exc
    return parse_config(obj)


def config_to_dict(cfg: RunConfig) -> dict:
    c = cfg.compliance
    return {
        "grid": {"t0": cfg.grid.t0, "tf": cfg.grid.tf, "dt": cfg.grid.dt},
        "model": c.model,
        "compliance": {
            "w": c.w, "beta": c.beta, "gamma": c.gamma, "x0": c.x0,
            "y_f0": c.y_f0, "y_nf0": c.y_nf0, "beta_iv": c.beta_iv,
            "average_over_omega": c.average_over_omega,
        },
        "penalty": {"early": cfg.penalty.early, "late": cfg.penalty.late},
        "solver": {
            "lambda": cfg.solver.step_size, "max_days": cfg.solver.max_days,
            "gap_tolerance": cfg.solver.gap_tolerance,
            "residual_warn_fraction": cfg.solver.residual_warn_fraction,
        },
        "init_profile": {"mode": cfg.init.mode,
                         "window": None if cfg.init.window is None else list(cfg.init.window)},
        "seed": cfg.init.seed,
        "default_epsilon_s": cfg.default_epsilon,
        "output": {"dump_curves": cfg.dump_curves},
    }


# ---------------------------------------------------------------------------
# bundle


@dataclass
class ScenarioBundle:
    network: Network
    config: RunConfig
    profile: DepartureProfile
    warnings: list = field(default_factory=list)


def build_profile(network: Network, cfg: RunConfig) -> DepartureProfile:
    if cfg.init.mode == "random":
        rng = np.random.default_rng(cfg.init.seed)
        return DepartureProfile.random(network, cfg.grid, rng, cfg.init.window)
    return DepartureProfile.uniform(network, cfg.grid, cfg.init.window)


def load_bundle(network_file, paths_file, demand_file, config_file,
                tolerances_file=None, vms_file=None, config=None) -> ScenarioBundle:
    """Load all scenario files into a validated, runnable bundle; a ``config`` replaces the file's."""
    cfg = read_config(config_file) if config is None else config
    network, warnings = load_scenario(
        network_file, paths_file, demand_file,
        tolerances_file=tolerances_file, vms_file=vms_file,
        grid=cfg.grid, default_epsilon=cfg.default_epsilon,
    )
    warnings = list(warnings) + cfg.range_warnings()
    profile = build_profile(network, cfg)
    return ScenarioBundle(network=network, config=cfg, profile=profile, warnings=warnings)


# ---------------------------------------------------------------------------
# the built-in fig1 fixture: 7 links, 3 paths, one O-D, one sign


def fig1_network(demand: float = 360.0, t_arrival: float = 2100.0,
                 epsilon: float = 150.0, omega=((600.0, 3000.0),)) -> Network:
    """Diamond network with a sign at the exit of the entry link.

    All links are 500 m at 12.5 m/s free flow and 0.5 veh/s capacity, except
    the discouraged corridor entrance (link 2), capped at 0.3 veh/s so the
    recommended detour is worth taking.
    """

    def link(lid, a, b, cap=0.5):
        return Link(id=lid, from_node=a, to_node=b, length=500.0, vf=12.5,
                    capacity=cap, kjam=0.15, w=5.0)

    links = {
        "1": link("1", "a", "b"),
        "2": link("2", "b", "c", cap=0.3),
        "3": link("3", "b", "d"),
        "4": link("4", "c", "d"),
        "5": link("5", "c", "e"),
        "6": link("6", "d", "e"),
        "7": link("7", "e", "f"),
    }
    paths = {
        "p1": Path("p1", "od1", ("1", "2", "5", "7")),
        "p2": Path("p2", "od1", ("1", "2", "4", "6", "7")),
        "p3": Path("p3", "od1", ("1", "3", "6", "7")),
    }
    ods = {
        "od1": ODPair("od1", "a", "f", demand, t_arrival,
                      {"p1": epsilon, "p2": epsilon, "p3": epsilon}),
    }
    signs = [VmsSign(id="vms1", host_link="1", junction="b", from_link="2", to_link="3",
                     omega=normalize_intervals(omega))]
    return Network(links=links, paths=paths, ods=ods, signs=signs)


def fig1_config(**overrides) -> RunConfig:
    base = {
        "grid": {"t0": 0.0, "tf": 3600.0, "dt": 10.0},
        "model": "I",
        "compliance": {"w": 0.3, "beta": 0.01, "gamma": 0.0, "x0": 0.0},
        "penalty": {"early": 0.5, "late": 1.5},
        "solver": {"lambda": 0.0002, "max_days": 200, "gap_tolerance": 1e-3},
        "init_profile": {"mode": "uniform", "window": [900.0, 1800.0]},
        "seed": 0,
    }
    base.update(overrides)
    return parse_config(base)


def write_fig1_fixture(outdir, demand: float = 360.0) -> dict:
    """Write the fixture scenario files; returns the file map."""
    outdir = _FsPath(outdir)
    network = fig1_network(demand=demand)
    files = save_scenario_files(network, outdir)
    cfg = fig1_config()
    files["config"] = outdir / "config.json"
    files["config"].write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
    return files


# ---------------------------------------------------------------------------
# output writing


def _fmt(x):
    if x is None:
        return ""
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def _float_text(values) -> list:
    """``repr`` of each float in ``values``, as nested lists; each distinct value
    (told apart by its bits, so ``-0.0`` keeps its sign) is formatted once."""
    arr = np.ascontiguousarray(values, dtype=float)
    bits, where = np.unique(arr.view(np.int64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(float).tolist()], dtype=object)
    return text[where.reshape(arr.shape)].tolist()


def _write_bins(fh, fields, *columns):
    """Write, in one call, a CSV row per bin k: ``fields`` (quoted once, as
    ``csv.writer`` quotes them), k, then each column's k-th string."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields + ("",))
    bins = map(str, range(len(columns[0])))
    prefix, rows = buf.getvalue()[:-2], list(map(",".join, zip(bins, *columns)))
    fh.write(prefix + ("\r\n" + prefix).join(rows) + "\r\n" if rows else "")


def write_outputs(result: RunResult, outdir, config: RunConfig | None = None,
                  warnings=None) -> dict:
    """Write days/flows/costs/compliance CSVs plus summary.json and plot data."""
    outdir = _FsPath(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    network = result.network
    files = {}

    files["days"] = outdir / "days.csv"
    with open(files["days"], "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["day", "relative_gap", "total_cost", "converged"])
        for rec in result.days:
            done = result.converged and rec.day == result.days[-1].day
            wr.writerow([rec.day, _fmt(rec.gap), _fmt(rec.total_cost), str(done).lower()])

    files["flows"] = outdir / "flows.csv"
    with open(files["flows"], "w", newline="") as fh:
        csv.writer(fh).writerow(["day", "path", "bin", "rate"])
        for rec in result.days:
            order = [rec.profile.index(pid) for pid in network.path_ids]
            for pid, rates in zip(network.path_ids, _float_text(rec.profile.rates[order])):
                _write_bins(fh, (rec.day, pid), rates)

    files["costs"] = outdir / "costs.csv"
    with open(files["costs"], "w", newline="") as fh:
        csv.writer(fh).writerow(["day", "path", "bin", "psi", "phi"])
        for rec in result.days:
            psi, phi = _float_text(np.stack((rec.psi, rec.phi)))
            for pid, psi_row, phi_row in zip(network.path_ids, psi, phi):
                _write_bins(fh, (rec.day, pid), psi_row, phi_row)

    files["compliance"] = outdir / "compliance.csv"
    comp_cols = ["day", "od_id", "sign_id", "model", "s_bar", "mu_f", "mu_nf",
                 "sigma_f", "sigma_nf", "x", "y_f", "y_nf", "cr", "fset_share"]
    with open(files["compliance"], "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(comp_cols)
        for rec in result.days:
            for row in rec.compliance_trace:
                wr.writerow([rec.day, row["od"], row["sign"], row["model"]]
                            + [_fmt(row.get(col)) for col in comp_cols[4:]])

    files.update(emit_plot_data(result, outdir))

    last = result.days[-1]
    summary = {
        "days": len(result.days),
        "converged": result.converged,
        "final_gap": None if math.isnan(last.gap) else last.gap,
        "final_total_cost": last.total_cost,
        "final_cr": {f"{od}|{sign}": cr for (od, sign), cr in last.cr_used.items()},
        "residual_final_day": last.residual,
        "warnings": list(warnings or []) + [f"day {last.day}: {w}" for w in last.warnings],
    }
    if config is not None:
        summary["config"] = config_to_dict(config)
    files["summary"] = outdir / "summary.json"
    files["summary"].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return files


def emit_plot_data(result: RunResult, outdir) -> dict:
    """Tidy per-day series: savings, perception, compliance, path flow shares."""
    outdir = _FsPath(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    network, grid = result.network, result.grid
    files = {}

    savings, perception, compliance = [], [], []
    for rec in result.days:
        for row in rec.compliance_trace:
            key = (rec.day, row["od"], row["sign"])
            if row.get("s_bar") is not None:
                savings.append(key + (row["s_bar"],))
            if row.get("x") is not None:
                perception.append(key + (row["x"],))
            elif row.get("y_nf") is not None:
                perception.append(key + (row["y_nf"] - row["y_f"],))
            compliance.append(key + (row["cr"],))
    for fname, rows, col in (("plot_savings", savings, "saving_s"),
                             ("plot_perception", perception, "perception"),
                             ("plot_compliance", compliance, "cr")):
        files[fname] = outdir / f"{fname}.csv"
        with open(files[fname], "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["day", "od_id", "sign_id", col])
            for row in rows:
                wr.writerow([row[0], row[1], row[2], _fmt(row[3])])

    files["plot_flow_shares"] = outdir / "plot_flow_shares.csv"
    with open(files["plot_flow_shares"], "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["day", "od_id", "path", "share"])
        for rec in result.days:
            for od in network.ods:
                pids = network.od_paths(od)
                totals = {pid: float(rec.profile.rate(pid).sum()) * grid.dt for pid in pids}
                whole = sum(totals.values())
                for pid in pids:
                    share = totals[pid] / whole if whole > 0 else math.nan
                    wr.writerow([rec.day, od, pid, _fmt(share)])
    return files


def dump_curves(dnl_result, outdir) -> dict:
    """Debug dump of one loading's cumulative curves and turning ratios."""
    network = dnl_result.network
    outdir = _FsPath(outdir)
    files = {"curves": outdir / "curves.csv", "turning_ratios": outdir / "turning_ratios.csv"}
    with open(files["curves"], "w", newline="") as fh:
        csv.writer(fh).writerow(["link_id", "bin", "N_up", "N_down"])
        curves = _float_text([(dnl_result.up[a], dnl_result.down[a]) for a in network.links])
        for a, (up, down) in zip(network.links, curves):
            _write_bins(fh, (a,), up, down)
    with open(files["turning_ratios"], "w", newline="") as fh:
        csv.writer(fh).writerow(["node", "in_link", "out", "bin", "ratio"])
        for node, per_in in dnl_result.turning_ratios.items():
            for a, per_out in per_in.items():
                for out, ratios in zip(per_out, _float_text(list(per_out.values()))):
                    _write_bins(fh, (node, a, out), ratios)
    return files


# ---------------------------------------------------------------------------
# orchestration


class OutputError(Exception):
    """An output file could not be written after the day loop ran."""


def make_outdir(outdir):
    """Make the output directory before any day runs; failing is an input error."""
    try:
        _FsPath(outdir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError([f"--out {outdir}: {exc.strerror or exc}"]) from exc


def run_bundle(bundle: ScenarioBundle, outdir=None) -> RunResult:
    cfg = bundle.config
    if outdir is not None:
        make_outdir(outdir)
    result = run_day_to_day(bundle.network, cfg.grid, bundle.profile,
                            cfg.compliance, cfg.penalty, cfg.solver)
    if outdir is not None:
        try:
            write_outputs(result, outdir, config=cfg, warnings=bundle.warnings)
            if cfg.dump_curves:
                dump_curves(result.final_dnl, outdir)
        except OSError as exc:
            raise OutputError(f"writing outputs in {outdir}: {exc}") from exc
    return result


# -- parameter sweeps ---------------------------------------------------------

# the config.json fields each sweep parameter sets
SWEEP_FIELDS = {
    "beta": (("compliance", "beta"),),
    "w": (("compliance", "w"),),
    "gamma": (("compliance", "gamma"),),
    "x0": (("compliance", "x0"),),
    "y0": (("compliance", "y_f0"), ("compliance", "y_nf0")),
    "lambda": (("solver", "lambda"),),
}
SWEEP_PARAMS = tuple(SWEEP_FIELDS)


def _apply_sweep_value(cfg: RunConfig, param: str, value: float) -> RunConfig:
    """The config with the sweep value written in, checked like config.json."""
    if param not in SWEEP_FIELDS:
        raise ScenarioError([f"sweep: unknown parameter {param!r} (choose from {SWEEP_PARAMS})"])
    obj = config_to_dict(cfg)
    for section, key in SWEEP_FIELDS[param]:
        obj[section][key] = value
    return parse_config(obj)


def _sweep_worker(args):
    files, cfg, param, value, outdir = args
    bundle = load_bundle(**files, config=cfg)
    run_dir = None if outdir is None else _FsPath(outdir) / f"{param}_{value:g}"
    result = run_bundle(bundle, run_dir)
    last = result.days[-1]
    final_cr = max(last.cr_used.values()) if last.cr_used else math.nan
    return {
        "param": param, "value": value, "days": len(result.days),
        "converged": result.converged,
        "final_gap": last.gap, "final_cr": final_cr,
        "final_total_cost": last.total_cost,
    }


def run_sweep(files: dict, param: str, values, outdir=None, workers: int = 1) -> list:
    """Independent replicates over one parameter; returns one row per value.

    Every value is checked before any run starts.
    """
    if workers < 1:
        raise ScenarioError([f"sweep: --workers must be at least 1, got {workers}"])
    base = read_config(files["config_file"])
    jobs = [(files, _apply_sweep_value(base, param, float(v)), param, float(v), outdir)
            for v in values]
    if outdir is not None:
        make_outdir(outdir)
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(job) for job in jobs]
    if outdir is not None:
        path = _FsPath(outdir) / "sweep.csv"
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["param", "value", "days", "converged", "final_gap",
                         "final_cr", "final_total_cost"])
            for row in rows:
                wr.writerow([row["param"], _fmt(row["value"]), row["days"],
                             str(row["converged"]).lower(), _fmt(row["final_gap"]),
                             _fmt(row["final_cr"]), _fmt(row["final_total_cost"])])
    return rows
