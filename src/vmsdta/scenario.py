"""Scenario configuration, built-in fixtures, run orchestration and outputs."""

from __future__ import annotations

import contextlib
import functools
import json
import math
import struct
import sys
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from pathlib import Path as _FsPath

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
    _csv,
    _put,
    _read,
    _writing,
    check_keys,
    departure_windows,
    load_scenario,
    normalize_intervals,
    np,
    number,
    open_output,
    pair_of,
    save_scenario_files,
    string,
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

    def check(self):
        errors = []
        if self.mode not in ("uniform", "random"):
            errors.append(f"config: unknown init_profile mode {self.mode!r}")
        if self.seed < 0:
            errors.append(f"config: seed={self.seed} must be nonnegative")
        return errors


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
        return self.compliance.check() + self.solver.check() + self.init.check()

    def range_warnings(self):
        warnings = []
        for name, (lo, hi) in RANGE_WARNINGS.items():
            v = getattr(self.compliance, name)
            if not lo <= v <= hi:
                warnings.append(f"config: {name}={v:g} outside the tested range [{lo:g}, {hi:g}]")
        return warnings


def _finite(value, name: str) -> float:
    x = number(value, name)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return x


def _integer(value, name: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _boolean(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _optional(read):
    return lambda value, name: None if value is None else read(value, name)


# config.json key ("section.key" inside a section) -> (RunConfig field, reader), in
# the order config_to_dict writes them; a key left out takes the dataclass default,
# and leaving out one whose field has no default is an input error
CONFIG_FIELDS = {
    "grid.t0": ("grid.t0", _finite),
    "grid.tf": ("grid.tf", _finite),
    "grid.dt": ("grid.dt", _finite),
    "model": ("compliance.model", string),
    "compliance.w": ("compliance.w", _finite),
    "compliance.beta": ("compliance.beta", _finite),
    "compliance.gamma": ("compliance.gamma", _finite),
    "compliance.x0": ("compliance.x0", _finite),
    "compliance.y_f0": ("compliance.y_f0", _optional(_finite)),
    "compliance.y_nf0": ("compliance.y_nf0", _optional(_finite)),
    "compliance.beta_iv": ("compliance.beta_iv", _optional(_finite)),
    "compliance.average_over_omega": ("compliance.average_over_omega", _boolean),
    "penalty.early": ("penalty.early", _finite),
    "penalty.late": ("penalty.late", _finite),
    "solver.lambda": ("solver.step_size", _finite),
    "solver.max_days": ("solver.max_days", _integer),
    "solver.gap_tolerance": ("solver.gap_tolerance", _finite),
    "solver.residual_warn_fraction": ("solver.residual_warn_fraction", _finite),
    "init_profile.mode": ("init.mode", string),
    "init_profile.window": ("init.window", _optional(pair_of(_finite))),
    "seed": ("init.seed", _integer),
    "default_epsilon_s": ("default_epsilon", _finite),
    "output.dump_curves": ("dump_curves", _boolean),
}
# the record each RunConfig field prefix builds ("" is RunConfig's own fields)
_PARTS = {"grid": TimeGrid, "compliance": ComplianceParams, "penalty": PenaltyFunction,
          "solver": SolverConfig, "init": InitProfileConfig}


def _required(cls) -> set:
    """The fields of dataclass ``cls`` that have no default."""
    return {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}


def parse_config(obj: dict) -> RunConfig:
    """Build a RunConfig from a parsed config.json dict."""
    try:
        check_keys(obj, dict.fromkeys(key.partition(".")[0] for key in CONFIG_FIELDS), "top level")
        flat = {}  # "section.key" -> value
        for head, value in obj.items():
            known = [key[len(head) + 1:] for key in CONFIG_FIELDS if key.startswith(head + ".")]
            if known:
                check_keys(value, known, head)
                flat.update((f"{head}.{key}", v) for key, v in value.items())
            else:
                flat[head] = value
        parts = {part: {} for part in ("", *_PARTS)}
        missing = []
        for key, (attr, read) in CONFIG_FIELDS.items():
            part, _, name = attr.rpartition(".")
            if key in flat:
                parts[part][name] = read(flat[key], key)
            elif name in _required(_PARTS.get(part, RunConfig)):
                missing.append(key)
        if missing:
            raise ValueError(f"missing key {', '.join(map(repr, missing))}")
        records, errors = {}, []
        for part, cls in _PARTS.items():  # TimeGrid and PenaltyFunction check their ranges as they are built
            try:
                records[part] = cls(**parts[part])
            except (ScenarioError, OverflowError, ValueError) as exc:
                records[part] = None
                errors += getattr(exc, "errors", [f"config: {exc}"])
        cfg = RunConfig(**parts[""], **records)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ScenarioError([f"config: {exc}"]) from exc
    errors += cfg.check()
    if errors:
        raise ScenarioError(errors)
    return cfg


def read_config(path) -> RunConfig:
    return parse_config(_read("config", path, lambda p: json.loads(_FsPath(p).read_text())))


def config_to_dict(cfg: RunConfig) -> dict:
    obj = {}
    for key, (attr, _) in CONFIG_FIELDS.items():
        head, _, name = key.rpartition(".")
        (obj.setdefault(head, {}) if head else obj)[name] = attrgetter(attr)(cfg)
    return obj


# ---------------------------------------------------------------------------
# bundle


@dataclass
class ScenarioBundle:
    network: Network
    config: RunConfig
    profile: DepartureProfile
    warnings: list = field(default_factory=list)


def build_profile(network: Network, cfg: RunConfig) -> DepartureProfile:
    g, init = cfg.grid, cfg.init
    try:
        if init.mode == "random":
            return DepartureProfile.random(network, g, np.random.default_rng(init.seed), init.window)
        return DepartureProfile.uniform(network, g, init.window)
    except MemoryError as exc:
        raise _grid_error(network, g, "do not fit in memory") from exc


def _grid_error(network: Network, g, reason) -> ScenarioError:
    return ScenarioError([f"config: grid.tf {g.tf:g} and grid.dt {g.dt:g} give {g.n_bins:.3g} bins: "
                          f"{len(network.paths)} paths x bins of float64 {reason}"])


def load_checked(network_file, paths_file, demand_file, config_file, tolerances_file=None, vms_file=None):
    """``(network, config, warnings)`` of the bundle ``load_bundle`` builds, checked as it is, without its profile."""
    cfg = read_config(config_file)
    network, warnings = load_scenario(network_file, paths_file, demand_file, tolerances_file, vms_file,
                                      grid=cfg.grid, default_epsilon=cfg.default_epsilon)
    return network, cfg, _check_bundle(network, warnings, cfg)


def load_bundle(network_file, paths_file, demand_file, config_file,
                tolerances_file=None, vms_file=None) -> ScenarioBundle:
    """Load all scenario files into a validated, runnable bundle."""
    network, cfg, warnings = load_checked(network_file, paths_file, demand_file, config_file, tolerances_file, vms_file)
    return ScenarioBundle(network, cfg, build_profile(network, cfg), warnings)


def _check_bundle(network: Network, warnings, cfg: RunConfig) -> list:
    """Make ``build_profile``'s checks, in its order, then the day's products'; returns the bundle's warnings."""
    if 8 * max(len(network.paths), 1) * cfg.grid.n_bins > sys.maxsize:  # numpy's limit on an array's bytes
        raise _grid_error(network, cfg.grid, f"exceed numpy's largest array, {sys.maxsize:.3g} bytes")
    departure_windows(network, cfg.grid, cfg.init.window)
    _check_products(network, cfg)
    return list(warnings) + cfg.range_warnings()


def _check_products(network: Network, cfg: RunConfig, limit=1e100):
    """Reject each factor of a day's products at or beyond ``limit``, whose square a float still holds."""
    fft = max((sum(network.links[a].fft for a in p.links) for p in network.paths.values()), default=0.0)
    pen = max(cfg.penalty.early, cfg.penalty.late) * (cfg.grid.tf - cfg.grid.t0 + fft)
    costs = [(fft, "network: length_m / vf_mps summed over a path's links"),  # each includes the one before
             (pen, "config: penalty.early or penalty.late times grid.tf - grid.t0 plus a free-flow path time"),
             (cfg.solver.step_size * (fft + pen), "config: solver.lambda times a free-flow path cost")]
    errors = [f"{what} is {x:g}" for x, what in costs if x >= limit][:1] + [
        f"demand: O-D {od.id}: Q / dt is {od.demand / cfg.grid.dt:g}" for od in network.ods.values()
        if od.demand / cfg.grid.dt >= limit]
    if errors:
        raise ScenarioError([f"{e}, at or beyond {limit:g}" for e in errors])


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
    """Write the fixture scenario files into a directory ``make_outdir`` makes; returns the file map."""
    outdir = _FsPath(outdir)
    network = fig1_network(demand=demand)
    cfg = fig1_config()
    errors, _ = network.validate(cfg.grid)
    if errors:  # before any file is written
        raise ScenarioError(errors)
    make_outdir(outdir)
    files = save_scenario_files(network, outdir)
    files["config"] = outdir / "config.json"
    open_output(files["config"], json.dumps(config_to_dict(cfg), indent=2) + "\n").close()
    return files


# ---------------------------------------------------------------------------
# output writing


class _FloatText(dict):
    """``repr`` of floats keyed by their bits (so ``-0.0`` keeps its sign), each formatted once."""

    def __missing__(self, bits):
        self[bits] = text = repr(struct.unpack("<d", struct.pack("<q", bits))[0])
        return text


@functools.lru_cache(maxsize=4)
def _bins_template(n_bins, n_columns):
    """A CSV row per bin k: NUL for the leading fields, k, then ``n_columns`` ``%s``; the
    fields replace the NULs after the ``%``, so a ``%`` in them is never a format."""
    return "".join(f"\0{k}{',%s' * n_columns}\r\n" for k in range(n_bins))


def _write_bins(fh, text, fields, *columns):
    """``_put`` a CSV row per bin k: ``fields`` (quoted once, as ``csv.writer`` quotes
    them), k, then each column's k-th float as the ``_FloatText`` ``text`` formats it."""
    values = tuple(map(text.__getitem__, np.column_stack(columns).ravel().view(np.int64).tolist()))
    _put(fh, (_bins_template(len(columns[0]), len(columns)) % values).replace("\0", _csv([fields + ("",)])[:-2]))


COMPLIANCE_COLUMNS = ("day", "od_id", "sign_id", "model", "s_bar", "mu_f", "mu_nf",
                      "sigma_f", "sigma_nf", "x", "y_f", "y_nf", "cr", "fset_share")
# each per-day table and its header
DAY_TABLES = {
    "days.csv": ("day", "relative_gap", "total_cost", "converged"),
    "compliance.csv": COMPLIANCE_COLUMNS,
    "flows.csv": ("day", "path", "bin", "rate"),
    "costs.csv": ("day", "path", "bin", "psi", "phi"),
}


@contextlib.contextmanager
def day_tables(network: Network, outdir):
    """Open the per-day tables in ``outdir``, each with its header, and yield the ``on_day``
    callback that writes a day's rows in each as the day ends; the tables close when the block does."""
    with contextlib.ExitStack() as stack:
        days, compliance, flows, costs = [stack.enter_context(open_output(_FsPath(outdir) / name, _csv([header])))
                                          for name, header in DAY_TABLES.items()]

        def on_day(rec):
            _put(days, _csv([[rec.day, rec.gap, rec.total_cost, str(rec.converged).lower()]]))
            emit_plot_data(compliance, rec)
            text = _FloatText()  # one day's distinct values; the rows go out one path at a time
            for pid, psi, phi in zip(network.path_ids, rec.psi, rec.phi):
                _write_bins(flows, text, (rec.day, pid), rec.profile.rate(pid))
                _write_bins(costs, text, (rec.day, pid), psi, phi)

        yield on_day


def emit_plot_data(fh, rec):
    """Write one day's compliance.csv rows to ``fh``: each (O-D, sign) pair's trace, which
    holds the saving ``s_bar``, the perception (``x``, or ``y_nf - y_f``) and ``cr``."""
    _put(fh, _csv([rec.day, row["od"], row["sign"], row["model"]]
                  + [row.get(col) for col in COMPLIANCE_COLUMNS[4:]] for row in rec.compliance_trace))


def write_outputs(result: RunResult, outdir, config: RunConfig, warnings):
    """Write summary.json from the run's last record; ``day_tables`` wrote the per-day tables."""
    last = result.days[-1]
    summary = {
        "days": len(result.days),
        "converged": result.converged,
        "final_gap": None if math.isnan(last.gap) else last.gap,
        "final_total_cost": last.total_cost,
        "final_cr": {f"{od}|{sign}": cr for (od, sign), cr in last.cr_used.items()},
        "residual_final_day": last.residual,
        "warnings": list(warnings) + [f"day {last.day}: {w}" for w in last.warnings],
        "config": config_to_dict(config),
    }
    open_output(_FsPath(outdir) / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n").close()


def dump_curves(dnl_result, outdir) -> dict:
    """Debug dump of one loading's cumulative curves and turning ratios."""
    network = dnl_result.network
    outdir = _FsPath(outdir)
    files = {"curves": outdir / "curves.csv", "turning_ratios": outdir / "turning_ratios.csv"}
    text = _FloatText()
    with open_output(files["curves"], _csv([("link_id", "bin", "N_up", "N_down")])) as fh:
        for a in network.links:
            _write_bins(fh, text, (a,), dnl_result.up[a], dnl_result.down[a])
    with open_output(files["turning_ratios"], _csv([("node", "in_link", "out", "bin", "ratio")])) as fh:
        for node, per_in in dnl_result.turning_ratios.items():
            for a, per_out in per_in.items():
                for out, ratios in per_out.items():
                    _write_bins(fh, text, (node, a, out), ratios)
    return files


# ---------------------------------------------------------------------------
# orchestration


def make_outdir(outdir):
    """Make the output directory before any day runs; failing is an input error."""
    try:
        _FsPath(outdir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError([f"--out {outdir}: {exc.strerror or exc}"]) from exc


# what a run writes after its last day; an earlier run's copies go before day 1
# (day_tables truncates the per-day tables), and no other file in --out is touched
RUN_FILES = ("curves.csv", "turning_ratios.csv", "summary.json")


def run_bundle(bundle: ScenarioBundle, outdir) -> RunResult:
    """Run the bundle into ``outdir``, after removing an earlier run's files: each per-day table
    gets its rows as the day ends, summary.json and the curve dump come after the last day."""
    cfg = bundle.config
    make_outdir(outdir)
    for path in (_FsPath(outdir) / name for name in RUN_FILES):
        with _writing(path):
            path.unlink(missing_ok=True)
    with day_tables(bundle.network, outdir) as on_day:
        result = run_day_to_day(bundle.network, bundle.profile, cfg.compliance, cfg.penalty, cfg.solver,
                                on_day=on_day)
    write_outputs(result, outdir, cfg, bundle.warnings)
    if cfg.dump_curves:
        dump_curves(result.final_dnl, outdir)
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
    bundle, param, value, run_dir = args
    result = run_bundle(bundle, run_dir)
    last = result.days[-1]
    final_cr = max(last.cr_used.values()) if last.cr_used else math.nan
    return {
        "param": param, "value": value, "days": len(result.days),
        "converged": result.converged,
        "final_gap": last.gap, "final_cr": final_cr,
        "final_total_cost": last.total_cost,
    }


def run_sweep(files: dict, param: str, values, outdir, workers: int = 1) -> list:
    """Independent replicates over one parameter; returns one row per value.

    The files are read once; every value's bundle is checked, then every one built, before any run starts.
    """
    if workers < 1:
        raise ScenarioError([f"sweep: --workers must be at least 1, got {workers}"])
    base = read_config(files["config_file"])
    runs = {}  # run directory name -> the values written there, in the order given
    for v in map(float, values):
        runs.setdefault(f"{param}_{v:g}", []).append(v)
    clashes = [f"sweep: values {', '.join(map(repr, vs))} share the run directory {name}"
               for name, vs in runs.items() if len(vs) > 1]
    if clashes:
        raise ScenarioError(clashes)
    configs = [(_apply_sweep_value(base, param, v), v, name) for name, (v,) in runs.items()]
    scenario = {key: path for key, path in files.items() if key != "config_file"}
    network, warnings = load_scenario(**scenario, grid=base.grid, default_epsilon=base.default_epsilon)
    checked = [(cfg, _check_bundle(network, warnings, cfg), v, name) for cfg, v, name in configs]
    jobs = [(ScenarioBundle(network, cfg, build_profile(network, cfg), w), param, v, _FsPath(outdir) / name)
            for cfg, w, v, name in checked]
    make_outdir(outdir)
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_worker, jobs))
    else:
        rows = [_sweep_worker(job) for job in jobs]
    open_output(_FsPath(outdir) / "sweep.csv",
                _csv([("param", "value", "days", "converged", "final_gap", "final_cr", "final_total_cost")]
                     + [[row["param"], row["value"], row["days"], str(row["converged"]).lower(),
                         row["final_gap"], row["final_cr"], row["final_total_cost"]] for row in rows])).close()
    return rows
