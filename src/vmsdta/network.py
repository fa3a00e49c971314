"""Road network data model: links, paths, demands, VMS signs, time grid.

Loaders validate the whole object graph at once and report every violation,
each naming the offending entity.  Everything here is immutable after load and
safe to share read-only across threads.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path as _FsPath
from types import MappingProxyType

import numpy as np

SINK = "__sink__"


class ScenarioError(Exception):
    """Scenario inputs violate the schema or an invariant.

    ``errors`` lists every violation found.
    """

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("\n".join(self.errors) if self.errors else "invalid scenario")


def _require(cond, errors, msg):
    if not cond:
        errors.append(msg)


# ---------------------------------------------------------------------------
# time grid


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on the commuting period [t0, tf].

    Rates live on bins (length ``n_bins``); cumulative vehicle counts live on
    bin edges (length ``n_bins + 1``).  All times in seconds.
    """

    t0: float
    tf: float
    dt: float

    def __post_init__(self):
        errors = []
        _require(self.tf > self.t0, errors, f"config: grid.tf ({self.tf}) must exceed grid.t0 ({self.t0})")
        _require(self.dt > 0, errors, f"config: grid.dt ({self.dt}) must be positive")
        if not errors:
            n = (self.tf - self.t0) / self.dt
            _require(
                abs(n - round(n)) <= 1e-9 * max(1.0, abs(n)),
                errors,
                f"config: grid.tf - grid.t0 = {self.tf - self.t0} is not an integer multiple of grid.dt={self.dt}",
            )
        if errors:
            raise ScenarioError(errors)

    @property
    def n_bins(self) -> int:
        return int(round((self.tf - self.t0) / self.dt))

    def edges(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_bins + 1)

    def mids(self) -> np.ndarray:
        return self.t0 + self.dt * (np.arange(self.n_bins) + 0.5)


# ---------------------------------------------------------------------------
# active-set (omega) helpers


def normalize_intervals(intervals):
    """Sort and merge [start, end) intervals; drops empty ones."""
    ivals = sorted((float(s), float(e)) for s, e in intervals if float(e) > float(s))
    merged = []
    for s, e in ivals:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return tuple(merged)


def omega_length(omega) -> float:
    return sum(e - s for s, e in omega)


def omega_bin_overlap(grid: TimeGrid, omega) -> np.ndarray:
    """Seconds of overlap between each grid bin and the active set."""
    lo = grid.edges()[:-1]
    hi = grid.edges()[1:]
    weights = np.zeros(grid.n_bins)
    for s, e in omega:
        weights += np.clip(np.minimum(hi, e) - np.maximum(lo, s), 0.0, None)
    return weights


# ---------------------------------------------------------------------------
# entities


@dataclass(frozen=True)
class Link:
    id: str
    from_node: str
    to_node: str
    length: float  # m
    vf: float  # free-flow speed, m/s
    capacity: float  # veh/s
    kjam: float  # jam density, veh/m
    w: float  # backward wave speed, m/s

    @property
    def fft(self) -> float:
        """Free-flow traversal time, s."""
        return self.length / self.vf

    @property
    def storage(self) -> float:
        """Jam storage, veh."""
        return self.kjam * self.length

    @property
    def qmax(self) -> float:
        """Capacity of the triangular fundamental diagram, veh/s."""
        return self.vf * self.w * self.kjam / (self.vf + self.w)

    def check(self):
        errors = []
        for key, (name, read) in LINK_FIELDS.items():
            _require(read is not number or 0 < getattr(self, name) < math.inf, errors,
                     f"network: link {self.id}: {key} must be strictly positive and finite")
        if not errors:
            _require(
                self.capacity <= self.qmax * (1 + 1e-9),
                errors,
                f"network: link {self.id}: cap_vps {self.capacity:g} exceeds the triangular-diagram "
                f"maximum {self.qmax:g} of vf_mps, w_mps and kjam_vpm",
            )
            _require(self.w <= self.vf, errors, f"network: link {self.id}: w_mps must not exceed vf_mps")
        return errors


@dataclass(frozen=True)
class Path:
    id: str
    od: str
    links: tuple


@dataclass(frozen=True)
class ODPair:
    id: str
    origin: str
    destination: str
    demand: float  # Q, vehicles over the horizon
    t_arrival: float  # desired arrival time T_A, s
    tolerances: dict = field(default_factory=dict)  # path id -> epsilon, cost-seconds


@dataclass(frozen=True)
class VmsSign:
    id: str
    host_link: str  # sign location; diversion applies to flow exiting this link
    junction: str  # node where the diversion happens
    from_link: str  # discouraged downstream link
    to_link: str  # recommended downstream link
    omega: tuple  # union of disjoint [start, end) intervals, s


@dataclass(frozen=True)
class PairContext:
    """Static facts about one affected (O-D, sign) pair."""

    od: str
    sign: VmsSign
    fset: tuple
    nfset: tuple

    @property
    def key(self):
        return (self.od, self.sign.id)


# ---------------------------------------------------------------------------
# network container


@dataclass(frozen=True)
class Network:
    """Links, paths, O-Ds and signs, read-only once built (read-only mappings and a
    tuple of signs), so the tables derived from them cannot go stale."""

    links: dict
    paths: dict
    ods: dict
    signs: tuple = ()

    def __post_init__(self):
        # frozen: the read-only views and the derived tables go straight into __dict__
        vars(self).update(
            links=MappingProxyType(dict(self.links)), paths=MappingProxyType(dict(self.paths)),
            ods=MappingProxyType(dict(self.ods)), signs=tuple(self.signs),
            nodes=frozenset(n for lk in self.links.values() for n in (lk.from_node, lk.to_node)),
            _out_links={}, _in_links={}, _od_paths={}, _next_link={})
        for lk in self.links.values():
            self._out_links.setdefault(lk.from_node, []).append(lk.id)
            self._in_links.setdefault(lk.to_node, []).append(lk.id)
        for p in self.paths.values():
            self._od_paths.setdefault(p.od, []).append(p.id)
            # successor link along each path (SINK after the last link)
            self._next_link[p.id] = dict(zip(p.links, (*p.links[1:], SINK)))
        # the affected (O-D, sign) pairs, by sign and then by O-D
        vars(self)["pairs"] = {(od, sg.id): PairContext(od, sg, fset, nfset)
                               for sg in self.signs
                               for od, (fset, nfset) in sorted(paths_through_vms(self, sg).items())
                               if fset and nfset}

    def __reduce__(self):  # the read-only views do not pickle: rebuild from the records
        return Network, (dict(self.links), dict(self.paths), dict(self.ods), self.signs)

    @cached_property
    def loading(self):
        """The loader's tables for this network (``dnl.LoadingTables``), built on first use."""
        from .dnl import LoadingTables
        return LoadingTables(self)

    # -- topology helpers ---------------------------------------------------

    def out_links(self, node):
        return tuple(self._out_links.get(node, ()))

    def in_links(self, node):
        return tuple(self._in_links.get(node, ()))

    def od_paths(self, od_id):
        return tuple(self._od_paths.get(od_id, ()))

    @property
    def path_ids(self):
        return tuple(self.paths)

    def node_sequence(self, path_id):
        p = self.paths[path_id]
        seq = [self.links[p.links[0]].from_node]
        seq += [self.links[a].to_node for a in p.links]
        return tuple(seq)

    def next_link(self, path_id, link_id):
        """Link following `link_id` on the path, or SINK after the last one."""
        return self._next_link[path_id][link_id]

    def tail_links(self, path_id, node):
        """Links of the path downstream of `node` (first occurrence)."""
        seq = self.node_sequence(path_id)
        if node not in seq:
            raise ValueError(f"node {node} does not lie on path {path_id}")
        return self.paths[path_id].links[seq.index(node):]

    def freeflow_partial(self, path_id, node) -> float:
        """Free-flow traversal time from `node` to the path's destination, s."""
        return sum(self.links[a].fft for a in self.tail_links(path_id, node))

    # -- validation -----------------------------------------------------------

    def validate(self, grid: TimeGrid | None = None):
        """Full invariant check; returns (errors, warnings)."""
        errors, warnings = [], []
        for lk in self.links.values():
            errors += lk.check()
        for od in self.ods.values():
            _require(0 <= od.demand < math.inf, errors,
                     f"demand: O-D {od.id}: Q {od.demand} must be nonnegative and finite")
            _require(math.isfinite(od.t_arrival), errors, f"demand: O-D {od.id}: T_A must be finite")
            _require(bool(self.od_paths(od.id)), errors, f"demand: O-D {od.id}: od_id is no path's od in paths")
            for pid, eps in od.tolerances.items():
                _require(pid in self.paths, errors, f"tolerances: O-D {od.id}: path_id {pid} is no path id in paths")
                _require(pid not in self.paths or self.paths[pid].od == od.id, errors,
                         f"tolerances: O-D {od.id}: path_id {pid} has another od in paths than this od_id")
                _require(0 <= eps < math.inf, errors,
                         f"tolerances: O-D {od.id}: epsilon_s for path {pid} must be nonnegative and finite")
            for pid in self.od_paths(od.id):
                _require(pid in od.tolerances, errors,
                         f"tolerances: O-D {od.id}: path {pid} has no epsilon_s")
            if grid is not None:
                _require(od.t_arrival < grid.tf, errors,
                         f"demand: O-D {od.id}: T_A {od.t_arrival} must precede config grid.tf={grid.tf}")
        for p in self.paths.values():
            _require(p.od in self.ods, errors, f"paths: path {p.id}: od {p.od} is no od_id in demand")
            _require(len(p.links) > 0, errors, f"paths: path {p.id}: links is empty")
            unknown = [a for a in p.links if a not in self.links]
            for a in unknown:
                errors.append(f"paths: path {p.id}: links names {a}, no link id in network")
            if unknown or not p.links:
                continue
            for a, b in zip(p.links, p.links[1:]):
                _require(self.links[a].to_node == self.links[b].from_node, errors,
                         f"paths: path {p.id}: links {a} (network to) and {b} (from) do not share a node")
            seq = self.node_sequence(p.id)
            errors += [f"paths: path {p.id}: links pass node {n} twice" for n in dict.fromkeys(seq) if seq.count(n) > 1]
            if p.od in self.ods:
                od = self.ods[p.od]
                _require(self.links[p.links[0]].from_node == od.origin, errors,
                         f"paths: path {p.id}: links[0]'s network from is not the demand origin {od.origin}")
                _require(self.links[p.links[-1]].to_node == od.destination, errors,
                         f"paths: path {p.id}: links[-1]'s network to is not the demand destination {od.destination}")
        sign_ids = [sg.id for sg in self.signs]
        for sid in sorted({sid for sid in sign_ids if sign_ids.count(sid) > 1}):
            errors.append(f"vms: sign {sid}: id used by more than one sign")
        for sg in self.signs:
            for name in ("host_link", "from_link", "to_link"):
                _require(getattr(sg, name) in self.links, errors, f"vms: sign {sg.id}: {name} is no link id in network")
            _require(sg.from_link != sg.to_link, errors,
                     f"vms: sign {sg.id}: from_link and to_link must differ")
            if sg.host_link in self.links:
                _require(self.links[sg.host_link].to_node == sg.junction, errors,
                         f"vms: sign {sg.id}: host_link {sg.host_link}'s network to is not the junction {sg.junction}")
            for name in ("from_link", "to_link"):
                a = getattr(sg, name)
                if a in self.links:
                    _require(self.links[a].from_node == sg.junction, errors,
                             f"vms: sign {sg.id}: {name} {a}'s network from is not the junction {sg.junction}")
            _require(omega_length(sg.omega) > 0, errors, f"vms: sign {sg.id}: omega is empty")
            if grid is not None:
                for s, e in sg.omega:
                    _require(grid.t0 <= s < e <= grid.tf, errors,
                             f"vms: sign {sg.id}: omega interval [{s}, {e}) outside config grid.t0 to grid.tf")
        if grid is not None:
            for lk in self.links.values():
                if lk.vf > 0 and lk.w > 0 and lk.length > 0:
                    for speed, t in (("vf_mps", lk.fft), ("w_mps", lk.length / lk.w)):
                        _require(t >= grid.dt - 1e-12, errors,
                                 f"network: link {lk.id}: config grid.dt={grid.dt} exceeds length_m / {speed} {t:g}s")
        # a path crossed by several signs is legal but worth flagging
        claimed = {}
        for sg in self.signs:
            for fset, nfset in paths_through_vms(self, sg).values():
                for pid in fset + nfset:
                    claimed.setdefault(pid, []).append(sg.id)
        for pid, sids in claimed.items():
            if len(sids) > 1:
                warnings.append(f"path {pid} passes multiple VMS signs ({', '.join(sids)})")
        warnings += [f"sign {sg.id} diverts no O-D: none has paths from host link {sg.host_link} "
                     f"into both from link {sg.from_link} and to link {sg.to_link}"
                     for sg in self.signs if not affected_ods(self, sg)]
        return errors, warnings


def paths_through_vms(network: Network, sign: VmsSign):
    """Partition each O-D's paths by their movement at the sign's junction.

    Returns ``{od_id: (fset, nfset)}`` for O-Ds with at least one path taking
    the host link into from_link or to_link.  An O-D is *affected* iff both
    sets are nonempty; paths avoiding the host link belong to neither set.
    """
    out = {}
    for p in network.paths.values():
        for a, b in zip(p.links, p.links[1:]):
            if a != sign.host_link:
                continue
            fset, nfset = out.setdefault(p.od, ([], []))
            if b == sign.to_link:
                fset.append(p.id)
            elif b == sign.from_link:
                nfset.append(p.id)
    return {od: (tuple(f), tuple(nf)) for od, (f, nf) in out.items()}


def affected_ods(network: Network, sign: VmsSign):
    """O-Ds where diversion is possible: the sign's entries of ``network.pairs``."""
    return {ctx.od: (ctx.fset, ctx.nfset) for ctx in network.pairs.values() if ctx.sign == sign}


# ---------------------------------------------------------------------------
# departure profiles


@dataclass
class DepartureProfile:
    """Per-path piecewise-constant departure rates (veh/s) on the grid bins."""

    grid: TimeGrid
    path_ids: tuple
    rates: np.ndarray  # shape (n_paths, n_bins)

    def __post_init__(self):
        self.rates = np.asarray(self.rates, dtype=float)
        if self.rates.shape != (len(self.path_ids), self.grid.n_bins):
            raise ScenarioError([
                f"departure profile: rate array shape {self.rates.shape} does not match "
                f"{len(self.path_ids)} paths x {self.grid.n_bins} bins"
            ])
        self._index = {pid: i for i, pid in enumerate(self.path_ids)}

    def index(self, path_id) -> int:
        return self._index[path_id]

    def rate(self, path_id) -> np.ndarray:
        return self.rates[self._index[path_id]]

    def copy(self) -> "DepartureProfile":
        return DepartureProfile(self.grid, self.path_ids, self.rates.copy())

    def od_totals(self, network: Network):
        """Integral of departures per O-D, vehicles."""
        return {
            od: float(sum(self.rate(pid).sum() for pid in network.od_paths(od)) * self.grid.dt)
            for od in network.ods
        }

    @classmethod
    def zeros(cls, network: Network, grid: TimeGrid):
        return cls(grid, network.path_ids, np.zeros((len(network.path_ids), grid.n_bins)))

    @classmethod
    def uniform(cls, network: Network, grid: TimeGrid, window=None):
        """Split each O-D's demand equally across its paths over a departure
        window (default: [t0, T_A] per O-D)."""
        prof = cls.zeros(network, grid)
        for od in network.ods.values():
            pids = network.od_paths(od.id)
            if not pids or od.demand == 0:
                continue
            w0, w1 = window if window is not None else (grid.t0, min(od.t_arrival, grid.tf))
            w0 = max(w0, grid.t0)
            w1 = min(w1, grid.tf)
            if w1 <= w0:
                raise ScenarioError([f"demand: O-D {od.id}: T_A or config init_profile.window: empty [{w0}, {w1})"])
            overlap = omega_bin_overlap(grid, ((w0, w1),))
            base = od.demand / (len(pids) * (w1 - w0)) * (overlap / grid.dt)
            for pid in pids:
                prof.rates[prof.index(pid)] = base
        return prof

    @classmethod
    def random(cls, network: Network, grid: TimeGrid, rng, window=None):
        """Random nonnegative rates inside the window, scaled to meet demand."""
        prof = cls.uniform(network, grid, window)
        for od in network.ods.values():
            pids = network.od_paths(od.id)
            if not pids or od.demand == 0:
                continue
            for pid in pids:
                i = prof.index(pid)
                mask = prof.rates[i] > 0
                prof.rates[i, mask] *= rng.random(mask.sum())
            rows = [prof.index(pid) for pid in pids]
            total = prof.rates[rows].sum() * grid.dt
            if total > 0:
                prof.rates[rows] *= od.demand / total
        return prof


# ---------------------------------------------------------------------------
# file I/O
#
# Each JSON record has one table, JSON key -> (dataclass field, reader), shared by its
# reader and writer.  A reader takes a JSON value and the name to report, and returns
# the field's value or raises ValueError naming the field.  Ranges and finiteness are
# left to ``Network.validate``, which reports every violation at once.


def number(value, name) -> float:
    """A JSON number: not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def string(value, name) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def list_of(read):
    """Reader of a JSON list, each item read by ``read``; gives a tuple."""
    def read_list(value, name):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return tuple(read(item, name) for item in value)
    return read_list


def pair_of(read):
    """Reader of exactly two numbers, each read by ``read``; gives a tuple."""
    def read_pair(value, name):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ValueError(f"{name} must be two numbers, got {value!r}")
        return tuple(read(x, name) for x in value)
    return read_pair


def _omega(value, name):
    return normalize_intervals(list_of(pair_of(number))(value, name))


LINK_FIELDS = {
    "id": ("id", string), "from": ("from_node", string), "to": ("to_node", string),
    "length_m": ("length", number), "vf_mps": ("vf", number), "cap_vps": ("capacity", number),
    "kjam_vpm": ("kjam", number), "w_mps": ("w", number),
}
PATH_FIELDS = {"id": ("id", string), "od": ("od", string), "links": ("links", list_of(string))}
SIGN_FIELDS = {
    "id": ("id", string), "host_link": ("host_link", string), "junction": ("junction", string),
    "from_link": ("from_link", string), "to_link": ("to_link", string), "omega": ("omega", _omega),
}
DEMAND_COLUMNS = ("od_id", "origin", "destination", "Q", "T_A")
TOLERANCE_COLUMNS = ("od_id", "path_id", "epsilon_s")


def check_keys(record, known, where):
    """Raise ValueError unless ``record`` is an object with no key outside ``known``.

    Returns, and the message names, ``where`` followed by the record's id if it has one.
    """
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(record).__name__}")
    name = f"{where} {record['id']}" if "id" in record else where
    unknown = sorted(set(record) - set(known))
    if unknown:
        raise ValueError(f"{name}: unknown key {', '.join(map(repr, unknown))} "
                         f"(known: {', '.join(known)})")
    return name


def read_records(records, table, cls, where) -> list:
    """One ``cls`` per object of a JSON list; every key of ``table`` is required."""
    if not isinstance(records, list):
        raise ValueError(f"expected a JSON list of {where}s, got {type(records).__name__}")
    out = []
    for rec in records:
        name = check_keys(rec, table, where)
        missing = [key for key in table if key not in rec]
        if missing:
            raise ValueError(f"{name}: missing key {', '.join(map(repr, missing))}")
        out.append(cls(**{attr: read(rec[key], f"{name}: {key}")
                          for key, (attr, read) in table.items()}))
    return out


def write_records(records, table) -> list:
    return [{key: getattr(rec, attr) for key, (attr, _) in table.items()} for rec in records]


def _add_unique(table, key, value, what):
    if key in table:
        raise ValueError(f"duplicate {what} {key}")
    table[key] = value


def _by_id(records, what) -> dict:
    table = {}
    for rec in records:
        _add_unique(table, rec.id, rec, what)
    return table


def read_network_json(path):
    obj = json.loads(_FsPath(path).read_text())
    check_keys(obj, ("links",), "top level")
    return _by_id(read_records(obj.get("links", []), LINK_FIELDS, Link, "link"), "link id")


def read_paths_json(path):
    records = json.loads(_FsPath(path).read_text())
    return _by_id(read_records(records, PATH_FIELDS, Path, "path"), "path id")


def _read_csv(path, columns, numbers) -> list:
    """The rows of a CSV file whose header names exactly ``columns``, in any order; ``numbers`` as floats."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if sorted(reader.fieldnames or ()) != sorted(columns):
            raise ValueError(f"header must name {', '.join(columns)}; got {reader.fieldnames}")
        rows = []
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"line {reader.line_num}: expected {len(columns)} fields")
            for col in numbers:
                try:
                    row[col] = float(row[col])
                except ValueError:
                    raise ValueError(f"line {reader.line_num}: {col} must be a number, got {row[col]!r}") from None
            rows.append(row)
    return rows


def read_demand_csv(path):
    return _by_id([ODPair(row["od_id"], row["origin"], row["destination"], row["Q"], row["T_A"])
                   for row in _read_csv(path, DEMAND_COLUMNS, ("Q", "T_A"))], "O-D id")


def read_tolerances_csv(path):
    tol = {}
    for row in _read_csv(path, TOLERANCE_COLUMNS, ("epsilon_s",)):
        _add_unique(tol.setdefault(row["od_id"], {}), row["path_id"], row["epsilon_s"],
                    f"row for O-D {row['od_id']}, path")
    return tol


def read_vms_json(path):
    obj = json.loads(_FsPath(path).read_text())
    return read_records([obj] if isinstance(obj, dict) else obj, SIGN_FIELDS, VmsSign, "sign")


def _read(what, path, reader):
    """``reader(path)``, with any failure to read or convert it as an input error."""
    try:
        return reader(path)
    except (OSError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ScenarioError([f"{what} file {path}: {exc}"]) from exc


def load_scenario(network_file, paths_file, demand_file, tolerances_file=None,
                  vms_file=None, grid: TimeGrid | None = None, default_epsilon: float = 0.0):
    """Load and validate all scenario inputs into a single Network.

    Raises ScenarioError with the full violation list; returns
    ``(network, warnings)`` otherwise.  Missing tolerance rows fall back to
    ``default_epsilon``.
    """
    errors = []
    links = _read("network", network_file, read_network_json)
    paths = _read("paths", paths_file, read_paths_json)
    ods = _read("demand", demand_file, read_demand_csv)
    tol = {}
    if tolerances_file is not None:
        tol = _read("tolerances", tolerances_file, read_tolerances_csv)
        errors += [f"tolerances file {tolerances_file}: od_id {od} is no od_id in demand"
                   for od in tol if od not in ods]
    signs = [] if vms_file is None else _read("vms", vms_file, read_vms_json)

    # attach tolerances, filling gaps with the configured default
    ods_full = {}
    for od in ods.values():
        eps = dict(tol.get(od.id, {}))
        for p in paths.values():
            if p.od == od.id and p.id not in eps:
                eps[p.id] = default_epsilon
        ods_full[od.id] = ODPair(od.id, od.origin, od.destination, od.demand, od.t_arrival, eps)

    network = Network(links=links, paths=paths, ods=ods_full, signs=signs)
    errs, warnings = network.validate(grid)
    errors += errs
    if errors:
        raise ScenarioError(errors)
    return network, warnings


# -- writers: every output file is opened by ``open_output`` and written by ``_put``


class OutputError(Exception):
    """An output file could not be written."""


@contextlib.contextmanager
def _writing(path, fh=None):
    """An ``OSError`` in the block as an ``OutputError`` naming ``path``, after closing
    ``fh``: its unwritten text would fail again on close."""
    try:
        yield
    except OSError as exc:
        if fh is not None:
            with contextlib.suppress(OSError):
                fh.close()
        raise OutputError(f"writing {path}: {exc.strerror or exc}") from exc


def _put(fh, text):
    """Write and flush ``text``."""
    with _writing(fh.name, fh):
        fh.write(text)
        fh.flush()


def open_output(path, text):
    """``path`` opened for writing with ``text`` (a CSV header, or the whole file) ``_put`` in it."""
    with _writing(path):
        fh = open(path, "w", newline="")
    _put(fh, text)
    return fh


def _csv(rows) -> str:
    """``rows`` as ``csv.writer`` formats them."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def save_scenario_files(network: Network, outdir):
    """Write network/paths/demand/tolerances/vms files; returns their paths."""
    outdir = _FsPath(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    contents = {
        "network.json": {"links": write_records(network.links.values(), LINK_FIELDS)},
        "paths.json": write_records(network.paths.values(), PATH_FIELDS),
        "demand.csv": [DEMAND_COLUMNS] + [(od.id, od.origin, od.destination, repr(od.demand), repr(od.t_arrival))
                                          for od in network.ods.values()],
        "tolerances.csv": [TOLERANCE_COLUMNS] + [(od.id, pid, repr(od.tolerances[pid]))
                                                 for od in network.ods.values() for pid in network.od_paths(od.id)],
    }
    if network.signs:
        contents["vms.json"] = write_records(network.signs, SIGN_FIELDS)
    files = {}
    for name, obj in contents.items():
        stem, _, ext = name.partition(".")
        files[stem] = outdir / name
        open_output(files[stem], _csv(obj) if ext == "csv" else json.dumps(obj, indent=2) + "\n").close()
    return files
