"""Within-day dynamic network loading.

Kinematic-wave link dynamics are realized with the link transmission model on
a triangular fundamental diagram: cumulative curves at both link ends, sending
flow limited by capacity and the free-flow wave, receiving flow by capacity
and the backward wave.  Junctions follow the first-order node model of
Tampere et al. (2011) with capacity-proportional priorities: each incoming leg
moves as one FIFO column, and congested outgoing links are shared in
proportion to the legs' capacities (at congested junctions where a leg
splits, this loads differently from the ad hoc split of earlier versions).
Flow is tracked per path on every link, which yields the base turning ratios;
a VMS diverts the compliant share of each affected O-D's not-follow flow onto
the recommended downstream link, relabeling those vehicles to the O-D's follow
paths.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .network import SINK, Network, TimeGrid, DepartureProfile, affected_ods, in_omega

_TINY = 1e-15


class DnlError(Exception):
    """Network loading failed."""


# ---------------------------------------------------------------------------
# turning-ratio revision (the en-route diversion rule)


def revise_turning_ratios(alpha_from, alpha_to, cr, t, omega):
    """Shift the compliant share of the discouraged movement to the recommended one.

    When the sign is active at t, ``cr * alpha_from`` moves from the from-link
    ratio to the to-link ratio; the pair sum is preserved bit-for-bit and both
    outputs stay in [0, 1].  Outside the active set the ratios pass through
    unchanged.
    """
    if not 0.0 <= cr <= 1.0:
        raise ValueError(f"compliance rate {cr} outside [0, 1]")
    if cr == 0.0 or not in_omega(t, omega):
        return alpha_from, alpha_to
    moved = cr * alpha_from
    total = alpha_from + alpha_to
    revised_from = alpha_from - moved
    revised_to = total - revised_from
    # compensation keeps the float pair-sum exact
    for _ in range(3):
        resid = total - (revised_from + revised_to)
        if resid == 0.0:
            break
        revised_to += resid
    return revised_from, revised_to


# ---------------------------------------------------------------------------
# junction flow allocation


def solve_junction(sending, receiving, oriented, weights):
    """Fraction of each incoming leg's sending flow admitted through the junction.

    ``oriented[i][e]`` is leg i's demand toward outgoing slot e (sums to
    sending[i]); ``weights`` are the legs' capacities, which set their
    priorities.  This is the finite algorithm of Tampere, Corthout, Cattrysse
    & Immers (2011) for FIFO legs with capacity-proportional priorities: each
    round finds the open slot that admits the smallest flow per unit priority,
    then either admits in full every leg whose demand fits under that rate or
    throttles the legs feeding that slot to it and closes the slot.  Every
    round fixes at least one leg.
    """
    theta = [1.0] * len(sending)
    supply = list(receiving)
    legs = [i for i, s in enumerate(sending) if s > _TINY]
    slots = [e for e, r in enumerate(receiving) if r < math.inf]
    while legs:
        rate, e_min = math.inf, None
        for e in slots:
            share = sum(weights[i] * (oriented[i][e] / sending[i]) for i in legs)
            if share > 0.0 and supply[e] / share < rate:
                rate, e_min = supply[e] / share, e
        fixed = [i for i in legs if sending[i] <= rate * weights[i]]
        if not fixed:
            fixed = [i for i in legs if oriented[i][e_min] > 0.0]
            for i in fixed:
                theta[i] = max(0.0, rate * weights[i] / sending[i])
            slots.remove(e_min)
        for i in fixed:
            for e in slots:
                supply[e] -= theta[i] * oriented[i][e]
        legs = [i for i in legs if i not in fixed]
    return theta


# ---------------------------------------------------------------------------
# result container


@dataclass
class DnlResult:
    """Cumulative curves, exit-time functions and realized turning ratios."""

    network: Network
    grid: TimeGrid
    up: dict  # link -> np.ndarray of cumulative inflow at edges
    down: dict  # link -> cumulative outflow at edges
    up_by_path: dict  # link -> {path: np.ndarray}
    buffers: dict  # (origin, first link) -> dict(arr_total=..., entered=...)
    turning_ratios: dict  # node -> {in_link: {out: np.ndarray over bins}}
    arrivals_by_path: dict  # path -> vehicles delivered to the destination
    residual_by_link: dict
    residual_buffers: dict
    warnings: list = field(default_factory=list)
    extrapolated_queries: int = 0

    def __post_init__(self):
        self._edges = self.grid.edges()
        self._partial_cache = {}
        self._path_time_cache = None

    # -- scalar bookkeeping ---------------------------------------------------

    @property
    def total_departed(self) -> float:
        return float(sum(b["arr_total"][-1] for b in self.buffers.values()))

    @property
    def total_arrived(self) -> float:
        return float(sum(self.arrivals_by_path.values()))

    @property
    def total_residual(self) -> float:
        return float(sum(self.residual_by_link.values()) + sum(self.residual_buffers.values()))

    def link_inflow(self, link_id) -> np.ndarray:
        """Vehicles entering the link per bin."""
        return np.diff(self.up[link_id])

    # -- exit-time functions ----------------------------------------------------

    def mu(self, link_id, t):
        """Link exit time for entry at t (vectorized, linear interpolation).

        Entries whose exit level lies beyond the horizon drain at capacity
        past tf; entries after tf traverse at free flow.  Both are flagged via
        ``extrapolated_queries``.
        """
        lk = self.network.links[link_id]
        t_arr = np.asarray(t, dtype=float)
        x = np.interp(t_arr, self._edges, self.up[link_id])
        exit_t = self._invert(self.down[link_id], x, lk.capacity)
        late = t_arr > self.grid.tf
        if np.any(late):
            self.extrapolated_queries += int(np.count_nonzero(late))
            exit_t = np.where(late, t_arr + lk.fft, exit_t)
        out = np.maximum(exit_t, t_arr + lk.fft)
        return out if out.ndim else float(out)

    def _invert(self, curve, x, cap):
        """First time the cumulative curve reaches level x."""
        x_raw = np.atleast_1d(np.asarray(x, dtype=float))
        # curves on different links accumulate independently; absorb float drift
        # before declaring a level unreachable within the horizon
        tol = 1e-9 * max(1.0, abs(float(curve[-1])))
        x_arr = np.where(x_raw <= curve[-1] + tol, np.minimum(x_raw, curve[-1]), x_raw)
        idx = np.searchsorted(curve, x_arr, side="left")
        res = np.empty_like(x_arr)
        inside = idx <= self.grid.n_bins
        lo = np.clip(idx - 1, 0, None)
        denom = curve[np.minimum(idx, self.grid.n_bins)] - curve[lo]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(denom > 0, (x_arr - curve[lo]) / np.where(denom > 0, denom, 1.0), 0.0)
        res[inside] = (self._edges[lo] + frac * self.grid.dt)[inside]
        res[idx == 0] = self._edges[0]
        over = ~inside
        if np.any(over):
            self.extrapolated_queries += int(np.count_nonzero(over))
            res[over] = self.grid.tf + (x_arr[over] - curve[-1]) / cap
        return res if np.asarray(x).ndim else res[0]

    def entry_time(self, origin, first_link, t):
        """When a vehicle arriving at the origin at t enters the first link."""
        buf = self.buffers.get((origin, first_link))
        if buf is None:
            return np.asarray(t, dtype=float) if np.asarray(t).ndim else float(t)
        t_arr = np.asarray(t, dtype=float)
        x = np.interp(t_arr, self._edges, buf["arr_total"])
        cap = self.network.links[first_link].capacity
        entered = self._invert(buf["entered"], x, cap)
        out = np.maximum(entered, t_arr)
        return out if out.ndim else float(out)

    def compose_exit(self, link_ids, t):
        """Successive composition of the links' exit-time functions."""
        cur = np.asarray(t, dtype=float)
        for a in link_ids:
            cur = self.mu(a, cur)
        return cur

    def path_travel_time(self, path_id, t):
        """Door-to-door travel time from departure at t, origin queueing included."""
        p = self.network.paths[path_id]
        origin = self.network.links[p.links[0]].from_node
        start = self.entry_time(origin, p.links[0], t)
        done = self.compose_exit(p.links, start)
        return done - np.asarray(t, dtype=float)

    def partial_traversal_time(self, node, path_id, t):
        """Traversal time from `node` to the path's destination, departing node at t."""
        tail = self.network.tail_links(path_id, node)
        return self.compose_exit(tail, t) - np.asarray(t, dtype=float)

    # -- bin-sampled tables -------------------------------------------------------

    def path_times(self) -> dict:
        """Travel time per path at each departure-bin midpoint."""
        if self._path_time_cache is None:
            mids = self.grid.mids()
            self._path_time_cache = {
                pid: np.asarray(self.path_travel_time(pid, mids)) for pid in self.network.paths
            }
        return self._path_time_cache

    def partial_times(self, node, path_id) -> np.ndarray:
        """Partial traversal time from `node` at each bin midpoint."""
        key = (node, path_id)
        if key not in self._partial_cache:
            self._partial_cache[key] = np.asarray(
                self.partial_traversal_time(node, path_id, self.grid.mids())
            )
        return self._partial_cache[key]


# ---------------------------------------------------------------------------
# the loader


def run_dnl(network: Network, grid: TimeGrid, profile: DepartureProfile,
            compliance_rates=None, residual_warn_fraction: float = 0.005) -> DnlResult:
    """Propagate the departure profile through the network for one day.

    ``compliance_rates`` maps (od_id, sign_id) to the day's CR in [0, 1];
    missing pairs default to zero diversion.  Returns link cumulative curves,
    exit times, realized turning ratios and residual-vehicle bookkeeping.  A
    warning is recorded when more than ``residual_warn_fraction`` of the
    demand is still in the network at tf.
    """
    cr_map = dict(compliance_rates or {})
    for key, cr in cr_map.items():
        if not 0.0 <= cr <= 1.0:
            raise DnlError(f"compliance rate {cr} for {key} outside [0, 1]")

    K = grid.n_bins
    dt = grid.dt
    links = network.links

    # per-link state: cumulative curves as plain lists for fast scalar access
    up = {a: [0.0] * (K + 1) for a in links}
    dn = {a: [0.0] * (K + 1) for a in links}
    paths_on = {a: [] for a in links}
    for p in network.paths.values():
        for a in p.links:
            paths_on[a].append(p.id)
    up_p = {a: {pid: [0.0] * (K + 1) for pid in paths_on[a]} for a in links}
    dn_p = {a: {pid: [0.0] * (K + 1) for pid in paths_on[a]} for a in links}
    lag_f = {a: links[a].fft / dt for a in links}
    lag_w = {a: (links[a].length / links[a].w) / dt for a in links}

    # origin buffers: unbounded FIFO queues feeding each first link
    buffers = {}
    for p in network.paths.values():
        first = p.links[0]
        key = (links[first].from_node, first)
        buf = buffers.setdefault(key, {"paths": [], "arr_p": {}, "sent": [0.0] * (K + 1),
                                       "sent_p": {}})
        buf["paths"].append(p.id)
        buf["arr_p"][p.id] = np.concatenate(([0.0], np.cumsum(profile.rate(p.id)) * dt))
        buf["sent_p"][p.id] = [0.0] * (K + 1)
    for buf in buffers.values():
        buf["arr_total"] = sum(buf["arr_p"].values())

    # junction wiring: every node moving flow, with origin buffers as extra legs
    sink_nodes = {od.destination for od in network.ods.values()}
    node_plan = {}
    for node in sorted(network.nodes):
        in_links = [a for a in network.in_links(node) if paths_on[a]]
        bufs = [key for key in buffers if key[0] == node]
        if not in_links and not bufs:
            continue
        out_slots = list(network.out_links(node))
        has_sink = node in sink_nodes
        if has_sink:
            out_slots.append(SINK)
        out_index = {a: i for i, a in enumerate(out_slots)}
        node_signs = [
            (sg, affected_ods(network, sg)) for sg in network.signs if sg.junction == node
        ]
        node_signs = [(sg, aff) for sg, aff in node_signs if aff]
        # movement support per incoming leg, for turning-ratio carry-forward
        support = {}
        for a in in_links:
            tgt = {out_index[network.next_link(pid, a)] if network.next_link(pid, a) != SINK
                   else out_index[SINK] for pid in paths_on[a]}
            support[a] = sorted(tgt)
        node_plan[node] = {
            "in_links": in_links,
            "buffers": bufs,
            "out_slots": out_slots,
            "out_index": out_index,
            "signs": node_signs,
            "support": support,
        }

    ratio_store = {
        node: {a: {out: np.zeros(K) for out in plan["out_slots"]} for a in plan["in_links"]}
        for node, plan in node_plan.items()
    }
    last_ratio = {}
    for node, plan in node_plan.items():
        for a in plan["in_links"]:
            sup = plan["support"][a] or list(range(len(plan["out_slots"])))
            last_ratio[(node, a)] = {e: 1.0 / len(sup) for e in sup}

    arrivals_by_path = {pid: 0.0 for pid in network.paths}

    def curve_at(arr, pos):
        if pos <= 0.0:
            return arr[0]
        n = len(arr) - 1
        if pos >= n:
            return arr[n]
        i = int(pos)
        return arr[i] + (arr[i + 1] - arr[i]) * (pos - i)

    def invert_pos(arr, level, hi):
        """Fractional edge position where the list curve first reaches `level`."""
        i = bisect.bisect_left(arr, level, 0, hi + 1)
        if i == 0:
            return 0.0
        denom = arr[i] - arr[i - 1]
        if denom <= 0:
            return float(i)
        return (i - 1) + (level - arr[i - 1]) / denom

    for k in range(K):
        t_mid = grid.t0 + (k + 0.5) * dt
        # carry all cumulative curves forward one edge
        for a in links:
            up[a][k + 1] = up[a][k]
            dn[a][k + 1] = dn[a][k]
            for arr in up_p[a].values():
                arr[k + 1] = arr[k]
            for arr in dn_p[a].values():
                arr[k + 1] = arr[k]
        for buf in buffers.values():
            buf["sent"][k + 1] = buf["sent"][k]
            for arr in buf["sent_p"].values():
                arr[k + 1] = arr[k]

        for node, plan in node_plan.items():
            out_slots = plan["out_slots"]
            out_index = plan["out_index"]
            n_out = len(out_slots)

            legs = []  # (kind, id, S, batch {path: amount}, weight)
            for a in plan["in_links"]:
                cap_flow = links[a].capacity * dt
                # lags are >= one bin by validation; the min() guards float spill
                avail = curve_at(up[a], min((k + 1) - lag_f[a], k)) - dn[a][k]
                S = min(cap_flow, avail)
                if S < _TINY:
                    legs.append(("link", a, 0.0, {}, links[a].capacity))
                    continue
                pos = invert_pos(up[a], dn[a][k] + S, k + 1)
                batch = {}
                for pid in paths_on[a]:
                    amt = curve_at(up_p[a][pid], pos) - dn_p[a][pid][k]
                    if amt > _TINY:
                        batch[pid] = amt
                legs.append(("link", a, S, batch, links[a].capacity))
            for key in plan["buffers"]:
                buf = buffers[key]
                batch = {}
                S = 0.0
                for pid in buf["paths"]:
                    amt = buf["arr_p"][pid][k + 1] - buf["sent_p"][pid][k]
                    if amt > _TINY:
                        batch[pid] = amt
                        S += amt
                legs.append(("buffer", key, S, batch, links[key[1]].capacity))

            if all(leg[2] <= _TINY for leg in legs):
                for a in plan["in_links"]:
                    for e, r in last_ratio[(node, a)].items():
                        ratio_store[node][a][out_slots[e]][k] = r
                continue

            # route each leg's batch to outgoing slots, applying VMS diversion
            routed = []  # per leg: {out slot index: {label: amount}}
            for kind, ident, S, batch, _w in legs:
                dest = {}
                for pid, amt in batch.items():
                    nxt = network.next_link(pid, ident) if kind == "link" else ident[1]
                    slot = dest.setdefault(out_index[nxt], {})
                    slot[pid] = slot.get(pid, 0.0) + amt
                routed.append(dest)
            for sg, aff in plan["signs"]:
                for i, (kind, ident, S, batch, _w) in enumerate(legs):
                    if kind != "link" or ident != sg.host_link:
                        continue
                    e_from = out_index.get(sg.from_link)
                    e_to = out_index.get(sg.to_link)
                    if e_from is None or e_to is None:
                        continue
                    for od, (fset, nfset) in aff.items():
                        cr = cr_map.get((od, sg.id), 0.0)
                        for pid in nfset:
                            amt = routed[i].get(e_from, {}).get(pid, 0.0)
                            if amt <= _TINY:
                                continue
                            # a not-follow label sends nothing toward the recommended link
                            kept, moved = revise_turning_ratios(amt, 0.0, cr, t_mid, sg.omega)
                            if moved == 0.0:
                                continue
                            routed[i][e_from][pid] = kept
                            share = moved / len(fset)
                            slot = routed[i].setdefault(e_to, {})
                            for fp in fset:
                                slot[fp] = slot.get(fp, 0.0) + share

            # revised turning ratios (demand shares before any throttling)
            oriented = []
            for i, dest in enumerate(routed):
                row = [0.0] * n_out
                for e, labels in dest.items():
                    row[e] = sum(labels.values())
                oriented.append(row)
            for i, (kind, ident, S, batch, _w) in enumerate(legs):
                if kind != "link":
                    continue
                total = sum(oriented[i])
                if total > _TINY:
                    ratios = {e: oriented[i][e] / total for e in range(n_out) if oriented[i][e] > 0}
                    last_ratio[(node, ident)] = ratios
                for e, r in last_ratio[(node, ident)].items():
                    ratio_store[node][ident][out_slots[e]][k] = r

            receiving = []
            for out in out_slots:
                if out == SINK:
                    receiving.append(math.inf)
                else:
                    lk = links[out]
                    space = curve_at(dn[out], min((k + 1) - lag_w[out], k)) + lk.storage - up[out][k]
                    receiving.append(max(0.0, min(lk.capacity * dt, space)))

            sending = [sum(oriented[i]) for i in range(len(legs))]
            weights = [leg[4] for leg in legs]
            theta = solve_junction(sending, receiving, oriented, weights)

            for i, (kind, ident, S, batch, _w) in enumerate(legs):
                th = theta[i]
                if th <= 0.0 or sending[i] <= _TINY:
                    continue
                moved_total = 0.0
                if kind == "link":
                    for pid, amt in batch.items():
                        mv = th * amt
                        dn_p[ident][pid][k + 1] += mv
                        moved_total += mv
                    dn[ident][k + 1] += moved_total
                else:
                    buf = buffers[ident]
                    for pid, amt in batch.items():
                        mv = th * amt
                        buf["sent_p"][pid][k + 1] += mv
                        moved_total += mv
                    buf["sent"][k + 1] += moved_total
                for e, labels in routed[i].items():
                    out = out_slots[e]
                    if out == SINK:
                        for pid, amt in labels.items():
                            arrivals_by_path[pid] += th * amt
                    else:
                        tot = 0.0
                        for pid, amt in labels.items():
                            mv = th * amt
                            up_p[out][pid][k + 1] += mv
                            tot += mv
                        up[out][k + 1] += tot

    residual_by_link = {a: up[a][K] - dn[a][K] for a in links}
    residual_buffers = {key: buf["arr_total"][K] - buf["sent"][K] for key, buf in buffers.items()}
    warnings = []
    total_q = float(sum(buf["arr_total"][K] for buf in buffers.values()))
    residual = sum(residual_by_link.values()) + sum(residual_buffers.values())
    if total_q > 0 and residual > residual_warn_fraction * total_q:
        warnings.append(
            f"{residual:.3f} vehicles ({residual / total_q:.2%} of demand) still in the network at tf"
        )

    result = DnlResult(
        network=network,
        grid=grid,
        up={a: np.asarray(v) for a, v in up.items()},
        down={a: np.asarray(v) for a, v in dn.items()},
        up_by_path={a: {pid: np.asarray(v) for pid, v in d.items()} for a, d in up_p.items()},
        buffers={
            key: {
                "arr_total": np.asarray(buf["arr_total"]),
                "entered": np.asarray(buf["sent"]),
            }
            for key, buf in buffers.items()
        },
        turning_ratios=ratio_store,
        arrivals_by_path=arrivals_by_path,
        residual_by_link=residual_by_link,
        residual_buffers=residual_buffers,
        warnings=warnings,
    )
    return result
