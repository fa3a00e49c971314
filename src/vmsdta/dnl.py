"""Within-day dynamic network loading.

Kinematic-wave link dynamics are realized with the link transmission model on
a triangular fundamental diagram: cumulative curves at both link ends, sending
flow limited by capacity and the free-flow wave, receiving flow by capacity
and the backward wave.  Junctions follow the first-order node model of
Tampere et al. (2011) with capacity-proportional priorities: each incoming leg
moves as one FIFO column, and congested outgoing links are shared in
proportion to the legs' capacities (at congested junctions where a leg
splits, this loads differently from the ad hoc split of earlier versions).
Every incoming leg is a pair of cumulative curves: a link, or the unbounded
origin queue in front of a first link, whose inflow is the departures and
which has no traversal time, so origin queueing counts toward path travel
times through the same exit-time function as a link.
Flow is tracked per path on every leg, which yields the base turning ratios;
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
    """Cumulative curves, exit-time functions and realized turning ratios.

    ``up``, ``down`` and ``up_by_path`` are keyed by leg: a link id, or
    ``(origin, first link)`` for the origin queue feeding that first link.  A
    queue's ``up`` is the cumulative departures and its ``down`` the vehicles
    that have entered the first link.  ``turning_ratios`` covers links only.
    """

    network: Network
    grid: TimeGrid
    up: dict  # leg -> np.ndarray of cumulative inflow at edges
    down: dict  # leg -> cumulative outflow at edges
    up_by_path: dict  # leg -> {path: np.ndarray}
    turning_ratios: dict  # node -> {in_link: {out: np.ndarray over bins}}
    total_arrived: float  # vehicles delivered to their destinations
    warnings: list = field(default_factory=list)
    extrapolated_queries: int = 0

    def __post_init__(self):
        self._edges = self.grid.edges()
        links = self.network.links
        self._queues = [leg for leg in self.up if leg not in links]
        # free-flow time and capacity per leg; a queue takes no time to cross
        # and drains at most at its first link's capacity
        self._fft_cap = {a: (lk.fft, lk.capacity) for a, lk in links.items()}
        self._fft_cap.update({q: (0.0, links[q[1]].capacity) for q in self._queues})
        self._partial_cache = {}
        self._path_time_cache = None

    # -- scalar bookkeeping ---------------------------------------------------

    @property
    def total_departed(self) -> float:
        return float(sum(self.up[q][-1] for q in self._queues))

    @property
    def total_residual(self) -> float:
        def left(legs):
            return sum(self.up[a][-1] - self.down[a][-1] for a in legs)

        return float(left(self.network.links) + left(self._queues))

    def link_inflow(self, link_id) -> np.ndarray:
        """Vehicles entering the link per bin."""
        return np.diff(self.up[link_id])

    # -- exit-time functions ----------------------------------------------------

    def mu(self, leg, t):
        """Leg exit time for entry at t (vectorized, linear interpolation).

        Entries whose exit level lies beyond the horizon drain at capacity
        past tf; entries after tf traverse at free flow.  Both are flagged via
        ``extrapolated_queries``.
        """
        fft, cap = self._fft_cap[leg]
        t_arr = np.asarray(t, dtype=float)
        x = np.interp(t_arr, self._edges, self.up[leg])
        exit_t = self._invert(self.down[leg], x, cap)
        late = t_arr > self.grid.tf
        if np.any(late):
            self.extrapolated_queries += int(np.count_nonzero(late))
            exit_t = np.where(late, t_arr + fft, exit_t)
        out = np.maximum(exit_t, t_arr + fft)
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

    def compose_exit(self, legs, t):
        """Successive composition of the legs' exit-time functions."""
        cur = np.asarray(t, dtype=float)
        for a in legs:
            cur = self.mu(a, cur)
        return cur

    def path_travel_time(self, path_id, t):
        """Door-to-door travel time from departure at t, origin queueing included."""
        p = self.network.paths[path_id]
        queue = (self.network.links[p.links[0]].from_node, p.links[0])
        return self.compose_exit((queue,) + p.links, t) - np.asarray(t, dtype=float)

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
    missing pairs default to zero diversion.  Returns the legs' cumulative
    curves, exit times and realized turning ratios.  A warning is recorded
    when more than ``residual_warn_fraction`` of the demand is still in the
    network at tf.
    """
    cr_map = dict(compliance_rates or {})
    for key, cr in cr_map.items():
        if not 0.0 <= cr <= 1.0:
            raise DnlError(f"compliance rate {cr} for {key} outside [0, 1]")

    K = grid.n_bins
    dt = grid.dt
    links = network.links

    # legs: every link, then one origin queue (origin, first link) per first
    # link.  A queue is a curve pair like a link whose inflow is the
    # departures; it has no traversal time and no capacity of its own.
    paths_on = {a: [] for a in links}
    for p in network.paths.values():
        for a in p.links:
            paths_on[a].append(p.id)
        paths_on.setdefault((links[p.links[0]].from_node, p.links[0]), []).append(p.id)
    queues = list(paths_on)[len(links):]

    # cumulative curves as plain lists for fast scalar access
    up = {leg: [0.0] * (K + 1) for leg in paths_on}
    dn = {leg: [0.0] * (K + 1) for leg in paths_on}
    up_p = {leg: {pid: [0.0] * (K + 1) for pid in pids} for leg, pids in paths_on.items()}
    dn_p = {leg: {pid: [0.0] * (K + 1) for pid in pids} for leg, pids in paths_on.items()}
    for q in queues:
        departed = {pid: np.concatenate(([0.0], np.cumsum(profile.rate(pid)) * dt))
                    for pid in paths_on[q]}
        up[q] = sum(departed.values()).tolist()
        up_p[q] = {pid: arr.tolist() for pid, arr in departed.items()}

    # per-leg tables; lags are >= one bin by validation, the floor absorbs float spill
    lag = {a: max(1.0, lk.fft / dt) for a, lk in links.items()}
    lag_w = {a: max(1.0, (lk.length / lk.w) / dt) for a, lk in links.items()}
    cap_flow = {a: lk.capacity * dt for a, lk in links.items()}
    weight = {a: lk.capacity for a, lk in links.items()}
    for q in queues:
        lag[q], cap_flow[q], weight[q] = 0.0, math.inf, links[q[1]].capacity

    # junction wiring: every node moving flow; incoming links first, then queues
    sink_nodes = {od.destination for od in network.ods.values()}
    node_plan = {}
    step = {}  # leg -> {path: index of its next slot at the leg's downstream node}
    ratio_store = {}  # node -> {in_link: {out: ratio per bin}}
    last_ratio = {}  # (node, in_link) -> {slot index: ratio}, carried through idle bins
    for node in sorted(network.nodes):
        in_links = [a for a in network.in_links(node) if paths_on[a]]
        legs = in_links + [q for q in queues if q[0] == node]
        if not legs:
            continue
        out_slots = list(network.out_links(node))
        if node in sink_nodes:
            out_slots.append(SINK)
        out_index = {a: i for i, a in enumerate(out_slots)}
        for leg in legs:
            step[leg] = {pid: out_index[network.next_link(pid, leg) if leg in links else leg[1]]
                         for pid in paths_on[leg]}
        ratio_store[node] = {a: {out: np.zeros(K) for out in out_slots} for a in in_links}
        for a in in_links:
            support = sorted(set(step[a].values()))
            last_ratio[(node, a)] = {e: 1.0 / len(support) for e in support}
        signs = []
        for sg in network.signs:
            aff = affected_ods(network, sg) if sg.junction == node else {}
            if aff:
                crs = [(cr_map.get((od, sg.id), 0.0), fset, nfset) for od, (fset, nfset) in aff.items()]
                signs.append((legs.index(sg.host_link), out_index[sg.from_link],
                              out_index[sg.to_link], sg.omega, crs))
        node_plan[node] = {
            "in_links": in_links,
            "legs": legs,
            "weights": [weight[leg] for leg in legs],
            "out_slots": out_slots,
            "signs": signs,
        }

    # the curves each bin carries one edge forward: queues' inflows are filled
    # already, and links no path uses stay zero
    carry = []
    for leg, pids in paths_on.items():
        if pids:
            carry += [dn[leg], *dn_p[leg].values()]
            if leg in links:
                carry += [up[leg], *up_p[leg].values()]
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
        """Fractional edge position (at most hi) where the list curve first reaches `level`."""
        i = bisect.bisect_left(arr, level, 0, hi + 1)
        if i == 0:
            return 0.0
        if i > hi:
            return float(hi)
        denom = arr[i] - arr[i - 1]
        if denom <= 0:
            return float(i)
        return (i - 1) + (level - arr[i - 1]) / denom

    for k in range(K):
        t_mid = grid.t0 + (k + 0.5) * dt
        for arr in carry:
            arr[k + 1] = arr[k]

        for node, plan in node_plan.items():
            out_slots = plan["out_slots"]
            n_out = len(out_slots)

            batches = []  # per leg: {path: amount} it could send
            for leg in plan["legs"]:
                S = min(cap_flow[leg], curve_at(up[leg], (k + 1) - lag[leg]) - dn[leg][k])
                batch = {}
                if S >= _TINY:
                    pos = invert_pos(up[leg], dn[leg][k] + S, k + 1)
                    for pid in paths_on[leg]:
                        amt = curve_at(up_p[leg][pid], pos) - dn_p[leg][pid][k]
                        if amt > _TINY:
                            batch[pid] = amt
                batches.append(batch)

            if not any(batches):
                for a in plan["in_links"]:
                    for e, r in last_ratio[(node, a)].items():
                        ratio_store[node][a][out_slots[e]][k] = r
                continue

            # route each leg's batch to outgoing slots, applying VMS diversion
            routed = []  # per leg: {out slot index: {label: amount}}
            for leg, batch in zip(plan["legs"], batches):
                dest = {}
                for pid, amt in batch.items():
                    slot = dest.setdefault(step[leg][pid], {})
                    slot[pid] = slot.get(pid, 0.0) + amt
                routed.append(dest)
            for i, e_from, e_to, omega, crs in plan["signs"]:
                for cr, fset, nfset in crs:
                    for pid in nfset:
                        amt = routed[i].get(e_from, {}).get(pid, 0.0)
                        if amt <= _TINY:
                            continue
                        # a not-follow label sends nothing toward the recommended link
                        kept, moved = revise_turning_ratios(amt, 0.0, cr, t_mid, omega)
                        if moved == 0.0:
                            continue
                        routed[i][e_from][pid] = kept
                        share = moved / len(fset)
                        slot = routed[i].setdefault(e_to, {})
                        for fp in fset:
                            slot[fp] = slot.get(fp, 0.0) + share

            # revised turning ratios (demand shares before any throttling)
            oriented = []
            for dest in routed:
                row = [0.0] * n_out
                for e, labels in dest.items():
                    row[e] = sum(labels.values())
                oriented.append(row)
            for i, a in enumerate(plan["in_links"]):
                total = sum(oriented[i])
                if total > _TINY:
                    last_ratio[(node, a)] = {e: oriented[i][e] / total
                                             for e in range(n_out) if oriented[i][e] > 0}
                for e, r in last_ratio[(node, a)].items():
                    ratio_store[node][a][out_slots[e]][k] = r

            receiving = []
            for out in out_slots:
                if out == SINK:
                    receiving.append(math.inf)
                else:
                    space = curve_at(dn[out], (k + 1) - lag_w[out]) + links[out].storage - up[out][k]
                    receiving.append(max(0.0, min(cap_flow[out], space)))

            sending = [sum(row) for row in oriented]
            theta = solve_junction(sending, receiving, oriented, plan["weights"])

            for i, (leg, batch) in enumerate(zip(plan["legs"], batches)):
                th = theta[i]
                if th <= 0.0 or sending[i] <= _TINY:
                    continue
                moved_total = 0.0
                for pid, amt in batch.items():
                    mv = th * amt
                    dn_p[leg][pid][k + 1] += mv
                    moved_total += mv
                dn[leg][k + 1] += moved_total
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

    result = DnlResult(
        network=network,
        grid=grid,
        up={leg: np.asarray(v) for leg, v in up.items()},
        down={leg: np.asarray(v) for leg, v in dn.items()},
        up_by_path={leg: {pid: np.asarray(v) for pid, v in d.items()} for leg, d in up_p.items()},
        turning_ratios=ratio_store,
        total_arrived=float(sum(arrivals_by_path.values())),
    )
    departed, residual = result.total_departed, result.total_residual
    if departed > 0 and residual > residual_warn_fraction * departed:
        result.warnings.append(
            f"{residual:.3f} vehicles ({residual / departed:.2%} of demand) still in the network at tf"
        )
    return result
