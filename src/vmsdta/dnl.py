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

Curves are arrays, one row per leg and per (leg, path); every lag is at least
one bin, so each bin is one array step over all junctions, with one
``solve_junction`` call when flow is offered.  The loader labels each leg and
slot with its junction once, and the node model runs per junction on those
labels.  Bins before the first departure, and after a quiet spell longer than
every lag once the last departure has passed, would move nothing and are
skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import SINK, Network, TimeGrid, DepartureProfile, in_omega

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


def _finite_rounds(sending, receiving, oriented, weights):
    """Tampere et al.'s rounds on one junction's legs and slots (plain lists)."""
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


def solve_junction(sending, receiving, oriented, weights, leg_node=None, slot_node=None):
    """Fraction of each incoming leg's sending flow admitted through its junction.

    ``oriented[i][e]`` is leg i's demand toward outgoing slot e (sums to
    sending[i]); ``weights`` are the legs' capacities, which set their
    priorities.  ``leg_node`` and ``slot_node`` label each leg and slot with
    its junction; left out, all legs and slots form one junction.  Where no
    slot is asked for more than it receives, every leg moves in full.
    Otherwise each junction that holds an over-subscribed slot is solved on
    its own, in index order, by the finite algorithm of Tampere, Corthout,
    Cattrysse & Immers (2011) for FIFO legs with capacity-proportional
    priorities: each round finds the open slot that admits the smallest flow
    per unit priority, then either admits in full every leg whose demand fits
    under that rate or throttles the legs feeding that slot to it and closes
    the slot.  Every round fixes at least one leg.  Returns an array.
    """
    sending = np.asarray(sending, dtype=float)
    receiving = np.asarray(receiving, dtype=float)
    oriented = np.asarray(oriented, dtype=float).reshape(len(sending), len(receiving))
    theta = np.ones(len(sending))
    over = oriented.sum(axis=0) > receiving
    if not over.any():
        return theta
    leg_node = np.zeros(len(sending)) if leg_node is None else np.asarray(leg_node)
    slot_node = np.zeros(len(receiving)) if slot_node is None else np.asarray(slot_node)
    weights = np.asarray(weights, dtype=float)
    for node in np.unique(slot_node[over]):
        li, si = np.flatnonzero(leg_node == node), np.flatnonzero(slot_node == node)
        theta[li] = _finite_rounds(sending[li].tolist(), receiving[si].tolist(),
                                   oriented[np.ix_(li, si)].tolist(), weights[li].tolist())
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

    Traversal times compose the legs' exit-time functions ``mu`` along chains
    of legs (a path's legs for ``path_times``, its links downstream of a node
    for ``partial_traversal_time``) in one walk, which calls ``mu`` once per
    distinct leg at each position on the stacked times of the chains there.
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
        # each path's legs: its origin queue, then its links
        self._legs = {pid: ((links[p.links[0]].from_node, p.links[0]),) + p.links
                      for pid, p in self.network.paths.items()}

    # -- scalar bookkeeping ---------------------------------------------------

    @property
    def total_departed(self) -> float:
        return float(sum(self.up[q][-1] for q in self._queues))

    @property
    def total_residual(self) -> float:
        def left(legs):
            return sum(self.up[a][-1] - self.down[a][-1] for a in legs)

        return float(left(self.network.links) + left(self._queues))

    # -- exit-time functions ----------------------------------------------------

    def mu(self, leg, t):
        """Leg exit times for entries at the times t (an array; linear interpolation).

        Entries whose exit level lies beyond the horizon drain at capacity
        past tf; entries after tf traverse at free flow.  Each such entry
        counts once in ``extrapolated_queries``.
        """
        fft, cap = self._fft_cap[leg]
        t_arr = np.asarray(t, dtype=float)
        exit_t, over = self._invert(self.down[leg], np.interp(t_arr, self._edges, self.up[leg]), cap)
        late = t_arr > self.grid.tf
        self.extrapolated_queries += int(np.count_nonzero(over | late))
        return np.maximum(np.where(late, t_arr + fft, exit_t), t_arr + fft)

    def _invert(self, curve, x, cap):
        """First times the cumulative curve reaches the levels x, and which lie past tf."""
        # curves on different links accumulate independently; absorb float drift
        # before declaring a level unreachable within the horizon
        tol = 1e-9 * max(1.0, abs(float(curve[-1])))
        x_arr = np.where(x <= curve[-1] + tol, np.minimum(x, curve[-1]), x)
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
            res[over] = self.grid.tf + (x_arr[over] - curve[-1]) / cap
        return res, over

    def _traverse(self, chains, t):
        """Time to traverse each key's chain of legs, entering the first at t; ``mu``
        is elementwise, so each key's times are those of its chain composed alone."""
        times = dict.fromkeys(chains, t)
        todo = {key: legs for key, legs in chains.items() if legs}
        while todo:
            at = {}
            for key, legs in todo.items():
                at.setdefault(legs[0], []).append(key)
            for leg, keys in at.items():
                out = self.mu(leg, np.concatenate([times[key] for key in keys]))
                times.update(zip(keys, out.reshape(len(keys), -1)))
            todo = {key: legs[1:] for key, legs in todo.items() if len(legs) > 1}
        return {key: exit_t - t for key, exit_t in times.items()}

    def path_times(self) -> dict:
        """Travel time per path, origin queueing included, at each departure-bin midpoint."""
        return self._traverse(self._legs, self.grid.mids())

    def partial_traversal_time(self, node, path_ids, t) -> dict:
        """Traversal time from `node` to each path's destination, leaving `node`
        at the times t (an array); ``{path: times}``."""
        tails = {pid: self.network.tail_links(pid, node) for pid in path_ids}
        return self._traverse(tails, np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# the loader


def _lag_table(bases, lags, K):
    """Per bin, flat indices of the edge pair around ``(k+1) - lag`` and its weight,
    read as ``a + (b - a) * frac``; positions outside (0, K) read edge 0 or K."""
    pos = np.arange(1, K + 1, dtype=float)[:, None] - lags[None, :]
    edge = np.clip(np.floor(pos), 0, K)
    frac = np.where((pos > 0) & (pos < K), pos - edge, 0.0)
    idx = bases[None, :] + edge.astype(np.intp)
    return np.stack([idx, idx + 1], axis=-1), frac


def run_dnl(network: Network, grid: TimeGrid, profile: DepartureProfile,
            compliance_rates=None, residual_warn_fraction: float = 0.005) -> DnlResult:
    """Propagate the departure profile through the network for one day.

    ``compliance_rates`` maps keys of ``network.pairs`` to the day's CR in
    [0, 1]; missing pairs default to zero diversion, and any other key is a
    ``DnlError``.  Returns the legs' cumulative curves, exit times and
    realized turning ratios.  A warning is recorded when more than
    ``residual_warn_fraction`` of the demand is still in the network at tf.
    """
    cr_map = dict(compliance_rates or {})
    for key, cr in cr_map.items():
        if key not in network.pairs:
            raise DnlError(f"compliance rate for {key}: not an affected (O-D, sign) pair")
        if not 0.0 <= cr <= 1.0:
            raise DnlError(f"compliance rate {cr} for {key} outside [0, 1]")

    K, dt = grid.n_bins, grid.dt
    W = K + 2  # a curve row: edges 0..K, then one pad edge read with weight 0
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

    # junction order: nodes sorted; at each, its used in-links, then its
    # queues, and its out-links, then SINK at a destination.  Rows hold the
    # used links first, then the queues, then the links no path uses.
    sink_nodes = {od.destination for od in network.ods.values()}
    in_legs, q_legs, slots, node_legs = [], [], [], {}
    for node in sorted(network.nodes):
        in_links = [a for a in network.in_links(node) if paths_on[a]]
        node_q = [q for q in queues if q[0] == node]
        if in_links or node_q:
            node_legs[node] = in_links
            in_legs += in_links
            q_legs += node_q
            slots += [(node, out) for out in network.out_links(node)]
            if node in sink_nodes:
                slots.append((node, SINK))
    # each leg's and slot's junction, numbered: a link's to-node, a queue's origin
    junction = {node: j for j, node in enumerate(node_legs)}
    leg_node = np.array([junction[links[a].to_node] for a in in_legs]
                        + [junction[origin] for origin, _ in q_legs])
    slot_node = np.array([junction[node] for node, _ in slots])
    n_in, legs = len(in_legs), in_legs + q_legs
    n_legs, n_slots = len(legs), len(slots)
    leg_ix = {leg: i for i, leg in enumerate(legs + [a for a in links if not paths_on[a]])}
    slot_ix = {s: j for j, s in enumerate(slots)}

    # (leg, path) rows and the (leg, slot) pairs their flow takes
    rows = [(leg, pid) for leg in legs for pid in paths_on[leg]]
    row_ix = {r: i for i, r in enumerate(rows)}
    n_in_rows = sum(len(paths_on[a]) for a in in_legs)
    row_slot = [slot_ix[(links[leg].to_node, network.next_link(pid, leg)) if leg in links else leg]
                for leg, pid in rows]
    pairs = sorted({(leg_ix[leg], e) for (leg, _), e in zip(rows, row_slot)})
    pair_ix = {pe: j for j, pe in enumerate(pairs)}
    n_in_pairs = sum(1 for i, _ in pairs if i < n_in)
    leg_of_row = np.array([leg_ix[leg] for leg, _ in rows], dtype=np.intp)
    pair_of_row = np.array([pair_ix[(leg_ix[leg], e)] for (leg, _), e in zip(rows, row_slot)],
                           dtype=np.intp)
    leg_of_pair = np.array([i for i, _ in pairs], dtype=np.intp)
    dense_of_pair = np.array([i * n_slots + e for i, e in pairs], dtype=np.intp)
    to_link = [j for j, (_, e) in enumerate(pairs) if slots[e][1] != SINK]
    into = np.array([leg_ix[slots[pairs[j][1]][1]] for j in to_link], dtype=np.intp)
    src, dst = np.array([(r, row_ix[(slots[e][1], pid)]) for r, ((_, pid), e)
                         in enumerate(zip(rows, row_slot)) if slots[e][1] != SINK],
                        dtype=np.intp).reshape(-1, 2).T

    # cumulative curves, leg-major; a queue's inflow is the departures
    U, D = np.zeros((2, len(leg_ix), W))
    UP, DP = np.zeros((2, len(rows), W))
    for q in q_legs:
        departed = {pid: np.concatenate(([0.0], np.cumsum(profile.rate(pid)) * dt))
                    for pid in paths_on[q]}
        U[leg_ix[q], :K + 1] = sum(departed.values())
        for pid, arr in departed.items():
            UP[row_ix[(q, pid)], :K + 1] = arr
    Uf, Df, UPf = U.ravel(), D.ravel(), UP.ravel()

    # per-leg tables; lags are >= one bin by validation, the floor absorbs float spill
    lag = np.array([max(1.0, links[a].fft / dt) for a in in_legs] + [0.0] * len(q_legs))
    cap = np.array([links[a].capacity * dt for a in in_legs] + [math.inf] * len(q_legs))
    weight = np.array([links[a].capacity for a in in_legs] + [links[q[1]].capacity for q in q_legs])
    base = np.arange(n_legs) * W
    row_base = np.arange(len(rows)) * W
    s_idx, s_frac = _lag_table(base, lag, K)
    out_slots = [j for j, (_, out) in enumerate(slots) if out != SINK]
    outs = [links[slots[j][1]] for j in out_slots]
    out_base = np.array([leg_ix[lk.id] * W for lk in outs], dtype=np.intp)
    lag_w = np.array([max(1.0, (lk.length / lk.w) / dt) for lk in outs])
    r_idx, r_frac = _lag_table(out_base, lag_w, K)
    storage = np.array([lk.storage for lk in outs])
    out_cap = np.array([lk.capacity * dt for lk in outs])
    receiving = np.full(n_slots, math.inf)

    # diversion: (cr, active set, not-follow rows, follow rows) at each host leg
    diversions = []
    for key, ctx in network.pairs.items():
        cr = cr_map.get(key, 0.0)
        if cr > 0.0:
            host = ctx.sign.host_link
            diversions.append((cr, ctx.sign.omega, [row_ix[(host, p)] for p in ctx.nfset],
                               [row_ix[(host, p)] for p in ctx.fset]))

    # nothing moves before the first departure; after the last one, a quiet
    # spell longer than every lag leaves each later bin the same inputs
    departing = np.flatnonzero(profile.rates.any(axis=0))
    first, last = (int(departing[0]), int(departing[-1])) if departing.size else (K, K)
    settle = math.ceil(max(lag.max(initial=1.0), lag_w.max(initial=1.0))) + 1
    quiet = 0
    ptr = np.ones(n_legs, dtype=np.intp)  # per leg: last bin's answer to the level search
    around, both = np.array([-1, 0, 1]), np.array([0, 1])  # edge offsets
    seen_o = np.zeros((K, n_in_pairs))  # oriented demand of in-link pairs per bin
    seen_s = np.zeros((K, n_in))

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(first, K):
            hi = k + 1
            U[:n_in, hi] = U[:n_in, k]
            UP[:n_in_rows, hi] = UP[:n_in_rows, k]
            dn_k = D[:n_legs, k]

            # sending flows, and the edge up to which each leg's batch entered
            g = Uf[s_idx[k]]
            S = np.minimum(cap, (g[:, 0] + (g[:, 1] - g[:, 0]) * s_frac[k]) - dn_k)
            active = S >= _TINY
            take = None
            if active.any():
                level = dn_k + S
                # first edge at or above the level, stepping from last bin's answer
                w = Uf[(base + ptr)[:, None] + around]
                below = w < level[:, None]
                n_below = below.sum(axis=1)
                at = ptr - 1 + n_below
                lost = active & ~(below[:, 0] & (n_below < 3))
                if lost.any():
                    at[lost] = (U[:n_legs][lost, :hi + 1] < level[lost, None]).sum(axis=1)
                ptr = np.where(active, at, ptr)
                a = Uf[(base + at - 1)[:, None] + both]
                pos = np.where(active & (at <= hi),
                               (at - 1) + (level - a[:, 0]) / (a[:, 1] - a[:, 0]), hi)
                # each path's part of its leg's batch
                pr = pos[leg_of_row]
                edge = pr.astype(np.intp)
                b = UPf[(row_base + edge)[:, None] + both]
                amt = (b[:, 0] + (b[:, 1] - b[:, 0]) * (pr - edge)) - DP[:, k]
                take = (amt > _TINY) & active[leg_of_row]
                if not take.any():
                    take = None

            if take is None:
                D[:n_legs, hi] = dn_k
                DP[:, hi] = DP[:, k]
                quiet += 1
                if k >= last and quiet >= settle:
                    U[:n_in, hi + 1:K + 1] = U[:n_in, hi, None]
                    UP[:n_in_rows, hi + 1:K + 1] = UP[:n_in_rows, hi, None]
                    D[:n_legs, hi + 1:K + 1] = D[:n_legs, hi, None]
                    DP[:, hi + 1:K + 1] = DP[:, hi, None]
                    break
                continue
            quiet = 0
            amt = np.where(take, amt, 0.0)

            # VMS diversion relabels not-follow flow to the follow paths
            routed = amt
            t_mid = grid.t0 + (k + 0.5) * dt
            for cr, omega, nf_rows, f_rows in diversions:
                if not in_omega(t_mid, omega):
                    continue
                for r in nf_rows:
                    if routed[r] <= _TINY:
                        continue
                    # a not-follow label sends nothing toward the recommended link
                    kept, moved = revise_turning_ratios(routed[r], 0.0, cr, t_mid, omega)
                    if moved == 0.0:
                        continue
                    if routed is amt:
                        routed = amt.copy()
                    routed[r] = kept
                    routed[f_rows] += moved / len(f_rows)

            # revised turning ratios (demand shares before any throttling)
            oriented = np.bincount(pair_of_row, routed, minlength=len(pairs))
            sending = np.bincount(leg_of_pair, oriented, minlength=n_legs)
            seen_o[k] = oriented[:n_in_pairs]
            seen_s[k] = sending[:n_in]

            g = Df[r_idx[k]]
            space = (g[:, 0] + (g[:, 1] - g[:, 0]) * r_frac[k]) + storage - Uf[out_base + k]
            receiving[out_slots] = np.maximum(0.0, np.minimum(out_cap, space))
            dense = np.zeros(n_legs * n_slots)
            dense[dense_of_pair] = oriented
            theta = solve_junction(sending, receiving, dense.reshape(n_legs, n_slots), weight,
                                   leg_node, slot_node)

            th = theta[leg_of_row]
            mv = th * amt
            DP[:, hi] = DP[:, k] + mv
            D[:n_legs, hi] = dn_k + np.bincount(leg_of_row, mv, minlength=n_legs)
            to_mv = mv if routed is amt else th * routed
            UP[dst, hi] = UP[dst, hi] + to_mv[src]
            total = np.bincount(pair_of_row, to_mv, minlength=len(pairs))
            # a link fed by several legs adds their flows in junction order
            np.add.at(U[:, hi], into, total[to_link])

        # turning ratios: each bin's demand shares, or the last ones (at first
        # an even split over the link's next slots) through bins without demand
        of_leg = leg_of_pair[:n_in_pairs]
        with_flow = seen_s[:, of_leg] > _TINY
        share = np.where(with_flow & (seen_o > 0), seen_o / seen_s[:, of_leg], 0.0)
    from_bin = np.maximum.accumulate(np.where(with_flow, np.arange(K)[:, None], -1), axis=0)
    held = np.take_along_axis(share, np.maximum(from_bin, 0), axis=0)
    spread = 1.0 / np.bincount(of_leg, minlength=n_in)[of_leg]
    # one row per in-link pair, and a last row of zeros for slots a link never feeds
    ratios = np.vstack([np.where(from_bin >= 0, held, spread).T, np.zeros((1, K))])
    turning_ratios = {node: {a: {out: ratios[pair_ix.get((leg_ix[a], slot_ix[(node, out)]), -1)]
                                 for n, out in slots if n == node} for a in in_links}
                      for node, in_links in node_legs.items()}

    result = DnlResult(
        network=network,
        grid=grid,
        up={leg: U[leg_ix[leg], :K + 1] for leg in paths_on},
        down={leg: D[leg_ix[leg], :K + 1] for leg in paths_on},
        up_by_path={leg: {pid: UP[row_ix[(leg, pid)], :K + 1] for pid in pids}
                    for leg, pids in paths_on.items()},
        turning_ratios=turning_ratios,
        total_arrived=float(sum(DP[row_ix[(p.links[-1], p.id)], K]
                                for p in network.paths.values())),
    )
    departed, residual = result.total_departed, result.total_residual
    if departed > 0 and residual > residual_warn_fraction * departed:
        result.warnings.append(
            f"{residual:.3f} vehicles ({residual / departed:.2%} of demand) still in the network at tf"
        )
    return result
