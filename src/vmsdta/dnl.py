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
``solve_junction`` call when flow is offered.  What depends only on the network
(legs, rows, (leg, slot) pairs, the junction table) is built once per network,
and what depends on the grid too (the lagged reads) once per network and grid;
per bin, one bincount finds the over-subscribed slots, and the node model's
rounds and the diversion run on Python floats.  Turning ratios are derived on
first read.  Bins before the first departure, and after a quiet spell longer
than every lag once the last departure has passed, are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .network import SINK, Network, TimeGrid, DepartureProfile, np

_TINY = 1e-15


class DnlError(Exception):
    """Network loading failed."""


# ---------------------------------------------------------------------------
# turning-ratio revision (the en-route diversion rule)


def revise_turning_ratios(alpha_from, alpha_to, cr):
    """Shift the compliant share of the discouraged movement to the recommended one.

    ``cr * alpha_from`` moves from the from-link ratio to the to-link ratio; the
    pair sum is preserved bit-for-bit and both outputs stay in [0, 1].  The
    loader applies the rule only in the bins where the sign is active.
    """
    if not 0.0 <= cr <= 1.0:
        raise ValueError(f"compliance rate {cr} outside [0, 1]")
    if cr == 0.0:
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


def junction_table(pairs, leg_junction, slot_junction, weights):
    """``solve_junction``'s table of (leg, slot) pairs, from each leg's and slot's junction
    label: each pair's slot, each slot's junction, and per junction its legs and slots in
    index order, the legs' weights and its pairs as (pair, row, column) of its block."""
    junctions = []
    for jn in range(max([*leg_junction, *slot_junction], default=-1) + 1):
        legs = [i for i, j in enumerate(leg_junction) if j == jn]
        slots = [e for e, j in enumerate(slot_junction) if j == jn]
        junctions.append((legs, slots, [weights[i] for i in legs], [
            (p, legs.index(i), slots.index(e)) for p, (i, e) in enumerate(pairs) if slot_junction[e] == jn]))
    return np.array([e for _, e in pairs], dtype=np.intp), list(slot_junction), junctions


def solve_junction(sending, receiving, oriented, table):
    """Fraction of each incoming leg's sending flow admitted through its junction.

    ``oriented[p]`` is the demand of pair p of the ``junction_table`` ``table``
    (a leg's pairs sum to its ``sending``); the legs' weights, their capacities,
    set their priorities.  Where no slot is asked for more than it receives,
    every leg moves in full.  Otherwise each junction that holds an
    over-subscribed slot is solved on its own by the finite algorithm of
    Tampere, Corthout, Cattrysse & Immers (2011) for FIFO legs with
    capacity-proportional priorities: each round finds the open slot that admits
    the smallest flow per unit priority, then either admits in full every leg
    whose demand fits under that rate or throttles the legs feeding that slot to
    it and closes the slot.  Every round fixes at least one leg.  Returns an array.
    """
    pair_slot, slot_junction, junctions = table
    over = (np.bincount(pair_slot, oriented, minlength=len(receiving)) > receiving).nonzero()[0]
    if not len(over):
        return np.ones(len(sending))
    s, r, o = sending.tolist(), receiving.tolist(), oriented.tolist()
    theta = [1.0] * len(s)
    for j in sorted({slot_junction[e] for e in over.tolist()}):
        legs, slots, weights, block = junctions[j]
        rows = [[0.0] * len(slots) for _ in legs]
        for p, i, e in block:
            rows[i][e] = o[p]
        for i, th in zip(legs, _finite_rounds([s[i] for i in legs], [r[e] for e in slots], rows, weights)):
            theta[i] = th
    return np.array(theta)


# ---------------------------------------------------------------------------
# result container


@dataclass
class DnlResult:
    """Cumulative curves, exit-time functions and realized turning ratios.

    ``up``, ``down`` and ``up_by_path`` are keyed by leg: a link id, or
    ``(origin, first link)`` for the origin queue feeding that first link.  A
    queue's ``up`` is the cumulative departures and its ``down`` the vehicles
    that have entered the first link.  Per path only a leg's inflow curve is
    kept; of its outflow only the total delivered, ``total_arrived``, remains.
    Links no path uses share one read-only zero curve.  ``oriented`` maps each bin with flow to each
    (leg, slot) pair's demand before any throttling; ``demand`` expands it, whence ``turning_ratios``.

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
    oriented: dict  # bin with flow -> demand per (leg, slot) pair
    total_arrived: float  # vehicles delivered to their destinations
    extrapolated_queries: int = 0

    def __post_init__(self):
        self._edges, self._tables = self.grid.edges(), self.network.loading

    @cached_property
    def demand(self) -> np.ndarray:
        none = np.zeros(len(self._tables.leg_of_pair))  # a bin without flow
        return np.array([self.oriented.get(k, none) for k in range(self.grid.n_bins)])

    @cached_property
    def turning_ratios(self) -> dict:
        """node -> {in_link: {out: ratio per bin}}: each bin's demand shares, or the
        last ones (at first an even split over the link's next slots) through bins
        without demand."""
        t, K = self._tables, self.grid.n_bins
        of_leg, seen_o = t.leg_of_pair[:t.n_in_pairs], self.demand[:, :t.n_in_pairs]
        sending = np.zeros((len(t.in_legs), K))
        np.add.at(sending, of_leg, seen_o.T)  # each link's sending flow, its pairs added in order as by bincount
        seen_s = sending[of_leg].T
        with_flow = seen_s > _TINY
        share = np.divide(seen_o, seen_s, out=np.zeros_like(seen_o), where=with_flow & (seen_o > 0))
        from_bin = np.maximum.accumulate(np.where(with_flow, np.arange(K)[:, None], -1), axis=0)
        held = np.take_along_axis(share, np.maximum(from_bin, 0), axis=0)
        spread = 1.0 / np.bincount(of_leg, minlength=len(t.in_legs))[of_leg]
        # one row per in-link pair, and a last row of zeros for slots a link never feeds
        ratios = np.vstack([np.where(from_bin >= 0, held, spread).T, np.zeros((1, K))])
        return {node: {a: {out: ratios[t.pair_ix.get((t.leg_ix[a], t.slot_ix[(node, out)]), -1)]
                           for n, out in t.slots if n == node} for a in in_links}
                for node, in_links in t.node_legs.items()}

    # -- scalar bookkeeping ---------------------------------------------------

    @property
    def total_departed(self) -> float:
        return float(sum(self.up[q][-1] for q in self._tables.queues))

    @property
    def total_residual(self) -> float:
        def left(legs):
            return sum(self.up[a][-1] - self.down[a][-1] for a in legs)

        return float(left(self.network.links) + left(self._tables.queues))

    # -- exit-time functions ----------------------------------------------------

    def mu(self, leg, t):
        """Leg exit times for entries at the times t (an array; linear interpolation):
        the first times the exit curve reaches the entry levels.

        Entries whose exit level lies beyond the horizon drain at capacity
        past tf; entries after tf traverse at free flow.  Each such entry
        counts once in ``extrapolated_queries``.
        """
        fft, cap = self._tables.fft_cap[leg]
        curve, t = self.down[leg], np.asarray(t, dtype=float)
        x = np.interp(t, self._edges, self.up[leg])
        # curves on different links accumulate independently; absorb float drift
        # before declaring a level unreachable within the horizon (a nan level is too)
        top = float(curve[-1])
        over = ~(x <= top + 1e-9 * max(1.0, abs(top)))
        level = np.fmin(x, top)
        idx = np.searchsorted(curve, level, side="left")  # at most K: no level is above the top
        lo = np.maximum(idx - 1, 0)
        below = curve[lo]
        denom = curve[idx] - below
        with np.errstate(divide="ignore", invalid="ignore"):  # flat segments: the quotient is discarded
            exit_t = self._edges[lo] + np.where(denom > 0, (level - below) / denom, 0.0) * self.grid.dt
        if over.any():
            exit_t[over] = self.grid.tf + (x[over] - top) / cap
        late = t > self.grid.tf
        self.extrapolated_queries += int(np.count_nonzero(over | late))
        free = t + fft
        return np.maximum(np.where(late, free, exit_t), free)

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
        return self._traverse(self._tables.chains, self.grid.mids())

    def partial_traversal_time(self, node, path_ids, t) -> dict:
        """Traversal time from `node` to each path's destination, leaving `node`
        at the times t (an array); ``{path: times}``."""
        tails = {pid: self.network.tail_links(pid, node) for pid in path_ids}
        return self._traverse(tails, np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# the loader


class LoadingTables:
    """The loader's tables for one network, which depend on no grid, profile or CR
    (``network.loading`` builds them once), and per grid its ``_grid_tables``.  Legs are the links paths use, then one
    origin queue ``(origin, first link)`` per first link; a queue is a curve pair like a link whose
    inflow is the departures.  A link no path uses has no curves, and its slots receive without bound."""

    def __init__(self, network: Network):
        links = network.links
        self.paths_on = paths_on = {a: [] for a in links}
        for p in network.paths.values():
            for a in p.links:
                paths_on[a].append(p.id)
            paths_on.setdefault((links[p.links[0]].from_node, p.links[0]), []).append(p.id)
        self.queues = list(paths_on)[len(links):]
        # per leg its free-flow time and capacity (a queue's: 0, its first link's); per path its legs
        self.fft_cap = {a: (lk.fft, lk.capacity) for a, lk in links.items()}
        self.fft_cap.update({q: (0.0, links[q[1]].capacity) for q in self.queues})
        self.chains = {pid: ((links[p.links[0]].from_node, p.links[0]),) + p.links
                       for pid, p in network.paths.items()}

        # junction order: nodes sorted; at each, its used in-links, then its
        # queues, and its out-links, then SINK at a destination
        sink_nodes = {od.destination for od in network.ods.values()}
        in_legs, q_legs, slots, self.node_legs = [], [], [], {}
        for node in sorted(network.nodes):
            in_links = [a for a in network.in_links(node) if paths_on[a]]
            node_q = [q for q in self.queues if q[0] == node]
            if in_links or node_q:
                self.node_legs[node] = in_links
                in_legs += in_links
                q_legs += node_q
                slots += [(node, out) for out in network.out_links(node)]
                if node in sink_nodes:
                    slots.append((node, SINK))
        self.in_legs, self.q_legs, self.slots = in_legs, q_legs, slots
        legs = in_legs + q_legs
        self.leg_ix = leg_ix = {leg: i for i, leg in enumerate(legs)}
        self.slot_ix = slot_ix = {s: j for j, s in enumerate(slots)}
        self.out_slots = [j for j, (_, out) in enumerate(slots) if out != SINK and paths_on[out]]
        self.outs = [links[slots[j][1]] for j in self.out_slots]

        # (leg, path) rows, the (leg, slot) pairs their flow takes, and the row
        # one leg upstream that feeds each link's row (a link's rows come first)
        self.rows = rows = [(leg, pid) for leg in legs for pid in paths_on[leg]]
        self.row_ix = row_ix = {r: i for i, r in enumerate(rows)}
        row_slot = [slot_ix[(links[leg].to_node, network.next_link(pid, leg)) if leg in links else leg]
                    for leg, pid in rows]
        pairs = sorted({(leg_ix[leg], e) for (leg, _), e in zip(rows, row_slot)})
        self.pair_ix = {pe: j for j, pe in enumerate(pairs)}
        self.n_in_pairs = sum(1 for i, _ in pairs if i < len(in_legs))
        self.leg_of_row = np.array([leg_ix[leg] for leg, _ in rows], dtype=np.intp)
        self.pair_of_row = np.array([self.pair_ix[(leg_ix[leg], e)] for (leg, _), e in zip(rows, row_slot)],
                                    dtype=np.intp)
        self.leg_of_pair = np.array([i for i, _ in pairs], dtype=np.intp)
        self.to_link = [j for j, (_, e) in enumerate(pairs) if slots[e][1] != SINK]
        self.into = np.array([leg_ix[slots[pairs[j][1]][1]] for j in self.to_link], dtype=np.intp)
        feeder = {(slots[e][1], pid): r for r, ((_, pid), e) in enumerate(zip(rows, row_slot))}
        self.src_of_row = np.array([feeder[r] for r in rows if r[0] in links], dtype=np.intp)
        # each leg's and slot's junction, numbered: a link's to-node, a queue's origin
        junction = {node: j for j, node in enumerate(self.node_legs)}
        self.junctions = junction_table(
            pairs, [junction[links[a].to_node] for a in in_legs] + [junction[o] for o, _ in q_legs],
            [junction[node] for node, _ in slots],
            [links[a].capacity for a in in_legs] + [links[q[1]].capacity for q in q_legs])
        self.on_grid = {}  # grid -> _grid_tables(self, grid)


def _grid_tables(t, grid):
    """The loader's tables for one network (its ``LoadingTables`` t) on one grid, which no
    loading writes: per leg its capacity per bin; the flat offsets of the legs', the
    (leg, path) rows' and the used out-links' curves; per out-link its storage and capacity
    per bin; the lagged reads, each the edge a before ``(k+1) - lag`` (per bin, in the
    smallest unsigned type that holds K, added to the read's flat curve start) and a weight,
    read with the next edge b as ``a + (b - a) * frac`` (positions outside (0, K) read
    edge 0 or K); and the quiet spell after which every bin repeats the last."""
    K, dt = grid.n_bins, grid.dt
    W = K + 2  # run_dnl's curve row
    # lags are >= one bin by validation, the floor absorbs float spill
    lag = np.array([max(1.0, t.fft_cap[a][0] / dt) for a in t.in_legs] + [0.0] * len(t.q_legs))
    lag_w = np.array([max(1.0, (lk.length / lk.w) / dt) for lk in t.outs])
    base, row_base = np.arange(len(lag)) * W, np.arange(len(t.rows)) * W
    out_base = np.array([t.leg_ix[lk.id] * W for lk in t.outs], dtype=np.intp)
    # per bin: each leg's inflow curve a free-flow lag back (sending), then
    # each out-link's outflow curve a backward-wave lag back (receiving)
    pos = np.arange(1, K + 1, dtype=float)[:, None] - np.concatenate([lag, lag_w])[None, :]
    edge = np.clip(np.floor(pos), 0, K)
    frac = np.where((pos > 0) & (pos < K), pos - edge, 0.0)
    start = np.concatenate([base, len(t.leg_ix) * W + out_base])
    cap = np.array([t.fft_cap[a][1] * dt for a in t.in_legs] + [math.inf] * len(t.q_legs))
    settle = math.ceil(max(lag.max(initial=1.0), lag_w.max(initial=1.0))) + 1
    return (cap, base, row_base, out_base, start, edge.astype(np.min_scalar_type(K)), frac,
            np.array([lk.storage for lk in t.outs]), np.array([lk.capacity * dt for lk in t.outs]), settle)


def run_dnl(network: Network, profile: DepartureProfile, compliance_rates=None) -> DnlResult:
    """Propagate the departure profile through the network for one day, on the profile's grid.

    ``compliance_rates`` maps keys of ``network.pairs`` to the day's CR in
    [0, 1]; missing pairs default to zero diversion, and any other key is a
    ``DnlError``.  Returns each leg's cumulative inflow and outflow curves and
    its inflow curve per path, each (leg, slot) pair's demand per bin with flow,
    the exit times and the realized turning ratios.
    """
    cr_map = dict(compliance_rates or {})
    for key, cr in cr_map.items():
        if key not in network.pairs:
            raise DnlError(f"compliance rate for {key}: not an affected (O-D, sign) pair")
        if not 0.0 <= cr <= 1.0:
            raise DnlError(f"compliance rate {cr} for {key} outside [0, 1]")

    grid = profile.grid
    K, dt = grid.n_bins, grid.dt
    W = K + 2  # a curve row: edges 0..K, then one pad edge read with weight 0
    t = network.loading
    paths_on, in_legs, q_legs, row_ix, leg_ix = t.paths_on, t.in_legs, t.q_legs, t.row_ix, t.leg_ix
    leg_of_row, pair_of_row, leg_of_pair = t.leg_of_row, t.pair_of_row, t.leg_of_pair
    junctions, src_of_row, into, to_link = t.junctions, t.src_of_row, t.into, t.to_link
    n_in, n_legs, n_in_rows, n_rows, n_pairs = len(in_legs), len(leg_ix), len(src_of_row), len(t.rows), len(leg_of_pair)

    # cumulative curves, leg-major, U with D in one buffer, and per (leg, path) row
    # its inflow curve and the outflow so far; a queue's inflow is the departures
    UD, UP, dp = np.zeros((2, n_legs, W)), np.zeros((n_rows, W)), np.zeros(n_rows)
    U, D = UD
    for q in q_legs:
        departed = {pid: np.concatenate(([0.0], np.cumsum(profile.rate(pid)) * dt))
                    for pid in paths_on[q]}
        U[leg_ix[q], :K + 1] = sum(departed.values())
        for pid, arr in departed.items():
            UP[row_ix[(q, pid)], :K + 1] = arr
    UDf, UDf1, UPf, UPf1 = UD.ravel(), UD.ravel()[1:], UP.ravel(), UP.ravel()[1:]
    if grid not in t.on_grid:
        t.on_grid[grid] = _grid_tables(t, grid)
    cap, base, row_base, out_base, lag_start, lag_edge, lag_frac, storage, out_cap, settle = t.on_grid[grid]
    receiving, out_slots = np.full(len(t.slots), math.inf), t.out_slots

    # diversion, per sign with a positive CR: its host link's rows, the bins it is
    # active in, and per O-D (cr, not-follow rows, follow rows) counted from the first
    diversions, mids = {}, grid.mids()
    for key, ctx in network.pairs.items():
        if cr_map.get(key, 0.0) > 0.0:
            host, sign, on_host = ctx.sign.host_link, ctx.sign, paths_on[ctx.sign.host_link]
            rows = slice(row_ix[(host, on_host[0])], row_ix[(host, on_host[-1])] + 1)
            on = np.any([(s <= mids) & (mids < e) for s, e in sign.omega], axis=0).tolist()
            diversions.setdefault(sign.id, (rows, on, []))[2].append(
                (cr_map[key], [on_host.index(p) for p in ctx.nfset], [on_host.index(p) for p in ctx.fset]))

    # nothing moves before the first departure; after the last one, a quiet
    # spell longer than every lag leaves each later bin the same inputs
    departing = np.flatnonzero(profile.rates.any(axis=0))
    first, last = (int(departing[0]), int(departing[-1])) if departing.size else (K, K)
    quiet, window = 0, np.array([0, 1, 2])
    before = base.copy()  # per leg, flat: the edge before last bin's answer to the level search
    by_bin = {}  # per bin with flow, each (leg, slot) pair's demand

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(first, K):
            hi = k + 1
            U[:n_in, hi] = U[:n_in, k]
            UP[:n_in_rows, hi] = UP[:n_in_rows, k]
            dn_k = D[:, k]

            # the curves read a lag back: sending flows, and later receiving flows
            ix = lag_start + lag_edge[k]
            g = UDf[ix]
            lagged = g + (UDf1[ix] - g) * lag_frac[k]
            S = np.minimum(cap, lagged[:n_legs] - dn_k)
            active = S >= _TINY
            take = None
            if np.count_nonzero(active):
                level = dn_k + S
                # first edge at or above the level: a window of three edges from last bin's answer,
                # and a full count for the legs it loses. A full count for every leg gives the same
                # bits but is O(legs x bins) a bin: on grid layout 1 each loading was 1.15x slower
                # at dt 10 s, 1.35x at 5 s and 1.85x at 2.5 s (fig1 unchanged)
                below = UDf[before[:, None] + window] < level[:, None]
                n_below = below.sum(axis=1)
                at = before + n_below
                lost = active > (below[:, 0] & (n_below < 3))
                if np.count_nonzero(lost):
                    at[lost] = base[lost] + (U[lost, :hi + 1] < level[lost, None]).sum(axis=1)
                at1 = at - 1
                np.copyto(before, at1, where=active)
                # the edge up to which each leg's batch entered
                e = at1 - base
                a0 = UDf[at1]
                pos = np.where(active & (e <= k), e + (level - a0) / (UDf[at] - a0), hi)
                # each path's part of its leg's batch
                pr = pos[leg_of_row]
                edge = pr.astype(np.intp)
                i = row_base + edge
                b0 = UPf[i]
                amt = (b0 + (UPf1[i] - b0) * (pr - edge)) - dp
                take = (amt > _TINY) & active[leg_of_row]
                if not np.count_nonzero(take):
                    take = None

            if take is None:
                D[:, hi] = dn_k
                quiet += 1
                if k >= last and quiet >= settle:  # queues' curves are flat from here on too
                    UD[..., hi + 1:K + 1], UP[:, hi + 1:K + 1] = UD[..., hi, None], UP[:, hi, None]
                    break
                continue
            quiet = 0
            amt *= take

            # VMS diversion relabels not-follow flow to the follow paths, on
            # Python floats: one read and one write of the host link's rows
            routed = amt
            for rows, on, per_od in diversions.values():
                if not on[k]:
                    continue
                vals = routed[rows].tolist()
                for cr, nf, f in per_od:
                    for r in nf:
                        if vals[r] <= _TINY:
                            continue
                        # a not-follow label sends nothing toward the recommended link
                        vals[r], moved = revise_turning_ratios(vals[r], 0.0, cr)
                        for q in f:
                            vals[q] += moved / len(f)
                routed = routed.copy()
                routed[rows] = vals

            # revised turning ratios (demand shares before any throttling)
            by_bin[k] = oriented = np.bincount(pair_of_row, routed, minlength=n_pairs)
            sending = np.bincount(leg_of_pair, oriented, minlength=n_legs)

            space = lagged[n_legs:] + storage - UDf[out_base + k]
            receiving[out_slots] = np.maximum(0.0, np.minimum(out_cap, space))
            theta = solve_junction(sending, receiving, oriented, junctions)

            th = theta[leg_of_row]
            mv = th * amt
            dp += mv
            np.add(dn_k, np.bincount(leg_of_row, mv, minlength=n_legs), out=D[:, hi])
            to_mv = mv if routed is amt else th * routed
            UP[:n_in_rows, hi] += to_mv[src_of_row]
            total = np.bincount(pair_of_row, to_mv, minlength=n_pairs)
            # a link fed by several legs adds their flows in junction order
            np.add.at(U[:, hi], into, total[to_link])

    zero = np.broadcast_to(0.0, K + 1)  # read-only: the curves of every link no path uses
    return DnlResult(
        network=network, grid=grid,
        up={leg: U[leg_ix[leg], :K + 1] if pids else zero for leg, pids in paths_on.items()},
        down={leg: D[leg_ix[leg], :K + 1] if pids else zero for leg, pids in paths_on.items()},
        up_by_path={leg: {pid: UP[row_ix[(leg, pid)], :K + 1] for pid in pids}
                    for leg, pids in paths_on.items()},
        oriented=by_bin,
        total_arrived=float(sum(dp[row_ix[(p.links[-1], p.id)]] for p in network.paths.values())),
    )
