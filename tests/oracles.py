"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the engine's code paths: the corridor oracle is a
scalar point-queue recursion on a refined grid, and the projection oracle
enumerates active sets of the constrained least-squares problem.
"""

import bisect
import csv
import math

import numpy as np


def point_queue_corridor(links, rates, grid, refine=10):
    """Point-queue travel times on a serial corridor fed by bin-constant rates.

    Each boundary between links serves at the minimum of the adjacent
    capacities; the entrance serves at the first link's capacity and the exit
    at the last link's.  Valid while queues never spill back (pick generous
    jam storage in the fixture).  Returns (fine_times, travel_time_fn).
    """
    fine_dt = grid.dt / refine
    total = float(np.sum(rates) * grid.dt)
    min_cap = min(lk.capacity for lk in links)
    horizon = grid.tf + sum(lk.fft for lk in links) + total / min_cap + 10 * grid.dt
    n = int(math.ceil((horizon - grid.t0) / fine_dt))
    t = grid.t0 + fine_dt * np.arange(n + 1)

    # cumulative departures (piecewise linear)
    coarse_edges = grid.edges()
    coarse_cum = np.concatenate(([0.0], np.cumsum(rates) * grid.dt))
    arrivals = np.interp(t, coarse_edges, coarse_cum, right=coarse_cum[-1])

    caps = [links[0].capacity]
    caps += [min(links[i].capacity, links[i + 1].capacity) for i in range(len(links) - 1)]
    caps += [links[-1].capacity]

    cum = arrivals
    for j, lk in enumerate(links):
        served = np.empty_like(cum)
        served[0] = min(cum[0], 0.0)
        rate = caps[j] * fine_dt
        for i in range(n):
            served[i + 1] = min(cum[i + 1], served[i] + rate)
        shift = lk.fft / fine_dt
        k = int(round(shift))
        assert abs(shift - k) < 1e-9, "pick link lengths whose fft is a multiple of the fine step"
        cum = np.concatenate((np.zeros(k), served[: n + 1 - k]))
    served = np.empty_like(cum)
    served[0] = 0.0
    rate = caps[-1] * fine_dt
    for i in range(n):
        served[i + 1] = min(cum[i + 1], served[i] + rate)

    def travel_time(depart):
        x = np.interp(depart, t, arrivals)
        exit_t = np.interp(x, served, t)
        return np.maximum(exit_t, np.asarray(depart) + sum(lk.fft for lk in links)) - depart

    return t, travel_time


def qp_projection(v, dt, demand):
    """Exact projection of v onto {x >= 0, sum(x) * dt = demand}.

    Exhaustive active-set enumeration: for each candidate support solve the
    equality-constrained least squares in closed form and keep the KKT-feasible
    one (the projection is unique).  Only for small instances.
    """
    v = np.asarray(v, dtype=float).ravel()
    n = v.size
    assert n <= 16, "enumeration oracle limited to small instances"
    if demand == 0:
        return np.zeros(n)
    for mask in range(1, 1 << n):
        free = [i for i in range(n) if mask >> i & 1]
        eta = (demand / dt - float(v[free].sum())) / len(free)
        x = np.zeros(n)
        x[free] = v[free] + eta
        if np.any(x[free] < -1e-10):
            continue
        active = [i for i in range(n) if not mask >> i & 1]
        if any(v[i] + eta > 1e-10 for i in active):
            continue
        return x
    raise AssertionError("no KKT-feasible active set found")


def fine_mean_std(fn, t0, tf, step):
    """Midpoint-rule mean and population std of fn over [t0, tf]."""
    n = int(round((tf - t0) / step))
    mids = t0 + step * (np.arange(n) + 0.5)
    vals = np.asarray(fn(mids), dtype=float)
    mean = vals.mean()
    return float(mean), float(np.sqrt(np.mean((vals - mean) ** 2)))


def slotwise_waterfill(sending, receiving, oriented, weights):
    """Admitted fractions at a junction where every leg feeds exactly one slot.

    Each slot is shared on its own: legs sorted by demand per unit capacity
    are admitted in full while their demand fits under an equal capacity-
    proportional share of what is left; the rest get that share.  Returns the
    list of admitted fractions.
    """
    theta = [1.0] * len(sending)
    for e, supply in enumerate(receiving):
        legs = [i for i, row in enumerate(oriented) if row[e] > 0.0]
        if sum(sending[i] for i in legs) <= supply:
            continue
        legs.sort(key=lambda i: sending[i] / weights[i])
        left, wsum = supply, sum(weights[i] for i in legs)
        while legs and sending[legs[0]] * wsum <= left * weights[legs[0]]:
            i = legs.pop(0)
            left -= sending[i]
            wsum -= weights[i]
        for i in legs:
            theta[i] = left / wsum * weights[i] / sending[i]
    return theta


def list_loader(network, grid, profile, compliance_rates):
    """The loader written as scalar loops over per-path lists, node by node.

    This is the loader the array version replaced, kept as its reference:
    each bin copies every curve one edge forward, then each node in sorted
    order inverts its legs' inflow curves, routes and diverts per path, and
    solves its own junction.  Returns (up, down, up_by_path, turning_ratios,
    total_arrived), keyed like ``DnlResult``.
    """
    from vmsdta.dnl import revise_turning_ratios, solve_junction
    from vmsdta.network import SINK, affected_ods

    tiny = 1e-15
    K, dt, links = grid.n_bins, grid.dt, network.links
    paths_on = {a: [] for a in links}
    for p in network.paths.values():
        for a in p.links:
            paths_on[a].append(p.id)
        paths_on.setdefault((links[p.links[0]].from_node, p.links[0]), []).append(p.id)
    queues = list(paths_on)[len(links):]
    up = {leg: [0.0] * (K + 1) for leg in paths_on}
    dn = {leg: [0.0] * (K + 1) for leg in paths_on}
    up_p = {leg: {pid: [0.0] * (K + 1) for pid in pids} for leg, pids in paths_on.items()}
    dn_p = {leg: {pid: [0.0] * (K + 1) for pid in pids} for leg, pids in paths_on.items()}
    for q in queues:
        departed = {pid: np.concatenate(([0.0], np.cumsum(profile.rate(pid)) * dt))
                    for pid in paths_on[q]}
        up[q] = sum(departed.values()).tolist()
        up_p[q] = {pid: arr.tolist() for pid, arr in departed.items()}
    lag = {a: max(1.0, lk.fft / dt) for a, lk in links.items()}
    lag_w = {a: max(1.0, (lk.length / lk.w) / dt) for a, lk in links.items()}
    cap_flow = {a: lk.capacity * dt for a, lk in links.items()}
    weight = {a: lk.capacity for a, lk in links.items()}
    for q in queues:
        lag[q], cap_flow[q], weight[q] = 0.0, math.inf, links[q[1]].capacity

    sink_nodes = {od.destination for od in network.ods.values()}
    plans, step, ratio_store, last_ratio = {}, {}, {}, {}
    for node in sorted(network.nodes):
        in_links = [a for a in network.in_links(node) if paths_on[a]]
        legs = in_links + [q for q in queues if q[0] == node]
        if not legs:
            continue
        out_slots = list(network.out_links(node)) + ([SINK] if node in sink_nodes else [])
        out_index = {a: i for i, a in enumerate(out_slots)}
        for leg in legs:
            step[leg] = {pid: out_index[network.next_link(pid, leg) if leg in links else leg[1]]
                         for pid in paths_on[leg]}
        ratio_store[node] = {a: {out: np.zeros(K) for out in out_slots} for a in in_links}
        for a in in_links:
            support = sorted(set(step[a].values()))
            last_ratio[(node, a)] = {e: 1.0 / len(support) for e in support}
        signs = [(legs.index(sg.host_link), out_index[sg.from_link], out_index[sg.to_link],
                  sg.omega, [(compliance_rates.get((od, sg.id), 0.0), f, nf)
                             for od, (f, nf) in affected_ods(network, sg).items()])
                 for sg in network.signs if sg.junction == node]
        plans[node] = (in_links, legs, out_slots, signs)
    carry = []
    for leg, pids in paths_on.items():
        if pids:
            carry += [dn[leg], *dn_p[leg].values()]
            if leg in links:
                carry += [up[leg], *up_p[leg].values()]
    arrived = {pid: 0.0 for pid in network.paths}

    def curve_at(arr, pos):
        if pos <= 0.0:
            return arr[0]
        if pos >= len(arr) - 1:
            return arr[-1]
        i = int(pos)
        return arr[i] + (arr[i + 1] - arr[i]) * (pos - i)

    def invert_pos(arr, level, hi):
        i = bisect.bisect_left(arr, level, 0, hi + 1)
        if i == 0:
            return 0.0
        if i > hi:
            return float(hi)
        denom = arr[i] - arr[i - 1]
        return float(i) if denom <= 0 else (i - 1) + (level - arr[i - 1]) / denom

    for k in range(K):
        t_mid = grid.t0 + (k + 0.5) * dt
        for arr in carry:
            arr[k + 1] = arr[k]
        for node, (in_links, legs, out_slots, signs) in plans.items():
            batches = []
            for leg in legs:
                S = min(cap_flow[leg], curve_at(up[leg], (k + 1) - lag[leg]) - dn[leg][k])
                batch = {}
                if S >= tiny:
                    pos = invert_pos(up[leg], dn[leg][k] + S, k + 1)
                    for pid in paths_on[leg]:
                        amt = curve_at(up_p[leg][pid], pos) - dn_p[leg][pid][k]
                        if amt > tiny:
                            batch[pid] = amt
                batches.append(batch)
            if not any(batches):
                for a in in_links:
                    for e, r in last_ratio[(node, a)].items():
                        ratio_store[node][a][out_slots[e]][k] = r
                continue
            routed = []
            for leg, batch in zip(legs, batches):
                dest = {}
                for pid, amt in batch.items():
                    dest.setdefault(step[leg][pid], {})[pid] = amt
                routed.append(dest)
            for i, e_from, e_to, omega, crs in signs:
                for cr, fset, nfset in crs:
                    for pid in nfset:
                        amt = routed[i].get(e_from, {}).get(pid, 0.0)
                        if amt <= tiny:
                            continue
                        kept, moved = revise_turning_ratios(amt, 0.0, cr, t_mid, omega)
                        if moved == 0.0:
                            continue
                        routed[i][e_from][pid] = kept
                        slot = routed[i].setdefault(e_to, {})
                        for fp in fset:
                            slot[fp] = slot.get(fp, 0.0) + moved / len(fset)
            oriented = [[sum(dest.get(e, {}).values()) for e in range(len(out_slots))]
                        for dest in routed]
            for i, a in enumerate(in_links):
                total = sum(oriented[i])
                if total > tiny:
                    last_ratio[(node, a)] = {e: x / total for e, x in enumerate(oriented[i]) if x > 0}
                for e, r in last_ratio[(node, a)].items():
                    ratio_store[node][a][out_slots[e]][k] = r
            receiving = [math.inf if out == SINK else max(0.0, min(
                cap_flow[out], curve_at(dn[out], (k + 1) - lag_w[out]) + links[out].storage
                - up[out][k])) for out in out_slots]
            sending = [sum(row) for row in oriented]
            theta = solve_junction(sending, receiving, oriented, [weight[leg] for leg in legs])
            for i, (leg, batch) in enumerate(zip(legs, batches)):
                th = theta[i]
                if th <= 0.0 or sending[i] <= tiny:
                    continue
                moved_total = 0.0
                for pid, amt in batch.items():
                    dn_p[leg][pid][k + 1] += th * amt
                    moved_total += th * amt
                dn[leg][k + 1] += moved_total
                for e, labels in routed[i].items():
                    out = out_slots[e]
                    tot = 0.0
                    for pid, amt in labels.items():
                        if out == SINK:
                            arrived[pid] += th * amt
                        else:
                            up_p[out][pid][k + 1] += th * amt
                            tot += th * amt
                    if out != SINK:
                        up[out][k + 1] += tot
    return up, dn, up_p, ratio_store, float(sum(arrived.values()))


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)


def row_writer(outdir, result=None, dnl_result=None):
    """The per-row CSV writer: one ``csv.writer`` row and one ``_fmt`` call per value.

    This is the writer the block writer replaced, kept as its reference.  It
    writes flows.csv and costs.csv for a ``RunResult``, and curves.csv and
    turning_ratios.csv for a ``DnlResult``, into ``outdir``.
    """
    if result is not None:
        network, grid = result.network, result.grid
        with open(outdir / "flows.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["day", "path", "bin", "rate"])
            for rec in result.days:
                for pid in network.path_ids:
                    for k, r in enumerate(rec.profile.rate(pid)):
                        wr.writerow([rec.day, pid, k, _fmt(r)])
        with open(outdir / "costs.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["day", "path", "bin", "psi", "phi"])
            for rec in result.days:
                for i, pid in enumerate(network.path_ids):
                    for k in range(grid.n_bins):
                        wr.writerow([rec.day, pid, k, _fmt(rec.psi[i, k]), _fmt(rec.phi[i, k])])
    if dnl_result is not None:
        network, grid = dnl_result.network, dnl_result.grid
        with open(outdir / "curves.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["link_id", "bin", "N_up", "N_down"])
            for a in network.links:
                for k in range(grid.n_bins + 1):
                    wr.writerow([a, k, _fmt(dnl_result.up[a][k]), _fmt(dnl_result.down[a][k])])
        with open(outdir / "turning_ratios.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["node", "in_link", "out", "bin", "ratio"])
            for node, per_in in dnl_result.turning_ratios.items():
                for a, per_out in per_in.items():
                    for out, arr in per_out.items():
                        for k, r in enumerate(arr):
                            wr.writerow([node, a, out, k, _fmt(r)])
