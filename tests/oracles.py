"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the engine's code paths: the corridor oracle is a
scalar point-queue recursion on a refined grid, and the projection oracle
enumerates active sets of the constrained least-squares problem.
"""

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
