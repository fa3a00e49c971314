import numpy as np
import pytest

from vmsdta.network import DepartureProfile, Link, Network, ODPair, Path


def make_corridor(specs, grid, demand, window, t_arrival=None):
    """Serial corridor: one O-D, one path over the given link specs.

    specs: list of dicts with length, vf, cap, kjam, w.
    """
    links = {}
    nodes = [f"n{i}" for i in range(len(specs) + 1)]
    for i, sp in enumerate(specs):
        lid = f"L{i + 1}"
        links[lid] = Link(id=lid, from_node=nodes[i], to_node=nodes[i + 1],
                          length=sp["length"], vf=sp["vf"], capacity=sp["cap"],
                          kjam=sp.get("kjam", 0.5), w=sp.get("w", 5.0))
    path = Path("p", "od", tuple(links))
    if t_arrival is None:
        t_arrival = grid.tf - grid.dt
    od = ODPair("od", nodes[0], nodes[-1], demand, t_arrival, {"p": 0.0})
    net = Network(links=links, paths={"p": path}, ods={"od": od})
    errors, _ = net.validate(grid)
    assert not errors, errors
    prof = DepartureProfile.uniform(net, grid, window=window)
    return net, prof


def link_inflow(result, link_id):
    """Vehicles entering the link per bin."""
    return np.diff(result.up[link_id])


def check_feasible(profile, network, rel_tol=1e-6):
    """Errors of a departure profile: negative rates, or an O-D whose integral misses its demand."""
    errors = []
    if np.any(profile.rates < 0):
        errors.append("departure profile: negative rates")
    for od, total in profile.od_totals(network).items():
        q = network.ods[od].demand
        if abs(total - q) > rel_tol * max(q, 1.0):
            errors.append(f"departure profile: O-D {od} integral {total:g} != demand {q:g}")
    return errors


def assert_dnl_invariants(result, conservation_tol=1e-9):
    """Conservation, curve ordering, FIFO, causality, storage cap, ratio algebra."""
    net, grid = result.network, result.grid
    edges = grid.edges()
    balance = result.total_departed - result.total_arrived - result.total_residual
    assert abs(balance) <= conservation_tol, f"conservation off by {balance:.3e} veh"
    for a, lk in net.links.items():
        up, down = result.up[a], result.down[a]
        assert np.all(np.diff(up) >= -1e-12), f"link {a}: inflow curve decreases"
        assert np.all(np.diff(down) >= -1e-12), f"link {a}: outflow curve decreases"
        assert np.all(up - down >= -1e-10), f"link {a}: outflow ahead of inflow"
        assert np.all(up - down <= lk.storage + 1e-9), f"link {a}: storage exceeded"
        mu = np.asarray(result.mu(a, edges))
        assert np.all(mu >= edges + lk.fft - 1e-9), f"link {a}: exit before free flow"
        assert np.all(np.diff(mu) >= -1e-9), f"link {a}: exit times decrease"
        flow_bins = np.diff(up) > 1e-12
        assert np.all(np.diff(mu)[flow_bins] > 0), f"link {a}: FIFO violated under flow"
    for q in set(result.up) - set(net.links):
        up, down = result.up[q], result.down[q]
        assert np.all(np.diff(up) >= -1e-12), f"origin queue {q}: departures decrease"
        assert np.all(np.diff(down) >= -1e-12), f"origin queue {q}: entries decrease"
        assert np.all(up - down >= -1e-10), f"origin queue {q}: entries ahead of departures"
    for node, per_in in result.turning_ratios.items():
        for a, per_out in per_in.items():
            stack = np.vstack([arr for arr in per_out.values()])
            assert np.all(stack >= -1e-12) and np.all(stack <= 1 + 1e-12), \
                f"junction {node}, link {a}: ratio outside [0,1]"
            sums = stack.sum(axis=0)
            assert np.allclose(sums, 1.0, atol=1e-9), \
                f"junction {node}, link {a}: ratios do not sum to 1"


@pytest.fixture
def fig1():
    from vmsdta.scenario import fig1_config, fig1_network

    net = fig1_network()
    cfg = fig1_config()
    return net, cfg
