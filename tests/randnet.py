"""Seeded random acyclic networks for loader tests (plain numpy RNG).

Nodes sit in layers; every link joins consecutive layers, so the network is
acyclic.  Each O-D draws several distinct random walks from an origin in the
first layer to a destination in the last, so legs carry paths that leave by
different links (legs that split) into nodes where several links merge.  A
sign stands wherever one O-D's paths through the same host link split.
"""

from vmsdta.network import DepartureProfile, Link, Network, ODPair, Path, TimeGrid, VmsSign, affected_ods

GRID = TimeGrid(0.0, 3600.0, 10.0)
T_ARRIVAL = 2100.0
WINDOW = (0.0, 1800.0)


def random_network(rng, layers=4, width=3, n_ods=3, paths_per_od=3,
                   demand=(50.0, 300.0), capacity=(0.1, 0.5)):
    """Returns (network, profile, compliance_rates) on ``GRID``."""
    names = [[f"n{layer}_{j}" for j in range(width)] for layer in range(layers)]
    names.append(["d0", "d1"])
    links = {}
    for here, there in zip(names, names[1:]):
        for a in here:
            k = int(rng.integers(1, len(there) + 1))
            for b in rng.choice(there, size=k, replace=False):
                links[f"{a}-{b}"] = Link(
                    id=f"{a}-{b}", from_node=a, to_node=str(b),
                    length=float(rng.uniform(300.0, 900.0)), vf=12.5,
                    capacity=float(rng.uniform(*capacity)), kjam=0.15, w=5.0)
    out = {}
    for lk in links.values():
        out.setdefault(lk.from_node, []).append(lk.id)

    paths, ods = {}, {}
    for o in range(n_ods):
        origin = str(rng.choice(names[0]))
        dest = str(rng.choice(names[-1]))
        walks = set()
        for _ in range(10 * paths_per_od):
            node, walk = origin, []
            while node != dest:
                options = [a for a in out.get(node, ())
                           if links[a].to_node == dest or links[a].to_node not in names[-1]]
                if not options:
                    break
                a = str(rng.choice(options))
                walk.append(a)
                node = links[a].to_node
            if node == dest:
                walks.add(tuple(walk))
            if len(walks) == paths_per_od:
                break
        if not walks:
            continue
        od = f"od{o}"
        pids = [f"{od}p{i}" for i in range(len(walks))]
        for pid, walk in zip(pids, sorted(walks)):
            paths[pid] = Path(pid, od, walk)
        ods[od] = ODPair(od, origin, dest, float(rng.uniform(*demand)), T_ARRIVAL,
                         {pid: 0.0 for pid in pids})

    signs = []
    for p in paths.values():
        for a, b in zip(p.links, p.links[1:]):
            others = {q.links[q.links.index(a) + 1] for q in paths.values()
                      if q.od == p.od and a in q.links[:-1]} - {b}
            if others and not any(sg.host_link == a for sg in signs):
                start = float(rng.uniform(0.0, 1800.0))
                signs.append(VmsSign(id=f"vms{len(signs)}", host_link=a, junction=links[a].to_node,
                                     from_link=b, to_link=min(others),
                                     omega=((start, start + 1200.0),)))
    network = Network(links=links, paths=paths, ods=ods, signs=signs)
    profile = DepartureProfile.random(network, GRID, rng, window=WINDOW)
    rates = {(od, sg.id): float(rng.random()) for sg in signs for od in affected_ods(network, sg)}
    return network, profile, rates
