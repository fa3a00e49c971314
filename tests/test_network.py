import dataclasses
import json

import numpy as np
import pytest

from vmsdta.network import (
    DepartureProfile,
    Link,
    Network,
    ODPair,
    Path,
    ScenarioError,
    TimeGrid,
    VmsSign,
    affected_ods,
    load_scenario,
    normalize_intervals,
    omega_bin_overlap,
    omega_length,
    paths_through_vms,
    save_scenario_files,
)
from vmsdta.scenario import fig1_network

from .conftest import check_feasible
from .randnet import random_network


def test_time_grid_rejects_bad_bounds():
    with pytest.raises(ScenarioError):
        TimeGrid(100.0, 100.0, 1.0)
    with pytest.raises(ScenarioError):
        TimeGrid(0.0, 100.0, -1.0)
    with pytest.raises(ScenarioError):
        TimeGrid(0.0, 100.0, 7.0)  # not an integer number of bins


def test_time_grid_shapes():
    grid = TimeGrid(0.0, 100.0, 10.0)
    assert grid.n_bins == 10
    assert len(grid.edges()) == 11
    assert len(grid.mids()) == 10
    assert grid.mids()[0] == 5.0


def test_omega_helpers():
    om = normalize_intervals([(30.0, 40.0), (0.0, 10.0), (10.0, 20.0)])
    assert om == ((0.0, 20.0), (30.0, 40.0))
    assert omega_length(om) == 30.0
    grid = TimeGrid(0.0, 40.0, 8.0)
    overlap = omega_bin_overlap(grid, om)
    assert overlap.tolist() == [8.0, 8.0, 4.0, 2.0, 8.0]


def test_fig1_validates_and_partitions(fig1):
    net, cfg = fig1
    errors, warnings = net.validate(cfg.grid)
    assert errors == [] and warnings == []
    assert len(net.links) == 7 and len(net.paths) == 3 and len(net.ods) == 1
    # follow = p3 (via the recommended link 3), not-follow = {p1, p2}
    fset, nfset = paths_through_vms(net, net.signs[0])["od1"]
    assert fset == ("p3",)
    assert nfset == ("p1", "p2")
    assert set(fset) & set(nfset) == set()
    assert affected_ods(net, net.signs[0]) == {"od1": (("p3",), ("p1", "p2"))}


def test_partition_ignores_ods_off_the_host_link():
    net = fig1_network()
    # an extra O-D from c to f never touches link 1
    links = dict(net.links)
    paths = dict(net.paths)
    paths["q1"] = Path("q1", "od2", ("5", "7"))
    ods = dict(net.ods)
    ods["od2"] = ODPair("od2", "c", "f", 10.0, 2100.0, {"q1": 0.0})
    net2 = Network(links=links, paths=paths, ods=ods, signs=net.signs)
    errors, _ = net2.validate()
    assert errors == []
    assert "od2" not in paths_through_vms(net2, net2.signs[0])


def test_partition_unaffected_when_every_path_follows():
    net = fig1_network()
    paths = {"p3": net.paths["p3"]}
    ods = {"od1": ODPair("od1", "a", "f", 10.0, 2100.0, {"p3": 0.0})}
    net2 = Network(links=dict(net.links), paths=paths, ods=ods, signs=net.signs)
    part = paths_through_vms(net2, net2.signs[0])
    assert part == {"od1": (("p3",), ())}
    assert affected_ods(net2, net2.signs[0]) == {}


def test_od_without_paths_is_an_error(tmp_path):
    net = fig1_network()
    files = save_scenario_files(net, tmp_path)
    (tmp_path / "paths.json").write_text("[]\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(files["network"], files["paths"], files["demand"],
                      tolerances_file=files["tolerances"], vms_file=files["vms"])
    assert any("demand: O-D od1: od_id is no path's od in paths" in e for e in err.value.errors)


def test_disconnected_path_is_rejected_by_name(tmp_path):
    net = fig1_network()
    files = save_scenario_files(net, tmp_path)
    broken = json.loads(files["paths"].read_text())
    broken[1]["links"] = ["1", "4", "7"]  # link 1 ends at b, link 4 starts at c
    files["paths"].write_text(json.dumps(broken))
    with pytest.raises(ScenarioError) as err:
        load_scenario(files["network"], files["paths"], files["demand"],
                      tolerances_file=files["tolerances"], vms_file=files["vms"])
    assert any("p2" in e and "share a node" in e for e in err.value.errors)


@pytest.mark.parametrize("route, nodes", [(("1", "2", "3", "4", "6"), ["b"]),
                                          (("1", "2", "3", "2", "3", "4", "6"), ["b", "c"])])
def test_a_path_that_passes_a_node_twice_is_rejected(route, nodes):
    # o -> b -> c -> b -> d -> f: learning measures a path's tail from the first visit of
    # the sign's junction b, 160 s of free flow where the sign's own tail takes 80 s; a
    # path that repeats a link passes its nodes twice too
    def link(lid, a, b):
        return Link(lid, a, b, 500.0, 12.5, 0.5, 0.15, 5.0)

    links = {lk.id: lk for lk in (link("1", "o", "b"), link("2", "b", "c"), link("3", "c", "b"),
                                  link("4", "b", "d"), link("5", "b", "e"), link("6", "d", "f"),
                                  link("7", "e", "f"))}
    paths = {"p1": Path("p1", "od", route), "p2": Path("p2", "od", ("1", "4", "6")),
             "p3": Path("p3", "od", ("1", "5", "7"))}
    net = Network(links, paths, {"od": ODPair("od", "o", "f", 100.0, 2100.0, dict.fromkeys(paths, 0.0))},
                  [VmsSign("vms1", "3", "b", "5", "4", ((600.0, 3000.0),))])
    assert net.freeflow_partial("p1", "b") == 40.0 * (len(route) - 1)
    errors, _ = net.validate(TimeGrid(0.0, 3600.0, 10.0))
    assert errors == [f"paths: path p1: links pass node {n} twice" for n in nodes]


def test_non_finite_scenario_numbers_are_rejected_by_name(tmp_path):
    net = fig1_network()
    files = save_scenario_files(net, tmp_path)
    obj = json.loads(files["network"].read_text())
    obj["links"][0]["length_m"] = float("inf")
    files["network"].write_text(json.dumps(obj))
    files["demand"].write_text("od_id,origin,destination,Q,T_A\nod1,a,f,inf,-inf\n")
    files["tolerances"].write_text("od_id,path_id,epsilon_s\nod1,p1,inf\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(files["network"], files["paths"], files["demand"],
                      tolerances_file=files["tolerances"], vms_file=files["vms"])
    for name in ("network: link 1: length_m", "demand: O-D od1: Q", "demand: O-D od1: T_A",
                 "tolerances: O-D od1: epsilon_s for path p1"):
        assert any(name in e and "finite" in e for e in err.value.errors), name


def test_tolerance_for_another_ods_path_is_rejected(fig1):
    net, cfg = fig1
    ods = dict(net.ods, od2=ODPair("od2", "a", "f", 10.0, 2100.0, {"p1": 5.0}))
    errors, _ = Network(net.links, net.paths, ods, net.signs).validate(cfg.grid)
    assert "tolerances: O-D od2: path_id p1 has another od in paths than this od_id" in errors


def test_link_capacity_above_diagram_max_is_rejected():
    lk = Link("x", "a", "b", 500.0, 12.5, 0.6, 0.15, 5.0)  # qmax ~ 0.536
    errors = lk.check()
    assert any("cap_vps 0.6 exceeds the triangular-diagram maximum" in e for e in errors), errors


def test_grid_vs_link_lag_check():
    net = fig1_network()
    grid = TimeGrid(0.0, 3600.0, 60.0)  # coarser than the 40 s free-flow time
    errors, _ = net.validate(grid)
    assert any("dt=60" in e for e in errors)


def test_missing_file_raises_scenario_error(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "nope.json", tmp_path / "nope2.json", tmp_path / "nope.csv")


def test_roundtrip_is_identical(tmp_path, fig1):
    net, cfg = fig1
    files = save_scenario_files(net, tmp_path)
    loaded, warnings = load_scenario(files["network"], files["paths"], files["demand"],
                                     tolerances_file=files["tolerances"],
                                     vms_file=files["vms"], grid=cfg.grid)
    assert warnings == []
    assert loaded.links == net.links
    assert loaded.paths == net.paths
    assert loaded.ods == net.ods
    assert loaded.signs == net.signs
    # a second round trip produces byte-identical files
    second = tmp_path / "again"
    files2 = save_scenario_files(loaded, second)
    for key in files:
        assert files[key].read_bytes() == files2[key].read_bytes()


def test_every_link_and_sign_field_survives_a_round_trip(tmp_path, fig1):
    net, cfg = fig1
    # one link and one sign whose every field differs from the fixture's and from each other
    links = dict(net.links)
    links["1"] = Link("1", "a", "b", length=480.0, vf=13.0, capacity=0.45, kjam=0.16, w=4.5)
    sign = VmsSign(id="vms-a", host_link="1", junction="b", from_link="2", to_link="3",
                   omega=((600.0, 900.0), (1200.0, 3000.0)))
    net2 = Network(links=links, paths=dict(net.paths), ods=dict(net.ods), signs=[sign])
    files = save_scenario_files(net2, tmp_path)
    loaded, _ = load_scenario(files["network"], files["paths"], files["demand"],
                              tolerances_file=files["tolerances"], vms_file=files["vms"],
                              grid=cfg.grid)
    assert loaded.links == net2.links
    assert loaded.signs == (sign,)
    # a single sign may also be written as one object rather than a list
    files["vms"].write_text(json.dumps(json.loads(files["vms"].read_text())[0]))
    loaded, _ = load_scenario(files["network"], files["paths"], files["demand"],
                              vms_file=files["vms"])
    assert loaded.signs == (sign,)


def test_multi_sign_path_is_flagged(fig1):
    net, cfg = fig1
    extra = VmsSign(id="vms2", host_link="2", junction="c", from_link="4", to_link="5",
                    omega=((600.0, 1200.0),))
    net2 = Network(links=dict(net.links), paths=dict(net.paths), ods=dict(net.ods),
                   signs=list(net.signs) + [extra])
    errors, warnings = net2.validate(cfg.grid)
    assert errors == []
    assert any("multiple VMS signs" in w for w in warnings)


def test_sign_that_diverts_no_one_is_flagged(fig1):
    net, cfg = fig1
    links = {**net.links, "8": Link("8", "c", "e", 500.0, 12.5, 0.5, 0.15, 5.0)}
    idle = VmsSign(id="vms2", host_link="2", junction="c", from_link="5", to_link="8",
                   omega=((600.0, 3000.0),))
    net2 = Network(links=links, paths=dict(net.paths), ods=dict(net.ods),
                   signs=list(net.signs) + [idle])
    errors, warnings = net2.validate(cfg.grid)
    assert errors == []
    (flag,) = [w for w in warnings if "vms2" in w and "diverts no O-D" in w]
    for name in ("host link 2", "from link 5", "to link 8"):
        assert name in flag, flag
    assert not any("vms1" in w and "diverts no O-D" in w for w in warnings)


def test_a_built_network_is_read_only():
    # the pair table and the loader's tables are derived once, so a network that
    # could change after construction would leave them stale
    net = fig1_network()
    sign = VmsSign(id="vms2", host_link="2", junction="c", from_link="4", to_link="5",
                   omega=((600.0, 1200.0),))
    with pytest.raises(AttributeError):
        net.signs.append(sign)
    with pytest.raises(TypeError):
        net.ods["od2"] = net.ods["od1"]
    with pytest.raises(TypeError):
        net.links["8"] = net.links["1"]
    with pytest.raises(TypeError):
        del net.paths["p1"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.signs = (sign,)
    assert list(net.pairs) == [("od1", "vms1")]
    # the caller's containers are copied, so changing them later changes nothing
    links, signs = dict(net.links), [sign]
    net2 = Network(links=links, paths=dict(net.paths), ods=dict(net.ods), signs=signs)
    links.clear()
    signs.append(net.signs[0])
    assert len(net2.links) == 7 and net2.signs == (sign,)


def _brute_pairs(net):
    """(O-D, sign) -> (sign, fset, nfset) for each O-D with paths taking the sign's
    host link straight into both its to link and its from link, by sign, then by O-D."""
    def through(od, a, b):
        return tuple(pid for pid, p in net.paths.items()
                     if p.od == od and (a, b) in zip(p.links, p.links[1:]))

    pairs = {}
    for sg in net.signs:
        for od in sorted({p.od for p in net.paths.values()}):
            fset = through(od, sg.host_link, sg.to_link)
            nfset = through(od, sg.host_link, sg.from_link)
            if fset and nfset:
                pairs[(od, sg.id)] = (sg, fset, nfset)
    return pairs


def _fig1_with_od0():
    """fig1 plus an O-D ``od0`` over links 1-2-5-7 and 1-3-6-7, whose paths come after
    od1's: the sign's O-Ds in path order are not in sorted order."""
    net = fig1_network()
    paths = dict(net.paths, q1=Path("q1", "od0", ("1", "2", "5", "7")),
                 q3=Path("q3", "od0", ("1", "3", "6", "7")))
    ods = dict(net.ods, od0=ODPair("od0", "a", "f", 10.0, 2100.0, {"q1": 0.0, "q3": 0.0}))
    return Network(links=dict(net.links), paths=paths, ods=ods, signs=net.signs)


PAIR_CASES = {"fig1": fig1_network, "fig1+od0": _fig1_with_od0,
              **{f"random{seed}": lambda seed=seed: random_network(np.random.default_rng(seed))[0]
                 for seed in range(50)}}


@pytest.mark.parametrize("case", PAIR_CASES)
def test_pair_table_matches_a_brute_force_partition(case):
    net = PAIR_CASES[case]()
    want = _brute_pairs(net)
    assert list(net.pairs) == list(want)
    for key, ctx in net.pairs.items():
        assert (ctx.key, ctx.od, ctx.sign, ctx.fset, ctx.nfset) == (key, key[0], *want[key])
    for sg in net.signs:
        assert affected_ods(net, sg) == {od: (f, nf) for (od, sid), (_, f, nf) in want.items()
                                         if sid == sg.id}


def test_uniform_profile_meets_demand(fig1):
    net, cfg = fig1
    prof = DepartureProfile.uniform(net, cfg.grid, window=(900.0, 1800.0))
    assert check_feasible(prof, net) == []
    totals = prof.od_totals(net)
    assert totals["od1"] == pytest.approx(360.0, rel=1e-12)
    assert np.all(prof.rates >= 0)


def test_uniform_profile_partial_bin_window(fig1):
    net, cfg = fig1
    # window not aligned to the 10 s bins still integrates exactly to Q
    prof = DepartureProfile.uniform(net, cfg.grid, window=(903.0, 1787.0))
    assert prof.od_totals(net)["od1"] == pytest.approx(360.0, rel=1e-12)


def test_random_profile_is_seeded_and_feasible(fig1):
    net, cfg = fig1
    a = DepartureProfile.random(net, cfg.grid, np.random.default_rng(7), window=(900.0, 1800.0))
    b = DepartureProfile.random(net, cfg.grid, np.random.default_rng(7), window=(900.0, 1800.0))
    assert np.array_equal(a.rates, b.rates)
    assert check_feasible(a, net) == []
