"""The day writer and the block writer of the large output tables against the
per-row and after-run writers they replaced."""

import dataclasses

import numpy as np
import pytest

from vmsdta.daytoday import run_day_to_day
from vmsdta.network import Network, ODPair
from vmsdta.scenario import build_profile, day_tables, dump_curves, fig1_config, fig1_network

from .oracles import row_writer
from .randnet import GRID, random_network

TABLES = ("days.csv", "compliance.csv", "flows.csv", "costs.csv", "curves.csv", "turning_ratios.csv")
SPECIAL = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e22]


def _run(network, profile, max_days=200):
    """The run's result and its whole day records, collected through ``on_day``."""
    cfg = fig1_config(solver={"lambda": 0.0002, "max_days": max_days, "gap_tolerance": 1e-3})
    records = []
    result = run_day_to_day(network, cfg.grid, profile, cfg.compliance, cfg.penalty, cfg.solver,
                            on_day=records.append)
    return result, records


def _assert_same_bytes(result, records, tmp_path):
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    with day_tables(result.network, new) as write_day:
        for rec in records:
            write_day(rec)
    dump_curves(result.final_dnl, new)
    old.mkdir()
    row_writer(old, result.network, records, result.final_dnl)
    for name in TABLES:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_fig1_tables_match_the_row_writer(tmp_path):
    network, cfg = fig1_network(), fig1_config()
    result, records = _run(network, build_profile(network, cfg))
    assert len(records) == 83
    _assert_same_bytes(result, records, tmp_path)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_network_tables_match_the_row_writer(seed, tmp_path):
    network, profile, _ = random_network(np.random.default_rng(seed))
    assert GRID == fig1_config().grid
    _assert_same_bytes(*_run(network, profile, 3), tmp_path)


def test_ids_that_need_quoting_match_the_row_writer(tmp_path):
    base = fig1_network()
    names = {"p1": "p,1", "p2": 'p"2', "p3": "p 3"}
    paths = {names[pid]: dataclasses.replace(p, id=names[pid]) for pid, p in base.paths.items()}
    od = base.ods["od1"]
    ods = {"od1": ODPair(od.id, od.origin, od.destination, od.demand, od.t_arrival,
                         {names[pid]: eps for pid, eps in od.tolerances.items()})}
    network = Network(links=base.links, paths=paths, ods=ods, signs=base.signs)
    cfg = fig1_config()
    _assert_same_bytes(*_run(network, build_profile(network, cfg), 2), tmp_path)
    assert b'"p,1"' in (tmp_path / "new" / "flows.csv").read_bytes()


def test_special_floats_match_the_row_writer(tmp_path):
    network, cfg = fig1_network(), fig1_config()
    result, records = _run(network, build_profile(network, cfg), 2)
    n = len(SPECIAL)
    for rec in records:
        rec.profile.rates[0, :n] = SPECIAL
        rec.psi[1, -n:] = SPECIAL
        rec.phi[2, :n] = SPECIAL[::-1]
    dnl = result.final_dnl
    dnl.up["1"][:n] = SPECIAL
    dnl.down["7"][-n:] = SPECIAL
    dnl.turning_ratios["b"]["1"]["3"][:n] = SPECIAL
    _assert_same_bytes(result, records, tmp_path)
    text = (tmp_path / "new" / "flows.csv").read_text()
    assert "1,p1,0,-0.0\n" in text and "1,p1,5,1e+22\n" in text and "5e-324" in text
