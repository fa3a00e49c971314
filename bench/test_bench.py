"""Self-tests of the benchmark's generator, output checker and tracer.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import csv
import filecmp
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checker import check_run, csv_hashes  # noqa: E402
from gridgen import grid_network, write_grid_scenario  # noqa: E402
from run import GRID_DAYS, LAYOUTS  # noqa: E402
from tracer import Tracer, layer_values  # noqa: E402
from vmsdta.cli import cli_run  # noqa: E402
from vmsdta.network import affected_ods  # noqa: E402
from vmsdta.scenario import write_fig1_fixture  # noqa: E402


def _flags(files, out=None):
    flags = []
    for flag in ("network", "paths", "demand", "tolerances", "vms", "config"):
        flags += [f"--{flag}", str(files[flag])]
    return flags + (["--out", str(out), "--quiet"] if out else [])


def test_generator_is_deterministic(tmp_path):
    a = write_grid_scenario(tmp_path / "a", 5, 300.0, GRID_DAYS)
    b = write_grid_scenario(tmp_path / "b", 5, 300.0, GRID_DAYS)
    c = write_grid_scenario(tmp_path / "c", 6, 300.0, GRID_DAYS)
    assert set(a) == set(b)
    for key in a:
        assert filecmp.cmp(a[key], b[key], shallow=False), key
    assert a["vms"].read_bytes() != c["vms"].read_bytes()


@pytest.mark.parametrize("demand", [300.0, 100.0])
def test_every_layout_validates_and_each_sign_has_an_affected_od(tmp_path, demand, capsys):
    for layout in range(LAYOUTS):
        files = write_grid_scenario(tmp_path / str(layout), layout, demand, GRID_DAYS)
        assert cli_run(["validate", *_flags(files)]) == 0, capsys.readouterr().err
        network = grid_network(layout, demand)
        assert len(network.links) == 112 and len(network.paths) == 40
        assert len(network.signs) == 4
        for sign in network.signs:
            assert affected_ods(network, sign), (layout, sign.id)


def _corrupt_rate(path, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][3] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _drop_row(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


@pytest.mark.parametrize("corrupt, expect", [
    (lambda p: _corrupt_rate(p, "-0.001"), "not >= 0"),
    (lambda p: _corrupt_rate(p, "0.5"), "demand"),
    (_drop_row, "rows, expected"),
])
def test_checker_rejects_a_corrupted_flows_csv(tmp_path, corrupt, expect):
    files = write_fig1_fixture(tmp_path / "scenario")
    config = json.loads(files["config"].read_text())
    config["solver"]["max_days"] = 3
    files["config"].write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_run(["run", *_flags(files, out)]) == 0
    assert check_run(out, tmp_path / "scenario") == []
    before = csv_hashes(out)

    corrupt(out / "flows.csv")
    problems = check_run(out, tmp_path / "scenario")
    assert any(expect in p for p in problems), problems
    assert csv_hashes(out) != before


def test_checker_compares_against_the_reference(tmp_path):
    files = write_fig1_fixture(tmp_path / "scenario")
    config = json.loads(files["config"].read_text())
    config["solver"]["max_days"] = 2
    files["config"].write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_run(["run", *_flags(files, out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    reference = {"final_total_cost": summary["final_total_cost"], "final_cr": summary["final_cr"]}
    assert check_run(out, tmp_path / "scenario", reference) == []
    reference["final_total_cost"] *= 1 + 1e-5
    assert any("final_total_cost" in p for p in check_run(out, tmp_path / "scenario", reference))


def test_a_vanished_target_is_unmeasured_not_zero():
    tracer = Tracer()
    assert not tracer.wrap("vmsdta.dnl.no_such_solver", "dnl.solve_junction")
    assert not tracer.wrap("vmsdta.no_such_module.run", "dnl.run_dnl")
    values, unmeasured = layer_values(tracer.dump())
    for name in ("dnl.solve_junction_s", "dnl.junction_calls", "dnl.junction_throttled_share"):
        assert name not in values
        assert "vmsdta.dnl.no_such_solver" in unmeasured[name]
    assert "vmsdta.no_such_module.run" in unmeasured["dnl.run_dnl_s"]


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.span("dnl.path_times", lambda: sum(range(20000)))
    outer = tracer.span("daytoday.cost_table", lambda: inner() + sum(range(20000)))
    outer()
    values, _ = layer_values(tracer.dump())
    (name, start, end, parent), (cname, cstart, cend, cparent) = tracer.dump()["spans"]
    assert (name, parent, cname, cparent) == ("daytoday.cost_table", -1, "dnl.path_times", 0)
    assert values["daytoday.cost_table_s"] == pytest.approx((end - start) - (cend - cstart))
    assert values["dnl.path_times_s"] == pytest.approx(cend - cstart)
