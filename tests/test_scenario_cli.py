import csv
import errno
import json
import math
import os
import subprocess
import sys
from operator import attrgetter

import pytest

from vmsdta import daytoday, scenario
from vmsdta.cli import cli_run
from vmsdta.network import ScenarioError
from vmsdta.scenario import (
    CONFIG_FIELDS,
    config_to_dict,
    fig1_config,
    load_bundle,
    parse_config,
    write_fig1_fixture,
)

from .conftest import check_feasible


def _write(tmp_path, demand=360.0, **config_overrides):
    files = write_fig1_fixture(tmp_path, demand=demand)
    if config_overrides:
        cfg = json.loads(files["config"].read_text())
        for key, val in config_overrides.items():
            if isinstance(val, dict):
                cfg.setdefault(key, {}).update(val)
            else:
                cfg[key] = val
        files["config"].write_text(json.dumps(cfg))
    return files


def _flags(files):
    return ["--network", str(files["network"]), "--paths", str(files["paths"]),
            "--demand", str(files["demand"]), "--tolerances", str(files["tolerances"]),
            "--vms", str(files["vms"]), "--config", str(files["config"])]


def test_config_parsing_defaults_and_ranges():
    cfg = fig1_config()
    assert cfg.check() == []
    assert cfg.range_warnings() == []
    hot = fig1_config(compliance={"w": 0.3, "beta": 0.5, "gamma": 0.0, "x0": 0.0})
    assert any("beta" in w for w in hot.range_warnings())
    with pytest.raises(ScenarioError):
        parse_config({"grid": {"t0": 0, "tf": 100, "dt": 10}, "compliance": {"w": 1.5}})


def test_fixture_files_validate_and_load(tmp_path, capsys):
    files = _write(tmp_path)
    code = cli_run(["validate"] + _flags(files)[:-2] + ["--config", str(files["config"])])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["links"] == 7 and report["paths"] == 3
    bundle = load_bundle(**{
        "network_file": files["network"], "paths_file": files["paths"],
        "demand_file": files["demand"], "config_file": files["config"],
        "tolerances_file": files["tolerances"], "vms_file": files["vms"]})
    assert bundle.network.ods["od1"].demand == 360.0
    assert check_feasible(bundle.profile, bundle.network) == []


def test_zero_demand_run_writes_outputs(tmp_path, capsys):
    files = _write(tmp_path, demand=0.0)
    out = tmp_path / "out"
    code = cli_run(["run"] + _flags(files) + ["--out", str(out), "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["days"] == 2
    with open(out / "days.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[1]["relative_gap"] == "0.0"
    assert rows[1]["converged"] == "true"


def test_runs_are_deterministic(tmp_path):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 8})
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_run(["run"] + _flags(files) + ["--out", str(out), "--quiet"]) == 0
        outs.append(out)
    for name in ("days.csv", "flows.csv", "costs.csv", "compliance.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_plot_data_invariants(tmp_path):
    files = _write(tmp_path, demand=240.0, solver={"max_days": 12})
    out = tmp_path / "out"
    assert cli_run(["run"] + _flags(files) + ["--out", str(out), "--quiet"]) == 0
    with open(out / "compliance.csv") as fh:
        crs = [float(r["cr"]) for r in csv.DictReader(fh)]
    assert crs and all(0.0 < c < 1.0 for c in crs)
    with open(out / "days.csv") as fh:
        gaps = [r["relative_gap"] for r in csv.DictReader(fh)]
    assert gaps[0] == "nan"
    assert all(float(g) >= 0.0 for g in gaps[1:])


def test_dump_curves_flag(tmp_path):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 3},
                   output={"dump_curves": True})
    out = tmp_path / "out"
    assert cli_run(["run"] + _flags(files) + ["--out", str(out), "--quiet"]) == 0
    with open(out / "curves.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["link_id"] for r in rows} == set("1234567")
    n_up = [float(r["N_up"]) for r in rows if r["link_id"] == "1"]
    assert n_up == sorted(n_up)
    assert (out / "turning_ratios.csv").exists()
    # RUN_FILES is every file a run writes after its last day, beside the per-day tables
    assert sorted(f.name for f in out.iterdir()) == sorted(scenario.RUN_FILES + tuple(scenario.DAY_TABLES))


def test_a_run_without_the_curve_dump_removes_an_earlier_runs_curves(tmp_path):
    out = tmp_path / "out"
    dumped = _write(tmp_path / "dumped", demand=120.0, solver={"max_days": 3}, output={"dump_curves": True})
    assert cli_run(["run"] + _flags(dumped) + ["--out", str(out), "--quiet"]) == 0
    assert (out / "curves.csv").exists() and (out / "turning_ratios.csv").exists()
    plain = _write(tmp_path / "plain", demand=120.0, solver={"max_days": 3})
    assert cli_run(["run"] + _flags(plain) + ["--out", str(out), "--quiet"]) == 0
    assert sorted(f.name for f in out.iterdir()) == [
        "compliance.csv", "costs.csv", "days.csv", "flows.csv", "summary.json"]


def test_sweep_writes_one_row_per_value(tmp_path, capsys):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 5})
    out = tmp_path / "sweep_out"
    code = cli_run(["sweep"] + _flags(files) +
                   ["--param", "beta", "--values", "0.001,0.01,0.1",
                    "--out", str(out)])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["value"] for r in rows] == [0.001, 0.01, 0.1]
    with open(out / "sweep.csv") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 3
    assert all((out / f"beta_{v:g}" / "summary.json").exists() for v in (0.001, 0.01, 0.1))


@pytest.mark.parametrize("param, values, field", [
    ("lambda", "-1", "lambda"),
    ("gamma", "-5", "gamma"),
    ("w", "1.5", "w=1.5"),
    ("beta", "-0.01", "beta"),
    ("beta", "a,b", "--values"),
    ("beta", "nan", "compliance.beta"),
    ("beta", "0.01,-0.01", "beta"),
    ("lambda", "0.0002,1e308", "solver.lambda"),
])
def test_bad_sweep_value_exits_one_before_any_run(tmp_path, capsys, param, values, field):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 2})
    out = tmp_path / "sweep_out"
    code = cli_run(["sweep"] + _flags(files) + ["--param", param, "--values", values,
                                                "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert any(field in m for m in err["messages"]), err["messages"]
    assert not out.exists()


def test_missing_file_exits_one(tmp_path, capsys):
    files = _write(tmp_path)
    code = cli_run(["run", "--network", str(tmp_path / "absent.json"),
                    "--paths", str(files["paths"]), "--demand", str(files["demand"]),
                    "--config", str(files["config"]), "--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input" and err["messages"]


def test_invalid_config_exits_one(tmp_path, capsys):
    files = _write(tmp_path, solver={"lambda": -1.0})
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert any("step size" in m for m in err["messages"])


@pytest.mark.parametrize("section, key, value", [("solver", "lambda", math.nan),
                                                  ("compliance", "beta", math.inf)])
def test_non_finite_config_number_exits_one(tmp_path, capsys, section, key, value):
    files = _write(tmp_path, **{section: {key: value}})
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert any(f"{section}.{key} must be a finite number" in m for m in err["messages"])


@pytest.mark.parametrize("key, value", [("eta_tolerance", 1e-8), ("junction_max_iter", 200)])
def test_removed_solver_setting_exits_one(tmp_path, capsys, key, value):
    files = _write(tmp_path, solver={key: value})
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert any(repr(key) in m for m in err["messages"])


@pytest.mark.parametrize("section, key, value", [
    ("output", "dump_curves", "false"),
    ("output", "dump_curves", 1),
    ("compliance", "average_over_omega", "no"),
    ("compliance", "average_over_omega", None),
])
def test_non_boolean_flag_exits_one(tmp_path, capsys, section, key, value):
    files = _write(tmp_path, **{section: {key: value}})
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert any(f"{section}.{key} must be true or false" in m for m in err["messages"])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where, value", [
    ({"solver": {"max_days": 83.9}}, 83.9),
    ({"solver": {"max_days": True}}, True),
    ({"solver": {"max_days": "83"}}, "83"),
    ({"seed": 1.5}, 1.5),
    ({"seed": False}, False),
])
def test_non_integer_count_exits_one(tmp_path, capsys, where, value):
    files = _write(tmp_path, **where)
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    name = "solver.max_days" if "solver" in where else "seed"
    assert any(f"{name} must be an integer, got {value!r}" in m for m in err["messages"])


def test_negative_seed_exits_one(tmp_path, capsys):
    files = _write(tmp_path, seed=-1, init_profile={"mode": "random"})
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert any("seed=-1 must be nonnegative" in m for m in err["messages"]), err["messages"]


@pytest.mark.parametrize("section, key, expected", [
    ("penalty", "early", "penalty.early must be nonnegative, got -1.0"),
    ("penalty", "late", "penalty.late must be nonnegative, got -1.0"),
    ("solver", "residual_warn_fraction", "solver.residual_warn_fraction must be nonnegative"),
])
def test_negative_config_weight_exits_one_naming_its_key(tmp_path, capsys, section, key,
                                                         expected):
    files = _write(tmp_path, **{section: {key: -1.0}})
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert any(expected in m for m in err["messages"]), err["messages"]
    assert not (tmp_path / "o").exists()


def test_config_with_every_field_set_round_trips():
    obj = {
        "grid": {"t0": 60.0, "tf": 3660.0, "dt": 20.0},
        "model": "IV",
        "compliance": {"w": 0.25, "beta": 0.02, "gamma": 10.0, "x0": -5.0, "y_f0": 100.0,
                       "y_nf0": 120.0, "beta_iv": 1e-4, "average_over_omega": True},
        "penalty": {"early": 0.25, "late": 2.0},
        "solver": {"lambda": 0.001, "max_days": 17, "gap_tolerance": 1e-4,
                   "residual_warn_fraction": 0.01},
        "init_profile": {"mode": "random", "window": [600.0, 1500.0]},
        "seed": 5,
        "default_epsilon_s": 30.0,
        "output": {"dump_curves": True},
    }
    cfg, defaults = parse_config(obj), parse_config({"grid": obj["grid"]})
    for key, (attr, _) in CONFIG_FIELDS.items():
        if not key.startswith("grid."):  # the grid has no defaults
            assert attrgetter(attr)(cfg) != attrgetter(attr)(defaults), f"{key} left at its default"
    assert parse_config(config_to_dict(cfg)) == cfg
    assert json.loads(json.dumps(config_to_dict(cfg))) == obj


def test_integral_float_count_is_accepted():
    cfg = fig1_config(solver={"lambda": 0.0002, "max_days": 7.0}, seed=3.0)
    assert cfg.solver.max_days == 7 and type(cfg.solver.max_days) is int
    assert cfg.init.seed == 3 and type(cfg.init.seed) is int


def test_fixtures_command(tmp_path, capsys):
    code = cli_run(["fixtures", "fig1", "--out", str(tmp_path / "fx")])
    assert code == 0
    written = json.loads(capsys.readouterr().out)["written"]
    assert set(written) == {"network", "paths", "demand", "tolerances", "vms", "config"}


def test_run_reports_summary_line(tmp_path, capsys):
    files = _write(tmp_path, demand=60.0, solver={"max_days": 3})
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 0
    assert "days" in capsys.readouterr().out


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _append_row(path, row):
    with open(path, "a", newline="") as fh:
        fh.write(row + "\n")


def _validate_errors(files, capsys):
    code = cli_run(["validate"] + _flags(files))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    return err["messages"]


@pytest.mark.parametrize("case, edit, expected", [
    ("link", lambda f: _edit_json(f["network"], lambda o: o["links"].append(
        dict(o["links"][0], cap_vps=0.01))), ("network.json", "duplicate link id 1")),
    ("od", lambda f: _append_row(f["demand"], "od1,a,f,10,2100"),
     ("demand.csv", "duplicate O-D id od1")),
    ("path", lambda f: _edit_json(f["paths"], lambda o: o.append(dict(o[0]))),
     ("paths.json", "duplicate path id p1")),
    ("tolerance", lambda f: _append_row(f["tolerances"], "od1,p1,5"),
     ("tolerances.csv", "duplicate row for O-D od1, path p1")),
    ("orphan tolerance", lambda f: _append_row(f["tolerances"], "od9,p1,5"),
     ("tolerances.csv", "od_id od9 is no od_id in demand")),
    ("sign", lambda f: _edit_json(f["vms"], lambda o: o.append(dict(o[0]))),
     ("sign vms1", "more than one sign")),
])
def test_duplicate_or_orphan_rows_exit_one(tmp_path, capsys, case, edit, expected):
    files = _write(tmp_path)
    edit(files)
    messages = _validate_errors(files, capsys)
    assert any(all(part in m for part in expected) for m in messages), messages


@pytest.mark.parametrize("name, edit, expected", [
    ("demand", lambda f: f.write_text("od_id,origin,destination,Q,T_A,peak\nod1,a,f,360,2100,5\n"),
     "header must name od_id, origin, destination, Q, T_A"),
    ("demand", lambda f: _append_row(f, "od2,a,f,10,2100,7"), "line 3: expected 5 fields"),
    ("tolerances", lambda f: _append_row(f, "od1,p1"), "line 5: expected 3 fields"),
    ("tolerances", lambda f: f.write_text(""), "header must name od_id, path_id, epsilon_s"),
    ("demand", lambda f: f.write_text("od_id,origin,destination,Q,T_A\nod1,a,f,,2100\n"),
     "line 2: Q must be a number, got ''"),
    ("demand", lambda f: f.write_text("T_A,od_id,origin,destination,Q\nx,od1,a,f,360\n"),
     "line 2: T_A must be a number, got 'x'"),
    ("tolerances", lambda f: _append_row(f, "od1,p4,"), "line 5: epsilon_s must be a number, got ''"),
])
def test_csv_field_outside_the_header_exits_one(tmp_path, capsys, name, edit, expected):
    files = _write(tmp_path)
    edit(files[name])
    messages = _validate_errors(files, capsys)
    assert any(expected in m and files[name].name in m for m in messages), messages


@pytest.mark.parametrize("cell", ["nan", "inf", "-1"])
def test_a_csv_number_out_of_range_is_left_to_the_range_check(tmp_path, capsys, cell):
    files = _write(tmp_path)
    files["demand"].write_text(f"od_id,origin,destination,Q,T_A\nod1,a,f,{cell},2100\n")
    messages = _validate_errors(files, capsys)
    assert messages == [f"demand: O-D od1: Q {float(cell)} must be nonnegative and finite"]


@pytest.mark.parametrize("name, edit, key", [
    ("network", lambda o: o.update(nodes=[]), "'nodes'"),
    ("network", lambda o: o["links"][0].update(lanes=2), "link 1: unknown key 'lanes'"),
    ("paths", lambda o: o[0].update(cost=1.0), "path p1: unknown key 'cost'"),
    ("vms", lambda o: o[0].update(active=True), "sign vms1: unknown key 'active'"),
    ("config", lambda o: o.update(modle="IV"), "top level: unknown key 'modle'"),
    ("config", lambda o: o["compliance"].update(bta=5), "compliance: unknown key 'bta'"),
    ("config", lambda o: o["grid"].update(t1=0), "grid: unknown key 't1'"),
    ("config", lambda o: o["penalty"].update(erly=0.5), "penalty: unknown key 'erly'"),
    ("config", lambda o: o["init_profile"].update(seed=3), "init_profile: unknown key 'seed'"),
    ("config", lambda o: o["output"].update(dump=True), "output: unknown key 'dump'"),
    ("config", lambda o: o["compliance"].update(model="III"), "compliance: unknown key 'model'"),
])
def test_unknown_json_key_exits_one(tmp_path, capsys, name, edit, key):
    files = _write(tmp_path)
    _edit_json(files[name], edit)
    messages = _validate_errors(files, capsys)
    assert any(key in m and (name == "config" or files[name].name in m) for m in messages), messages


@pytest.mark.parametrize("name, content, where", [
    ("network", [], "top level"),
    ("paths", ["p1"], "path"),
    ("config", {"grid": {"t0": 0, "tf": 3600, "dt": 10}, "compliance": None}, "compliance"),
])
def test_json_value_that_is_not_an_object_exits_one(tmp_path, capsys, name, content, where):
    files = _write(tmp_path)
    files[name].write_text(json.dumps(content))
    messages = _validate_errors(files, capsys)
    assert any(f"{where}: expected a JSON object" in m for m in messages), messages


@pytest.mark.parametrize("name, edit", [
    ("paths", lambda o: o[0].update(links=5)),
    ("vms", lambda o: o[0].update(omega=5)),
    ("network", lambda o: o["links"][0].update(cap_vps=[1])),
])
def test_json_field_of_the_wrong_type_exits_one(tmp_path, capsys, name, edit):
    files = _write(tmp_path)
    _edit_json(files[name], edit)
    messages = _validate_errors(files, capsys)
    assert any(f"{name} file {files[name]}" in m for m in messages), messages


@pytest.mark.parametrize("name, edit, expected", [
    ("config", lambda o: o["solver"].update({"lambda": "0.0002"}),
     "solver.lambda must be a number, got '0.0002'"),
    ("config", lambda o: o["penalty"].update(late=True), "penalty.late must be a number, got True"),
    ("config", lambda o: o["solver"].update(gap_tolerance=10 ** 400), "too large"),
    ("config", lambda o: o["init_profile"].update(window=[900, 1800, 5]),
     "init_profile.window must be two numbers, got [900, 1800, 5]"),
    ("config", lambda o: o["init_profile"].update(window=["900", 1800]),
     "init_profile.window must be a number, got '900'"),
    ("config", lambda o: o.update(model=3), "model must be a string, got 3"),
    ("network", lambda o: o["links"][0].update(length_m="500"),
     "link 1: length_m must be a number, got '500'"),
    ("network", lambda o: o["links"][0].update(cap_vps=True), "link 1: cap_vps must be a number"),
    ("network", lambda o: o["links"][0].update(w_mps=10 ** 400), "too large"),
    ("network", lambda o: o["links"][0].update(id=1), "link 1: id must be a string, got 1"),
    ("network", lambda o: o.update(links={}), "expected a JSON list of links"),
    ("network", lambda o: o["links"][2].pop("kjam_vpm"), "link 3: missing key 'kjam_vpm'"),
    ("paths", lambda o: o[0].update(links="1257"), "path p1: links must be a list, got '1257'"),
    ("paths", lambda o: o[0].update(links=[1, 2, 5, 7]), "path p1: links must be a string, got 1"),
    ("vms", lambda o: o[0].update(omega=[["600", "3000"]]),
     "sign vms1: omega must be a number, got '600'"),
    ("vms", lambda o: o[0].update(omega=[[600, 3000, 4000]]),
     "sign vms1: omega must be two numbers"),
    ("vms", lambda o: o[0].update(to_link=3), "sign vms1: to_link must be a string, got 3"),
])
def test_malformed_json_record_exits_one(tmp_path, capsys, name, edit, expected):
    files = _write(tmp_path)
    _edit_json(files[name], edit)
    messages = _validate_errors(files, capsys)
    assert any(expected in m and (name == "config" or files[name].name in m)
               for m in messages), messages


@pytest.mark.parametrize("key, value", [("length_m", 0), ("vf_mps", -1), ("cap_vps", math.inf),
                                        ("kjam_vpm", 0.0), ("w_mps", -0.0)])
def test_a_link_range_error_names_its_json_key(tmp_path, capsys, key, value):
    files = _write(tmp_path)
    _edit_json(files["network"], lambda o: o["links"][0].update({key: value}))
    messages = _validate_errors(files, capsys)
    assert messages == [f"network: link 1: {key} must be strictly positive and finite"]


def test_a_path_without_links_exits_one_naming_it(tmp_path, capsys):
    files = _write(tmp_path)
    _edit_json(files["paths"], lambda o: o[0].update(links=[]))
    assert _validate_errors(files, capsys) == ["paths: path p1: links is empty"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, value", [("tf", 1e308), ("dt", 1e-300)])
def test_a_grid_whose_bins_numpy_cannot_allocate_exits_one_naming_it(tmp_path, capsys, key, value):
    # numpy rejects both shapes before it allocates anything
    files = _write(tmp_path)
    _edit_json(files["config"], lambda o: o["grid"].update({key: value}))
    messages = _validate_errors(files, capsys)
    assert len(messages) == 1 and f"grid.{key} {value:g}" in messages[0], messages


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, edit, day", [
    # h - lambda*phi is finite (validate bounds lambda times a free-flow cost by 1e100) but on
    # day 1 at or below -1e33, where demand / dt rounds away
    ("config", lambda o: o["solver"].update({"lambda": 1e30}), 1),
    # day 2's h - lambda*phi is finite but at or below -7e296, where demand / dt rounds away
    ("network", lambda o: o["links"][0].update(cap_vps=1e-300), 2),
])
def test_a_dual_solve_on_values_beyond_float_precision_exits_two(tmp_path, capsys, name, edit, day):
    files = _write(tmp_path)
    _edit_json(files[name], edit)
    assert cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime" and len(err["messages"]) == 1, err
    assert err["messages"][0].startswith(f"day {day}: dual solve: h - lambda*phi"), err


OVERFLOWS = pytest.mark.parametrize("demand, name, edit, field", [
    (360.0, "network", lambda o: o["links"][0].update(length_m=1e308), "network: length_m"),
    (360.0, "config", lambda o: o["penalty"].update(early=1e308), "config: penalty.early"),
    (360.0, "config", lambda o: o["penalty"].update(late=1e308), "config: penalty.early or penalty.late"),
    (1e308, "config", lambda o: None, "demand: O-D od1: Q"),
    (360.0, "config", lambda o: o["solver"].update({"lambda": 1e308}), "config: solver.lambda"),
], ids=["length_m", "penalty.early", "penalty.late", "Q", "lambda"])


@OVERFLOWS
def test_validate_rejects_a_factor_that_overflows_every_day(tmp_path, capsys, demand, name, edit, field):
    # a day multiplies the free-flow path times by the penalties, and Q / dt and lambda by the
    # costs those bound: each factor at or beyond 1e100 is an input error naming its field
    files = _write(tmp_path, demand=demand)
    _edit_json(files[name], edit)
    messages = _validate_errors(files, capsys)
    assert len(messages) == 1 and messages[0].startswith(field), messages
    assert messages[0].endswith(", at or beyond 1e+100"), messages


@pytest.mark.filterwarnings("error")
@OVERFLOWS
def test_a_float_overflow_in_a_day_exits_two_naming_the_day_and_stage(tmp_path, capsys, monkeypatch, demand,
                                                                       name, edit, field):
    # behind validate's product checks the day loop still reports a float overflow as the day and
    # stage it happened in: without those checks, each input overflows in day 1's cost table
    # (path times, penalties or their total) or, for lambda, its dual solve
    monkeypatch.setattr(scenario, "_check_products", lambda network, cfg: None)
    files = _write(tmp_path, demand=demand)
    _edit_json(files[name], edit)
    assert cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime" and len(err["messages"]) == 1, err
    stage = "dual solve: h - lambda*phi, " if "lambda" in field else "cost table: overflow encountered in "
    assert err["messages"][0].startswith(f"day 1: {stage}"), err


@pytest.mark.parametrize("argv, expected", [
    (["run", "--paths", "x"], "vmsdta run: the following arguments are required: "),
    (["sweep", "--param", "nope"], "vmsdta sweep: argument --param: "),
    (["sweep", "--workers", "x"], "vmsdta sweep: argument --workers: "),
    (["fixtures", "fig1", "--demand", "abc"], "vmsdta fixtures: argument --demand: "),
], ids=["missing flags", "param", "workers", "demand"])
def test_a_usage_error_exits_one_with_json(capsys, argv, expected):
    assert cli_run(argv) == 1
    out = capsys.readouterr()
    err = json.loads(out.err)
    assert out.out == "" and err["error"] == "input" and len(err["messages"]) == 1, err
    assert err["messages"][0].startswith(expected), err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_run(["run", "--help"])
    assert exc.value.code == 0 and "--network" in capsys.readouterr().out


def test_sweep_output_does_not_depend_on_workers(tmp_path, capsys):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 3})
    runs = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        assert cli_run(["sweep"] + _flags(files) + ["--param", "lambda", "--values",
                                                    "0.0002,0.0004", "--workers", workers,
                                                    "--out", str(out)]) == 0
        written = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        runs.append((capsys.readouterr().out, written))
    assert runs[0] == runs[1]
    assert {p.parent.name for p in runs[0][1]} == {"", "lambda_0.0002", "lambda_0.0004"}


def test_cli_import_leaves_the_process_pool_to_sweeps():
    # run and validate never start workers, so they need not import them
    code = "import sys, vmsdta.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0


def test_package_import_loads_no_module_and_no_numpy():
    # names are imported from the module that defines them; the package root holds only __version__
    code = ("import sys, vmsdta; loaded = [m for m in sys.modules if m.startswith(('vmsdta.', 'numpy'))]; "
            "sys.exit(str(loaded) if loaded else 0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_validate_with_config_applies_its_default_tolerance(tmp_path, capsys):
    files = _write(tmp_path, default_epsilon_s=-5.0)
    files["tolerances"].write_text("od_id,path_id,epsilon_s\n")
    messages = _validate_errors(files, capsys)
    assert any("epsilon_s for path p1 must be nonnegative" in m for m in messages), messages
    code = cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")])
    assert code == 1


def test_final_day_loader_warnings_reach_the_summary(tmp_path):
    # 2,000 vehicles in 900 s through a 0.5 veh/s entry link cannot clear by tf
    files = _write(tmp_path, demand=2000.0, solver={"max_days": 2})
    out = tmp_path / "o"
    assert cli_run(["run"] + _flags(files) + ["--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    stranded = [w for w in summary["warnings"] if w.startswith("day 2: ")]
    assert len(stranded) == 1 and "still in the network at tf" in stranded[0], summary["warnings"]
    assert summary["residual_final_day"] > 0.005 * 2000.0


@pytest.mark.parametrize("base, swept, expect", [
    (0.01, "0.5", ["config: beta=0.5 outside the tested range [0.001, 0.1]"]),
    (0.5, "0.01", []),
])
def test_sweep_run_reports_its_own_range_warnings(tmp_path, capsys, base, swept, expect):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 2}, compliance={"beta": base})
    out = tmp_path / "sweep_out"
    assert cli_run(["sweep"] + _flags(files) + ["--param", "beta", "--values", swept,
                                                "--out", str(out)]) == 0
    summary = json.loads((out / f"beta_{float(swept):g}" / "summary.json").read_text())
    assert summary["warnings"] == expect


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "beta", "--values", "0.01"],
                                     ["fixtures", "fig1"]])
def test_unusable_out_exits_one_before_any_day(tmp_path, capsys, monkeypatch, command):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 2})
    (tmp_path / "afile").write_text("")

    def no_day(*_args, **_kwargs):
        raise AssertionError("the day loop ran before the output directory was checked")

    monkeypatch.setattr("vmsdta.scenario.run_day_to_day", no_day)
    flags = [] if command[0] == "fixtures" else _flags(files)
    for out in (tmp_path / "afile", tmp_path / "afile" / "sub"):  # a file, and a path under it
        code = cli_run([command[0]] + flags + command[1:] + ["--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "input"
        assert any("--out" in m and "afile" in m for m in err["messages"]), err["messages"]


def _directory_in_place_of(out, name, capsys):
    """Check that the command's stderr is the one runtime error naming ``out / name``,
    which a directory fills."""
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "runtime", "messages": [f"writing {out / name}: {os.strerror(errno.EISDIR)}"]}


def test_fixture_file_that_cannot_be_written_exits_two_naming_it(tmp_path, capsys):
    for path in write_fig1_fixture(tmp_path / "fx").values():
        out = tmp_path / path.stem
        (out / path.name).mkdir(parents=True)
        assert cli_run(["fixtures", "fig1", "--out", str(out)]) == 2
        _directory_in_place_of(out, path.name, capsys)


@pytest.mark.parametrize("name", [*scenario.DAY_TABLES, *scenario.RUN_FILES])
def test_failed_output_write_exits_two_naming_the_file(tmp_path, capsys, name):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 2}, output={"dump_curves": True})
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert cli_run(["run"] + _flags(files) + ["--out", str(out), "--quiet"]) == 2
    _directory_in_place_of(out, name, capsys)
    # the tables opened before it hold their header and nothing else; no later file is made
    tables = list(scenario.DAY_TABLES)
    earlier = tables[:tables.index(name)] if name in tables else []
    for table in earlier:
        assert (out / table).read_bytes() == (",".join(scenario.DAY_TABLES[table]) + "\r\n").encode(), table
    assert sorted(f.name for f in out.iterdir()) == sorted(earlier + [name])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the always-full device")
@pytest.mark.parametrize("name", list(scenario.DAY_TABLES))
def test_a_table_that_fills_the_disk_exits_two_naming_it(tmp_path, capsys, name):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 2})
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")  # opens, but every write fails with ENOSPC
    assert cli_run(["run"] + _flags(files) + ["--out", str(out), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"
    assert err["messages"] == [f"writing {out / name}: {os.strerror(errno.ENOSPC)}"]
    assert not (out / "summary.json").exists()


def test_a_run_that_fails_on_day_2_keeps_day_1_table_rows_and_leaves_no_summary(tmp_path, capsys,
                                                                                monkeypatch):
    real, calls = daytoday.cost_table, []

    def fail_on_day_2(*args):
        calls.append(None)
        if len(calls) == 2:
            raise ValueError("broken")
        return real(*args)

    monkeypatch.setattr(daytoday, "cost_table", fail_on_day_2)
    files = _write(tmp_path, demand=120.0, solver={"max_days": 5})
    out = tmp_path / "out"
    out.mkdir()
    earlier = scenario.RUN_FILES
    for name in earlier:  # an earlier run's
        (out / name).write_text("{}\n")
    assert cli_run(["run"] + _flags(files) + ["--out", str(out), "--quiet"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "runtime", "messages": ["day 2: cost table: broken"]}
    rows = {"days.csv": 1, "compliance.csv": 1, "flows.csv": 3 * 360, "costs.csv": 3 * 360}  # 3 paths x 360 bins
    for name, count in rows.items():
        with open(out / name, newline="") as fh:
            days = [row["day"] for row in csv.DictReader(fh)]
        assert days == ["1"] * count, name
    assert not any((out / name).exists() for name in earlier)
    assert sorted(f.name for f in out.iterdir()) == sorted(rows)


def test_sweep_csv_that_cannot_be_written_exits_two_naming_it(tmp_path, capsys):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 2})
    out = tmp_path / "o"
    (out / "sweep.csv").mkdir(parents=True)
    code = cli_run(["sweep"] + _flags(files) + ["--param", "lambda", "--values", "0.0004", "--out", str(out)])
    assert code == 2
    _directory_in_place_of(out, "sweep.csv", capsys)
    assert (out / "lambda_0.0004" / "summary.json").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_sweep_workers_below_one_exits_one(tmp_path, capsys, workers):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 2})
    code = cli_run(["sweep"] + _flags(files) + ["--param", "beta", "--values", "0.01",
                                                "--workers", workers, "--out", str(tmp_path / "o")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert any("--workers" in m for m in err["messages"]), err["messages"]
    assert not (tmp_path / "o").exists()


def test_sweep_stdout_is_strict_json(tmp_path, capsys):
    # one day leaves no gap and no sign leaves no compliance rate: both NaN
    files = _write(tmp_path, demand=120.0, solver={"max_days": 1})
    out = tmp_path / "o"
    assert cli_run(["sweep"] + _flags(files)[:-4] + ["--config", str(files["config"]),
                                                     "--param", "beta", "--values", "0.01",
                                                     "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    rows = json.loads(capsys.readouterr().out, parse_constant=reject)["rows"]
    assert rows[0]["final_gap"] is None and rows[0]["final_cr"] is None
    with open(out / "sweep.csv") as fh:
        row = next(csv.DictReader(fh))
    assert row["final_gap"] == "nan" and row["final_cr"] == "nan"


@pytest.mark.parametrize("edit, keys", [
    (lambda cfg: cfg.clear(), "'grid.t0', 'grid.tf', 'grid.dt'"),
    (lambda cfg: cfg["grid"].pop("dt"), "'grid.dt'"),
    (lambda cfg: [cfg["grid"].pop(key) for key in ("t0", "tf")], "'grid.t0', 'grid.tf'"),
], ids=["empty", "no-dt", "no-t0-tf"])
def test_missing_required_config_key_exits_one(tmp_path, capsys, edit, keys):
    files = _write(tmp_path)
    _edit_json(files["config"], edit)
    with pytest.raises(ScenarioError) as err:
        parse_config(json.loads(files["config"].read_text()))
    assert err.value.errors == [f"config: missing key {keys}"]
    assert cli_run(["run"] + _flags(files) + ["--out", str(tmp_path / "o")]) == 1
    assert json.loads(capsys.readouterr().err)["messages"] == [f"config: missing key {keys}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("param, values, message", [
    ("w", "0.3,0.3000001", "sweep: values 0.3, 0.3000001 share the run directory w_0.3"),
    ("lambda", "0.0004,0.0002,0.0004",
     "sweep: values 0.0004, 0.0004 share the run directory lambda_0.0004"),
], ids=["close", "repeated"])
def test_sweep_values_sharing_a_run_directory_exit_one(tmp_path, capsys, workers, param,
                                                       values, message):
    files = _write(tmp_path, demand=120.0, solver={"max_days": 2})
    out = tmp_path / "o"
    code = cli_run(["sweep"] + _flags(files) + ["--param", param, "--values", values,
                                                "--workers", workers, "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input" and err["messages"] == [message]
    assert not out.exists()


@pytest.mark.parametrize("demand", ["-5", "nan"])
def test_fixture_with_an_invalid_demand_exits_one(tmp_path, capsys, demand):
    out = tmp_path / "fx"
    assert cli_run(["fixtures", "fig1", "--out", str(out), "--demand", demand]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "input"
    assert err["messages"] == [f"demand: O-D od1: Q {float(demand)} must be nonnegative and finite"]
    assert not out.exists()
