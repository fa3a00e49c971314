"""Generated bad inputs: every leaf of fig1's JSON files is set to each of a
fixed list of values, and deleted; every data cell of its CSVs is set to each
of a shorter list.  Each case goes through ``cli_run(["validate", ...])`` and
must exit 0, or exit 1 with one JSON input error whose every message names the
file (its path, or the option that gives it) and the JSON key or CSV column the
case set.  The cases that validate accepts then run (two days) and must exit 0
or 1; only the cases in ``DAY_ERRORS``, which no static check can foresee, may
exit 2, naming the day and the stage.  No exception may leave ``cli_run``.
"""

import copy
import csv
import io
import json
import math
import re

import pytest

from vmsdta.cli import cli_run
from vmsdta.scenario import write_fig1_fixture

DELETE = object()
JSON_VALUES = (None, "x", -1, 0, -0.0, 1e308, math.nan, math.inf, [], {}, True, 1e-300, "1", DELETE)
CSV_VALUES = ("", "x", "-1", "nan", "inf", "0", "1e308")
JSON_FILES = ("network", "paths", "vms", "config")
CSV_FILES = ("demand", "tolerances")
DAY_STAGE = re.compile(r"day \d+: (loading|cost table|BR cost|dual solve|compliance step): ")
# (file, key, value) of the accepted cases a run may fail on: a link capacity of 1e-300 overflows
# only where the day's flow queues on that link (on fig1, link 1, which every path takes, on day 2)
DAY_ERRORS = [("network", "cap_vps", 1e-300)]  # a list: a case value may be unhashable


def _leaves(obj, path=()):
    """The key paths of every leaf of a JSON value: anything but a non-empty dict or list."""
    if isinstance(obj, (dict, list)) and obj:
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def _set(obj, path, value):
    """A copy of ``obj`` with the leaf at ``path`` set to ``value``, or deleted."""
    obj = copy.deepcopy(obj)
    *head, last = path
    parent = obj
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return obj


def _cases(files):
    """(case name, file key, the JSON key or CSV column set, the value, new text) for every case."""
    for name in JSON_FILES:
        obj = json.loads(files[name].read_text())
        for path in _leaves(obj):
            key = [k for k in path if isinstance(k, str)][-1]
            for value in JSON_VALUES:
                shown = "deleted" if value is DELETE else repr(value)
                yield f"{name}{list(path)} {shown}", name, key, value, json.dumps(_set(obj, path, value))
    for name in CSV_FILES:
        rows = list(csv.reader(io.StringIO(files[name].read_text())))
        for r in range(1, len(rows)):
            for c in range(len(rows[r])):
                for value in CSV_VALUES:
                    edited = copy.deepcopy(rows)
                    edited[r][c] = value
                    text = io.StringIO()
                    csv.writer(text).writerows(edited)
                    yield f"{name} row {r} {rows[0][c]} {value!r}", name, rows[0][c], value, text.getvalue()


def _call(argv, capsys):
    """(exit code, stderr as one JSON value, as text if it is not one, or None if empty);
    an exception out of ``cli_run`` takes the exit code's place."""
    try:
        code = cli_run(argv)
    except Exception as exc:  # noqa: BLE001 - any exception out of cli_run is a fault
        code = exc
    err = capsys.readouterr().err
    try:
        return code, json.loads(err) if err else None
    except ValueError:
        return code, err


def _names(message, word):
    """Whether ``message`` holds ``word`` as a whole word (``od`` in ``od p1``, not in ``od_id``)."""
    return re.search(rf"\b{re.escape(word)}\b", message) is not None


def _input_error(err):
    """Whether ``err`` is one input error with messages, none of them empty."""
    return (isinstance(err, dict) and set(err) == {"error", "messages"} and err["error"] == "input"
            and isinstance(err["messages"], list) and err["messages"]
            and all(isinstance(m, str) and m.strip() for m in err["messages"]))


@pytest.mark.filterwarnings("error")
def test_every_generated_bad_input_is_an_input_or_day_error(tmp_path, capsys):
    base = write_fig1_fixture(tmp_path / "base")
    config = json.loads(base["config"].read_text())
    config["solver"]["max_days"] = 2
    base["config"].write_text(json.dumps(config))
    case_dir = tmp_path / "case"
    case_dir.mkdir()

    faults, accepted, n = [], [], 0
    for n, (case, name, key, value, text) in enumerate(_cases(base), 1):
        files = dict(base)
        files[name] = case_dir / base[name].name
        files[name].write_text(text)
        flags = [f"--{flag}={path}" for flag, path in files.items()]
        code, err = _call(["validate", *flags], capsys)
        if code == 0:
            accepted.append((case, files[name], text, flags, (name, key, value) in DAY_ERRORS))
        elif code != 1 or not _input_error(err):
            faults.append(f"validate {case}: {code!r} {err}")
        else:
            faults += [f"validate {case}: {m!r} names not both the {name} file and {key}" for m in err["messages"]
                       if not (_names(m, name) or str(files[name]) in m) or not _names(m, key)]
    assert n == 1582 and len(accepted) > 100  # fig1's leaves and cells; a change to the fixture shows here

    day_errors = 0
    for case, path, text, flags, day_error in accepted:
        path.write_text(text)
        code, err = _call(["run", *flags, f"--out={tmp_path / 'out'}", "--quiet"], capsys)
        ok = (code == 0 and err is None or code == 1 and _input_error(err)
              or day_error and code == 2 and isinstance(err, dict) and err.get("error") == "runtime"
              and len(err["messages"]) == 1 and DAY_STAGE.match(err["messages"][0]))
        day_errors += code == 2
        if not ok:
            faults.append(f"run {case}: {code!r} {err}")
    assert not faults, f"{len(faults)} of {n} cases:\n" + "\n".join(faults[:20])
    assert day_errors == 1  # link 1's cap_vps at 1e-300; a DAY_ERRORS entry that no longer fails shows here


@pytest.mark.parametrize("state", ["not UTF-8", "empty", "a directory"])
@pytest.mark.parametrize("name", JSON_FILES + CSV_FILES)
def test_an_input_file_that_cannot_be_read_is_one_input_error_naming_it(tmp_path, capsys, name, state):
    files = write_fig1_fixture(tmp_path / "base")
    path = files[name]
    if state == "a directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(path.read_bytes() + b"\xff" if state == "not UTF-8" else b"")
    code, err = _call(["validate", *[f"--{key}={file}" for key, file in files.items()]], capsys)
    assert code == 1 and _input_error(err) and len(err["messages"]) == 1, (code, err)
    assert err["messages"][0].startswith(f"{name} file {path}: "), err
