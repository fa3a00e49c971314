"""Command-line entry point: run, validate, fixtures, sweep.

Exit codes: 0 ok, 1 input or usage error, 2 runtime error.  Failures print a
machine-readable JSON object to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .daytoday import DayToDayError
from .dnl import DnlError
from .network import OutputError, ScenarioError, load_scenario
from .scenario import (
    load_bundle,
    load_checked,
    run_bundle,
    run_sweep,
    write_fig1_fixture,
    SWEEP_PARAMS,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RUNTIME = 2


def _fail(code, kind, messages):
    print(json.dumps({"error": kind, "messages": list(messages)}), file=sys.stderr)
    return code


def _add_scenario_args(sub, runs=True):
    """The scenario file options; a command that ``runs`` needs --config and takes --out."""
    sub.add_argument("--network", required=True)
    sub.add_argument("--paths", required=True)
    sub.add_argument("--demand", required=True)
    sub.add_argument("--config", required=runs, default=None)
    sub.add_argument("--tolerances", default=None)
    sub.add_argument("--vms", default=None)
    if runs:
        sub.add_argument("--out", default="out")


def _scenario_files(args):
    """``load_bundle``'s file arguments from the scenario options."""
    names = ("network", "paths", "demand", "config", "tolerances", "vms")
    return {f"{name}_file": getattr(args, name) for name in names}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is an input error: exit 1 with JSON, as the others
        raise ScenarioError([f"{self.prog}: {message}"])


def build_parser():
    parser = _Parser(prog="vmsdta", description="VMS-aware day-to-day dynamic traffic assignment")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="load a scenario, run the day loop, write outputs")
    _add_scenario_args(run_p)
    run_p.add_argument("--quiet", action="store_true")

    val_p = subs.add_parser("validate", help="load and validate scenario files")
    _add_scenario_args(val_p, runs=False)

    fix_p = subs.add_parser("fixtures", help="write a built-in scenario")
    fix_p.add_argument("name", choices=["fig1"])
    fix_p.add_argument("--out", default="fixtures")
    fix_p.add_argument("--demand", type=float, default=360.0)

    sw_p = subs.add_parser("sweep", help="independent replicates over one parameter")
    _add_scenario_args(sw_p)
    sw_p.add_argument("--param", required=True, choices=list(SWEEP_PARAMS))
    sw_p.add_argument("--values", required=True,
                      help="comma-separated parameter values, e.g. 0.001,0.01,0.1")
    sw_p.add_argument("--workers", type=int, default=1)
    return parser


def cli_run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            bundle = load_bundle(**_scenario_files(args))
            result = run_bundle(bundle, args.out)
            if not args.quiet:
                last = result.days[-1]
                print(f"{len(result.days)} days, converged={result.converged}, "
                      f"final gap={last.gap:.3g}, outputs in {args.out}")
            return EXIT_OK

        if args.command == "validate":
            files = _scenario_files(args)
            if args.config is not None:
                network, _, warnings = load_checked(**files)
            else:
                del files["config_file"]
                network, warnings = load_scenario(**files)
            print(json.dumps({
                "ok": True,
                "links": len(network.links),
                "paths": len(network.paths),
                "ods": len(network.ods),
                "signs": len(network.signs),
                "warnings": warnings,
            }))
            return EXIT_OK

        if args.command == "fixtures":
            files = write_fig1_fixture(args.out, demand=args.demand)
            print(json.dumps({"written": {k: str(v) for k, v in files.items()}}))
            return EXIT_OK

        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ScenarioError([f"sweep: --values: {exc}"]) from exc
            if not values:
                return _fail(EXIT_INPUT, "input", ["sweep: no values given"])
            rows = run_sweep(_scenario_files(args), args.param, values,
                             outdir=args.out, workers=args.workers)
            # strict JSON: a final gap or compliance rate that does not exist (NaN) is null
            nulled = [{k: None if v != v else v for k, v in row.items()} for row in rows]
            print(json.dumps({"rows": nulled}))
            return EXIT_OK
    except ScenarioError as exc:
        return _fail(EXIT_INPUT, "input", exc.errors)
    except (DnlError, DayToDayError, OutputError) as exc:
        return _fail(EXIT_RUNTIME, "runtime", [str(exc)])


def main():
    sys.exit(cli_run())


if __name__ == "__main__":
    main()
