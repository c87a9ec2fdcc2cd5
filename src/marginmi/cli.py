"""Command-line interface: run scenarios, impute user files, list what exists.

Exit codes: 0 success, 2 usage or schema problems, 1 runtime failures.
Every successful command writes a run manifest; outputs are staged into a
temporary directory and renamed into place so a failed command never leaves
a partially written output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

from . import __version__
from .errors import MarginMIError, SchemaError
from .harness import (SCENARIO_DESCRIPTIONS, ScenarioConfig, builtin_scenarios,
                      emit_report, estimands_from_chain, refresh_margin_variance,
                      run_scenario)
from .mcmc import ChainSettings, Method, run_chain, write_chain_trace_csv
from .survey import AuxiliaryMargin, read_sample_csv, write_sample_csv

_USAGE_EXIT = 2
_FAILURE_EXIT = 1


def _default_out(name: str) -> str:
    root = os.environ.get("MARGINMI_OUTPUT_ROOT", ".")
    return os.path.join(root, name)


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class _StagedOutput:
    """Context manager: write into a temp dir, rename to target on success."""

    def __init__(self, target: str):
        self.target = os.path.abspath(target)
        if os.path.exists(self.target) and os.listdir(self.target):
            raise SchemaError(f"output directory {self.target} exists and is not empty")
        parent = os.path.dirname(self.target) or "."
        os.makedirs(parent, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=".staging-", dir=parent)

    def __enter__(self) -> str:
        return self.tmp

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            if os.path.isdir(self.target):
                os.rmdir(self.target)
            os.replace(self.tmp, self.target)
        else:
            shutil.rmtree(self.tmp, ignore_errors=True)
        return False


def _write_manifest(out_dir: str, command_line, config_payload: dict,
                    seeds: dict, timings: dict) -> None:
    manifest = {"command_line": list(command_line),
                "config": config_payload,
                "config_digest": _digest(config_payload),
                "seeds": seeds,
                "version": __version__,
                "timings_seconds": {k: round(v, 3) for k, v in timings.items()}}
    with open(os.path.join(out_dir, "run_manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_scenario(token: str) -> ScenarioConfig:
    scenarios = builtin_scenarios()
    if token in scenarios:
        return scenarios[token]
    if os.path.exists(token):
        with open(token, "r", encoding="utf-8") as fh:
            return ScenarioConfig.from_json_dict(json.load(fh))
    raise SchemaError(f"unknown scenario id or config path: {token!r}; "
                      f"known ids: {', '.join(sorted(scenarios))}")


def cmd_simulate(args, argv) -> int:
    t0 = time.perf_counter()
    config = _resolve_scenario(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.burn_in is not None:
        overrides["burn_in"] = args.burn_in
    if args.thin is not None:
        overrides["thin"] = args.thin
    if overrides:
        config = dataclasses.replace(config, **overrides)
    out = args.out or _default_out(config.id)
    jobs = args.jobs or os.cpu_count() or 1
    setup_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    with _StagedOutput(out) as tmp:
        trace_dir = os.path.join(tmp, "traces") if args.trace else None
        report = run_scenario(config, jobs=jobs,
                              with_replacement_variance=args.with_replacement_variance,
                              trace_dir=trace_dir)
        run_s = time.perf_counter() - t1

        t2 = time.perf_counter()
        emit_report(report, tmp, fmt=args.format)
        _write_manifest(tmp, argv, config.to_json_dict(),
                        {"master_seed": config.master_seed,
                         "per_run": list(report.per_run_seeds)},
                        {"setup": setup_s, "run": run_s,
                         "write": time.perf_counter() - t2})
    print(f"{config.id}: population total {report.population_total:.0f}, "
          f"no-missing-data estimate {report.no_missing_total:.0f}")
    for label, summary in report.methods.items():
        print(f"  {label}: total {summary.total_mean:.0f} (se {summary.total_se:.0f})")
        for w in summary.warnings:
            print(f"    warning: {w}", file=sys.stderr)
    print(f"report written to {out}")
    return 0


def _impute_settings(args) -> ChainSettings:
    return ChainSettings(iterations=args.iterations or 10000,
                         burn_in=args.burn_in if args.burn_in is not None else 5000,
                         thin=args.thin or 100,
                         method=Method.parse(args.method),
                         seed=args.seed if args.seed is not None else 0)


def cmd_impute(args, argv) -> int:
    t0 = time.perf_counter()
    settings = _impute_settings(args)
    method = settings.method
    sample = read_sample_csv(args.data)

    margin = None
    if method.uses_constraint:
        if not args.margin:
            raise SchemaError(f"{method.label} requires --margin with the known total")
        with open(args.margin, "r", encoding="utf-8") as fh:
            margin = AuxiliaryMargin.from_json_dict(json.load(fh))
        if args.refresh_variance:
            margin = refresh_margin_variance(
                sample, margin, settings,
                with_replacement=args.with_replacement_variance)
    elif args.margin:
        raise SchemaError(f"{method.label} does not use a margin; drop --margin")

    if method.outcome_has_stratum:
        labels = set(int(s) for s in sample.stratum_draws)
        if not labels <= {1, 2}:
            raise SchemaError(
                f"{method.label} models the design with a stratum-2 indicator and "
                f"needs strata labeled 1/2; found {sorted(labels)}")

    out = args.out or _default_out("impute")
    setup_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    result = run_chain(sample, margin, settings)
    estimates = estimands_from_chain(result, method, args.with_replacement_variance)
    run_s = time.perf_counter() - t1

    t2 = time.perf_counter()
    with open(args.data, "rb") as fh:
        data_digest = hashlib.sha256(fh.read()).hexdigest()
    with _StagedOutput(out) as tmp:
        width = len(str(len(result.datasets)))
        for i, ds in enumerate(result.datasets, start=1):
            write_sample_csv(ds, os.path.join(tmp, f"completed_{i:0{width}d}.csv"))
        with open(os.path.join(tmp, "mi_estimates.json"), "w", encoding="utf-8") as fh:
            json.dump({k: v.to_json_dict() for k, v in estimates.items()},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        diagnostics = {"acceptance_ratio": result.trace.ratio(),
                       "acceptance_by_block": {str(b): v for b, v in
                                               result.trace.ratio_by_block().items()},
                       "warnings": list(result.trace.warnings)}
        with open(os.path.join(tmp, "acceptance.json"), "w", encoding="utf-8") as fh:
            json.dump(diagnostics, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if args.trace:
            write_chain_trace_csv(result, os.path.join(tmp, "chain_trace.csv"))
        _write_manifest(tmp, argv,
                        {"data_sha256": data_digest,
                         "margin": margin.to_json_dict() if margin else None,
                         "refresh_variance": bool(args.refresh_variance),
                         "method": method.label,
                         "iterations": settings.iterations,
                         "burn_in": settings.burn_in,
                         "thin": settings.thin,
                         "seed": settings.seed},
                        {"seed": settings.seed},
                        {"setup": setup_s, "run": run_s,
                         "write": time.perf_counter() - t2})
    for w in result.trace.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{len(result.datasets)} completed datasets and MI estimates written to {out}")
    return 0


def cmd_list(args) -> int:
    if args.scenarios:
        for sid, config in sorted(builtin_scenarios().items()):
            base = sid.removesuffix("-desk")
            desc = SCENARIO_DESCRIPTIONS.get(base, "")
            if sid.endswith("-desk"):
                desc += " (desk scale)"
            n = sum(config.stratum_sizes.values())
            print(f"{sid}: {desc} [N={n}, runs={config.runs}]")
        return 0
    if args.methods:
        descriptions = {
            Method.MAR_WEIGHT: "ignorable response model, stratum term in the outcome model",
            Method.AN_WEIGHT: "additive nonignorable response model, no auxiliary margin",
            Method.AN_CONSTRAINT: "additive nonignorable response model, margin-constrained totals",
            Method.AN_CONSTRAINT_WEIGHT: "margin-constrained with a stratum term in the outcome model",
        }
        for m in Method:
            print(f"{m.label}: {descriptions[m]}")
        return 0
    print("nothing to list: pass --scenarios or --methods", file=sys.stderr)
    return _USAGE_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginmi",
        description="Multiple imputation for nonignorable item nonresponse "
                    "in stratified surveys, constrained by auxiliary margins.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a built-in or JSON-configured scenario")
    sim.add_argument("scenario", help="scenario id (see `list --scenarios`) or config JSON path")
    sim.add_argument("--out", help="output directory (default under MARGINMI_OUTPUT_ROOT)")
    sim.add_argument("--seed", type=int, help="master seed override")
    sim.add_argument("--runs", type=int, help="number of simulation runs")
    sim.add_argument("--iterations", type=int)
    sim.add_argument("--burn-in", dest="burn_in", type=int)
    sim.add_argument("--thin", type=int)
    sim.add_argument("--jobs", type=int, help="worker processes (default: logical cores)")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--trace", action="store_true",
                     help="also dump per-chain trace CSVs under traces/")
    sim.add_argument("--with-replacement-variance", action="store_true",
                     help="drop the finite population correction in variance estimates")

    imp = sub.add_parser("impute", help="multiply impute a survey CSV file")
    imp.add_argument("data", help="survey CSV (columns stratum,weight,y,x,r)")
    imp.add_argument("--margin", help="margin declaration JSON (required for constraint methods)")
    imp.add_argument("--method", default=Method.AN_CONSTRAINT.label,
                     help="one of: " + ", ".join(m.label for m in Method))
    imp.add_argument("--out", help="output directory")
    imp.add_argument("--seed", type=int)
    imp.add_argument("--iterations", type=int)
    imp.add_argument("--burn-in", dest="burn_in", type=int)
    imp.add_argument("--thin", type=int)
    imp.add_argument("--trace", action="store_true", help="also dump the chain trace CSV")
    imp.add_argument("--refresh-variance", action="store_true",
                     help="re-estimate the margin variance from preliminary "
                          "completed datasets before the main run")
    imp.add_argument("--with-replacement-variance", action="store_true")

    lst = sub.add_parser("list", help="list scenario ids or method names")
    lst.add_argument("--scenarios", action="store_true")
    lst.add_argument("--methods", action="store_true")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args, ["marginmi"] + argv)
        if args.command == "impute":
            return cmd_impute(args, ["marginmi"] + argv)
        return cmd_list(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except MarginMIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAILURE_EXIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
