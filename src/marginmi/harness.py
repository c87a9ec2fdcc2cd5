"""Scenario definitions, the replicated simulation loop, and report emission.

A scenario bundles the generating parameters, the design, the margin scope
and the imputation methods to compare. ``run_scenario`` replicates the whole
pipeline (population, sample, missingness, chains, completed-data fits, MI
combining) over independent runs and aggregates across runs. Chains fan out
over a process pool; aggregation is a deterministic fold in task order, so a
report depends only on the master seed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import (ParameterError, SchemaError, SeparationError,
                     SingularDesignError)
from .estimators import (MIEstimate, aggregate_runs, ht_variance_by_stratum,
                         ht_with_se, rubin_combine, unweighted_probit_fit,
                         weighted_probit_fit)
from .mcmc import (ChainResult, ChainSettings, Method, run_chain,
                   write_chain_trace_csv)
from .survey import (AuxiliaryMargin, SealedTruth, SurveySample,
                     draw_stratified_sample, generate_population,
                     impose_missingness, margin_from_population,
                     population_stratum_totals, population_total)

PARAMETER_ORDER = ("alpha0", "alpha12", "alpha13",
                   "gamma0", "gamma12", "gamma13", "gamma2")

_DEFAULT_MASTER_SEED = 1729
_SEED_COMPONENTS = {"population": 0, "sample": 1, "missingness": 2}
_CHAIN_COMPONENT_BASE = 10


def subseed(*parts: int) -> int:
    """Deterministic integer seed derived from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ScenarioConfig:
    id: str
    theta_by_stratum: Dict[int, Tuple[float, float, float]]
    alpha: Tuple[float, float, float]
    gamma: Tuple[float, float, float, float]
    stratum_sizes: Dict[int, int]
    stratum_draws: Dict[int, int]
    margin_scope: str = "overall"
    methods: Tuple[Method, ...] = tuple(Method)
    runs: int = 10
    iterations: int = 10000
    burn_in: int = 5000
    thin: int = 100
    master_seed: int = _DEFAULT_MASTER_SEED
    margin_variance_source: str = "population"   # or "sample"

    def __post_init__(self):
        if not self.methods:
            raise ParameterError("methods must be nonempty")
        if self.runs < 1:
            raise ParameterError("runs must be >= 1")
        if self.margin_scope not in ("overall", "per-stratum"):
            raise ParameterError(f"unknown margin scope {self.margin_scope!r}")
        if self.margin_variance_source not in ("population", "sample"):
            raise ParameterError(
                f"unknown margin variance source {self.margin_variance_source!r}")

    def chain_settings(self, method: Method, seed: int) -> ChainSettings:
        return ChainSettings(iterations=self.iterations, burn_in=self.burn_in,
                             thin=self.thin, method=method, seed=seed)

    def run_seeds(self, run_index: int) -> Dict:
        """All derived seeds for one run, recorded in the manifest."""
        seeds = {name: subseed(self.master_seed, run_index, comp)
                 for name, comp in _SEED_COMPONENTS.items()}
        seeds["chains"] = {
            m.label: subseed(self.master_seed, run_index, _CHAIN_COMPONENT_BASE + k)
            for k, m in enumerate(self.methods)}
        return seeds

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "theta_by_stratum": {str(s): list(t) for s, t in sorted(self.theta_by_stratum.items())},
            "alpha": list(self.alpha),
            "gamma": list(self.gamma),
            "stratum_sizes": {str(s): n for s, n in sorted(self.stratum_sizes.items())},
            "stratum_draws": {str(s): n for s, n in sorted(self.stratum_draws.items())},
            "margin_scope": self.margin_scope,
            "methods": [m.label for m in self.methods],
            "runs": self.runs,
            "iterations": self.iterations,
            "burn_in": self.burn_in,
            "thin": self.thin,
            "master_seed": self.master_seed,
            "margin_variance_source": self.margin_variance_source,
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ScenarioConfig":
        try:
            return cls(
                id=str(d["id"]),
                theta_by_stratum={int(s): tuple(float(v) for v in t)
                                  for s, t in d["theta_by_stratum"].items()},
                alpha=tuple(float(v) for v in d["alpha"]),
                gamma=tuple(float(v) for v in d["gamma"]),
                stratum_sizes={int(s): int(n) for s, n in d["stratum_sizes"].items()},
                stratum_draws={int(s): int(n) for s, n in d["stratum_draws"].items()},
                margin_scope=d.get("margin_scope", "overall"),
                methods=tuple(Method.parse(m) for m in d.get(
                    "methods", [m.label for m in Method])),
                runs=int(d.get("runs", 10)),
                iterations=int(d.get("iterations", 10000)),
                burn_in=int(d.get("burn_in", 5000)),
                thin=int(d.get("thin", 100)),
                master_seed=int(d.get("master_seed", _DEFAULT_MASTER_SEED)),
                margin_variance_source=d.get("margin_variance_source", "population"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ParameterError):
                raise
            raise SchemaError(f"bad scenario config: {exc}") from exc


def _scenario(sid, alpha, gamma, scope, desk=False) -> ScenarioConfig:
    scale = 5 if desk else 1
    return ScenarioConfig(
        id=sid,
        theta_by_stratum={1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45)},
        alpha=alpha, gamma=gamma,
        stratum_sizes={1: 35000 // scale, 2: 15000 // scale},
        stratum_draws={1: 1500 // scale, 2: 3500 // scale},
        margin_scope=scope,
        iterations=4000 if desk else 10000,
        burn_in=2000 if desk else 5000,
        thin=40 if desk else 100,
    )


_STRONG_ALPHA = (0.5, -0.5, -1.0)
_STRONG_GAMMA = (-0.25, 0.1, 0.3, -1.1)
_WEAK_ALPHA = (0.15, -0.45, -0.15)
_WEAK_GAMMA = (-1.0, -0.6, 1.4, -0.2)


def builtin_scenarios() -> Dict[str, ScenarioConfig]:
    """The four detailed scenarios plus a down-scaled desk variant of each."""
    out = {}
    specs = [
        ("scenario1", _STRONG_ALPHA, _STRONG_GAMMA, "overall"),
        ("scenario2", _WEAK_ALPHA, _WEAK_GAMMA, "overall"),
        ("scenario3", _STRONG_ALPHA, _STRONG_GAMMA, "per-stratum"),
        ("scenario4", _WEAK_ALPHA, _WEAK_GAMMA, "per-stratum"),
    ]
    for sid, alpha, gamma, scope in specs:
        out[sid] = _scenario(sid, alpha, gamma, scope)
        out[sid + "-desk"] = _scenario(sid + "-desk", alpha, gamma, scope, desk=True)
    return out


SCENARIO_DESCRIPTIONS = {
    "scenario1": "strong x-y association, strong nonignorable missingness, overall margin",
    "scenario2": "weak x-y association, weak nonignorable missingness, overall margin",
    "scenario3": "strong x-y association, strong nonignorable missingness, per-stratum margins",
    "scenario4": "weak x-y association, weak nonignorable missingness, per-stratum margins",
}


# ---------------------------------------------------------------------------
# Running a scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodRunOutcome:
    """Everything one chain contributes to the scenario aggregation."""

    run_index: int
    method: Method
    estimates: Dict[str, MIEstimate]
    acceptance_by_block: Dict[object, float]
    warnings: Tuple[str, ...]


@dataclass(frozen=True)
class MethodSummary:
    method: Method
    total_mean: float
    total_se: float
    acceptance: Dict[object, Dict[str, float]]   # block -> mean/min/max over runs
    parameters: Dict[str, Tuple[float, float]]   # name -> (mean estimate, pooled se)
    per_run_totals: Tuple[float, ...]
    per_run_acceptance: Dict[object, Tuple[float, ...]]
    warnings: Tuple[str, ...]


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    config: ScenarioConfig
    population_total: float                      # mean over the run populations
    per_run_population_totals: Tuple[float, ...]
    no_missing_total: float
    no_missing_se: float
    methods: Dict[str, MethodSummary]            # keyed by method label
    per_run_seeds: Tuple[Dict, ...]
    erased_counts: Tuple[int, ...]
    truth: Dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "config": self.config.to_json_dict(),
            "population_total": self.population_total,
            "per_run_population_totals": list(self.per_run_population_totals),
            "no_missing": {"total": self.no_missing_total, "se": self.no_missing_se},
            "truth": dict(self.truth),
            "methods": {
                label: {
                    "total_mean": s.total_mean,
                    "total_se": s.total_se,
                    "acceptance": {str(b): dict(v) for b, v in s.acceptance.items()},
                    "parameters": {k: {"mean": v[0], "se": v[1]}
                                   for k, v in s.parameters.items()},
                    "per_run_totals": list(s.per_run_totals),
                    "per_run_acceptance": {str(b): list(v)
                                           for b, v in s.per_run_acceptance.items()},
                    "warnings": list(s.warnings),
                }
                for label, s in self.methods.items()},
            "per_run_seeds": list(self.per_run_seeds),
            "erased_counts": list(self.erased_counts),
        }


def estimands_from_chain(result: ChainResult, method: Method,
                         with_replacement: bool) -> Dict[str, MIEstimate]:
    """Fit all estimators on each completed dataset, then Rubin-combine.

    The response-model coefficients are only estimable when the nonresponse
    indicator varies; with nothing missing the gamma family is omitted. A
    fit that fails on one completed dataset raises its error again with the
    1-based draw index prepended.
    """
    names_outcome = {"alpha0": "intercept", "alpha12": "y2", "alpha13": "y3"}
    r = result.datasets[0].r
    names_response = {}
    if 0 < int(r.sum()) < len(r):
        names_response = {"gamma0": "intercept", "gamma12": "y2", "gamma13": "y3"}
        if method.response_has_x:
            names_response["gamma2"] = "x"
    qs: Dict[str, List[float]] = {"T_X": []}
    us: Dict[str, List[float]] = {"T_X": []}
    for key in list(names_outcome) + list(names_response):
        qs[key] = []
        us[key] = []
    for draw, ds in enumerate(result.datasets, start=1):
        total, se = ht_with_se(ds, with_replacement=with_replacement)
        qs["T_X"].append(total)
        us["T_X"].append(se ** 2)
        try:
            wfit = weighted_probit_fit(ds, stratum_term=method.outcome_has_stratum,
                                       with_replacement=with_replacement)
            rfit = (unweighted_probit_fit(ds, x_term=method.response_has_x)
                    if names_response else None)
        except (SeparationError, SingularDesignError) as exc:
            raise type(exc)(f"draw {draw}: {exc}") from exc
        for key, term in names_outcome.items():
            qs[key].append(wfit.coef(term))
            us[key].append(wfit.se(term) ** 2)
        for key, term in names_response.items():
            qs[key].append(rfit.coef(term))
            us[key].append(rfit.se(term) ** 2)
    return {key: rubin_combine(qs[key], us[key]) for key in qs}


def _run_method_task(args) -> MethodRunOutcome:
    (run_index, method, sample, margin, settings, with_replacement,
     trace_path) = args
    try:
        result = run_chain(sample, margin if method.uses_constraint else None,
                           settings)
        if trace_path is not None:
            write_chain_trace_csv(result, trace_path)
        estimates = estimands_from_chain(result, method, with_replacement)
    except (SeparationError, SingularDesignError) as exc:
        raise type(exc)(f"run {run_index}, {method.label}: {exc}") from exc
    acceptance = result.trace.ratio_by_block()
    return MethodRunOutcome(run_index=run_index, method=method,
                            estimates=estimates, acceptance_by_block=acceptance,
                            warnings=result.trace.warnings)


@dataclass(frozen=True)
class _RunData:
    population_total: float
    complete_sample: SurveySample
    masked_sample: SurveySample
    sealed: SealedTruth
    margin: AuxiliaryMargin
    seeds: Dict


def _prepare_run(config: ScenarioConfig, run_index: int) -> _RunData:
    seeds = config.run_seeds(run_index)
    pop = generate_population(config.theta_by_stratum, config.alpha,
                              config.stratum_sizes, seeds["population"])
    sample = draw_stratified_sample(pop, config.stratum_draws, seeds["sample"])
    masked, sealed = impose_missingness(sample, config.gamma, seeds["missingness"])
    if config.margin_variance_source == "population":
        margin = margin_from_population(pop, config.stratum_draws, config.margin_scope)
    else:
        # variances estimated from the realized pre-missingness sample
        variances = ht_variance_by_stratum(sample)
        if config.margin_scope == "overall":
            margin = AuxiliaryMargin.overall(population_total(pop),
                                             sum(variances.values()))
        else:
            margin = AuxiliaryMargin.per_stratum(population_stratum_totals(pop),
                                                 variances)
    return _RunData(population_total=population_total(pop), complete_sample=sample,
                    masked_sample=masked, sealed=sealed, margin=margin, seeds=seeds)


def run_scenario(config: ScenarioConfig, jobs: int = 1,
                 with_replacement_variance: bool = False,
                 trace_dir=None) -> ScenarioReport:
    """Replicate the full pipeline over the configured runs and aggregate.

    ``trace_dir``, when set, receives one chain-trace CSV per (run, method).
    """
    run_data = [_prepare_run(config, m) for m in range(config.runs)]
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    tasks = []
    for m, rd in enumerate(run_data):
        for method in config.methods:
            settings = config.chain_settings(method, rd.seeds["chains"][method.label])
            trace_path = None
            if trace_dir is not None:
                slug = method.label.replace("+", "_")
                trace_path = os.path.join(trace_dir,
                                          f"{config.id}_run{m}_{slug}.trace.csv")
            tasks.append((m, method, rd.masked_sample, rd.margin, settings,
                          with_replacement_variance, trace_path))

    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_method_task, tasks))
    else:
        outcomes = [_run_method_task(t) for t in tasks]

    no_missing = [ht_with_se(rd.complete_sample,
                             with_replacement=with_replacement_variance)
                  for rd in run_data]
    nm_total = float(np.mean([t for t, _ in no_missing]))
    nm_se = float(np.sqrt(np.mean([se ** 2 for _, se in no_missing])))

    methods: Dict[str, MethodSummary] = {}
    for method in config.methods:
        per_run = sorted((o for o in outcomes if o.method is method),
                         key=lambda o: o.run_index)
        total_mean, total_se = aggregate_runs([o.estimates["T_X"] for o in per_run])
        blocks = list(per_run[0].acceptance_by_block)
        acceptance = {}
        per_run_acceptance = {}
        for b in blocks:
            vals = tuple(o.acceptance_by_block[b] for o in per_run)
            per_run_acceptance[b] = vals
            acceptance[b] = {"mean": float(np.mean(vals)),
                             "min": float(np.min(vals)),
                             "max": float(np.max(vals))}
        parameters = {}
        for name in PARAMETER_ORDER:
            if name in per_run[0].estimates:
                parameters[name] = aggregate_runs([o.estimates[name] for o in per_run])
        warnings = tuple(f"run {o.run_index}: {w}" for o in per_run for w in o.warnings)
        methods[method.label] = MethodSummary(
            method=method, total_mean=total_mean, total_se=total_se,
            acceptance=acceptance, parameters=parameters,
            per_run_totals=tuple(o.estimates["T_X"].point for o in per_run),
            per_run_acceptance=per_run_acceptance, warnings=warnings)

    truth = {"alpha0": config.alpha[0], "alpha12": config.alpha[1],
             "alpha13": config.alpha[2], "gamma0": config.gamma[0],
             "gamma12": config.gamma[1], "gamma13": config.gamma[2],
             "gamma2": config.gamma[3]}
    return ScenarioReport(
        scenario_id=config.id, config=config,
        population_total=float(np.mean([rd.population_total for rd in run_data])),
        per_run_population_totals=tuple(rd.population_total for rd in run_data),
        no_missing_total=nm_total, no_missing_se=nm_se, methods=methods,
        per_run_seeds=tuple(rd.seeds for rd in run_data),
        erased_counts=tuple(len(rd.sealed.indices) for rd in run_data),
        truth=truth)


def refresh_margin_variance(sample: SurveySample, margin: AuxiliaryMargin,
                            settings: ChainSettings, n_preliminary: int = 10,
                            with_replacement: bool = False) -> AuxiliaryMargin:
    """Re-estimate the margin variance from preliminary completed datasets.

    Runs a short chain under the pre-specified margin, averages the
    design-variance estimates across the preliminary completed datasets, and
    returns a margin with the same totals and the averaged variance(s).
    Off by default everywhere; callers opt in.
    """
    if n_preliminary < 1:
        raise ParameterError("need at least one preliminary completed dataset")
    prelim = ChainSettings(iterations=settings.burn_in + settings.thin * n_preliminary,
                           burn_in=settings.burn_in, thin=settings.thin,
                           method=settings.method,
                           seed=subseed(settings.seed, 0xFEED))
    result = run_chain(sample, margin, prelim)
    per_stratum = [ht_variance_by_stratum(ds, with_replacement)
                   for ds in result.datasets]
    averaged = {s: float(np.mean([v[s] for v in per_stratum]))
                for s in per_stratum[0]}
    if margin.scope == "overall":
        return AuxiliaryMargin.overall(margin.total, sum(averaged.values()))
    return AuxiliaryMargin.per_stratum(margin.totals, averaged)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _totals_rows(report: ScenarioReport) -> Tuple[List[str], List[List]]:
    blocks = []
    for s in report.methods.values():
        for b in s.acceptance:
            if b not in blocks:
                blocks.append(b)
    header = ["method", "total_mean", "total_se"]
    for b in blocks:
        tag = "" if b == "overall" else f"_stratum{b}"
        header += [f"acceptance_mean{tag}", f"acceptance_min{tag}", f"acceptance_max{tag}"]
    rows = [["Population", repr(report.population_total), ""] + [""] * (3 * len(blocks)),
            ["No Missing Data", repr(report.no_missing_total),
             repr(report.no_missing_se)] + [""] * (3 * len(blocks))]
    for label, s in report.methods.items():
        row = [label, repr(s.total_mean), repr(s.total_se)]
        for b in blocks:
            if s.method.uses_constraint and b in s.acceptance:
                a = s.acceptance[b]
                row += [repr(a["mean"]), repr(a["min"]), repr(a["max"])]
            else:
                row += ["", "", ""]
        rows.append(row)
    return header, rows


def _parameters_rows(report: ScenarioReport) -> Tuple[List[str], List[List]]:
    labels = list(report.methods)
    header = ["parameter", "truth"]
    for label in labels:
        header += [f"{label}_mean", f"{label}_se"]
    rows = []
    for name in PARAMETER_ORDER:
        row = [name, repr(report.truth[name])]
        for label in labels:
            params = report.methods[label].parameters
            if name in params:
                row += [repr(params[name][0]), repr(params[name][1])]
            else:
                row += ["", ""]
        rows.append(row)
    return header, rows


def emit_report(report: ScenarioReport, out_dir, fmt: str = "csv") -> List[str]:
    """Write the totals table, parameters table and manifest; returns paths."""
    if fmt not in ("csv", "json"):
        raise ParameterError(f"unknown report format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    sid = report.scenario_id
    written = []
    if fmt == "csv":
        for kind, (header, rows) in (("totals", _totals_rows(report)),
                                     ("parameters", _parameters_rows(report))):
            path = os.path.join(out_dir, f"{sid}_{kind}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            written.append(path)
    else:
        path = os.path.join(out_dir, f"{sid}_report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    manifest = {
        "scenario_id": sid,
        "master_seed": report.config.master_seed,
        "per_run_seeds": list(report.per_run_seeds),
        "config": report.config.to_json_dict(),
        "erased_counts": list(report.erased_counts),
        "warnings": {label: list(s.warnings) for label, s in report.methods.items()},
    }
    path = os.path.join(out_dir, f"{sid}_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)
    return written


def read_report_table(path) -> List[Dict[str, object]]:
    """Read an emitted CSV table back; numeric fields become floats, blanks None."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row: Dict[str, object] = {}
            for k, v in raw.items():
                if v == "" or v is None:
                    row[k] = None
                else:
                    try:
                        row[k] = float(v)
                    except ValueError:
                        row[k] = v
            rows.append(row)
    return rows
