"""Output checks made apart from the program.

Nothing here imports ``marginmi``: every check recomputes what it compares
from the files an operation wrote and from the benchmark's own knowledge of
its inputs, and raises ``CheckError`` on the first disagreement.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

_RUBIN_RTOL = 1e-9


class CheckError(Exception):
    """An operation's output disagrees with an independent computation."""


# ---------------------------------------------------------------------------
# impute: completed files, Rubin recomputation, acceptance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurveyColumns:
    stratum: np.ndarray
    weight: np.ndarray
    y: np.ndarray
    x: np.ndarray          # NaN where the field is empty
    r: np.ndarray


def read_survey_csv(path) -> SurveyColumns:
    """Parse a ``stratum,weight,y,x,r`` file without the program's reader."""
    stratum, weight, y, x, r = [], [], [], [], []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["stratum", "weight", "y", "x", "r"]:
            raise CheckError(f"{path}: unexpected header {header}")
        for row in reader:
            if len(row) != 5:
                raise CheckError(f"{path}: row {reader.line_num} has {len(row)} fields")
            stratum.append(int(row[0]))
            weight.append(float(row[1]))
            y.append(int(row[2]))
            x.append(float("nan") if row[3] == "" else float(row[3]))
            r.append(int(row[4]))
    return SurveyColumns(np.array(stratum), np.array(weight), np.array(y),
                         np.array(x), np.array(r))


def check_completed(original: SurveyColumns, completed: SurveyColumns, name: str) -> None:
    """A completed file keeps every input row; only empty x may change, to 0 or 1."""
    if len(completed.x) != len(original.x):
        raise CheckError(f"{name}: {len(completed.x)} rows, input has {len(original.x)}")
    for col in ("stratum", "weight", "y", "r"):
        if not np.array_equal(getattr(completed, col), getattr(original, col)):
            bad = int(np.argmax(getattr(completed, col) != getattr(original, col)))
            raise CheckError(f"{name}: column {col} changed at data row {bad + 1}")
    observed = ~np.isnan(original.x)
    if not np.array_equal(completed.x[observed], original.x[observed]):
        bad = int(np.flatnonzero(observed)[
            np.argmax(completed.x[observed] != original.x[observed])])
        raise CheckError(f"{name}: observed x changed at data row {bad + 1}")
    filled = completed.x[~observed]
    if not np.isin(filled, (0.0, 1.0)).all():
        raise CheckError(f"{name}: an imputed x is not 0 or 1")


def ht_total_and_variance(data: SurveyColumns) -> Tuple[float, float]:
    """HT total and its stratified SRSWOR variance, with N_s = w_s * n_s."""
    total = float(np.dot(data.weight, data.x))
    variance = 0.0
    for s in np.unique(data.stratum):
        sel = data.stratum == s
        n_s = int(sel.sum())
        big_n = float(data.weight[sel][0]) * n_s
        variance += big_n ** 2 * (1.0 - n_s / big_n) * float(data.x[sel].var(ddof=1)) / n_s
    return total, variance


def rubin(points: Sequence[float], variances: Sequence[float]) -> Dict[str, float]:
    q = np.asarray(points, dtype=float)
    u = np.asarray(variances, dtype=float)
    between = float(q.var(ddof=1))
    within = float(u.mean())
    return {"point": float(q.mean()), "within": within, "between": between,
            "variance": within + (1.0 + 1.0 / len(q)) * between}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _RUBIN_RTOL * max(abs(a), abs(b), 1e-300)


def check_rubin_total(completed: Sequence[SurveyColumns], mi_estimates: Mapping) -> None:
    """Rubin-combined T_X from the completed files equals mi_estimates.json."""
    pairs = [ht_total_and_variance(c) for c in completed]
    mine = rubin([p for p, _ in pairs], [v for _, v in pairs])
    theirs = mi_estimates["T_X"]
    for key in ("point", "variance", "within", "between"):
        if not _close(mine[key], float(theirs[key])):
            raise CheckError(f"T_X {key}: recomputed {mine[key]!r} from "
                             f"{len(completed)} completed files, reported {theirs[key]!r}")
    if int(theirs["n_imputations"]) != len(completed):
        raise CheckError(f"T_X combines {theirs['n_imputations']} imputations, "
                         f"{len(completed)} completed files were written")


def check_acceptance(acceptance: Mapping, margin_strata: Sequence[int]) -> None:
    """One block per margin stratum, each ratio in (0, 1]."""
    blocks = acceptance["acceptance_by_block"]
    if sorted(blocks) != sorted(str(s) for s in margin_strata):
        raise CheckError(f"acceptance blocks {sorted(blocks)}, margin strata "
                         f"{sorted(margin_strata)}")
    for b, ratio in blocks.items():
        if not 0.0 < float(ratio) <= 1.0:
            raise CheckError(f"acceptance ratio of block {b} is {ratio}")


def check_impute_outputs(input_csv, out_dir, margin_strata: Sequence[int]) -> None:
    """All impute checks on one output directory."""
    original = read_survey_csv(input_csv)
    names = sorted(f for f in os.listdir(out_dir) if f.startswith("completed_"))
    if len(names) < 2:
        raise CheckError(f"{out_dir}: {len(names)} completed files")
    completed = []
    for name in names:
        data = read_survey_csv(os.path.join(out_dir, name))
        check_completed(original, data, name)
        completed.append(data)
    with open(os.path.join(out_dir, "mi_estimates.json"), encoding="utf-8") as fh:
        check_rubin_total(completed, json.load(fh))
    with open(os.path.join(out_dir, "acceptance.json"), encoding="utf-8") as fh:
        check_acceptance(json.load(fh), margin_strata)


# ---------------------------------------------------------------------------
# simulate: population total, property (i), pool against serial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioTruth:
    """The generating parameters of a scenario, as the paper states them."""

    theta_by_stratum: Mapping[int, Tuple[float, float, float]]
    alpha: Tuple[float, float, float]
    stratum_sizes: Mapping[int, int]
    stratum_draws: Mapping[int, int]

    def p_x(self, s: int) -> float:
        """Pr(x = 1) in stratum s: sum over y of theta_sy * Phi(alpha' y)."""
        lps = (self.alpha[0], self.alpha[0] + self.alpha[1], self.alpha[0] + self.alpha[2])
        return sum(t * 0.5 * math.erfc(-lp / math.sqrt(2.0))
                   for t, lp in zip(self.theta_by_stratum[s], lps))

    def expected_total(self) -> float:
        return sum(n * self.p_x(s) for s, n in self.stratum_sizes.items())

    def total_sd(self) -> float:
        return math.sqrt(sum(n * self.p_x(s) * (1.0 - self.p_x(s))
                             for s, n in self.stratum_sizes.items()))

    def margin_sd(self) -> float:
        """sqrt(V_X): SRSWOR design SD of the HT total, at the expected S_s^2."""
        v = 0.0
        for s, big_n in self.stratum_sizes.items():
            n_s = self.stratum_draws[s]
            p = self.p_x(s)
            s2 = p * (1.0 - p) * big_n / (big_n - 1.0)
            v += big_n ** 2 * (1.0 - n_s / big_n) * s2 / n_s
        return math.sqrt(v)


SCENARIO1 = ScenarioTruth(theta_by_stratum={1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45)},
                          alpha=(0.5, -0.5, -1.0),
                          stratum_sizes={1: 35000, 2: 15000},
                          stratum_draws={1: 1500, 2: 3500})

# Population totals further than this many SDs from the closed form are wrong.
POPULATION_SDS = 5.0
# A constraint method's total must lie within this many sqrt(V_X) of the
# population total. Over seeds 0-89 at the workload's chain length the worst
# seen was 8.4 for AN+Constraint+Weight (next worst 4.6) and 5.7 for
# AN+Constraint, and MAR+Weight sat 9.6-14.4 off.
CONSTRAINED_SDS = 9.0
CONSTRAINT_METHODS = ("AN+Constraint", "AN+Constraint+Weight")


def read_totals(path) -> Dict[str, float]:
    """method -> total_mean from a report's totals table."""
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["method"]: float(row["total_mean"]) for row in csv.DictReader(fh)}


def check_population_total(totals: Mapping[str, float], truth: ScenarioTruth,
                           runs: int) -> None:
    """The run-averaged population total is within 5 SD of sum_s N_s p_s."""
    sd = truth.total_sd() / math.sqrt(runs)
    off = (totals["Population"] - truth.expected_total()) / sd
    if abs(off) > POPULATION_SDS:
        raise CheckError(f"population total {totals['Population']} is {off:.2f} SD "
                         f"from the closed form {truth.expected_total():.1f}")


def check_property_i(totals: Mapping[str, float], truth: ScenarioTruth) -> None:
    """Constraint methods land near the population total, closer than MAR+Weight."""
    pop = totals["Population"]
    unit = truth.margin_sd()
    mar_off = abs(totals["MAR+Weight"] - pop) / unit
    for method in CONSTRAINT_METHODS:
        off = abs(totals[method] - pop) / unit
        if off > CONSTRAINED_SDS:
            raise CheckError(f"{method} total is {off:.2f} sqrt(V_X) from the "
                             f"population total (limit {CONSTRAINED_SDS})")
        if off >= mar_off:
            raise CheckError(f"{method} total is {off:.2f} sqrt(V_X) off, no closer "
                             f"than MAR+Weight at {mar_off:.2f}")


def check_simulate_outputs(out_dir, scenario_id: str, truth: ScenarioTruth,
                           runs: int) -> None:
    totals = read_totals(os.path.join(out_dir, f"{scenario_id}_totals.csv"))
    check_population_total(totals, truth, runs)
    check_property_i(totals, truth)


def report_files(scenario_id: str) -> Tuple[str, ...]:
    """The files of a simulate report that depend only on config and seed."""
    return tuple(f"{scenario_id}_{k}" for k in ("totals.csv", "parameters.csv",
                                                "manifest.json"))


def check_same_files(dir_a, dir_b, names: Sequence[str]) -> None:
    """Byte-identical files under two output directories."""
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                raise CheckError(f"{name} differs between {dir_a} and {dir_b}")


# ---------------------------------------------------------------------------
# every workload: identical outputs across a run's operations
# ---------------------------------------------------------------------------

def digest_outputs(out_dir, exclude: Sequence[str] = ("run_manifest.json",)) -> str:
    """sha256 over every output file's name and bytes, timings excluded."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name in exclude:
            continue
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def directory_bytes(out_dir) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
