"""Finite populations, stratified sampling, missingness imposition, design totals.

Unit records are stored column-wise as numpy arrays. All containers are
immutable after construction (arrays are marked read-only) and safe to share
across threads; the generating operations are pure functions of their inputs
and a seed.

CSV layout for both populations and samples: columns ``stratum, weight, y, x,
r`` with a mandatory header, UTF-8, RFC-4180 quoting. ``x`` is the empty field
when missing. Populations are written as a census: weight 1, r 0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from .errors import (CompletenessError, DesignError, ParameterError,
                     SchemaError)
from .models import norm_cdf

_CSV_COLUMNS = ["stratum", "weight", "y", "x", "r"]


def _freeze(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StratifiedPopulation:
    """A finite population: stratum label, three-category y, binary x per unit."""

    stratum: np.ndarray
    y: np.ndarray
    x: np.ndarray
    stratum_sizes: Dict[int, int]

    def __post_init__(self):
        for name in ("stratum", "y", "x"):
            _freeze(getattr(self, name))
        n = len(self.stratum)
        if len(self.y) != n or len(self.x) != n:
            raise ParameterError("population columns must have equal length")
        if sum(self.stratum_sizes.values()) != n:
            raise ParameterError("stratum_sizes must sum to the unit count")
        labels = set(np.unique(self.stratum).tolist())
        if not labels <= set(self.stratum_sizes):
            raise ParameterError("every unit stratum must appear in stratum_sizes")
        if not np.isin(self.y, (1, 2, 3)).all():
            raise ParameterError("y must take values in {1, 2, 3}")
        if not np.isin(self.x, (0, 1)).all():
            raise ParameterError("x must take values in {0, 1}")

    @property
    def size(self) -> int:
        return len(self.stratum)

    def stratum_indices(self, s: int) -> np.ndarray:
        return np.nonzero(self.stratum == s)[0]


@dataclass(frozen=True)
class SurveySample:
    """Sampled units with base weights; x may be missing (NaN) where r = 1.

    ``weight`` is N_s/n_s for the unit's stratum. Missing x implies r = 1;
    the converse holds for freshly drawn samples but not for completed
    datasets, where imputed values fill x while r still flags the original
    nonresponse.
    """

    stratum: np.ndarray
    weight: np.ndarray
    y: np.ndarray
    x: np.ndarray          # float array; NaN encodes a missing value
    r: np.ndarray
    stratum_draws: Dict[int, int]

    def __post_init__(self):
        for name in ("stratum", "weight", "y", "x", "r"):
            _freeze(getattr(self, name))
        n = len(self.stratum)
        if any(len(getattr(self, c)) != n for c in ("weight", "y", "x", "r")):
            raise ParameterError("sample columns must have equal length")
        if not (self.weight > 0).all():
            raise ParameterError("all weights must be strictly positive")
        miss = np.isnan(self.x)
        if (miss & (self.r == 0)).any():
            raise ParameterError("x missing on a unit with r = 0")
        obs = self.x[~miss]
        if not np.isin(obs, (0.0, 1.0)).all():
            raise ParameterError("observed x must take values in {0, 1}")
        for s, n_s in self.stratum_draws.items():
            if int((self.stratum == s).sum()) != n_s:
                raise ParameterError(f"stratum_draws[{s}] does not match the row count")
        for s in np.unique(self.stratum):
            w = self.weight[self.stratum == s]
            if np.ptp(w) != 0.0:
                raise ParameterError(f"weights vary within stratum {int(s)}")

    @property
    def size(self) -> int:
        return len(self.stratum)

    @property
    def n_missing(self) -> int:
        return int(np.isnan(self.x).sum())

    @property
    def is_complete(self) -> bool:
        return self.n_missing == 0

    @property
    def missing_indices(self) -> np.ndarray:
        return np.nonzero(np.isnan(self.x))[0]

    def stratum_weight(self, s: int) -> float:
        return float(self.weight[self.stratum == s][0])

    def stratum_population_size(self, s: int) -> float:
        """N_s recovered from the weight identity N_s = w_s * n_s."""
        n_s = self.stratum_draws[s]
        raw = self.stratum_weight(s) * n_s
        rounded = round(raw)
        return float(rounded) if math.isclose(raw, rounded, rel_tol=1e-9) else raw

    def with_x(self, x_new: np.ndarray) -> "SurveySample":
        """A copy with x replaced (used to build completed datasets)."""
        return SurveySample(stratum=self.stratum, weight=self.weight, y=self.y,
                            x=np.array(x_new, dtype=float), r=self.r,
                            stratum_draws=dict(self.stratum_draws))


@dataclass(frozen=True)
class SealedTruth:
    """Erased true x values, kept aside for simulation scoring only.

    Imputation code never receives this object; it exists so a harness can
    score imputations against the values it deleted.
    """

    indices: np.ndarray
    x_true: np.ndarray

    def __post_init__(self):
        _freeze(self.indices)
        _freeze(self.x_true)


@dataclass(frozen=True)
class AuxiliaryMargin:
    """A known population total of x with its variance, overall or per stratum."""

    scope: str                                  # "overall" or "per-stratum"
    total: Optional[float] = None
    variance: Optional[float] = None
    totals: Optional[Dict[int, float]] = None
    variances: Optional[Dict[int, float]] = None

    def __post_init__(self):
        if self.scope == "overall":
            if self.total is None or self.variance is None:
                raise ParameterError("overall margin needs total and variance")
            if self.variance <= 0:
                raise ParameterError("margin variance must be strictly positive")
            if self.total < 0:
                raise ParameterError("margin total must be nonnegative")
        elif self.scope == "per-stratum":
            if not self.totals or not self.variances:
                raise ParameterError("per-stratum margin needs totals and variances")
            if set(self.totals) != set(self.variances):
                raise ParameterError("totals and variances must cover the same strata")
            if any(v <= 0 for v in self.variances.values()):
                raise ParameterError("margin variances must be strictly positive")
            if any(t < 0 for t in self.totals.values()):
                raise ParameterError("margin totals must be nonnegative")
        else:
            raise ParameterError(f"unknown margin scope {self.scope!r}")

    @classmethod
    def overall(cls, total: float, variance: float) -> "AuxiliaryMargin":
        return cls(scope="overall", total=float(total), variance=float(variance))

    @classmethod
    def per_stratum(cls, totals: Mapping[int, float],
                    variances: Mapping[int, float]) -> "AuxiliaryMargin":
        return cls(scope="per-stratum",
                   totals={int(s): float(t) for s, t in totals.items()},
                   variances={int(s): float(v) for s, v in variances.items()})

    def check_feasible(self, stratum_sizes: Mapping[int, int]) -> None:
        """Per-stratum totals cannot exceed the stratum size."""
        if self.scope == "per-stratum":
            for s, t in self.totals.items():
                if t > stratum_sizes[s]:
                    raise ParameterError(
                        f"margin total {t} exceeds stratum {s} size {stratum_sizes[s]}")

    def to_json_dict(self) -> dict:
        if self.scope == "overall":
            return {"scope": "overall",
                    "totals": {"overall": self.total},
                    "variances": {"overall": self.variance}}
        return {"scope": "per-stratum",
                "totals": {str(s): t for s, t in sorted(self.totals.items())},
                "variances": {str(s): v for s, v in sorted(self.variances.items())}}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "AuxiliaryMargin":
        try:
            scope = d["scope"]
            totals = d["totals"]
            variances = d["variances"]
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"margin declaration missing field: {exc}") from exc
        if scope == "overall":
            return cls.overall(totals["overall"], variances["overall"])
        if scope == "per-stratum":
            return cls.per_stratum({int(s): float(t) for s, t in totals.items()},
                                   {int(s): float(v) for s, v in variances.items()})
        raise SchemaError(f"unknown margin scope {scope!r}")


def _y_effect_predictor(intercept, eff2, eff3, y):
    return intercept + eff2 * (y == 2) + eff3 * (y == 3)


def generate_population(theta_by_stratum: Mapping[int, tuple],
                        alpha: tuple,
                        stratum_sizes: Mapping[int, int],
                        seed: int) -> StratifiedPopulation:
    """Generate a finite population stratum by stratum.

    Within each stratum, y is drawn from the stratum's three-category
    distribution and x | y from a Bernoulli with probit success probability
    Phi(alpha0 + alpha12*1[y=2] + alpha13*1[y=3]).
    """
    for s, theta in theta_by_stratum.items():
        t = np.asarray(theta, dtype=float)
        if t.shape != (3,) or (t < 0).any() or abs(t.sum() - 1.0) > 1e-12:
            raise ParameterError(f"theta for stratum {s} is not a probability 3-vector")
    for s, n in stratum_sizes.items():
        if n <= 0:
            raise ParameterError(f"stratum_sizes[{s}] must be positive")
        if s not in theta_by_stratum:
            raise ParameterError(f"no theta supplied for stratum {s}")
    a0, a12, a13 = (float(a) for a in alpha)

    rng = np.random.default_rng(seed)
    strata, ys, xs = [], [], []
    for s in sorted(stratum_sizes):
        n_s = int(stratum_sizes[s])
        theta = np.asarray(theta_by_stratum[s], dtype=float)
        y = rng.choice(3, size=n_s, p=theta / theta.sum()) + 1
        p_x = norm_cdf(_y_effect_predictor(a0, a12, a13, y))
        x = (rng.random(n_s) < p_x).astype(np.int64)
        strata.append(np.full(n_s, s, dtype=np.int64))
        ys.append(y.astype(np.int64))
        xs.append(x)
    return StratifiedPopulation(
        stratum=np.concatenate(strata), y=np.concatenate(ys), x=np.concatenate(xs),
        stratum_sizes={int(s): int(n) for s, n in stratum_sizes.items()})


def _partial_fisher_yates(rng, n_pop: int, n_draw: int) -> np.ndarray:
    """First n_draw entries of a uniformly random permutation of range(n_pop)."""
    idx = np.arange(n_pop)
    for i in range(n_draw):
        j = i + int(rng.integers(n_pop - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n_draw]


def draw_stratified_sample(pop: StratifiedPopulation,
                           draws: Mapping[int, int],
                           seed: int) -> SurveySample:
    """Simple random sample without replacement within each stratum.

    Every sampled unit carries the base weight N_s/n_s; x is fully observed
    and r = 0 throughout.
    """
    for s, n_s in draws.items():
        if s not in pop.stratum_sizes:
            raise DesignError(f"stratum {s} not present in the population")
        if n_s <= 0 or n_s > pop.stratum_sizes[s]:
            raise DesignError(
                f"cannot draw {n_s} from stratum {s} of size {pop.stratum_sizes[s]}")

    rng = np.random.default_rng(seed)
    strata, weights, ys, xs = [], [], [], []
    for s in sorted(draws):
        n_s = int(draws[s])
        members = pop.stratum_indices(s)
        chosen = members[_partial_fisher_yates(rng, len(members), n_s)]
        strata.append(np.full(n_s, s, dtype=np.int64))
        weights.append(np.full(n_s, pop.stratum_sizes[s] / n_s))
        ys.append(pop.y[chosen])
        xs.append(pop.x[chosen].astype(float))
    n = sum(int(v) for v in draws.values())
    return SurveySample(
        stratum=np.concatenate(strata), weight=np.concatenate(weights),
        y=np.concatenate(ys), x=np.concatenate(xs), r=np.zeros(n, dtype=np.int64),
        stratum_draws={int(s): int(n_s) for s, n_s in draws.items()})


def impose_missingness(sample: SurveySample, gamma: tuple,
                       seed: int) -> tuple:
    """Erase x at random according to a probit response model on (y, x).

    Each unit's nonresponse indicator is Bernoulli with probability
    Phi(g0 + g12*1[y=2] + g13*1[y=3] + g2*x). Returns the masked sample and a
    SealedTruth holding the erased values; the masked sample alone goes to
    imputation code.
    """
    if not (sample.r == 0).all() or not sample.is_complete:
        raise CompletenessError("missingness can only be imposed on a fully observed sample")
    g0, g12, g13, g2 = (float(g) for g in gamma)
    rng = np.random.default_rng(seed)
    lp = _y_effect_predictor(g0, g12, g13, sample.y) + g2 * sample.x
    r = (rng.random(sample.size) < norm_cdf(lp)).astype(np.int64)
    x = sample.x.copy()
    erased = np.nonzero(r == 1)[0]
    truth = SealedTruth(indices=erased, x_true=sample.x[erased].copy())
    x[erased] = np.nan
    masked = SurveySample(stratum=sample.stratum, weight=sample.weight, y=sample.y,
                          x=x, r=r, stratum_draws=dict(sample.stratum_draws))
    return masked, truth


def population_total(pop: StratifiedPopulation) -> float:
    """Total of x over the population."""
    return float(pop.x.sum())


def population_stratum_totals(pop: StratifiedPopulation) -> Dict[int, float]:
    return {int(s): float(pop.x[pop.stratum == s].sum())
            for s in sorted(pop.stratum_sizes)}


def ht_total(sample: SurveySample) -> float:
    """Horvitz-Thompson total: sum of weight * x over a complete sample."""
    if not sample.is_complete:
        raise CompletenessError(f"{sample.n_missing} missing x values; complete the data first")
    return float(np.dot(sample.weight, sample.x))


def theoretical_margin_variance(pop: StratifiedPopulation,
                                draws: Mapping[int, int],
                                scope: str = "overall"):
    """Design variance of the stratified HT total of x, from population quantities.

    Per stratum: N_s^2 (1 - n_s/N_s) S_s^2 / n_s with S_s^2 the population
    variance of x in the stratum (divisor N_s - 1). ``scope`` selects the
    summed overall value or the per-stratum map.
    """
    if scope not in ("overall", "per-stratum"):
        raise ParameterError(f"unknown scope {scope!r}")
    per = {}
    for s in sorted(draws):
        n_s = int(draws[s])
        if s not in pop.stratum_sizes:
            raise DesignError(f"stratum {s} not present in the population")
        big_n = pop.stratum_sizes[s]
        if big_n < 2:
            raise DesignError(f"stratum {s} has fewer than 2 units")
        if n_s <= 0 or n_s > big_n:
            raise DesignError(f"invalid draw {n_s} for stratum {s} of size {big_n}")
        xs = pop.x[pop.stratum == s]
        s2 = float(xs.var(ddof=1))
        per[int(s)] = big_n ** 2 * (1.0 - n_s / big_n) * s2 / n_s
    if scope == "overall":
        return float(sum(per.values()))
    return per


def margin_from_population(pop: StratifiedPopulation, draws: Mapping[int, int],
                           scope: str = "overall") -> AuxiliaryMargin:
    """Margin built from the realized population totals and theoretical variances."""
    if scope == "overall":
        return AuxiliaryMargin.overall(
            population_total(pop), theoretical_margin_variance(pop, draws, "overall"))
    return AuxiliaryMargin.per_stratum(
        population_stratum_totals(pop), theoretical_margin_variance(pop, draws, "per-stratum"))


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def write_sample_csv(sample: SurveySample, path) -> None:
    """Write the sample in the CSV layout above, rows in sample order.

    The weight is constant within a stratum, so every row is one of the few
    distinct (stratum, y, x, r) lines; each is formatted once, as
    ``csv.writer`` would (no field needs quoting), and indexed per row.
    """
    x_code = np.where(np.isnan(sample.x), 2, sample.x).astype(np.int64)
    code = np.zeros(sample.size, dtype=np.int64)
    for col in (sample.stratum, sample.y, x_code, sample.r):
        values, inverse = np.unique(col, return_inverse=True)
        code = code * len(values) + inverse
    _, first, row_line = np.unique(code, return_index=True, return_inverse=True)
    lines = [f"{int(sample.stratum[i])},{float(sample.weight[i])!r},{int(sample.y[i])},"
             f"{'' if x_code[i] == 2 else x_code[i]},{int(sample.r[i])}\r\n"
             for i in first]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\r\n")
        fh.write("".join([lines[k] for k in row_line.tolist()]))


def write_population_csv(pop: StratifiedPopulation, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for i in range(pop.size):
            writer.writerow([int(pop.stratum[i]), "1.0", int(pop.y[i]),
                             int(pop.x[i]), 0])


def _parse_rows(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header {_CSV_COLUMNS}")
        if [h.strip() for h in header] != _CSV_COLUMNS:
            raise SchemaError(f"{path}: header must be {','.join(_CSV_COLUMNS)}")
        rows = list(reader)
    return rows


def read_sample_csv(path) -> SurveySample:
    """Parse a sample CSV; schema violations raise SchemaError listing row numbers."""
    rows = _parse_rows(path)
    n = len(rows)
    stratum = np.empty(n, dtype=np.int64)
    weight = np.empty(n)
    y = np.empty(n, dtype=np.int64)
    x = np.empty(n)
    r = np.empty(n, dtype=np.int64)
    bad = []
    for i, row in enumerate(rows):
        line = i + 2  # 1-based, after the header
        if len(row) != 5:
            bad.append((line, "expected 5 fields"))
            continue
        try:
            stratum[i] = int(row[0])
            weight[i] = float(row[1])
            y[i] = int(row[2])
            x[i] = float("nan") if row[3].strip() == "" else float(int(row[3]))
            r[i] = int(row[4])
        except ValueError as exc:
            bad.append((line, str(exc)))
            continue
        if weight[i] <= 0:
            bad.append((line, "weight must be positive"))
        if y[i] not in (1, 2, 3):
            bad.append((line, "y must be in {1,2,3}"))
        if not np.isnan(x[i]) and x[i] not in (0.0, 1.0):
            bad.append((line, "x must be 0, 1 or empty"))
        if r[i] not in (0, 1):
            bad.append((line, "r must be 0 or 1"))
        if np.isnan(x[i]) and r[i] == 0:
            bad.append((line, "x missing but r = 0"))
    if bad:
        detail = "; ".join(f"row {ln}: {msg}" for ln, msg in bad[:20])
        raise SchemaError(f"{path}: {len(bad)} offending row(s): {detail}",
                          rows=[ln for ln, _ in bad])
    draws = {int(s): int((stratum == s).sum()) for s in np.unique(stratum)}
    try:
        return SurveySample(stratum=stratum, weight=weight, y=y, x=x, r=r,
                            stratum_draws=draws)
    except ParameterError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def read_population_csv(path) -> StratifiedPopulation:
    sample = read_sample_csv(path)
    if not sample.is_complete:
        raise SchemaError(f"{path}: population files cannot contain missing x")
    sizes = {int(s): int(n) for s, n in sample.stratum_draws.items()}
    return StratifiedPopulation(stratum=sample.stratum.copy(),
                                y=sample.y.copy(),
                                x=sample.x.astype(np.int64),
                                stratum_sizes=sizes)
