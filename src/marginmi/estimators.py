"""Completed-data analysis: probit fits, design-based totals, MI combining.

The survey-weighted probit is a pseudo-ML fit with Taylor-linearization
variance for stratified without-replacement designs; the response-model fit
is plain ML with inverse observed information. Everything here is a pure
function over immutable samples, so the per-dataset fits of an MI analysis
can run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy.special import log_ndtr

from .errors import (CompletenessError, DesignError, ParameterError,
                     SeparationError, SingularDesignError)
from .models import full_rank_gram, outcome_design, response_design
from .survey import SurveySample

_SCORE_TOL = 1e-8
_MAX_NEWTON = 100
_MAX_HALVINGS = 30
_SEPARATION_NORM = 50.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class FitResult:
    terms: Tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    converged: bool
    iterations_used: int

    def __post_init__(self):
        if self.converged and not (self.standard_errors > 0).all():
            raise ParameterError("converged fit must have positive standard errors")

    def coef(self, term: str) -> float:
        return float(self.coefficients[self.terms.index(term)])

    def se(self, term: str) -> float:
        return float(self.standard_errors[self.terms.index(term)])

    def to_json_dict(self) -> dict:
        return {"terms": list(self.terms),
                "coefficients": {t: float(c) for t, c in zip(self.terms, self.coefficients)},
                "standard_errors": {t: float(s) for t, s in zip(self.terms, self.standard_errors)},
                "converged": bool(self.converged),
                "iterations_used": int(self.iterations_used)}


@dataclass(frozen=True)
class MIEstimate:
    """Rubin-combined point estimate and variance across L completed datasets."""

    point: float
    variance: float
    within: float
    between: float
    n_imputations: int

    def __post_init__(self):
        expected = (1.0 + 1.0 / self.n_imputations) * self.between + self.within
        if abs(self.variance - expected) > 1e-12 * max(1.0, abs(expected)):
            raise ParameterError("variance must equal (1 + 1/L) b + ubar")

    @property
    def se(self) -> float:
        return math.sqrt(self.variance)

    def to_json_dict(self) -> dict:
        return {"point": self.point, "variance": self.variance,
                "within": self.within, "between": self.between,
                "n_imputations": self.n_imputations}


# ---------------------------------------------------------------------------
# Probit fitting
# ---------------------------------------------------------------------------
#
# Every variable is categorical, so a probit fit depends on a completed
# sample only through the unit counts of its distinct (stratum, y, x) or
# (y, x, r) cells. Both fits collapse the sample into that cell table and run
# Newton, the rank check and the variance formulas over at most a dozen rows,
# each weighted by the number of units it stands for.

def _y_code(y: np.ndarray) -> np.ndarray:
    """0, 1, 2 for the design's y = 1 (reference), y = 2 and y = 3 columns."""
    return (y == 2) + 2 * (y == 3)


def _cells(columns, levels):
    """Nonempty cells of small integer columns and their unit counts.

    Column k takes values in range(levels[k]). Returns one array per column
    holding each nonempty cell's value, and the float unit count per cell.
    """
    code = np.zeros(len(columns[0]), dtype=np.int64)
    for col, size in zip(columns, levels):
        code = code * size + col
    counts = np.bincount(code, minlength=math.prod(levels))
    present = np.nonzero(counts)[0]
    n_c = counts[present].astype(float)
    values = []
    for size in reversed(levels):
        values.append(present % size)
        present = present // size
    return values[::-1], n_c


def _loglik(beta, design, z, w):
    lp = design @ beta
    return float(np.dot(w, np.where(z, log_ndtr(lp), log_ndtr(-lp))))


def _score_factors(beta, design, z):
    """Per-row gradient factor s and linear predictor."""
    lp = design @ beta
    log_phi = -0.5 * lp * lp - _LOG_SQRT_2PI
    lam1 = np.exp(log_phi - log_ndtr(lp))       # pdf / cdf
    lam0 = np.exp(log_phi - log_ndtr(-lp))      # pdf / survival
    s = np.where(z, lam1, -lam0)
    omega = lam1 * lam0                          # expected-information weight
    return lp, s, omega


def _newton_probit(design, z, w):
    """Damped Newton (Fisher scoring) on the weighted probit log-likelihood.

    Row i of ``design`` is a cell with response ``z[i]`` and total weight
    ``w[i]`` (its unit count times the units' common weight).
    """
    n, p = design.shape
    if z.all() or not z.any():
        raise SeparationError("all responses identical; coefficients not estimable")
    beta = np.zeros(p)
    ll = _loglik(beta, design, z, w)
    for it in range(1, _MAX_NEWTON + 1):
        lp, s, omega = _score_factors(beta, design, z)
        score = design.T @ (w * s)
        if np.abs(score).max() < _SCORE_TOL:
            info = design.T @ (design * (w * omega)[:, None])
            return beta, info, True, it - 1
        info = design.T @ (design * (w * omega)[:, None])
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError as exc:
            raise SingularDesignError("information matrix is singular") from exc
        # the ascent check tolerates summation noise, which otherwise stalls
        # the final contraction steps of an already-converged fit
        slack = 1e-9 * (1.0 + abs(ll))
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = beta + scale * step
            cand_ll = _loglik(cand, design, z, w)
            if cand_ll >= ll - slack:
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = _loglik(beta, design, z, w)
        if np.linalg.norm(beta) > _SEPARATION_NORM:
            raise SeparationError(
                "coefficient norm diverged; responses appear separated")
    _, s, omega = _score_factors(beta, design, z)
    info = design.T @ (design * (w * omega)[:, None])
    return beta, info, False, _MAX_NEWTON


def weighted_probit_fit(sample: SurveySample, stratum_term: bool = False,
                        with_replacement: bool = False) -> FitResult:
    """Survey-weighted probit of x on y indicators (optionally a stratum term).

    Point estimates solve the weighted score equations; variance is the
    linearization sandwich with stratum-centered score contributions, the
    n_s/(n_s - 1) factor, and the finite population correction (dropped when
    ``with_replacement`` is set). The fit runs on the (stratum, y, x) cells,
    each weighted by w_s times its unit count.
    """
    if not sample.is_complete:
        raise CompletenessError("weighted probit fit needs completed data")
    labels, first, s_idx = np.unique(sample.stratum, return_index=True,
                                     return_inverse=True)
    (s_c, y_c, x_c), n_c = _cells((s_idx, _y_code(sample.y), sample.x > 0.5),
                                  (len(labels), 3, 2))
    stratum_c = labels[s_c]
    design, terms = outcome_design(y_c + 1, stratum_c if stratum_term else None)
    full_rank_gram(design, n_c)
    z = x_c == 1
    w_c = sample.weight[first][s_c]                  # weights are constant per stratum
    beta, info, converged, iters = _newton_probit(design, z, w_c * n_c)

    _, s, _ = _score_factors(beta, design, z)
    u = design * (w_c * s)[:, None]       # weighted score row of each unit in the cell
    v_score = np.zeros((design.shape[1], design.shape[1]))
    for st in sorted(sample.stratum_draws):
        in_s = stratum_c == st
        n, rows = n_c[in_s], u[in_s]
        n_s = n.sum()
        if n_s < 2:
            raise DesignError(f"stratum {st} has n_s < 2; variance undefined")
        centered = rows - (n @ rows) / n_s
        fpc = 1.0
        if not with_replacement:
            fpc = 1.0 - n_s / sample.stratum_population_size(st)
        v_score += fpc * (n_s / (n_s - 1.0)) * centered.T @ (centered * n[:, None])
    info_inv = np.linalg.inv(info)
    cov = info_inv @ v_score @ info_inv
    se = np.sqrt(np.diag(cov))
    return FitResult(terms=terms, coefficients=beta, standard_errors=se,
                     converged=converged, iterations_used=iters)


def unweighted_probit_fit(sample: SurveySample, x_term: bool = True) -> FitResult:
    """ML probit of the nonresponse indicator on y indicators (and x for AN).

    Standard errors come from the inverse observed information at the MLE.
    The fit runs on the (y, x, r) cells, or (y, r) without the x term, each
    weighted by its unit count.
    """
    if x_term and not sample.is_complete:
        raise CompletenessError("response-model fit with an x term needs completed data")
    if x_term:
        (y_c, x_c, r_c), n_c = _cells(
            (_y_code(sample.y), sample.x > 0.5, sample.r == 1), (3, 2, 2))
    else:
        (y_c, r_c), n_c = _cells((_y_code(sample.y), sample.r == 1), (3, 2))
        x_c = None
    design, terms = response_design(y_c + 1, x_c)
    full_rank_gram(design, n_c)
    z = r_c == 1
    beta, _, converged, iters = _newton_probit(design, z, n_c)
    lp, s, _ = _score_factors(beta, design, z)
    obs_w = n_c * s * (s + lp)                      # -d2/deta2 of the loglik
    obs_info = design.T @ (design * obs_w[:, None])
    se = np.sqrt(np.diag(np.linalg.inv(obs_info)))
    return FitResult(terms=terms, coefficients=beta, standard_errors=se,
                     converged=converged, iterations_used=iters)


def ht_variance_by_stratum(sample: SurveySample,
                           with_replacement: bool = False) -> Dict[int, float]:
    """Estimated design variance of the HT total, one term per stratum."""
    if not sample.is_complete:
        raise CompletenessError("HT variance needs completed data")
    out = {}
    for st in sorted(sample.stratum_draws):
        xs = sample.x[sample.stratum == st]
        n_s = len(xs)
        if n_s < 2:
            raise DesignError(f"stratum {st} has n_s < 2; variance undefined")
        big_n = sample.stratum_population_size(st)
        fpc = 1.0 if with_replacement else 1.0 - n_s / big_n
        out[int(st)] = big_n ** 2 * fpc * float(xs.var(ddof=1)) / n_s
    return out


def ht_with_se(sample: SurveySample, with_replacement: bool = False) -> Tuple[float, float]:
    """HT total with its design-based standard error for stratified SRSWOR."""
    if not sample.is_complete:
        raise CompletenessError("HT variance needs completed data")
    total = float(np.dot(sample.weight, sample.x))
    variance = sum(ht_variance_by_stratum(sample, with_replacement).values())
    return total, math.sqrt(variance)


# ---------------------------------------------------------------------------
# MI combining rules
# ---------------------------------------------------------------------------

def rubin_combine(q_values: Sequence[float], u_values: Sequence[float]) -> MIEstimate:
    """Combine L completed-data estimates into one point estimate and variance."""
    q = np.asarray(q_values, dtype=float)
    u = np.asarray(u_values, dtype=float)
    if q.shape != u.shape or q.ndim != 1:
        raise ParameterError("q_values and u_values must be equal-length vectors")
    L = len(q)
    if L < 2:
        raise ParameterError("MI combining needs at least 2 completed datasets")
    if not (u > 0).all():
        raise ParameterError("within-imputation variances must be positive")
    qbar = float(q.mean())
    b = float(q.var(ddof=1))
    ubar = float(u.mean())
    t = (1.0 + 1.0 / L) * b + ubar
    return MIEstimate(point=qbar, variance=t, within=ubar, between=b,
                      n_imputations=L)


def aggregate_runs(mi_estimates: Sequence[MIEstimate]) -> Tuple[float, float]:
    """Across-run summary: mean of the points, root mean of the variances."""
    if len(mi_estimates) < 1:
        raise ParameterError("need at least one run to aggregate")
    points = [e.point for e in mi_estimates]
    variances = [e.variance for e in mi_estimates]
    return float(np.mean(points)), math.sqrt(float(np.mean(variances)))
