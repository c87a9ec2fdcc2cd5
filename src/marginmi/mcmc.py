"""Metropolis-within-Gibbs sampler producing multiply imputed datasets.

One Gibbs cycle per iteration: (1) a Metropolis proposal that redraws the
whole missing-x vector from its posterior predictive distribution and, for
constraint methods, accepts or rejects it against the auxiliary margin;
(2) a conjugate Dirichlet draw for the y-distribution; (3)-(4) probit
coefficient draws for the outcome and response models via latent-utility
data augmentation. Every draw stream is a pure function of (inputs, seed).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .errors import DesignError, ParameterError
from .models import full_rank_gram, outcome_design, response_design
from .survey import AuxiliaryMargin, SurveySample

_LOG_TAIL = -30.0        # sign * lp below which latents are drawn in log space


class Method(enum.Enum):
    """The four imputation strategies."""

    MAR_WEIGHT = "MAR+Weight"
    AN_WEIGHT = "AN+Weight"
    AN_CONSTRAINT = "AN+Constraint"
    AN_CONSTRAINT_WEIGHT = "AN+Constraint+Weight"

    @property
    def label(self) -> str:
        return self.value

    @property
    def response_has_x(self) -> bool:
        """Whether the response model carries the incomplete variable."""
        return self is not Method.MAR_WEIGHT

    @property
    def outcome_has_stratum(self) -> bool:
        """Whether the outcome model controls for the design via a stratum term."""
        return self in (Method.MAR_WEIGHT, Method.AN_WEIGHT,
                        Method.AN_CONSTRAINT_WEIGHT)

    @property
    def uses_constraint(self) -> bool:
        return self in (Method.AN_CONSTRAINT, Method.AN_CONSTRAINT_WEIGHT)

    @classmethod
    def parse(cls, name: str) -> "Method":
        for m in cls:
            if name == m.value or name.upper().replace("+", "_").replace("-", "_") == m.name:
                return m
        raise ParameterError(f"unknown method {name!r}; known: "
                             + ", ".join(m.value for m in cls))


@dataclass(frozen=True)
class ChainSettings:
    iterations: int = 10000
    burn_in: int = 5000
    thin: int = 100
    method: Method = Method.AN_CONSTRAINT
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0 or self.burn_in >= self.iterations:
            raise ParameterError("need 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ParameterError("thin must be >= 1")
        if self.n_imputations < 1:
            raise ParameterError("settings yield no completed datasets")

    @property
    def n_imputations(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class ChainState:
    """Snapshot of everything the sampler tracks between iterations."""

    theta: np.ndarray
    outcome_coef: np.ndarray
    response_coef: np.ndarray
    imputations: np.ndarray                 # 0/1 per missing slot
    totals_by_stratum: Dict[int, float]

    @property
    def completed_total(self) -> float:
        return float(sum(self.totals_by_stratum.values()))


@dataclass(frozen=True)
class AcceptanceTrace:
    """Per-iteration acceptance indicators, one column per Metropolis block."""

    indicators: np.ndarray                  # (iterations, n_blocks), 0/1
    blocks: Tuple                           # "overall" or stratum labels
    burn_in: int
    warnings: Tuple[str, ...] = ()

    def ratio(self) -> float:
        """Mean acceptance over post-burn-in iterations, all blocks pooled."""
        post = self.indicators[self.burn_in:]
        return float(post.mean()) if post.size else 1.0

    def ratio_by_block(self) -> Dict:
        post = self.indicators[self.burn_in:]
        return {b: float(post[:, j].mean()) if post.size else 1.0
                for j, b in enumerate(self.blocks)}


@dataclass(frozen=True)
class ParameterDraws:
    theta: np.ndarray                       # (L, 3)
    outcome: np.ndarray                     # (L, p)
    response: np.ndarray                    # (L, q)
    outcome_terms: Tuple[str, ...]
    response_terms: Tuple[str, ...]
    totals: np.ndarray                      # (L, n_blocks) completed HT totals
    block_labels: Tuple
    accepted: np.ndarray                    # (L, n_blocks)


@dataclass(frozen=True)
class ChainResult:
    datasets: List[SurveySample]
    trace: AcceptanceTrace
    draws: ParameterDraws


# ---------------------------------------------------------------------------
# Truncated normal sampling
# ---------------------------------------------------------------------------

def _one_sided_latents(lp: np.ndarray, positive: np.ndarray, rng) -> np.ndarray:
    """Latent utilities for probit augmentation: N(lp, 1) truncated to
    (0, inf) for a positive response and to (-inf, 0) otherwise.

    Inverse-CDF on the retained side: with a = sign * lp and u uniform on
    (0, 1], the draw is lp - sign * ndtri(u * Phi(a)). Phi(a) underflows
    near a = -37.5, so entries with a < -30 take the same quantile as
    ndtri_exp(log u + log Phi(a)), which stays accurate arbitrarily far
    into the tail.
    """
    sign = np.where(positive, 1.0, -1.0)
    u = 1.0 - rng.random(len(lp))            # in (0, 1]
    a = sign * lp
    z = ndtri(u * ndtr(a))
    if a.min() < _LOG_TAIL:
        far = a < _LOG_TAIL
        z[far] = ndtri_exp(np.log(u[far]) + log_ndtr(a[far]))
    return lp - sign * z


# ---------------------------------------------------------------------------
# Conjugate updates
# ---------------------------------------------------------------------------

def update_theta(y_counts, prior, rng) -> np.ndarray:
    """Dirichlet(prior + counts) draw for the three-category y distribution."""
    counts = np.asarray(y_counts, dtype=float)
    prior = np.asarray(prior, dtype=float)
    if counts.shape != (3,) or (counts < 0).any():
        raise ParameterError("y_counts must be 3 nonnegative numbers")
    if prior.shape != (3,) or (prior <= 0).any():
        raise ParameterError("Dirichlet prior parameters must be positive")
    return rng.dirichlet(prior + counts)


def posterior_cholesky(xtx: np.ndarray) -> np.ndarray:
    """Cholesky factor of the coefficient posterior precision I + X'X."""
    return np.linalg.cholesky(xtx + np.eye(xtx.shape[0]))


def draw_probit_coefficients(design: np.ndarray, latents: np.ndarray, rng,
                             chol: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact normal full-conditional draw given latent utilities.

    Standard normal prior on every coefficient: posterior precision
    I + X'X, posterior mean (I + X'X)^{-1} X'u. ``chol`` is the precision's
    Cholesky factor when the design is fixed across calls.
    """
    p = design.shape[1]
    if chol is None:
        chol = posterior_cholesky(design.T @ design)
    xtu = design.T @ latents
    mean = np.linalg.solve(chol.T, np.linalg.solve(chol, xtu))
    z = rng.standard_normal(p)
    return mean + np.linalg.solve(chol.T, z)


# ---------------------------------------------------------------------------
# Imputation proposal and Metropolis step
# ---------------------------------------------------------------------------

def _imputation_probs(y: np.ndarray, stratum: np.ndarray,
                      outcome_coef: np.ndarray, response_coef: np.ndarray,
                      method: Method) -> np.ndarray:
    """Posterior predictive Pr(x = 1) per nonrespondent, vectorized.

    For AN methods the response-model likelihood at r = 1 reweights the
    outcome-model probability; without an x term it cancels.
    """
    g_lp = outcome_coef[0] + outcome_coef[1] * (y == 2) + outcome_coef[2] * (y == 3)
    if method.outcome_has_stratum:
        g_lp = g_lp + outcome_coef[3] * (stratum == 2)
    g = ndtr(g_lp)
    if not method.response_has_x:
        return g
    h_lp = response_coef[0] + response_coef[1] * (y == 2) + response_coef[2] * (y == 3)
    h1 = ndtr(h_lp + response_coef[3])
    h0 = ndtr(h_lp)
    num = g * h1
    den = num + (1.0 - g) * h0
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), g)


def constraint_acceptance_ratio(candidate_total: float, current_total: float,
                                margin: Tuple[float, float]) -> float:
    """Normal density ratio of candidate vs current completed total.

    Computed as a log-density difference so paper-scale totals do not
    underflow; the ratio may exceed 1.
    """
    t_x, v_x = margin
    if v_x <= 0:
        raise ParameterError("margin variance must be strictly positive")
    log_p = ((current_total - t_x) ** 2 - (candidate_total - t_x) ** 2) / (2.0 * v_x)
    # cap to keep exp finite; anything above 1 accepts regardless
    return math.exp(min(log_p, 700.0))


class _SamplePrep:
    """Fixed per-sample arrays shared by every iteration of a chain."""

    def __init__(self, sample: SurveySample, method: Method):
        self.sample = sample
        self.y = sample.y
        self.stratum = sample.stratum
        self.r = sample.r
        self.weight = sample.weight
        self.strata = tuple(int(s) for s in sorted(sample.stratum_draws))
        self.miss = sample.missing_indices
        self.y_mis = sample.y[self.miss]
        self.stratum_mis = sample.stratum[self.miss]
        self.w_mis = sample.weight[self.miss]
        obs_mask = ~np.isnan(sample.x)
        self.obs_total_by_stratum = {
            s: float(np.dot(sample.weight[(sample.stratum == s) & obs_mask],
                            sample.x[(sample.stratum == s) & obs_mask]))
            for s in self.strata}
        self.mis_sel_by_stratum = {s: np.nonzero(self.stratum_mis == s)[0]
                                   for s in self.strata}
        # the observed-respondent mean of x seeds the initial imputations
        n_obs = int(obs_mask.sum())
        self.obs_x_mean = float(sample.x[obs_mask].mean()) if n_obs else 0.5
        self.y_counts = np.array([(sample.y == k).sum() for k in (1, 2, 3)], dtype=float)

        self.outcome_design, self.outcome_terms = outcome_design(
            self.y, self.stratum if method.outcome_has_stratum else None)
        self.outcome_chol = posterior_cholesky(full_rank_gram(self.outcome_design))
        # the x column of an AN response design is refilled every iteration;
        # only the fixed y columns are rank-checked here, and only the MAR
        # design's posterior precision is fixed
        self.response_design, self.response_terms = response_design(
            self.y, sample.x if method.response_has_x else None)
        base_xtx = full_rank_gram(self.response_design[:, :3])
        self.response_chol = None if method.response_has_x else posterior_cholesky(base_xtx)
        self.sel_by_stratum = {s: np.nonzero(self.stratum == s)[0] for s in self.strata}
        self.w_by_stratum = {s: self.weight[sel] for s, sel in self.sel_by_stratum.items()}

    def totals_from(self, x_filled: np.ndarray) -> Dict[int, float]:
        return {s: float(np.dot(self.w_by_stratum[s], x_filled[sel]))
                for s, sel in self.sel_by_stratum.items()}


def _margin_blocks(margin: Optional[AuxiliaryMargin], prep: _SamplePrep):
    """(labels, totals, variances) of the Metropolis accept/reject blocks."""
    if margin is None or margin.scope == "overall":
        t = (margin.total,) if margin is not None else (None,)
        v = (margin.variance,) if margin is not None else (None,)
        return ("overall",), t, v
    missing = [s for s in prep.strata if s not in margin.totals]
    if missing:
        raise DesignError(f"per-stratum margin lacks strata {missing}")
    labels = tuple(s for s in prep.strata)
    return (labels,
            tuple(margin.totals[s] for s in labels),
            tuple(margin.variances[s] for s in labels))


def _metropolis_step(state: ChainState, prep: _SamplePrep, x_filled: np.ndarray,
                     margin: Optional[AuxiliaryMargin], method: Method,
                     rng) -> np.ndarray:
    """Propose a full replacement of the imputations; accept per block.

    Mutates ``state`` and ``x_filled`` in place and returns the 0/1 accepted
    flag per block. Without a constraint the proposal is always accepted.
    """
    labels, m_totals, m_vars = _margin_blocks(margin, prep)
    n_mis = len(prep.miss)
    if n_mis == 0:
        return np.ones(len(labels))

    probs = _imputation_probs(prep.y_mis, prep.stratum_mis,
                              state.outcome_coef, state.response_coef, method)
    proposal = (rng.random(n_mis) < probs).astype(np.int64)

    if not method.uses_constraint:
        state.imputations = proposal
        x_filled[prep.miss] = proposal
        state.totals_by_stratum = prep.totals_from(x_filled)
        return np.ones(1)

    flags = np.zeros(len(labels))
    unif = rng.random(len(labels))
    if margin.scope == "overall":
        cand_by_stratum = {
            s: prep.obs_total_by_stratum[s]
            + float(np.dot(prep.w_mis[prep.mis_sel_by_stratum[s]],
                           proposal[prep.mis_sel_by_stratum[s]]))
            for s in prep.strata}
        cand = sum(cand_by_stratum.values())
        p = constraint_acceptance_ratio(cand, state.completed_total,
                                        (m_totals[0], m_vars[0]))
        if unif[0] <= p:
            state.imputations = proposal
            x_filled[prep.miss] = proposal
            state.totals_by_stratum = cand_by_stratum
            flags[0] = 1.0
    else:
        for j, s in enumerate(labels):
            sel = prep.mis_sel_by_stratum[s]
            cand_s = prep.obs_total_by_stratum[s] + float(
                np.dot(prep.w_mis[sel], proposal[sel]))
            p = constraint_acceptance_ratio(cand_s, state.totals_by_stratum[s],
                                            (m_totals[j], m_vars[j]))
            if unif[j] <= p:
                state.imputations[sel] = proposal[sel]
                x_filled[prep.miss[sel]] = proposal[sel]
                state.totals_by_stratum[s] = cand_s
                flags[j] = 1.0
    return flags


# ---------------------------------------------------------------------------
# Full chain
# ---------------------------------------------------------------------------

def _initial_state(prep: _SamplePrep, method: Method, rng) -> ChainState:
    n_mis = len(prep.miss)
    imputations = (rng.random(n_mis) < prep.obs_x_mean).astype(np.int64)
    x_filled = prep.sample.x.copy()
    x_filled[prep.miss] = imputations
    p_out = len(prep.outcome_terms)
    p_resp = len(prep.response_terms)
    return ChainState(theta=np.full(3, 1.0 / 3.0),
                      outcome_coef=np.zeros(p_out),
                      response_coef=np.zeros(p_resp),
                      imputations=imputations,
                      totals_by_stratum=prep.totals_from(x_filled))


def _low_acceptance_windows(indicators: np.ndarray, blocks=None, burn_in: int = 0,
                            window: int = 500, threshold: float = 0.1) -> List[str]:
    """Warnings for blocks whose acceptance falls below ``threshold`` over some
    ``window`` consecutive post-burn-in iterations.

    Burn-in is skipped: the chain starts from the observed-respondent mean,
    far from the margin, and rejects a lot while it converges.
    """
    warnings = []
    indicators = indicators[burn_in:]
    n, n_blocks = indicators.shape
    if blocks is None:
        blocks = tuple(range(n_blocks))
    if n < window:
        return warnings
    for j in range(n_blocks):
        csum = np.concatenate([[0.0], np.cumsum(indicators[:, j])])
        rolling = (csum[window:] - csum[:-window]) / window
        worst = float(rolling.min())
        if worst < threshold:
            warnings.append(
                f"block {blocks[j]}: acceptance ratio {worst:.3f} below {threshold} "
                f"over a {window}-iteration window; consider inflating the margin "
                f"variance")
    return warnings


def run_chain(sample: SurveySample, margin: Optional[AuxiliaryMargin],
              settings: ChainSettings,
              theta_prior=(1.0, 1.0, 1.0)) -> ChainResult:
    """Run the full Gibbs cycle and emit one completed dataset per retained draw."""
    method = settings.method
    if method.uses_constraint and margin is None:
        raise ParameterError(f"{method.label} requires an auxiliary margin")
    if not method.uses_constraint and margin is not None:
        raise ParameterError(f"{method.label} does not take an auxiliary margin")
    if margin is not None and margin.scope == "per-stratum":
        margin.check_feasible({s: sample.stratum_population_size(s)
                               for s in sample.stratum_draws})

    rng = np.random.default_rng(settings.seed)
    prep = _SamplePrep(sample, method)
    state = _initial_state(prep, method, rng)
    x_filled = sample.x.copy()
    x_filled[prep.miss] = state.imputations

    block_labels, _, _ = _margin_blocks(margin, prep)
    n_blocks = len(block_labels)
    indicators = np.zeros((settings.iterations, n_blocks))

    n_retained = settings.n_imputations
    datasets: List[SurveySample] = []
    theta_draws = np.empty((n_retained, 3))
    outcome_draws = np.empty((n_retained, len(prep.outcome_terms)))
    response_draws = np.empty((n_retained, len(prep.response_terms)))
    totals_draws = np.empty((n_retained, n_blocks))
    accepted_draws = np.empty((n_retained, n_blocks))

    resp_design = prep.response_design
    r_positive = prep.r == 1

    kept = 0
    theta_prior = np.asarray(theta_prior, dtype=float)
    for t in range(1, settings.iterations + 1):
        flags = _metropolis_step(state, prep, x_filled, margin, method, rng)
        indicators[t - 1] = flags

        state.theta = update_theta(prep.y_counts, theta_prior, rng)

        # outcome model: completed x on y indicators (+ stratum term)
        lp = prep.outcome_design @ state.outcome_coef
        latents = _one_sided_latents(lp, x_filled > 0.5, rng)
        state.outcome_coef = draw_probit_coefficients(
            prep.outcome_design, latents, rng, chol=prep.outcome_chol)

        # response model: r on y indicators (+ completed x for AN methods)
        if method.response_has_x:
            resp_design[:, 3] = x_filled
        lp = resp_design @ state.response_coef
        latents = _one_sided_latents(lp, r_positive, rng)
        state.response_coef = draw_probit_coefficients(resp_design, latents, rng,
                                                       chol=prep.response_chol)

        if t > settings.burn_in and (t - settings.burn_in) % settings.thin == 0:
            datasets.append(sample.with_x(x_filled))
            theta_draws[kept] = state.theta
            outcome_draws[kept] = state.outcome_coef
            response_draws[kept] = state.response_coef
            if n_blocks == 1:
                totals_draws[kept, 0] = state.completed_total
            else:
                totals_draws[kept] = [state.totals_by_stratum[s] for s in block_labels]
            accepted_draws[kept] = flags
            kept += 1

    warnings: Tuple[str, ...] = ()
    if method.uses_constraint:
        warnings = tuple(_low_acceptance_windows(indicators, block_labels,
                                                 burn_in=settings.burn_in))
    trace = AcceptanceTrace(indicators=indicators, blocks=block_labels,
                            burn_in=settings.burn_in, warnings=warnings)
    draws = ParameterDraws(theta=theta_draws, outcome=outcome_draws,
                           response=response_draws,
                           outcome_terms=prep.outcome_terms,
                           response_terms=prep.response_terms,
                           totals=totals_draws, block_labels=block_labels,
                           accepted=accepted_draws)
    return ChainResult(datasets=datasets[:n_retained], trace=trace, draws=draws)


def write_chain_trace_csv(result: ChainResult, path) -> None:
    """One row per retained draw: parameters, completed total(s), acceptance."""
    d = result.draws
    header = (["draw"] + ["theta1", "theta2", "theta3"]
              + [f"outcome_{t}" for t in d.outcome_terms]
              + [f"response_{t}" for t in d.response_terms]
              + [f"total_{b}" for b in d.block_labels]
              + [f"accepted_{b}" for b in d.block_labels])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(d.theta)):
            row = ([i + 1] + [repr(float(v)) for v in d.theta[i]]
                   + [repr(float(v)) for v in d.outcome[i]]
                   + [repr(float(v)) for v in d.response[i]]
                   + [repr(float(v)) for v in d.totals[i]]
                   + [int(v) for v in d.accepted[i]])
            writer.writerow(row)
