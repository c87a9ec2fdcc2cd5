"""Metropolis-within-Gibbs sampler producing multiply imputed datasets.

Given the parameters, the nonrespondents of a (stratum, y) cell are
exchangeable, so the imputation state is k_sy, the imputed ones per cell. One
Gibbs cycle per iteration: (1) a Metropolis proposal that redraws every count
from Binomial(m_sy, p_sy), its posterior predictive law, and for constraint
methods accepts or rejects it against the auxiliary margin; (2) a conjugate
Dirichlet draw for the y-distribution; (3)-(4) an independence
Metropolis-Hastings step for each probit model's coefficients on its grouped
cell-count likelihood. Unit-level x is built only for retained draws. Every
draw stream is a pure function of (inputs, seed).
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from .errors import DesignError, ParameterError
from .estimators import _MAX_HALVINGS, _MAX_NEWTON, _loglik, _score_factors
from .models import full_rank_gram, outcome_design, response_design
from .survey import AuxiliaryMargin, SurveySample

_MODE_TOL = 1e-10        # Newton decrement before the last step to a posterior mode


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
    counts: np.ndarray                      # (K, 3) imputed ones per (stratum, y) cell
    totals: np.ndarray                      # (K,) completed HT total per stratum


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
# Conjugate and Metropolis-Hastings parameter updates
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


def _log_posterior(beta, design, z, w) -> float:
    """Grouped probit log-likelihood plus the N(0, I) log prior, up to a constant."""
    return _loglik(beta, design, z, w) - 0.5 * float(beta @ beta)


def probit_proposal(design: np.ndarray, z: np.ndarray, w: np.ndarray,
                    start: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Mode of the grouped probit posterior and the Cholesky factor of H, the
    Fisher information plus I at the mode.

    Row c of ``design`` stands for ``w[c]`` units with response ``z[c]``; the
    prior is N(0, I), so the posterior is log-concave with a unique mode even
    for separated responses. Damped Newton runs from ``start`` until the
    Newton decrement is below ``_MODE_TOL``, then takes one last full step:
    the result depends on the cell table alone, up to rounding.
    """
    eye = np.eye(design.shape[1])
    beta = np.asarray(start, dtype=float)
    log_post = _log_posterior(beta, design, z, w)
    for _ in range(_MAX_NEWTON):
        lp, s, _ = _score_factors(beta, design, z)
        grad = design.T @ (w * s) - beta
        hess = design.T @ (design * (w * s * (s + lp))[:, None]) + eye
        step = np.linalg.solve(hess, grad)
        if grad @ step < _MODE_TOL:
            beta = beta + step
            break
        for halvings in range(_MAX_HALVINGS):
            cand = beta + step / 2.0 ** halvings
            cand_post = _log_posterior(cand, design, z, w)
            if cand_post >= log_post - 1e-12 * (1.0 + abs(log_post)):
                break
        beta, log_post = cand, cand_post
    _, _, omega = _score_factors(beta, design, z)
    return beta, np.linalg.cholesky(design.T @ (design * (w * omega)[:, None]) + eye)


def draw_probit_coefficients(beta: np.ndarray, design: np.ndarray, z: np.ndarray,
                             w: np.ndarray, proposal: Tuple[np.ndarray, np.ndarray],
                             rng) -> np.ndarray:
    """One independence Metropolis-Hastings step on the grouped probit
    posterior of the cell table (``design``, ``z``, ``w``).

    ``proposal`` is ``probit_proposal``'s (mode, Cholesky factor of H) for the
    same table; the candidate is drawn from N(mode, H^-1). Returns the
    candidate if accepted, else ``beta``.
    """
    mode, chol = proposal
    eps = rng.standard_normal(len(mode))
    cand = mode + np.linalg.solve(chol.T, eps)
    dev = chol.T @ (beta - mode)
    log_ratio = (_log_posterior(cand, design, z, w) - _log_posterior(beta, design, z, w)
                 + 0.5 * float(eps @ eps - dev @ dev))
    return cand if rng.random() < math.exp(min(log_ratio, 0.0)) else beta


# ---------------------------------------------------------------------------
# Imputation proposal and Metropolis step
# ---------------------------------------------------------------------------

def _imputation_probs(outcome_rows: np.ndarray, response_rows,
                      outcome_coef: np.ndarray, response_coef: np.ndarray) -> np.ndarray:
    """Posterior predictive Pr(x = 1) of a nonrespondent in each cell.

    ``outcome_rows`` are the cells' outcome-design rows, ``response_rows``
    their response-design rows at x = 0 and at x = 1, or None without an x
    term, where the response model cancels. With it, the response-model
    likelihood at r = 1 reweights the outcome-model probability.
    """
    g = ndtr(outcome_rows @ outcome_coef)
    if response_rows is None:
        return g
    rows0, rows1 = response_rows
    num = g * ndtr(rows1 @ response_coef)
    den = num + (1.0 - g) * ndtr(rows0 @ response_coef)
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
    """Cell tables of one sample, shared by every iteration of a chain.

    The nonrespondent cells are the (stratum, y) pairs, stratum-major; the
    chain's counts and every per-cell array here have shape (K, 3). Each
    probit table lists its cell rows once with response 1, then once with
    response 0, weighted by the observed units' counts plus those the
    imputed counts imply.
    """

    def __init__(self, sample: SurveySample, method: Method):
        self.sample = sample
        self.strata = tuple(int(s) for s in sorted(sample.stratum_draws))
        k = len(self.strata)
        s_idx = np.searchsorted(self.strata, sample.stratum)
        cell = 3 * s_idx + sample.y - 1
        miss, obs = np.isnan(sample.x), ~np.isnan(sample.x)
        ones = sample.x == 1.0
        n_cell = np.bincount(cell, minlength=3 * k)
        self.missing = np.bincount(cell[miss], minlength=3 * k).reshape(k, 3)
        self.weight = np.array([sample.stratum_weight(s) for s in self.strata])
        self.obs_total = self.weight * np.bincount(s_idx[ones], minlength=k)
        # the observed-respondent mean of x seeds the initial imputations
        self.obs_x_mean = float(ones.sum() / obs.sum()) if obs.any() else 0.5
        self.y_counts = np.bincount(sample.y - 1, minlength=3).astype(float)
        # unit indices of each nonrespondent cell, for the completed datasets
        order = np.argsort(cell[miss], kind="stable")
        self.missing_units = np.split(np.nonzero(miss)[0][order],
                                      np.cumsum(self.missing.ravel())[:-1])

        cell_y = np.tile([1, 2, 3], k)
        self.outcome_rows, self.outcome_terms = outcome_design(
            cell_y, np.repeat(self.strata, 3) if method.outcome_has_stratum else None,
            self.strata)
        full_rank_gram(self.outcome_rows, n_cell)
        self.outcome_design = np.vstack([self.outcome_rows] * 2)
        self.outcome_z = np.repeat([True, False], 3 * k)
        self._outcome_obs = np.bincount((cell + 3 * k * (sample.x == 0.0))[obs],
                                        minlength=6 * k).astype(float)

        # only the response model's y columns are rank-checked: its x column
        # follows the imputations
        rows, self.response_terms = response_design(np.array([1, 2, 3]))
        full_rank_gram(rows, self.y_counts)
        self.response_rows = None
        # without the x term every unit's row is known: (y, r)
        code = (sample.y - 1 + 3 * (sample.r == 0))
        if method.response_has_x:
            # rows (y, x), x-major; a nonrespondent cell's rows at x = 0 and 1
            rows, self.response_terms = response_design(np.tile([1, 2, 3], 2),
                                                        np.repeat([0.0, 1.0], 3))
            self.response_rows = (rows[cell_y - 1], rows[cell_y + 2])
            code = (sample.y - 1 + 3 * ones + 6 * (sample.r == 0))[obs]
        self.response_design = np.vstack([rows, rows])
        self.response_z = np.repeat([True, False], len(rows))
        self._response_obs = np.bincount(code, minlength=2 * len(rows)).astype(float)

    def totals(self, counts: np.ndarray) -> np.ndarray:
        """Completed HT total of each stratum."""
        return self.obs_total + self.weight * counts.sum(axis=1)

    def outcome_weights(self, counts: np.ndarray) -> np.ndarray:
        return self._outcome_obs + np.r_[counts.ravel(), (self.missing - counts).ravel()]

    def response_weights(self, counts: np.ndarray) -> np.ndarray:
        if self.response_rows is None:
            return self._response_obs
        # nonrespondents (r = 1) enter the response-1 rows at x = 0 and 1
        ones = counts.sum(axis=0)
        return self._response_obs + np.r_[self.missing.sum(axis=0) - ones, ones, np.zeros(6)]

    def completed_x(self, counts: np.ndarray, rng) -> np.ndarray:
        """x with k_sy ones placed uniformly at random among the units of each
        nonrespondent cell: the law of iid Bernoulli draws given their sum."""
        x = self.sample.x.copy()
        for units, k in zip(self.missing_units, counts.ravel()):
            x[units] = 0.0
            x[rng.choice(units, size=k, replace=False)] = 1.0
        return x


def _margin_blocks(margin: Optional[AuxiliaryMargin], prep: _SamplePrep):
    """(labels, totals, variances) of the Metropolis accept/reject blocks."""
    if margin is None:
        return ("overall",), (None,), (None,)
    if margin.scope == "overall":
        return ("overall",), (margin.total,), (margin.variance,)
    missing = [s for s in prep.strata if s not in margin.totals]
    if missing:
        raise DesignError(f"per-stratum margin lacks strata {missing}")
    return (prep.strata, tuple(margin.totals[s] for s in prep.strata),
            tuple(margin.variances[s] for s in prep.strata))


def _metropolis_step(state: ChainState, prep: _SamplePrep,
                     margin: Optional[AuxiliaryMargin], method: Method,
                     rng) -> np.ndarray:
    """Propose a full replacement of the counts; accept per block.

    Mutates ``state`` in place and returns the 0/1 accepted flag per block.
    Without a constraint the proposal is always accepted.
    """
    labels, m_totals, m_vars = _margin_blocks(margin, prep)
    flags = np.ones(len(labels))
    if not prep.missing.any():
        return flags

    probs = _imputation_probs(prep.outcome_rows, prep.response_rows,
                              state.outcome_coef, state.response_coef)
    proposal = rng.binomial(prep.missing, probs.reshape(prep.missing.shape))
    cand = prep.totals(proposal)
    if method.uses_constraint:
        unif = rng.random(len(labels))
        for j, label in enumerate(labels):
            # the strata of the block: all of them for an overall margin
            sel = slice(None) if label == "overall" else slice(j, j + 1)
            p = constraint_acceptance_ratio(cand[sel].sum(), state.totals[sel].sum(),
                                            (m_totals[j], m_vars[j]))
            if unif[j] > p:
                proposal[sel], cand[sel] = state.counts[sel], state.totals[sel]
                flags[j] = 0.0
    state.counts, state.totals = proposal, cand
    return flags


# ---------------------------------------------------------------------------
# Full chain
# ---------------------------------------------------------------------------

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
    counts = rng.binomial(prep.missing, prep.obs_x_mean)
    state = ChainState(theta=np.full(3, 1.0 / 3.0),
                       outcome_coef=np.zeros(len(prep.outcome_terms)),
                       response_coef=np.zeros(len(prep.response_terms)),
                       counts=counts, totals=prep.totals(counts))

    block_labels, _, _ = _margin_blocks(margin, prep)
    n_blocks = len(block_labels)
    indicators = np.zeros((settings.iterations, n_blocks))

    datasets: List[SurveySample] = []
    retained = []               # (theta, outcome, response, totals, flags) per draw
    theta_prior = np.asarray(theta_prior, dtype=float)
    # (mode, Cholesky factor of H) of each coefficient proposal; a mode
    # warm-starts the next Newton
    outcome_prop = (state.outcome_coef, None)
    response_prop = (state.response_coef, None)
    for t in range(1, settings.iterations + 1):
        flags = _metropolis_step(state, prep, margin, method, rng)
        indicators[t - 1] = flags

        state.theta = update_theta(prep.y_counts, theta_prior, rng)

        # outcome model: completed x on y indicators (+ stratum terms)
        w = prep.outcome_weights(state.counts)
        outcome_prop = probit_proposal(prep.outcome_design, prep.outcome_z, w,
                                       outcome_prop[0])
        state.outcome_coef = draw_probit_coefficients(
            state.outcome_coef, prep.outcome_design, prep.outcome_z, w, outcome_prop, rng)

        # response model: r on y indicators (+ completed x for AN methods);
        # without the x term its table never changes
        w = prep.response_weights(state.counts)
        if method.response_has_x or response_prop[1] is None:
            response_prop = probit_proposal(prep.response_design, prep.response_z, w,
                                            response_prop[0])
        state.response_coef = draw_probit_coefficients(
            state.response_coef, prep.response_design, prep.response_z, w,
            response_prop, rng)

        if t > settings.burn_in and (t - settings.burn_in) % settings.thin == 0:
            datasets.append(sample.with_x(prep.completed_x(state.counts, rng)))
            retained.append((state.theta, state.outcome_coef, state.response_coef,
                             state.totals.sum() if n_blocks == 1 else state.totals.copy(),
                             flags))

    warnings: Tuple[str, ...] = ()
    if method.uses_constraint:
        warnings = tuple(_low_acceptance_windows(indicators, block_labels,
                                                 burn_in=settings.burn_in))
    trace = AcceptanceTrace(indicators=indicators, blocks=block_labels,
                            burn_in=settings.burn_in, warnings=warnings)
    theta, outcome, response, totals, accepted = (np.array(c, dtype=float)
                                                  for c in zip(*retained))
    draws = ParameterDraws(theta=theta, outcome=outcome, response=response,
                           outcome_terms=prep.outcome_terms,
                           response_terms=prep.response_terms,
                           totals=totals.reshape(len(retained), n_blocks),
                           block_labels=block_labels, accepted=accepted)
    return ChainResult(datasets=datasets, trace=trace, draws=draws)


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
