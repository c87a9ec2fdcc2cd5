import csv
import itertools
import math

import numpy as np
import pytest
from pytest import approx
from scipy import stats
from scipy.special import log_ndtr

from marginmi.errors import ParameterError, SingularDesignError
from marginmi.estimators import _score_factors
from marginmi.mcmc import (ChainSettings, ChainState, Method,
                           constraint_acceptance_ratio,
                           draw_probit_coefficients, probit_proposal,
                           run_chain, update_theta,
                           write_chain_trace_csv, _imputation_probs,
                           _metropolis_step, _SamplePrep)
from marginmi.models import norm_cdf, outcome_design, response_design
from marginmi.survey import (AuxiliaryMargin, draw_stratified_sample,
                             generate_population, ht_total, impose_missingness,
                             margin_from_population)
from conftest import make_sample

# frozen oracle values (mpmath, dps=40)
HALF_NORMAL_MEAN = 0.79788456080286535588
HALF_NORMAL_SD = 0.60281027498908697428
IMPUTATION_PROB = 0.33078531987029924601     # g=Phi(.5), h ratio at y=1, g2=-1.1

THETA = {1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45)}
ALPHA = (0.5, -0.5, -1.0)
GAMMA = (-0.25, 0.1, 0.3, -1.1)


def small_masked_sample(seed=1, sizes=(800, 600), draws=(120, 180)):
    pop = generate_population(THETA, ALPHA, {1: sizes[0], 2: sizes[1]}, seed=seed)
    sample = draw_stratified_sample(pop, {1: draws[0], 2: draws[1]}, seed=seed + 1)
    masked, _ = impose_missingness(sample, GAMMA, seed=seed + 2)
    return pop, masked


# ---------------------------------------------------------------------------
# update_theta
# ---------------------------------------------------------------------------

def _dirichlet_mean_check(counts, prior, rng, n_draws=20000):
    a = np.asarray(prior, float) + np.asarray(counts, float)
    s = a.sum()
    mean = a / s
    var = a * (s - a) / (s * s * (s + 1.0))
    draws = np.array([update_theta(counts, prior, rng) for _ in range(n_draws)])
    mc_se = np.sqrt(var / n_draws)
    assert (np.abs(draws.mean(axis=0) - mean) <= 3 * mc_se).all()


def test_update_theta_conjugate_mean(rng):
    _dirichlet_mean_check((2, 1, 1), (1, 1, 1), rng)


def test_update_theta_zero_counts_is_prior(rng):
    _dirichlet_mean_check((0, 0, 0), (2, 3, 4), rng)


def test_update_theta_large_counts(rng):
    _dirichlet_mean_check((2500, 750, 1750), (1, 1, 1), rng, n_draws=10000)


def test_update_theta_rejects_bad_inputs(rng):
    with pytest.raises(ParameterError):
        update_theta((-1, 0, 0), (1, 1, 1), rng)
    with pytest.raises(ParameterError):
        update_theta((1, 1, 1), (0, 1, 1), rng)


# ---------------------------------------------------------------------------
# the coefficient step on one-unit tables
# ---------------------------------------------------------------------------
#
# With one unit of design value d and response z, the posterior of a single
# coefficient under the N(0, 1) prior is 2 phi(b) Phi(+-d b): the skew-normal
# with shape +d for z = 1 and -d for z = 0. The tests start the step from
# exact posterior draws, so its output must follow the same law.

def _one_unit(d, positive):
    """Cell table of one unit with design value d and response ``positive``."""
    w = np.array([1.0, 0.0]) if positive else np.array([0.0, 1.0])
    return np.array([[d], [d]]), np.array([True, False]), w


def _steps(starts, table, rng):
    """One coefficient step from each row of ``starts`` on the given table."""
    design, z, w = table
    starts = np.asarray(starts, dtype=float).reshape(len(starts), -1)
    proposal = probit_proposal(design, z, w, np.zeros(design.shape[1]))
    return np.array([draw_probit_coefficients(b, design, z, w, proposal, rng)
                     for b in starts])


def _one_unit_steps(d, positive, n, rng):
    """(starts, draws): exact skew-normal posterior draws and one step from each."""
    shape = d if positive else -d
    starts = stats.skewnorm(shape).rvs(size=n, random_state=rng)
    return starts, _steps(starts, _one_unit(d, positive), rng)[:, 0]


def test_truncated_normal_half_normal_mean(rng):
    # |b| is half-normal under every skew-normal, whatever the shape
    n = 20000
    draws = np.concatenate([_one_unit_steps(40.0, positive, n // 2, rng)[1]
                            for positive in (True, False)])
    mc_se = HALF_NORMAL_SD / math.sqrt(n)
    assert abs(np.abs(draws).mean() - HALF_NORMAL_MEAN) <= 3 * mc_se


def test_truncated_normal_unrestricted_is_normal(rng):
    # b ~ N(0, 1) and z from its probit law: b is an exact posterior draw
    # given z, so after one step the draws, mixed over z, are N(0, 1) again
    n, d = 20000, 1.5
    truth = rng.standard_normal(n)
    positive = rng.random(n) < norm_cdf(d * truth)
    draws = np.empty(n)
    for side in (True, False):
        sel = positive == side
        draws[sel] = _steps(truth[sel], _one_unit(d, side), rng)[:, 0]
    assert (draws != truth).mean() > 0.5
    ks = stats.kstest(draws, "norm").statistic
    assert ks < 1.63 / math.sqrt(n)    # 1% critical value


def test_truncated_normal_far_tail_mills_ratio(rng):
    # shape -5: mean -sqrt(2/pi) delta and variance 1 - 2 delta^2 / pi,
    # delta = 5 / sqrt(26)
    n = 20000
    _, draws = _one_unit_steps(-5.0, True, n, rng)
    delta = 5.0 / math.sqrt(26.0)
    var = 1.0 - 2.0 * delta * delta / math.pi
    assert abs(draws.mean() + math.sqrt(2.0 / math.pi) * delta) <= 3 * math.sqrt(var / n)


def test_truncated_normal_vector_bounds(rng):
    design = np.column_stack([np.ones(5), np.linspace(-2, 2, 5)])
    z = np.array([1, 0, 1, 0, 1], dtype=bool)
    w = np.full(5, 3.0)
    proposal = probit_proposal(design, z, w, np.zeros(2))
    beta = np.array([0.3, -0.2])
    out = draw_probit_coefficients(beta, design, z, w, proposal, rng)
    assert out.shape == (2,)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("lp,positive", [(0.7, True), (0.7, False),
                                         (-2.5, True), (3.5, False),
                                         (2.0, True), (-1.0, False)])
def test_one_sided_latent_kernel_matches_truncnorm(rng, lp, positive):
    n = 10000
    starts, draws = _one_unit_steps(lp, positive, n, rng)
    assert (draws != starts).mean() > 0.5
    ks = stats.kstest(draws, stats.skewnorm(lp if positive else -lp).cdf).statistic
    assert ks < 1.63 / math.sqrt(n)


def test_one_sided_latents_log_branch_is_the_same_quantile():
    # the proposal is a function of the cell table alone: Newton from any
    # start lands on the same mode and factor
    design = np.column_stack([np.ones(6), [0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 1, 1]])
    design = np.vstack([design, design])
    z = np.repeat([True, False], 6)
    w = np.array([30, 12, 4, 9, 0, 7, 10, 25, 0, 2, 5, 1], dtype=float)
    mode, chol = probit_proposal(design, z, w, np.zeros(3))
    score = design.T @ (w * _score_factors(mode, design, z)[1]) - mode
    assert np.abs(score).max() < 1e-9
    for start in ([5.0, -5.0, 5.0], [-3.0, 2.0, 8.0], mode):
        other_mode, other_chol = probit_proposal(design, z, w, np.array(start))
        assert other_mode == approx(mode, rel=1e-12, abs=1e-12)
        assert other_chol == approx(chol, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("lp", [-200.0, -40.0, 40.0, 200.0])
def test_one_sided_latents_sign_at_extreme_predictors(rng, lp, positive):
    # the skew-normal with shape a puts 1/2 - arctan(|a|)/pi of its mass on
    # the side opposite to a
    n = 20000
    starts, draws = _one_unit_steps(lp, positive, n, rng)
    assert np.isfinite(draws).all()
    assert (draws != starts).any()
    shape = lp if positive else -lp
    wrong = 0.5 - math.atan(abs(shape)) / math.pi
    got = (np.sign(draws) != np.sign(shape)).mean()
    assert abs(got - wrong) <= 4 * math.sqrt(wrong * (1 - wrong) / n)


@pytest.mark.parametrize("lp,positive", [(-40.0, True), (40.0, False)])
def test_one_sided_latents_far_tail_mills_ratio(rng, lp, positive):
    # the response sits 40 sd into the tail at b = -1 (lp < 0, z = 1) or
    # b = 1 (lp > 0, z = 0); the posterior is the skew-normal with shape
    # -40, of mean -sqrt(2/pi) delta and variance 1 - 2 delta^2 / pi
    n = 20000
    _, draws = _one_unit_steps(lp, positive, n, rng)
    delta = 40.0 / math.sqrt(1.0 + 40.0 ** 2)
    var = 1.0 - 2.0 * delta * delta / math.pi
    assert abs(draws.mean() + math.sqrt(2.0 / math.pi) * delta) <= 3 * math.sqrt(var / n)


# ---------------------------------------------------------------------------
# the coefficient step on grouped tables
# ---------------------------------------------------------------------------

def _quadrature_posterior(design, z, w, half_width=5.0, points=801):
    """Grid and normalized mass of a 2-coefficient grouped probit posterior."""
    grid = np.linspace(-half_width, half_width, points)
    b0, b1 = np.meshgrid(grid, grid, indexing="ij")
    beta = np.stack([b0.ravel(), b1.ravel()], axis=1)
    lp = beta @ design.T
    loglik = (np.where(z, log_ndtr(lp), log_ndtr(-lp)) * w).sum(axis=1)
    log_mass = loglik - 0.5 * (beta ** 2).sum(axis=1)
    mass = np.exp(log_mass - log_mass.max())
    return beta, mass / mass.sum()


# (intercept, x) tables: rows (x = 0, z = 1), (x = 1, z = 1), then the same
# cells with z = 0, weighted by unit counts
GROUPED_TABLES = {
    "regular": (1.0, np.array([6.0, 4.0, 5.0, 3.0])),
    # every x = 1 unit has z = 1: the MLE of the x coefficient is infinite
    "quasi-separated": (1.0, np.array([4.0, 5.0, 6.0, 0.0])),
    # the same at x = 40, where the prior alone bounds the coefficient and
    # the x = 40 rows sit near |lp| = 40 over the bulk of the posterior
    "lp40": (40.0, np.array([4.0, 5.0, 6.0, 0.0])),
}


def _grouped_table(table):
    x, w = GROUPED_TABLES[table]
    return np.array([[1.0, 0.0], [1.0, x]] * 2), np.repeat([True, False], 2), w


@pytest.mark.parametrize("table", list(GROUPED_TABLES))
def test_coefficient_step_leaves_grouped_posterior_invariant(rng, table):
    # starts drawn from the quadrature posterior (uniform within each grid
    # cell), one step each: the draws must keep the same marginal laws
    design, z, w = _grouped_table(table)
    grid, mass = _quadrature_posterior(design, z, w)
    n = 20000
    cells = rng.choice(len(mass), size=n, p=mass)
    step = grid[1, 1] - grid[0, 1]
    starts = grid[cells] + (rng.random((n, 2)) - 0.5) * step
    draws = _steps(starts, (design, z, w), rng)
    assert (draws != starts).any(axis=1).mean() > 0.1
    for j in range(2):
        order = np.argsort(grid[:, j], kind="stable")
        cdf = np.cumsum(mass[order])
        values = grid[order, j]
        last = np.r_[values[1:] != values[:-1], True]
        marginal_cdf = lambda x: np.interp(x, values[last] + step / 2, cdf[last])
        ks = stats.kstest(draws[:, j], marginal_cdf).statistic
        assert ks < 1.95 / math.sqrt(n), f"coefficient {j}: KS {ks:.4f}"   # 0.1% level


def test_update_coefficients_empty_data_draws_from_prior(rng):
    design, z, w = np.empty((0, 3)), np.empty(0, dtype=bool), np.empty(0)
    proposal = probit_proposal(design, z, w, np.zeros(3))
    beta = np.zeros(3)
    draws = []
    for _ in range(20000):
        beta = draw_probit_coefficients(beta, design, z, w, proposal, rng)
        draws.append(beta)
    draws = np.array(draws)
    mc_se = 1.0 / math.sqrt(len(draws))
    assert (np.abs(draws.mean(axis=0)) <= 3 * mc_se).all()
    assert draws.std(axis=0) == approx(np.ones(3), rel=0.05)


def test_coefficient_draw_has_conjugate_conditional_mean(rng):
    # 2-coefficient posterior mean and covariance against quadrature, from
    # the step iterated on a regular table
    design, z, w = _grouped_table("regular")
    grid, mass = _quadrature_posterior(design, z, w)
    mean = mass @ grid
    cov = (grid - mean).T @ ((grid - mean) * mass[:, None])
    proposal = probit_proposal(design, z, w, np.zeros(2))
    beta = np.zeros(2)
    draws = []
    for _ in range(20000):
        beta = draw_probit_coefficients(beta, design, z, w, proposal, rng)
        draws.append(beta)
    draws = np.array(draws)
    # near-independent draws: the acceptance rate is high on this table
    mc_se = np.sqrt(np.diag(cov) / len(draws) * 2.0)
    assert (np.abs(draws.mean(axis=0) - mean) <= 3 * mc_se).all()
    assert np.cov(draws.T) == approx(cov, rel=0.05, abs=0.01)


def test_update_coefficients_recovers_truth(rng):
    # 5000 units on the (y) cells of the outcome design, the step iterated
    n = 5000
    truth = np.array([0.5, -0.5, -1.0])
    y = rng.choice(3, size=n, p=[0.4, 0.3, 0.3]) + 1
    x = rng.random(n) < norm_cdf(outcome_design(y)[0] @ truth)
    rows, _ = outcome_design(np.array([1, 2, 3]))
    design = np.vstack([rows, rows])
    z = np.repeat([True, False], 3)
    w = np.array([np.sum(x & (y == k)) for k in (1, 2, 3)]
                 + [np.sum(~x & (y == k)) for k in (1, 2, 3)], dtype=float)
    proposal = probit_proposal(design, z, w, np.zeros(3))
    beta = np.zeros(3)
    kept = []
    for sweep in range(400):
        beta = draw_probit_coefficients(beta, design, z, w, proposal, rng)
        if sweep >= 200:
            kept.append(beta)
    kept = np.array(kept)
    post_mean, post_sd = kept.mean(axis=0), kept.std(axis=0, ddof=1)
    assert (np.abs(post_mean - truth) <= 3 * post_sd).all()


def test_update_coefficients_rank_deficient_design():
    # no unit has y = 3, so the y3 column of both designs is all zero
    sample = make_sample([1, 1, 2, 2], [2.0, 2.0, 3.0, 3.0],
                         [1, 2, 1, 2], [1.0, 0.0, np.nan, 0.0])
    for method in Method:
        with pytest.raises(SingularDesignError):
            _SamplePrep(sample, method)


# ---------------------------------------------------------------------------
# imputation probabilities
# ---------------------------------------------------------------------------

def _cell_probs(y, outcome, response, stratum=None):
    """_imputation_probs for one nonrespondent (y[, stratum]) cell."""
    y = np.array([y])
    rows, _ = outcome_design(y, None if stratum is None else np.array([stratum]), (1, 2))
    response_rows = None
    if len(response) == 4:
        response_rows = tuple(response_design(y, np.array([x]))[0] for x in (0.0, 1.0))
    return _imputation_probs(rows, response_rows, np.asarray(outcome, float),
                             np.asarray(response, float))[0]


def test_imputation_prob_reduces_to_outcome_model_when_g2_zero():
    out_vec = np.array([0.5, -0.5, -1.0])
    resp_vec = np.array([-0.25, 0.1, 0.3, 0.0])
    for y in (1, 2, 3):
        p = _cell_probs(y, out_vec, resp_vec)
        g = norm_cdf(out_vec[0] + out_vec[1] * (y == 2) + out_vec[2] * (y == 3))
        assert p == approx(g, abs=1e-15)


def test_imputation_prob_hand_value():
    p = _cell_probs(1, [0.5, 0.0, 0.0], [-0.25, 0.0, 0.0, -1.1])
    assert p == approx(IMPUTATION_PROB, abs=1e-12)


def _proposal(method, y, stratum, outcome, response, n_missing, rng):
    """Imputed-ones count of one unconstrained step for n_missing
    nonrespondents that all share (y, stratum); the observed units span
    every category."""
    sample = make_sample(stratum=[1, 1, 1, 2, 2, 2] + [stratum] * n_missing,
                         weight=[2.0] * 3 + [3.0] * 3
                         + [2.0 if stratum == 1 else 3.0] * n_missing,
                         y=[1, 2, 3, 1, 2, 3] + [y] * n_missing,
                         x=[1.0, 0.0, 1.0, 0.0, 1.0, 0.0] + [np.nan] * n_missing)
    prep = _SamplePrep(sample, method)
    state = _toy_state(prep, np.asarray(outcome, float), np.asarray(response, float))
    _metropolis_step(state, prep, None, method, rng)
    assert state.counts.sum() == state.counts[stratum - 1, y - 1]
    return state.counts[stratum - 1, y - 1]


def test_imputation_prob_degenerate_outcome(rng):
    out_vec = np.array([40.0, 0.0, 0.0])      # Phi(40) == 1 in doubles
    resp_vec = np.array([-0.25, 0.0, 0.0, -1.1])
    assert _cell_probs(1, out_vec, resp_vec) == 1.0
    ones = _proposal(Method.AN_WEIGHT, 1, 1, [40.0, 0.0, 0.0, 0.0], resp_vec, 200, rng)
    assert ones == 200


def test_impute_missing_x_frequency_matches_probability(rng):
    n = 20000
    ones = _proposal(Method.AN_WEIGHT, 1, 1, [0.5, -0.5, -1.0, 0.2],
                     [-0.25, 0.1, 0.3, -1.1], n, rng)
    se = math.sqrt(IMPUTATION_PROB * (1 - IMPUTATION_PROB) / n)
    assert abs(ones / n - IMPUTATION_PROB) <= 3 * se


def test_impute_missing_x_mar_uses_outcome_only(rng):
    n = 20000
    ones = _proposal(Method.MAR_WEIGHT, 2, 2, [0.5, -0.5, -1.0, 0.2],
                     [-0.25, 0.1, 0.3], n, rng)
    g = norm_cdf(0.5 - 0.5 + 0.2)
    assert abs(ones / n - g) <= 3 * math.sqrt(g * (1 - g) / n)


def test_completed_x_places_counts_uniformly(rng):
    # 4 nonrespondents in cell (stratum 1, y = 2), 3 in (stratum 2, y = 3)
    sample = make_sample(stratum=[1] * 7 + [2] * 7, weight=[2.0] * 7 + [3.0] * 7,
                         y=[1, 2, 3, 2, 2, 2, 2, 1, 2, 3, 1, 3, 3, 3],
                         x=[1, 0, 1, np.nan, np.nan, np.nan, np.nan,
                            0, 1, 0, 1, np.nan, np.nan, np.nan])
    prep = _SamplePrep(sample, Method.AN_WEIGHT)
    counts = np.zeros_like(prep.missing)
    counts[0, 1], counts[1, 2] = 1, 2
    filled = np.array([prep.completed_x(counts, rng) for _ in range(20000)])
    obs = ~np.isnan(sample.x)
    assert (filled[:, obs] == sample.x[obs]).all()
    assert (filled[:, 3:7].sum(axis=1) == 1).all()
    assert (filled[:, 11:14].sum(axis=1) == 2).all()
    for units, p in ((slice(3, 7), 1 / 4), (slice(11, 14), 2 / 3)):
        freq = filled[:, units].mean(axis=0)
        assert (np.abs(freq - p) <= 4 * math.sqrt(p * (1 - p) / 20000)).all()


# ---------------------------------------------------------------------------
# constraint acceptance ratio
# ---------------------------------------------------------------------------

def test_acceptance_ratio_identical_states():
    assert constraint_acceptance_ratio(123.0, 123.0, (100.0, 50.0)) == 1.0


def test_acceptance_ratio_standard_normal_example():
    assert constraint_acceptance_ratio(1.0, 0.0, (0.0, 1.0)) == approx(
        math.exp(-0.5), abs=1e-15)


def test_acceptance_ratio_survey_scale():
    p = constraint_acceptance_ratio(25608.0, 25026.0, (25026.0, 338724.0))
    assert p == approx(math.exp(-0.5), abs=1e-12)   # candidate is one SE away


def test_acceptance_ratio_can_exceed_one_and_stays_finite():
    assert constraint_acceptance_ratio(0.0, 5.0, (0.0, 1.0)) > 1.0
    assert math.isfinite(constraint_acceptance_ratio(0.0, 1e6, (0.0, 1e-6)))
    with pytest.raises(ParameterError):
        constraint_acceptance_ratio(0.0, 0.0, (0.0, 0.0))


# ---------------------------------------------------------------------------
# Metropolis step
# ---------------------------------------------------------------------------

def _toy_state(prep, outcome, response):
    counts = np.zeros_like(prep.missing)
    return ChainState(theta=np.full(3, 1 / 3), outcome_coef=outcome,
                      response_coef=response, counts=counts,
                      totals=prep.totals(counts))


def test_step_without_missing_values_is_identity(rng):
    sample = make_sample([1, 1, 2, 2], [2.0, 2.0, 3.0, 3.0],
                         [1, 2, 3, 1], [1.0, 0.0, 1.0, 0.0])
    prep = _SamplePrep(sample, Method.AN_CONSTRAINT)
    state = _toy_state(prep, np.zeros(3), np.zeros(4))
    assert state.totals.tolist() == [2.0, 3.0]
    margin = AuxiliaryMargin.overall(5.0, 4.0)
    flags = _metropolis_step(state, prep, margin, Method.AN_CONSTRAINT, rng)
    assert flags.tolist() == [1.0]
    assert not state.counts.any()
    assert state.totals.tolist() == [2.0, 3.0]
    assert np.array_equal(prep.completed_x(state.counts, rng), sample.x)


def test_step_flat_constraint_accepts_everything():
    _, masked = small_masked_sample(seed=5)
    margin = AuxiliaryMargin.overall(1000.0, 1e12)
    settings = ChainSettings(iterations=1000, burn_in=100, thin=30,
                             method=Method.AN_CONSTRAINT, seed=9)
    result = run_chain(masked, margin, settings)
    assert result.trace.ratio() >= 0.999


def test_step_requires_margin_for_constraint_methods():
    _, masked = small_masked_sample(seed=7)
    for method in (Method.AN_CONSTRAINT, Method.AN_CONSTRAINT_WEIGHT):
        with pytest.raises(ParameterError):
            run_chain(masked, None, ChainSettings(200, 100, 10, method, 1))


def test_six_unit_chain_matches_enumerated_stationary_distribution():
    # 2 missing units -> 4 imputation patterns; the step's stationary law is
    # (product of unit-wise imputation probabilities) x (margin density),
    # enumerated here from first principles with scipy only.
    sample = make_sample(stratum=[1, 1, 1, 2, 2, 2],
                         weight=[2.0, 2.0, 2.0, 3.0, 3.0, 3.0],
                         y=[1, 2, 3, 1, 3, 2],
                         x=[1.0, 0.0, np.nan, 0.0, 1.0, np.nan],
                         r=[0, 0, 1, 0, 0, 1])
    t_x, v_x = 7.0, 4.0
    margin = AuxiliaryMargin.overall(t_x, v_x)
    outcome = np.array([0.3, -0.2, 0.4])
    response = np.array([-0.5, 0.2, -0.3, -0.8])

    def unit_prob(y):
        g = stats.norm.cdf(0.3 - 0.2 * (y == 2) + 0.4 * (y == 3))
        h_base = -0.5 + 0.2 * (y == 2) - 0.3 * (y == 3)
        h1 = stats.norm.cdf(h_base - 0.8)
        h0 = stats.norm.cdf(h_base)
        return g * h1 / (g * h1 + (1 - g) * h0)

    p_a = unit_prob(3)                        # missing unit in stratum 1, y=3
    p_b = unit_prob(2)                        # missing unit in stratum 2, y=2
    observed_part = 2.0 * 1.0 + 3.0 * 1.0     # weights times observed x
    target = {}
    for xa, xb in itertools.product((0, 1), repeat=2):
        total = observed_part + 2.0 * xa + 3.0 * xb
        mass = (p_a if xa else 1 - p_a) * (p_b if xb else 1 - p_b)
        target[(xa, xb)] = mass * math.exp(-0.5 * (total - t_x) ** 2 / v_x)
    z = sum(target.values())
    target = {k: v / z for k, v in target.items()}

    prep = _SamplePrep(sample, Method.AN_CONSTRAINT)
    state = _toy_state(prep, outcome, response)
    rng = np.random.default_rng(123)
    counts = {k: 0 for k in target}
    n_iter, burn = 200000, 1000
    for t in range(n_iter + burn):
        _metropolis_step(state, prep, margin, Method.AN_CONSTRAINT, rng)
        if t >= burn:
            # cells (stratum 1, y = 3) and (stratum 2, y = 2)
            counts[(int(state.counts[0, 2]), int(state.counts[1, 1]))] += 1
    tv = 0.5 * sum(abs(counts[k] / n_iter - target[k]) for k in target)
    assert tv <= 0.01


# ---------------------------------------------------------------------------
# run_chain
# ---------------------------------------------------------------------------

def test_chain_settings_yield_fifty_datasets():
    assert ChainSettings(10000, 5000, 100, Method.AN_CONSTRAINT, 0).n_imputations == 50
    assert ChainSettings(4000, 2000, 40, Method.MAR_WEIGHT, 0).n_imputations == 50
    with pytest.raises(ParameterError):
        ChainSettings(100, 100, 10, Method.MAR_WEIGHT, 0)
    with pytest.raises(ParameterError):
        ChainSettings(100, 99, 10, Method.MAR_WEIGHT, 0)


def test_run_chain_emits_expected_count_and_preserves_observed():
    pop, masked = small_masked_sample(seed=11)
    margin = AuxiliaryMargin.overall(float(pop.x.sum()), 400.0)
    settings = ChainSettings(iterations=1000, burn_in=500, thin=10,
                             method=Method.AN_CONSTRAINT, seed=21)
    result = run_chain(masked, margin, settings)
    assert len(result.datasets) == 50
    obs = masked.r == 0
    for ds in result.datasets:
        assert ds.is_complete
        assert np.array_equal(ds.x[obs], masked.x[obs])
        assert np.isin(ds.x[~obs], (0.0, 1.0)).all()


def test_run_chain_zero_missing_reproduces_input():
    pop = generate_population(THETA, ALPHA, {1: 300, 2: 200}, seed=2)
    sample = draw_stratified_sample(pop, {1: 40, 2: 60}, seed=3)
    settings = ChainSettings(iterations=300, burn_in=100, thin=10,
                             method=Method.AN_WEIGHT, seed=4)
    result = run_chain(sample, None, settings)
    for ds in result.datasets:
        assert np.array_equal(ds.x, sample.x)
    assert result.trace.ratio() == 1.0


def test_run_chain_totals_bookkeeping_overall_and_per_stratum():
    pop, masked = small_masked_sample(seed=13)
    for scope in ("overall", "per-stratum"):
        if scope == "overall":
            margin = AuxiliaryMargin.overall(float(pop.x.sum()), 500.0)
        else:
            totals = {s: float(pop.x[pop.stratum == s].sum()) for s in (1, 2)}
            margin = AuxiliaryMargin.per_stratum(totals, {1: 300.0, 2: 300.0})
        settings = ChainSettings(iterations=400, burn_in=200, thin=20,
                                 method=Method.AN_CONSTRAINT_WEIGHT, seed=31)
        result = run_chain(masked, margin, settings)
        for i, ds in enumerate(result.datasets):
            if scope == "overall":
                assert result.draws.totals[i, 0] == approx(ht_total(ds), abs=1e-9)
            else:
                for j, s in enumerate(result.draws.block_labels):
                    part = float(np.dot(ds.weight[ds.stratum == s],
                                        ds.x[ds.stratum == s]))
                    assert result.draws.totals[i, j] == approx(part, abs=1e-9)


def test_run_chain_mar_has_no_x_term():
    _, masked = small_masked_sample(seed=17)
    settings = ChainSettings(iterations=300, burn_in=100, thin=20,
                             method=Method.MAR_WEIGHT, seed=5)
    result = run_chain(masked, None, settings)
    assert result.draws.response_terms == ("intercept", "y2", "y3")
    assert result.draws.response.shape[1] == 3
    assert result.draws.outcome_terms == ("intercept", "y2", "y3", "stratum2")


def test_run_chain_three_strata_per_stratum_margin():
    theta = {1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45), 3: (0.3, 0.3, 0.4)}
    sizes, draws = {1: 3000, 2: 2000, 3: 2500}, {1: 300, 2: 400, 3: 250}
    pop = generate_population(theta, ALPHA, sizes, seed=41)
    sample = draw_stratified_sample(pop, draws, seed=42)
    masked, _ = impose_missingness(sample, GAMMA, seed=43)
    margin = margin_from_population(pop, draws, "per-stratum")
    settings = ChainSettings(iterations=1500, burn_in=500, thin=20,
                             method=Method.AN_CONSTRAINT_WEIGHT, seed=44)
    result = run_chain(masked, margin, settings)
    assert result.trace.blocks == (1, 2, 3)
    assert set(result.trace.ratio_by_block()) == {1, 2, 3}
    assert result.draws.outcome_terms == ("intercept", "y2", "y3", "stratum2", "stratum3")
    for j, s in enumerate(result.draws.block_labels):
        off = result.draws.totals[:, j].mean() - margin.totals[s]
        assert abs(off) <= 3 * math.sqrt(margin.variances[s]), f"stratum {s}: {off:+.1f}"


def test_run_chain_seed_determinism():
    pop, masked = small_masked_sample(seed=19)
    margin = AuxiliaryMargin.overall(float(pop.x.sum()), 400.0)
    settings = ChainSettings(iterations=400, burn_in=200, thin=20,
                             method=Method.AN_CONSTRAINT, seed=77)
    a = run_chain(masked, margin, settings)
    b = run_chain(masked, margin, settings)
    for da, db in zip(a.datasets, b.datasets):
        assert np.array_equal(da.x, db.x)
    assert np.array_equal(a.draws.theta, b.draws.theta)
    assert np.array_equal(a.draws.outcome, b.draws.outcome)
    assert np.array_equal(a.draws.response, b.draws.response)
    assert np.array_equal(a.trace.indicators, b.trace.indicators)


def test_run_chain_margin_arity_validation():
    pop, masked = small_masked_sample(seed=23)
    margin = AuxiliaryMargin.overall(float(pop.x.sum()), 400.0)
    with pytest.raises(ParameterError):
        run_chain(masked, None, ChainSettings(200, 100, 10, Method.AN_CONSTRAINT, 1))
    with pytest.raises(ParameterError):
        run_chain(masked, margin, ChainSettings(200, 100, 10, Method.AN_WEIGHT, 1))


def test_low_acceptance_window_scanner():
    from marginmi.mcmc import _low_acceptance_windows
    quiet = np.ones((900, 1))
    assert _low_acceptance_windows(quiet) == []
    stuck = np.ones((900, 2))
    stuck[300:850, 1] = 0.0
    found = _low_acceptance_windows(stuck)
    assert len(found) == 1 and "acceptance ratio" in found[0]


def test_low_acceptance_scan_skips_burn_in():
    from marginmi.mcmc import _low_acceptance_windows
    # a chain converging from its start: nothing accepted during burn-in
    settling = np.ones((1200, 2))
    settling[:600] = 0.0
    assert _low_acceptance_windows(settling, burn_in=600) == []
    # too few post-burn-in rows for one window: no scan at all
    assert _low_acceptance_windows(np.zeros((900, 1)), burn_in=600) == []
    stuck = settling.copy()
    stuck[650:1150, 0] = 0.0
    assert len(_low_acceptance_windows(stuck, burn_in=600)) == 1


def test_run_chain_low_acceptance_warning():
    # near-point-mass variance with the target wedged between lattice totals:
    # only one exact completed total is ever accepted, so the sampler pins
    _, masked = small_masked_sample(seed=29, sizes=(4000, 3000), draws=(400, 600))
    obs = float(np.nansum(masked.weight * masked.x))
    margin = AuxiliaryMargin.overall(obs + 500.17, 1e-4)
    settings = ChainSettings(iterations=900, burn_in=100, thin=10,
                             method=Method.AN_CONSTRAINT, seed=3)
    result = run_chain(masked, margin, settings)
    assert result.trace.warnings
    assert 0.0 <= result.trace.ratio() <= 1.0


def test_acceptance_trace_ratios_within_unit_interval():
    pop, masked = small_masked_sample(seed=31)
    totals = {s: float(pop.x[pop.stratum == s].sum()) for s in (1, 2)}
    margin = AuxiliaryMargin.per_stratum(totals, {1: 200.0, 2: 200.0})
    settings = ChainSettings(iterations=400, burn_in=100, thin=10,
                             method=Method.AN_CONSTRAINT, seed=13)
    result = run_chain(masked, margin, settings)
    ratios = result.trace.ratio_by_block()
    assert set(ratios) == {1, 2}
    assert all(0.0 <= v <= 1.0 for v in ratios.values())


def test_chain_trace_csv(tmp_path):
    pop, masked = small_masked_sample(seed=37)
    margin = AuxiliaryMargin.overall(float(pop.x.sum()), 400.0)
    settings = ChainSettings(iterations=300, burn_in=100, thin=10,
                             method=Method.AN_CONSTRAINT, seed=11)
    result = run_chain(masked, margin, settings)
    path = tmp_path / "trace.csv"
    write_chain_trace_csv(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["draw", "theta1", "theta2", "theta3"]
    assert "total_overall" in rows[0] and "accepted_overall" in rows[0]
    assert len(rows) - 1 == len(result.datasets)
    got = float(rows[1][rows[0].index("total_overall")])
    assert got == approx(result.draws.totals[0, 0])
