import csv
import itertools
import math

import numpy as np
import pytest
from pytest import approx
from scipy import stats
from scipy.special import log_ndtr, ndtr, ndtri

from marginmi.errors import ParameterError, SingularDesignError
from marginmi.mcmc import (ChainSettings, ChainState, Method,
                           constraint_acceptance_ratio,
                           draw_probit_coefficients, posterior_cholesky,
                           run_chain, update_theta,
                           write_chain_trace_csv, _imputation_probs,
                           _metropolis_step, _one_sided_latents, _SamplePrep)
from marginmi.models import norm_cdf, outcome_design
from marginmi.survey import (AuxiliaryMargin, draw_stratified_sample,
                             generate_population, ht_total, impose_missingness)
from conftest import make_sample

# frozen oracle values (mpmath, dps=40)
HALF_NORMAL_MEAN = 0.79788456080286535588
HALF_NORMAL_SD = 0.60281027498908697428
MILLS_AT_5 = 5.1865039671258421156
TAIL5_SD = 0.18082155462530518058
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
# truncated-normal latents (_one_sided_latents)
# ---------------------------------------------------------------------------

def test_truncated_normal_half_normal_mean(rng):
    # at lp = 0 either side is a half-normal, so |draw| has the half-normal mean
    n = 100000
    positive = np.arange(n) % 2 == 0
    draws = _one_sided_latents(np.zeros(n), positive, rng)
    assert ((draws > 0) == positive).all()
    mc_se = HALF_NORMAL_SD / math.sqrt(n)
    assert abs(np.abs(draws).mean() - HALF_NORMAL_MEAN) <= 3 * mc_se


def test_truncated_normal_unrestricted_is_normal(rng):
    # with the response drawn from its probit law, the two truncations mix
    # back to the untruncated N(lp, 1)
    n, lp = 100000, 0.4
    positive = rng.random(n) < norm_cdf(lp)
    draws = _one_sided_latents(np.full(n, lp), positive, rng)
    ks = stats.kstest(draws - lp, "norm").statistic
    assert ks < 1.63 / math.sqrt(n)    # 1% critical value


def test_truncated_normal_far_tail_mills_ratio(rng):
    # lp = -5 with a positive response: latent + 5 ~ Z | Z > 5
    n = 100000
    latents = _one_sided_latents(np.full(n, -5.0), np.ones(n, dtype=bool), rng)
    assert (latents > 0.0).all()
    mc_se = TAIL5_SD / math.sqrt(n)
    assert abs((latents + 5.0).mean() - MILLS_AT_5) <= 3 * mc_se


def test_truncated_normal_vector_bounds(rng):
    z = np.array([1, 0, 1, 0, 1], dtype=bool)
    draws = _one_sided_latents(np.linspace(-2, 2, 5), z, rng)
    assert draws.shape == (5,)
    assert ((draws > 0) == z).all()


@pytest.mark.parametrize("lp,positive", [(0.7, True), (0.7, False),
                                         (-2.5, True), (3.5, False),
                                         (2.0, True), (-1.0, False)])
def test_one_sided_latent_kernel_matches_truncnorm(rng, lp, positive):
    n = 20000
    draws = _one_sided_latents(np.full(n, lp), np.full(n, positive, dtype=bool), rng)
    assert ((draws > 0) == positive).all()
    if positive:
        dist = stats.truncnorm(-lp, np.inf, loc=lp)
    else:
        dist = stats.truncnorm(-np.inf, -lp, loc=lp)
    ks = stats.kstest(draws, dist.cdf).statistic
    assert ks < 1.63 / math.sqrt(n)


def test_one_sided_latents_log_branch_is_the_same_quantile():
    # the direct inverse CDF lp - sign * ndtri(u Phi(sign * lp)) stays finite
    # down to sign * lp = -36; the kernel must reproduce it bit for bit where
    # sign * lp >= -30 and to rounding on the log-space branch below that
    n = 4001
    lp = np.linspace(-36.0, 36.0, n)
    positive = np.arange(n) % 2 == 0
    draws = _one_sided_latents(lp, positive, np.random.default_rng(8))
    u = 1.0 - np.random.default_rng(8).random(n)
    sign = np.where(positive, 1.0, -1.0)
    direct = lp - sign * ndtri(u * ndtr(sign * lp))
    near = sign * lp >= -30.0
    assert np.array_equal(draws[near], direct[near])
    assert (~near).sum() > 100
    assert draws[~near] == approx(direct[~near], rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("lp", [-200.0, -40.0, 40.0, 200.0])
def test_one_sided_latents_sign_at_extreme_predictors(rng, lp, positive):
    n = 20000
    draws = _one_sided_latents(np.full(n, lp), np.full(n, positive), rng)
    assert np.isfinite(draws).all()
    assert ((draws > 0) == positive).all()


@pytest.mark.parametrize("lp,positive", [(-40.0, True), (40.0, False)])
def test_one_sided_latents_far_tail_mills_ratio(rng, lp, positive):
    # truncated 40 sd into the tail: |draw - lp| ~ Z | Z > 40, whose mean is
    # the Mills ratio phi(40) / Phi(-40) and variance 1 + 40 m - m^2
    a, n = 40.0, 20000
    mills = math.exp(-0.5 * a * a - 0.5 * math.log(2 * math.pi) - log_ndtr(-a))
    var = 1.0 + a * mills - mills * mills
    draws = _one_sided_latents(np.full(n, lp), np.full(n, positive), rng)
    excess = np.abs(draws - lp)
    assert abs(excess.mean() - mills) <= 3 * math.sqrt(var / n)


# ---------------------------------------------------------------------------
# probit coefficient updates
# ---------------------------------------------------------------------------

def test_update_coefficients_empty_data_draws_from_prior(rng):
    draws = np.array([draw_probit_coefficients(np.empty((0, 3)), np.empty(0), rng)
                      for _ in range(20000)])
    mc_se = 1.0 / math.sqrt(len(draws))
    assert (np.abs(draws.mean(axis=0)) <= 3 * mc_se).all()
    assert draws.std(axis=0) == approx(np.ones(3), rel=0.05)


def test_coefficient_draw_has_conjugate_conditional_mean(rng):
    n, p = 100, 3
    design = rng.standard_normal((n, p))
    latents = rng.standard_normal(n) + design @ np.array([0.5, -1.0, 0.2])
    prec = np.eye(p) + design.T @ design
    expected = np.linalg.solve(prec, design.T @ latents)
    cov = np.linalg.inv(prec)
    draws = np.array([draw_probit_coefficients(design, latents, rng)
                      for _ in range(20000)])
    mc_se = np.sqrt(np.diag(cov) / len(draws))
    assert (np.abs(draws.mean(axis=0) - expected) <= 3 * mc_se).all()


def test_update_coefficients_recovers_truth(rng):
    # the sampler's two kernels alternated: latents given beta, beta given latents
    n = 5000
    truth = np.array([0.5, -0.5, -1.0])
    y = rng.choice(3, size=n, p=[0.4, 0.3, 0.3]) + 1
    design, _ = outcome_design(y)
    chol = posterior_cholesky(design.T @ design)
    z = rng.random(n) < norm_cdf(design @ truth)
    beta = np.zeros(3)
    kept = []
    for sweep in range(400):
        latents = _one_sided_latents(design @ beta, z, rng)
        beta = draw_probit_coefficients(design, latents, rng, chol=chol)
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

def test_imputation_prob_reduces_to_outcome_model_when_g2_zero():
    out_vec = np.array([0.5, -0.5, -1.0])
    resp_vec = np.array([-0.25, 0.1, 0.3, 0.0])
    for y in (1, 2, 3):
        p = _imputation_probs(np.array([y]), np.array([1]), out_vec, resp_vec,
                              Method.AN_CONSTRAINT)[0]
        g = norm_cdf(out_vec[0] + out_vec[1] * (y == 2) + out_vec[2] * (y == 3))
        assert p == approx(g, abs=1e-15)


def test_imputation_prob_hand_value():
    out_vec = np.array([0.5, 0.0, 0.0])
    resp_vec = np.array([-0.25, 0.0, 0.0, -1.1])
    p = _imputation_probs(np.array([1]), np.array([1]), out_vec, resp_vec,
                          Method.AN_CONSTRAINT)[0]
    assert p == approx(IMPUTATION_PROB, abs=1e-12)


def _proposal(method, y, stratum, outcome, response, n_missing, rng):
    """Imputations from one unconstrained step for n_missing nonrespondents
    that all share (y, stratum); the observed units span every category."""
    sample = make_sample(stratum=[1, 1, 1, 2, 2, 2] + [stratum] * n_missing,
                         weight=[2.0] * 3 + [3.0] * 3
                         + [2.0 if stratum == 1 else 3.0] * n_missing,
                         y=[1, 2, 3, 1, 2, 3] + [y] * n_missing,
                         x=[1.0, 0.0, 1.0, 0.0, 1.0, 0.0] + [np.nan] * n_missing)
    prep = _SamplePrep(sample, method)
    state = _toy_state(prep, np.asarray(outcome, float), np.asarray(response, float))
    _metropolis_step(state, prep, sample.x.copy(), None, method, rng)
    return state.imputations


def test_imputation_prob_degenerate_outcome(rng):
    out_vec = np.array([40.0, 0.0, 0.0])      # Phi(40) == 1 in doubles
    resp_vec = np.array([-0.25, 0.0, 0.0, -1.1])
    p = _imputation_probs(np.array([1]), np.array([1]), out_vec, resp_vec,
                          Method.AN_CONSTRAINT)[0]
    assert p == 1.0
    draws = _proposal(Method.AN_WEIGHT, 1, 1, [40.0, 0.0, 0.0, 0.0], resp_vec, 200, rng)
    assert (draws == 1).all()


def test_impute_missing_x_frequency_matches_probability(rng):
    n = 20000
    draws = _proposal(Method.AN_WEIGHT, 1, 1, [0.5, -0.5, -1.0, 0.2],
                      [-0.25, 0.1, 0.3, -1.1], n, rng)
    se = math.sqrt(IMPUTATION_PROB * (1 - IMPUTATION_PROB) / n)
    assert abs(draws.mean() - IMPUTATION_PROB) <= 3 * se


def test_impute_missing_x_mar_uses_outcome_only(rng):
    n = 20000
    draws = _proposal(Method.MAR_WEIGHT, 2, 2, [0.5, -0.5, -1.0, 0.2],
                      [-0.25, 0.1, 0.3], n, rng)
    g = norm_cdf(0.5 - 0.5 + 0.2)
    assert abs(draws.mean() - g) <= 3 * math.sqrt(g * (1 - g) / n)


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
    x_filled = prep.sample.x.copy()
    x_filled[prep.miss] = 0.0
    return ChainState(theta=np.full(3, 1 / 3), outcome_coef=outcome,
                      response_coef=response,
                      imputations=np.zeros(len(prep.miss), dtype=np.int64),
                      totals_by_stratum=prep.totals_from(x_filled))


def test_step_without_missing_values_is_identity(rng):
    sample = make_sample([1, 1, 2, 2], [2.0, 2.0, 3.0, 3.0],
                         [1, 2, 3, 1], [1.0, 0.0, 1.0, 0.0])
    prep = _SamplePrep(sample, Method.AN_CONSTRAINT)
    state = _toy_state(prep, np.zeros(3), np.zeros(4))
    assert state.totals_by_stratum == {1: 2.0, 2: 3.0}
    x_filled = sample.x.copy()
    margin = AuxiliaryMargin.overall(5.0, 4.0)
    flags = _metropolis_step(state, prep, x_filled, margin, Method.AN_CONSTRAINT, rng)
    assert flags.tolist() == [1.0]
    assert len(state.imputations) == 0
    assert state.totals_by_stratum == {1: 2.0, 2: 3.0}
    assert np.array_equal(x_filled, sample.x)


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
    x_filled = sample.x.copy()
    x_filled[prep.miss] = state.imputations
    rng = np.random.default_rng(123)
    counts = {k: 0 for k in target}
    n_iter, burn = 200000, 1000
    for t in range(n_iter + burn):
        _metropolis_step(state, prep, x_filled, margin, Method.AN_CONSTRAINT, rng)
        if t >= burn:
            counts[(int(state.imputations[0]), int(state.imputations[1]))] += 1
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
