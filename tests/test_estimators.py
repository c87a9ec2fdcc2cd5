import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx
from scipy import optimize, stats

from marginmi import estimators
from marginmi.errors import (CompletenessError, DesignError, ParameterError,
                             SeparationError, SingularDesignError)
from marginmi.estimators import (FitResult, MIEstimate, aggregate_runs,
                                 ht_with_se, rubin_combine,
                                 unweighted_probit_fit, weighted_probit_fit)
from marginmi.models import full_rank_gram, norm_cdf, outcome_design, response_design
from marginmi.survey import (draw_stratified_sample, generate_population,
                             population_total, theoretical_margin_variance)
from conftest import make_sample

THETA = {1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45)}
ALPHA = (0.5, -0.5, -1.0)


def _weighted_sample(n1=900, n2=2100, seed=5, sizes=(21000, 9000)):
    pop = generate_population(THETA, ALPHA, {1: sizes[0], 2: sizes[1]}, seed=seed)
    return draw_stratified_sample(pop, {1: n1, 2: n2}, seed=seed + 1)


# ---------------------------------------------------------------------------
# weighted probit
# ---------------------------------------------------------------------------

def test_weighted_fit_equals_unweighted_at_unit_weights(rng):
    n = 2000
    y = rng.choice(3, size=n, p=[0.4, 0.3, 0.3]) + 1
    lp = 0.5 - 0.5 * (y == 2) - 1.0 * (y == 3)
    x = (rng.random(n) < norm_cdf(lp)).astype(float)
    r = (rng.random(n) < 0.3).astype(int)
    sample = make_sample(np.ones(n, dtype=int), np.full(n, 2.0), y, x,
                         r=np.zeros(n, int))
    wfit = weighted_probit_fit(sample)
    # the response-model fitter at x_term=False solves the same ML problem
    # when handed x as the response, via a sample with r := x
    alt = make_sample(np.ones(n, dtype=int), np.ones(n), y, x, r=x.astype(int))
    ufit = unweighted_probit_fit(alt, x_term=False)
    assert np.abs(wfit.coefficients - ufit.coefficients).max() < 1e-8


def test_weighted_fit_matches_independent_numerical_maximizer():
    sample = _weighted_sample(n1=900, n2=2100, seed=13)
    fit = weighted_probit_fit(sample, stratum_term=False)
    design = np.column_stack([np.ones(sample.size), sample.y == 2,
                              sample.y == 3]).astype(float)
    z = sample.x > 0.5
    w = sample.weight

    def neg_loglik(beta):
        lp = design @ beta
        return -float(np.dot(w, np.where(z, stats.norm.logcdf(lp),
                                         stats.norm.logcdf(-lp))))

    def neg_grad(beta):
        lp = design @ beta
        pdf = stats.norm.pdf(lp)
        cdf = stats.norm.cdf(lp)
        s = np.where(z, pdf / cdf, -pdf / (1.0 - cdf))
        return -(design.T @ (w * s))

    res = optimize.minimize(neg_loglik, np.zeros(3), jac=neg_grad, method="BFGS",
                            options={"gtol": 1e-5, "maxiter": 500})
    # the gradient scale is ~1e4 here, so this pins the optimum to ~1e-7
    assert np.abs(neg_grad(res.x)).max() < 1e-3
    assert np.abs(fit.coefficients - res.x).max() < 1e-6
    assert fit.converged and (fit.standard_errors > 0).all()


def test_weighted_fit_recovers_scenario_intercept():
    estimates = []
    for m in range(10):
        pop = generate_population(THETA, ALPHA, {1: 35000, 2: 15000}, seed=100 + m)
        sample = draw_stratified_sample(pop, {1: 1500, 2: 3500}, seed=200 + m)
        estimates.append(weighted_probit_fit(sample).coef("intercept"))
    estimates = np.array(estimates)
    mc_se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - 0.5) <= 3 * mc_se


def test_weighted_fit_score_is_solved(rng):
    sample = _weighted_sample(seed=21)
    fit = weighted_probit_fit(sample, stratum_term=True)
    design = np.column_stack([np.ones(sample.size), sample.y == 2, sample.y == 3,
                              sample.stratum == 2]).astype(float)
    z = sample.x > 0.5
    lp = design @ fit.coefficients
    pdf = stats.norm.pdf(lp)
    cdf = stats.norm.cdf(lp)
    s = np.where(z, pdf / cdf, -pdf / (1.0 - cdf))
    score = design.T @ (sample.weight * s)
    assert np.abs(score).max() < 1e-8


def test_weighted_fit_variance_invariant_to_order(rng):
    sample = _weighted_sample(n1=300, n2=700, seed=31, sizes=(6000, 3500))
    fit = weighted_probit_fit(sample)
    perm = rng.permutation(sample.size)
    shuffled = make_sample(sample.stratum[perm], sample.weight[perm],
                           sample.y[perm], sample.x[perm], r=sample.r[perm])
    fit2 = weighted_probit_fit(shuffled)
    assert np.abs(fit.coefficients - fit2.coefficients).max() < 1e-10
    assert np.abs(fit.standard_errors - fit2.standard_errors).max() < 1e-10


def test_weighted_fit_with_replacement_inflates_variance():
    sample = _weighted_sample(seed=41)
    base = weighted_probit_fit(sample)
    wr = weighted_probit_fit(sample, with_replacement=True)
    assert (wr.standard_errors > base.standard_errors).all()
    assert np.abs(wr.coefficients - base.coefficients).max() < 1e-12


def test_weighted_fit_requires_complete_data():
    sample = make_sample([1, 1, 1], [2.0, 2.0, 2.0], [1, 2, 3],
                         [1.0, np.nan, 0.0])
    with pytest.raises(CompletenessError):
        weighted_probit_fit(sample)


# ---------------------------------------------------------------------------
# unweighted probit (response model)
# ---------------------------------------------------------------------------

def test_unweighted_fit_recovers_response_parameters(rng):
    n = 5000
    gamma = np.array([-1.0, -0.6, 1.4, -0.2])
    y = rng.choice(3, size=n, p=[0.3, 0.4, 0.3]) + 1
    x = (rng.random(n) < norm_cdf(0.15 - 0.45 * (y == 2) - 0.15 * (y == 3))).astype(float)
    lp = gamma[0] + gamma[1] * (y == 2) + gamma[2] * (y == 3) + gamma[3] * x
    r = (rng.random(n) < norm_cdf(lp)).astype(int)
    sample = make_sample(np.ones(n, int), np.ones(n), y, x, r=r)
    fit = unweighted_probit_fit(sample, x_term=True)
    assert fit.terms == ("intercept", "y2", "y3", "x")
    for est, se, truth in zip(fit.coefficients, fit.standard_errors, gamma):
        assert abs(est - truth) <= 3 * se


def test_unweighted_fit_all_zero_responses_is_separation():
    n = 200
    sample = make_sample(np.ones(n, int), np.ones(n),
                         np.resize([1, 2, 3], n), np.resize([0.0, 1.0], n),
                         r=np.zeros(n, int))
    with pytest.raises(SeparationError):
        unweighted_probit_fit(sample, x_term=True)


def test_unweighted_fit_all_one_responses_is_separation():
    n = 102
    x = np.resize([0.0, 1.0], n)
    sample = make_sample(np.ones(n, int), np.ones(n), np.resize([1, 2, 3], n), x,
                         r=np.ones(n, int))
    with pytest.raises(SeparationError):
        unweighted_probit_fit(sample, x_term=True)


# ---------------------------------------------------------------------------
# cell-table fits against a unit-level oracle
# ---------------------------------------------------------------------------
#
# The oracle is the unit-level fit the estimators ran before they moved to
# cell counts: the same damped Newton over every unit's design row, the
# stratum-centered sandwich over every unit's score row, and the observed
# information summed unit by unit.

def _unit_score_factors(beta, design, z):
    lp = design @ beta
    lam1 = stats.norm.pdf(lp) / stats.norm.cdf(lp)
    lam0 = stats.norm.pdf(lp) / stats.norm.sf(lp)
    return lp, np.where(z, lam1, -lam0), lam1 * lam0


def _unit_loglik(beta, design, z, w):
    lp = design @ beta
    return float(np.dot(w, np.where(z, stats.norm.logcdf(lp), stats.norm.logsf(lp))))


def _unit_newton(design, z, w):
    if z.all() or not z.any():
        raise SeparationError("all responses identical")
    beta = np.zeros(design.shape[1])
    ll = _unit_loglik(beta, design, z, w)
    for it in range(1, estimators._MAX_NEWTON + 1):
        _, s, omega = _unit_score_factors(beta, design, z)
        score = design.T @ (w * s)
        info = design.T @ (design * (w * omega)[:, None])
        if np.abs(score).max() < estimators._SCORE_TOL:
            return beta, info, it - 1
        step = np.linalg.solve(info, score)
        slack = 1e-9 * (1.0 + abs(ll))
        scale = 1.0
        for _ in range(estimators._MAX_HALVINGS):
            if _unit_loglik(beta + scale * step, design, z, w) >= ll - slack:
                break
            scale *= 0.5
        beta = beta + scale * step
        ll = _unit_loglik(beta, design, z, w)
        if np.linalg.norm(beta) > estimators._SEPARATION_NORM:
            raise SeparationError("coefficient norm diverged")
    raise AssertionError("oracle did not converge")


def _unit_weighted_fit(sample, stratum_term, with_replacement):
    design, _ = outcome_design(sample.y, sample.stratum if stratum_term else None)
    full_rank_gram(design)
    z = sample.x > 0.5
    beta, info, iters = _unit_newton(design, z, sample.weight)
    _, s, _ = _unit_score_factors(beta, design, z)
    u = design * (sample.weight * s)[:, None]
    v_score = np.zeros((design.shape[1],) * 2)
    for st in sorted(sample.stratum_draws):
        rows = u[sample.stratum == st]
        n_s = rows.shape[0]
        if n_s < 2:
            raise DesignError(f"stratum {st} has n_s < 2")
        centered = rows - rows.mean(axis=0)
        fpc = 1.0 if with_replacement else 1.0 - n_s / sample.stratum_population_size(st)
        v_score += fpc * (n_s / (n_s - 1.0)) * centered.T @ centered
    info_inv = np.linalg.inv(info)
    return beta, np.sqrt(np.diag(info_inv @ v_score @ info_inv)), iters


def _unit_response_fit(sample, x_term):
    design, _ = response_design(sample.y, sample.x if x_term else None)
    full_rank_gram(design)
    z = sample.r == 1
    beta, _, iters = _unit_newton(design, z, np.ones(sample.size))
    lp, s, _ = _unit_score_factors(beta, design, z)
    obs_info = design.T @ (design * (s * (s + lp))[:, None])
    return beta, np.sqrt(np.diag(np.linalg.inv(obs_info))), iters


def _completed_sample(seed, n_strata, empty_cell):
    """A completed stratified sample; ``empty_cell`` fixes x in one
    (stratum, y) group, which leaves its other (stratum, y, x) cell empty."""
    rng = np.random.default_rng(seed)
    cols = {"stratum": [], "weight": [], "y": [], "x": [], "r": []}
    for st in range(1, n_strata + 1):
        n_s = int(rng.integers(30, 400))
        big_n = n_s * int(rng.integers(2, 20)) + int(rng.integers(0, n_s))
        y = rng.choice(3, size=n_s, p=rng.dirichlet([4.0, 4.0, 4.0])) + 1
        lp = rng.normal(0.0, 0.7) + rng.normal(0.0, 0.7, 3)[y - 1]
        x = (rng.random(n_s) < norm_cdf(lp)).astype(float)
        r_lp = rng.normal(-0.5, 0.5) + rng.normal(0.0, 0.5, 3)[y - 1] + rng.normal(0.0, 0.5) * x
        r = (rng.random(n_s) < norm_cdf(r_lp)).astype(int)
        for key, col in (("stratum", np.full(n_s, st)), ("weight", np.full(n_s, big_n / n_s)),
                         ("y", y), ("x", x), ("r", r)):
            cols[key].append(col)
    sample = {k: np.concatenate(v) for k, v in cols.items()}
    if empty_cell:
        group = (sample["stratum"] == rng.integers(1, n_strata + 1)) & (
            sample["y"] == rng.integers(1, 4))
        sample["x"][group] = float(rng.integers(0, 2))
    order = rng.permutation(len(sample["y"]))
    return make_sample(*(sample[k][order] for k in ("stratum", "weight", "y", "x")),
                       r=sample["r"][order])


def _outcome(fn, *args, **kwargs):
    """(coefficients, SEs, iterations) of a fit, or the error class it raised."""
    try:
        return fn(*args, **kwargs)
    except (SeparationError, SingularDesignError, DesignError) as exc:
        return type(exc)


def _assert_fits_equal(fit, oracle):
    if isinstance(oracle, type):
        assert fit is oracle
        return
    beta, se, iters = oracle
    coef, fit_se, fit_iters = fit
    assert fit_iters == iters
    assert np.abs(coef - beta).max() <= 1e-10 * np.abs(beta).max()
    assert (np.abs(fit_se - se) <= 1e-10 * se).all()


def _cell_fit(fn, *args, **kwargs):
    fit = fn(*args, **kwargs)
    return fit.coefficients, fit.standard_errors, fit.iterations_used


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]), st.booleans(),
       st.booleans(), st.booleans(), st.booleans())
def test_cell_fits_match_unit_level_oracle(seed, n_strata, empty_cell, stratum_term,
                                           with_replacement, x_term):
    sample = _completed_sample(seed, n_strata, empty_cell)
    _assert_fits_equal(
        _outcome(_cell_fit, weighted_probit_fit, sample, stratum_term=stratum_term,
                 with_replacement=with_replacement),
        _outcome(_unit_weighted_fit, sample, stratum_term, with_replacement))
    _assert_fits_equal(
        _outcome(_cell_fit, unweighted_probit_fit, sample, x_term=x_term),
        _outcome(_unit_response_fit, sample, x_term))


def test_cell_fits_match_oracle_on_scenario_samples():
    # scenario-sized samples: two strata of 1500 / 3500 units
    for seed in range(3):
        pop = generate_population(THETA, ALPHA, {1: 35000, 2: 15000}, seed=300 + seed)
        sample = draw_stratified_sample(pop, {1: 1500, 2: 3500}, seed=400 + seed)
        rng = np.random.default_rng(seed)
        sample = make_sample(sample.stratum, sample.weight, sample.y, sample.x,
                             r=(rng.random(sample.size) < 0.3).astype(int))
        for stratum_term in (False, True):
            _assert_fits_equal(
                _cell_fit(weighted_probit_fit, sample, stratum_term=stratum_term),
                _unit_weighted_fit(sample, stratum_term, False))
        _assert_fits_equal(_cell_fit(unweighted_probit_fit, sample, x_term=True),
                           _unit_response_fit(sample, True))


def _edge_sample(n=120):
    # two strata of 60, every (stratum, y, x) cell filled
    stratum = np.repeat([1, 2], n // 2)
    y = np.resize([1, 2, 3], n)
    x = np.resize([0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0], n)
    r = np.resize([0, 1, 1, 0, 0], n)
    return stratum, np.where(stratum == 1, 5.0, 3.0), y, x, r


def _edge_cases():
    stratum, weight, y, x, r = _edge_sample()
    no_y3 = np.where(y == 3, 1, y)
    yield "no y = 3", make_sample(stratum, weight, no_y3, x, r=r), SingularDesignError
    yield ("all x equal", make_sample(stratum, weight, y, np.ones_like(x), r=r),
           SeparationError)
    lone = np.where(np.arange(len(y)) == 0, 3, stratum)
    weight = np.where(lone == 3, 4.0, weight)
    yield "one-unit stratum", make_sample(lone, weight, y, x, r=r), DesignError


@pytest.mark.parametrize("case", list(_edge_cases()), ids=lambda c: c[0])
def test_weighted_fit_edge_errors_match_oracle(case):
    _, sample, error = case
    assert _outcome(_unit_weighted_fit, sample, False, False) is error
    with pytest.raises(error):
        weighted_probit_fit(sample)


def test_response_fit_edge_errors_match_oracle():
    stratum, weight, y, x, r = _edge_sample()
    no_y3 = make_sample(stratum, weight, np.where(y == 3, 2, y), x, r=r)
    assert _outcome(_unit_response_fit, no_y3, True) is SingularDesignError
    with pytest.raises(SingularDesignError):
        unweighted_probit_fit(no_y3, x_term=True)
    same_r = make_sample(stratum, weight, y, x, r=np.zeros_like(r))
    assert _outcome(_unit_response_fit, same_r, False) is SeparationError
    with pytest.raises(SeparationError):
        unweighted_probit_fit(same_r, x_term=False)


def test_quasi_separated_cell_fits_match_oracle():
    # x = 1 for every y = 3 unit, r = 1 for every y = 3 unit. Neither the cell
    # fits nor the unit fits flag this: the score falls below its tolerance
    # near y3 = 7, long before the coefficient norm reaches its bound.
    stratum, weight, y, x, r = _edge_sample()
    for stratum_term in (False, True):
        sample = make_sample(stratum, weight, y, np.where(y == 3, 1.0, x), r=r)
        _assert_fits_equal(
            _cell_fit(weighted_probit_fit, sample, stratum_term=stratum_term),
            _unit_weighted_fit(sample, stratum_term, False))
    for x_term in (False, True):
        sample = make_sample(stratum, weight, y, x, r=np.where(y == 3, 1, r))
        _assert_fits_equal(_cell_fit(unweighted_probit_fit, sample, x_term=x_term),
                           _unit_response_fit(sample, x_term))


# ---------------------------------------------------------------------------
# HT total with SE
# ---------------------------------------------------------------------------

def test_ht_se_zero_cases():
    sample = make_sample([1, 1, 2, 2], [3.0, 3.0, 2.0, 2.0], [1, 2, 3, 1],
                         [1.0, 1.0, 0.0, 0.0])
    total, se = ht_with_se(sample)
    assert total == approx(6.0)
    assert se == 0.0                     # x constant within each stratum
    census = make_sample([1, 1, 2, 2], [1.0, 1.0, 1.0, 1.0], [1, 2, 3, 1],
                         [1.0, 0.0, 1.0, 0.0])
    assert ht_with_se(census)[1] == 0.0  # finite population correction


def test_ht_se_matches_design_variance_in_expectation():
    pop = generate_population(THETA, ALPHA, {1: 60, 2: 40}, seed=3)
    draws = {1: 12, 2: 10}
    true_var = theoretical_margin_variance(pop, draws, "overall")
    target = population_total(pop)
    est_vars = np.empty(10000)
    totals = np.empty(10000)
    for k in range(10000):
        s = draw_stratified_sample(pop, draws, seed=k)
        totals[k], se = ht_with_se(s)
        est_vars[k] = se ** 2
    mc_se = est_vars.std(ddof=1) / math.sqrt(len(est_vars))
    assert abs(est_vars.mean() - true_var) <= 3 * mc_se
    mc_se_t = totals.std(ddof=1) / math.sqrt(len(totals))
    assert abs(totals.mean() - target) <= 3 * mc_se_t


def test_ht_se_single_unit_stratum_error():
    sample = make_sample([1, 2, 2], [2.0, 2.0, 2.0], [1, 2, 3], [1.0, 0.0, 1.0])
    with pytest.raises(DesignError):
        ht_with_se(sample)


# ---------------------------------------------------------------------------
# Rubin combining
# ---------------------------------------------------------------------------

def test_rubin_two_point_hand_computation():
    est = rubin_combine([1.0, 3.0], [1.0, 1.0])
    assert est.point == approx(2.0)
    assert est.between == approx(2.0)
    assert est.within == approx(1.0)
    assert est.variance == approx(1.5 * 2.0 + 1.0)


def test_rubin_identical_points_have_no_between_variance():
    est = rubin_combine([5.0] * 10, [2.0] * 10)
    assert est.between == 0.0
    assert est.variance == approx(est.within)


def test_rubin_matches_straight_line_reimplementation(rng):
    q = rng.standard_normal(50) * 4 + 10
    u = rng.random(50) + 0.5
    est = rubin_combine(q, u)
    L = 50
    qbar = sum(q) / L
    b = sum((qi - qbar) ** 2 for qi in q) / (L - 1)
    ubar = sum(u) / L
    t = (1 + 1 / L) * b + ubar
    assert est.point == approx(qbar, abs=1e-12)
    assert est.between == approx(b, abs=1e-12)
    assert est.within == approx(ubar, abs=1e-12)
    assert est.variance == approx(t, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0.01, 10)),
                min_size=2, max_size=40),
       st.randoms(use_true_random=False))
def test_rubin_identity_and_permutation_invariance(pairs, shuffler):
    q = [p[0] for p in pairs]
    u = [p[1] for p in pairs]
    est = rubin_combine(q, u)
    L = len(q)
    assert est.variance == approx((1 + 1 / L) * est.between + est.within,
                                  abs=1e-12, rel=1e-12)
    assert est.between >= 0 and est.within > 0
    order = list(range(L))
    shuffler.shuffle(order)
    est2 = rubin_combine([q[i] for i in order], [u[i] for i in order])
    assert est2.point == approx(est.point, abs=1e-10)
    assert est2.variance == approx(est.variance, abs=1e-10, rel=1e-10)


def test_rubin_degenerate_inputs():
    with pytest.raises(ParameterError):
        rubin_combine([1.0], [1.0])
    with pytest.raises(ParameterError):
        rubin_combine([1.0, 2.0], [1.0, 0.0])


def test_aggregate_runs():
    single = rubin_combine([1.0, 3.0], [1.0, 1.0])
    point, se = aggregate_runs([single])
    assert point == approx(single.point)
    assert se == approx(math.sqrt(single.variance))
    point, se = aggregate_runs([single] * 10)
    assert point == approx(single.point)
    assert se == approx(math.sqrt(single.variance))


def test_aggregate_runs_matches_direct_formula(rng):
    ests = [rubin_combine(rng.standard_normal(30) + 5, rng.random(30) + 0.2)
            for _ in range(10)]
    point, se = aggregate_runs(ests)
    assert point == approx(sum(e.point for e in ests) / 10, abs=1e-12)
    assert se == approx(math.sqrt(sum(e.variance for e in ests) / 10), abs=1e-12)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_fit_result_json_keys_by_term():
    fit = FitResult(terms=("intercept", "y2"), coefficients=np.array([0.5, -0.2]),
                    standard_errors=np.array([0.1, 0.2]), converged=True,
                    iterations_used=4)
    d = fit.to_json_dict()
    assert d["coefficients"] == {"intercept": 0.5, "y2": -0.2}
    assert d["standard_errors"]["y2"] == 0.2
    json.dumps(d)


def test_mi_estimate_json_and_invariant():
    est = rubin_combine([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
    d = est.to_json_dict()
    assert set(d) == {"point", "variance", "within", "between", "n_imputations"}
    json.dumps(d)
    with pytest.raises(ParameterError):
        MIEstimate(point=0.0, variance=99.0, within=1.0, between=1.0,
                   n_imputations=10)
