import csv
import itertools
import math
import os

import numpy as np
import pytest
from pytest import approx

from marginmi.errors import (CompletenessError, DesignError, ParameterError,
                             SchemaError)
from marginmi.models import norm_cdf
from marginmi.survey import (AuxiliaryMargin, draw_stratified_sample,
                             generate_population, ht_total, impose_missingness,
                             margin_from_population, population_total,
                             read_population_csv, read_sample_csv,
                             theoretical_margin_variance, write_population_csv,
                             write_sample_csv)
from conftest import make_population, make_sample

THETA = {1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45)}
ALPHA = (0.5, -0.5, -1.0)
GAMMA = (-0.25, 0.1, 0.3, -1.1)
SIZES = {1: 35000, 2: 15000}
DRAWS = {1: 1500, 2: 3500}


# ---------------------------------------------------------------------------
# generate_population
# ---------------------------------------------------------------------------

def test_population_y_frequencies_match_theta():
    pop = generate_population(THETA, ALPHA, SIZES, seed=11)
    for s, theta in THETA.items():
        ys = pop.y[pop.stratum == s]
        n = len(ys)
        for k, p in enumerate(theta, start=1):
            freq = (ys == k).mean()
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * se


def test_population_degenerate_theta_forces_y():
    pop = generate_population({1: (1.0, 0.0, 0.0), 2: (1.0, 0.0, 0.0)},
                              ALPHA, {1: 500, 2: 300}, seed=3)
    assert (pop.y == 1).all()


def test_population_x_given_y_matches_probit():
    pop = generate_population(THETA, ALPHA, SIZES, seed=5)
    sel = pop.y == 1
    p = norm_cdf(0.5)
    freq = pop.x[sel].mean()
    se = math.sqrt(p * (1 - p) / sel.sum())
    assert abs(freq - p) <= 3 * se


def test_population_rejects_bad_theta():
    with pytest.raises(ParameterError):
        generate_population({1: (0.5, 0.2, 0.2), 2: (0.1, 0.45, 0.45)},
                            ALPHA, {1: 100, 2: 100}, seed=0)
    with pytest.raises(ParameterError):
        generate_population({1: (0.5, 0.6, -0.1), 2: (0.1, 0.45, 0.45)},
                            ALPHA, {1: 100, 2: 100}, seed=0)


def test_population_determinism():
    a = generate_population(THETA, ALPHA, SIZES, seed=42)
    b = generate_population(THETA, ALPHA, SIZES, seed=42)
    c = generate_population(THETA, ALPHA, SIZES, seed=43)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)
    assert not (np.array_equal(a.y, c.y) and np.array_equal(a.x, c.x))


def test_population_total_near_expected_value():
    # expected total is about 25000 at the scenario parameters
    pop = generate_population(THETA, ALPHA, SIZES, seed=101)
    assert 24500 < population_total(pop) < 25500


# ---------------------------------------------------------------------------
# draw_stratified_sample
# ---------------------------------------------------------------------------

def test_sample_weights_are_size_ratios():
    pop = generate_population(THETA, ALPHA, SIZES, seed=1)
    sample = draw_stratified_sample(pop, DRAWS, seed=2)
    assert sample.weight[sample.stratum == 1] == approx(35000 / 1500)
    assert sample.weight[sample.stratum == 2] == approx(15000 / 3500)
    assert sample.size == 5000
    assert (sample.r == 0).all() and sample.is_complete


def test_census_sample_is_permutation_with_unit_weights():
    pop = generate_population(THETA, ALPHA, {1: 40, 2: 25}, seed=9)
    sample = draw_stratified_sample(pop, {1: 40, 2: 25}, seed=10)
    assert (sample.weight == 1.0).all()
    for s in (1, 2):
        got = np.sort(sample.y[sample.stratum == s] * 10 + sample.x[sample.stratum == s])
        want = np.sort(pop.y[pop.stratum == s] * 10 + pop.x[pop.stratum == s])
        assert np.array_equal(got, want)
    assert ht_total(sample) == population_total(pop)


def test_ht_unbiasedness_over_repeated_samples():
    pop = generate_population(THETA, ALPHA, {1: 300, 2: 200}, seed=77)
    target = population_total(pop)
    totals = np.array([ht_total(draw_stratified_sample(pop, {1: 30, 2: 40}, seed=k))
                       for k in range(1000)])
    mc_se = totals.std(ddof=1) / math.sqrt(len(totals))
    assert abs(totals.mean() - target) <= 3 * mc_se


def test_oversized_draw_is_design_error():
    pop = generate_population(THETA, ALPHA, {1: 50, 2: 50}, seed=1)
    with pytest.raises(DesignError):
        draw_stratified_sample(pop, {1: 51, 2: 10}, seed=2)


def test_weight_identity():
    pop = generate_population(THETA, ALPHA, SIZES, seed=4)
    sample = draw_stratified_sample(pop, DRAWS, seed=5)
    for s, n_s in sample.stratum_draws.items():
        w = sample.weight[sample.stratum == s][0]
        assert w * n_s / SIZES[s] == approx(1.0, abs=1e-12)


def test_sample_determinism():
    pop = generate_population(THETA, ALPHA, SIZES, seed=4)
    a = draw_stratified_sample(pop, DRAWS, seed=5)
    b = draw_stratified_sample(pop, DRAWS, seed=5)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)


# ---------------------------------------------------------------------------
# impose_missingness
# ---------------------------------------------------------------------------

def _scenario_sample(seed_pop=1, seed_samp=2):
    pop = generate_population(THETA, ALPHA, SIZES, seed=seed_pop)
    return pop, draw_stratified_sample(pop, DRAWS, seed=seed_samp)


def test_missingness_rate_matches_analytic_value():
    _, sample = _scenario_sample()
    g0, g12, g13, g2 = GAMMA
    p = norm_cdf(g0 + g12 * (sample.y == 2) + g13 * (sample.y == 3) + g2 * sample.x)
    masked, _ = impose_missingness(sample, GAMMA, seed=3)
    rate = masked.n_missing / masked.size
    analytic = p.mean()
    se = math.sqrt((p * (1 - p)).sum()) / sample.size
    assert abs(rate - analytic) <= 3 * se
    assert 0.2 < rate < 0.4          # "approximately 30%" at these parameters


def test_missingness_consistency_and_sealed_truth():
    _, sample = _scenario_sample()
    masked, sealed = impose_missingness(sample, GAMMA, seed=3)
    assert int((masked.r == 1).sum()) == masked.n_missing
    assert np.array_equal(masked.missing_indices, sealed.indices)
    restored = masked.x.copy()
    restored[sealed.indices] = sealed.x_true
    assert np.array_equal(restored, sample.x)
    # untouched rows keep their observed values
    keep = masked.r == 0
    assert np.array_equal(masked.x[keep], sample.x[keep])


def test_missingness_extreme_intercepts():
    _, sample = _scenario_sample()
    none_missing, _ = impose_missingness(sample, (-8.0, 0.0, 0.0, 0.0), seed=3)
    assert none_missing.n_missing == 0
    coin, _ = impose_missingness(sample, (0.0, 0.0, 0.0, 0.0), seed=3)
    rate = coin.n_missing / coin.size
    assert abs(rate - 0.5) <= 3 * math.sqrt(0.25 / coin.size)


def test_missingness_requires_complete_input():
    _, sample = _scenario_sample()
    masked, _ = impose_missingness(sample, GAMMA, seed=3)
    with pytest.raises(CompletenessError):
        impose_missingness(masked, GAMMA, seed=4)


def test_missingness_determinism():
    _, sample = _scenario_sample()
    a, _ = impose_missingness(sample, GAMMA, seed=3)
    b, _ = impose_missingness(sample, GAMMA, seed=3)
    assert np.array_equal(a.r, b.r)


# ---------------------------------------------------------------------------
# totals and variances
# ---------------------------------------------------------------------------

def test_population_total_extremes():
    pop = make_population([1, 1, 2, 2], [1, 2, 3, 1], [1, 1, 1, 1])
    assert population_total(pop) == 4.0
    pop0 = make_population([1, 1, 2, 2], [1, 2, 3, 1], [0, 0, 0, 0])
    assert population_total(pop0) == 0.0


def test_ht_total_direct_sum():
    sample = make_sample([1, 2, 3], [2.0, 3.0, 5.0], [1, 2, 3], [1.0, 0.0, 1.0])
    assert ht_total(sample) == approx(7.0)
    zeros = make_sample([1, 2, 3], [2.0, 3.0, 5.0], [1, 2, 3], [0.0, 0.0, 0.0])
    assert ht_total(zeros) == 0.0


def test_ht_total_requires_complete():
    sample = make_sample([1, 1], [2.0, 2.0], [1, 2], [1.0, np.nan])
    with pytest.raises(CompletenessError):
        ht_total(sample)


def test_margin_variance_zero_cases():
    pop = make_population([1] * 6 + [2] * 6, [1] * 12, [1] * 6 + [0, 0, 0, 1, 1, 1])
    per = theoretical_margin_variance(pop, {1: 3, 2: 3}, scope="per-stratum")
    assert per[1] == 0.0                      # constant x in stratum 1
    assert per[2] > 0.0
    census = theoretical_margin_variance(pop, {1: 6, 2: 6}, scope="per-stratum")
    assert census[1] == 0.0 and census[2] == 0.0


def test_margin_variance_matches_exhaustive_enumeration():
    # two strata of 10 units, 5 ones each, draws of 4: enumerate all
    # (10 choose 4)^2 equally likely samples through per-stratum independence
    x1 = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    x2 = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
    pop = make_population([1] * 10 + [2] * 10, [1] * 20, np.concatenate([x1, x2]))
    per = theoretical_margin_variance(pop, {1: 4, 2: 4}, scope="per-stratum")
    overall = theoretical_margin_variance(pop, {1: 4, 2: 4}, scope="overall")
    for s, xs in ((1, x1), (2, x2)):
        w = 10 / 4
        totals = [w * xs[list(c)].sum() for c in itertools.combinations(range(10), 4)]
        brute = np.var(totals)                # exact over equally likely samples
        assert per[s] == approx(brute, abs=1e-9)
    assert overall == approx(per[1] + per[2], abs=1e-9)


def test_margin_variance_design_errors():
    pop = make_population([1, 2, 2], [1, 1, 1], [1, 0, 1])
    with pytest.raises(DesignError):
        theoretical_margin_variance(pop, {1: 1, 2: 2}, scope="overall")


def test_margin_from_population_scopes():
    pop, _ = _scenario_sample()
    overall = margin_from_population(pop, DRAWS, "overall")
    per = margin_from_population(pop, DRAWS, "per-stratum")
    assert overall.total == population_total(pop)
    assert sum(per.totals.values()) == approx(overall.total)
    assert overall.variance == approx(sum(per.variances.values()))
    per.check_feasible(pop.stratum_sizes)


def test_auxiliary_margin_validation():
    with pytest.raises(ParameterError):
        AuxiliaryMargin.overall(100.0, 0.0)
    with pytest.raises(ParameterError):
        AuxiliaryMargin.per_stratum({1: 10.0}, {1: 10.0, 2: 5.0})
    m = AuxiliaryMargin.per_stratum({1: 10.0, 2: 5.0}, {1: 2.0, 2: 2.0})
    with pytest.raises(ParameterError):
        m.check_feasible({1: 8, 2: 8})
    round_trip = AuxiliaryMargin.from_json_dict(m.to_json_dict())
    assert round_trip == m


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def test_sample_csv_round_trip(tmp_path):
    _, sample = _scenario_sample()
    masked, _ = impose_missingness(sample, GAMMA, seed=3)
    path = tmp_path / "sample.csv"
    write_sample_csv(masked, path)
    back = read_sample_csv(path)
    assert np.array_equal(back.stratum, masked.stratum)
    assert np.array_equal(back.weight, masked.weight)
    assert np.array_equal(back.y, masked.y)
    assert np.array_equal(back.r, masked.r)
    assert np.array_equal(np.isnan(back.x), np.isnan(masked.x))
    obs = ~np.isnan(masked.x)
    assert np.array_equal(back.x[obs], masked.x[obs])
    assert back.stratum_draws == masked.stratum_draws


def test_sample_csv_bytes_match_csv_writer(tmp_path):
    # the writer's reference: one csv.writer row per unit
    def reference(sample, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["stratum", "weight", "y", "x", "r"])
            for i in range(sample.size):
                x = sample.x[i]
                writer.writerow([int(sample.stratum[i]), repr(float(sample.weight[i])),
                                 int(sample.y[i]), "" if np.isnan(x) else int(x),
                                 int(sample.r[i])])

    _, sample = _scenario_sample()
    masked, _ = impose_missingness(sample, GAMMA, seed=3)
    rng = np.random.default_rng(5)
    stratum = rng.choice([7, -2, 30], size=600)
    weight = np.select([stratum == 7, stratum == -2], [7000 / 3, 0.1], 1e-7)
    x = rng.choice([0.0, 1.0, np.nan], size=600)
    odd = make_sample(stratum, weight, rng.integers(1, 4, 600), x,
                      r=np.where(np.isnan(x), 1, rng.integers(0, 2, 600)))
    for case in (sample, masked, odd):
        write_sample_csv(case, tmp_path / "fast.csv")
        reference(case, tmp_path / "slow.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_population_csv_round_trip(tmp_path):
    pop = generate_population(THETA, ALPHA, {1: 200, 2: 100}, seed=8)
    path = tmp_path / "pop.csv"
    write_population_csv(pop, path)
    back = read_population_csv(path)
    assert np.array_equal(back.y, pop.y) and np.array_equal(back.x, pop.x)
    assert back.stratum_sizes == pop.stratum_sizes


def test_sample_csv_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("stratum,weight,y,x,r\n"
                    "1,2.0,1,1,0\n"
                    "1,not-a-number,2,0,0\n"
                    "1,2.0,5,1,0\n"
                    "1,2.0,1,,0\n",
                    encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        read_sample_csv(path)
    assert set(info.value.rows) == {3, 4, 5}
    path2 = tmp_path / "badheader.csv"
    path2.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_sample_csv(path2)
