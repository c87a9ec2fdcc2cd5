"""Acceptance criteria, one test per numbered criterion.

Each test prints a PASS line with the observed numbers (run with -s or -rA
to see them). The full-scale scenario criteria dominate the runtime and can
be skipped for quick iteration with --quick; the property suite (criterion
8) and the desk-scale checks (criterion 9) always run.
"""

import os
import time

import pytest

from marginmi.harness import builtin_scenarios, run_scenario

JOBS = int(os.environ.get("MARGINMI_JOBS", os.cpu_count() or 1))

_reports = {}
_timings = {}


def _full_report(request, sid):
    if request.config.getoption("--quick"):
        pytest.skip("--quick skips full-scale scenario criteria")
    if sid not in _reports:
        t0 = time.perf_counter()
        _reports[sid] = run_scenario(builtin_scenarios()[sid], jobs=JOBS)
        _timings[sid] = time.perf_counter() - t0
    return _reports[sid]


def _announce(num, detail):
    print(f"[criterion {num}] PASS: {detail}")


@pytest.fixture(scope="module")
def scenario1(request):
    return _full_report(request, "scenario1")


@pytest.fixture(scope="module")
def scenario2(request):
    return _full_report(request, "scenario2")


@pytest.fixture(scope="module")
def scenario3(request):
    return _full_report(request, "scenario3")


@pytest.fixture(scope="module")
def scenario4(request):
    return _full_report(request, "scenario4")


def test_criterion_1_constraint_methods_recover_the_total(scenario1):
    pop = scenario1.population_total
    anc = scenario1.methods["AN+Constraint"].total_mean
    ancw = scenario1.methods["AN+Constraint+Weight"].total_mean
    assert abs(anc - pop) <= 500, f"AN+Constraint {anc:.0f} vs population {pop:.0f}"
    assert abs(ancw - pop) <= 500, f"AN+Constraint+Weight {ancw:.0f} vs population {pop:.0f}"
    minutes = _timings["scenario1"] / 60
    assert minutes < 45, f"scenario 1 took {minutes:.1f} min"
    _announce(1, f"AN+C {anc:.0f}, AN+C+W {ancw:.0f} vs population {pop:.0f} "
                 f"(both within 500); runtime {minutes:.1f} min on {JOBS} workers")


def test_criterion_2_unconstrained_methods_degrade(scenario1):
    pop = scenario1.population_total
    mar = scenario1.methods["MAR+Weight"].total_mean
    anw_se = scenario1.methods["AN+Weight"].total_se
    assert mar - pop > 3000, f"MAR+Weight bias {mar - pop:+.0f}"
    assert anw_se > 1500, f"AN+Weight pooled SE {anw_se:.0f}"
    _announce(2, f"MAR+Weight bias {mar - pop:+.0f} (> +3000); "
                 f"AN+Weight pooled SE {anw_se:.0f} (> 1500)")


def test_criterion_3_parameter_recovery(scenario1):
    params = scenario1.methods["AN+Constraint"].parameters
    g2 = params["gamma2"][0]
    a0 = params["alpha0"][0]
    assert -1.40 <= g2 <= -0.90, f"gamma2 {g2:.3f}"
    assert abs(a0 - 0.50) <= 0.10, f"alpha0 {a0:.3f}"
    _announce(3, f"AN+Constraint gamma2 {g2:.3f} in [-1.40, -0.90]; "
                 f"alpha0 {a0:.3f} within 0.10 of 0.50")


def test_criterion_4_acceptance_ratios(scenario1):
    got = {}
    for label in ("AN+Constraint", "AN+Constraint+Weight"):
        a = scenario1.methods[label].acceptance["overall"]
        assert 0.70 <= a["min"] <= a["mean"] <= a["max"] <= 0.92, f"{label}: {a}"
        got[label] = a
    _announce(4, "; ".join(
        f"{label} mean {a['mean']:.2f} range [{a['min']:.2f}, {a['max']:.2f}]"
        for label, a in got.items()) + " all within [0.70, 0.92]")


def test_criterion_5_weak_nonignorability(scenario2):
    pop = scenario2.population_total
    anc = scenario2.methods["AN+Constraint"].total_mean
    mar_bias = scenario2.methods["MAR+Weight"].total_mean - pop
    assert abs(anc - pop) <= 500, f"AN+Constraint {anc:.0f} vs population {pop:.0f}"
    assert 0 < mar_bias < 2500, f"MAR+Weight bias {mar_bias:+.0f}"
    _announce(5, f"AN+Constraint {anc:.0f} vs population {pop:.0f} (within 500); "
                 f"MAR+Weight bias {mar_bias:+.0f} (positive, below +2500)")


def test_criterion_6_per_stratum_margins_tighten_and_widen(scenario1, scenario3):
    se3 = scenario3.methods["AN+Constraint"].total_se
    se1 = scenario1.methods["AN+Constraint"].total_se
    assert se3 <= se1, f"per-stratum SE {se3:.0f} vs overall SE {se1:.0f}"
    overall = scenario1.methods["AN+Constraint"].acceptance["overall"]
    overall_width = overall["max"] - overall["min"]
    widths = {}
    for s, a in scenario3.methods["AN+Constraint"].acceptance.items():
        widths[s] = a["max"] - a["min"]
        assert widths[s] > overall_width, \
            f"stratum {s} range width {widths[s]:.3f} vs overall {overall_width:.3f}"
    _announce(6, f"pooled SE {se3:.0f} <= {se1:.0f}; acceptance range widths "
                 + ", ".join(f"stratum {s}: {w:.3f}" for s, w in widths.items())
                 + f" all wider than scenario 1's {overall_width:.3f}")


def test_criterion_7_weak_effect_recovery_per_stratum(scenario4):
    g2 = scenario4.methods["AN+Constraint"].parameters["gamma2"][0]
    assert abs(g2 - (-0.20)) <= 0.15, f"gamma2 {g2:.3f}"
    _announce(7, f"AN+Constraint gamma2 {g2:.3f} within 0.15 of -0.20")


def test_criterion_8_property_suite_is_fast_and_green(rng):
    t0 = time.perf_counter()

    import test_estimators
    import test_mcmc
    import test_models
    import test_survey

    # Rubin-rule identity (exact)
    from marginmi.estimators import rubin_combine
    q = rng.standard_normal(50) * 3 + 2
    u = rng.random(50) + 0.1
    est = rubin_combine(q, u)
    assert est.variance == (1 + 1 / 50) * est.between + est.within
    test_estimators.test_rubin_two_point_hand_computation()

    # HT resampling unbiasedness
    test_survey.test_ht_unbiasedness_over_repeated_samples()

    # the coefficient step leaves its grouped probit posterior invariant
    # (quadrature; a regular, a quasi-separated and an |lp| ~ 40 table)
    for table in test_mcmc.GROUPED_TABLES:
        test_mcmc.test_coefficient_step_leaves_grouped_posterior_invariant(rng, table)

    # probit CDF accuracy against the high-precision oracle
    test_models.test_norm_cdf_high_precision_grid()

    # 6-unit chain total-variation against the enumerated target
    test_mcmc.test_six_unit_chain_matches_enumerated_stationary_distribution()

    # weighted probit against an independent numerical maximizer
    test_estimators.test_weighted_fit_matches_independent_numerical_maximizer()

    # bit-exact seed determinism
    test_mcmc.test_run_chain_seed_determinism()

    seconds = time.perf_counter() - t0
    assert seconds < 120, f"property suite took {seconds:.0f}s"
    _announce(8, f"property suite green in {seconds:.0f}s (< 120s)")


@pytest.mark.parametrize("sid", ["scenario1-desk", "scenario3-desk"])
def test_criterion_9_desk_variants_preserve_bias_ordering(sid):
    t0 = time.perf_counter()
    report = run_scenario(builtin_scenarios()[sid], jobs=JOBS)
    seconds = time.perf_counter() - t0
    pop = report.population_total
    bias = {label: abs(s.total_mean - pop) for label, s in report.methods.items()}
    assert bias["AN+Constraint"] < bias["AN+Weight"], f"{sid}: {bias}"
    assert bias["AN+Constraint"] < bias["MAR+Weight"], f"{sid}: {bias}"
    assert seconds < 120, f"{sid} took {seconds:.0f}s"
    _announce(9, f"{sid} in {seconds:.0f}s: |bias| AN+C {bias['AN+Constraint']:.0f}"
                 f" < AN+W {bias['AN+Weight']:.0f} and"
                 f" < MAR+W {bias['MAR+Weight']:.0f}")
