import inspect
import json
import math

import numpy as np
import pytest
from pytest import approx

import marginmi.estimators
import marginmi.mcmc
import marginmi.models
from marginmi.errors import SeparationError, SingularDesignError
from marginmi.harness import (PARAMETER_ORDER, ScenarioConfig, builtin_scenarios,
                              emit_report, estimands_from_chain,
                              read_report_table, run_scenario, subseed,
                              _run_method_task)
from marginmi.mcmc import ChainResult, ChainSettings, Method, run_chain
from marginmi.survey import (draw_stratified_sample, generate_population,
                             impose_missingness)
from conftest import make_sample


def tiny_config(**overrides):
    base = dict(
        id="tiny",
        theta_by_stratum={1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45)},
        alpha=(0.5, -0.5, -1.0),
        gamma=(-0.25, 0.1, 0.3, -1.1),
        stratum_sizes={1: 700, 2: 500},
        stratum_draws={1: 80, 2: 120},
        margin_scope="overall",
        methods=tuple(Method),
        runs=2,
        iterations=300,
        burn_in=100,
        thin=20,
        master_seed=99,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------

def test_builtin_scenarios_cover_the_four_designs_plus_desk():
    scenarios = builtin_scenarios()
    assert set(scenarios) == {"scenario1", "scenario2", "scenario3", "scenario4",
                              "scenario1-desk", "scenario2-desk",
                              "scenario3-desk", "scenario4-desk"}
    s1 = scenarios["scenario1"]
    assert s1.alpha == (0.5, -0.5, -1.0)
    assert s1.gamma == (-0.25, 0.1, 0.3, -1.1)
    assert s1.gamma[3] == -1.1
    assert s1.margin_scope == "overall"
    s2 = scenarios["scenario2"]
    assert s2.alpha == (0.15, -0.45, -0.15)
    assert s2.gamma == (-1.0, -0.6, 1.4, -0.2)
    assert scenarios["scenario3"].margin_scope == "per-stratum"
    assert scenarios["scenario3"].alpha == s1.alpha
    assert scenarios["scenario4"].margin_scope == "per-stratum"
    assert scenarios["scenario4"].gamma == s2.gamma
    for sid in ("scenario1", "scenario2", "scenario3", "scenario4"):
        cfg = scenarios[sid]
        assert cfg.stratum_sizes == {1: 35000, 2: 15000}
        assert cfg.stratum_draws == {1: 1500, 2: 3500}
        assert (cfg.iterations, cfg.burn_in, cfg.thin) == (10000, 5000, 100)
        assert cfg.runs == 10
        desk = scenarios[sid + "-desk"]
        assert desk.stratum_sizes == {1: 7000, 2: 3000}
        assert desk.stratum_draws == {1: 300, 2: 700}
        assert (desk.iterations, desk.burn_in, desk.thin) == (4000, 2000, 40)
        assert desk.theta_by_stratum == cfg.theta_by_stratum


def test_scenario_config_json_round_trip():
    cfg = builtin_scenarios()["scenario3-desk"]
    back = ScenarioConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg


def test_subseed_is_deterministic_and_spreads():
    assert subseed(1, 2, 3) == subseed(1, 2, 3)
    assert subseed(1, 2, 3) != subseed(1, 2, 4)
    assert subseed(1, 2, 3) != subseed(2, 2, 3)


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_report():
    return run_scenario(tiny_config())


def test_report_structure(tiny_report):
    report = tiny_report
    assert set(report.methods) == {m.label for m in Method}
    for label, summary in report.methods.items():
        assert len(summary.per_run_totals) == 2
        assert math.isfinite(summary.total_mean) and summary.total_se > 0
        for name, (est, se) in summary.parameters.items():
            assert name in PARAMETER_ORDER
            assert math.isfinite(est) and se > 0
    assert "gamma2" not in report.methods["MAR+Weight"].parameters
    assert "gamma2" in report.methods["AN+Constraint"].parameters
    for label in ("AN+Constraint", "AN+Constraint+Weight"):
        acc = report.methods[label].acceptance
        assert set(acc) == {"overall"}
        a = acc["overall"]
        assert 0.0 <= a["min"] <= a["mean"] <= a["max"] <= 1.0
    assert len(report.per_run_seeds) == 2
    assert all(c > 0 for c in report.erased_counts)
    assert report.truth["gamma2"] == -1.1


def test_report_is_deterministic(tiny_report):
    again = run_scenario(tiny_config())
    assert again.to_json_dict() == tiny_report.to_json_dict()


def test_parallel_execution_matches_serial(tiny_report):
    config = tiny_config()
    parallel = run_scenario(config, jobs=2)
    assert parallel.to_json_dict() == tiny_report.to_json_dict()


def test_per_stratum_scope_reports_block_acceptance():
    report = run_scenario(tiny_config(margin_scope="per-stratum",
                                      methods=(Method.AN_CONSTRAINT,), runs=1))
    acc = report.methods["AN+Constraint"].acceptance
    assert set(acc) == {1, 2}


def test_sample_based_margin_variance_source():
    from marginmi.estimators import ht_variance_by_stratum
    from marginmi.harness import _prepare_run
    pop_cfg = tiny_config()
    smp_cfg = tiny_config(margin_variance_source="sample")
    rd_pop = _prepare_run(pop_cfg, 0)
    rd_smp = _prepare_run(smp_cfg, 0)
    # same seeds -> same data; only the variance source differs
    assert rd_smp.margin.total == rd_pop.margin.total
    assert rd_smp.margin.variance != rd_pop.margin.variance
    expected = sum(ht_variance_by_stratum(rd_smp.complete_sample).values())
    assert rd_smp.margin.variance == approx(expected)
    with pytest.raises(Exception):
        tiny_config(margin_variance_source="nonsense")


def test_run_scenario_trace_dir(tmp_path):
    config = tiny_config(runs=1, methods=(Method.AN_CONSTRAINT,))
    run_scenario(config, trace_dir=tmp_path / "traces")
    files = sorted(p.name for p in (tmp_path / "traces").iterdir())
    assert files == ["tiny_run0_AN_Constraint.trace.csv"]


def test_refresh_margin_variance():
    from marginmi.estimators import ht_variance_by_stratum
    from marginmi.harness import _prepare_run, refresh_margin_variance
    config = tiny_config()
    rd = _prepare_run(config, 0)
    settings = config.chain_settings(Method.AN_CONSTRAINT, seed=5)
    refreshed = refresh_margin_variance(rd.masked_sample, rd.margin, settings,
                                        n_preliminary=5)
    assert refreshed.total == rd.margin.total
    assert refreshed.variance != rd.margin.variance
    # completed data carry imputations, so the refreshed value sits near the
    # complete-sample estimate
    rough = sum(ht_variance_by_stratum(rd.complete_sample).values())
    assert 0.3 * rough < refreshed.variance < 3.0 * rough


def test_zero_missingness_methods_equal_no_missing_row():
    config = tiny_config(gamma=(-8.0, 0.0, 0.0, 0.0), runs=1,
                         methods=(Method.MAR_WEIGHT, Method.AN_CONSTRAINT))
    report = run_scenario(config)
    assert report.erased_counts == (0,)
    for summary in report.methods.values():
        assert summary.total_mean == approx(report.no_missing_total, rel=1e-12)
        assert summary.total_se == approx(report.no_missing_se, rel=1e-12)


def test_estimator_failure_names_the_draw():
    pop = generate_population({1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45)},
                              (0.5, -0.5, -1.0), {1: 700, 2: 500}, seed=5)
    sample = draw_stratified_sample(pop, {1: 80, 2: 120}, seed=6)
    masked, _ = impose_missingness(sample, (-0.25, 0.1, 0.3, -1.1), seed=7)
    good = masked.with_x(sample.x)
    all_ones = masked.with_x(np.ones(sample.size))     # separated outcome fit
    result = ChainResult(datasets=[good, all_ones, good], trace=None, draws=None)
    with pytest.raises(SeparationError, match=r"^draw 2: "):
        estimands_from_chain(result, Method.AN_WEIGHT, with_replacement=False)


def test_method_task_failure_names_run_and_method():
    no_y3 = make_sample([1, 1, 2, 2], [2.0, 2.0, 3.0, 3.0],
                        [1, 2, 1, 2], [1.0, 0.0, np.nan, 0.0])
    settings = ChainSettings(200, 100, 10, Method.AN_WEIGHT, 1)
    task = (4, Method.AN_WEIGHT, no_y3, None, settings, False, None)
    with pytest.raises(SingularDesignError, match=r"^run 4, AN\+Weight: "):
        _run_method_task(task)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_emit_report_round_trip(tiny_report, tmp_path):
    paths = emit_report(tiny_report, tmp_path, fmt="csv")
    names = {p.split("/")[-1] for p in paths}
    assert names == {"tiny_totals.csv", "tiny_parameters.csv", "tiny_manifest.json"}

    totals = read_report_table(tmp_path / "tiny_totals.csv")
    by_method = {row["method"]: row for row in totals}
    assert by_method["Population"]["total_mean"] == tiny_report.population_total
    assert by_method["No Missing Data"]["total_se"] == tiny_report.no_missing_se
    for label, summary in tiny_report.methods.items():
        assert by_method[label]["total_mean"] == summary.total_mean
        assert by_method[label]["total_se"] == summary.total_se
    assert by_method["AN+Constraint"]["acceptance_mean"] == \
        tiny_report.methods["AN+Constraint"].acceptance["overall"]["mean"]
    assert by_method["MAR+Weight"]["acceptance_mean"] is None

    params = read_report_table(tmp_path / "tiny_parameters.csv")
    assert [row["parameter"] for row in params] == list(PARAMETER_ORDER)
    gamma2 = params[-1]
    assert gamma2["MAR+Weight_mean"] is None
    assert gamma2["AN+Constraint_mean"] == \
        tiny_report.methods["AN+Constraint"].parameters["gamma2"][0]

    with open(tmp_path / "tiny_manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["master_seed"] == 99
    assert len(manifest["per_run_seeds"]) == 2
    assert "population" in manifest["per_run_seeds"][0]
    assert "chains" in manifest["per_run_seeds"][0]


def test_emit_report_json_format(tiny_report, tmp_path):
    paths = emit_report(tiny_report, tmp_path / "j", fmt="json")
    report_path = [p for p in paths if p.endswith("tiny_report.json")][0]
    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload == tiny_report.to_json_dict()


# ---------------------------------------------------------------------------
# sealed-truth isolation
# ---------------------------------------------------------------------------

def test_chain_and_estimator_code_never_touch_sealed_truth():
    for module in (marginmi.mcmc, marginmi.estimators, marginmi.models):
        source = inspect.getsource(module)
        assert "SealedTruth" not in source
        assert "sealed" not in source.lower()
    # and the chain entry point takes no truth argument
    params = inspect.signature(run_chain).parameters
    assert set(params) == {"sample", "margin", "settings", "theta_prior"}
