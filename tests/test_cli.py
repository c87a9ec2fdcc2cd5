import json
import math
import os

import numpy as np
import pytest
from pytest import approx

from marginmi.cli import main
from marginmi.survey import (draw_stratified_sample, generate_population,
                             impose_missingness, margin_from_population,
                             population_total, read_sample_csv,
                             write_sample_csv)

THETA = {1: (0.5, 0.15, 0.35), 2: (0.1, 0.45, 0.45)}
ALPHA = (0.5, -0.5, -1.0)
GAMMA = (-0.25, 0.1, 0.3, -1.1)


def tiny_config_file(tmp_path, **overrides):
    payload = {
        "id": "tiny-cli",
        "theta_by_stratum": {"1": [0.5, 0.15, 0.35], "2": [0.1, 0.45, 0.45]},
        "alpha": [0.5, -0.5, -1.0],
        "gamma": [-0.25, 0.1, 0.3, -1.1],
        "stratum_sizes": {"1": 600, "2": 400},
        "stratum_draws": {"1": 60, "2": 90},
        "margin_scope": "overall",
        "methods": ["MAR+Weight", "AN+Constraint"],
        "runs": 1,
        "iterations": 200,
        "burn_in": 100,
        "thin": 20,
        "master_seed": 7,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def test_list_methods(capsys):
    assert main(["list", "--methods"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]
    labels = [l.split(":")[0] for l in lines]
    assert labels == ["MAR+Weight", "AN+Weight", "AN+Constraint",
                      "AN+Constraint+Weight"]


def test_list_scenarios(capsys):
    assert main(["list", "--scenarios"]) == 0
    out = capsys.readouterr().out
    for sid in ("scenario1", "scenario2", "scenario3", "scenario4"):
        assert sid + ":" in out
        assert sid + "-desk:" in out


def test_list_without_flags_is_usage_error(capsys):
    assert main(["list"]) == 2
    assert "scenarios" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_unknown_scenario(capsys):
    assert main(["simulate", "nosuch", "--out", "/tmp/never-used"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err


def test_simulate_tiny_config(tmp_path, capsys):
    config = tiny_config_file(tmp_path)
    out = tmp_path / "report"
    assert main(["simulate", str(config), "--out", str(out), "--jobs", "1"]) == 0
    files = sorted(os.listdir(out))
    assert files == ["run_manifest.json", "tiny-cli_manifest.json",
                     "tiny-cli_parameters.csv", "tiny-cli_totals.csv"]
    with open(out / "run_manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["seeds"]["master_seed"] == 7
    assert len(manifest["config_digest"]) == 64
    assert set(manifest["timings_seconds"]) == {"setup", "run", "write"}


def test_simulate_is_deterministic(tmp_path):
    config = tiny_config_file(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", str(config), "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["simulate", str(config), "--out", str(out2), "--jobs", "1"]) == 0
    for name in ("tiny-cli_totals.csv", "tiny-cli_parameters.csv",
                 "tiny-cli_manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_seed_override_changes_results(tmp_path):
    config = tiny_config_file(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", str(config), "--out", str(out1), "--jobs", "1"]) == 0
    assert main(["simulate", str(config), "--out", str(out2), "--jobs", "1",
                 "--seed", "8"]) == 0
    assert (out1 / "tiny-cli_totals.csv").read_bytes() != \
        (out2 / "tiny-cli_totals.csv").read_bytes()


def test_simulate_truncated_config_is_usage_error(tmp_path, capsys):
    config = tiny_config_file(tmp_path)
    config.write_text(config.read_text(encoding="utf-8")[:40], encoding="utf-8")
    assert main(["simulate", str(config), "--out", str(tmp_path / "x")]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_simulate_refuses_nonempty_output(tmp_path, capsys):
    config = tiny_config_file(tmp_path)
    out = tmp_path / "busy"
    out.mkdir()
    (out / "keep.txt").write_text("do not clobber", encoding="utf-8")
    assert main(["simulate", str(config), "--out", str(out)]) == 2
    assert "not empty" in capsys.readouterr().err
    assert (out / "keep.txt").read_text(encoding="utf-8") == "do not clobber"


def test_simulate_output_root_env(tmp_path, monkeypatch):
    config = tiny_config_file(tmp_path)
    monkeypatch.setenv("MARGINMI_OUTPUT_ROOT", str(tmp_path / "root"))
    assert main(["simulate", str(config), "--jobs", "1"]) == 0
    assert (tmp_path / "root" / "tiny-cli" / "tiny-cli_totals.csv").exists()


# ---------------------------------------------------------------------------
# impute
# ---------------------------------------------------------------------------

def _write_margin(path, margin):
    path.write_text(json.dumps(margin.to_json_dict()), encoding="utf-8")
    return path


def _small_survey(tmp_path, seed=3, with_missing=True):
    pop = generate_population(THETA, ALPHA, {1: 600, 2: 400}, seed=seed)
    sample = draw_stratified_sample(pop, {1: 60, 2: 90}, seed=seed + 1)
    if with_missing:
        sample, _ = impose_missingness(sample, GAMMA, seed=seed + 2)
    data = tmp_path / "survey.csv"
    write_sample_csv(sample, data)
    margin = margin_from_population(pop, {1: 60, 2: 90}, "overall")
    margin_path = _write_margin(tmp_path / "margin.json", margin)
    return data, margin_path, pop, sample


def test_impute_without_missing_values(tmp_path):
    data, margin_path, _, sample = _small_survey(tmp_path, with_missing=False)
    out = tmp_path / "out"
    assert main(["impute", str(data), "--margin", str(margin_path),
                 "--method", "AN+Constraint", "--out", str(out),
                 "--iterations", "200", "--burn-in", "100", "--thin", "20"]) == 0
    completed = sorted(p for p in os.listdir(out) if p.startswith("completed_"))
    assert len(completed) == 5
    for name in completed:
        back = read_sample_csv(out / name)
        assert np.array_equal(back.x, sample.x)
    with open(out / "mi_estimates.json", encoding="utf-8") as fh:
        estimates = json.load(fh)
    assert estimates["T_X"]["between"] == 0.0
    assert "gamma0" not in estimates        # nobody is a nonrespondent
    with open(out / "acceptance.json", encoding="utf-8") as fh:
        acc = json.load(fh)
    assert acc["acceptance_ratio"] == 1.0


def test_impute_writes_diagnostics_and_trace(tmp_path):
    data, margin_path, _, _ = _small_survey(tmp_path)
    out = tmp_path / "out"
    assert main(["impute", str(data), "--margin", str(margin_path),
                 "--out", str(out), "--iterations", "300", "--burn-in", "100",
                 "--thin", "20", "--trace", "--seed", "5"]) == 0
    assert (out / "chain_trace.csv").exists()
    with open(out / "mi_estimates.json", encoding="utf-8") as fh:
        estimates = json.load(fh)
    for key in ("T_X", "alpha0", "gamma0", "gamma2"):
        assert key in estimates
        assert estimates[key]["n_imputations"] == 10


def test_impute_is_deterministic(tmp_path):
    data, margin_path, _, _ = _small_survey(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["impute", str(data), "--margin", str(margin_path),
                     "--out", str(out), "--iterations", "300", "--burn-in", "100",
                     "--thin", "20", "--seed", "11"]) == 0
    for name in sorted(os.listdir(out1)):
        if name.startswith("completed_") or name == "mi_estimates.json":
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_impute_constraint_requires_margin(tmp_path, capsys):
    data, _, _, _ = _small_survey(tmp_path)
    assert main(["impute", str(data), "--method", "AN+Constraint",
                 "--out", str(tmp_path / "x")]) == 2
    assert "margin" in capsys.readouterr().err.lower()


def test_impute_rejects_margin_for_mar(tmp_path, capsys):
    data, margin_path, _, _ = _small_survey(tmp_path)
    assert main(["impute", str(data), "--method", "MAR+Weight",
                 "--margin", str(margin_path), "--out", str(tmp_path / "x")]) == 2
    assert "margin" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("text,message", [
    ('{"scope": "overall", "totals": {"all": 1.0}, "variances": {"overall": 4.0}}',
     "KeyError('overall')"),
    ('{"scope": "overall", "totals": {"overall": "abc"}, "variances": {"overall": 4.0}}',
     "ValueError"),
    ('{"scope": "per-stratum", "totals": {"1": "abc"}, "variances": {"1": 4.0}}',
     "ValueError"),
    ('{"scope": "overall", "totals": {"overall": 25',
     "not valid JSON"),
])
def test_impute_malformed_margin_is_usage_error(tmp_path, capsys, text, message):
    data, _, _, _ = _small_survey(tmp_path)
    margin_path = tmp_path / "bad_margin.json"
    margin_path.write_text(text, encoding="utf-8")
    out = tmp_path / "x"
    assert main(["impute", str(data), "--margin", str(margin_path),
                 "--method", "AN+Constraint", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--iterations", "0", "--burn-in", "10", "--thin", "5"], "burn_in < iterations"),
    (["--iterations", "300", "--burn-in", "100", "--thin", "0"], "thin must be >= 1"),
])
def test_impute_rejects_zero_chain_flags(tmp_path, capsys, flags, message):
    data, margin_path, _, _ = _small_survey(tmp_path)
    out = tmp_path / "x"
    assert main(["impute", str(data), "--margin", str(margin_path),
                 "--out", str(out), *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_impute_malformed_weight_reports_rows(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("stratum,weight,y,x,r\n"
                    "1,2.0,1,1,0\n"
                    "1,oops,2,0,0\n"
                    "1,2.0,3,,1\n",
                    encoding="utf-8")
    assert main(["impute", str(path), "--method", "MAR+Weight",
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "row 3" in err


def test_impute_refresh_variance_flag(tmp_path):
    data, margin_path, _, _ = _small_survey(tmp_path)
    out = tmp_path / "out"
    assert main(["impute", str(data), "--margin", str(margin_path),
                 "--out", str(out), "--iterations", "300", "--burn-in", "100",
                 "--thin", "20", "--refresh-variance", "--seed", "5"]) == 0
    with open(out / "run_manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(margin_path, encoding="utf-8") as fh:
        declared = json.load(fh)["variances"]["overall"]
    # the manifest records the refreshed (actually used) variance
    assert manifest["config"]["refresh_variance"] is True
    used = manifest["config"]["margin"]["variances"]["overall"]
    assert used != declared
    assert manifest["config"]["margin"]["totals"]["overall"] == approx(
        json.load(open(margin_path))["totals"]["overall"])


def test_simulate_trace_flag(tmp_path):
    config = tiny_config_file(tmp_path)
    out = tmp_path / "traced"
    assert main(["simulate", str(config), "--out", str(out), "--jobs", "1",
                 "--trace"]) == 0
    traces = sorted(os.listdir(out / "traces"))
    assert traces == ["tiny-cli_run0_AN_Constraint.trace.csv",
                      "tiny-cli_run0_MAR_Weight.trace.csv"]


def test_impute_end_to_end_recovers_nonignorable_effect(tmp_path):
    # data generated at full scenario-1 scale; the margin-constrained chain
    # must recover the x coefficient of the response model
    pop = generate_population(THETA, ALPHA, {1: 35000, 2: 15000}, seed=51)
    sample = draw_stratified_sample(pop, {1: 1500, 2: 3500}, seed=52)
    masked, _ = impose_missingness(sample, GAMMA, seed=53)
    data = tmp_path / "survey.csv"
    write_sample_csv(masked, data)
    margin = margin_from_population(pop, {1: 1500, 2: 3500}, "overall")
    margin_path = _write_margin(tmp_path / "margin.json", margin)
    out = tmp_path / "out"
    assert main(["impute", str(data), "--margin", str(margin_path),
                 "--method", "AN+Constraint", "--out", str(out),
                 "--seed", "54"]) == 0
    with open(out / "mi_estimates.json", encoding="utf-8") as fh:
        estimates = json.load(fh)
    gamma2 = estimates["gamma2"]
    pooled_se = math.sqrt(gamma2["variance"])
    assert abs(gamma2["point"] - (-1.1)) <= 3 * pooled_se
    assert abs(estimates["T_X"]["point"] - population_total(pop)) <= \
        3 * math.sqrt(estimates["T_X"]["variance"])
