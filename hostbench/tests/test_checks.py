"""Each output check accepts the program's real output and rejects a corrupted one.

Run with ``python3 -m pytest -q hostbench/tests``.
"""

import csv
import json
import os
import shutil

import numpy as np
import pytest

import checks
import tracing
from marginmi.cli import main
from run import call_cli, parse_importtime

SIM_ARGS = ["simulate", "scenario1", "--runs", "1", "--jobs", "1", "--iterations", "150",
            "--burn-in", "50", "--thin", "10", "--seed", "1"]


@pytest.fixture(scope="module")
def impute_out(tmp_path_factory):
    """A small two-stratum survey imputed under per-stratum margins."""
    root = tmp_path_factory.mktemp("impute")
    rng = np.random.default_rng(7)
    sizes, draws = {1: 3000, 2: 1500}, {1: 200, 2: 150}
    data = root / "survey.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stratum", "weight", "y", "x", "r"])
        for s in (1, 2):
            for _ in range(draws[s]):
                y = int(rng.integers(1, 4))
                x = int(rng.random() < 0.3 + 0.1 * y)
                r = int(rng.random() < 0.3)
                w.writerow([s, repr(sizes[s] / draws[s]), y, "" if r else x, r])
    margin = root / "margin.json"
    margin.write_text(json.dumps({"scope": "per-stratum",
                                  "totals": {"1": 1500.0, "2": 800.0},
                                  "variances": {"1": 9000.0, "2": 2500.0}}))
    out = root / "out"
    rc, text = call_cli(main, ["impute", str(data), "--margin", str(margin),
                               "--method", "AN+Constraint+Weight", "--iterations", "60",
                               "--burn-in", "20", "--thin", "10", "--seed", "3",
                               "--out", str(out)])
    assert rc == 0, text
    return str(data), str(out)


@pytest.fixture(scope="module")
def simulate_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("simulate") / "s1"
    rc, text = call_cli(main, SIM_ARGS + ["--out", str(out)])
    assert rc == 0, text
    return str(out)


def _completed(out):
    return sorted(os.path.join(out, f) for f in os.listdir(out) if f.startswith("completed_"))


def test_impute_checks_accept_real_output(impute_out):
    data, out = impute_out
    checks.check_impute_outputs(data, out, [1, 2])


def test_flipped_observed_x_is_rejected(impute_out, tmp_path):
    data, out = impute_out
    bad = str(tmp_path / "out")
    shutil.copytree(out, bad)
    path = _completed(bad)[0]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    i = next(i for i, row in enumerate(rows) if i > 0 and row[4] == "0")
    rows[i][3] = "1" if rows[i][3] == "0" else "0"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(checks.CheckError, match="observed x changed"):
        checks.check_impute_outputs(data, bad, [1, 2])


def test_rubin_without_one_completed_file_is_rejected(impute_out):
    _, out = impute_out
    completed = [checks.read_survey_csv(p) for p in _completed(out)]
    with open(os.path.join(out, "mi_estimates.json")) as fh:
        mi = json.load(fh)
    checks.check_rubin_total(completed, mi)
    with pytest.raises(checks.CheckError, match="recomputed"):
        checks.check_rubin_total(completed[:-1], mi)


def test_acceptance_outside_unit_interval_or_wrong_blocks_is_rejected():
    checks.check_acceptance({"acceptance_by_block": {"1": 0.5, "2": 1.0}}, [1, 2])
    with pytest.raises(checks.CheckError):
        checks.check_acceptance({"acceptance_by_block": {"1": 0.0, "2": 0.4}}, [1, 2])
    with pytest.raises(checks.CheckError):
        checks.check_acceptance({"acceptance_by_block": {"overall": 0.4}}, [1, 2])


def test_simulate_checks_accept_real_output(simulate_out):
    checks.check_simulate_outputs(simulate_out, "scenario1", checks.SCENARIO1, 1)


def test_constrained_total_moved_ten_sqrt_vx_is_rejected(simulate_out):
    totals = checks.read_totals(os.path.join(simulate_out, "scenario1_totals.csv"))
    moved = dict(totals)
    moved["AN+Constraint"] = totals["Population"] + 10.0 * checks.SCENARIO1.margin_sd()
    with pytest.raises(checks.CheckError, match="AN\\+Constraint total"):
        checks.check_property_i(moved, checks.SCENARIO1)


def test_population_total_far_from_closed_form_is_rejected(simulate_out):
    totals = checks.read_totals(os.path.join(simulate_out, "scenario1_totals.csv"))
    moved = dict(totals, Population=checks.SCENARIO1.expected_total()
                 + 6.0 * checks.SCENARIO1.total_sd())
    with pytest.raises(checks.CheckError, match="closed form"):
        checks.check_population_total(moved, checks.SCENARIO1, 1)


def test_pool_report_differing_in_one_digit_is_rejected(simulate_out, tmp_path):
    names = checks.report_files("scenario1")
    pool = str(tmp_path / "pool")
    shutil.copytree(simulate_out, pool)
    checks.check_same_files(pool, simulate_out, names)
    path = os.path.join(pool, "scenario1_totals.csv")
    with open(path) as fh:
        text = fh.read()
    i = next(i for i, c in enumerate(text) if c.isdigit() and c != "9")
    with open(path, "w") as fh:
        fh.write(text[:i] + str(int(text[i]) + 1) + text[i + 1:])
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_same_files(pool, simulate_out, names)


def test_digest_ignores_only_the_run_manifest(simulate_out, tmp_path):
    copy = str(tmp_path / "copy")
    shutil.copytree(simulate_out, copy)
    before = checks.digest_outputs(copy)
    with open(os.path.join(copy, "run_manifest.json"), "a") as fh:
        fh.write(" ")
    assert checks.digest_outputs(copy) == before
    with open(os.path.join(copy, "scenario1_parameters.csv"), "a") as fh:
        fh.write(" ")
    assert checks.digest_outputs(copy) != before


def test_self_time_subtracts_the_union_of_children():
    def span(sid, parent, pid, start, end, cpu):
        return [sid, parent, 0, pid, "x", "harness", start, end, cpu, None]
    spans = [span("a", None, 1, 0.0, 10.0, 9.0),
             span("b", "a", 1, 1.0, 4.0, 3.0),
             span("c", "a", 2, 3.0, 6.0, 3.0),     # another process: wall, no CPU
             span("d", "a", 1, 12.0, 13.0, 1.0)]   # outside the parent is clipped
    own = tracing.self_times(spans)
    assert own["a"] == pytest.approx((10.0 - 5.0, 9.0 - 3.0 - 1.0))


def test_importtime_parsing_counts_topmost_dependencies():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:       300 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       150 |        200 |   scipy",
        "import time:        40 |        740 | marginmi",
    ])
    times = parse_importtime(stderr)
    assert times["import_s"] == pytest.approx(840e-6)
    assert times["deps_import_s"] == pytest.approx(700e-6)
