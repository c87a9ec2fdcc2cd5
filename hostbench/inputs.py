"""The impute-n50k inputs: a survey CSV and its per-stratum margin, from a seed.

The benchmark draws them itself, without ``marginmi.survey``, so the program
receives only the files:
1. a population of N = 500 000 units in two strata (350 000 / 150 000),
   y from the stratum's three-category distribution and x | y from the
   probit model Phi(alpha0 + alpha12 [y=2] + alpha13 [y=3]);
2. a stratified simple random sample without replacement of
   15 000 / 35 000 units, base weight N_s / n_s;
3. probit nonresponse on x, Phi(g0 + g12 [y=2] + g13 [y=3] + g2 x), which
   leaves about 15 000 x empty;
4. the margin: the population's stratum totals of x, and the stratified
   SRSWOR design variances N_s^2 (1 - n_s/N_s) S_s^2 / n_s.
The parameters are scenario1's (``checks.SCENARIO1``), ten times the size.
``write_in_child`` draws them in a child process, so the population's
arrays never count toward the benchmark process's peak memory.

    python3 hostbench/inputs.py <seed> <out_dir>
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from typing import Dict, Tuple

import numpy as np
from scipy.special import ndtr

from checks import SCENARIO1

GAMMA = (-0.25, 0.1, 0.3, -1.1)
STRATUM_SIZES = {s: 10 * n for s, n in SCENARIO1.stratum_sizes.items()}
STRATUM_DRAWS = {s: 10 * n for s, n in SCENARIO1.stratum_draws.items()}


def _y_effects(coef, y):
    return coef[0] + coef[1] * (y == 2) + coef[2] * (y == 3)


def write_impute_inputs(seed: int, out_dir) -> None:
    """Write ``survey.csv`` and ``margin.json`` into ``out_dir``."""
    rng = np.random.Generator(np.random.PCG64([seed, 50_000]))
    columns, totals, variances = [], {}, {}
    for s in sorted(STRATUM_SIZES):
        big_n, n_s = STRATUM_SIZES[s], STRATUM_DRAWS[s]
        y = (rng.choice(3, size=big_n, p=SCENARIO1.theta_by_stratum[s]) + 1).astype(np.int8)
        x = rng.random(big_n) < ndtr(_y_effects(SCENARIO1.alpha, y))
        t = int(x.sum())
        s2 = t * (big_n - t) / (big_n * (big_n - 1.0))
        totals[str(s)] = float(t)
        variances[str(s)] = big_n ** 2 * (1.0 - n_s / big_n) * s2 / n_s
        chosen = np.sort(rng.choice(big_n, size=n_s, replace=False))
        ys, xs = y[chosen], x[chosen]
        r = rng.random(n_s) < ndtr(_y_effects(GAMMA, ys) + GAMMA[3] * xs)
        columns.append((s, repr(big_n / n_s), ys, xs, r))

    data_path, margin_path = input_paths(out_dir)
    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stratum", "weight", "y", "x", "r"])
        for s, weight, ys, xs, r in columns:
            writer.writerows([s, weight, int(yi), "" if ri else int(xi), int(ri)]
                             for yi, xi, ri in zip(ys, xs, r))
    with open(margin_path, "w", encoding="utf-8") as fh:
        json.dump({"scope": "per-stratum", "totals": totals, "variances": variances},
                  fh, indent=2, sort_keys=True)


def input_paths(out_dir) -> Tuple[str, str]:
    return os.path.join(out_dir, "survey.csv"), os.path.join(out_dir, "margin.json")


def write_in_child(seed: int, out_dir) -> Tuple[str, str, Dict[int, int]]:
    """Write the inputs from a child process; returns their paths and n_s."""
    subprocess.run([sys.executable, __file__, str(seed), out_dir], check=True, timeout=120)
    return (*input_paths(out_dir), dict(STRATUM_DRAWS))


if __name__ == "__main__":
    write_impute_inputs(int(sys.argv[1]), sys.argv[2])
