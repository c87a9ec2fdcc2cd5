"""Simulation-based calibration of the whole sampler (Talts et al. 2018).

Each replication draws the parameters from their priors (theta ~ Dir(1, 1, 1),
alpha, gamma ~ N(0, I)) and a 20-unit stratified sample from the model, hides
x where r = 1, and runs ``run_chain``. If the chain targets the posterior,
the rank of each true value among the retained draws is uniform over
replications. Under a constraint method the target carries the margin factor
exp(-(T - T_X)^2 / 2 V_X), so the replication is drawn from that tilted joint
by rejection: a draw from the untilted model is kept with that probability.

Replications whose design is rank deficient are skipped; that event depends
only on the observed data, so the ranks of the rest stay uniform.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from marginmi.errors import SingularDesignError
from marginmi.mcmc import ChainSettings, Method, run_chain
from marginmi.survey import AuxiliaryMargin
from conftest import make_sample

STRATUM = np.repeat([1, 2], [8, 12])
WEIGHT = np.where(STRATUM == 1, 4.0, 6.0)
T_X, V_X = 50.0, 100.0
REPLICATIONS = 300
DRAWS, THIN, BURN_IN = 9, 40, 100
BINS = 5                        # rank bins of (DRAWS + 1) / BINS ranks each
P_FLOOR = 1e-3


def _y_columns(y):
    return [np.ones(len(y)), (y == 2).astype(float), (y == 3).astype(float)]


def _replication(method, rng):
    """(sample, true alpha, true gamma, true completed total) from the model."""
    while True:
        theta = rng.dirichlet(np.ones(3))
        y = rng.choice(3, size=len(STRATUM), p=theta) + 1
        out_cols = _y_columns(y)
        if method.outcome_has_stratum:
            out_cols.append((STRATUM == 2).astype(float))
        alpha = rng.standard_normal(len(out_cols))
        x = (rng.random(len(y)) < ndtr(np.column_stack(out_cols) @ alpha)).astype(float)
        resp_cols = _y_columns(y)
        if method.response_has_x:
            resp_cols.append(x)
        gamma = rng.standard_normal(len(resp_cols))
        r = (rng.random(len(y)) < ndtr(np.column_stack(resp_cols) @ gamma)).astype(int)
        total = float(WEIGHT @ x)
        tilt = math.exp(-0.5 * (total - T_X) ** 2 / V_X) if method.uses_constraint else 1.0
        if rng.random() < tilt:
            break
    sample = make_sample(STRATUM, WEIGHT, y, np.where(r == 1, np.nan, x), r=r)
    return sample, alpha, gamma, total


def _rank(draws, truth, rng):
    """Rank of the truth among the draws, ties broken at random."""
    below = int((draws < truth).sum())
    ties = int((draws == truth).sum())
    return below + int(rng.integers(ties + 1))


@pytest.mark.parametrize("method", [Method.MAR_WEIGHT, Method.AN_WEIGHT,
                                    Method.AN_CONSTRAINT])
def test_chain_ranks_are_uniform(method):
    rng = np.random.default_rng(2018 + list(Method).index(method))
    margin = AuxiliaryMargin.overall(T_X, V_X) if method.uses_constraint else None
    settings = dict(iterations=BURN_IN + DRAWS * THIN, burn_in=BURN_IN, thin=THIN,
                    method=method)
    ranks = {"alpha0": [], "gamma_last": [], "total": []}
    skipped = 0
    for rep in range(REPLICATIONS):
        sample, alpha, gamma, total = _replication(method, rng)
        try:
            result = run_chain(sample, margin, ChainSettings(seed=rep, **settings))
        except SingularDesignError:
            skipped += 1
            continue
        d = result.draws
        ranks["alpha0"].append(_rank(d.outcome[:, 0], alpha[0], rng))
        # gamma2 for the AN methods, gamma13 for MAR+Weight
        ranks["gamma_last"].append(_rank(d.response[:, -1], gamma[-1], rng))
        ranks["total"].append(_rank(d.totals.sum(axis=1), total, rng))
    assert skipped < REPLICATIONS // 2
    for name, got in ranks.items():
        counts = np.bincount(np.asarray(got) * BINS // (DRAWS + 1), minlength=BINS)
        p = stats.chisquare(counts).pvalue
        assert p > P_FLOOR, f"{method.label} {name}: rank bins {counts.tolist()}, p = {p:.2g}"
