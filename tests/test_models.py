import numpy as np
import pytest
from hypothesis import given, strategies as st
from pytest import approx

from marginmi.errors import SingularDesignError
from marginmi.models import (full_rank_gram, norm_cdf, outcome_design,
                             response_design)

# frozen 20-digit oracle values (mpmath, dps=40)
PHI_05 = 0.69146246127401310364
PHI_M105 = 0.14685905637589594545

Y = np.array([1, 2, 3, 1, 2, 3])
STRATUM = np.array([1, 1, 1, 2, 2, 2])
X = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])


def test_outcome_model_coding():
    design, terms = outcome_design(Y)
    assert terms == ("intercept", "y2", "y3")
    assert design.tolist() == [[1, 0, 0], [1, 1, 0], [1, 0, 1]] * 2
    design, terms = outcome_design(Y, STRATUM)
    assert terms == ("intercept", "y2", "y3", "stratum2")
    assert design[:, 3].tolist() == [0, 0, 0, 1, 1, 1]


def test_response_model_coding():
    design, terms = response_design(Y)
    assert terms == ("intercept", "y2", "y3")
    assert design.shape == (6, 3)
    design, terms = response_design(Y, X)
    assert terms == ("intercept", "y2", "y3", "x")
    assert design[:, 3].tolist() == X.tolist()


def test_full_rank_gram():
    design, _ = outcome_design(Y, STRATUM)
    assert np.array_equal(full_rank_gram(design), design.T @ design)
    # no unit has y = 3: the y3 column is all zero
    with pytest.raises(SingularDesignError):
        full_rank_gram(outcome_design(np.array([1, 2, 1, 2]))[0])
    # x equal to the y2 indicator: two identical columns
    with pytest.raises(SingularDesignError):
        full_rank_gram(response_design(Y, (Y == 2).astype(float))[0])


def _prob(design, coef, row):
    return norm_cdf(float(design[row] @ np.asarray(coef)))


def test_probit_prob_zero_coefficients():
    outcome, _ = outcome_design(Y, STRATUM)
    assert _prob(outcome, [0.0, 0.0, 0.0, 0.0], 0) == approx(0.5, abs=1e-15)


def test_probit_prob_intercept_only():
    outcome, _ = outcome_design(Y, STRATUM)
    assert _prob(outcome, [0.5, 0.0, 0.0, 0.0], 0) == approx(PHI_05, abs=1e-12)


def test_probit_prob_response_model_value():
    # y = 3, x = 1 -> Phi(-0.25 + 0.3 - 1.1) = Phi(-1.05)
    response, _ = response_design(np.array([3]), np.array([1.0]))
    assert _prob(response, [-0.25, 0.1, 0.3, -1.1], 0) == approx(PHI_M105, abs=1e-12)


def test_probit_prob_stratum_effect():
    outcome, _ = outcome_design(Y, STRATUM)
    coef = [0.2, -0.5, -1.0, 0.7]
    # y = 2 in stratum 2, then in stratum 1
    assert _prob(outcome, coef, 4) == approx(norm_cdf(0.2 - 0.5 + 0.7), abs=1e-15)
    assert _prob(outcome, coef, 1) == approx(norm_cdf(0.2 - 0.5), abs=1e-15)


def test_norm_cdf_high_precision_grid():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    grid = np.concatenate([np.linspace(-37.0, -8.0, 30),
                           np.linspace(-8.0, 8.0, 161),
                           np.linspace(8.0, 37.0, 30)])
    for v in grid:
        exact = float(mpmath.ncdf(mpmath.mpf(repr(float(v)))))
        assert norm_cdf(float(v)) == approx(exact, abs=1e-12)
    # vectorized evaluation agrees with the scalar path
    vec = norm_cdf(grid)
    scal = np.array([norm_cdf(float(v)) for v in grid])
    assert np.abs(vec - scal).max() < 1e-14


def test_probit_prob_monotone_in_each_coefficient():
    design, _ = response_design(Y, np.ones(6))
    base = np.array([-0.3, 0.2, -0.4, 0.5])
    lo = norm_cdf(design @ base)
    for delta in np.linspace(0.1, 2.0, 8):
        for j in range(4):
            hi = norm_cdf(design @ (base + delta * (np.arange(4) == j)))
            moved = design[:, j] != 0
            assert (hi[moved] > lo[moved]).all()
            assert (hi[~moved] == lo[~moved]).all()


@given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4),
       st.sampled_from([1, 2, 3]), st.sampled_from([0.0, 1.0]))
def test_probit_prob_negation_symmetry(b0, b2, b3, bx, y, x):
    design, _ = response_design(np.array([y]), np.array([x]))
    lp = float(design[0] @ np.array([b0, b2, b3, bx]))
    assert norm_cdf(lp) == approx(1.0 - norm_cdf(-lp), abs=1e-12)
