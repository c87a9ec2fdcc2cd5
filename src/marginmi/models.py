"""Model coding shared by the sampler and the completed-data estimators.

The probit CDF, and the design matrices of the two probit models: the
outcome model (x on y indicators, plus stratum indicators for methods that
control for the design) and the response model (r on y indicators, plus x
for the AN methods). Category 1 of y and the lowest stratum label are the
reference levels. Scalar CDF values go through the C library's erfc,
arrays through scipy's ndtr.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from .errors import SingularDesignError

_SQRT2 = math.sqrt(2.0)
_RANK_RTOL = 1e-10
_Y_TERMS = ("intercept", "y2", "y3")


def norm_cdf(x):
    """Standard normal CDF. Scalars go through libm erfc; arrays through ndtr."""
    if np.isscalar(x):
        return 0.5 * math.erfc(-float(x) / _SQRT2)
    return ndtr(np.asarray(x, dtype=float))


def _y_columns(y: np.ndarray):
    return [np.ones(len(y)), (y == 2).astype(float), (y == 3).astype(float)]


def outcome_design(y: np.ndarray, stratum: Optional[np.ndarray] = None,
                   labels: Optional[Sequence[int]] = None
                   ) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Outcome-model design and term names: intercept and y indicators, plus,
    when ``stratum`` is given, an indicator ``stratum<label>`` for every
    label but the lowest of ``labels``, the sample's whole label set (which
    the rows need not all show; by default the labels present in ``stratum``).
    """
    cols = _y_columns(y)
    terms = _Y_TERMS
    if stratum is not None:
        for s in sorted(int(v) for v in (np.unique(stratum) if labels is None else labels))[1:]:
            cols.append((stratum == s).astype(float))
            terms += (f"stratum{s}",)
    return np.column_stack(cols), terms


def response_design(y: np.ndarray, x: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Response-model design and term names: intercept and y indicators,
    plus the x column when ``x`` is given."""
    cols = _y_columns(y)
    terms = _Y_TERMS
    if x is not None:
        cols.append(np.asarray(x, dtype=float))
        terms += ("x",)
    return np.column_stack(cols), terms


def full_rank_gram(design: np.ndarray, counts: Optional[np.ndarray] = None
                   ) -> np.ndarray:
    """X'X of a design, after checking that the design has full column rank.

    With ``counts``, row c of ``design`` stands for ``counts[c]`` identical
    units and the result is the unit-level Gram sum_c counts[c] x_c x_c'.
    Its entries are integer sums, so it equals the unit design's X'X exactly.
    """
    gram = design.T @ (design if counts is None else design * counts[:, None])
    eig = np.linalg.eigvalsh(gram)
    if eig[0] <= _RANK_RTOL * max(eig[-1], 1.0):
        raise SingularDesignError("design matrix is rank deficient")
    return gram
