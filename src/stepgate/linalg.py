"""Least-squares fitting on top of a rank-aware orthogonal solver.

numpy.linalg.lstsq (SVD) does the heavy lifting: singular values below
1e-12 of the largest are treated as zero and the minimum-norm solution is
returned, so rank-deficient designs (duplicate columns, constant columns
next to an intercept) are handled deterministically instead of blowing up.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeightsError, DimensionError, InvalidInputError

__all__ = ["LsFit", "fit_least_squares", "fit_weighted_least_squares"]

RCOND = 1e-12  # relative singular-value cutoff for the rank decision


@dataclass(frozen=True)
class LsFit:
    """Result of a least-squares solve.

    ss is always the plain (unweighted) sum of squared residuals, one per
    observation, so it is comparable across weighted and unweighted fits.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    ss: float
    rank: int


def _validated(design, response):
    X = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"design must be 2-D, got ndim={X.ndim}")
    if y.ndim != 1:
        raise DimensionError(f"response must be 1-D, got ndim={y.ndim}")
    if X.shape[0] != y.shape[0]:
        raise DimensionError(
            f"design has {X.shape[0]} rows but response has {y.shape[0]}"
        )
    if X.shape[0] < 1:
        raise InvalidInputError("need at least one observation")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("design contains non-finite values")
    if not np.all(np.isfinite(y)):
        raise InvalidInputError("response contains non-finite values")
    return X, y


def fit_least_squares(design, response):
    """Minimum-norm least squares of response on the columns of design.

    A zero-column design is legal and gives the empty fit (residuals = y),
    which is what a no-intercept model starts from.
    """
    X, y = _validated(design, response)
    if X.shape[1] == 0:
        return LsFit(np.zeros(0), y.copy(), float(y @ y), 0)
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=RCOND)
    resid = y - X @ coef
    return LsFit(coef, resid, float(resid @ resid), int(rank))


def fit_weighted_least_squares(design, response, weights):
    """Least squares minimizing sum w_i * r_i^2.

    Implemented by scaling rows with sqrt(w); the returned residuals and ss
    are unweighted (see LsFit). Zero weights are allowed (those rows drop
    out); all-zero weights leave nothing to fit.
    """
    X, y = _validated(design, response)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.shape[0] != y.shape[0]:
        raise DimensionError("weights must be 1-D and match the response length")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("weights contain non-finite values")
    if np.any(w < 0):
        raise InvalidInputError("weights must be nonnegative")
    if not np.any(w > 0):
        raise DegenerateWeightsError("all weights are zero")
    if X.shape[1] == 0:
        return LsFit(np.zeros(0), y.copy(), float(y @ y), 0)
    sw = np.sqrt(w)
    coef, _, rank, _ = np.linalg.lstsq(X * sw[:, None], y * sw, rcond=RCOND)
    resid = y - X @ coef
    return LsFit(coef, resid, float(resid @ resid), int(rank))
