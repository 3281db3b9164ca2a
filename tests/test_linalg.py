"""Least-squares solver tests.

The frozen numbers below come from solving the normal equations in exact
rational arithmetic (fractions.Fraction), so they are correct to the last
bit of their decimal representations.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from stepgate import (
    DegenerateWeightsError,
    DimensionError,
    InvalidInputError,
    fit_least_squares,
    fit_weighted_least_squares,
)

X5 = np.column_stack([np.ones(5), [2.0, 3.0, 5.0, 7.0, 11.0]])
Y5 = np.array([3.0, 5.0, 9.0, 12.0, 20.0])


def test_exact_rational_solution():
    fit = fit_least_squares(X5, Y5)
    # Fraction oracle: b = (-21/32, 239/128), ss = 19/64
    assert_allclose(fit.coefficients, [-21 / 32, 239 / 128], atol=1e-12)
    assert fit.ss == pytest.approx(19 / 64, abs=1e-12)
    assert fit.rank == 2
    assert_allclose(fit.residuals, Y5 - X5 @ fit.coefficients, atol=1e-14)


def test_zero_column_design_is_the_empty_fit():
    fit = fit_least_squares(np.empty((4, 0)), np.array([1.0, -2.0, 3.0, 4.0]))
    assert fit.coefficients.shape == (0,)
    assert fit.rank == 0
    assert_allclose(fit.residuals, [1.0, -2.0, 3.0, 4.0])
    assert fit.ss == pytest.approx(1 + 4 + 9 + 16)


def test_rank_deficient_duplicate_column():
    X = np.column_stack([X5, X5[:, 1]])  # third column repeats the second
    fit = fit_least_squares(X, Y5)
    ref = fit_least_squares(X5, Y5)
    assert fit.rank == 2
    assert fit.ss == pytest.approx(ref.ss, abs=1e-12)
    # minimum-norm solution splits the shared coefficient equally
    assert fit.coefficients[1] == pytest.approx(fit.coefficients[2], abs=1e-10)
    assert fit.coefficients[1] + fit.coefficients[2] == pytest.approx(239 / 128, abs=1e-10)


def test_constant_weights_change_nothing():
    fit = fit_weighted_least_squares(X5, Y5, np.full(5, 3.7))
    ref = fit_least_squares(X5, Y5)
    assert_allclose(fit.coefficients, ref.coefficients, atol=1e-12)
    assert fit.ss == pytest.approx(ref.ss, abs=1e-12)


def test_zero_weight_rows_drop_out_but_ss_stays_unweighted():
    w = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
    fit = fit_weighted_least_squares(X5, Y5, w)
    sub = fit_least_squares(X5[w > 0], Y5[w > 0])
    assert_allclose(fit.coefficients, sub.coefficients, atol=1e-12)
    # ss is the plain residual sum over ALL rows, dropped ones included
    r = Y5 - X5 @ fit.coefficients
    assert fit.ss == pytest.approx(float(r @ r), abs=1e-12)
    assert fit.ss > sub.ss


def test_weight_validation():
    with pytest.raises(InvalidInputError):
        fit_weighted_least_squares(X5, Y5, np.array([1.0, 1, 1, 1, -0.1]))
    with pytest.raises(DegenerateWeightsError):
        fit_weighted_least_squares(X5, Y5, np.zeros(5))
    with pytest.raises(DimensionError):
        fit_weighted_least_squares(X5, Y5, np.ones(4))
    with pytest.raises(InvalidInputError):
        fit_weighted_least_squares(X5, Y5, np.array([1.0, np.inf, 1, 1, 1]))


def test_shape_validation():
    with pytest.raises(DimensionError):
        fit_least_squares(np.ones(5), Y5)  # design must be 2-D
    with pytest.raises(DimensionError):
        fit_least_squares(X5, Y5.reshape(5, 1))
    with pytest.raises(DimensionError):
        fit_least_squares(X5, Y5[:4])
    with pytest.raises(InvalidInputError):
        fit_least_squares(np.empty((0, 2)), np.empty(0))


def test_nonfinite_rejected():
    bad = X5.copy()
    bad[2, 1] = np.nan
    with pytest.raises(InvalidInputError):
        fit_least_squares(bad, Y5)
    with pytest.raises(InvalidInputError):
        fit_least_squares(X5, np.array([1.0, 2, np.inf, 4, 5]))


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    X=arrays(np.float64, (8, 3), elements=finite),
    y=arrays(np.float64, (8,), elements=finite),
)
def test_residuals_orthogonal_and_nesting_monotone(X, y):
    z = np.arange(8.0)
    both = np.column_stack([X, z])
    # rank truncation near the rcond cutoff makes both properties fuzzy, so
    # only well-conditioned designs are in scope here
    assume(np.abs(X).max() > 1e-3)
    assume(np.linalg.cond(both) < 1e8)
    fit = fit_least_squares(X, y)
    scale = 1.0 + float(np.linalg.norm(X)) * float(np.linalg.norm(y))
    assert np.max(np.abs(X.T @ fit.residuals)) <= 1e-8 * scale
    # adding a column can only reduce the residual sum
    bigger = fit_least_squares(both, y)
    assert bigger.ss <= fit.ss + 1e-9 * (1.0 + fit.ss)
