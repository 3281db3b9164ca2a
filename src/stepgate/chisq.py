"""Chi-square distribution functions and the max-of-k tail law.

The gate compares an observed sum-of-squares reduction against the best
reduction that k0 independent standard-normal noise columns would achieve.
That best reduction is distributed as the maximum of k0 independent chi^2_1
variables, whose tail is 1 - F(x)^k0 with F the chi^2_1 CDF. Everything here
reduces to the regularized incomplete gamma function.
"""

import math

import numpy as np
from scipy import special

from .errors import DomainError, InvalidInputError

__all__ = ["pchisq", "qchisq", "max_chisq_tail", "gate_threshold"]


def _check_count(name, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidInputError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise InvalidInputError(f"{name} must be >= 1, got {value}")


def pchisq(x, df):
    """CDF of the chi-square distribution with df degrees of freedom.

    P(chi^2_df <= x); 0 for x <= 0. NaN input is rejected rather than
    propagated because a silent NaN here would corrupt every downstream
    P-value.
    """
    _check_count("df", df)
    x = float(x)
    if math.isnan(x):
        raise InvalidInputError("pchisq: x is NaN")
    if x <= 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return float(special.gammainc(df / 2.0, x / 2.0))


def qchisq(p, df):
    """Quantile of chi^2_df: the x with pchisq(x, df) = p, for p in [0, 1)."""
    _check_count("df", df)
    p = float(p)
    if math.isnan(p) or p < 0.0 or p >= 1.0:
        raise DomainError(f"qchisq: p must lie in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    return float(2.0 * special.gammaincinv(df / 2.0, p))


def max_chisq_tail(x, k0):
    """P(max of k0 independent chi^2_1 variables > x) = 1 - F(x)^k0.

    Computed as -expm1(k0 * log1p(-Q)) with Q the upper tail of chi^2_1,
    which stays accurate when F(x) is close to 1 and k0 is large; the naive
    power form loses all precision exactly where small P-values live.
    """
    _check_count("k0", k0)
    x = float(x)
    if math.isnan(x):
        raise InvalidInputError("max_chisq_tail: x is NaN")
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    q = float(special.gammaincc(0.5, x / 2.0))  # upper tail of chi^2_1
    if q >= 1.0:
        return 1.0
    return -math.expm1(k0 * math.log1p(-q))


def gate_threshold(alpha, k0):
    """Critical value t with max_chisq_tail(t, k0) = alpha.

    Solves (1 - alpha)^(1/k0) for the per-variable CDF level; the root is
    taken in log space so alpha near 0 or 1 keeps full precision.
    """
    _check_count("k0", k0)
    alpha = float(alpha)
    if math.isnan(alpha) or not 0.0 < alpha < 1.0:
        raise DomainError(f"gate_threshold: alpha must lie in (0, 1), got {alpha}")
    p = math.exp(math.log1p(-alpha) / k0)
    return qchisq(p, 1)
