"""Monte Carlo checks of the gate's null behavior.

Two experiments:

* null_calibration — pure-noise response and covariates, one gate step per
  replication; measures how often anything gets in at level alpha and how
  the first-step statistic tracks the max-of-k0 chi-square(1) law.
* noise_reduction_distribution — a fixed design plus one fresh noise
  column per replication; measures how closely the normalized
  sum-of-squares drop n*(ss_before - ss_after)/ss_before follows
  chi-square(1), which is the approximation the whole gate rests on.

Randomness is counter-based (Philox) with one child stream per
replication keyed by (seed, replication index), so results are identical
no matter how replications are scheduled.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .chisq import max_chisq_tail, pchisq
from .dataio import Dataset
from .errors import InvalidInputError
from .linalg import fit_least_squares
from .stepper import GateConfig, run_stepwise

__all__ = ["SimConfig", "SimReport", "null_calibration", "noise_reduction_distribution"]

HISTOGRAM_BINS = 20  # p-value histogram over [0,1]; bin 0 is [0, 0.05)


@dataclass(frozen=True)
class SimConfig:
    n: int
    k: int
    replications: int
    alpha: float = 0.05
    seed: int = 0
    method: str = "l2"

    def __post_init__(self):
        for name in ("n", "k", "replications", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InvalidInputError(f"{name} must be an integer, got {v!r}")
        if self.replications < 1:
            raise InvalidInputError("replications must be >= 1")
        if self.n <= self.k + 2:
            raise InvalidInputError(f"need n > k + 2, got n={self.n}, k={self.k}")
        if not 0.0 < float(self.alpha) < 1.0:
            raise InvalidInputError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0 <= self.seed < 2**64:
            raise InvalidInputError("seed must fit in an unsigned 64-bit integer")
        if self.method not in ("l2", "m"):
            raise InvalidInputError(f"method must be 'l2' or 'm', got {self.method!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True)
class SimReport:
    inclusion_rate: float
    p_value_histogram: tuple
    ks_distance_chisq: float
    replication_count: int

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**{**d, "p_value_histogram": tuple(d["p_value_histogram"])})


def _rep_rng(seed, rep):
    # one Philox stream per replication; the key makes it schedule-independent
    return np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))


def _ks_distance(values, cdf):
    x = np.sort(np.asarray(values, dtype=float))
    m = x.shape[0]
    f = np.array([cdf(v) for v in x])
    upper = np.max(np.arange(1, m + 1) / m - f)
    lower = np.max(f - np.arange(0, m) / m)
    return float(max(upper, lower))


def _histogram(p_values):
    counts, _ = np.histogram(p_values, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return tuple(int(c) for c in counts)


def _report(p_values, statistics, alpha, cdf):
    p_values = np.asarray(p_values)
    return SimReport(
        inclusion_rate=float(np.mean(p_values < alpha)),
        p_value_histogram=_histogram(p_values),
        ks_distance_chisq=_ks_distance(statistics, cdf),
        replication_count=int(p_values.shape[0]),
    )


def null_calibration(config):
    """All-noise data, one gate step per replication.

    y and the k candidate columns are i.i.d. N(0,1). Records the first
    step's P-value and whether it cleared the gate at config.alpha.
    ks_distance_chisq compares the recorded statistics against the
    max-of-k chi-square(1) CDF F(x)^k, the law the gate assumes.
    """
    gate = GateConfig(alpha=config.alpha, method=config.method, max_steps=1)
    names = [f"x{j + 1}" for j in range(config.k)]
    p_values = np.empty(config.replications)
    statistics = np.empty(config.replications)
    for rep in range(config.replications):
        g = _rep_rng(config.seed, rep)
        y = g.standard_normal(config.n)
        cols = {nm: g.standard_normal(config.n) for nm in names}
        trace = run_stepwise(Dataset(name="null", y=y, columns=cols), gate)
        ev = trace.evaluations[0]
        p_values[rep] = ev.p_value
        statistics[rep] = ev.statistic
    return _report(
        p_values, statistics, config.alpha,
        cdf=lambda x: pchisq(x, 1) ** config.k,
    )


def noise_reduction_distribution(config, k1_design):
    """Distribution of the normalized drop from one appended noise column.

    Per replication: draw y ~ N(0,1)^n and one fresh N(0,1) column z, fit
    y on k1_design and on [k1_design z], record
    n * (ss_before - ss_after)/ss_before. ks_distance_chisq is the KS
    distance of those statistics to chi-square(1); the per-replication
    P-value (k0 = 1 tail) feeds the histogram and inclusion rate. The law
    is the least-squares one, so config.method must be "l2".
    """
    if config.method != "l2":
        raise InvalidInputError(
            f"the noise experiment measures the l2 statistic; got method {config.method!r}"
        )
    X = np.asarray(k1_design, dtype=float)
    if X.ndim != 2 or X.shape[0] != config.n:
        raise InvalidInputError(f"k1_design must be 2-D with {config.n} rows")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("k1_design contains non-finite values")
    if X.shape[1] > 0 and np.linalg.matrix_rank(X) < X.shape[1]:
        raise InvalidInputError("k1_design must have full column rank")
    n = config.n
    p_values = np.empty(config.replications)
    statistics = np.empty(config.replications)
    for rep in range(config.replications):
        g = _rep_rng(config.seed, rep)
        y = g.standard_normal(n)
        z = g.standard_normal(n)
        ss_before = fit_least_squares(X, y).ss
        ss_after = fit_least_squares(np.column_stack([X, z]), y).ss
        stat = n * (1.0 - min(ss_after, ss_before) / ss_before)
        statistics[rep] = stat
        p_values[rep] = max_chisq_tail(stat, 1)
    return _report(
        p_values, statistics, config.alpha,
        cdf=lambda x: pchisq(x, 1),
    )
