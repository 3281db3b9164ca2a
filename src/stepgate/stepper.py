"""Forward stepwise selection behind a noise gate.

Each step scores every excluded covariate on top of the current model and
takes the one with the smallest residual objective. That candidate enters
only if its reduction beats, at level alpha, the best reduction k0 pure
noise columns would have achieved: the step statistic is referred to the
tail of the maximum of k0 chi-square(1) variables. The same loop drives
the least-squares and the robust M variants; the M variant additionally
carries a scale sigma seeded by an L1 fit and refreshed by the MAD of the
residuals after every inclusion.

The L2 scan fits no candidate. It keeps every covariate column z_j
residualised against an orthonormal basis of the current design, so that
adding column j to a model with residual r would drop the residual sum of
squares by (r.z_j)^2 / (z_j.z_j): one product r @ Z scores all candidates.
Only the winner is then refitted by least squares, which gives the step's
reported ss_after. The M scan fits every candidate by IRLS.

Step statistics:
  L2: n * (1 - ss_after/ss_before)
  M:  2 * (s2/s1) * (objective_before - objective_after)
where s1 = sum rho'(r_i/sigma)^2 and s2 = sum rho''(r_i/sigma) at the
incumbent fit and one shared sigma. Both reduce to the same quantity for a
quadratic loss; under the null either is asymptotically chi-square(1).
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import dataio
from .chisq import max_chisq_tail
from .errors import (
    DegenerateFitError,
    DegenerateScaleError,
    InvalidInputError,
    StepgateError,
)
from .linalg import RCOND, fit_least_squares
from .mfit import l1_single_covariate_init, m_fit_fixed_scale, mad_scale
from .rho import RhoFunction

__all__ = [
    "GateConfig",
    "StepEvaluation",
    "StepTrace",
    "GATE_FAILED",
    "EXHAUSTED",
    "MAX_STEPS",
    "DEGENERATE",
    "l2_gate_statistic",
    "m_gate_statistic",
    "step_p_value",
    "run_stepwise",
]

GATE_FAILED = "gate_failed"
EXHAUSTED = "exhausted"
MAX_STEPS = "max_steps"
DEGENERATE = "degenerate"

# incumbent objective below this fraction of its starting value counts as a
# perfect fit (an exact fit leaves rounding noise, never literal zero)
DEGENERATE_RATIO = 1e-12

# L2 drops within this fraction of the best drop are ties, and ties go to
# the lowest column index. It sits well above the rounding noise of a
# projection (about 1e-15 relative), so x and c*x, or any two columns that
# give the same model, always tie.
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class GateConfig:
    """Everything a stepwise run depends on besides the data."""

    alpha: float = 0.05
    method: str = "l2"  # "l2" or "m"
    rho: RhoFunction = RhoFunction()  # M only
    intercept: bool = True
    standardize: bool = False
    max_steps: int = None  # None means "up to k"
    exhaustive: bool = False
    sigma_override: float = None  # M only; skips the L1 scale init (debugging)

    def __post_init__(self):
        if not (isinstance(self.alpha, (int, float)) and 0.0 < float(self.alpha) < 1.0):
            raise InvalidInputError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.method not in ("l2", "m"):
            raise InvalidInputError(f"method must be 'l2' or 'm', got {self.method!r}")
        if self.max_steps is not None and (
            isinstance(self.max_steps, bool) or not isinstance(self.max_steps, int) or self.max_steps < 0
        ):
            raise InvalidInputError(f"max_steps must be a nonnegative integer, got {self.max_steps!r}")
        if self.sigma_override is not None and not (
            isinstance(self.sigma_override, (int, float)) and self.sigma_override > 0
        ):
            raise InvalidInputError(f"sigma override must be > 0, got {self.sigma_override!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**{**d, "rho": RhoFunction(**d["rho"])})


@dataclass(frozen=True)
class StepEvaluation:
    """One step of the scan: the winning candidate and its gate outcome.

    ss_before/ss_after are sums of squared residuals for L2 and the rho
    objective for M. k1 counts covariates already in the model, k0 the
    candidates remaining at scan time (including the winner). sigma is the
    shared scale for M steps, None for L2.
    """

    step_index: int
    chosen_covariate: str
    k1: int
    k0: int
    ss_before: float
    ss_after: float
    statistic: float
    p_value: float
    sigma: float
    included: bool

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True)
class StepTrace:
    """Full record of a stepwise run.

    selected is the prefix of evaluations accepted by the gate; in
    exhaustive mode later evaluations keep being recorded but selected
    still ends at the first failure.
    """

    config: GateConfig
    evaluations: tuple
    selected: tuple
    termination_reason: str

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**{
            **d,
            "config": GateConfig.from_dict(d["config"]),
            "evaluations": tuple(StepEvaluation.from_dict(e) for e in d["evaluations"]),
            "selected": tuple(d["selected"]),
        })


def l2_gate_statistic(ss_before, ss_after, n):
    """n * (1 - ss_after/ss_before), the least-squares step statistic.

    This is the form the noise law calibrates: appending one N(0,1) column
    to a model with residual sum ss_before drops it by about
    ss_before/n * chi-square(1), so the normalized drop above is chi-square(1).
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n!r}")
    ss_before = float(ss_before)
    ss_after = float(ss_after)
    if not (np.isfinite(ss_before) and np.isfinite(ss_after)) or ss_after < 0 or ss_before < 0:
        raise InvalidInputError("sums of squares must be finite and nonnegative")
    if ss_before == 0.0:
        raise DegenerateFitError("perfect fit already achieved (ss_before = 0)")
    if ss_after > ss_before:
        raise InvalidInputError(
            f"ss_after ({ss_after}) exceeds ss_before ({ss_before}); nested fits cannot do that"
        )
    return n * (1.0 - ss_after / ss_before)


def m_gate_statistic(fit_before, objective_after):
    """2 * (s2/s1) * (objective_before - objective_after), the M step statistic.

    Minimizing the objective over the coefficient of one fresh N(0,1)
    column drops it by g^2/(2h) with g ~ N(0, s1) and h ~ s2, i.e. by about
    (s1/(2*s2)) * chi-square(1); the statistic rescales the observed drop to
    that reference. For a quadratic loss it equals the L2 statistic exactly.
    """
    obj = float(fit_before.objective)
    objective_after = float(objective_after)
    if fit_before.s2 <= 0.0:
        raise DegenerateFitError("curvature sum s2 is zero; no quadratic reference")
    if obj <= 0.0:
        raise DegenerateFitError("objective already zero (perfect fit)")
    if fit_before.s1 <= 0.0:
        raise DegenerateFitError("score sum s1 is zero (all residuals negligible)")
    if not np.isfinite(objective_after) or objective_after < 0:
        raise InvalidInputError("objective_after must be finite and nonnegative")
    if objective_after > obj:
        raise InvalidInputError(
            f"objective_after ({objective_after}) exceeds the incumbent objective ({obj})"
        )
    return 2.0 * (fit_before.s2 / fit_before.s1) * (obj - objective_after)


def step_p_value(statistic, k0):
    """P(best of k0 noise columns beats this statistic) = 1 - F(x)^k0.

    The gate passes iff this is below alpha, equivalently iff the statistic
    exceeds gate_threshold(alpha, k0) (strict on the statistic side).
    """
    return max_chisq_tail(statistic, k0)


def _design(dataset, names, intercept):
    cols = []
    if intercept:
        cols.append(np.ones(dataset.n))
    cols.extend(dataset.columns[nm] for nm in names)
    if not cols:
        return np.empty((dataset.n, 0))
    return np.column_stack(cols)


class _Projection:
    """The L2 incumbent in the form the candidate scan needs.

    Z holds every covariate column residualised against an orthonormal
    basis of the current design (intercept plus included columns), built
    one Gram-Schmidt step per inclusion; residuals and ss are those of the
    current least-squares fit.
    """

    def __init__(self, covariates, names, intercept, start):
        n, k = covariates.shape
        self.names = names
        self.Z = covariates
        self.norm2 = np.einsum("ij,ij->j", covariates, covariates)
        self.live = np.ones(k, dtype=bool)
        self.design_norm2 = 0.0  # squared Frobenius norm of the current design
        self.residuals, self.ss = start.residuals, start.ss
        if intercept:
            self.design_norm2 = float(n)
            self._project_out(np.full(n, 1.0 / np.sqrt(n)))

    def _project_out(self, q):
        self.Z -= np.outer(q, q @ self.Z)

    def _in_span(self, zz, norm2):
        """Whether residual columns of squared norm zz add no rank to the design.

        lstsq drops singular values below RCOND times the largest one, and
        the Frobenius norm of the design plus the column bounds that from
        above (norm2 is the squared norm of the column itself).
        """
        return zz <= RCOND ** 2 * (self.design_norm2 + norm2)

    def best(self):
        """The live column with the largest drop; ties go to the lowest index."""
        zz = np.einsum("ij,ij->j", self.Z, self.Z)
        rz = self.residuals @ self.Z
        drop = np.zeros_like(zz)
        np.divide(rz * rz, zz, out=drop, where=self.live & ~self._in_span(zz, self.norm2))
        drop[~self.live] = -1.0
        top = drop.max()
        return self.names[np.argmax(drop >= top - TIE_RTOL * top)]

    def include(self, name, fit, ss):
        """Add a column to the design; fit and ss are the new model's."""
        j = self.names.index(name)
        z = self.Z[:, j]
        zz = float(z @ z)
        if not self._in_span(zz, self.norm2[j]):
            self._project_out(z / np.sqrt(zz))
        self.design_norm2 += self.norm2[j]
        self.live[j] = False
        self.residuals, self.ss = fit.residuals, ss


def _scan(dataset, included, config, incumbent, sigma):
    """One candidate scan. Returns (StepEvaluation, winning fit).

    included lists the covariates in the model, in entry order. incumbent
    is the current model: a _Projection for L2; for M, the current fit at
    the shared scale sigma (sigma is None for L2).
    """
    remaining = [c for c in dataset.columns if c not in included]
    k1 = len(included)
    k0 = len(remaining)
    y = dataset.y

    if config.method == "l2":
        best_name = incumbent.best()
        fit = fit_least_squares(_design(dataset, included + [best_name], config.intercept), y)
        ss_before = incumbent.ss
        ss_after = min(fit.ss, ss_before)  # clamp float overshoot on duplicates
        statistic = l2_gate_statistic(ss_before, ss_after, dataset.n)
        p = step_p_value(statistic, k0)
        ev = StepEvaluation(
            step_index=k1 + 1, chosen_covariate=best_name, k1=k1, k0=k0,
            ss_before=ss_before, ss_after=ss_after, statistic=statistic,
            p_value=p, sigma=None, included=bool(p < config.alpha),
        )
        return ev, fit

    # --- M method
    n_base = incumbent.coefficients.shape[0]
    best_name, best_fit, best_obj = None, None, np.inf
    errors = []
    for cand in remaining:
        design = _design(dataset, included + [cand], config.intercept)
        start = np.append(incumbent.coefficients, 0.0) if n_base == design.shape[1] - 1 else None
        try:
            fit = m_fit_fixed_scale(design, y, config.rho, sigma, start=start)
        except StepgateError as e:
            errors.append((cand, e))
            continue
        if fit.objective < best_obj:
            best_name, best_fit, best_obj = cand, fit, fit.objective
    if best_fit is None:
        raise DegenerateFitError(
            f"all {k0} candidate fits failed: " + "; ".join(f"{c}: {e}" for c, e in errors)
        )
    obj_after = min(best_obj, incumbent.objective)
    statistic = m_gate_statistic(incumbent, obj_after)
    p = step_p_value(statistic, k0)
    ev = StepEvaluation(
        step_index=k1 + 1, chosen_covariate=best_name, k1=k1, k0=k0,
        ss_before=incumbent.objective, ss_after=obj_after, statistic=statistic,
        p_value=p, sigma=sigma, included=bool(p < config.alpha),
    )
    return ev, best_fit


def run_stepwise(dataset, config):
    """Run the gated stepwise loop and return the full trace.

    Termination reasons: gate_failed (a candidate missed the gate, not
    exhaustive), exhausted (no candidates left), max_steps, degenerate
    (incumbent objective fell to rounding noise: nothing left to explain).
    Degenerate-scale and degenerate-fit errors from the machinery propagate
    with the partial trace attached as exc.partial_trace.
    """
    # checked once, and before standardizing turns a NaN into "no spread"
    covariates = dataset.matrix()
    if not np.all(np.isfinite(covariates)):
        raise InvalidInputError("covariates contain non-finite values")
    if config.standardize:
        dataset = dataio.standardize_columns(dataset)
        covariates = dataset.matrix()
    y = dataset.y
    k = dataset.k
    max_steps = k if config.max_steps is None else config.max_steps
    evaluations = []
    selected = []
    included = []

    def trace(reason):
        return StepTrace(
            config=config,
            evaluations=tuple(evaluations),
            selected=tuple(selected),
            termination_reason=reason,
        )

    if k == 0:
        return trace(EXHAUSTED)

    try:
        sigma = None
        incumbent = None
        noise_floor = 0.0
        if config.method == "l2":
            start = fit_least_squares(_design(dataset, [], config.intercept), y)
            incumbent = _Projection(covariates, list(dataset.columns), config.intercept, start)
            ss_current = start.ss
            # an exact starting fit leaves cancellation noise instead of a zero
            # ss; anything at the rounding scale of ||y||^2 counts as perfect
            noise_floor = (dataset.n * np.finfo(float).eps) ** 2 * float(y @ y)
        else:
            if config.sigma_override is not None:
                sigma = float(config.sigma_override)
            else:
                _, _, scale = l1_single_covariate_init(dataset, config.intercept)
                sigma = scale.sigma
            incumbent = m_fit_fixed_scale(
                _design(dataset, [], config.intercept), y, config.rho, sigma
            )
            ss_current = incumbent.objective
        ss_start = ss_current

        gate_open = True  # flips at the first failure; selected stops growing then
        while True:
            if len(included) >= k:
                return trace(EXHAUSTED)
            if len(evaluations) >= max_steps:
                return trace(MAX_STEPS)
            if ss_start <= 0.0 or ss_current <= max(noise_floor, DEGENERATE_RATIO * ss_start):
                return trace(DEGENERATE)
            ev, best_fit = _scan(dataset, included, config, incumbent, sigma)
            evaluations.append(ev)
            if ev.included and gate_open:
                selected.append(ev.chosen_covariate)
            if not ev.included:
                gate_open = False
                if not config.exhaustive:
                    return trace(GATE_FAILED)
            # advance the model (in exhaustive mode even past failures, so the
            # remaining covariates keep getting ranked)
            included.append(ev.chosen_covariate)
            if config.method == "l2":
                ss_current = ev.ss_after
                incumbent.include(ev.chosen_covariate, best_fit, ss_current)
            else:
                sigma = mad_scale(best_fit.residuals)  # residuals at the OLD sigma
                incumbent = m_fit_fixed_scale(
                    _design(dataset, included, config.intercept),
                    y, config.rho, sigma, start=best_fit.coefficients,
                )
                ss_current = incumbent.objective
    except (DegenerateScaleError, DegenerateFitError) as e:
        e.partial_trace = trace(DEGENERATE)
        raise
