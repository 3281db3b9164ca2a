"""stepgate: noise-gated forward stepwise regression.

A covariate enters the model only if its residual reduction beats, at a
chosen level, the best reduction that the remaining number of pure-noise
columns would achieve — giving each step a closed-form P-value against the
maximum-of-chi-square(1) law instead of a model-based F test. Comes in a
least-squares and a robust M-regression flavor.
"""

from .chisq import gate_threshold, max_chisq_tail, pchisq, qchisq
from .dataio import (
    Dataset,
    DatasetManifest,
    load_builtin,
    load_csv,
    load_manifest,
    perturb_response,
    standardize_columns,
    write_csv,
)
from .errors import (
    ConvergenceError,
    DegenerateColumnError,
    DegenerateFitError,
    DegenerateScaleError,
    DegenerateWeightsError,
    DimensionError,
    DomainError,
    InvalidInputError,
    ParseError,
    SchemaError,
    StepgateError,
)
from .linalg import LsFit, fit_least_squares, fit_weighted_least_squares
from .mfit import (
    MAD_FISHER_FACTOR,
    MFitSummary,
    ScaleState,
    l1_single_covariate_init,
    m_fit_fixed_scale,
    mad_scale,
)
from .rho import RhoFunction, rho, rho_d1, rho_d2
from .simlab import SimConfig, SimReport, noise_reduction_distribution, null_calibration
from .stepper import (
    DEGENERATE,
    EXHAUSTED,
    GATE_FAILED,
    MAX_STEPS,
    GateConfig,
    StepEvaluation,
    StepTrace,
    l2_gate_statistic,
    m_gate_statistic,
    run_stepwise,
    step_p_value,
)

__version__ = "0.1.0"
