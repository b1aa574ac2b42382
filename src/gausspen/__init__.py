"""Smooth-at-origin nonconvex penalty toolkit.

The centerpiece is the bounded penalty 1 - exp(-kappa * beta^2): ridge-like
near the origin, flat far from it, so large coefficients are left nearly
unbiased.  The package bundles the classical penalty families next to it, a
penalized least-squares solver with a 1-D orthonormal-design analyzer, a
Monte Carlo lab for the estimator's asymptotic bias and consistency, a small
from-scratch MLP trainer, and dataset utilities (IDX parsing, blob synthesis,
stratified splits).
"""

from .asymptotics import (
    BiasReport,
    SimSpec,
    run_bias_experiment,
    run_consistency_experiment,
    theoretical_rootn_bias,
)
from .config import ExperimentConfig, loggrid, parse_config
from .data import (
    LabeledDataset,
    flip_labels,
    idx_to_dataset,
    load_idx,
    make_blobs,
    parse_idx,
    serialize_idx,
    split,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    DomainError,
    ExperimentError,
)
from .mlp import (
    CheckpointFormatError,
    MlpArchitecture,
    TrainConfig,
    TrainRun,
    evaluate,
    init_weights,
    load_weights,
    save_weights,
    train,
    triangular_lr,
)
from .penalties import (
    FAMILIES,
    PenaltyBounds,
    PenaltySpec,
    penalty_bounds,
    penalty_value,
)
from .regression import (
    FitResult,
    LinearProblem,
    MinimaProfile,
    fit,
    lambda_phase_scan,
    orthonormal_objective,
    solve_orthonormal,
)

__version__ = "0.1.0"
