"""Distributional and probability treatment effect estimation for randomized
experiments: regression adjustment with cross-fitting, a monotone multi-task
network learner, multiplier-bootstrap confidence bands, and a synthetic
Monte Carlo benchmark.
"""

from .core import (
    ArmStats,
    CdfEstimate,
    ConditionalCdfMatrix,
    EffectBand,
    ExperimentData,
    LocationGrid,
    indicator_labels,
    validate_experiment,
)
from .errors import DomainError
from .estimation import (
    AdjustedEstimate,
    CrossFitPlan,
    adjusted_cdf,
    crossfit_gamma,
    dte,
    empirical_cdf,
    fit_adjusted,
    make_folds,
    pte,
    quantile_grid,
)
from .inference import (
    BootstrapDraws,
    InfluenceMatrix,
    bootstrap_band,
    bootstrap_bands,
    bootstrap_draws,
    influence,
    multipliers,
    se_reduction,
)
from .learners import (
    LEARNER_KINDS,
    FittedLearner,
    LearnerKind,
    fit,
    fit_many,
    predict,
)
from .nn import LayerSpec, NetworkState, TrainConfig, train, train_many
from .simulation import (
    DgpConfig,
    SimulationReport,
    classification_metrics,
    generate,
    oracle_dte,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "ArmStats",
    "AdjustedEstimate",
    "BootstrapDraws",
    "CdfEstimate",
    "ConditionalCdfMatrix",
    "CrossFitPlan",
    "DgpConfig",
    "DomainError",
    "EffectBand",
    "ExperimentData",
    "FittedLearner",
    "InfluenceMatrix",
    "LEARNER_KINDS",
    "LayerSpec",
    "LearnerKind",
    "LocationGrid",
    "NetworkState",
    "SimulationReport",
    "TrainConfig",
    "adjusted_cdf",
    "bootstrap_band",
    "bootstrap_bands",
    "bootstrap_draws",
    "classification_metrics",
    "crossfit_gamma",
    "dte",
    "empirical_cdf",
    "fit",
    "fit_adjusted",
    "fit_many",
    "generate",
    "indicator_labels",
    "influence",
    "make_folds",
    "multipliers",
    "oracle_dte",
    "predict",
    "pte",
    "quantile_grid",
    "run_study",
    "se_reduction",
    "train",
    "train_many",
    "validate_experiment",
]
