"""Policy evaluation and learning across a labeled source domain and a
covariate-only target domain under covariate shift."""

from .data import CombinedDataset, ingest_csv, write_csv
from .estimators import (
    BoundReport,
    RewardCoefficients,
    RewardEstimate,
    bias_diagnostic,
    estimate,
    generalization_bound,
    reward_coefficients,
)
from .features import FeatureMap, sigmoid
from .harness import (
    EvalMetrics,
    ExperimentConfig,
    ExperimentReport,
    evaluate_policy,
    run_replication,
    run_sweep,
    run_table,
    write_sweep_csv,
    write_table_csv,
)
from .nuisance import (
    FitError,
    LogisticModel,
    NuisanceConfig,
    NuisanceSet,
    RidgeModel,
    fit_logistic,
    fit_nuisances,
    fit_ridge,
)
from .policy import LearnerConfig, LinearPolicy, TrainingTrace, learn_policy
from .simulate import (
    SimConfig,
    SimulatedData,
    feature_transform,
    generate,
    population_reward,
    shift_sweep_config,
    true_nuisances,
    write_truth_csv,
)
from .stats import PairedTTest, betainc, paired_t_test, t_sf_two_sided

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CombinedDataset",
    "EvalMetrics",
    "ExperimentConfig",
    "ExperimentReport",
    "FeatureMap",
    "FitError",
    "LearnerConfig",
    "LinearPolicy",
    "LogisticModel",
    "NuisanceConfig",
    "NuisanceSet",
    "PairedTTest",
    "RewardCoefficients",
    "RewardEstimate",
    "RidgeModel",
    "SimConfig",
    "SimulatedData",
    "TrainingTrace",
    "betainc",
    "bias_diagnostic",
    "estimate",
    "evaluate_policy",
    "feature_transform",
    "fit_logistic",
    "fit_nuisances",
    "fit_ridge",
    "generalization_bound",
    "generate",
    "ingest_csv",
    "learn_policy",
    "paired_t_test",
    "population_reward",
    "reward_coefficients",
    "run_replication",
    "run_sweep",
    "run_table",
    "shift_sweep_config",
    "sigmoid",
    "t_sf_two_sided",
    "true_nuisances",
    "write_csv",
    "write_sweep_csv",
    "write_table_csv",
    "write_truth_csv",
]
