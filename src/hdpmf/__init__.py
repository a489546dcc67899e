"""Heterogeneous differentially private matrix factorization (HDPMF).

A library and experiment CLI for privacy-weighted matrix factorization
against an untrusted recommender: ratings are stretched by per-user,
per-item privacy weights on simulated user devices, item gradients are
perturbed by once-per-run Laplace noise assembled from per-device shares,
and predictions are rescaled back to the rating scale. Includes the plain
MF / uniform-noise / sample-mechanism baselines and a multi-seed
evaluation harness.
"""

from .baselines import (
    BaselineKind,
    method_inputs,
    min_observed_budget,
    pdp_sample_ratings,
)
from .config import ExperimentConfig, parse_config
from .data import (
    RatingDataset,
    SplitPlan,
    kfold_splits,
    load_csv,
    load_movielens_100k,
    load_movielens_1m,
    split_leave_n_out,
    subsample_per_user,
)
from .diagnostics import NoiseCheckReport, check_noise_composition
from .evaluation import (
    ExperimentResult,
    emit_results,
    grid_search_cv,
    mae,
    mse,
    paired_t_test,
    run_experiment,
)
from .exceptions import (
    ConfigError,
    DivergedRunError,
    EmptySplitError,
    HdpmfError,
    ParseError,
    ProtocolError,
)
from .kernels import backend_name
from .model import (
    FactorModel,
    init_model,
    item_gradient,
    learning_rate,
    objective_value,
    project_unit_ball,
    user_gradient,
)
from .privacy import (
    NoisePlan,
    WeightAssignment,
    allocate_weights,
    build_noise_plan,
    laplace_scale,
)
from .protocol import (
    GradientUpload,
    MessageChannel,
    RecommenderState,
    UserDevice,
    predict_all,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineKind",
    "ConfigError",
    "DivergedRunError",
    "EmptySplitError",
    "ExperimentConfig",
    "ExperimentResult",
    "FactorModel",
    "GradientUpload",
    "HdpmfError",
    "MessageChannel",
    "NoiseCheckReport",
    "NoisePlan",
    "ParseError",
    "ProtocolError",
    "RatingDataset",
    "RecommenderState",
    "SplitPlan",
    "UserDevice",
    "WeightAssignment",
    "allocate_weights",
    "backend_name",
    "build_noise_plan",
    "check_noise_composition",
    "emit_results",
    "grid_search_cv",
    "init_model",
    "item_gradient",
    "kfold_splits",
    "laplace_scale",
    "learning_rate",
    "load_csv",
    "load_movielens_100k",
    "load_movielens_1m",
    "mae",
    "method_inputs",
    "min_observed_budget",
    "mse",
    "objective_value",
    "paired_t_test",
    "parse_config",
    "pdp_sample_ratings",
    "predict_all",
    "project_unit_ball",
    "run_experiment",
    "split_leave_n_out",
    "subsample_per_user",
    "train",
    "user_gradient",
]
