"""Multimodal factor analysis for mixed real-valued and categorical data.

Fits a shared low-dimensional score vector per instance by linking each
modality's natural parameters to the scores, with exact conjugate updates
for the Gaussian block and a quadratic-bound variational posterior for
categorical blocks. Includes post-fit inference tasks, a Fisher/CRLB
oracle, a synthetic data generator, and a command-line interface.
"""

from .dataset import HeteroDataset
from .engine import fit, select_k, surrogate_objective
from .errors import (
    DimensionMismatch,
    MmfaError,
    NumericalError,
    SchemaError,
    UndefinedMetricError,
    UndefinedScoreError,
)
from .expfam import CurvatureMatrix, softmax_pivot
from .fisher import (
    FisherResult,
    MseExperimentConfig,
    crlb,
    gaussian_fisher,
    mse_experiment,
    multinomial_fisher_mc,
)
from .gaussian import GaussianState
from .inference import (
    AnomalyVerdict,
    InstanceScore,
    anomaly_detect,
    category_probabilities,
    impute,
    instance_log_likelihoods,
    predict_gaussian,
    predictive_log_likelihood,
    recall_at_k,
    score_dataset,
    score_instance,
)
from .model import FittedModel, ModelSpec, load_model, save_model
from .multinomial import (
    MultinomialData,
    MultinomialState,
    adjusted_counts,
    psi_update,
)
from .synth import GeneratorConfig, SyntheticData, inject_outliers, sample_dataset

__version__ = "0.1.0"

__all__ = [
    "AnomalyVerdict",
    "CurvatureMatrix",
    "DimensionMismatch",
    "FisherResult",
    "FittedModel",
    "GaussianState",
    "GeneratorConfig",
    "HeteroDataset",
    "InstanceScore",
    "MmfaError",
    "ModelSpec",
    "MseExperimentConfig",
    "MultinomialData",
    "MultinomialState",
    "NumericalError",
    "SchemaError",
    "SyntheticData",
    "UndefinedMetricError",
    "UndefinedScoreError",
    "adjusted_counts",
    "anomaly_detect",
    "category_probabilities",
    "crlb",
    "fit",
    "gaussian_fisher",
    "impute",
    "inject_outliers",
    "instance_log_likelihoods",
    "load_model",
    "mse_experiment",
    "multinomial_fisher_mc",
    "predict_gaussian",
    "predictive_log_likelihood",
    "psi_update",
    "recall_at_k",
    "sample_dataset",
    "save_model",
    "score_dataset",
    "score_instance",
    "select_k",
    "softmax_pivot",
    "surrogate_objective",
]
