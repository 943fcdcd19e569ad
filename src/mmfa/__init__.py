"""Multimodal factor analysis for mixed real-valued and categorical data.

Fits a shared low-dimensional score vector per instance by linking each
modality's natural parameters to the scores, with exact conjugate updates
for the Gaussian block and a quadratic-bound variational posterior for
categorical blocks. Includes post-fit inference tasks, a Fisher/CRLB
oracle, a synthetic data generator, and a command-line interface.
"""

from .dataset import HeteroDataset
from .engine import fit, select_k
from .errors import (
    DimensionMismatch,
    MmfaError,
    NumericalError,
    SchemaError,
    UndefinedMetricError,
    UndefinedScoreError,
)
from .fisher import FisherResult, MseExperimentConfig, crlb, mse_experiment
from .gaussian import GaussianState
from .inference import (
    AnomalyVerdict,
    InstanceScore,
    anomaly_detect,
    category_probabilities,
    impute,
    instance_log_likelihoods,
    predict_gaussian,
    recall_at_k,
    score_dataset,
    score_instance,
)
from .model import FittedModel, ModelSpec, load_model, save_model
from .multinomial import MultinomialData, MultinomialState
from .synth import GeneratorConfig, SyntheticData, sample_dataset

__version__ = "0.1.0"

__all__ = [
    "AnomalyVerdict",
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
    "anomaly_detect",
    "category_probabilities",
    "crlb",
    "fit",
    "impute",
    "instance_log_likelihoods",
    "load_model",
    "mse_experiment",
    "predict_gaussian",
    "recall_at_k",
    "sample_dataset",
    "save_model",
    "score_dataset",
    "score_instance",
    "select_k",
]
