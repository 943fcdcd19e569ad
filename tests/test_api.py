"""Public API surface: exactly the names the README and the CLI use and
the types of their arguments and results, every one resolving, and the
README's library example imports."""

import importlib
import re
from pathlib import Path

import pytest

import mmfa

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    # types of the calls' arguments and results
    "AnomalyVerdict", "FisherResult", "FittedModel", "GaussianState",
    "GeneratorConfig", "HeteroDataset", "InstanceScore", "ModelSpec",
    "MseExperimentConfig", "MultinomialData", "MultinomialState", "SyntheticData",
    # errors
    "DimensionMismatch", "MmfaError", "NumericalError", "SchemaError",
    "UndefinedMetricError", "UndefinedScoreError",
    # calls
    "anomaly_detect", "category_probabilities", "crlb", "fit", "impute",
    "instance_log_likelihoods", "load_model", "mse_experiment", "predict_gaussian",
    "recall_at_k", "sample_dataset", "save_model", "score_dataset", "score_instance",
    "select_k",
}


def test_all_is_the_public_surface():
    assert set(mmfa.__all__) == PUBLIC


def test_expfam_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("mmfa.expfam")


def test_all_names_resolve():
    missing = [name for name in mmfa.__all__ if not hasattr(mmfa, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(mmfa.__all__) == len(set(mmfa.__all__))


def test_readme_library_import_runs():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    statement = re.search(r"^from mmfa import \(.*?\)$", block, re.S | re.M)
    assert statement is not None
    exec(statement.group(0), {})
