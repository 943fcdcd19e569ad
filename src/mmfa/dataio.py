"""On-disk dataset format: a JSON manifest referencing CSV matrices.

All numeric CSV output is written with 17 significant digits (FLOAT_FORMAT)
so values survive a write/read round trip exactly. Matrices are written a
block of about CSV_BLOCK_VALUES values at a time, each block formatted by
one ``%`` call, which bounds the text held in memory for wide matrices.
Paths inside a manifest are resolved relative to the manifest file.
"""

import json
import os

import numpy as np

from .dataset import HeteroDataset
from .errors import DimensionMismatch, SchemaError
from .multinomial import MultinomialData

MANIFEST_SCHEMA_VERSION = 1
FLOAT_FORMAT = "%.17g"
CSV_BLOCK_VALUES = 1 << 16


def format_float(x):
    return FLOAT_FORMAT % float(x)


def write_matrix_csv(path, matrix, columns):
    """Write a 2-D matrix (1-D input is one row) as a CSV under a header.

    Every value is converted to float and written as FLOAT_FORMAT, the
    same text :func:`format_float` gives, so boolean and integer input
    need no float copy of the whole matrix. Rows go out in blocks of about
    CSV_BLOCK_VALUES values, each formatted by one ``%`` call on a
    repeated row template.
    """
    matrix = np.atleast_2d(np.asarray(matrix))
    if matrix.shape[1] != len(columns):
        raise DimensionMismatch(
            f"{len(columns)} column names for matrix with {matrix.shape[1]} columns"
        )
    row = ",".join([FLOAT_FORMAT] * len(columns)) + "\n"
    step = max(1, CSV_BLOCK_VALUES // max(len(columns), 1))
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(matrix), step):
            block = np.asarray(matrix[start:start + step], dtype=float)
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_matrix_csv(path, expected_cols=None):
    try:
        matrix = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path} is not a numeric CSV: {exc}") from exc
    if expected_cols is not None and matrix.shape[1] != expected_cols:
        raise DimensionMismatch(
            f"{path} has {matrix.shape[1]} columns, manifest declares {expected_cols}"
        )
    return matrix


def load_manifest(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"manifest {path} must be a JSON object")
    version = doc.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise SchemaError(
            f"manifest schema version {version!r} is not supported "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    if "gaussian" not in doc and not doc.get("categoricals"):
        raise SchemaError(f"manifest {path} declares no modalities")
    return doc


def load_dataset(manifest_path):
    """Read a dataset from its manifest; returns a :class:`HeteroDataset`."""
    doc = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(rel):
        return os.path.join(base, rel)

    p_declared = doc.get("instances")
    gaussian = None
    mask = None
    if "gaussian" in doc:
        g = doc["gaussian"]
        gaussian = read_matrix_csv(resolve(g["csv"]), g.get("d1"))
        if g.get("mask_csv"):
            mask = read_matrix_csv(resolve(g["mask_csv"]), g.get("d1")) > 0.5
    categoricals = []
    for entry in doc.get("categoricals", []):
        d2 = entry["d2"]
        z_full = read_matrix_csv(resolve(entry["csv"]), d2)
        block = MultinomialData.from_full_counts(z_full)
        trials = entry.get("trials")
        if trials is not None and not np.all(block.trials == trials):
            raise DimensionMismatch(
                f"{entry['csv']}: row sums disagree with declared trials={trials}"
            )
        categoricals.append(block)

    dataset = HeteroDataset(gaussian=gaussian, mask=mask, categoricals=categoricals)
    if p_declared is not None and dataset.n_instances != p_declared:
        raise DimensionMismatch(
            f"manifest declares {p_declared} instances, files contain "
            f"{dataset.n_instances}"
        )
    return dataset


def save_dataset(directory, dataset, ground_truth=None, labels=None):
    """Write a dataset (and optional ground truth) as manifest + CSVs.

    ground_truth, when given, is a :class:`mmfa.synth.SyntheticData`;
    its latent matrices land next to the data so experiments can check
    recovery. Returns the manifest path.
    """
    os.makedirs(directory, exist_ok=True)

    def full(name):
        return os.path.join(directory, name)

    doc = {"schema_version": MANIFEST_SCHEMA_VERSION, "instances": dataset.n_instances}
    if dataset.gaussian is not None:
        d1 = dataset.n_gaussian
        cols = [f"f{j}" for j in range(d1)]
        write_matrix_csv(full("gaussian.csv"), dataset.gaussian, cols)
        doc["gaussian"] = {"csv": "gaussian.csv", "d1": d1}
        if dataset.mask is not None:
            write_matrix_csv(full("gaussian_mask.csv"), dataset.mask, cols)
            doc["gaussian"]["mask_csv"] = "gaussian_mask.csv"
    doc["categoricals"] = []
    for m, block in enumerate(dataset.categoricals):
        name = f"cat_{m}.csv"
        cols = [f"c{j}" for j in range(block.n_categories)]
        write_matrix_csv(full(name), block.full_counts(), cols)
        entry = {"csv": name, "d2": block.n_categories}
        trials = np.unique(block.trials)
        if trials.size == 1:
            entry["trials"] = float(trials[0])
        doc["categoricals"].append(entry)

    if ground_truth is not None:
        k = ground_truth.scores.shape[0]
        write_matrix_csv(
            full("scores_true.csv"),
            ground_truth.scores.T,
            [f"k{i}" for i in range(k)],
        )
        if ground_truth.gaussian_loadings is not None:
            write_matrix_csv(
                full("gaussian_loadings.csv"),
                ground_truth.gaussian_loadings,
                [f"k{i}" for i in range(k)],
            )
        for m, vm in enumerate(ground_truth.categorical_loadings):
            write_matrix_csv(
                full(f"cat_{m}_loadings.csv"),
                vm,
                [f"c{j}" for j in range(vm.shape[1])],
            )
    if labels is not None:
        write_matrix_csv(
            full("labels.csv"), np.asarray(labels, dtype=float)[:, None], ["outlier"]
        )

    manifest_path = full("manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return manifest_path
