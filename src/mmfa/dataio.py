"""On-disk dataset format: a JSON manifest referencing matrix files.

Each matrix a manifest names is read by its file suffix: a ``.npy`` file
(NumPy's own format) holds a 2-D little-endian float64 array, or a bool
array for the mask; any other file is a CSV under one header row.
:func:`save_dataset` writes the data matrices and a simulation's ground
truth as ``.npy`` files, which round-trip bit for bit and are
byte-identical across saves of equal data. Labels stay CSV, and a user
may write any matrix by hand as a CSV.

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


def _check_columns(path, matrix, expected_cols):
    if expected_cols is not None and matrix.shape[1] != expected_cols:
        raise DimensionMismatch(
            f"{path} has {matrix.shape[1]} columns, manifest declares {expected_cols}"
        )
    return matrix


def read_matrix_csv(path, expected_cols=None):
    try:
        matrix = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path} is not a numeric CSV: {exc}") from exc
    return _check_columns(path, matrix, expected_cols)


def _read_matrix(path, expected_cols, dtype):
    """The matrix a manifest entry names: a ``.npy`` file holding a 2-D
    array of exactly ``dtype`` (``<f8``, or ``bool`` for a mask), or, for
    any other suffix, a CSV (for a bool matrix, True where above 0.5)."""
    if not path.endswith(".npy"):
        matrix = read_matrix_csv(path, expected_cols)
        return matrix > 0.5 if dtype == bool else matrix
    try:
        with open(path, "rb") as fh:
            matrix = np.lib.format.read_array(fh, allow_pickle=False)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not .npy, truncated, or objects to unpickle
        raise SchemaError(f"{path} is not a .npy matrix: {exc}") from exc
    if matrix.ndim != 2 or matrix.dtype != np.dtype(dtype):
        raise SchemaError(
            f"{path} must hold a 2-D {np.dtype(dtype)} array, "
            f"not a {matrix.ndim}-D {matrix.dtype} array"
        )
    return _check_columns(path, matrix, expected_cols)


def _write_npy(path, matrix, dtype):
    """Write a matrix as a C-ordered .npy file of the given dtype, so equal
    data gives equal bytes whatever the input's layout."""
    with open(path, "wb") as fh:
        np.save(fh, np.ascontiguousarray(matrix, dtype=dtype), allow_pickle=False)


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
        gaussian = _read_matrix(resolve(g["csv"]), g.get("d1"), "<f8")
        if g.get("mask_csv"):
            mask = _read_matrix(resolve(g["mask_csv"]), g.get("d1"), bool)
    categoricals = []
    for entry in doc.get("categoricals", []):
        d2 = entry["d2"]
        z_full = _read_matrix(resolve(entry["csv"]), d2, "<f8")
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
    """Write a dataset as a manifest and .npy matrices: ``gaussian.npy``
    (``<f8``), ``gaussian_mask.npy`` (``bool``) and ``cat_<m>.npy``
    (``<f8`` full counts). Labels go out as ``labels.csv``.

    ground_truth, when given, is a :class:`mmfa.synth.SyntheticData`;
    its latent matrices land next to the data as ``<f8`` .npy files so
    experiments can check recovery: ``scores_true.npy`` (P, K),
    ``gaussian_loadings.npy`` (D1, K) and ``cat_<m>_loadings.npy``
    (K, D2-1). No manifest entry names them. Returns the manifest path.
    """
    os.makedirs(directory, exist_ok=True)

    def full(name):
        return os.path.join(directory, name)

    doc = {"schema_version": MANIFEST_SCHEMA_VERSION, "instances": dataset.n_instances}
    if dataset.gaussian is not None:
        _write_npy(full("gaussian.npy"), dataset.gaussian, "<f8")
        doc["gaussian"] = {"csv": "gaussian.npy", "d1": dataset.n_gaussian}
        if dataset.mask is not None:
            _write_npy(full("gaussian_mask.npy"), dataset.mask, bool)
            doc["gaussian"]["mask_csv"] = "gaussian_mask.npy"
    doc["categoricals"] = []
    for m, block in enumerate(dataset.categoricals):
        name = f"cat_{m}.npy"
        _write_npy(full(name), block.full_counts(), "<f8")
        entry = {"csv": name, "d2": block.n_categories}
        trials = np.unique(block.trials)
        if trials.size == 1:
            entry["trials"] = float(trials[0])
        doc["categoricals"].append(entry)

    if ground_truth is not None:
        _write_npy(full("scores_true.npy"), ground_truth.scores.T, "<f8")
        if ground_truth.gaussian_loadings is not None:
            _write_npy(
                full("gaussian_loadings.npy"), ground_truth.gaussian_loadings, "<f8"
            )
        for m, vm in enumerate(ground_truth.categorical_loadings):
            _write_npy(full(f"cat_{m}_loadings.npy"), vm, "<f8")
    if labels is not None:
        write_matrix_csv(
            full("labels.csv"), np.asarray(labels, dtype=float)[:, None], ["outlier"]
        )

    manifest_path = full("manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    return manifest_path
