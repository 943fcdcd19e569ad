"""Model specification, fitted-model container, and on-disk format.

A model is stored as a JSON document (spec, dimensions, objective trace)
plus a sidecar binary file, ``<model>.bin``, of raw little-endian float64
matrices in column-major order, each referenced by byte offset from the
JSON document. The two files round-trip bit exactly and move together.
A model holds its scores and loading posteriors, not the per-entry noise
variances and expansion points that follow from them. Models written by
earlier versions, inline in the JSON document, with those arrays (which
are not read) or with retired spec settings (:func:`_read_spec`), still
load.
"""

import contextlib
import json
import os
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DimensionMismatch, SchemaError
from .gaussian import GaussianState
from .multinomial import MultinomialState

MODEL_SCHEMA_VERSION = 1

SCORE_UPDATE_MODES = ("ridge", "nonnegative")
SIDECAR_CHUNK_VALUES = 1 << 18
# the arrays of a MultinomialState a model file holds, as cat<m>_<field>
_CATEGORICAL_FIELDS = ("precision", "precision_inv", "cross_cov", "loading_mean")
# spec keys of earlier versions that no longer configure anything
_RETIRED_SPEC_KEYS = ("n_gaussian", "n_categories")


@dataclass
class ModelSpec:
    """Everything needed to reproduce a fit on compatible data.

    score_update selects how the per-instance quadratic program is
    solved: "ridge", the SPD solve of (H + ridge_weight I) c = rho, which
    at ridge_weight=0 is the plain solve, or "nonnegative", the
    nonnegativity-constrained solve, which ignores ridge_weight.
    accelerate runs the EM map evaluations in safeguarded SQUAREM cycles
    (:func:`engine.fit`); False runs plain EM, one kept iterate per
    evaluation, as the score-recovery experiment does. max_iters caps map
    evaluations either way.
    """

    n_factors: int
    alpha: float = 1.0
    beta: float = 0.1
    score_update: str = "ridge"
    ridge_weight: float = 1e-6
    tol: float = 1e-6
    max_iters: int = 500
    seed: int = 0
    accelerate: bool = True

    def __post_init__(self):
        if self.n_factors < 1:
            raise ValueError("n_factors must be at least 1")
        if self.score_update not in SCORE_UPDATE_MODES:
            raise ValueError(
                f"score_update must be one of {SCORE_UPDATE_MODES}; the "
                "unconstrained solve is 'ridge' with ridge_weight=0"
            )
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.ridge_weight < 0:
            raise ValueError("ridge_weight must be nonnegative")

    @property
    def effective_ridge(self):
        return self.ridge_weight if self.score_update == "ridge" else 0.0

    def warn_if_factor_heavy(self, d1, d2s):
        dims = [d for d in [d1, *d2s] if d > 0]
        if dims and self.n_factors >= min(dims):
            warnings.warn(
                f"n_factors={self.n_factors} is not smaller than the smallest "
                f"modality dimension {min(dims)}; the factorization may be "
                "underdetermined",
                stacklevel=3,
            )


@dataclass
class FittedModel:
    """Converged states of one fit plus the objective trace.

    objective_trace[0] is the surrogate objective of the freshly
    initialized state; one entry per kept state follows, that is per EM
    map evaluation that was not a rejected extrapolation. The trace is
    non-decreasing up to rounding: every update is an exact
    coordinate-ascent step on the tracked objective, and an extrapolated
    state is kept only if it is no lower. iterations_run counts map
    evaluations, the quantity spec.max_iters caps, and iteration_seconds
    holds the wall-clock seconds of each. extrapolations counts the
    SQUAREM extrapolations evaluated and extrapolations_rejected those
    not kept; both are 0 for plain EM.
    """

    spec: ModelSpec
    scores: np.ndarray  # (K, P)
    gaussian: GaussianState = None
    categoricals: list = field(default_factory=list)  # list[MultinomialState]
    objective_trace: list = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    iteration_seconds: list = field(default_factory=list)
    extrapolations: int = 0
    extrapolations_rejected: int = 0

    @property
    def n_factors(self):
        return self.scores.shape[0]

    @property
    def n_instances(self):
        return self.scores.shape[1]

    @property
    def n_gaussian(self):
        return 0 if self.gaussian is None else self.gaussian.n_features

    @property
    def category_counts(self):
        return [s.n_categories for s in self.categoricals]

    def check_compatible(self, data):
        if data.n_gaussian != self.n_gaussian:
            raise DimensionMismatch(
                f"model has {self.n_gaussian} gaussian features, "
                f"data has {data.n_gaussian}"
            )
        if data.category_counts != self.category_counts:
            raise DimensionMismatch(
                f"model categorical dims {self.category_counts}, "
                f"data {data.category_counts}"
            )


def _collect_arrays(model):
    arrays = {"scores": model.scores}
    if model.gaussian is not None:
        arrays["gaussian_mean"] = model.gaussian.mean
        arrays["gaussian_cov"] = model.gaussian.cov
    for m, state in enumerate(model.categoricals):
        for name in _CATEGORICAL_FIELDS:
            arrays[f"cat{m}_{name}"] = getattr(state, name)
    return arrays


@contextlib.contextmanager
def _staged(target, mode, staged):
    """Open a temporary file beside target and record (temporary, target)."""
    tmp = f"{target}.{os.getpid()}.tmp"
    with open(tmp, mode) as fh:
        staged.append((tmp, target))
        yield fh


def save_model(model, path):
    """Write a fitted model; see module docstring for the format.

    The write is atomic per file: the sidecar blob and the JSON document
    go to temporary files first and replace the targets, blob first, only
    once both are complete. A failed write leaves any older model intact.
    """
    arrays = _collect_arrays(model)
    blob_path = os.fspath(path) + ".bin"
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "spec": asdict(model.spec),
        "n_category_list": model.category_counts,
        "iterations_run": model.iterations_run,
        "extrapolations": model.extrapolations,
        "extrapolations_rejected": model.extrapolations_rejected,
        "converged": model.converged,
        "objective_trace": list(map(float, model.objective_trace)),
        "blob": os.path.basename(blob_path),
        "arrays": {},
    }
    staged = []
    try:
        offset = 0
        with _staged(blob_path, "wb", staged) as fh:
            for name in sorted(arrays):
                arr = np.asarray(arrays[name], dtype="<f8")
                fh.write(arr.tobytes(order="F"))
                doc["arrays"][name] = {"shape": list(arr.shape), "offset": offset}
                offset += arr.size * 8
        with _staged(os.fspath(path), "w", staged) as fh:
            json.dump(doc, fh, sort_keys=True)
    except BaseException:
        for tmp, _ in staged:
            os.unlink(tmp)
        raise
    for tmp, target in staged:
        os.replace(tmp, target)
    return path


def _read_array(entry, blob):
    """One array of the manifest, C-ordered: read from the open sidecar
    blob straight into its result, or from the inline values of a model
    written by an earlier version.

    The blob holds the array column-major, so each slice of its last axis
    is a contiguous run of bytes. The slices go through one buffer of
    about SIDECAR_CHUNK_VALUES values (at least one slice), which bounds
    what a load holds beyond the arrays it returns.
    """
    shape = tuple(entry["shape"])
    if any(n < 0 for n in shape) or entry.get("offset", 0) < 0:
        raise SchemaError("array entry has a negative shape or offset")
    if "values" in entry:
        flat = np.asarray(entry["values"], dtype=float)
        if flat.size != int(np.prod(shape)):
            raise SchemaError("array payload does not match its declared shape")
        return flat.reshape(shape, order="F").copy()
    out = np.empty(shape, dtype="<f8")
    slices = out.reshape(shape or (1,))  # a view; a 0-d array is one slice
    inner, last = slices.shape[:-1], slices.shape[-1]
    width = int(np.prod(inner))
    step = max(1, SIDECAR_CHUNK_VALUES // max(width, 1))
    buffer = np.empty(width * min(step, last), dtype="<f8")
    blob.seek(entry["offset"])
    for start in range(0, last, step):
        n = min(step, last - start)
        chunk = buffer[: width * n]
        if blob.readinto(chunk) != chunk.nbytes:
            raise SchemaError("array payload does not match its declared shape")
        slices[..., start:start + n] = chunk.reshape(inner + (n,), order="F")
    return out


def _read_arrays(doc, path, names):
    """The arrays of the manifest at path that names lists, from its
    sidecar blob, or inline if it has none (a model written by an earlier
    version)."""
    entries = doc["arrays"]
    if "blob" not in doc:
        return {name: _read_array(entries[name], None) for name in names}
    blob_path = os.path.join(os.path.dirname(os.path.abspath(path)), doc["blob"])
    try:
        with open(blob_path, "rb") as blob:
            return {name: _read_array(entries[name], blob) for name in names}
    except OSError as exc:
        raise SchemaError(f"model blob {blob_path} unreadable: {exc}") from exc


def _read_spec(fields):
    """The :class:`ModelSpec` of a model file's spec. One written by an
    earlier version may hold the retired data-dimension pins, which are
    dropped, and score_update "unconstrained", which ignored ridge_weight:
    it reads as "ridge" at ridge_weight 0, the same solve. Any other key
    ModelSpec does not know raises TypeError."""
    if not isinstance(fields, dict):
        raise SchemaError("model spec is not a JSON object")
    fields = {k: v for k, v in fields.items() if k not in _RETIRED_SPEC_KEYS}
    if fields.get("score_update") == "unconstrained":
        fields.update(score_update="ridge", ridge_weight=0.0)
    return ModelSpec(**fields)


def load_model(path):
    """Read a model written by :func:`save_model`.

    Raises :class:`SchemaError` for truncated or corrupt files and for
    schema versions this code does not understand.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"model file {path} is corrupt: {exc}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise SchemaError(f"model file {path} lacks a schema version")
    if doc["schema_version"] != MODEL_SCHEMA_VERSION:
        raise SchemaError(
            f"model schema version {doc['schema_version']} is not supported "
            f"(expected {MODEL_SCHEMA_VERSION})"
        )
    try:
        names = ["scores"]
        if "gaussian_mean" in doc["arrays"]:
            names += ["gaussian_mean", "gaussian_cov"]
        for m in range(len(doc["n_category_list"])):
            names += [f"cat{m}_{name}" for name in _CATEGORICAL_FIELDS]
        arrays = _read_arrays(doc, path, names)
        spec = _read_spec(doc["spec"])
        gaussian = None
        if "gaussian_mean" in arrays:
            gaussian = GaussianState(
                mean=arrays["gaussian_mean"], cov=arrays["gaussian_cov"]
            )
        categoricals = [
            MultinomialState(n_categories=int(d2), **{
                name: arrays[f"cat{m}_{name}"] for name in _CATEGORICAL_FIELDS
            })
            for m, d2 in enumerate(doc["n_category_list"])
        ]
        return FittedModel(
            spec=spec,
            scores=arrays["scores"],
            gaussian=gaussian,
            categoricals=categoricals,
            objective_trace=list(doc["objective_trace"]),
            iterations_run=int(doc["iterations_run"]),
            extrapolations=int(doc.get("extrapolations", 0)),
            extrapolations_rejected=int(doc.get("extrapolations_rejected", 0)),
            converged=bool(doc["converged"]),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise SchemaError(f"model file {path} is missing fields: {exc}") from exc
