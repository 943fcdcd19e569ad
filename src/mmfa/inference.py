"""Post-fit tasks: scoring new instances, predictive likelihood, anomaly
detection, imputation, category prediction, and recommendation recall.

Everything here treats the fitted model as frozen: loading posteriors and
expansion machinery are read, never written. Scoring a new instance
re-runs only the final per-instance quadratic program, with the bound's
expansion point iterated to its fixed point.

The reported predictive log-likelihood is exact for the Gaussian block
(loadings integrated out in closed form) but a lower bound (ELBO) for the
categorical blocks, where the quadratic bound replaces the true
log-partition term.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import gaussian as gmod
from . import multinomial as mmod
from .engine import _instance_blocks, _local_step, solve_scores_batch
from .errors import DimensionMismatch, UndefinedMetricError, UndefinedScoreError
from .expfam import softmax_pivot

INNER_MAX_ITERS = 50
INNER_TOL = 1e-8


@dataclass
class InstanceScore:
    scores: np.ndarray  # (K,)
    log_predictive: float


@dataclass
class AnomalyVerdict:
    log_likelihood: float
    threshold: float
    is_anomalous: bool
    delta: float


def _check_scorable(model, data):
    model.check_compatible(data)
    p = data.n_instances
    has_feature = np.zeros(p, dtype=bool)
    if data.gaussian is not None:
        has_feature |= data.observed_mask().any(axis=1)
    for block in data.categoricals:
        has_feature |= block.trials > 0
    if not has_feature.all():
        missing = np.flatnonzero(~has_feature).tolist()
        raise UndefinedScoreError(
            f"instances {missing} have no observed feature in any modality"
        )


def score_dataset(model, data, max_inner=INNER_MAX_ITERS):
    """Score every instance of a dataset against a frozen model.

    Returns (scores, log_predictive) with scores of shape (K, P). Each
    instance's quadratic program alternates with the expansion-point map
    psi = loading_mean^T c and with its own noise-variance update (seeded
    at the prior mode) until the scores move by less than INNER_TOL or
    max_inner steps have run. Every step ascends the same per-instance
    objective, so the alternation is a monotone fixed-point iteration,
    and a converged training instance re-scores to its training solution.
    Each step walks the blocks of instances and gives each the fit's
    local step (:func:`engine._local_step`): noise variances and
    expansion points at the block's scores, then its score system
    (:func:`engine.score_system`), which is solved for the new scores.

    The log-likelihood is read in one more pass over the same blocks, so
    beyond its outputs scoring holds one block's working set. Its
    Gaussian part integrates the loadings out at the prior-mode noise
    variance; the iterated per-instance variances affect only where the
    scores land. Its categorical part is the expected bound at the
    expansion points of the final scores.
    """
    _check_scorable(model, data)
    spec = model.spec
    p, k = data.n_instances, model.n_factors
    prior_mode = gmod.prior_mode_variance(spec.alpha, spec.beta)

    C = np.zeros((p, k))
    for step in range(max_inner):
        moved = 0.0
        for rows in _instance_blocks(p):
            # the first step starts from prior-mode noise variances; its
            # expansion points, psi at C = 0, are zero
            b = C[rows].shape[0]
            sigma2 = np.full((b, data.n_gaussian), prior_mode) if step == 0 else None
            blk = _local_step(
                data, spec, model.gaussian, model.categoricals, C[rows].T, rows,
                sigma2=sigma2,
            )
            c = solve_scores_batch(
                blk.H, blk.rho, spec.score_update, spec.ridge_weight,
                warm_start=C[rows],
            )
            moved = max(moved, float(np.abs(c - C[rows]).max()))
            C[rows] = c
        if moved < INNER_TOL:
            break

    loglik = np.zeros(p)
    for rows in _instance_blocks(p):
        c = C[rows].T
        if data.gaussian is not None:
            mask = None if data.mask is None else data.mask[rows]
            loglik[rows] += _gaussian_predictive(
                model.gaussian, c, data.gaussian[rows], mask, prior_mode
            )
        for state, block in zip(model.categoricals, data.categoricals):
            psi = mmod.psi_update(state.loading_mean, c)
            loglik[rows] += mmod.expected_bound_loglik(
                state, block.counts[rows], block.trials[rows], psi, c
            )
    return C.T, loglik


def _gaussian_predictive(state, C, Y, mask, sigma2):
    """Exact marginal log-density of observed entries given scores.

    The loading posterior integrates out in closed form:
    y_ij | c ~ Normal(mean_j . c, c^T cov_j c + sigma2_ij). Hidden
    entries (mask False) may hold NaN and add nothing.
    """
    mu = C.T @ state.mean.T
    var = gmod._quadratic_form(C, state.cov) + sigma2
    terms = -0.5 * (np.log(2.0 * np.pi * var) + (Y - mu) ** 2 / var)
    if mask is not None:
        terms = np.where(mask, terms, 0.0)
    return terms.sum(axis=1)


def score_instance(model, data, i):
    """Score one instance of a dataset; returns an :class:`InstanceScore`."""
    single = data.subset([i])
    C, loglik = score_dataset(model, single)
    return InstanceScore(scores=C[:, 0], log_predictive=float(loglik[0]))


def instance_log_likelihoods(model, data):
    """Per-instance predictive log-likelihood (Gaussian exact, categorical
    ELBO); the ranking statistic used by anomaly detection."""
    _, loglik = score_dataset(model, data)
    return loglik


def predictive_log_likelihood(model, data):
    """Total predictive log-likelihood of a dataset (sums per-instance
    values, so it is additive over any partition of the instances)."""
    return float(instance_log_likelihoods(model, data).sum())


def anomaly_threshold(validation_loglik, delta):
    """Lower-tail delta-quantile of validation log-likelihoods, linearly
    interpolated between order statistics."""
    validation_loglik = np.asarray(validation_loglik, dtype=float)
    if validation_loglik.size == 0:
        raise UndefinedMetricError("anomaly threshold needs a nonempty validation set")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie strictly between 0 and 1")
    if validation_loglik.size < 1.0 / delta:
        warnings.warn(
            f"validation set of {validation_loglik.size} instances is small for "
            f"delta={delta}; the threshold estimate is unreliable",
            stacklevel=3,
        )
    return float(np.quantile(validation_loglik, delta))


def anomaly_detect(model, validation, test, delta=0.05):
    """Flag test instances whose likelihood falls below the validation
    delta-quantile. Returns one :class:`AnomalyVerdict` per test instance.
    """
    threshold = anomaly_threshold(instance_log_likelihoods(model, validation), delta)
    test_loglik = instance_log_likelihoods(model, test)
    return [
        AnomalyVerdict(
            log_likelihood=float(ll),
            threshold=threshold,
            is_anomalous=bool(ll < threshold),
            delta=delta,
        )
        for ll in test_loglik
    ]


def predict_gaussian(model, data):
    """Predicted value for every gaussian entry: scores^T loading-means.

    Instances are scored from their observed entries only, so hidden
    entries never leak into their own predictions.
    """
    if model.gaussian is None:
        raise DimensionMismatch("model has no gaussian modality")
    C, _ = score_dataset(model, data)
    return C.T @ model.gaussian.mean.T


def impute(model, data, i, j):
    """Point prediction of gaussian feature j for instance i."""
    if model.gaussian is None or j >= model.n_gaussian or j < 0:
        raise ValueError(
            f"feature {j} is not a gaussian feature; use category_probabilities "
            "for categorical modalities"
        )
    score = score_instance(model, data, i)
    return float(score.scores @ model.gaussian.mean[j])


def category_probabilities(model, data, i, modality):
    """Predicted category distribution of one categorical modality."""
    if not 0 <= modality < len(model.categoricals):
        raise ValueError(f"no categorical modality {modality}")
    score = score_instance(model, data, i)
    state = model.categoricals[modality]
    return softmax_pivot(state.loading_mean.T @ score.scores)


def recall_at_k(
    model,
    test_values,
    test_mask,
    train_mask,
    k=10,
    like_threshold=4.0,
):
    """Average top-k recall of liked held-out items, per user.

    Rows are items (instances), columns are users (gaussian features).
    For each user the candidate pool is every item without a training
    rating; liked items are held-out ratings at or above like_threshold.
    Users with no liked held-out item are skipped; if no user qualifies
    an :class:`UndefinedMetricError` is raised. When k exceeds the
    candidate pool the full pool is used (with a warning).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if model.gaussian is None:
        raise DimensionMismatch("recall needs the gaussian (ratings) modality")
    test_values = np.asarray(test_values, dtype=float)
    test_mask = np.asarray(test_mask, dtype=bool)
    train_mask = np.asarray(train_mask, dtype=bool)
    predictions = model.scores.T @ model.gaussian.mean.T  # (P items, D1 users)

    recalls = []
    for j in range(predictions.shape[1]):
        candidates = np.flatnonzero(~train_mask[:, j])
        liked = candidates[
            test_mask[candidates, j] & (test_values[candidates, j] >= like_threshold)
        ]
        if liked.size == 0:
            continue
        top = min(k, candidates.size)
        if k > candidates.size:
            warnings.warn(
                f"k={k} exceeds the {candidates.size}-item candidate pool for "
                f"user {j}; using the full pool",
                stacklevel=2,
            )
        order = candidates[np.argsort(-predictions[candidates, j], kind="stable")]
        hits = np.isin(order[:top], liked).sum()
        recalls.append(hits / liked.size)
    if not recalls:
        raise UndefinedMetricError("no user has a liked held-out item")
    return float(np.mean(recalls))
