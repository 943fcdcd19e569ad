"""Post-fit tasks: scoring new instances, predictive likelihood, anomaly
detection, imputation, category prediction, and recommendation recall.

Everything here treats the fitted model as frozen: its scores and loading
posteriors are read, never written. Scoring a new instance maximizes its
own part of the fit's objective, with its noise variances and the bound's
expansion points profiled out, by safeguarded Newton steps (:func:`_score`).

The reported predictive log-likelihood is exact for the Gaussian block
(loadings integrated out in closed form) but a lower bound (ELBO) for the
categorical blocks, where the quadratic bound replaces the true
log-partition term.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian as gmod
from . import multinomial as mmod
from .engine import (
    _blocks_in_order,
    _cholesky_batch,
    _initial_theta,
    _local_step,
    _nonneg_qp_batch,
    _score_bases,
    _substitute,
    solve_scores_batch,
)
from .errors import DimensionMismatch, UndefinedMetricError, UndefinedScoreError

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

    Returns (scores, log_predictive) with scores of shape (K, P), found by
    :func:`_score`, which warns if max_inner steps leave instances still
    moving. A converged training instance re-scores to its training
    solution. The log-likelihood is read in the same pass over the
    instance blocks, once a block's instances have converged. Its Gaussian
    part integrates the loadings out at the prior-mode noise variance; its
    categorical part is the expected bound at the expansion points of the
    final scores.
    """
    loglik = np.zeros(data.n_instances)
    return _score(model, data, max_inner, loglik), loglik


def _score(model, data, max_inner=INNER_MAX_ITERS, loglik=None):
    """Scores (K, P) of every instance; with loglik (P,), also each
    instance's predictive log-likelihood, written into it.

    An instance's scores c maximize its part of the fit's objective with
    its noise variances and the bound's expansion points at their optima
    given c:

        g(c) = -(alpha + 3/2) sum_j log(s_j + 2/beta)
               + sum_b [z_b^T psi_b - N_b lse(psi_b) - N_b c^T S_b c / 2]
               - ridge |c|^2 / 2,

    over its observed features j, s_j = (y_j - mean_j^T c)^2 + c^T cov_j c,
    and its categorical blocks b, psi_b = loading_mean_b^T c, S_b =
    score_base_b - M_b A_b M_b^T (:func:`multinomial.score_base`). The
    fit's own update, the score system solved at the variances and
    expansion points of the current c, is a minorize-maximize (MM) step
    on g, but it contracts slowly (about 0.88 a step on W1-shaped data).

    Each block of instances (:func:`engine._blocks_in_order`) takes that
    update once from the prior-mode variances at c = 0, then steps each of
    its instances (:func:`_newton_step`) until it moves by less than
    INNER_TOL and leaves the block's working set, or max_inner steps have
    run; a warning then gives the count still moving and their largest
    final step. Instances step independently and each block writes only
    its own rows, so the result does not depend on the number of cores,
    and beyond its outputs scoring holds one block's working set per
    worker.
    """
    _check_scorable(model, data)
    if max_inner < 1:
        raise ValueError("max_inner must be at least 1")
    p = data.n_instances
    terms = _Terms(model)
    C = np.zeros((p, model.n_factors))

    def block(rows):
        at = _Point.start(model, data, rows, terms)
        C[rows] = at.c
        moved = np.abs(at.c).max(axis=1)
        for _ in range(max_inner - 1):
            at = at.take(moved >= INNER_TOL)
            if not at.idx.size:
                break
            c = at.c
            at = _newton_step(model, data, terms, at)
            moved = np.abs(at.c - c).max(axis=1)
            C[at.idx] = at.c
        moving = moved[moved >= INNER_TOL]
        if loglik is not None:
            loglik[rows] = _block_loglik(model, data, rows, C[rows].T)
        return (moving.size, moving.max(initial=0.0)), None

    stuck, largest = 0, 0.0
    for moving, last in _blocks_in_order(p, block):
        stuck += moving
        largest = max(largest, last)
    if stuck:
        warnings.warn(
            f"scoring stopped at max_inner={max_inner} steps with {stuck} of "
            f"{p} instances still moving (largest final step {largest:.3g})",
            stacklevel=3,
        )
    return C.T


class _Terms:
    """The model-only terms of scoring, made once per call: the packed
    score bases, and what the profiled objective g and its Newton matrix
    read of each block."""

    def __init__(self, model):
        gauss = model.gaussian
        self.bases = _score_bases(model.categoricals)
        # packed mean_j mean_j^T, (D1, K(K+1)/2)
        self.means = None if gauss is None else gmod._khatri_rao(gauss.mean.T)
        self.cats = []
        for state in model.categoricals:
            M, d = state.loading_mean, state.n_categories
            ones = M.sum(axis=1)
            curvature = 0.5 * (M @ M.T - np.outer(ones, ones) / d)  # M A M^T
            self.cats.append((
                M,
                mmod.score_base(state) - curvature,  # S_b
                gmod._khatri_rao(M),  # packed m_d m_d^T, (D - 1, K(K+1)/2)
                gmod._khatri_rao(ones[:, None])[0] / (2.0 * d),  # (M 1)(M 1)^T / 2D
            ))


@dataclass
class _Point:
    """Instances of one block at their current scores c (n, K): their
    global indices and data, and what g reads at c."""

    idx: np.ndarray  # (n,) rows of the dataset
    Y: np.ndarray  # (n, D1) Gaussian data, 0 where hidden, or None
    mask: np.ndarray  # (n, D1) or None
    counts: list  # (D - 1, n) per categorical block
    trials: list  # (n,) per categorical block
    c: np.ndarray = None
    sigma2: np.ndarray = None  # (n, D1) noise-variance M-step at c
    psis: list = None  # (D - 1, n) expansion points at c
    probs: list = None  # softmax(psi), (D - 1, n)
    g: np.ndarray = None  # (n,) the profiled objective at c

    @classmethod
    def start(cls, model, data, rows, terms):
        """The block's instances after the first step: the score system at
        c = 0 and the fit's initial noise variances and expansion points
        (:func:`engine._initial_theta`), solved."""
        spec = model.spec
        idx = np.arange(*rows.indices(data.n_instances))
        mask = Y = None
        if data.gaussian is not None:
            mask = None if data.mask is None else data.mask[rows]
            Y = gmod._observed(data.gaussian[rows], mask)
        sigma2, psis = _initial_theta(spec, Y, model.categoricals, idx.size)
        zero = np.zeros((idx.size, model.n_factors))
        blk = _local_step(
            data, spec, model.gaussian, model.categoricals, zero.T, rows,
            sigma2=sigma2, psis=[psi.T for psi in psis], Y=Y, bases=terms.bases,
        )
        c = solve_scores_batch(
            blk.H, blk.rho, spec.score_update, spec.ridge_weight, warm_start=zero
        )
        at = cls(idx, Y, mask, [b.counts[rows].T for b in data.categoricals],
                 [b.trials[rows] for b in data.categoricals])
        return at.moved_to(model, terms, c)

    def moved_to(self, model, terms, c):
        """These instances at scores c, with g and what it reads there."""
        spec = model.spec
        g = -0.5 * spec.effective_ridge * np.einsum("nk,nk->n", c, c)
        sigma2 = None
        if self.Y is not None:
            sigma2 = gmod.gaussian_m_step(
                model.gaussian, c.T, self.Y, self.mask, spec.alpha, spec.beta
            )
            g -= (spec.alpha + 1.5) * np.log(sigma2).sum(axis=1)
        psis, probs = [], []
        for (M, S, _, _), z, n in zip(terms.cats, self.counts, self.trials):
            psi = M.T @ c.T
            prob, lse = mmod._softmax(psi)
            g += np.einsum("dn,dn->n", z, psi) - n * lse
            g -= 0.5 * n * np.einsum("nk,nk->n", c @ S, c)
            psis.append(psi)
            probs.append(prob)
        return replace(self, c=c, sigma2=sigma2, psis=psis, probs=probs, g=g)

    def take(self, keep):
        """The instances where keep is True."""
        if keep.all():
            return self

        def rows(a):
            return None if a is None else a[keep]

        def cols(arrays):
            return [a[:, keep] for a in arrays]

        return _Point(
            self.idx[keep], rows(self.Y), rows(self.mask), cols(self.counts),
            [t[keep] for t in self.trials], self.c[keep], rows(self.sigma2),
            cols(self.psis), cols(self.probs), self.g[keep],
        )

    def put(self, sel, other):
        """Write other, the instances where sel is True, into these."""
        self.c[sel] = other.c
        self.g[sel] = other.g
        if self.sigma2 is not None:
            self.sigma2[sel] = other.sigma2
        for mine, theirs in zip(self.psis + self.probs, other.psis + other.probs):
            mine[:, sel] = theirs


def _newton_step(model, data, terms, at):
    """One safeguarded Newton step on g for the instances of at.

    An instance takes the Newton step of :func:`_systems`, or under
    score_update="nonnegative" the QP of its quadratic model, if
    H_N + ridge I factors (:func:`engine._cholesky_batch`) and g does not
    decrease (to rounding); otherwise it takes the MM step, the solve of
    (H, rho), which never decreases g. Returns the instances at their new
    scores.
    """
    spec = model.spec
    lam, mode = spec.effective_ridge, spec.score_update
    c = at.c
    H, rho, newton = _systems(model, data, terms, at)
    grad = rho - np.einsum("pkl,pl->pk", H, c) - lam * c
    L, ok = _cholesky_batch(newton, lam, flag=True)
    x = c.copy()
    if mode != "nonnegative":
        x[ok] += _substitute(L, grad.T).T[ok]  # flagged columns go unused
    elif ok.any():
        x[ok] = _nonneg_qp_batch(
            newton[ok], np.einsum("pkl,pl->pk", newton[ok], c[ok]) + grad[ok], c[ok]
        )
    # scoring's working set sets the peak memory of a process that fits
    # and scores: the (n, K, K) arrays go before g is evaluated
    del L, newton
    new = at.moved_to(model, terms, x)
    mm = ~(ok & (new.g >= at.g - 1e-12 * np.abs(at.g)))
    if mm.any():
        x_mm = solve_scores_batch(
            H[mm], rho[mm], mode, spec.ridge_weight, warm_start=c[mm]
        )
        new.put(mm, at.take(mm).moved_to(model, terms, x_mm))
    return new


def _systems(model, data, terms, at):
    """The score system (H, rho) at the scores c of at's instances and
    their Newton matrices H_N.

    The local step at c (:func:`engine._local_step`) gives the fit's score
    system, whose residual rho - (H + ridge I) c is the gradient of g.
    H_N drops from H the parts of the bound that lie above g's curvature:

        H_N = H - sum_j 2 w_j^2 r_j^2 / (2 alpha + 3) mean_j mean_j^T
                - sum_b N_b M_b (A_b - diag pi_b + pi_b pi_b^T) M_b^T,

    with w the Gaussian weights, r the residuals y - mean^T c and pi_b
    the softmax at psi_b; of g's curvature it omits only the c^T cov_j c
    part of the Gaussian terms. The dropped part is formed packed by one
    GEMM for the Gaussian block and one per categorical block.
    """
    spec, c = model.spec, at.c
    k = c.shape[1]
    drop = np.zeros((len(c), k * (k + 1) // 2))
    if at.Y is not None:
        r = c @ model.gaussian.mean.T
        np.subtract(at.Y, r, out=r)
        r /= at.sigma2  # w r
        if at.mask is not None:
            r *= at.mask  # 0 where hidden
        np.square(r, out=r)
        r *= 2.0 / (2.0 * spec.alpha + 3.0)
        np.matmul(r, terms.means, out=drop)
    for cat, prob, n in zip(terms.cats, at.probs, at.trials):
        drop += _categorical_drop(cat, prob, n)
    # the local step comes after the dropped part, which holds fewer
    # floats per instance: the step's working set sets the peak memory of
    # scoring, and scoring that of a process that fits and scores
    blk = _local_step(
        data, spec, model.gaussian, model.categoricals, c.T, at.idx,
        sigma2=at.sigma2, psis=at.psis, Y=at.Y, bases=terms.bases,
    )
    newton = gmod._unpack(np.transpose(drop))
    np.subtract(blk.H.transpose(1, 2, 0), newton, out=newton)
    return blk.H, blk.rho, newton.transpose(2, 0, 1)


def _categorical_drop(cat, prob, n):
    """N M (A - diag pi + pi pi^T) M^T for one categorical block, packed,
    (n, K(K+1)/2), at softmax probabilities prob (D - 1, n) and trials n:

        M (A - diag pi + pi pi^T) M^T
            = sum_d (1/2 - pi_d) m_d m_d^T - (M 1)(M 1)^T / 2D + (M pi)(M pi)^T.
    """
    M, _, pairs, sums = cat
    part = (0.5 - prob).T @ pairs
    part -= sums
    part += gmod._khatri_rao(M @ prob)
    part *= n[:, None]
    return part


def _block_loglik(model, data, rows, c):
    """Predictive log-likelihoods of the instances in rows at scores c (K, b)."""
    loglik = 0.0
    if data.gaussian is not None:
        mask = None if data.mask is None else data.mask[rows]
        prior_mode = gmod.prior_mode_variance(model.spec.alpha, model.spec.beta)
        loglik = _gaussian_predictive(
            model.gaussian, c, data.gaussian[rows], mask, prior_mode
        )
    for state, block in zip(model.categoricals, data.categoricals):
        psi = mmod.psi_update(state.loading_mean, c)
        loglik = loglik + mmod.expected_bound_loglik(
            state, block.counts[rows], block.trials[rows], psi, c
        )
    return loglik


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
    return _score(model, data).T @ model.gaussian.mean.T


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
    """Predicted distribution over all D categories of one categorical
    modality, the pivot's last."""
    if not 0 <= modality < len(model.categoricals):
        raise ValueError(f"no categorical modality {modality}")
    score = score_instance(model, data, i)
    state = model.categoricals[modality]
    return mmod._probabilities((state.loading_mean.T @ score.scores)[:, None])[0]


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
