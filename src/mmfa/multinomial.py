"""Variational updates for one categorical (multinomial) modality.

The category loadings are a K x (D2-1) latent matrix with a standard
normal prior. The log-partition term couples all of them, so the exact
posterior is intractable; replacing lse with its fixed-curvature
quadratic upper bound yields a Gaussian approximate posterior whose
covariance has the two-matrix structure

    Cov(stacked loadings) = I_{D2-1} (x) inv(precision) + 11^T (x) cross_cov

so every update works in K x K space: nothing of size (D2-1)K is ever
formed, and one EM sweep costs O(K^2 P + K P D2). One batched Cholesky
call gives all of it (:func:`_e_step_finish`).

A fit's blocks hold their per-instance category arrays category-first,
(D2-1, b): the expansion points psi = loading_mean^T C, the adjusted
counts and the bound's terms (:func:`_bound_terms`), so that every
reduction over the categories adds contiguous rows of b instances.
:func:`psi_update` keeps the (P, D2-1) layout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalError
from .gaussian import _cholesky


@dataclass
class MultinomialData:
    """A categorical data block: non-pivot counts plus per-instance trials.

    counts holds the first D2-1 columns of the full count matrix; the
    pivot column is implied by the trial totals.
    """

    counts: np.ndarray  # (P, D2-1)
    trials: np.ndarray  # (P,)
    n_categories: int

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        self.trials = np.asarray(self.trials, dtype=float)
        if self.counts.ndim != 2 or self.counts.shape[1] != self.n_categories - 1:
            raise DimensionMismatch(
                f"counts shape {self.counts.shape} does not match "
                f"{self.n_categories} categories"
            )
        if self.trials.shape != (self.counts.shape[0],):
            raise DimensionMismatch("one trial count per instance required")
        if np.any(self.counts < 0) or np.any(self.trials < 0):
            raise ValueError("counts and trials must be nonnegative")
        pivot = self.trials - self.counts.sum(axis=1)
        if np.any(pivot < -1e-9):
            raise ValueError("row counts exceed the declared trial totals")

    @classmethod
    def from_full_counts(cls, z_full):
        """Build from a (P, D2) matrix of counts over all categories."""
        z_full = np.asarray(z_full, dtype=float)
        return cls(
            counts=z_full[:, :-1],
            trials=z_full.sum(axis=1),
            n_categories=z_full.shape[1],
        )

    @property
    def n_instances(self):
        return self.counts.shape[0]

    def full_counts(self):
        pivot = self.trials - self.counts.sum(axis=1)
        return np.concatenate([self.counts, pivot[:, None]], axis=1)

    def subset(self, idx):
        return MultinomialData(
            counts=self.counts[idx],
            trials=self.trials[idx],
            n_categories=self.n_categories,
        )


@dataclass
class MultinomialState:
    """Approximate-posterior summary for one categorical modality.

    precision:    K x K shared block precision (>= I in the PSD order).
    precision_inv K x K, its inverse (block-diagonal covariance part).
    cross_cov:    K x K correction shared by every pair of category blocks.
    loading_mean: K x (D2-1) posterior mean of the category loadings.
    cov_terms:    :func:`_e_step_finish`'s, or None until first read.
    """

    n_categories: int
    precision: np.ndarray
    precision_inv: np.ndarray
    cross_cov: np.ndarray
    loading_mean: np.ndarray
    cov_terms: float = None

    @property
    def n_factors(self):
        return self.precision.shape[0]


def _softmax(psi):
    """softmax(psi) over the non-pivot categories and lse(psi), for
    expansion points psi (D-1, b) whose pivot log-odds are 0: (probs,
    lse) of shapes (D-1, b) and (b,). probs is the one (D-1, b) array it
    allocates."""
    m = psi.max(axis=0)
    np.maximum(m, 0.0, out=m)  # the pivot's log-odds are 0
    probs = np.subtract(psi, m)
    np.exp(probs, out=probs)
    denom = probs.sum(axis=0)
    denom += np.exp(-m)
    probs /= denom
    lse = np.log(denom)
    lse += m
    return probs, lse


def _probabilities(psi):
    """The probabilities of all D categories at log-odds psi (D-1, b),
    one row per instance with the pivot's last: (b, D), C-ordered. The
    pivot's is exp(-lse(psi))."""
    probs, lse = _softmax(psi)
    out = np.empty((psi.shape[1], psi.shape[0] + 1))
    out[:, :-1] = probs.T
    out[:, -1] = np.exp(-lse)
    return out


def _bound_terms(counts, trials, psi, offsets=False):
    """The quadratic bound's terms at expansion points psi, category-first.

    counts and psi are (D-1, b) arrays of the non-pivot categories of b
    instances and trials is (b,); any strides do, and the reductions over
    categories add whole rows. Returns the adjusted counts

        ztilde_i = z_i - N_i (softmax(psi_i) - A psi_i),

    (D-1, b), and with offsets also the bound's remainder that does not
    depend on the log-odds, lse(psi_i) - psi_i^T softmax(psi_i)
    + psi_i^T A psi_i / 2, (b,): (ztilde, offset). A = (I - 11^T / D) / 2
    is Bohning's fixed curvature: it dominates the Hessian of lse, so

        lse(psi) + (eta - psi)^T softmax(psi) + (eta - psi)^T A (eta - psi) / 2

    is >= lse(eta), with equality at eta = psi. With zero trials the
    counts pass through. A non-finite psi raises ValueError. The one
    (D-1, b) array it allocates becomes ztilde.
    """
    total = psi.sum(axis=0)
    # a NaN or an infinity anywhere makes its column's sum non-finite
    if not np.isfinite(total).all() and not np.isfinite(psi).all():
        raise ValueError("eta contains non-finite entries")
    work, lse = _softmax(psi)
    if offsets:
        psi_probs = np.einsum("db,db->b", psi, work)
    # 2 (softmax(psi) - A psi) = 2 softmax(psi) - psi + sum(psi) / D
    work *= 2.0
    work -= psi
    total /= psi.shape[0] + 1.0
    work += total
    if offsets:
        # psi^T (softmax(psi) - A psi / 2) = psi^T (softmax(psi) + work / 2) / 2
        offset = lse
        offset -= 0.5 * psi_probs
        offset -= 0.25 * np.einsum("db,db->b", psi, work)
    work *= 0.5 * trials
    ztilde = np.subtract(counts, work, out=work)
    return (ztilde, offset) if offsets else ztilde


def _e_step_sums(C, trials, ztilde):
    """The sums the category loading posterior reads, over the instances
    of C (K, b): C diag(trials) C^T and C ztilde^T, with ztilde the
    category-first adjusted counts (D-1, b) of :func:`_bound_terms`. A fit
    adds them up over its blocks of instances and finishes them with
    :func:`_e_step_finish`."""
    return (C * trials) @ C.T, C @ ztilde.T


def _e_step_finish(gram, cz, n_categories):
    """Closed-form approximate posterior of the category loadings from
    the sums of :func:`_e_step_sums`, gram = C diag(trials) C^T and
    cz = C ztilde, with precision P = gram / 2 + I and d = D2-1:

        cross_cov    = inv(P) (gram / 2) inv(S) / D2,  S = (P + d I) / D2
        loading_mean = inv(P) cz + cross_cov (row sums of cz) 1^T

    This cross_cov is (I - inv(P)) / D2 [inv(P) + inv(P/d + I)(I - inv(P))]
    without its cancellations: in P's eigenbasis both are
    (lam - 1) / (lam (lam + d)). The structured covariance has d-1 blocks
    inv(P) and, along the ones direction, one block inv(P) + d cross_cov =
    inv(S): its log det, -(d-1) log det P - log det S, and its trace,
    (d-1) tr inv(P) + tr inv(S), give the state's cov_terms,
    (log det - trace + d K) / 2. One batched Cholesky call on P and S gives
    all of it, exact at zero sums (the prior); the (D2-1)K-dimensional
    posterior is never materialized. A P that is not finite or not
    positive definite raises NumericalError. Returns a
    :class:`MultinomialState`.
    """
    k = gram.shape[0]
    d = n_categories - 1.0
    eye = np.eye(k)
    precision = 0.5 * gram + eye
    chol = _cholesky(np.array([precision, (precision + d * eye) / n_categories]))
    if chol is None:
        raise NumericalError("Cholesky factorization of the block precision failed")
    chol_inv = np.linalg.inv(chol)
    inverses = np.matmul(chol_inv.transpose(0, 2, 1), chol_inv)
    half_logdets = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    traces = np.trace(inverses, axis1=1, axis2=2)
    precision_inv = 0.5 * (inverses[0] + inverses[0].T)
    cross_cov = inverses[0] @ (0.5 * gram) @ inverses[1] / n_categories
    loading_mean = precision_inv @ cz
    loading_mean += np.outer(cross_cov @ cz.sum(axis=1), np.ones(n_categories - 1))
    return MultinomialState(
        n_categories=n_categories,
        precision=precision,
        precision_inv=precision_inv,
        cross_cov=0.5 * (cross_cov + cross_cov.T),
        loading_mean=loading_mean,
        cov_terms=float(
            -(d - 1.0) * half_logdets[0] - half_logdets[1]
            - 0.5 * ((d - 1.0) * traces[0] + traces[1] - d * k)
        ),
    )


def psi_update(loading_mean, C):
    """Expansion points that make the expected bound tight: psi_i = mean^T c_i.

    For Gaussian-distributed log-odds with mean m, the expected bound
    around psi exceeds the expected bound around m by the (nonnegative)
    bound gap evaluated at m, so the posterior-mean log-odds are the
    exact minimizer. Returns (P, D-1); the fit's blocks take the same
    product category-first, loading_mean^T C.
    """
    return np.asarray(C).T @ np.asarray(loading_mean)


def score_base(state):
    """Shared per-trial quadratic coefficient of the score update.

    The instance-i multinomial Hessian block is trials_i times this
    matrix; it combines the curvature trace terms with the posterior
    mean's own quadratic contribution.
    """
    phi = state.loading_mean
    phi_rows = phi.sum(axis=1)
    d2 = state.n_categories
    # tr A and 1^T A 1 of the curvature A = (I - 11^T / D2) / 2
    return (
        (d2 - 1) ** 2 / (2.0 * d2) * state.precision_inv
        + (d2 - 1) / (2.0 * d2) * state.cross_cov
        + 0.5 * phi @ phi.T
        - np.outer(phi_rows, phi_rows) / (2.0 * d2)
    )


def _log_factorial(x):
    """log x! = lgamma(x + 1) elementwise for x >= 0, from math.lgamma.

    Whole numbers no larger than the number of entries (counts and trial
    totals in practice) gather from a table of log 0!, ..., log max(x)!,
    one lgamma call per table entry. Any other input calls math.lgamma
    once per distinct value; a negative integer raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    if x.size and 0.0 <= x.min() and x.max() <= x.size:
        whole = x.astype(np.intp)
        if np.array_equal(whole, x):
            table = [math.lgamma(n + 1.0) for n in range(whole.max() + 1)]
            return np.array(table)[whole]
    values, inverse = np.unique(x, return_inverse=True)
    logs = np.array([math.lgamma(v + 1.0) for v in values])
    return logs[inverse].reshape(x.shape)


def log_multinomial_coefficient(counts, trials):
    """log N_i! - sum_d log z_id! per instance, pivot category included.

    Counts need not be whole numbers: log z! is lgamma(z + 1) throughout
    (:func:`_log_factorial`). Depends on the data only, so a fit computes
    it once."""
    counts = np.asarray(counts, dtype=float)
    trials = np.asarray(trials, dtype=float)
    pivot = trials - counts.sum(axis=1)
    return (
        _log_factorial(trials)
        - _log_factorial(counts).sum(axis=1)
        - _log_factorial(pivot)
    )


def expected_bound_loglik(state, counts, trials, expansion, C):
    """Per-instance expectation of the bounded data log-likelihood.

    E_q[ z^T eta - N * bound(eta; psi) + log multinomial coefficient ]
    under eta = loadings^T c with the current Gaussian posterior. This is
    the (lower-bound) term reported by predictive evaluation; it equals
    rho_i^T c_i - c_i^T H_i c_i / 2 with H_i = trials_i * :func:`score_base`
    and rho_i = loading_mean ztilde_i, plus the offset and coefficient
    terms.
    """
    counts = np.asarray(counts, dtype=float)
    trials = np.asarray(trials, dtype=float)
    expansion = np.asarray(expansion, dtype=float)
    C = np.asarray(C, dtype=float)

    ztilde, offset = _bound_terms(counts.T, trials, expansion.T, offsets=True)
    base = score_base(state)
    quad = np.sum(C * (base @ C), axis=0)  # einsum would stage K^2 P terms
    linear = np.sum((state.loading_mean @ ztilde) * C, axis=0)
    return (
        log_multinomial_coefficient(counts, trials)
        + linear
        - 0.5 * trials * quad
        - trials * offset
    )


def multinomial_posterior_terms(state):
    """The modality's objective part that depends on its posterior alone:
    the loading prior cross-entropy and the posterior entropy,
    -|loading_mean|^2 / 2 plus the state's cov_terms. A state without
    them (a loaded model's) gets them once, from :func:`_e_step_finish`."""
    mean = state.loading_mean
    if state.cov_terms is None:
        gram = 2.0 * (state.precision - np.eye(mean.shape[0]))
        state.cov_terms = _e_step_finish(gram, mean, state.n_categories).cov_terms
    return state.cov_terms - 0.5 * float(np.einsum("kd,kd->", mean, mean))
