"""Variational updates for one categorical (multinomial) modality.

The category loadings are a K x (D2-1) latent matrix with a standard
normal prior. The log-partition term couples all of them, so the exact
posterior is intractable; replacing lse with its fixed-curvature
quadratic upper bound yields a Gaussian approximate posterior whose
covariance has the two-matrix structure

    Cov(stacked loadings) = I_{D2-1} (x) inv(precision) + 11^T (x) cross_cov

so every update works in K x K space: nothing of size (D2-1)K is ever
formed, and one EM sweep costs O(K^2 P + K P D2).

A fit's blocks hold their per-instance category arrays category-first,
(D2-1, b): the expansion points psi = loading_mean^T C, the adjusted
counts and the bound's terms (:func:`_bound_terms`), so that every
reduction over the categories adds contiguous rows of b instances. The
public :func:`adjusted_counts` and :func:`psi_update`, and the
expansion points a model stores, keep the (P, D2-1) layout.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalError
from .expfam import CurvatureMatrix
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
    expansion:    P x (D2-1) per-instance expansion points of the bound.
    """

    n_categories: int
    precision: np.ndarray
    precision_inv: np.ndarray
    cross_cov: np.ndarray
    loading_mean: np.ndarray
    expansion: np.ndarray = field(default=None)

    @property
    def n_factors(self):
        return self.precision.shape[0]

    def curvature(self):
        return CurvatureMatrix(self.n_categories)


def spd_solve(matrix, rhs, what="matrix"):
    """Solve matrix x = rhs through one Cholesky factorization.

    Both matrices the E-step factors have every eigenvalue >= 1, so a
    failed or non-finite factor means the inputs overflowed: it raises
    NumericalError.
    """
    chol = _cholesky(matrix)
    if chol is None:
        raise NumericalError(f"Cholesky factorization of the {what} failed")
    chol_inv = np.linalg.inv(chol)
    return chol_inv.T @ (chol_inv @ rhs)


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


def _bound_terms(counts, trials, psi, offsets=False):
    """The quadratic bound's terms at expansion points psi, category-first.

    counts and psi are (D-1, b) arrays of the non-pivot categories of b
    instances and trials is (b,); any strides do, and the reductions over
    categories add whole rows. Returns the adjusted counts

        ztilde_i = z_i - N_i (softmax(psi_i) - A psi_i),

    (D-1, b), and with offsets also the bound's remainder that does not
    depend on the log-odds, lse(psi_i) - psi_i^T softmax(psi_i)
    + psi_i^T A psi_i / 2, (b,): (ztilde, offset). With zero trials the
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


def adjusted_counts(counts, trials, expansion, n_categories, return_offset=False):
    """Counts shifted by the expansion-point terms of the quadratic bound.

    ztilde_i = z_i - N_i (softmax(psi_i) - A psi_i), restricted to the
    non-pivot categories, for counts and expansion points psi of shape
    (P, D-1). With zero trials the counts pass through. With
    return_offset, also returns the bound's remainder that does not
    depend on the log-odds, lse(psi_i) - psi_i^T softmax(psi_i)
    + psi_i^T A psi_i / 2, from the same softmax: (ztilde, offset). The
    fit computes the same terms category-first (:func:`_bound_terms`).
    """
    counts = np.asarray(counts, dtype=float)
    expansion = np.asarray(expansion, dtype=float)
    trials = np.asarray(trials, dtype=float)
    if counts.shape != expansion.shape:
        raise DimensionMismatch(
            f"counts {counts.shape} vs expansion points {expansion.shape}"
        )
    if expansion.shape[-1] != CurvatureMatrix(n_categories).dim:
        raise DimensionMismatch(
            f"vector length {expansion.shape[-1]} does not match {n_categories - 1}"
        )
    terms = _bound_terms(counts.T, trials, expansion.T, return_offset)
    return (terms[0].T, terms[1]) if return_offset else terms.T


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
    cz = C ztilde:

        precision  = gram / 2 + I
        cross_cov  = (I - inv(precision)) / D2
                     [inv(precision) + inv(precision/(D2-1) + I)(I - inv(precision))]
        loading_mean = inv(precision) cz + cross_cov (row sums of cz) 1^T

    Solves go through Cholesky factorizations of the two SPD K x K
    matrices (:func:`spd_solve`, which raises NumericalError when one
    fails); the (D2-1)K-dimensional posterior is never materialized.
    Returns a :class:`MultinomialState` without expansion points.
    """
    k = gram.shape[0]
    eye = np.eye(k)
    precision = 0.5 * gram + eye
    precision_inv = spd_solve(precision, eye, "block precision")
    residual = eye - precision_inv
    inner = spd_solve(
        precision / (n_categories - 1.0) + eye, residual, "shifted precision"
    )
    cross_cov = residual / n_categories @ (precision_inv + inner)
    cross_cov = 0.5 * (cross_cov + cross_cov.T)

    loading_mean = precision_inv @ cz
    loading_mean += np.outer(cross_cov @ cz.sum(axis=1), np.ones(n_categories - 1))
    return MultinomialState(
        n_categories=n_categories,
        precision=precision,
        precision_inv=0.5 * (precision_inv + precision_inv.T),
        cross_cov=cross_cov,
        loading_mean=loading_mean,
    )


def psi_update(loading_mean, C):
    """Expansion points that make the expected bound tight: psi_i = mean^T c_i.

    For Gaussian-distributed log-odds with mean m, the expected bound
    around psi exceeds the expected bound around m by the (nonnegative)
    bound gap evaluated at m, so the posterior-mean log-odds are the
    exact minimizer. Returns (P, D-1), the layout a model stores; the
    fit's blocks take the same product category-first, loading_mean^T C.
    """
    return np.asarray(C).T @ np.asarray(loading_mean)


def score_base(state):
    """Shared per-trial quadratic coefficient of the score update.

    The instance-i multinomial Hessian block is trials_i times this
    matrix; it combines the curvature trace terms with the posterior
    mean's own quadratic contribution.
    """
    curv = state.curvature()
    phi = state.loading_mean
    phi_rows = phi.sum(axis=1)
    d2 = state.n_categories
    return (
        curv.trace() * state.precision_inv
        + curv.ones_quad() * state.cross_cov
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
    """The modality's objective part that depends on its posterior alone.

    The full contribution is the expected bounded log-likelihood plus the
    loading prior cross-entropy and posterior entropy, all evaluated with
    the structured covariance. Its score-dependent part is
    rho_i^T c_i - c_i^T H_i c_i / 2 with H_i = trials_i * :func:`score_base`
    and rho_i = loading_mean ztilde_i, and each instance adds
    -trials_i * offset_i with the bound offset of :func:`_bound_terms`
    and the data-only :func:`log_multinomial_coefficient`; this returns
    the prior cross-entropy and the posterior entropy.
    """
    k = state.n_factors
    d = state.n_categories - 1
    tr_cov = d * (np.trace(state.precision_inv) + np.trace(state.cross_cov))
    total = -0.5 * (np.sum(state.loading_mean**2) + tr_cov) + 0.5 * d * k
    # log det of the structured covariance: (d-1) blocks of inv(precision)
    # plus one block inv(precision) + d * cross_cov along the ones direction
    sign, logdet_prec = np.linalg.slogdet(state.precision)
    ones_block = state.precision_inv + d * state.cross_cov
    sign2, logdet_ones = np.linalg.slogdet(ones_block)
    if sign <= 0 or sign2 <= 0:
        raise NumericalError("structured posterior covariance lost definiteness")
    total += 0.5 * (-(d - 1) * logdet_prec + logdet_ones)
    return float(total)
