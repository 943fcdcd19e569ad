"""Variational updates for one categorical (multinomial) modality.

The category loadings are a K x (D2-1) latent matrix with a standard
normal prior. The log-partition term couples all of them, so the exact
posterior is intractable; replacing lse with its fixed-curvature
quadratic upper bound yields a Gaussian approximate posterior whose
covariance has the two-matrix structure

    Cov(stacked loadings) = I_{D2-1} (x) inv(precision) + 11^T (x) cross_cov

so every update works in K x K space: nothing of size (D2-1)K is ever
formed, and one EM sweep costs O(K^2 P + K P D2).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch, NumericalError
from .expfam import CurvatureMatrix, _shifted_exp
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


def adjusted_counts(counts, trials, expansion, n_categories, return_offset=False):
    """Counts shifted by the expansion-point terms of the quadratic bound.

    ztilde_i = z_i - N_i (softmax(psi_i) - A psi_i), restricted to the
    non-pivot categories. With zero trials the counts pass through. With
    return_offset, also returns the bound's remainder that does not
    depend on the log-odds, lse(psi_i) - psi_i^T softmax(psi_i)
    + psi_i^T A psi_i / 2, from the same softmax: (ztilde, offset).
    """
    counts = np.asarray(counts, dtype=float)
    expansion = np.asarray(expansion, dtype=float)
    trials = np.asarray(trials, dtype=float)
    if counts.shape != expansion.shape:
        raise DimensionMismatch(
            f"counts {counts.shape} vs expansion points {expansion.shape}"
        )
    m, probs, denom = _shifted_exp(expansion)
    probs /= denom
    curved = CurvatureMatrix(n_categories).apply(expansion)
    ztilde = probs - curved
    ztilde *= trials[:, None]
    np.subtract(counts, ztilde, out=ztilde)
    if not return_offset:
        return ztilde
    offset = (m + np.log(denom))[:, 0] - np.sum(
        expansion * (probs - 0.5 * curved), axis=-1
    )
    return ztilde, offset


def _e_step_sums(C, trials, ztilde):
    """The sums the category loading posterior reads, over the instances
    of C (K, b): C diag(trials) C^T and C ztilde, with ztilde the
    adjusted counts of :func:`adjusted_counts`. A fit adds them up over
    its blocks of instances and finishes them with :func:`_e_step_finish`."""
    return (C * trials) @ C.T, C @ ztilde


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
    exact minimizer.
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


def multinomial_score_terms(state, ztilde):
    """The block's part of the score quadratic programs: (base, rho).

    H_i = trials_i * base with base from :func:`score_base`, and
    rho_i = loading_mean ztilde_i, for the instances whose adjusted
    counts are given. :func:`engine.score_system` forms H for a block of
    instances in one GEMM with every other block's terms.
    """
    return score_base(state), np.asarray(ztilde, dtype=float) @ state.loading_mean.T


def log_multinomial_coefficient(counts, trials):
    """log N_i! - sum_d log z_id! per instance, pivot category included.

    Depends on the data only, so a fit computes it once."""
    counts = np.asarray(counts, dtype=float)
    trials = np.asarray(trials, dtype=float)
    pivot = trials - counts.sum(axis=1)
    return (
        gammaln(trials + 1.0)
        - gammaln(counts + 1.0).sum(axis=1)
        - gammaln(pivot + 1.0)
    )


def expected_bound_loglik(state, counts, trials, expansion, C):
    """Per-instance expectation of the bounded data log-likelihood.

    E_q[ z^T eta - N * bound(eta; psi) + log multinomial coefficient ]
    under eta = loadings^T c with the current Gaussian posterior. This is
    the (lower-bound) term reported by predictive evaluation; it equals
    rho_i^T c_i - c_i^T H_i c_i / 2 with (H, rho) from
    :func:`multinomial_score_terms`, plus the offset and coefficient terms.
    """
    counts = np.asarray(counts, dtype=float)
    trials = np.asarray(trials, dtype=float)
    expansion = np.asarray(expansion, dtype=float)
    C = np.asarray(C, dtype=float)

    ztilde, offset = adjusted_counts(
        counts, trials, expansion, state.n_categories, return_offset=True
    )
    base = score_base(state)
    quad = np.sum(C * (base @ C), axis=0)  # einsum would stage K^2 P terms
    linear = np.sum((ztilde @ state.loading_mean.T) * C.T, axis=1)
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
    rho_i^T c_i - c_i^T H_i c_i / 2 with H_i = trials_i * base from
    :func:`multinomial_score_terms`, and each instance adds
    -trials_i * offset_i with the bound offset of :func:`adjusted_counts`
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
