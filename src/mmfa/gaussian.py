"""Conjugate updates for the real-valued (Gaussian) features.

Each feature j carries a latent loading vector with a standard normal
prior; conditioned on the score matrix the posterior is Gaussian and is
computed exactly. Per-entry noise variances get a closed-form update
under an inverse-gamma prior. All sums respect an observation mask so
sparsely rated data (recommender-style matrices) fit the same code path.
Every function here works on the instances it is given; the fit and
scoring pass one block of instances at a time
(:func:`engine._instance_blocks`).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import NumericalError

VARIANCE_FLOOR = 1e-9


@dataclass
class GaussianState:
    """Per-feature loading posteriors: mean (D1, K) and cov (D1, K, K)."""

    mean: np.ndarray
    cov: np.ndarray

    @property
    def n_features(self):
        return self.mean.shape[0]

    @property
    def n_factors(self):
        return self.mean.shape[1]


def prior_mode_variance(alpha, beta):
    """Mode of the inverse-gamma noise prior, used wherever no per-entry
    variance has been learned (masked-out entries, unseen instances)."""
    return 1.0 / (beta * (alpha + 1.0))


def _observed(Y, mask):
    """Y with masked-out entries set to 0: a hidden entry may hold NaN,
    and a zero weight times NaN is still NaN."""
    Y = np.asarray(Y, dtype=float)
    return Y if mask is None else np.where(mask, Y, 0.0)


def _weighted(sigma2, Y, mask):
    """Per-entry precisions w (0 where hidden) and w * Y, for Y from
    :func:`_observed`. The E-step and the score system both read them.
    Multiplying by the mask is exact for finite sigma2 and several times
    faster than np.where on a scattered mask."""
    w = 1.0 / sigma2
    if mask is not None:
        w *= mask
    return w, w * Y


def _khatri_rao(C):
    """The rows c_i (x) c_i of the instances of C (K, b), shape (b, K^2):
    row i holds C[k, i] * C[l, i] at k*K + l, so one GEMM contracts both
    score factors of a K^2 b D1 sum."""
    part = C.T
    return (part[:, :, None] * part[:, None, :]).reshape(-1, C.shape[0] ** 2)


def _quadratic_form(C, cov):
    """c_i^T cov_j c_i for every instance i of C (K, b) and feature j,
    shape (b, D1)."""
    d1, k, _ = cov.shape
    return _khatri_rao(C) @ cov.reshape(d1, k * k).T


def _cholesky(matrices):
    """Lower Cholesky factors, or None unless every matrix is finite and
    positive definite (np.linalg.cholesky passes NaN through)."""
    try:
        chol = np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        return None
    return chol if np.isfinite(chol).all() else None


def _e_step_sums(C, w, wy):
    """The sums the loading posteriors read, over the instances of C
    (K, b) with weights (w, w * Y) from :func:`_weighted`: the flattened
    precision sums sum_i w_ij c_i c_i^T, (K^2, D1), from one GEMM against
    :func:`_khatri_rao`, and C (w * Y), (K, D1). A fit adds them up over
    its blocks of instances and finishes them with :func:`_e_step_finish`."""
    return _khatri_rao(C).T @ w, C @ wy


def _e_step_finish(prec_flat, rhs):
    """Exact loading posteriors from the sums of :func:`_e_step_sums`.

    Feature j's posterior has precision C diag(w_j) C^T + I, with w_j the
    per-entry precisions 1 / sigma2 (0 where hidden), covariance its
    inverse and mean cov_j C (w_j * y_j). The precisions are symmetric
    positive definite by construction and are factored by one batched
    Cholesky call, L_j L_j^T, giving cov_j = L_j^-T L_j^-1. A precision
    that is not finite or not positive definite raises NumericalError
    naming the first such feature. Returns a :class:`GaussianState`.
    """
    k, d1 = rhs.shape
    prec = prec_flat.T.reshape(d1, k, k) + np.eye(k)
    chol = _cholesky(prec)
    if chol is None:
        j = next((j for j, m in enumerate(prec) if _cholesky(m) is None), None)
        raise NumericalError(f"loading posterior factorization failed for feature {j}")
    chol_inv = np.linalg.inv(chol)
    cov = np.matmul(chol_inv.transpose(0, 2, 1), chol_inv)
    mean = np.matmul(cov, rhs.T[:, :, None])[:, :, 0]
    return GaussianState(mean=mean, cov=cov)


def gaussian_m_step(state, C, Y, mask, alpha, beta):
    """MAP update of the per-entry noise variances of the instances of
    C (K, b), which its caller passes one block at a time: the quadratic
    forms take K^2 floats per instance.

    For each observed entry the update is the posterior mode under the
    inverse-gamma prior:

        ((y - mean_j.c)^2 + c^T cov_j c + 2/beta) / (2 (alpha + 1) + 1)

    Masked-out entries are pinned to the prior mode. Y must be finite
    there (:func:`_observed` zeroes them), because they are pinned by the
    in-place blend sigma2 * mask + prior * ~mask, which is exact only for
    a finite sigma2 and costs less than np.where on a scattered mask. A
    small floor keeps downstream divisions finite when a feature is fit
    exactly.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    C = np.asarray(C, dtype=float)
    Y = np.asarray(Y, dtype=float)
    sigma2 = Y - C.T @ state.mean.T
    np.square(sigma2, out=sigma2)
    sigma2 += _quadratic_form(C, state.cov)
    sigma2 += 2.0 / beta
    sigma2 /= 2.0 * (alpha + 1.0) + 1.0
    if mask is not None:
        sigma2 *= mask
        sigma2 += prior_mode_variance(alpha, beta) * ~mask
    return np.maximum(sigma2, VARIANCE_FLOOR, out=sigma2)


def gaussian_score_terms(state, wy):
    """The Gaussian block's part of the score quadratic programs.

    Returns (moments, rho) with moments of shape (D1, K, K) and rho of
    shape (P, K), for the instances whose weighted data wy = w * Y
    (:func:`_weighted`) is given:

        H_i   = sum_j w_ij moments_j,  moments_j = cov_j + mean_j mean_j^T
        rho_i = sum_j w_ij y_ij mean_j

    over the observed features of instance i (w_ij = 1 / sigma2_ij, and 0
    where hidden). :func:`engine.score_system` forms H for a block of
    instances in one GEMM with every other block's terms.
    """
    moments = state.cov + state.mean[:, :, None] * state.mean[:, None, :]
    return moments, wy @ state.mean


def gaussian_entry_terms(sigma2, Y, mask, weights, alpha, beta):
    """Per-entry part of the Gaussian objective that is free of the scores.

    The full contribution is the expected data log-density, the loading
    prior cross-entropy, the loading posterior entropy and the
    inverse-gamma log prior of the observed noise variances. Expanding
    E_q[(y_ij - u_j.c_i)^2] = y_ij^2 - 2 y_ij mean_j.c_i
    + c_i^T (cov_j + mean_j mean_j^T) c_i leaves the score-dependent part
    rho_i^T c_i - c_i^T H_i c_i / 2 with (H, rho) from
    :func:`gaussian_score_terms` and the per-feature part of
    :func:`gaussian_posterior_terms`; this returns the rest, a sum over
    the observed entries of the instances given. Y comes from
    :func:`_observed` and weights (w, w * Y) from :func:`_weighted` at
    sigma2.
    """
    rate = 1.0 / beta
    w, wy = weights
    log_sigma2 = np.log(sigma2)
    n_obs = sigma2.size
    if mask is not None:
        log_sigma2 *= mask
        n_obs = np.count_nonzero(mask)
    # per observed entry: -log(2 pi sigma2)/2 - y^2 / (2 sigma2) from the
    # data term plus log InvGamma(sigma2; alpha, rate 1/beta); w and Y are
    # 0 where hidden
    total = n_obs * (-0.5 * np.log(2.0 * np.pi) + alpha * np.log(rate) - gammaln(alpha))
    total -= (
        (alpha + 1.5) * log_sigma2.sum()
        + 0.5 * np.vdot(Y, wy)
        + rate * w.sum()
    )
    return float(total)


def gaussian_posterior_terms(state):
    """E_q[log N(u_j; 0, I)] + H(q_j) summed over the features: the
    Gaussian objective's part that depends on the loading posteriors
    alone (see :func:`gaussian_entry_terms`)."""
    k = state.n_factors
    sign, logdet = np.linalg.slogdet(state.cov)
    if np.any(sign <= 0):
        raise NumericalError("loading posterior covariance is not positive definite")
    traces = np.trace(state.cov, axis1=1, axis2=2)
    return float(np.sum(
        -0.5 * (np.sum(state.mean**2, axis=1) + traces) + 0.5 * logdet + 0.5 * k
    ))
