"""Conjugate updates for the real-valued (Gaussian) features.

Each feature j carries a latent loading vector with a standard normal
prior; conditioned on the score matrix the posterior is Gaussian and is
computed exactly. Per-entry noise variances get a closed-form update
under an inverse-gamma prior. All sums respect an observation mask so
sparsely rated data (recommender-style matrices) fit the same code path.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DimensionMismatch, NumericalError

VARIANCE_FLOOR = 1e-9
# Instances per block of the Khatri-Rao product C (.) C: a block holds
# K^2 * KHATRI_RAO_CHUNK floats (1.6 MB at K=10), whatever P is.
KHATRI_RAO_CHUNK = 2048


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


def _weights(sigma2, mask):
    w = 1.0 / sigma2
    if mask is not None:
        w = np.where(mask, w, 0.0)
    return w


def _observed(Y, mask):
    """Y with masked-out entries set to 0: a hidden entry may hold NaN,
    and a zero weight times NaN is still NaN."""
    Y = np.asarray(Y, dtype=float)
    return Y if mask is None else np.where(mask, Y, 0.0)


def _khatri_rao_blocks(C):
    """Yield (rows, block) over consecutive instance ranges of C (K, P).

    block[i, k*K + l] = C[k, i] * C[l, i] for the instances i in rows, so
    a (block x K^2) GEMM contracts both score factors of a K^2 P D1 sum.
    """
    k, p = C.shape
    for start in range(0, p, KHATRI_RAO_CHUNK):
        rows = slice(start, start + KHATRI_RAO_CHUNK)
        part = C[:, rows].T
        yield rows, (part[:, :, None] * part[:, None, :]).reshape(-1, k * k)


def _quadratic_form(C, cov):
    """c_i^T cov_j c_i for every instance i and feature j, shape (P, D1)."""
    d1, k, _ = cov.shape
    cov_flat = cov.reshape(d1, k * k).T
    quad = np.empty((C.shape[1], d1))
    for rows, block in _khatri_rao_blocks(C):
        quad[rows] = block @ cov_flat
    return quad


def _cholesky(matrices):
    """Lower Cholesky factors, or None unless every matrix is finite and
    positive definite (np.linalg.cholesky passes NaN through)."""
    try:
        chol = np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        return None
    return chol if np.isfinite(chol).all() else None


def gaussian_e_step(C, sigma2, Y, mask=None):
    """Exact loading posteriors given scores and per-entry noise variances.

    Parameters
    ----------
    C : (K, P) score matrix.
    sigma2 : (P, D1) strictly positive noise variances.
    Y : (P, D1) observations.
    mask : optional (P, D1) boolean, True where observed.

    Returns a :class:`GaussianState`. The precisions C diag(w_j) C^T + I
    of all D1 features come from one GEMM per block of the Khatri-Rao
    product C (.) C. They are symmetric positive definite by construction
    and are factored by one batched Cholesky call, L_j L_j^T, giving
    cov_j = L_j^-T L_j^-1. A precision that is not finite or not positive
    definite raises NumericalError naming the first such feature.
    """
    C = np.asarray(C, dtype=float)
    Y = np.asarray(Y, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    k, p = C.shape
    if Y.shape[0] != p or Y.shape != sigma2.shape:
        raise DimensionMismatch(
            f"scores for {p} instances, data {Y.shape}, variances {sigma2.shape}"
        )
    if np.any(sigma2 <= 0):
        raise ValueError("noise variances must be strictly positive")
    d1 = Y.shape[1]
    w = _weights(sigma2, mask)

    prec_flat = np.zeros((k * k, d1))
    for rows, block in _khatri_rao_blocks(C):
        prec_flat += block.T @ w[rows]
    prec = prec_flat.T.reshape(d1, k, k) + np.eye(k)
    rhs = C @ (w * _observed(Y, mask))  # (K, D1)

    chol = _cholesky(prec)
    if chol is None:
        j = next((j for j, m in enumerate(prec) if _cholesky(m) is None), None)
        raise NumericalError(f"loading posterior factorization failed for feature {j}")
    chol_inv = np.linalg.inv(chol)
    cov = np.matmul(chol_inv.transpose(0, 2, 1), chol_inv)
    mean = np.matmul(cov, rhs.T[:, :, None])[:, :, 0]
    return GaussianState(mean=mean, cov=cov)


def gaussian_m_step(state, C, Y, mask=None, alpha=1.0, beta=0.1):
    """MAP update of the per-entry noise variances.

    For each observed entry the update is the posterior mode under the
    inverse-gamma prior:

        ((y - mean_j.c)^2 + c^T cov_j c + 2/beta) / (2 (alpha + 1) + 1)

    Masked-out entries are pinned to the prior mode. A small floor keeps
    downstream divisions finite when a feature is fit exactly.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    C = np.asarray(C, dtype=float)
    Y = np.asarray(Y, dtype=float)
    resid = Y - C.T @ state.mean.T
    quad = _quadratic_form(C, state.cov)
    sigma2 = (resid**2 + quad + 2.0 / beta) / (2.0 * (alpha + 1.0) + 1.0)
    if mask is not None:
        sigma2 = np.where(mask, sigma2, prior_mode_variance(alpha, beta))
    return np.maximum(sigma2, VARIANCE_FLOOR)


def gaussian_score_terms(state, sigma2, Y, mask=None):
    """Quadratic-program inputs for every instance at once.

    Returns (H, rho) with H of shape (P, K, K) and rho of shape (P, K):

        H_i   = sum_j (cov_j + mean_j mean_j^T) / sigma2_ij
        rho_i = sum_j y_ij mean_j / sigma2_ij

    over the observed features of instance i.
    """
    w = _weights(np.asarray(sigma2, dtype=float), mask)
    d1, k = state.mean.shape
    second_moment = state.cov + state.mean[:, :, None] * state.mean[:, None, :]
    H = (w @ second_moment.reshape(d1, k * k)).reshape(-1, k, k)
    rho = (w * _observed(Y, mask)) @ state.mean
    return H, rho


def gaussian_score_free_terms(state, sigma2, Y, mask, alpha, beta):
    """Part of the Gaussian objective contribution free of the scores.

    The full contribution is the expected data log-density, the loading
    prior cross-entropy, the loading posterior entropy and the
    inverse-gamma log prior of the observed noise variances. Expanding
    E_q[(y_ij - u_j.c_i)^2] = y_ij^2 - 2 y_ij mean_j.c_i
    + c_i^T (cov_j + mean_j mean_j^T) c_i leaves the score-dependent part
    rho_i^T c_i - c_i^T H_i c_i / 2 with (H, rho) from
    :func:`gaussian_score_terms`; this returns everything else.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    Y = np.asarray(Y, dtype=float)
    k = state.n_factors
    rate = 1.0 / beta
    # per observed entry: -log(2 pi sigma2)/2 - y^2 / (2 sigma2) from the
    # data term plus log InvGamma(sigma2; alpha, rate 1/beta)
    per_entry = (alpha + 1.5) * np.log(sigma2) + (0.5 * Y * Y + rate) / sigma2
    n_obs = per_entry.size
    if mask is not None:
        per_entry = np.where(mask, per_entry, 0.0)  # a hidden y may be NaN
        n_obs = np.count_nonzero(mask)
    total = n_obs * (-0.5 * np.log(2.0 * np.pi) + alpha * np.log(rate) - gammaln(alpha))
    total -= per_entry.sum()
    # E_q[log N(u_j; 0, I)] + H(q_j) per feature
    sign, logdet = np.linalg.slogdet(state.cov)
    if np.any(sign <= 0):
        raise NumericalError("loading posterior covariance is not positive definite")
    traces = np.trace(state.cov, axis1=1, axis2=2)
    total += np.sum(
        -0.5 * (np.sum(state.mean**2, axis=1) + traces) + 0.5 * logdet + 0.5 * k
    )
    return float(total)
