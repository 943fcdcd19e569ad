"""Conjugate updates for the real-valued (Gaussian) features.

Each feature j carries a latent loading vector with a standard normal
prior; conditioned on the score matrix the posterior is Gaussian and is
computed exactly. Per-entry noise variances get a closed-form update
under an inverse-gamma prior. All sums respect an observation mask so
sparsely rated data (recommender-style matrices) fit the same code path.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gammaln

from .errors import DimensionMismatch, NumericalError

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


def _weights(sigma2, mask):
    w = 1.0 / sigma2
    if mask is not None:
        w = np.where(mask, w, 0.0)
    return w


def gaussian_e_step(C, sigma2, Y, mask=None):
    """Exact loading posteriors given scores and per-entry noise variances.

    Parameters
    ----------
    C : (K, P) score matrix.
    sigma2 : (P, D1) strictly positive noise variances.
    Y : (P, D1) observations.
    mask : optional (P, D1) boolean, True where observed.

    Returns a :class:`GaussianState`. The per-feature precision
    C diag(w_j) C^T + I is symmetric positive definite by construction,
    so it is inverted through a Cholesky factorization.
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

    prec = np.einsum("kp,pj,lp->jkl", C, w, C)
    prec += np.eye(k)
    rhs = C @ (w * Y)  # (K, D1)

    mean = np.empty((d1, k))
    cov = np.empty((d1, k, k))
    eye = np.eye(k)
    for j in range(d1):
        try:
            factor = cho_factor(prec[j], lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"loading posterior factorization failed for feature {j}"
            ) from exc
        cov[j] = cho_solve(factor, eye)
        mean[j] = cov[j] @ rhs[:, j]
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
    quad = np.einsum("kp,jkl,lp->pj", C, state.cov, C)
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
    second_moment = state.cov + np.einsum("jk,jl->jkl", state.mean, state.mean)
    H = np.einsum("pj,jkl->pkl", w, second_moment)
    rho = (w * np.asarray(Y, dtype=float)) @ state.mean
    return H, rho


def expected_gaussian_loglik(state, sigma2, C, Y, mask=None):
    """Expected data log-density under the loading posteriors, per instance.

    E_q[log N(y_ij ; u_j.c_i, sigma2_ij)] summed over observed features j.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    resid = np.asarray(Y, dtype=float) - C.T @ state.mean.T
    quad = np.einsum("kp,jkl,lp->pj", C, state.cov, C)
    terms = -0.5 * (np.log(2.0 * np.pi * sigma2) + (resid**2 + quad) / sigma2)
    if mask is not None:
        terms = np.where(mask, terms, 0.0)
    return terms.sum(axis=1)


def gaussian_elbo_terms(state, sigma2, C, Y, mask, alpha, beta):
    """Full Gaussian contribution to the surrogate objective.

    Data term + loading prior cross-entropy + loading posterior entropy +
    inverse-gamma log prior of the observed noise variances.
    """
    k = state.n_factors
    total = expected_gaussian_loglik(state, sigma2, C, Y, mask).sum()
    # E_q[log N(u_j; 0, I)] + H(q_j) per feature
    sign, logdet = np.linalg.slogdet(state.cov)
    if np.any(sign <= 0):
        raise NumericalError("loading posterior covariance is not positive definite")
    traces = np.trace(state.cov, axis1=1, axis2=2)
    total += np.sum(
        -0.5 * (np.sum(state.mean**2, axis=1) + traces) + 0.5 * logdet + 0.5 * k
    )
    # log InvGamma(sigma2_ij; alpha, rate 1/beta) over observed entries
    rate = 1.0 / beta
    logprior = (
        alpha * np.log(rate)
        - gammaln(alpha)
        - (alpha + 1.0) * np.log(sigma2)
        - rate / sigma2
    )
    if mask is not None:
        logprior = np.where(mask, logprior, 0.0)
    return total + logprior.sum()
