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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

VARIANCE_FLOOR = 1e-9


@dataclass
class GaussianState:
    """Per-feature loading posteriors: mean (D1, K) and cov (D1, K, K),
    and cov_terms (:func:`_cov_terms`), or None until first read."""

    mean: np.ndarray
    cov: np.ndarray
    cov_terms: float = None

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


def _select_bits(mask):
    """Words of all ones where mask holds and all zeros where not, int64
    in mask's shape, or None for no mask. ANDing a float64 entry with them
    keeps it or makes it 0, as np.where does bit for bit but with no
    branch per entry to mispredict on a scattered mask: np.where(mask, x,
    0) of a 2048 x 50 block at 30% hidden takes about 4 times as long."""
    return None if mask is None else np.negative(mask, dtype=np.int64)


def _observed(Y, mask, bits=None):
    """Y with masked-out entries set to 0: a hidden entry may hold NaN,
    and a zero weight times NaN is still NaN. bits are mask's
    :func:`_select_bits`, made here if None."""
    Y = np.asarray(Y, dtype=float)
    if mask is None:
        return Y
    out = None
    if bits is None:
        bits = out = _select_bits(mask)  # a new array: the select goes into it
    return np.bitwise_and(bits, Y.view(np.int64), out=out).view(np.float64)


def _weighted(sigma2, Y, mask):
    """Per-entry precisions w (0 where hidden) and w * Y, for Y from
    :func:`_observed`. The E-step and the score system both read them.
    Multiplying by the mask is exact for finite sigma2 and several times
    faster than np.where on a scattered mask."""
    w = 1.0 / sigma2
    if mask is not None:
        w *= mask
    return w, w * Y


@functools.cache
def _triu(k):
    """Row and column indices of the K(K+1)/2 entries on and above the
    diagonal of a K x K matrix, row by row: the column order of every
    packed symmetric K x K kernel (Magnus & Neudecker's half-vectorization).
    Also the weights, 1 on the diagonal and 2 off it, that :func:`_pack`
    applies when doubled."""
    i, j = np.triu_indices(k)
    return i, j, np.where(i == j, 1.0, 2.0)


def _pack(S, doubled=False):
    """The upper triangles of the symmetric matrices S (..., K, K), shape
    (..., K(K+1)/2). doubled multiplies the off-diagonal entries by 2, so
    that a packed row of :func:`_khatri_rao` contracts against it to the
    full quadratic form c^T S c."""
    i, j, weights = _triu(S.shape[-1])
    packed = S[..., i, j]
    if doubled:
        packed *= weights
    return packed


def _unpack(packed):
    """The symmetric matrices (K, K, n) whose upper triangles are the n
    columns of packed (K(K+1)/2, n), in the layout of :func:`_pack`."""
    k = (math.isqrt(8 * packed.shape[0] + 1) - 1) // 2
    i, j, _ = _triu(k)
    full = np.empty((k, k, packed.shape[1]))
    full[i, j] = packed
    full[j, i] = packed
    return full


def _khatri_rao(C):
    """The packed rows of c_i c_i^T for the instances of C (K, b), shape
    (b, K(K+1)/2): row i holds C[k, i] * C[l, i] for k <= l in the order
    of :func:`_triu`. One GEMM against them contracts both score factors
    of a sum over instances and features, on half the K^2 columns. They
    are built as products of whole rows of C, into a transposed view of a
    C-ordered array: gathering columns of C.T instead takes up to 9 times
    as long at K=10."""
    i, j, _ = _triu(C.shape[0])
    C = np.ascontiguousarray(C)
    return (C[i] * C[j]).T


def _quadratic_form(C, cov):
    """c_i^T cov_j c_i for every instance i of C (K, b) and feature j,
    shape (b, D1)."""
    return _khatri_rao(C) @ _pack(cov, doubled=True).T


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
    (K, b) with weights (w, w * Y) from :func:`_weighted`: the packed
    precision sums sum_i w_ij c_i c_i^T, (K(K+1)/2, D1), from one GEMM
    against :func:`_khatri_rao`, and C (w * Y), (K, D1). A fit adds them
    up over its blocks of instances and finishes them with
    :func:`_e_step_finish`."""
    return _khatri_rao(C).T @ w, C @ wy


def _precisions(prec_packed):
    """The loading precisions C diag(w_j) C^T + I, (D1, K, K), from the
    packed sums of :func:`_e_step_sums`, unpacked once."""
    k = (math.isqrt(8 * prec_packed.shape[0] + 1) - 1) // 2
    return _unpack(prec_packed).transpose(2, 0, 1) + np.eye(k)


def _posterior(rhs, chol_inv, cov):
    """The :class:`GaussianState` of covariances cov = chol_inv^T
    chol_inv, (D1, K, K), chol_inv the inverses of the precisions'
    Cholesky factors, and the sums' C (w * Y), rhs (K, D1)."""
    mean = np.matmul(cov, rhs.T[:, :, None])[:, :, 0]
    return GaussianState(mean=mean, cov=cov, cov_terms=_cov_terms(chol_inv))


def _e_step_finish(prec_packed, rhs):
    """Exact loading posteriors from the sums of :func:`_e_step_sums`.

    Feature j's posterior has precision C diag(w_j) C^T + I
    (:func:`_precisions`), with w_j the per-entry precisions 1 / sigma2
    (0 where hidden), covariance its inverse and mean cov_j C (w_j * y_j).
    The precisions are symmetric positive definite by construction and
    are factored by one batched Cholesky call, L_j L_j^T, giving
    cov_j = L_j^-T L_j^-1 and the state's :func:`_cov_terms`. A precision
    that is not finite or not positive definite raises NumericalError
    naming the first such feature. :func:`engine._global_step` factors
    these precisions in one stack with the categorical blocks'. Returns a
    :class:`GaussianState`.
    """
    prec = _precisions(prec_packed)
    chol = _cholesky(prec)
    if chol is None:
        j = next((j for j, m in enumerate(prec) if _cholesky(m) is None), None)
        raise NumericalError(f"loading posterior factorization failed for feature {j}")
    chol_inv = np.linalg.inv(chol)
    return _posterior(rhs, chol_inv, np.matmul(chol_inv.transpose(0, 2, 1), chol_inv))


def gaussian_m_step(state, C, Y, mask, alpha, beta, bits=None):
    """MAP update of the per-entry noise variances of the instances of
    C (K, b), which its caller passes one block at a time: the quadratic
    forms take K(K+1)/2 floats per instance. bits are mask's
    :func:`_select_bits`, made here if None; a caller that takes many
    M-steps on the same rows makes them once.

    For each observed entry the update is the posterior mode under the
    inverse-gamma prior:

        ((y - mean_j.c)^2 + c^T cov_j c + 2/beta) / (2 (alpha + 1) + 1)

    Masked-out entries are pinned to the prior mode by a select on the
    entries' bits, then a small floor keeps downstream divisions finite
    when a feature is fit exactly.
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
        # prior ^ ((sigma2 ^ prior) & bits): sigma2 where observed, else the
        # prior mode, as np.where(mask, sigma2, prior) bit for bit
        prior = np.float64(prior_mode_variance(alpha, beta)).view(np.int64)
        words = sigma2.view(np.int64)
        words ^= prior
        words &= _select_bits(mask) if bits is None else bits
        words ^= prior
    return np.maximum(sigma2, VARIANCE_FLOOR, out=sigma2)


def gaussian_score_terms(state, wy):
    """The Gaussian block's part of the score quadratic programs.

    Returns (moments, rho) with moments of shape (D1, K(K+1)/2), packed
    as by :func:`_pack`, and rho of shape (P, K), for the instances whose
    weighted data wy = w * Y (:func:`_weighted`) is given:

        H_i   = sum_j w_ij moments_j,  moments_j = cov_j + mean_j mean_j^T
        rho_i = sum_j w_ij y_ij mean_j

    over the observed features of instance i (w_ij = 1 / sigma2_ij, and 0
    where hidden). :func:`engine.score_system` forms H for a block of
    instances in one GEMM with every other block's terms.
    """
    return _pack(state.cov) + _khatri_rao(state.mean.T), wy @ state.mean


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
    total = n_obs * (
        -0.5 * np.log(2.0 * np.pi) + alpha * np.log(rate) - math.lgamma(alpha)
    )
    total -= (
        (alpha + 1.5) * log_sigma2.sum()
        + 0.5 * np.vdot(Y, wy)
        + rate * w.sum()
    )
    return float(total)


def _cov_terms(root):
    """The objective's terms of the covariances alone, sum_j (log det cov_j
    - tr cov_j + K) / 2, from triangular roots (D1, K, K) with positive
    diagonals, root_j^T root_j or root_j root_j^T = cov_j, or None."""
    if root is None:
        raise NumericalError("loading posterior covariance is not positive definite")
    diagonals = np.diagonal(root, axis1=1, axis2=2)
    return float(np.log(diagonals).sum() - 0.5 * np.einsum("jkl,jkl->", root, root)
                 + 0.5 * diagonals.size)


def gaussian_posterior_terms(state):
    """E_q[log N(u_j; 0, I)] + H(q_j) summed over the features: the
    Gaussian objective's part that depends on the loading posteriors alone
    (see :func:`gaussian_entry_terms`). A state without cov_terms (a loaded
    model's) gets them once, from its covariances' Cholesky factors."""
    if state.cov_terms is None:
        state.cov_terms = _cov_terms(_cholesky(state.cov))
    return state.cov_terms - 0.5 * float(np.einsum("jk,jk->", state.mean, state.mean))
