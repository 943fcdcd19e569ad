"""Test-side oracles of the categorical bound: the dense curvature A, a
naive pivoted softmax, lse by scipy, and the fit's bound kernel in the
(P, D2-1) layout with the bound it forms. Log-odds have the category axis
last."""

import numpy as np
from scipy.special import logsumexp

from mmfa import multinomial as mmod


def dense_curvature(d2):
    """Bohning's fixed curvature A = (I - 11^T / D2) / 2, (D2-1) x (D2-1)."""
    return 0.5 * (np.eye(d2 - 1) - np.ones((d2 - 1, d2 - 1)) / d2)


def _with_pivot(eta):
    eta = np.asarray(eta, dtype=float)
    return np.concatenate([eta, np.zeros(eta.shape[:-1] + (1,))], axis=-1)


def pivot_softmax(eta):
    """exp([eta, 0]) / sum(exp([eta, 0])): all D2 probabilities, the
    pivot's last. Unshifted, so only for log-odds below about 700."""
    unnorm = np.exp(_with_pivot(eta))
    return unnorm / unnorm.sum(axis=-1, keepdims=True)


def pivot_lse(eta):
    """log(1 + sum(exp(eta))) by scipy, over [eta, 0]."""
    return logsumexp(_with_pivot(eta), axis=-1)


def bound_terms(counts, trials, psi, offsets=False):
    """The fit's kernel, mmod._bound_terms, on (P, D2-1) counts and
    expansion points: ztilde (P, D2-1), or with offsets (ztilde, offset)."""
    terms = mmod._bound_terms(
        np.asarray(counts, dtype=float).T,
        np.asarray(trials, dtype=float),
        np.asarray(psi, dtype=float).T,
        offsets,
    )
    return (terms[0].T, terms[1]) if offsets else terms.T


def bohning_bound(eta, psi):
    """The bound on lse(eta) around psi as the fit forms it: with no counts
    and one trial, the kernel gives (ztilde, offset), and the bound is
    offset - eta^T ztilde + eta^T A eta / 2. One vector or a batch of rows."""
    eta, psi = np.asarray(eta, dtype=float), np.asarray(psi, dtype=float)
    rows = np.atleast_2d(psi)
    ztilde, offset = bound_terms(
        np.zeros_like(rows), np.ones(len(rows)), rows, offsets=True
    )
    A = dense_curvature(rows.shape[-1] + 1)
    quad = np.einsum("...i,ij,...j->...", eta, A, eta)
    value = offset - np.sum(eta * ztilde, axis=-1) + 0.5 * quad
    return value if psi.ndim > 1 else value[0]
