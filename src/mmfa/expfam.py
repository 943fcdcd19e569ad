"""Multinomial exponential-family primitives.

Natural parameters here always refer to the pivoted parameterization: a
D-category multinomial is described by the D-1 log-odds against the last
(pivot) category, whose own natural parameter is fixed at zero. All
functions accept a single vector of length D-1 or a batch with the
category axis last.
"""

import numpy as np

from .errors import DimensionMismatch


def _check_finite(eta, name):
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[-1] < 1:
        raise ValueError(f"{name} must have at least one non-pivot entry")
    if not np.isfinite(eta).all():
        raise ValueError(f"{name} contains non-finite entries")
    return eta


def lse(eta):
    """log(1 + sum(exp(eta))), the multinomial log-partition function.

    Stable for entries far outside the range where exp overflows: the
    maximum of the entries and the implicit zero pivot is shifted out
    before exponentiating.
    """
    eta = _check_finite(eta, "eta")
    m = np.maximum(np.max(eta, axis=-1), 0.0)
    return m + np.log(np.exp(-m) + np.sum(np.exp(eta - m[..., None]), axis=-1))


def softmax_pivot(eta):
    """Probability vector over all D categories induced by pivoted log-odds.

    Returns an array with one more entry than the input along the last
    axis; the appended entry is the pivot-category probability.
    """
    eta = _check_finite(eta, "eta")
    m = np.maximum(np.max(eta, axis=-1, keepdims=True), 0.0)
    num = np.exp(eta - m)
    pivot = np.exp(-m)
    denom = pivot + np.sum(num, axis=-1, keepdims=True)
    return np.concatenate([num, pivot], axis=-1) / denom


class CurvatureMatrix:
    """Fixed curvature bound A = (I - 11^T / D) / 2 on the lse Hessian.

    A dominates the Hessian of lse everywhere, which is what makes the
    quadratic expansion in :func:`bohning_bound` a global upper bound.
    The matrix is (D-1) x (D-1) but is never materialized outside test
    oracles: products use the rank-structured form directly.
    """

    def __init__(self, n_categories):
        if n_categories < 2:
            raise ValueError("need at least two categories")
        self.n_categories = int(n_categories)

    @property
    def dim(self):
        return self.n_categories - 1

    def apply(self, v):
        """A @ v along the last axis of v."""
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"vector length {v.shape[-1]} does not match {self.dim}"
            )
        return 0.5 * (v - np.sum(v, axis=-1, keepdims=True) / self.n_categories)

    def quad(self, v):
        """v^T A v along the last axis."""
        return np.sum(np.asarray(v) * self.apply(v), axis=-1)

    def trace(self):
        d = self.n_categories
        return (d - 1) ** 2 / (2.0 * d)

    def ones_quad(self):
        """1^T A 1, the all-ones quadratic form."""
        d = self.n_categories
        return (d - 1) / (2.0 * d)

    def dense(self):
        d = self.n_categories
        return 0.5 * (np.eye(d - 1) - np.ones((d - 1, d - 1)) / d)


def bohning_bound(eta, psi):
    """Quadratic upper bound on lse(eta), expanded around psi.

    lse(psi) + (eta-psi)^T grad lse(psi) + (eta-psi)^T A (eta-psi) / 2,
    with A the fixed curvature of :class:`CurvatureMatrix`. Equals
    lse(eta) when eta == psi and is >= lse(eta) everywhere else.
    """
    eta = _check_finite(eta, "eta")
    psi = _check_finite(psi, "psi")
    if eta.shape[-1] != psi.shape[-1]:
        raise DimensionMismatch(
            f"eta has {eta.shape[-1]} entries but psi has {psi.shape[-1]}"
        )
    curv = CurvatureMatrix(eta.shape[-1] + 1)
    grad = softmax_pivot(psi)[..., :-1]
    diff = eta - psi
    return lse(psi) + np.sum(diff * grad, axis=-1) + 0.5 * curv.quad(diff)
