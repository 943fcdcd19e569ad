"""Multinomial exponential-family primitives.

Natural parameters here always refer to the pivoted parameterization: a
D-category multinomial is described by the D-1 log-odds against the last
(pivot) category, whose own natural parameter is fixed at zero, and
lse(eta) = log(1 + sum(exp(eta))) is the log-partition function. All
functions accept a single vector of length D-1 or a batch with the
category axis last.
"""

import numpy as np

from .errors import DimensionMismatch


def _shifted_exp(eta):
    """(m, exp(eta - m), exp(-m) + sum(exp(eta - m))) along the last axis,
    with m the maximum of the entries and the implicit zero pivot, all
    with the category axis kept. Shifting m out keeps entries far outside
    the range where exp overflows finite."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim == 0 or eta.shape[-1] < 1:
        raise ValueError("eta must have at least one non-pivot entry")
    if not np.isfinite(eta).all():
        raise ValueError("eta contains non-finite entries")
    m = np.maximum(np.max(eta, axis=-1, keepdims=True), 0.0)
    num = np.exp(eta - m)
    return m, num, np.exp(-m) + np.sum(num, axis=-1, keepdims=True)


def softmax_pivot(eta):
    """Probability vector over all D categories induced by pivoted log-odds.

    Returns an array with one more entry than the input along the last
    axis; the appended entry is the pivot-category probability.
    """
    m, num, denom = _shifted_exp(eta)
    return np.concatenate([num, np.exp(-m)], axis=-1) / denom


class CurvatureMatrix:
    """Fixed curvature bound A = (I - 11^T / D) / 2 on the lse Hessian.

    A dominates the Hessian of lse everywhere, so the Bohning bound

        lse(psi) + (eta - psi)^T grad lse(psi) + (eta - psi)^T A (eta - psi) / 2

    is >= lse(eta), with equality at eta = psi. The fit forms it through
    :func:`multinomial._bound_terms`.
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
