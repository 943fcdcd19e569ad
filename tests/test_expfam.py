"""Exponential-family primitive tests: exact values, bound properties,
and the matrix-free curvature product against a dense oracle."""

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from mmfa import CurvatureMatrix, DimensionMismatch, adjusted_counts, softmax_pivot


def bohning_bound(eta, psi):
    """The bound on lse(eta) around psi as the fit forms it: with no counts
    and one trial, adjusted_counts gives (ztilde, offset), and the bound is
    offset - eta^T ztilde + eta^T A eta / 2. One vector or a batch of rows."""
    eta, psi = np.asarray(eta, dtype=float), np.asarray(psi, dtype=float)
    rows = np.atleast_2d(psi)
    d2 = rows.shape[-1] + 1
    ztilde, offset = adjusted_counts(
        np.zeros_like(rows), np.ones(len(rows)), rows, d2, return_offset=True
    )
    quad = CurvatureMatrix(d2).quad(eta)
    value = offset - np.sum(eta * ztilde, axis=-1) + 0.5 * quad
    return value if psi.ndim > 1 else value[0]


def lse(eta):
    """The log-partition as the fit forms it: the bound at its expansion
    point."""
    return bohning_bound(eta, eta)


def reference_lse(eta):
    """log(1 + sum(exp(eta))) by scipy, over [eta, 0]."""
    eta = np.asarray(eta, dtype=float)
    pivot = np.zeros(eta.shape[:-1] + (1,))
    return logsumexp(np.concatenate([eta, pivot], axis=-1), axis=-1)


class TestLse:
    def test_two_category_symmetric(self):
        assert lse(np.array([0.0])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_three_category_uniform(self):
        assert lse(np.array([0.0, 0.0])) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_large_entry_no_overflow(self):
        # extended-precision oracle: log to 50 digits, then round to float
        with mpmath.workdps(50):
            expected = float(mpmath.log(1 + mpmath.e**1000))
        assert lse(np.array([1000.0])) == pytest.approx(expected, rel=1e-15)

    def test_extreme_negative(self):
        with mpmath.workdps(50):
            expected = float(mpmath.log(1 + mpmath.e**-700))
        assert lse(np.array([-700.0])) == pytest.approx(expected, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lse(np.array([np.nan]))
        with pytest.raises(ValueError):
            lse(np.array([np.inf, 0.0]))

    def test_batch_rows(self):
        out = lse(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(np.log(3.0))


class TestSoftmaxPivot:
    def test_zero_parameters_uniform(self):
        np.testing.assert_allclose(
            softmax_pivot(np.zeros(2)), np.full(3, 1.0 / 3.0), atol=1e-15
        )

    def test_log_two(self):
        np.testing.assert_allclose(
            softmax_pivot(np.array([np.log(2.0)])), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15
        )

    def test_matches_naive_ratio(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            eta = rng.uniform(-5, 5, size=5)  # D2 = 6
            unnorm = np.concatenate([np.exp(eta), [1.0]])
            np.testing.assert_allclose(
                softmax_pivot(eta), unnorm / unnorm.sum(), atol=1e-12
            )

    def test_sums_to_one_at_extreme_entries(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            eta = rng.uniform(-500, 500, size=rng.integers(1, 8))
            p = softmax_pivot(eta)
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p >= 0).all() and (p <= 1).all()

    def test_gradient_of_lse(self):
        # grad lse(psi) equals the non-pivot probabilities; central differences
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(20):
            psi = rng.uniform(-3, 3, size=4)
            grad = softmax_pivot(psi)[:-1]
            for d in range(4):
                step = np.zeros(4)
                step[d] = h
                numeric = (
                    reference_lse(psi + step) - reference_lse(psi - step)
                ) / (2 * h)
                assert grad[d] == pytest.approx(numeric, abs=1e-6)


class TestBohningBound:
    def test_equality_at_expansion_point(self):
        eta = np.array([0.3, -1.2])
        assert bohning_bound(eta, eta) == pytest.approx(reference_lse(eta), abs=1e-15)

    def test_two_category_hand_value(self):
        # lse(0) + 0.5 * 1 + 0.5 * 0.25 * 1
        got = bohning_bound(np.array([1.0]), np.array([0.0]))
        assert got == pytest.approx(np.log(2.0) + 0.5 + 0.125, abs=1e-12)

    def test_dominates_lse_everywhere(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d2 = int(rng.integers(2, 11))
            eta = rng.uniform(-6, 6, size=d2 - 1)
            psi = rng.uniform(-6, 6, size=d2 - 1)
            assert bohning_bound(eta, psi) >= reference_lse(eta) - 1e-12


class TestCurvatureMatrix:
    def test_two_categories_scalar_quarter(self):
        curv = CurvatureMatrix(2)
        np.testing.assert_allclose(curv.apply(np.array([4.0])), [1.0], atol=1e-15)

    def test_three_categories(self):
        curv = CurvatureMatrix(3)
        np.testing.assert_allclose(
            curv.apply(np.array([1.0, 1.0])), [1.0 / 6.0, 1.0 / 6.0], atol=1e-15
        )

    def test_matches_dense_product(self):
        rng = np.random.default_rng(5)
        curv = CurvatureMatrix(8)
        dense = curv.dense()
        for _ in range(25):
            v = rng.standard_normal(7)
            np.testing.assert_allclose(curv.apply(v), dense @ v, atol=1e-14)

    def test_positive_semidefinite_and_trace(self):
        rng = np.random.default_rng(9)
        for d2 in range(2, 12):
            curv = CurvatureMatrix(d2)
            assert curv.trace() == pytest.approx((d2 - 1) ** 2 / (2 * d2), abs=0)
            eigs = np.linalg.eigvalsh(curv.dense())
            assert eigs.min() >= -1e-14
            for _ in range(20):
                v = rng.standard_normal(d2 - 1)
                assert curv.quad(v) >= -1e-14

    def test_known_eigenvalues(self):
        d2 = 6
        eigs = np.sort(np.linalg.eigvalsh(CurvatureMatrix(d2).dense()))
        np.testing.assert_allclose(eigs[0], 1.0 / (2 * d2), atol=1e-12)
        np.testing.assert_allclose(eigs[1:], 0.5, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            CurvatureMatrix(4).apply(np.zeros(5))
