"""Exponential-family primitives as the fit and the scoring paths run them:
lse and the Bohning bound through the bound kernel
(multinomial._bound_terms), the pivoted softmax through
multinomial._probabilities, and the curvature A through the kernel's
product and score_base, against exact values and dense oracles."""

import mpmath
import numpy as np
import pytest

from mmfa import MultinomialState
from mmfa import multinomial as mmod
from oracles import bohning_bound, bound_terms, dense_curvature, pivot_lse


def lse(eta):
    """The log-partition as the fit forms it: the bound at its expansion
    point."""
    return bohning_bound(eta, eta)


def softmax_pivot(eta):
    """All D probabilities of one log-odds vector as the program's callers
    take them: multinomial._probabilities of a one-instance column."""
    return mmod._probabilities(np.asarray(eta, dtype=float)[:, None])[0]


def kernel_curvature_product(v):
    """A v along the last axis as the bound kernel forms it: with no counts
    and one trial, ztilde = -(softmax(v) - A v), so A v = ztilde + softmax(v)."""
    rows = np.atleast_2d(np.asarray(v, dtype=float))
    ztilde = bound_terms(np.zeros_like(rows), np.ones(len(rows)), rows)
    product = ztilde + mmod._probabilities(rows.T)[:, :-1]
    return product if np.ndim(v) > 1 else product[0]


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
                numeric = (pivot_lse(psi + step) - pivot_lse(psi - step)) / (2 * h)
                assert grad[d] == pytest.approx(numeric, abs=1e-6)


class TestBohningBound:
    def test_equality_at_expansion_point(self):
        eta = np.array([0.3, -1.2])
        assert bohning_bound(eta, eta) == pytest.approx(pivot_lse(eta), abs=1e-15)

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
            assert bohning_bound(eta, psi) >= pivot_lse(eta) - 1e-12


class TestCurvatureMatrix:
    """The curvature A where the program uses it: its product inside the
    bound kernel, and its trace and all-ones form inside score_base."""

    def test_two_categories_scalar_quarter(self):
        np.testing.assert_allclose(kernel_curvature_product([4.0]), [1.0], atol=1e-15)

    def test_three_categories(self):
        np.testing.assert_allclose(
            kernel_curvature_product([1.0, 1.0]), [1.0 / 6.0, 1.0 / 6.0], atol=1e-15
        )

    def test_matches_dense_product(self):
        rng = np.random.default_rng(5)
        dense = dense_curvature(8)
        for _ in range(25):
            v = rng.standard_normal(7)
            np.testing.assert_allclose(
                kernel_curvature_product(v), dense @ v, atol=1e-14
            )

    def test_positive_semidefinite_and_trace(self):
        rng = np.random.default_rng(9)
        for d2 in range(2, 12):
            # at inv(P) = I and no other term, score_base is tr(A) I
            eye, zero = np.eye(2), np.zeros((2, 2))
            state = MultinomialState(d2, eye, eye, zero, np.zeros((2, d2 - 1)))
            np.testing.assert_array_equal(
                mmod.score_base(state), (d2 - 1) ** 2 / (2 * d2) * eye
            )
            eigs = np.linalg.eigvalsh(dense_curvature(d2))
            assert eigs.min() >= -1e-14
            for _ in range(20):
                v = rng.standard_normal(d2 - 1)
                assert v @ kernel_curvature_product(v) >= -1e-14

    def test_known_eigenvalues(self):
        d2 = 6
        # the kernel's product of each unit vector: A's columns
        eigs = np.sort(np.linalg.eigvalsh(kernel_curvature_product(np.eye(d2 - 1))))
        np.testing.assert_allclose(eigs[0], 1.0 / (2 * d2), atol=1e-12)
        np.testing.assert_allclose(eigs[1:], 0.5, atol=1e-12)

    def test_score_base_matches_dense_formula(self):
        # tr(A) inv(P) + 1^T A 1 cross_cov + M M^T / 2 - (M 1)(M 1)^T / 2D
        rng = np.random.default_rng(12)
        k = 3
        for d2 in range(2, 12):
            G = rng.standard_normal((k, k))
            precision = G @ G.T + np.eye(k)
            cross = rng.standard_normal((k, k))
            M = rng.standard_normal((k, d2 - 1))
            state = MultinomialState(
                d2, precision, np.linalg.inv(precision), cross + cross.T, M
            )
            A = dense_curvature(d2)
            rows = M.sum(axis=1)
            want = (
                np.trace(A) * state.precision_inv
                + A.sum() * state.cross_cov
                + 0.5 * M @ M.T
                - np.outer(rows, rows) / (2 * d2)
            )
            np.testing.assert_allclose(
                mmod.score_base(state), want, rtol=1e-13, atol=1e-14
            )
