"""Multinomial modality tests.

The load-bearing oracle materializes the stacked-loading posterior: the
precision sum(trials_i * Kron(I, c_i) A Kron(I, c_i)^T) + I is inverted
densely and compared against the structured two-matrix reconstruction.
The score-update quadratic is checked against the expected-bound trace
identity evaluated with the dense posterior.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from mmfa import HeteroDataset, MultinomialData, NumericalError
from mmfa import multinomial as mmod
from mmfa.engine import score_system
from mmfa.multinomial import (
    _e_step_finish,
    _e_step_sums,
    _log_factorial,
    expected_bound_loglik,
    log_multinomial_coefficient,
    multinomial_posterior_terms,
    psi_update,
    score_base,
)
from oracles import bound_terms, dense_curvature, pivot_lse, pivot_softmax


def e_step(C, trials, ztilde, d2):
    """The category loading posterior as a fit finishes it from one
    block's sums; ztilde (P, D2-1) as oracles.bound_terms returns it."""
    return _e_step_finish(*_e_step_sums(C, trials, ztilde.T), d2)


def multinomial_score_terms(state, ztilde, trials):
    """(H, rho) stacks of one block, through engine.score_system on a
    dataset of that block alone: H_i = trials_i * base."""
    block = MultinomialData(
        counts=np.zeros_like(ztilde), trials=trials, n_categories=state.n_categories
    )
    return score_system(HeteroDataset(categoricals=[block]), None, None, [state],
                        [ztilde.T])


def random_instance(rng, k, p, d2, max_trials=6):
    C = rng.standard_normal((k, p))
    trials = rng.integers(0, max_trials + 1, size=p).astype(float)
    probs = rng.dirichlet(np.ones(d2), size=p)
    z_full = np.stack(
        [rng.multinomial(int(n), pr) for n, pr in zip(trials, probs)]
    ).astype(float)
    psi = 0.5 * rng.standard_normal((p, d2 - 1))
    return C, trials, z_full[:, :-1], psi


def dense_posterior(C, trials, ztilde, d2):
    k, p = C.shape
    A = dense_curvature(d2)
    dim = (d2 - 1) * k
    prec = np.eye(dim)
    rhs = np.zeros(dim)
    for i in range(p):
        Ci = np.kron(np.eye(d2 - 1), C[:, i : i + 1])
        prec += trials[i] * Ci @ A @ Ci.T
        rhs += Ci @ ztilde[i]
    cov = np.linalg.inv(prec)
    return cov, cov @ rhs


class TestMultinomialData:
    def test_from_full_counts(self):
        block = MultinomialData.from_full_counts([[1, 2, 3], [0, 0, 4]])
        np.testing.assert_array_equal(block.trials, [6.0, 4.0])
        assert block.n_categories == 3
        np.testing.assert_array_equal(block.full_counts()[:, -1], [3.0, 4.0])

    def test_rejects_overfull_rows(self):
        with pytest.raises(ValueError):
            MultinomialData(counts=[[3.0]], trials=[2.0], n_categories=2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultinomialData(counts=[[-1.0]], trials=[2.0], n_categories=2)


class TestAdjustedCounts:
    def test_zero_expansion_binary(self):
        got = bound_terms(np.array([[1.0]]), np.array([1.0]), np.array([[0.0]]))
        assert got[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_trials_passthrough(self):
        z = np.array([[0.0, 0.0]])
        got = bound_terms(z, np.array([0.0]), np.array([[1.0, -2.0]]))
        np.testing.assert_array_equal(got, z)

    def test_elementwise_formula_oracle(self):
        rng = np.random.default_rng(2)
        k, p, d2 = 2, 7, 4
        _, trials, counts, psi = random_instance(rng, k, p, d2)
        got = bound_terms(counts, trials, psi)
        A = dense_curvature(d2)
        for i in range(p):
            probs = pivot_softmax(psi[i])[:-1]
            expected = counts[i] - trials[i] * (probs - A @ psi[i])
            np.testing.assert_allclose(got[i], expected, atol=1e-13)

    def test_offset_from_the_same_softmax(self):
        rng = np.random.default_rng(3)
        _, trials, counts, psi = random_instance(rng, 2, 9, 5)
        psi[0] = [40.0, -3.0, 1.0, 2.0]  # the shift by the largest entry matters
        ztilde, offset = bound_terms(counts, trials, psi, offsets=True)
        np.testing.assert_array_equal(ztilde, bound_terms(counts, trials, psi))
        A = dense_curvature(5)
        for i in range(9):
            probs = pivot_softmax(psi[i])[:-1]
            expected = pivot_lse(psi[i]) - psi[i] @ probs + 0.5 * psi[i] @ A @ psi[i]
            assert offset[i] == pytest.approx(expected, rel=1e-13, abs=1e-13)


class TestBoundKernel:
    """The category-first kernel the fit calls (_bound_terms) against the
    bound's formula taken instance by instance, on category-first arrays
    and on transposed views of (P, D2-1) ones."""

    @staticmethod
    def reference(counts, trials, psi, d2):
        ztilde, offset = [], []
        for i in range(len(psi)):
            probs = pivot_softmax(psi[i])[:-1]
            # A psi from A's rank-one structure, (psi - sum(psi) / D2) / 2: at
            # |psi| = 700 a product with the dense A rounds wider than tol
            a_psi = 0.5 * (psi[i] - psi[i].sum() / d2)
            ztilde.append(counts[i] - trials[i] * (probs - a_psi))
            offset.append(
                pivot_lse(psi[i]) - psi[i] @ probs + 0.5 * np.sum(psi[i] * a_psi)
            )
        return np.array(ztilde), np.array(offset)

    @pytest.mark.parametrize(
        "d2, scale, zero_trials",
        [(2, 0.5, False), (6, 0.5, True), (6, 700.0, False), (24, 3.0, False)],
        ids=["binary", "zero-trials", "psi-700", "wide"],
    )
    def test_matches_instance_formula(self, d2, scale, zero_trials):
        rng = np.random.default_rng(d2)
        _, trials, counts, _ = random_instance(rng, 2, 11, d2)
        if zero_trials:
            trials[:] = 0.0
            counts[:] = 0.0
        psi = scale * rng.uniform(-1.0, 1.0, size=(11, d2 - 1))
        psi[0] = scale  # every log-odds at +scale
        psi[1] = -scale  # the pivot the largest
        want_z, want_offset = self.reference(counts, trials, psi, d2)
        tol = 1e-13 * max(1.0, scale)

        ztilde, offset = mmod._bound_terms(
            np.ascontiguousarray(counts.T), trials, np.ascontiguousarray(psi.T),
            offsets=True,
        )
        assert ztilde.shape == (d2 - 1, 11)
        np.testing.assert_allclose(ztilde.T, want_z, rtol=0, atol=tol)
        np.testing.assert_allclose(offset, want_offset, rtol=0, atol=tol)
        if zero_trials:
            np.testing.assert_array_equal(ztilde, 0.0)

        got_z, got_offset = bound_terms(counts, trials, psi, offsets=True)
        np.testing.assert_allclose(got_z, want_z, rtol=0, atol=tol)
        np.testing.assert_allclose(got_offset, want_offset, rtol=0, atol=tol)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_psi_raises(self, bad):
        psi = np.zeros((4, 3))
        psi[2, 1] = bad
        counts, trials = np.zeros((4, 3)), np.ones(4)
        with pytest.raises(ValueError, match="non-finite"):
            bound_terms(counts, trials, psi)
        with pytest.raises(ValueError, match="non-finite"):
            mmod._bound_terms(counts.T, trials, psi.T, offsets=True)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_finite_psi_whose_sum_overflows_is_not_rejected(self):
        # the finiteness screen reads the column sums; a finite column
        # whose sum overflows falls through to the entrywise check
        psi = np.array([[1e308], [1e308]])
        mmod._bound_terms(np.zeros((2, 1)), np.ones(1), psi, offsets=True)


class TestEStep:
    def test_zero_trials_gives_prior(self):
        rng = np.random.default_rng(6)
        k, p, d2 = 3, 5, 4
        C = rng.standard_normal((k, p))
        ztilde = rng.standard_normal((p, d2 - 1))
        state = e_step(C, np.zeros(p), ztilde, d2)
        np.testing.assert_allclose(state.precision, np.eye(k), atol=1e-14)
        np.testing.assert_allclose(state.cross_cov, 0.0, atol=1e-14)
        np.testing.assert_allclose(state.loading_mean, C @ ztilde, atol=1e-13)

    def test_single_unit_vector_score(self):
        k, d2 = 3, 3
        C = np.zeros((k, 1))
        C[0, 0] = 1.0
        state = e_step(C, np.ones(1), np.zeros((1, d2 - 1)), d2)
        np.testing.assert_allclose(
            state.precision, np.diag([1.5, 1.0, 1.0]), atol=1e-14
        )

    def test_structured_matches_dense_inverse(self):
        rng = np.random.default_rng(10)
        for trial in range(25):
            k = int(rng.integers(1, 4))
            p = int(rng.integers(1, 7))
            d2 = int(rng.integers(2, 6))
            C, trials, counts, psi = random_instance(rng, k, p, d2)
            ztilde = bound_terms(counts, trials, psi)
            state = e_step(C, trials, ztilde, d2)
            cov_dense, mean_dense = dense_posterior(C, trials, ztilde, d2)
            ones = np.ones((d2 - 1, d2 - 1))
            structured = np.kron(np.eye(d2 - 1), state.precision_inv) + np.kron(
                ones, state.cross_cov
            )
            np.testing.assert_allclose(structured, cov_dense, atol=1e-9)
            np.testing.assert_allclose(
                state.loading_mean.T.reshape(-1), mean_dense, atol=1e-9
            )

    def test_precision_dominates_identity(self):
        rng = np.random.default_rng(14)
        C, trials, counts, psi = random_instance(rng, 3, 20, 5)
        state = e_step(C, trials, bound_terms(counts, trials, psi), 5)
        assert np.linalg.eigvalsh(state.precision).min() >= 1.0 - 1e-10

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_overflowing_block_precision_raises_numerical_error(self):
        rng = np.random.default_rng(7)
        C, trials, counts, psi = random_instance(rng, 3, 6, 4)
        trials += 1.0
        ztilde = bound_terms(counts, trials, psi)
        with pytest.raises(NumericalError, match="block precision"):
            e_step(1e160 * C, trials, ztilde, 4)

    @pytest.mark.parametrize(
        "matrix",
        [[[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]],
        ids=["inf", "nan", "indefinite"],
    )
    def test_e_step_finish_failure_is_numerical_error(self, matrix):
        # gram / 2 + I is the given block precision
        gram = 2.0 * (np.array(matrix) - np.eye(2))
        with pytest.raises(NumericalError, match="Cholesky"):
            _e_step_finish(gram, np.zeros((2, 3)), 4)

    def test_e_step_finish_matches_dense_solve(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 6))
        matrix = M @ M.T + np.eye(4)
        rhs = rng.standard_normal((4, 3))
        state = _e_step_finish(2.0 * M @ M.T, rhs, 4)
        np.testing.assert_allclose(
            state.precision_inv @ rhs, np.linalg.solve(matrix, rhs), rtol=1e-12
        )
        shifted = matrix / 3.0 + np.eye(4)
        residual = np.eye(4) - np.linalg.solve(matrix, np.eye(4))
        np.testing.assert_allclose(
            state.cross_cov,
            residual / 4.0 @ (np.linalg.inv(matrix) + np.linalg.solve(shifted, residual)),
            rtol=1e-12,
        )


def two_cholesky_finish(gram, cz, d2):
    """The finish of earlier versions, an independent oracle: inv(precision)
    and the shifted solve through two Cholesky factorizations, and the
    objective's posterior terms through two slogdet calls. Returns
    (precision_inv, cross_cov, loading_mean, posterior terms)."""
    k = gram.shape[0]
    eye = np.eye(k)

    def solve(matrix, rhs):
        chol_inv = np.linalg.inv(np.linalg.cholesky(matrix))
        return chol_inv.T @ (chol_inv @ rhs)

    precision = 0.5 * gram + eye
    precision_inv = solve(precision, eye)
    residual = eye - precision_inv
    inner = solve(precision / (d2 - 1.0) + eye, residual)
    cross_cov = residual / d2 @ (precision_inv + inner)
    cross_cov = 0.5 * (cross_cov + cross_cov.T)
    mean = precision_inv @ cz + np.outer(cross_cov @ cz.sum(axis=1), np.ones(d2 - 1))
    precision_inv = 0.5 * (precision_inv + precision_inv.T)
    d = d2 - 1
    sign, logdet_prec = np.linalg.slogdet(precision)
    sign2, logdet_ones = np.linalg.slogdet(precision_inv + d * cross_cov)
    assert sign > 0 and sign2 > 0
    terms = (
        -0.5 * (np.sum(mean**2) + d * (np.trace(precision_inv) + np.trace(cross_cov)))
        + 0.5 * d * k + 0.5 * (-(d - 1) * logdet_prec + logdet_ones)
    )
    return precision_inv, cross_cov, mean, terms


class TestFinishFactors:
    """The factors of one batched Cholesky call give what two Cholesky
    solves and two log-determinants gave before."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("d2", [2, 6, 21])
    def test_matches_two_cholesky_oracle(self, k, d2):
        rng = np.random.default_rng(100 * k + d2)
        C, trials, counts, psi = random_instance(rng, k, 60, d2)
        ztilde = bound_terms(counts, trials, psi)
        sums = _e_step_sums(C, trials, ztilde.T)
        state = _e_step_finish(*sums, d2)
        want = two_cholesky_finish(*sums, d2)
        for got, ref in zip((state.precision_inv, state.cross_cov, state.loading_mean),
                            want[:3]):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        assert multinomial_posterior_terms(state) == pytest.approx(want[3], rel=1e-12)

    def test_state_without_terms_gets_the_same(self):
        # a loaded model's states carry no cov_terms and compute them on
        # first use, from the same factors
        rng = np.random.default_rng(3)
        C, trials, counts, psi = random_instance(rng, 3, 40, 5)
        state = e_step(C, trials, bound_terms(counts, trials, psi), 5)
        bare = replace(state, cov_terms=None)
        assert multinomial_posterior_terms(bare) == multinomial_posterior_terms(state)
        assert bare.cov_terms == state.cov_terms

    def test_zero_sums_give_the_prior(self):
        state = _e_step_finish(np.zeros((3, 3)), np.zeros((3, 4)), 5)
        np.testing.assert_array_equal(state.precision_inv, np.eye(3))
        np.testing.assert_array_equal(state.cross_cov, np.zeros((3, 3)))
        np.testing.assert_array_equal(state.loading_mean, np.zeros((3, 4)))
        assert multinomial_posterior_terms(state) == 0.0


class TestPsiUpdate:
    def test_zeros(self):
        assert np.all(psi_update(np.zeros((2, 3)), np.ones((2, 4))) == 0.0)
        assert np.all(psi_update(np.ones((2, 3)), np.zeros((2, 4))) == 0.0)

    def test_maximizes_expected_bound(self):
        # coordinate grid search around the closed form: no component of
        # psi_i can improve the expected bound
        rng = np.random.default_rng(33)
        k, p, d2 = 2, 4, 3
        C, trials, counts, psi0 = random_instance(rng, k, p, d2, max_trials=5)
        trials += 1.0  # make every instance carry data
        ztilde = bound_terms(counts, trials, psi0)
        state = e_step(C, trials, ztilde, d2)
        psi = psi_update(state.loading_mean, C)
        cov_dense, mean_dense = dense_posterior(C, trials, ztilde, d2)
        A = dense_curvature(d2)

        def neg_expected_bound(i, psi_i):
            # E[bound(eta_i; psi_i)] under the dense posterior of eta_i
            Ci = np.kron(np.eye(d2 - 1), C[:, i : i + 1])
            m = Ci.T @ mean_dense
            S = Ci.T @ cov_dense @ Ci
            probs = pivot_softmax(psi_i)[:-1]
            val = (
                pivot_lse(psi_i)
                + (m - psi_i) @ probs
                + 0.5 * (m - psi_i) @ A @ (m - psi_i)
                + 0.5 * np.trace(A @ S)
            )
            return val

        for i in range(p):
            best = psi[i]
            base = neg_expected_bound(i, best)
            for d in range(d2 - 1):
                for eps in np.linspace(-0.2, 0.2, 41):
                    if eps == 0.0:
                        continue
                    cand = best.copy()
                    cand[d] += eps
                    assert neg_expected_bound(i, cand) >= base - 1e-5


class TestScoreContribution:
    def test_zero_trials(self):
        rng = np.random.default_rng(3)
        k, p, d2 = 2, 3, 4
        C, _, counts, psi = random_instance(rng, k, p, d2)
        trials = np.zeros(p)
        ztilde = bound_terms(counts, trials, psi)
        state = e_step(C, trials, ztilde, d2)
        H, rho = multinomial_score_terms(state, ztilde, trials)
        H, rho = H[1], rho[1]
        np.testing.assert_array_equal(H, 0.0)
        np.testing.assert_allclose(rho, state.loading_mean @ counts[1], atol=1e-12)

    def test_binary_coefficients(self):
        # with two categories both trace coefficients reduce to 1/4
        rng = np.random.default_rng(4)
        C, trials, counts, psi = random_instance(rng, 2, 5, 2)
        trials += 1.0
        ztilde = bound_terms(counts, trials, psi)
        state = e_step(C, trials, ztilde, 2)
        i = 2
        H = multinomial_score_terms(state, ztilde, trials)[0][i]
        phi = state.loading_mean
        expected = trials[i] * (
            0.25 * state.precision_inv
            + 0.25 * state.cross_cov
            + 0.25 * phi @ phi.T
        )
        np.testing.assert_allclose(H, expected, atol=1e-12)

    def test_matches_dense_expected_bound_quadratic(self):
        # -c'Hc/2 + c'rho must agree (up to a c-independent constant) with
        # the expected bounded log-likelihood computed from the dense
        # posterior, for 20 random score vectors
        rng = np.random.default_rng(8)
        k, p, d2 = 2, 4, 4
        C, trials, counts, psi = random_instance(rng, k, p, d2)
        trials += 1.0
        ztilde = bound_terms(counts, trials, psi)
        state = e_step(C, trials, ztilde, d2)
        cov_dense, mean_dense = dense_posterior(C, trials, ztilde, d2)
        A = dense_curvature(d2)
        i = 3
        H, rho = multinomial_score_terms(state, ztilde, trials)
        H, rho = H[i], rho[i]

        def zeta(c):
            Ci = np.kron(np.eye(d2 - 1), c.reshape(k, 1))
            second_moment = cov_dense + np.outer(mean_dense, mean_dense)
            return (
                -0.5 * trials[i] * np.trace(Ci @ A @ Ci.T @ second_moment)
                + mean_dense @ Ci @ ztilde[i]
            )

        offsets = []
        for _ in range(20):
            c = rng.standard_normal(k)
            offsets.append(zeta(c) - (-0.5 * c @ H @ c + c @ rho))
        assert np.ptp(offsets) < 1e-8

    def test_H_symmetric(self):
        rng = np.random.default_rng(15)
        C, trials, counts, psi = random_instance(rng, 3, 6, 5)
        ztilde = bound_terms(counts, trials, psi)
        state = e_step(C, trials, ztilde, 5)
        H, _ = multinomial_score_terms(state, ztilde, trials)
        np.testing.assert_allclose(H, np.transpose(H, (0, 2, 1)), atol=1e-12)


class TestBoundConsistency:
    def test_bounded_likelihood_below_true_likelihood(self):
        # at sampled loadings, the bounded log-likelihood never exceeds the
        # exact multinomial log-likelihood
        rng = np.random.default_rng(21)
        k, p, d2 = 2, 5, 4
        C, trials, counts, psi = random_instance(rng, k, p, d2)
        A = dense_curvature(d2)
        pivot = trials - counts.sum(axis=1)
        log_coeff = (
            gammaln(trials + 1)
            - gammaln(counts + 1).sum(axis=1)
            - gammaln(pivot + 1)
        )
        for _ in range(50):
            V = rng.standard_normal((k, d2 - 1))
            eta = C.T @ V
            exact = log_coeff + (counts * eta).sum(axis=1) - trials * pivot_lse(eta)
            probs = pivot_softmax(psi)[..., :-1]
            bound_val = (
                pivot_lse(psi)
                + ((eta - psi) * probs).sum(axis=1)
                + 0.5 * np.einsum("pi,ij,pj->p", eta - psi, A, eta - psi)
            )
            bounded = log_coeff + (counts * eta).sum(axis=1) - trials * bound_val
            assert np.all(bounded <= exact + 1e-10)

    def test_expected_bound_matches_quadratic_form(self):
        # expected_bound_loglik equals c'rho - c'Hc/2 - N k(psi) + log coeff
        rng = np.random.default_rng(30)
        k, p, d2 = 3, 5, 4
        C, trials, counts, psi = random_instance(rng, k, p, d2)
        ztilde = bound_terms(counts, trials, psi)
        state = e_step(C, trials, ztilde, d2)
        got = expected_bound_loglik(state, counts, trials, psi, C)
        A = dense_curvature(d2)
        base = score_base(state)
        pivot = trials - counts.sum(axis=1)
        log_coeff = (
            gammaln(trials + 1)
            - gammaln(counts + 1).sum(axis=1)
            - gammaln(pivot + 1)
        )
        for i in range(p):
            c = C[:, i]
            probs = pivot_softmax(psi[i])[:-1]
            offset = pivot_lse(psi[i]) - psi[i] @ probs + 0.5 * psi[i] @ A @ psi[i]
            expected = (
                log_coeff[i]
                + c @ (state.loading_mean @ ztilde[i])
                - 0.5 * trials[i] * c @ base @ c
                - trials[i] * offset
            )
            assert got[i] == pytest.approx(expected, abs=1e-10)


class TestLogFactorial:
    def test_integers_match_gammaln(self):
        # whole numbers within the array's size gather from the table
        x = np.arange(1.0, 10001.0).reshape(100, 100)
        np.testing.assert_allclose(_log_factorial(x), gammaln(x + 1.0), rtol=1e-14)
        assert _log_factorial(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_large_integers_match_gammaln(self):
        # a maximum beyond the entry count calls lgamma per distinct value
        x = np.array([0.0, 3.0, 3.0, 1e7])
        np.testing.assert_allclose(_log_factorial(x), gammaln(x + 1.0), rtol=1e-14)

    def test_non_integers_match_gammaln(self):
        # away from lgamma's roots at x = 0 and x = 1, where only an
        # absolute tolerance is meaningful
        rng = np.random.default_rng(4)
        x = np.concatenate([[0.5, 1.5, 2.5, 7.25], rng.uniform(2.0, 1e4, 1000)])
        np.testing.assert_allclose(_log_factorial(x), gammaln(x + 1.0), rtol=1e-14)

    def test_coefficient_of_integer_counts_is_exact(self):
        rng = np.random.default_rng(5)
        full = rng.multinomial(60, [0.1, 0.2, 0.3, 0.4], size=50)
        data = MultinomialData.from_full_counts(full)
        want = [
            math.log(math.factorial(sum(row)) // math.prod(map(math.factorial, row)))
            for row in full.tolist()
        ]
        got = log_multinomial_coefficient(data.counts, data.trials)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_coefficient_of_fractional_counts(self):
        counts = np.array([[0.5, 1.25], [2.5, 0.0], [0.0, 0.0]])
        trials = np.array([3.0, 4.75, 0.0])
        pivot = trials - counts.sum(axis=1)
        want = gammaln(trials + 1) - gammaln(counts + 1).sum(axis=1) - gammaln(pivot + 1)
        got = log_multinomial_coefficient(counts, trials)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


@pytest.mark.slow
class TestScaling:
    @staticmethod
    def _time_ratio(base, double, reps=5):
        # median E-step time (the sums and the finish a fit runs, on
        # category-first adjusted counts) at the doubled size over that at
        # the base size; the two sizes' repetitions alternate, so a change
        # in host load between them moves both medians alike
        args = []
        for p, d2 in (base, double):
            rng = np.random.default_rng(0)
            k = 3
            C = rng.standard_normal((k, p))
            args.append((C, np.ones(p), rng.standard_normal((d2 - 1, p)), d2))
        times = ([], [])
        for _ in range(reps):
            for (C, trials, ztilde, d2), record in zip(args, times):
                start = time.perf_counter()
                _e_step_finish(*_e_step_sums(C, trials, ztilde), d2)
                record.append(time.perf_counter() - start)
        return np.median(times[1]) / np.median(times[0])

    def test_linear_in_instances(self):
        assert 1.6 <= self._time_ratio((150_000, 16), (300_000, 16)) <= 2.6

    def test_linear_in_categories(self):
        assert 1.6 <= self._time_ratio((40_000, 256), (40_000, 512)) <= 2.6
