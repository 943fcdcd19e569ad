"""Multinomial modality tests.

The load-bearing oracle materializes the stacked-loading posterior: the
precision sum(trials_i * Kron(I, c_i) A Kron(I, c_i)^T) + I is inverted
densely and compared against the structured two-matrix reconstruction.
The score-update quadratic is checked against the expected-bound trace
identity evaluated with the dense posterior.
"""

import time

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from mmfa import (
    CurvatureMatrix,
    MultinomialData,
    NumericalError,
    adjusted_counts,
    psi_update,
    softmax_pivot,
)
from mmfa.multinomial import (
    _e_step_finish,
    _e_step_sums,
    expected_bound_loglik,
    multinomial_score_terms as block_score_terms,
    score_base,
    spd_solve,
)


def e_step(C, trials, ztilde, d2):
    """The category loading posterior as a fit finishes it from one
    block's sums."""
    return _e_step_finish(*_e_step_sums(C, trials, ztilde), d2)


def lse(eta):
    """log(1 + sum(exp(eta))) by scipy, over [eta, 0]."""
    eta = np.asarray(eta, dtype=float)
    pivot = np.zeros(eta.shape[:-1] + (1,))
    return logsumexp(np.concatenate([eta, pivot], axis=-1), axis=-1)


def multinomial_score_terms(state, ztilde, trials):
    """(H, rho) stacks of one block: H_i = trials_i * base."""
    base, rho = block_score_terms(state, ztilde)
    return np.asarray(trials, dtype=float)[:, None, None] * base, rho


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
    A = CurvatureMatrix(d2).dense()
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
        got = adjusted_counts(
            np.array([[1.0]]), np.array([1.0]), np.array([[0.0]]), 2
        )
        assert got[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_zero_trials_passthrough(self):
        z = np.array([[0.0, 0.0]])
        got = adjusted_counts(z, np.array([0.0]), np.array([[1.0, -2.0]]), 3)
        np.testing.assert_array_equal(got, z)

    def test_elementwise_formula_oracle(self):
        rng = np.random.default_rng(2)
        k, p, d2 = 2, 7, 4
        _, trials, counts, psi = random_instance(rng, k, p, d2)
        got = adjusted_counts(counts, trials, psi, d2)
        A = CurvatureMatrix(d2).dense()
        for i in range(p):
            probs = softmax_pivot(psi[i])[:-1]
            expected = counts[i] - trials[i] * (probs - A @ psi[i])
            np.testing.assert_allclose(got[i], expected, atol=1e-13)

    def test_offset_from_the_same_softmax(self):
        rng = np.random.default_rng(3)
        _, trials, counts, psi = random_instance(rng, 2, 9, 5)
        psi[0] = [40.0, -3.0, 1.0, 2.0]  # the shift by the largest entry matters
        ztilde, offset = adjusted_counts(counts, trials, psi, 5, return_offset=True)
        np.testing.assert_array_equal(ztilde, adjusted_counts(counts, trials, psi, 5))
        curv = CurvatureMatrix(5)
        for i in range(9):
            probs = softmax_pivot(psi[i])[:-1]
            expected = lse(psi[i]) - psi[i] @ probs + 0.5 * curv.quad(psi[i])
            assert offset[i] == pytest.approx(expected, rel=1e-13, abs=1e-13)


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
            ztilde = adjusted_counts(counts, trials, psi, d2)
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
        state = e_step(
            C, trials, adjusted_counts(counts, trials, psi, 5), 5
        )
        assert np.linalg.eigvalsh(state.precision).min() >= 1.0 - 1e-10

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_overflowing_block_precision_raises_numerical_error(self):
        rng = np.random.default_rng(7)
        C, trials, counts, psi = random_instance(rng, 3, 6, 4)
        trials += 1.0
        ztilde = adjusted_counts(counts, trials, psi, 4)
        with pytest.raises(NumericalError, match="block precision"):
            e_step(1e160 * C, trials, ztilde, 4)

    @pytest.mark.parametrize(
        "matrix",
        [[[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]]],
        ids=["inf", "nan", "indefinite"],
    )
    def test_spd_solve_failure_is_numerical_error(self, matrix):
        with pytest.raises(NumericalError, match="Cholesky"):
            spd_solve(np.array(matrix), np.eye(2))

    def test_spd_solve_matches_dense_solve(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((4, 6))
        matrix = M @ M.T + np.eye(4)
        rhs = rng.standard_normal((4, 3))
        np.testing.assert_allclose(
            spd_solve(matrix, rhs), np.linalg.solve(matrix, rhs), rtol=1e-12
        )


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
        ztilde = adjusted_counts(counts, trials, psi0, d2)
        state = e_step(C, trials, ztilde, d2)
        state.expansion = psi_update(state.loading_mean, C)
        curv = CurvatureMatrix(d2)
        cov_dense, mean_dense = dense_posterior(C, trials, ztilde, d2)
        A = curv.dense()

        def neg_expected_bound(i, psi_i):
            # E[bound(eta_i; psi_i)] under the dense posterior of eta_i
            Ci = np.kron(np.eye(d2 - 1), C[:, i : i + 1])
            m = Ci.T @ mean_dense
            S = Ci.T @ cov_dense @ Ci
            probs = softmax_pivot(psi_i)[:-1]
            val = (
                lse(psi_i)
                + (m - psi_i) @ probs
                + 0.5 * (m - psi_i) @ A @ (m - psi_i)
                + 0.5 * np.trace(A @ S)
            )
            return val

        for i in range(p):
            best = state.expansion[i]
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
        ztilde = adjusted_counts(counts, trials, psi, d2)
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
        ztilde = adjusted_counts(counts, trials, psi, 2)
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
        ztilde = adjusted_counts(counts, trials, psi, d2)
        state = e_step(C, trials, ztilde, d2)
        cov_dense, mean_dense = dense_posterior(C, trials, ztilde, d2)
        A = CurvatureMatrix(d2).dense()
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
        ztilde = adjusted_counts(counts, trials, psi, 5)
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
        curv = CurvatureMatrix(d2)
        pivot = trials - counts.sum(axis=1)
        log_coeff = (
            gammaln(trials + 1)
            - gammaln(counts + 1).sum(axis=1)
            - gammaln(pivot + 1)
        )
        for _ in range(50):
            V = rng.standard_normal((k, d2 - 1))
            eta = C.T @ V
            exact = log_coeff + (counts * eta).sum(axis=1) - trials * lse(eta)
            probs = softmax_pivot(psi)[..., :-1]
            bound_val = (
                lse(psi)
                + ((eta - psi) * probs).sum(axis=1)
                + 0.5 * curv.quad(eta - psi)
            )
            bounded = log_coeff + (counts * eta).sum(axis=1) - trials * bound_val
            assert np.all(bounded <= exact + 1e-10)

    def test_expected_bound_matches_quadratic_form(self):
        # expected_bound_loglik equals c'rho - c'Hc/2 - N k(psi) + log coeff
        rng = np.random.default_rng(30)
        k, p, d2 = 3, 5, 4
        C, trials, counts, psi = random_instance(rng, k, p, d2)
        ztilde = adjusted_counts(counts, trials, psi, d2)
        state = e_step(C, trials, ztilde, d2)
        state.expansion = psi
        got = expected_bound_loglik(state, counts, trials, psi, C)
        curv = CurvatureMatrix(d2)
        base = score_base(state)
        pivot = trials - counts.sum(axis=1)
        log_coeff = (
            gammaln(trials + 1)
            - gammaln(counts + 1).sum(axis=1)
            - gammaln(pivot + 1)
        )
        for i in range(p):
            c = C[:, i]
            probs = softmax_pivot(psi[i])[:-1]
            offset = lse(psi[i]) - psi[i] @ probs + 0.5 * curv.quad(psi[i])
            expected = (
                log_coeff[i]
                + c @ (state.loading_mean @ ztilde[i])
                - 0.5 * trials[i] * c @ base @ c
                - trials[i] * offset
            )
            assert got[i] == pytest.approx(expected, abs=1e-10)


@pytest.mark.slow
class TestScaling:
    @staticmethod
    def _time_ratio(base, double, reps=5):
        # median E-step time (the sums and the finish a fit runs) at the
        # doubled size over that at the base size; the two sizes'
        # repetitions alternate, so a change in host load between them
        # moves both medians alike
        args = []
        for p, d2 in (base, double):
            rng = np.random.default_rng(0)
            k = 3
            C = rng.standard_normal((k, p))
            args.append((C, np.ones(p), rng.standard_normal((p, d2 - 1)), d2))
        times = ([], [])
        for _ in range(reps):
            for arg, record in zip(args, times):
                start = time.perf_counter()
                e_step(*arg)
                record.append(time.perf_counter() - start)
        return np.median(times[1]) / np.median(times[0])

    def test_linear_in_instances(self):
        assert 1.6 <= self._time_ratio((150_000, 16), (300_000, 16)) <= 2.6

    def test_linear_in_categories(self):
        assert 1.6 <= self._time_ratio((40_000, 256), (40_000, 512)) <= 2.6
