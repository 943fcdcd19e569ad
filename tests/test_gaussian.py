"""Gaussian modality tests against dense Bayesian-regression oracles."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import multivariate_normal, norm

from mmfa import HeteroDataset, NumericalError, engine
from mmfa import gaussian as gmod
from mmfa.engine import score_system
from mmfa.gaussian import (
    GaussianState,
    gaussian_m_step as m_step,
    prior_mode_variance,
)


def e_step(C, sigma2, Y, mask=None):
    """Loading posteriors as a fit finishes them from one block's sums."""
    weights = gmod._weighted(sigma2, gmod._observed(Y, mask), mask)
    return gmod._e_step_finish(*gmod._e_step_sums(C, *weights))


def gaussian_score_terms(state, sigma2, Y, mask=None):
    """(H, rho) of a Gaussian-only dataset, through engine.score_system."""
    data = HeteroDataset(gaussian=Y, mask=mask)
    weights = gmod._weighted(sigma2, gmod._observed(Y, mask), mask)
    return score_system(data, state, weights, [], [])


def dense_posterior(C, sigma2_col, y_col, observed):
    """Textbook Bayesian linear regression posterior by explicit inversion."""
    k = C.shape[0]
    prec = np.eye(k)
    rhs = np.zeros(k)
    for i in np.flatnonzero(observed):
        prec += np.outer(C[:, i], C[:, i]) / sigma2_col[i]
        rhs += C[:, i] * y_col[i] / sigma2_col[i]
    cov = np.linalg.inv(prec)
    return cov @ rhs, cov


class TestEStep:
    def test_scalar_case(self):
        state = e_step(
            C=np.array([[1.0]]), sigma2=np.array([[1.0]]), Y=np.array([[2.0]])
        )
        assert state.cov[0, 0, 0] == pytest.approx(0.5, abs=1e-15)
        assert state.mean[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_scores_recover_prior(self):
        k, p, d1 = 3, 6, 4
        state = e_step(
            C=np.zeros((k, p)),
            sigma2=np.full((p, d1), 0.7),
            Y=np.ones((p, d1)),
        )
        for j in range(d1):
            np.testing.assert_allclose(state.cov[j], np.eye(k), atol=1e-14)
            np.testing.assert_allclose(state.mean[j], 0.0, atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        k, p, d1 = 2, 5, 3
        for _ in range(20):
            C = rng.standard_normal((k, p))
            sigma2 = rng.uniform(0.2, 3.0, size=(p, d1))
            Y = rng.standard_normal((p, d1))
            mask = rng.random((p, d1)) < 0.8
            mask[0] = True  # keep every feature covered
            state = e_step(C, sigma2, Y, mask)
            for j in range(d1):
                mean, cov = dense_posterior(C, sigma2[:, j], Y[:, j], mask[:, j])
                np.testing.assert_allclose(state.mean[j], mean, atol=1e-10)
                np.testing.assert_allclose(state.cov[j], cov, atol=1e-10)

    def test_covariance_shrinks_with_data(self):
        rng = np.random.default_rng(1)
        k = 2
        C = rng.standard_normal((k, 30))
        Y = rng.standard_normal((30, 1))
        sigma2 = np.full((30, 1), 1.0)
        traces = []
        for p in range(1, 31):
            state = e_step(C[:, :p], sigma2[:p], Y[:p])
            traces.append(np.trace(state.cov[0]))
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))

    def test_eigenvalues_at_most_one(self):
        rng = np.random.default_rng(8)
        C = rng.standard_normal((3, 12))
        state = e_step(
            C, rng.uniform(0.5, 2.0, (12, 2)), rng.standard_normal((12, 2))
        )
        for j in range(2):
            eigs = np.linalg.eigvalsh(state.cov[j])
            assert eigs.min() > 0
            assert eigs.max() <= 1.0 + 1e-12

    def test_nan_scores_raise_numerical_error(self):
        C = np.ones((2, 3))
        C[1, 2] = np.nan
        with pytest.raises(NumericalError, match="feature 0"):
            e_step(C, np.ones((3, 2)), np.ones((3, 2)))

    def test_non_pd_precision_names_feature(self):
        # weights 2^71 on two identical score vectors: every precision
        # entry of feature 1 rounds to 2^72, a singular matrix
        sigma2 = np.ones((2, 3))
        sigma2[:, 1] = 2.0**-71
        with pytest.raises(NumericalError, match="feature 1"):
            e_step(np.ones((2, 2)), sigma2, np.ones((2, 3)))

    def test_exactness_constant_log_ratio(self):
        # p(y_j, u_j) evaluated at sampled u is proportional to the returned
        # posterior density: the log-ratio is constant across samples.
        rng = np.random.default_rng(77)
        k, p = 2, 6
        C = rng.standard_normal((k, p))
        sigma2 = rng.uniform(0.5, 2.0, size=(p, 1))
        Y = rng.standard_normal((p, 1))
        state = e_step(C, sigma2, Y)
        post = multivariate_normal(mean=state.mean[0], cov=state.cov[0])
        ratios = []
        for _ in range(100):
            u = post.rvs(random_state=rng)
            log_joint = norm.logpdf(u, 0.0, 1.0).sum() + norm.logpdf(
                Y[:, 0], C.T @ u, np.sqrt(sigma2[:, 0])
            ).sum()
            ratios.append(log_joint - post.logpdf(u))
        assert np.ptp(ratios) < 1e-8


class TestMStep:
    def test_hand_value(self):
        state = GaussianState(mean=np.array([[1.0]]), cov=np.array([[[0.5]]]))
        sigma2 = m_step(
            state, C=np.array([[1.0]]), Y=np.array([[2.0]]), mask=None,
            alpha=1.0, beta=0.1,
        )
        assert sigma2[0, 0] == pytest.approx(4.3, abs=1e-12)

    def test_perfect_fit_limit(self):
        # y = mean.c exactly, cov -> 0, huge beta: variance collapses to ~c'Bc/5
        state = GaussianState(mean=np.array([[2.0]]), cov=np.array([[[1e-12]]]))
        C = np.array([[3.0]])
        Y = np.array([[6.0]])
        sigma2 = m_step(state, C, Y, None, alpha=1.0, beta=1e6)
        expected = (9.0 * 1e-12 + 2e-6) / 5.0
        assert sigma2[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_masked_entries_pinned_to_prior_mode(self):
        state = GaussianState(mean=np.zeros((1, 1)), cov=np.ones((1, 1, 1)))
        mask = np.array([[False], [True]])
        sigma2 = m_step(
            state, np.ones((1, 2)), np.ones((2, 1)), mask=mask, alpha=2.0, beta=0.5
        )
        assert sigma2[0, 0] == pytest.approx(prior_mode_variance(2.0, 0.5))

    def test_grid_search_oracle(self):
        # the update maximizes the expected complete-data log-posterior of
        # one entry; compare against a fine 1-D grid search
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = 3
            c = rng.standard_normal(k)
            a = rng.standard_normal(k)
            B = rng.standard_normal((k, k))
            B = B @ B.T / k + 0.1 * np.eye(k)
            y = rng.standard_normal() * 2.0
            alpha, beta = rng.uniform(0.5, 3.0), rng.uniform(0.05, 2.0)
            state = GaussianState(mean=a[None], cov=B[None])
            got = m_step(
                state, c[:, None], np.array([[y]]), None, alpha=alpha, beta=beta
            )[0, 0]

            expected_sq = (y - a @ c) ** 2 + c @ B @ c

            def objective(s2):
                return (
                    -0.5 * np.log(s2)
                    - expected_sq / (2 * s2)
                    - (alpha + 1) * np.log(s2)
                    - 1.0 / (beta * s2)
                )

            grid = np.exp(np.linspace(np.log(got) - 0.5, np.log(got) + 0.5, 20001))
            best = grid[np.argmax(objective(grid))]
            assert got == pytest.approx(best, rel=1e-4)

    def test_floor_applied(self):
        state = GaussianState(mean=np.zeros((1, 1)), cov=np.zeros((1, 1, 1)))
        sigma2 = m_step(
            state, np.zeros((1, 1)), np.zeros((1, 1)), None, alpha=1.0, beta=1e12
        )
        assert sigma2[0, 0] == pytest.approx(1e-9)


class TestScoreContribution:
    def test_no_observed_features(self):
        state = GaussianState(mean=np.ones((2, 2)), cov=np.ones((2, 2, 2)))
        H, rho = gaussian_score_terms(
            state,
            sigma2=np.ones((1, 2)),
            Y=np.ones((1, 2)),
            mask=np.zeros((1, 2), dtype=bool),
        )
        H, rho = H[0], rho[0]
        np.testing.assert_array_equal(H, 0.0)
        np.testing.assert_array_equal(rho, 0.0)

    def test_single_feature_hand_value(self):
        state = GaussianState(
            mean=np.array([[1.0, 0.0]]), cov=np.eye(2)[None]
        )
        H, rho = gaussian_score_terms(
            state, np.ones((1, 1)), np.array([[3.0]]), None
        )
        H, rho = H[0], rho[0]
        np.testing.assert_allclose(H, np.eye(2) + np.outer([1, 0], [1, 0]))
        np.testing.assert_allclose(rho, [3.0, 0.0])

    def test_termwise_summation_oracle(self):
        rng = np.random.default_rng(13)
        k, d1 = 3, 4
        mean = rng.standard_normal((d1, k))
        cov = np.stack([np.eye(k) * rng.uniform(0.1, 1.0) for _ in range(d1)])
        state = GaussianState(mean=mean, cov=cov)
        sigma2 = rng.uniform(0.3, 2.0, size=(1, d1))
        Y = rng.standard_normal((1, d1))
        mask = np.array([[True, False, True, True]])
        H, rho = gaussian_score_terms(state, sigma2, Y, mask)
        H, rho = H[0], rho[0]
        H_ref = np.zeros((k, k))
        rho_ref = np.zeros(k)
        for j in range(d1):
            if not mask[0, j]:
                continue
            H_ref += (cov[j] + np.outer(mean[j], mean[j])) / sigma2[0, j]
            rho_ref += Y[0, j] * mean[j] / sigma2[0, j]
        np.testing.assert_allclose(H, H_ref, atol=1e-12)
        np.testing.assert_allclose(rho, rho_ref, atol=1e-12)

    def test_batch_H_is_psd(self):
        rng = np.random.default_rng(19)
        k, p, d1 = 3, 8, 5
        C = rng.standard_normal((k, p))
        sigma2 = rng.uniform(0.2, 2.0, (p, d1))
        Y = rng.standard_normal((p, d1))
        state = e_step(C, sigma2, Y)
        H, _ = gaussian_score_terms(state, sigma2, Y)
        for i in range(p):
            np.linalg.cholesky(H[i] + 0.0 * np.eye(k))  # jitter 0


def reference_e_step(C, sigma2, Y, mask):
    """Per-feature einsum precision and cho_factor/cho_solve inverse."""
    w = np.where(mask, 1.0 / sigma2, 0.0)
    k = C.shape[0]
    prec = np.einsum("kp,pj,lp->jkl", C, w, C) + np.eye(k)
    rhs = C @ (w * Y)
    cov = np.stack([cho_solve(cho_factor(m, lower=True), np.eye(k)) for m in prec])
    mean = np.stack([cov[j] @ rhs[:, j] for j in range(len(cov))])
    return mean, cov


def reference_quadratic_form(C, cov):
    return np.einsum("kp,jkl,lp->pj", C, cov, C)


def reference_score_H(state, sigma2, mask):
    w = np.where(mask, 1.0 / sigma2, 0.0)
    second_moment = state.cov + np.einsum("jk,jl->jkl", state.mean, state.mean)
    return np.einsum("pj,jkl->pkl", w, second_moment)


def assert_rel_close(got, want, rel=1e-12):
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.abs(want).max())


class TestKernelsMatchReference:
    """The Khatri-Rao GEMM kernels, taken over blocks of instances as a fit
    takes them, against the einsum/cho_solve forms."""

    @pytest.mark.parametrize(
        "p, chunk, layout, masked_rows",
        [
            (1, None, "C", False),
            (23, 5, "C", False),  # four full blocks and a remainder of 3
            (23, 5, "F", True),
            (40, None, "F", False),  # C transposed from (P, K), as fit passes it
            (40, None, "C", True),
        ],
    )
    def test_kernels(self, monkeypatch, p, chunk, layout, masked_rows):
        if chunk is not None:
            monkeypatch.setattr(engine, "INSTANCE_BLOCK", chunk)
        rng = np.random.default_rng(p + (chunk or 0))
        k, d1 = 3, 4
        C = rng.standard_normal((k, p))
        if layout == "F":
            C = np.ascontiguousarray(C.T).T
            assert C.flags.f_contiguous and not C.flags.c_contiguous
        sigma2 = rng.uniform(0.2, 3.0, (p, d1))
        Y = rng.standard_normal((p, d1))
        mask = rng.random((p, d1)) < 0.7
        if masked_rows:
            mask[1::4] = False  # every fourth instance fully masked
        mask[0] = True

        blocks = list(engine._instance_blocks(p))
        w, wy = gmod._weighted(sigma2, gmod._observed(Y, mask), mask)
        parts = [gmod._e_step_sums(C[:, rows], w[rows], wy[rows]) for rows in blocks]
        state = gmod._e_step_finish(*(sum(part) for part in zip(*parts)))
        mean, cov = reference_e_step(C, sigma2, Y, mask)
        assert_rel_close(state.mean, mean)
        assert_rel_close(state.cov, cov)

        quad = np.concatenate([gmod._quadratic_form(C[:, rows], cov) for rows in blocks])
        assert_rel_close(quad, reference_quadratic_form(C, cov))

        ref_state = GaussianState(mean=mean, cov=cov)
        H, rho = gaussian_score_terms(ref_state, sigma2, Y, mask)
        assert_rel_close(H, reference_score_H(ref_state, sigma2, mask))
        if masked_rows:
            np.testing.assert_array_equal(H[1::4], 0.0)
            np.testing.assert_array_equal(rho[1::4], 0.0)
