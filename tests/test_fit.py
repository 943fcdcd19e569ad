"""Fit-engine tests: score solves, EM contracts, objective, model I/O."""

import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

import mmfa
from mmfa import (
    GeneratorConfig,
    HeteroDataset,
    ModelSpec,
    MultinomialData,
    NumericalError,
    fit,
    load_model,
    sample_dataset,
    save_model,
    select_k,
)
from mmfa import engine, inference
from mmfa import gaussian as gmod
from mmfa import multinomial as mmod
from mmfa.engine import NONNEG_KKT_TOL, solve_scores_batch, surrogate_objective


def model_arrays(model):
    """Every array a fitted model holds."""
    arrays = [model.scores]
    if model.gaussian is not None:
        arrays += [model.gaussian.mean, model.gaussian.cov]
    for state in model.categoricals:
        arrays += [
            state.precision, state.precision_inv, state.cross_cov, state.loading_mean,
        ]
    return arrays


def earlier_arrays(model, data):
    """The arrays, by name, of a model file as earlier versions wrote it:
    the model's, and the noise variances (P, D1) and expansion points
    (P, D - 1) of each categorical block at their optima for its scores,
    as noise_variance and cat<m>_expansion."""
    arrays = {"scores": model.scores}
    if model.gaussian is not None:
        arrays.update(gaussian_mean=model.gaussian.mean, gaussian_cov=model.gaussian.cov)
    for m, state in enumerate(model.categoricals):
        for name in ("precision", "precision_inv", "cross_cov", "loading_mean"):
            arrays[f"cat{m}_{name}"] = getattr(state, name)
    sigma2, psis = optimal_theta(
        data, model.spec, model.scores, model.gaussian, model.categoricals
    )
    if sigma2 is not None:
        arrays["noise_variance"] = sigma2
    for m, psi in enumerate(psis):
        arrays[f"cat{m}_expansion"] = psi.T  # earlier versions' (P, D - 1)
    return arrays


def small_dataset(seed=0, p=40, with_missing=False):
    cfg = GeneratorConfig(
        n_factors=2,
        n_instances=p,
        n_gaussian=4,
        n_categories=(4,),
        n_trials=8,
        noise_variance=0.5,
        missing_fraction=0.3 if with_missing else 0.0,
        seed=seed,
    )
    return sample_dataset(cfg)


def nonnegative_qp_exact(H, rho):
    """Minimizer of c^T H c / 2 - rho^T c over c >= 0, by trying every
    active set."""
    k = len(rho)
    best = None
    for active in itertools.product([0, 1], repeat=k):
        free = np.array(active, dtype=bool)
        c = np.zeros(k)
        if free.any():
            c[free] = np.linalg.solve(H[np.ix_(free, free)], rho[free])
        if (c < -1e-12).any():
            continue
        grad = H @ c - rho
        if (grad[~free] < -1e-9).any():
            continue
        value = 0.5 * c @ H @ c - rho @ c
        if best is None or value < best[0]:
            best = (value, c)
    assert best is not None
    return best[1]


# the cases of the score step, by test id: "unconstrained" is the ridge
# solve at ridge_weight 0
SCORE_MODES = ("unconstrained", "ridge", "nonnegative")


def mode_spec(mode, ridge_weight=1e-6):
    """ModelSpec's score_update and ridge_weight for the case mode of
    SCORE_MODES, at ridge_weight where the case reads it."""
    if mode == "unconstrained":
        return {"score_update": "ridge", "ridge_weight": 0.0}
    return {"score_update": mode, "ridge_weight": ridge_weight}


def solve_one(H, rho, mode="ridge", ridge_weight=0.0):
    """One instance's score solve through the batch solver."""
    return solve_scores_batch(
        np.asarray(H, dtype=float)[None], np.asarray(rho, dtype=float)[None],
        mode, ridge_weight,
    )[0]


class TestUpdateScores:
    def test_identity_system(self):
        rho = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(solve_one(np.eye(3), rho), rho, atol=1e-14)

    def test_diagonal_with_ridge(self):
        got = solve_one(
            np.diag([2.0, 4.0]), np.array([2.0, 4.0]), mode="ridge",
            ridge_weight=1e-6,
        )
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-5)

    def test_singular_without_ridge_raises(self):
        H = np.zeros((2, 2))
        with pytest.raises(NumericalError, match="ridge"):
            solve_one(H, np.ones(2))

    @pytest.mark.parametrize("mode", SCORE_MODES)
    @pytest.mark.parametrize("bad", ["H", "rho"])
    def test_non_finite_system_raises(self, mode, bad):
        H = np.stack([np.eye(2)] * 3)
        rho = np.ones((3, 2))
        if bad == "H":
            H[1, 0, 0] = np.nan
        else:
            rho[2, 1] = np.inf
        spec = mode_spec(mode)
        with pytest.raises(NumericalError, match="non-finite"):
            solve_scores_batch(H, rho, spec["score_update"], spec["ridge_weight"])

    def test_nonnegative_matches_active_set_enumeration(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3, 4):
            for _ in range(15):
                M = rng.standard_normal((k, k + 2))
                H = M @ M.T + 0.1 * np.eye(k)
                rho = rng.standard_normal(k) * 2.0
                got = solve_one(H, rho, mode="nonnegative")
                np.testing.assert_allclose(got, nonnegative_qp_exact(H, rho), atol=1e-7)

    def test_nonnegative_ill_conditioned(self):
        # The free 2 x 2 block has condition number 3999 and the third
        # constraint is active at the optimum. Projected gradient with step
        # 1/L would need about 75000 steps, past NONNEG_MAX_ITERS.
        H = np.array([[1.0, 1 - 5e-4, 0.1], [1 - 5e-4, 1.0, 0.1], [0.1, 0.1, 1.0]])
        rho = np.array([1.0, 1.0002, -1.0])
        assert 2000 < np.linalg.cond(H) < 5000
        got = solve_one(H, rho, mode="nonnegative")
        want = nonnegative_qp_exact(H, rho)
        free = want > 0
        assert free.tolist() == [True, True, False]
        assert got[~free].tolist() == [0.0]
        # a KKT residual below the tolerance on the free block bounds the error
        bound = np.sqrt(2) * NONNEG_KKT_TOL / np.linalg.eigvalsh(H[np.ix_(free, free)])[0]
        assert np.linalg.norm(got - want) <= bound
        got_value, want_value = (0.5 * c @ H @ c - rho @ c for c in (got, want))
        assert got_value - want_value <= 1e-12

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize("p", [1, 7, 2000])
    @pytest.mark.parametrize("mode,lam", [
        pytest.param("ridge", 0.0, id="unconstrained-0.0"), ("ridge", 0.3)
    ])
    def test_matches_dense_solve(self, k, p, mode, lam):
        rng = np.random.default_rng(100 * k + p)
        M = rng.standard_normal((p, k, 2 * k + 3))
        H = M @ M.transpose(0, 2, 1) / (2 * k + 3) + 0.1 * np.eye(k)
        rho = rng.standard_normal((p, k))
        before = H.copy()
        got = solve_scores_batch(H, rho, mode, lam)
        want = np.linalg.solve(H + lam * np.eye(k), rho[..., None])[..., 0]
        error = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert error.max() <= 1e-12
        np.testing.assert_array_equal(H, before)

    @pytest.mark.parametrize("mode", ["unconstrained", "ridge"])
    def test_one_non_pd_row_raises(self, mode):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((9, 3, 5))
        H = M @ M.transpose(0, 2, 1)
        H[5] = np.diag([2.0, -1.0, 3.0])  # indefinite even with the ridge
        spec = mode_spec(mode)
        with pytest.raises(NumericalError, match="singular score system"):
            solve_scores_batch(
                H, rng.standard_normal((9, 3)), spec["score_update"], spec["ridge_weight"]
            )

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(9)
        k, p = 3, 12
        H = np.stack([np.eye(k) + 0.3 * np.outer(v, v) for v in rng.standard_normal((p, k))])
        rho = rng.standard_normal((p, k))
        batch = solve_scores_batch(H, rho, "ridge", 1e-6)
        for i in range(p):
            single = solve_one(H[i], rho[i], "ridge", 1e-6)
            np.testing.assert_allclose(batch[i], single, atol=1e-12)


def spd_stack(rng, b, k):
    """b random symmetric positive definite K x K matrices, (b, K, K)."""
    M = rng.standard_normal((b, k, 2 * k + 3))
    return M @ M.transpose(0, 2, 1) / (2 * k + 3) + 0.1 * np.eye(k)


class TestEliminationSolve:
    """The ridge solve eliminates on [H + ridge I | rho], all instances at
    once (engine._solve)."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_view_of_a_k_k_b_array(self, k):
        # score_system returns H as a (b, K, K) view of a (K, K, b) array
        rng = np.random.default_rng(20 + k)
        H = spd_stack(rng, 500, k)
        rho = rng.standard_normal((500, k))
        view = np.ascontiguousarray(H.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert k == 1 or not view.flags.c_contiguous
        got = solve_scores_batch(view, rho, "ridge", 0.2)
        np.testing.assert_array_equal(got, solve_scores_batch(H, rho, "ridge", 0.2))
        want = np.linalg.solve(H + 0.2 * np.eye(k), rho[..., None])[..., 0]
        error = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert error.max() <= 1e-12

    def test_error_messages(self):
        with pytest.raises(NumericalError) as info:
            solve_one(np.diag([1.0, 0.0]), np.ones(2))
        assert str(info.value) == (
            "singular score system; a ridge of ridge_weight > 0 makes it "
            "positive definite"
        )
        with pytest.raises(NumericalError) as info:
            solve_one(np.diag([1.0, np.nan]), np.ones(2))
        assert str(info.value) == "non-finite score system"

    def test_two_threads_at_once(self):
        # blocks of one pass are solved on several threads at once
        rng = np.random.default_rng(22)
        systems = [(spd_stack(rng, 2048, 10), rng.standard_normal((2048, 10)))
                   for _ in range(2)]
        want = [solve_scores_batch(H, rho, "ridge", 1e-6) for H, rho in systems]
        got = [[] for _ in systems]
        barrier = threading.Barrier(len(systems))

        def solve(i):
            barrier.wait()
            for _ in range(5):
                got[i].append(solve_scores_batch(*systems[i], "ridge", 1e-6))

        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(systems))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for results, expected in zip(got, want):
            assert len(results) == 5
            for result in results:
                np.testing.assert_array_equal(result, expected)


class TestFitContracts:
    def test_one_iteration_with_infinite_tol(self):
        synth = small_dataset()
        spec = ModelSpec(n_factors=2, tol=np.inf, max_iters=50, seed=1)
        model = fit(synth.dataset, spec)
        assert model.iterations_run == 1
        assert len(model.objective_trace) == 2
        assert model.extrapolations == 0
        assert not model.converged

    def test_monotone_objective(self):
        synth = small_dataset(seed=3)
        model = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=40, seed=4))
        trace = np.asarray(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-8)

    def test_monotone_objective_nonnegative_mode(self):
        synth = small_dataset(seed=6)
        spec = ModelSpec(
            n_factors=2, score_update="nonnegative", max_iters=30, seed=2
        )
        model = fit(synth.dataset, spec)
        trace = np.asarray(model.objective_trace)
        assert np.all(np.diff(trace) >= -1e-8)

    @pytest.mark.filterwarnings("ignore:n_factors")
    def test_nonnegative_ill_conditioned_fit_runs_to_max_iters(self):
        # Plain projected gradient stopped this fit at iteration 66: one
        # instance's QP needed more than NONNEG_MAX_ITERS steps.
        synth = sample_dataset(
            GeneratorConfig(
                n_factors=3, n_instances=300, n_gaussian=6, n_categories=(4, 3),
                n_trials=6, noise_variance=0.5, missing_fraction=0.2, seed=3,
            )
        )
        spec = ModelSpec(
            n_factors=3, score_update="nonnegative", max_iters=150, seed=2,
            accelerate=False,
        )
        model = fit(synth.dataset, spec)
        assert model.iterations_run == 150
        assert np.all(np.diff(model.objective_trace) >= -1e-8)

    def test_deterministic_given_seed(self):
        synth = small_dataset(seed=8, with_missing=True)
        spec = ModelSpec(n_factors=2, max_iters=15, seed=11)
        a = fit(synth.dataset, spec)
        b = fit(synth.dataset, spec)
        for got, want in zip(model_arrays(a), model_arrays(b), strict=True):
            np.testing.assert_array_equal(got, want)
        assert a.objective_trace == b.objective_trace

    def test_deterministic_across_khatri_rao_blocks(self):
        # the fit sums the Gaussian kernels' BLAS GEMMs over blocks of
        # instances; two fits in one process must agree bit for bit
        cfg = GeneratorConfig(
            n_factors=3, n_instances=2 * engine.INSTANCE_BLOCK + 300,
            n_gaussian=12, n_categories=(5,), n_trials=4,
            missing_fraction=0.2, seed=21,
        )
        synth = sample_dataset(cfg)
        spec = ModelSpec(n_factors=3, tol=1e-300, max_iters=4, seed=5)
        a = fit(synth.dataset, spec)
        b = fit(synth.dataset, spec)
        assert a.objective_trace == b.objective_trace
        for got, want in zip(model_arrays(a), model_arrays(b), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_gaussian_only_recovers_structure(self):
        # no categorical block: plain Bayesian factor analysis; recovered
        # mean surface correlates strongly with the true one
        cfg = GeneratorConfig(
            n_factors=1, n_instances=200, n_gaussian=6, n_categories=(),
            noise_variance=0.1, seed=7,
        )
        synth = sample_dataset(cfg)
        model = fit(synth.dataset, ModelSpec(n_factors=1, max_iters=60, seed=3))
        predicted = model.scores.T @ model.gaussian.mean.T
        truth = synth.scores.T @ synth.gaussian_loadings.T
        corr = np.corrcoef(predicted.ravel(), truth.ravel())[0, 1]
        assert corr > 0.95

    def test_categorical_only_fit(self):
        cfg = GeneratorConfig(
            n_factors=2, n_instances=50, n_gaussian=0, n_categories=(5,),
            n_trials=20, seed=5,
        )
        synth = sample_dataset(cfg)
        model = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=25, seed=1))
        assert model.gaussian is None
        assert np.isfinite(model.objective_trace).all()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_iteration_index_in_numerical_error(self):
        synth = small_dataset(seed=12)
        bad = HeteroDataset(
            gaussian=synth.dataset.gaussian * 1e160,
            categoricals=synth.dataset.categoricals,
        )
        spec = ModelSpec(
            n_factors=2, score_update="ridge", ridge_weight=0.0, max_iters=20, seed=0,
        )
        with pytest.raises((NumericalError, FloatingPointError, ValueError)):
            fit(bad, spec)

    def test_unconstrained_mode_names_ridge_zero(self):
        with pytest.raises(ValueError, match="ridge_weight=0"):
            ModelSpec(n_factors=2, score_update="unconstrained")

    def test_dimension_mismatch_rejected(self):
        synth = small_dataset()
        with pytest.raises(TypeError):
            fit(synth.dataset, spec="not a spec")

    def test_warns_when_factors_not_small(self):
        synth = small_dataset()
        with pytest.warns(UserWarning, match="n_factors"):
            fit(synth.dataset, ModelSpec(n_factors=4, max_iters=1, tol=np.inf))


class TestSurrogateObjective:
    def test_empty_dataset_prior_constant(self):
        dataset = HeteroDataset(
            gaussian=np.zeros((0, 3)),
            categoricals=[
                MultinomialData(
                    counts=np.zeros((0, 2)), trials=np.zeros(0), n_categories=3
                )
            ],
        )
        model = fit(dataset, ModelSpec(n_factors=2, max_iters=3, seed=0))
        value = surrogate_objective(model, dataset)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_only_matches_quadrature_oracle(self):
        # K=1, P=3: every term of the variational objective evaluated by an
        # independent route (Gauss-Hermite for the expected quadratic,
        # closed-form normal entropy)
        rng = np.random.default_rng(17)
        cfg = GeneratorConfig(
            n_factors=1, n_instances=3, n_gaussian=2, n_categories=(),
            noise_variance=0.8, seed=13,
        )
        synth = sample_dataset(cfg)
        spec = ModelSpec(n_factors=1, max_iters=6, seed=5)
        model = fit(synth.dataset, spec)
        got = surrogate_objective(model, synth.dataset)

        nodes, weights = np.polynomial.hermite_e.hermegauss(61)
        Y = synth.dataset.gaussian
        C = model.scores
        total = 0.0
        sigma2, _ = optimal_theta(synth.dataset, spec, C, model.gaussian, [])
        for j in range(2):
            a = model.gaussian.mean[j, 0]
            b = np.sqrt(model.gaussian.cov[j, 0, 0])
            u = a + b * nodes  # quadrature points of the loading posterior
            w = weights / weights.sum()
            for i in range(3):
                s2 = sigma2[i, j]
                loglik = -0.5 * (
                    np.log(2 * np.pi * s2) + (Y[i, j] - u * C[0, i]) ** 2 / s2
                )
                total += loglik @ w
                alpha, beta = spec.alpha, spec.beta
                total += (
                    alpha * np.log(1 / beta)
                    - gammaln(alpha)
                    - (alpha + 1) * np.log(s2)
                    - 1.0 / (beta * s2)
                )
            prior = (-0.5 * np.log(2 * np.pi) - 0.5 * u**2) @ w
            entropy = 0.5 * np.log(2 * np.pi * np.e * b**2)
            total += prior + entropy
        total -= 0.5 * spec.ridge_weight * np.sum(C**2)
        assert got == pytest.approx(total, abs=1e-6)

    def test_trace_matches_final_objective(self):
        synth = small_dataset(seed=21)
        model = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=10, seed=2))
        assert_surrogate_bounds_trace(model, synth.dataset)

    def test_trace_entry_is_objective_at_previous_scores_theta(self):
        # a map evaluation's trace entry is the objective at its new scores
        # and posteriors, with the noise variances and expansion points of
        # the scores it started from
        data = objective_datasets()["masked-two-block"]
        spec = ModelSpec(n_factors=2, tol=1e-300, max_iters=10, seed=2, accelerate=False)
        scores = []
        model = fit(data, spec, callback=lambda _, m: scores.append(m.scores.copy()))
        want = reference_objective(
            data, spec, model.scores, model.gaussian, model.categoricals, source=scores[-2]
        )
        assert model.objective_trace[-1] == pytest.approx(want, rel=1e-12)


def assert_surrogate_bounds_trace(model, data):
    """surrogate_objective puts the noise variances and expansion points at
    their optima for the model's scores: it is the term-by-term objective
    there, and no lower than the last trace entry, whose are those of the
    scores before."""
    got = surrogate_objective(model, data)
    last = model.objective_trace[-1]
    assert got >= last - 1e-9 * abs(last), (got, last)
    want = reference_objective(
        data, model.spec, model.scores, model.gaussian, model.categoricals
    )
    assert got == pytest.approx(want, rel=1e-12)


def optimal_theta(data, spec, C, gauss_state, cat_states):
    """The noise variances (P, D1) and the expansion points, (D - 1, P) per
    categorical block, at their optima for scores C: the closed-form
    M-step, ((y - mean_j.c)^2 + c^T cov_j c + 2 / beta) / (2 alpha + 3) at
    observed entries and the prior mode at hidden ones, and psi = M^T c."""
    sigma2 = None
    if data.gaussian is not None:
        resid = data.gaussian - C.T @ gauss_state.mean.T
        quad = np.einsum("kp,jkl,lp->pj", C, gauss_state.cov, C)
        sigma2 = (resid**2 + quad + 2.0 / spec.beta) / (2.0 * spec.alpha + 3.0)
        prior_mode = 1.0 / (spec.beta * (spec.alpha + 1.0))
        sigma2 = np.where(data.observed_mask(), sigma2, prior_mode)
    return sigma2, [state.loading_mean.T @ C for state in cat_states]


def reference_objective(data, spec, C, gauss_state, cat_states, source=None):
    """The surrogate objective term by term at scores C, with the noise
    variances and expansion points at their optima for the scores source
    (C if None): residual and quadratic-form expected Gaussian
    log-likelihood, the expected bounded multinomial log-likelihood, and
    every prior and entropy term."""
    sigma2, psis = optimal_theta(
        data, spec, C if source is None else source, gauss_state, cat_states
    )
    total = 0.0
    if data.gaussian is not None:
        k = gauss_state.n_factors
        mask = data.observed_mask()
        resid = data.gaussian - C.T @ gauss_state.mean.T
        quad = np.einsum("kp,jkl,lp->pj", C, gauss_state.cov, C)
        loglik = -0.5 * (np.log(2 * np.pi * sigma2) + (resid**2 + quad) / sigma2)
        total += np.where(mask, loglik, 0.0).sum()
        _, logdet = np.linalg.slogdet(gauss_state.cov)
        traces = np.trace(gauss_state.cov, axis1=1, axis2=2)
        total += np.sum(
            -0.5 * (np.sum(gauss_state.mean**2, axis=1) + traces)
            + 0.5 * logdet + 0.5 * k
        )
        rate = 1.0 / spec.beta
        logprior = (
            spec.alpha * np.log(rate) - gammaln(spec.alpha)
            - (spec.alpha + 1.0) * np.log(sigma2) - rate / sigma2
        )
        total += np.where(mask, logprior, 0.0).sum()
    for state, block, psi in zip(cat_states, data.categoricals, psis):
        k, d = state.n_factors, state.n_categories - 1
        total += mmod.expected_bound_loglik(
            state, block.counts, block.trials, psi, C
        ).sum()
        tr_cov = d * (np.trace(state.precision_inv) + np.trace(state.cross_cov))
        total += -0.5 * (np.sum(state.loading_mean**2) + tr_cov) + 0.5 * d * k
        _, logdet_prec = np.linalg.slogdet(state.precision)
        _, logdet_ones = np.linalg.slogdet(state.precision_inv + d * state.cross_cov)
        total += 0.5 * (-(d - 1) * logdet_prec + logdet_ones)
    return total - 0.5 * spec.effective_ridge * np.sum(C**2)


def objective_datasets():
    two_blocks = sample_dataset(
        GeneratorConfig(
            n_factors=2, n_instances=50, n_gaussian=5, n_categories=(4, 3),
            n_trials=6, noise_variance=0.5, missing_fraction=0.3, seed=8,
        )
    ).dataset
    gaussian_only = small_dataset(seed=9, with_missing=True).dataset
    gaussian_only = HeteroDataset(gaussian=gaussian_only.gaussian, mask=gaussian_only.mask)
    categorical_only = HeteroDataset(categoricals=two_blocks.categoricals)
    empty = HeteroDataset(
        gaussian=np.zeros((0, 3)),
        categoricals=[
            MultinomialData(counts=np.zeros((0, 2)), trials=np.zeros(0), n_categories=3)
        ],
    )
    return {
        "masked-two-block": two_blocks,
        "gaussian-only": gaussian_only,
        "categorical-only": categorical_only,
        "empty": empty,
    }


class TestObjectiveFromScoreSystem:
    """The objective read off the score system equals the term-by-term sum."""

    @pytest.mark.parametrize(
        "dataset", ["masked-two-block", "gaussian-only", "categorical-only", "empty"]
    )
    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_matches_termwise_objective(self, dataset, mode):
        data = objective_datasets()[dataset]
        spec = ModelSpec(n_factors=2, **mode_spec(mode, 0.4), max_iters=4, seed=6)
        model = fit(data, spec)
        rng = np.random.default_rng(11)
        C = rng.standard_normal((2, data.n_instances))  # not the fitted optimum
        if mode == "nonnegative":
            C = np.abs(C)
        got = surrogate_objective(replace(model, scores=C), data)
        want = reference_objective(data, spec, C, model.gaussian, model.categoricals)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_adjusted_counts_once_per_block_per_iteration(self, monkeypatch):
        # counts the bound kernel the fit calls for its adjusted counts
        calls = []
        original = mmod._bound_terms

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mmod, "_bound_terms", counting)
        data = objective_datasets()["masked-two-block"]
        model = fit(data, ModelSpec(n_factors=2, max_iters=7, seed=1, accelerate=False))
        assert model.iterations_run == 7
        assert len(calls) == 2 * (model.iterations_run + 1)


class TestSquarem:
    """The default fit runs its map evaluations in safeguarded SQUAREM
    cycles."""

    @pytest.mark.parametrize(
        "dataset", ["masked-two-block", "gaussian-only", "categorical-only", "empty"]
    )
    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_monotone_at_default_spec(self, dataset, mode):
        data = objective_datasets()[dataset]
        model = fit(data, ModelSpec(n_factors=2, **mode_spec(mode), seed=2))
        assert np.all(np.diff(model.objective_trace) >= -1e-8)
        assert len(model.objective_trace) == (
            model.iterations_run - model.extrapolations_rejected + 1
        )
        if data.n_instances:
            assert model.extrapolations > 0

    @pytest.mark.parametrize("where", ["sums", "map"])
    def test_numerical_error_in_extrapolation_falls_back(self, monkeypatch, where):
        # every extrapolation fails, in the walk for the sums at theta' or
        # in the map evaluation from there; the fit then keeps exactly the
        # plain EM iterates
        walk = engine._walk
        walks, after_sums = [], []

        def failing(data, model, log_coefficient, update, hook=None, bases=None):
            # every walk without update after the first, which is trace[0]'s,
            # is the one for the sums at theta'
            sums_walk = not update and bool(walks)
            walks.append(update)
            if where == "sums" and sums_walk:
                raise NumericalError("injected")
            if after_sums:
                after_sums.clear()
                raise NumericalError("injected")
            result = walk(data, model, log_coefficient, update, hook, bases)
            if where == "map" and sums_walk:
                after_sums.append(True)
            return result

        monkeypatch.setattr(engine, "_walk", failing)
        data = objective_datasets()["masked-two-block"]
        spec = ModelSpec(n_factors=2, tol=1e-300, max_iters=30, seed=1)
        model = fit(data, spec)
        assert model.iterations_run == 30
        assert model.extrapolations_rejected == model.extrapolations > 0
        monkeypatch.setattr(engine, "_walk", walk)
        kept = len(model.objective_trace) - 1
        plain = fit(data, replace(spec, accelerate=False, max_iters=kept))
        assert model.objective_trace == plain.objective_trace
        for got, want in zip(model_arrays(model), model_arrays(plain), strict=True):
            np.testing.assert_array_equal(got, want)
        assert_surrogate_bounds_trace(model, data)

    @pytest.mark.parametrize(
        "dataset", ["masked-two-block", "gaussian-only", "categorical-only"]
    )
    @pytest.mark.parametrize("mode", ["ridge", "nonnegative"])
    def test_one_pass_per_map_evaluation_and_extrapolation(
        self, monkeypatch, dataset, mode
    ):
        # the step length's norms ride on theta_2's map evaluation and
        # theta' is formed in the walk for its sums: beyond trace[0]'s
        # walk, a fit passes over the blocks once per map evaluation and
        # once per extrapolation
        passes = []
        blocks_in_order = engine._blocks_in_order

        def counting(p, step):
            passes.append(p)
            return blocks_in_order(p, step)

        monkeypatch.setattr(engine, "_blocks_in_order", counting)
        data = objective_datasets()[dataset]
        model = fit(data, ModelSpec(n_factors=2, score_update=mode, tol=1e-9, seed=2))
        assert model.extrapolations > 0
        assert len(passes) == 1 + model.iterations_run + model.extrapolations

    @pytest.mark.parametrize(
        "dataset", ["masked-two-block", "gaussian-only", "categorical-only"]
    )
    def test_sums_at_theta_prime_equal_a_full_walk(self, monkeypatch, dataset):
        # the walk at theta' forms only the sums: they are those of a walk
        # that also builds the score systems and the objective
        monkeypatch.setattr(engine, "INSTANCE_BLOCK", 16)
        data = objective_datasets()[dataset]
        spec = ModelSpec(n_factors=2, tol=1e-300, max_iters=4, seed=5)
        model = fit(data, spec)

        def hook(rows, observed):
            # a theta other than the optimum at the model's scores
            scores = 0.5 * model.scores[:, rows]
            Y, mask, bits = observed
            sigma2 = None if Y is None else gmod.gaussian_m_step(
                model.gaussian, scores, Y, mask, spec.alpha, spec.beta, bits
            )
            psis = [mmod.psi_update(s.loading_mean, scores) for s in model.categoricals]
            return sigma2, psis

        objective, lean = engine._walk(data, model, None, update=False, hook=hook)
        assert objective is None
        full_objective, full = engine._walk(
            data, model, engine._log_coefficient(data), update=False, hook=hook
        )
        assert np.isfinite(full_objective)
        assert len(lean) == len(full) > 0
        for got, want in zip(lean, full):
            np.testing.assert_array_equal(got, want)

    def test_non_finite_extrapolation_is_skipped(self, monkeypatch):
        # a step length that overflows theta' in every block: no
        # extrapolation is counted and the fit keeps exactly the plain EM
        # iterates, theta_2's map evaluation following each attempt
        extrapolation = engine._Squarem.extrapolation

        def overflowing(self, nonnegative):
            for start, shares in self.shares.items():
                self.shares[start] = [(1e300, 1e-300)] * len(shares)
            return extrapolation(self, nonnegative)

        monkeypatch.setattr(engine._Squarem, "extrapolation", overflowing)
        data = objective_datasets()["masked-two-block"]
        spec = ModelSpec(n_factors=2, tol=1e-300, max_iters=30, seed=1)
        with np.errstate(over="ignore"):
            model = fit(data, spec)
        assert model.iterations_run == 30
        assert model.extrapolations == model.extrapolations_rejected == 0
        plain = fit(data, replace(spec, accelerate=False))
        assert model.objective_trace == plain.objective_trace
        for got, want in zip(model_arrays(model), model_arrays(plain), strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("max_iters", [3, 4, 5, 6, 31])
    def test_surrogate_reproduces_last_trace_entry(self, max_iters):
        # a fit may stop after any map evaluation of a cycle
        data = objective_datasets()["masked-two-block"]
        model = fit(data, ModelSpec(n_factors=2, tol=1e-300, max_iters=max_iters, seed=3))
        assert model.iterations_run == max_iters
        assert_surrogate_bounds_trace(model, data)

    def test_reaches_plain_objective_in_a_third_of_the_evaluations(self):
        data = objective_datasets()["masked-two-block"]
        spec = ModelSpec(n_factors=2, tol=1e-9, max_iters=2000, seed=1)
        plain = fit(data, replace(spec, accelerate=False))
        assert plain.converged
        target = plain.objective_trace[-1]
        reached = []

        def record(iteration, model):
            if model.objective_trace[-1] >= target:
                reached.append(iteration)

        fit(data, spec, callback=record)
        assert reached and reached[0] <= plain.iterations_run / 3, (
            reached[:1], plain.iterations_run
        )


class TestGlobalStep:
    """A map evaluation finishes every loading posterior from one stacked
    factorization and builds the score bases once (engine._global_step)."""

    @pytest.mark.parametrize(
        "dataset", ["masked-two-block", "gaussian-only", "categorical-only"]
    )
    @pytest.mark.parametrize("block", [2048, 7], ids=["one-block", "many-blocks"])
    def test_one_factorization_and_one_basis_build_per_map_evaluation(
        self, monkeypatch, dataset, block
    ):
        factored, built = [], []
        cholesky, score_bases = np.linalg.cholesky, engine._score_bases

        def counting_cholesky(matrices):
            factored.append(matrices.shape)
            return cholesky(matrices)

        def counting_bases(cat_states):
            built.append(len(cat_states))
            return score_bases(cat_states)

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        monkeypatch.setattr(engine, "_score_bases", counting_bases)
        monkeypatch.setattr(engine, "INSTANCE_BLOCK", block)
        data = objective_datasets()[dataset]
        model = fit(data, ModelSpec(n_factors=2, tol=1e-9, seed=2))
        assert model.extrapolations > 0
        # the prior's global step, then one per map evaluation
        assert len(factored) == len(built) == 1 + model.iterations_run
        stack = data.n_gaussian + 2 * len(data.categoricals)
        assert set(factored) == {(stack, 2, 2)}

    @pytest.mark.parametrize(
        "dataset", ["masked-two-block", "gaussian-only", "categorical-only"]
    )
    def test_stacked_finish_equals_block_by_block(self, dataset):
        data = objective_datasets()[dataset]
        model = fit(data, ModelSpec(n_factors=2, tol=1e-300, max_iters=3, seed=1))
        _, sums = engine._walk(data, model, engine._log_coefficient(data), update=False)
        gauss, cats, bases = engine._global_step(data, sums)
        parts = iter(sums)
        if data.gaussian is not None:
            want = gmod._e_step_finish(next(parts), next(parts))
            np.testing.assert_array_equal(gauss.mean, want.mean)
            np.testing.assert_array_equal(gauss.cov, want.cov)
            assert gauss.cov_terms == want.cov_terms
        else:
            assert gauss is None
        assert len(cats) == len(data.categoricals)
        for state, block in zip(cats, data.categoricals):
            want = mmod._e_step_finish(next(parts), next(parts), block.n_categories)
            for name in ("precision", "precision_inv", "cross_cov", "loading_mean"):
                np.testing.assert_array_equal(getattr(state, name), getattr(want, name))
            assert state.cov_terms == want.cov_terms
        for got, want in zip(bases, engine._score_bases(cats), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_stack_that_does_not_factor_names_its_block(self):
        data = objective_datasets()["masked-two-block"]
        model = fit(data, ModelSpec(n_factors=2, tol=1e-300, max_iters=2, seed=1))
        _, sums = engine._walk(data, model, engine._log_coefficient(data), update=False)
        bad = [np.array(part) for part in sums]
        bad[0][:, 3] = np.nan  # feature 3's precision sums
        with pytest.raises(NumericalError, match="failed for feature 3"):
            engine._global_step(data, bad)
        bad = [np.array(part) for part in sums]
        bad[4] = -10.0 * np.eye(2)  # the second categorical block's gram
        with pytest.raises(NumericalError, match="block precision"):
            engine._global_step(data, bad)


class TestInstanceBlocks:
    """Fitting and scoring build, solve and read the score system one
    block of engine.INSTANCE_BLOCK instances at a time."""

    CHUNK = 16

    @pytest.fixture(scope="class")
    def data(self):
        # two blocks of 16 instances plus a remainder of 5
        return sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=2 * self.CHUNK + 5, n_gaussian=5,
                n_categories=(4, 3), n_trials=6, noise_variance=0.5,
                missing_fraction=0.3, seed=31,
            )
        ).dataset

    @pytest.mark.parametrize(
        "mode, block",
        [
            pytest.param(mode, block, id=mode if block > 1 else f"{mode}-block1")
            for mode, block in itertools.product(SCORE_MODES, (CHUNK, 1))
        ],
    )
    def test_blocking_changes_nothing(self, monkeypatch, data, mode, block):
        # a block of one instance takes BLAS's matrix-vector path, as every
        # single-instance call (score_instance, impute, ...) does
        spec = ModelSpec(
            n_factors=2, **mode_spec(mode, 0.3), tol=1e-300, max_iters=12, seed=4,
        )
        whole = fit(data, spec)
        whole_scores, whole_loglik = mmfa.score_dataset(whole, data)
        monkeypatch.setattr(engine, "INSTANCE_BLOCK", block)
        blocked = fit(data, spec)
        again = fit(data, spec)
        blocked_scores, blocked_loglik = mmfa.score_dataset(whole, data)

        np.testing.assert_allclose(
            blocked.objective_trace, whole.objective_trace, rtol=1e-12, atol=0
        )
        for got, want in ((blocked.scores, whole.scores), (blocked_scores, whole_scores)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(blocked_loglik, whole_loglik, rtol=1e-12, atol=0)
        assert again.objective_trace == blocked.objective_trace
        np.testing.assert_array_equal(again.scores, blocked.scores)

    @pytest.mark.filterwarnings("ignore:n_factors")
    @pytest.mark.parametrize(
        "mode, workers",
        [
            pytest.param(mode, workers, id=mode if workers == 1 else f"{mode}-2workers")
            for mode, workers in itertools.product(SCORE_MODES, (1, 2))
        ],
    )
    def test_no_k2p_stack(self, monkeypatch, mode, workers):
        # a one-iteration fit and a one-step scoring call each allocate
        # less than a single (P, K, K) float64 array at their peak, with
        # one block in flight per worker
        k, p = 10, 24 * self.CHUNK + 7
        monkeypatch.setattr(engine, "INSTANCE_BLOCK", self.CHUNK)
        monkeypatch.setattr(engine, "_WORKERS", workers)
        data = sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=p, n_gaussian=3, n_categories=(3,),
                n_trials=5, missing_fraction=0.2, seed=32,
            )
        ).dataset
        spec = ModelSpec(
            n_factors=k, **mode_spec(mode, 0.3), tol=1e-300, max_iters=1, seed=1,
        )

        def peak(call, *args, **kwargs):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            model, fit_peak = peak(fit, data, spec)
            _, score_peak = peak(mmfa.score_dataset, model, data, max_inner=1)
        finally:
            tracemalloc.stop()
        stack = p * k * k * 8
        assert fit_peak < stack and score_peak < stack, (fit_peak, score_peak, stack)


    def _wide_data(self, monkeypatch):
        # 40 blocks of 16 instances plus a remainder of 5, 40 features
        monkeypatch.setattr(engine, "INSTANCE_BLOCK", self.CHUNK)
        return sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=40 * self.CHUNK + 5, n_gaussian=40,
                n_categories=(3,), n_trials=5, missing_fraction=0.2, seed=33,
            )
        ).dataset

    @pytest.mark.parametrize("workers", [1, 2], ids=["1worker", "2workers"])
    def test_fit_memory_bounded_by_a_block(self, monkeypatch, workers):
        # beyond the arrays it returns, a fit holds one block's working
        # set per worker: its traced peak stays below a single (P, D1)
        # float64 array
        data = self._wide_data(monkeypatch)
        monkeypatch.setattr(engine, "_WORKERS", workers)
        spec = ModelSpec(n_factors=2, tol=1e-300, max_iters=2, seed=1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model = fit(data, spec)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in model_arrays(model))
        bound = data.gaussian.nbytes
        assert peak - outputs < bound, (peak, outputs, bound)

    @pytest.mark.parametrize("workers", [1, 2], ids=["1worker", "2workers"])
    def test_extrapolating_fit_memory_bounded_by_a_block(self, monkeypatch, workers):
        # SQUAREM recomputes the earlier iterates' noise variances and
        # expansion points block by block: beyond a few (K, P) score
        # arrays it holds no more than a plain fit
        data = self._wide_data(monkeypatch)
        monkeypatch.setattr(engine, "_WORKERS", workers)
        spec = ModelSpec(n_factors=2, tol=1e-300, max_iters=9, seed=1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            model = fit(data, spec)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert model.extrapolations == 2
        outputs = sum(a.nbytes for a in model_arrays(model))
        bound = data.gaussian.nbytes + 5 * model.scores.nbytes
        assert peak - outputs < bound, (peak, outputs, bound)

    @pytest.mark.parametrize(
        "max_inner, workers",
        [
            pytest.param(
                max_inner, workers,
                id=str(max_inner) if workers == 1 else f"{max_inner}-2workers",
            )
            for max_inner, workers in itertools.product((1, 50), (1, 2))
        ],
    )
    def test_score_memory_bounded_by_a_block(self, monkeypatch, max_inner, workers):
        # scoring, its log-likelihood included, also holds one block's
        # working set per worker beyond the scores and log-likelihoods it
        # returns
        data = self._wide_data(monkeypatch)
        monkeypatch.setattr(engine, "_WORKERS", workers)
        model = fit(data, ModelSpec(n_factors=2, tol=1e-300, max_iters=2, seed=1))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            scores, loglik = mmfa.score_dataset(model, data, max_inner=max_inner)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        outputs = scores.nbytes + loglik.nbytes
        bound = data.gaussian.nbytes
        assert peak - outputs < bound, (peak, outputs, bound)


class TestBlockPool:
    """A pass of several blocks runs them on the calling thread and a
    thread pool, with OpenBLAS at one thread, and reduces their results
    in block order."""

    CHUNK = 16

    @pytest.fixture
    def data(self, monkeypatch):
        # five blocks of 16 instances plus a remainder of 5; hidden
        # Gaussian entries hold NaN
        monkeypatch.setattr(engine, "INSTANCE_BLOCK", self.CHUNK)
        data = sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=5 * self.CHUNK + 5, n_gaussian=5,
                n_categories=(4, 3), n_trials=6, noise_variance=0.5,
                missing_fraction=0.3, seed=31,
            )
        ).dataset
        return HeteroDataset(
            gaussian=np.where(data.mask, data.gaussian, np.nan), mask=data.mask,
            categoricals=data.categoricals,
        )

    @staticmethod
    def spec(mode="ridge"):
        return ModelSpec(
            n_factors=2, **mode_spec(mode, 0.3), tol=1e-300, max_iters=12, seed=4,
        )

    @staticmethod
    def results(data, spec):
        """Everything a fit and scoring compute, for array_equal checks."""
        model = fit(data, spec)
        scored = [
            mmfa.score_dataset(model, data, max_inner=max_inner)
            for max_inner in (inference.INNER_MAX_ITERS, 1)
        ]
        return [
            np.array(model.objective_trace), *model_arrays(model),
            np.array(surrogate_objective(model, data)),
            *itertools.chain.from_iterable(scored),
        ]

    @pytest.fixture
    def blas(self):
        """OpenBLAS's (get, set), at 2 threads for the test, so that a pass
        that leaves it at 1 shows."""
        blas = engine._blas_threads()
        if blas is None:
            pytest.skip("the thread count of this BLAS cannot be set")
        get, set_ = blas
        saved = get()
        set_(2)
        try:
            if get() != 2:
                pytest.skip("this OpenBLAS cannot run 2 threads")
            yield blas
        finally:
            set_(saved)

    @pytest.mark.parametrize("mode", SCORE_MODES)
    def test_results_identical_across_worker_counts(self, monkeypatch, data, mode):
        monkeypatch.setattr(engine, "_WORKERS", 1)
        one = self.results(data, self.spec(mode))
        monkeypatch.setattr(engine, "_WORKERS", 2)
        two = self.results(data, self.spec(mode))
        assert len(one) == len(two)
        for got, want in zip(two, one):
            np.testing.assert_array_equal(got, want)

    def test_extrapolating_fit_identical_across_worker_counts(self, monkeypatch, data):
        fits = []
        for workers in (1, 2):
            monkeypatch.setattr(engine, "_WORKERS", workers)
            fits.append(fit(data, ModelSpec(n_factors=2, seed=4)))
        one, two = fits
        counts = ("iterations_run", "extrapolations", "extrapolations_rejected")
        assert one.extrapolations > 0
        assert [getattr(one, n) for n in counts] == [getattr(two, n) for n in counts]
        assert one.objective_trace == two.objective_trace
        for got, want in zip(model_arrays(two), model_arrays(one), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_single_block_results_independent_of_blas_threads(self):
        # a pass of one block holds OpenBLAS at one thread too
        script = (
            "import hashlib, sys, numpy as np, mmfa\n"
            "data = mmfa.sample_dataset(mmfa.GeneratorConfig(\n"
            "    n_factors=4, n_instances=2000, n_gaussian=40, n_categories=(30,),\n"
            "    n_trials=10, missing_fraction=0.3, seed=7)).dataset\n"
            "model = mmfa.fit(data, mmfa.ModelSpec(n_factors=4, max_iters=12, seed=1))\n"
            "scores, loglik = mmfa.score_dataset(model, data)\n"
            "digest = hashlib.sha256()\n"
            "for a in (model.scores, model.gaussian.mean, model.gaussian.cov,\n"
            "          np.array(model.objective_trace), scores, loglik):\n"
            "    digest.update(np.ascontiguousarray(a).tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                timeout=300, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    def test_blocks_run_on_the_pool_at_one_blas_thread(self, monkeypatch, data, blas):
        get, _ = blas
        seen = set()
        local_step = engine._local_step

        def recording(*args, **kwargs):
            seen.add((threading.current_thread().name, get()))
            return local_step(*args, **kwargs)

        monkeypatch.setattr(engine, "_local_step", recording)
        monkeypatch.setattr(engine, "_WORKERS", 2)
        self.results(data, self.spec())
        # the calling thread takes a share of the blocks, one pool thread
        # the rest
        threads = {name for name, _ in seen}
        assert len(threads) == 2 and threading.current_thread().name in threads
        assert {count for _, count in seen} == {1}
        assert get() == 2

    def test_block_error_raised_as_in_serial_and_blas_restored(
        self, monkeypatch, data, blas
    ):
        get, _ = blas
        local_step = engine._local_step
        calls = []

        def failing(data, spec, gauss_state, cat_states, scores, rows, **kwargs):
            # the middle block fails on the second iteration's pass
            if rows.start == 2 * self.CHUNK and kwargs.get("psis") is None:
                calls.append(rows)
                if len(calls) == 2:
                    raise NumericalError("singular block")
            return local_step(data, spec, gauss_state, cat_states, scores, rows, **kwargs)

        monkeypatch.setattr(engine, "_local_step", failing)
        monkeypatch.setattr(engine, "_WORKERS", 2)
        messages = []
        for setter in (None, blas):  # serial, then on the pool
            calls.clear()
            monkeypatch.setattr(engine, "_blas_threads", lambda setter=setter: setter)
            with pytest.raises(NumericalError) as info:
                fit(data, self.spec())
            messages.append(str(info.value))
            assert get() == 2
        assert messages[0] == messages[1] == "iteration 2: singular block"

    def test_serial_without_blas_setter(self, monkeypatch, data, blas):
        monkeypatch.setattr(engine, "_WORKERS", 2)
        pooled = self.results(data, self.spec())
        threads = set()
        local_step = engine._local_step

        def recording(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return local_step(*args, **kwargs)

        monkeypatch.setattr(engine, "_local_step", recording)
        monkeypatch.setattr(engine, "_blas_threads", lambda: None)
        serial = self.results(data, self.spec())
        assert threads == {threading.current_thread().name}
        for got, want in zip(serial, pooled):
            np.testing.assert_array_equal(got, want)

    def test_import_starts_no_thread_and_fit_exits(self):
        script = (
            "import threading\n"
            "import mmfa\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "from mmfa import engine\n"
            "engine.INSTANCE_BLOCK, engine._WORKERS = 16, 2\n"
            "data = mmfa.sample_dataset(mmfa.GeneratorConfig(\n"
            "    n_factors=2, n_instances=85, n_gaussian=3, n_categories=(3,),\n"
            "    seed=1)).dataset\n"
            "mmfa.fit(data, mmfa.ModelSpec(n_factors=2, tol=1e-300, max_iters=3))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestSelectK:
    @pytest.mark.filterwarnings("ignore:n_factors")
    @pytest.mark.slow
    def test_wide_categorical_shape_within_memory(self):
        # taxi-like modality shape: few gaussian features, several
        # categorical blocks with one large category count, ten factors
        cfg = GeneratorConfig(
            n_factors=3, n_instances=20_000, n_gaussian=4,
            n_categories=(7, 24, 263), n_trials=1, noise_variance=1.0, seed=1,
        )
        synth = sample_dataset(cfg)
        spec = ModelSpec(n_factors=10, tol=1e-300, max_iters=2, seed=2)
        model = fit(synth.dataset, spec)
        assert model.scores.shape == (10, 20_000)
        assert np.isfinite(model.objective_trace).all()

    def test_single_candidate(self):
        synth = small_dataset(seed=30, p=30)
        spec = ModelSpec(n_factors=1, max_iters=10, seed=3)
        best, table = select_k(synth.dataset, [2], spec)
        assert best == 2
        assert len(table) == 1
        assert np.isfinite(table[0]["bic"])

    def test_table_is_sorted_and_complete(self):
        synth = small_dataset(seed=31, p=40)
        spec = ModelSpec(n_factors=1, max_iters=10, seed=3)
        best, table = select_k(synth.dataset, [3, 1, 2], spec)
        assert [row["n_factors"] for row in table] == [1, 2, 3]
        assert best in (1, 2, 3)


class TestModelIO:
    def _roundtrip(self, model, tmp_path, name="model.mmfa"):
        path = tmp_path / name
        save_model(model, path)
        return load_model(path)

    def test_roundtrip_bitwise(self, tmp_path):
        cfg = GeneratorConfig(
            n_factors=2, n_instances=25, n_gaussian=3, n_categories=(3, 5),
            n_trials=4, missing_fraction=0.2, seed=9,
        )
        synth = sample_dataset(cfg)
        model = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=8, seed=7))
        loaded = self._roundtrip(model, tmp_path)
        assert len(loaded.categoricals) == 2
        for got, want in zip(model_arrays(loaded), model_arrays(model), strict=True):
            np.testing.assert_array_equal(got, want)
        assert loaded.objective_trace == model.objective_trace
        assert loaded.spec == model.spec
        assert loaded.converged == model.converged
        counts = ("iterations_run", "extrapolations", "extrapolations_rejected")
        assert model.extrapolations > 0
        assert [getattr(loaded, n) for n in counts] == [getattr(model, n) for n in counts]

    def test_large_model_uses_blob_and_roundtrips(self, tmp_path):
        cfg = GeneratorConfig(
            n_factors=2, n_instances=14000, n_gaussian=6, n_categories=(4,),
            n_trials=2, seed=2,
        )
        synth = sample_dataset(cfg)
        model = fit(
            synth.dataset, ModelSpec(n_factors=2, max_iters=2, tol=1e-300, seed=1)
        )
        path = tmp_path / "big.mmfa"
        save_model(model, path)
        assert (tmp_path / "big.mmfa.bin").exists()
        loaded = load_model(path)
        for got, want in zip(model_arrays(loaded), model_arrays(model), strict=True):
            np.testing.assert_array_equal(got, want)

    def test_sidecar_holds_scores_and_posteriors_only(self, tmp_path):
        # nothing per instance beyond its K scores: K P + D1 K + D1 K^2
        # values, and 3 K^2 + K (D - 1) per categorical block
        data = objective_datasets()["masked-two-block"]
        k, p, d1 = 2, data.n_instances, data.n_gaussian
        model = fit(data, ModelSpec(n_factors=k, max_iters=3, seed=1))
        save_model(model, tmp_path / "model.mmfa")
        values = k * p + d1 * k + d1 * k * k + sum(
            3 * k * k + k * (d - 1) for d in data.category_counts
        )
        assert (tmp_path / "model.mmfa.bin").stat().st_size == 8 * values

    def test_failed_overwrite_keeps_old_model(self, tmp_path, monkeypatch):
        import mmfa.model as model_module

        synth = small_dataset(seed=1, p=10)
        old = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=2, seed=1))
        new = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=3, seed=2))
        path = tmp_path / "model.mmfa"
        save_model(old, path)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "model.mmfa", "model.mmfa.bin"
        ]
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        def failing_dump(obj, fh, **kwargs):
            fh.write('{"schema_version": 1, "arr')
            raise OSError("disk full")

        monkeypatch.setattr(model_module.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            save_model(new, path)
        monkeypatch.undo()
        after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert after == before  # old bytes intact, no temporary file left
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.scores, old.scores)
        assert loaded.objective_trace == old.objective_trace

    def test_inline_model_of_earlier_versions_loads_bitwise(self, tmp_path):
        # earlier versions wrote models under 100k elements as one JSON
        # document with every matrix inline, column-major, and no blob
        cfg = GeneratorConfig(
            n_factors=2, n_instances=25, n_gaussian=3, n_categories=(3, 5),
            n_trials=4, missing_fraction=0.2, seed=9,
        )
        data = sample_dataset(cfg).dataset
        model = fit(data, ModelSpec(n_factors=2, max_iters=8))
        path = tmp_path / "old.mmfa"
        self._write_inline(model, earlier_arrays(model, data), path)
        loaded = load_model(path)
        for got, want in zip(model_arrays(loaded), model_arrays(model), strict=True):
            np.testing.assert_array_equal(got, want, strict=True)
            assert got.flags.c_contiguous
        assert loaded.objective_trace == model.objective_trace
        assert loaded.spec == model.spec
        # written before the extrapolation counts were recorded
        assert loaded.extrapolations == loaded.extrapolations_rejected == 0

    @staticmethod
    def _write_inline(model, arrays, path):
        """A model file as earlier versions wrote one under 100k elements:
        one JSON document with every matrix inline, column-major, no blob
        and no extrapolation counts."""
        doc = {
            "schema_version": 1,
            "spec": {
                name: getattr(model.spec, name)
                for name in ModelSpec.__dataclass_fields__
            },
            "n_category_list": model.category_counts,
            "iterations_run": model.iterations_run,
            "converged": model.converged,
            "objective_trace": model.objective_trace,
            "arrays": {
                name: {"shape": list(a.shape), "values": a.ravel(order="F").tolist()}
                for name, a in sorted(arrays.items())
            },
        }
        path.write_text(json.dumps(doc, sort_keys=True))
        return doc

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    def test_per_entry_arrays_of_earlier_versions_load_unread(
        self, tmp_path, monkeypatch, inline
    ):
        # earlier versions also stored the noise variances and expansion
        # points of the fit's last state; such a model loads bit for bit,
        # scores the same, and its per-entry arrays are never read
        import mmfa.model as model_module

        data = objective_datasets()["masked-two-block"]
        model = fit(data, ModelSpec(n_factors=2, max_iters=8, seed=3))
        arrays = earlier_arrays(model, data)
        path = tmp_path / "old.mmfa"
        if inline:
            doc = self._write_inline(model, arrays, path)
        else:
            with monkeypatch.context() as patch:
                patch.setattr(model_module, "_collect_arrays", lambda _: arrays)
                save_model(model, path)
            doc = json.loads(path.read_text())
        dropped = ["noise_variance", "cat0_expansion", "cat1_expansion"]
        assert set(dropped) < set(doc["arrays"])
        read = []
        read_array = model_module._read_array

        def recording(entry, blob):
            read.append(entry)
            return read_array(entry, blob)

        monkeypatch.setattr(model_module, "_read_array", recording)
        loaded = load_model(path)
        assert len(read) == len(model_arrays(model))
        assert not [entry for entry in read if entry in [doc["arrays"][n] for n in dropped]]
        for got, want in zip(model_arrays(loaded), model_arrays(model), strict=True):
            np.testing.assert_array_equal(got, want, strict=True)
        got_scores, got_loglik = mmfa.score_dataset(loaded, data)
        want_scores, want_loglik = mmfa.score_dataset(model, data)
        np.testing.assert_array_equal(got_scores, want_scores)
        np.testing.assert_array_equal(got_loglik, want_loglik)

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    @pytest.mark.parametrize("retired", [
        pytest.param({"n_gaussian": None, "n_categories": None}, id="unpinned"),
        pytest.param({"n_gaussian": 5, "n_categories": [4, 3]}, id="pinned"),
        pytest.param(
            {"score_update": "unconstrained", "ridge_weight": 1e-6},
            id="unconstrained-1e-06",
        ),
        pytest.param(
            {"score_update": "unconstrained", "ridge_weight": 0.0}, id="unconstrained-0"
        ),
    ])
    def test_retired_spec_settings_of_earlier_versions_load(
        self, tmp_path, inline, retired
    ):
        # earlier versions' specs held data-dimension pins, and a third
        # score mode, "unconstrained", which ignored ridge_weight: the
        # pins are dropped and the mode reads as the ridge solve at 0
        data = objective_datasets()["masked-two-block"]
        spec = ModelSpec(
            n_factors=2, score_update="ridge", ridge_weight=0.0, max_iters=8, seed=3
        )
        model = fit(data, spec)
        path = tmp_path / "old.mmfa"
        if inline:
            doc = self._write_inline(model, earlier_arrays(model, data), path)
        else:
            save_model(model, path)
            doc = json.loads(path.read_text())
        doc["spec"].update(retired)
        path.write_text(json.dumps(doc, sort_keys=True))
        loaded = load_model(path)
        assert loaded.spec == spec
        got_scores, got_loglik = mmfa.score_dataset(loaded, data)
        want_scores, want_loglik = mmfa.score_dataset(replace(model, spec=spec), data)
        np.testing.assert_array_equal(got_scores, want_scores)
        np.testing.assert_array_equal(got_loglik, want_loglik)

    def test_unknown_spec_key_schema_error(self, tmp_path):
        synth = small_dataset(seed=1, p=10)
        model = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=2, seed=1))
        path = tmp_path / "model.mmfa"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["spec"]["n_hidden"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(mmfa.SchemaError, match="n_hidden"):
            load_model(path)

    def test_truncated_file_schema_error(self, tmp_path):
        synth = small_dataset(seed=1, p=10)
        model = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=2, seed=1))
        path = tmp_path / "model.mmfa"
        save_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(mmfa.SchemaError):
            load_model(path)

    def test_truncated_blob_schema_error(self, tmp_path):
        synth = small_dataset(seed=1, p=10)
        model = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=2, seed=1))
        path = tmp_path / "model.mmfa"
        save_model(model, path)
        blob = tmp_path / "model.mmfa.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(mmfa.SchemaError, match="payload"):
            load_model(path)
        blob.unlink()
        with pytest.raises(mmfa.SchemaError, match="unreadable"):
            load_model(path)

    def test_sidecar_load_reads_each_array_into_its_own_buffer(
        self, tmp_path, monkeypatch
    ):
        # the traced peak of a load holds the arrays it returns plus one
        # chunk in flight, here one 14000-value column: not a copy of the
        # whole blob, nor a second copy of the largest array
        import mmfa.model as model_module

        monkeypatch.setattr(model_module, "SIDECAR_CHUNK_VALUES", 1 << 12)
        cfg = GeneratorConfig(
            n_factors=2, n_instances=14000, n_gaussian=6, n_categories=(4,),
            n_trials=2, seed=2,
        )
        model = fit(
            sample_dataset(cfg).dataset,
            ModelSpec(n_factors=2, max_iters=2, tol=1e-300, seed=1),
        )
        path = tmp_path / "big.mmfa"
        save_model(model, path)
        assert (tmp_path / "big.mmfa.bin").exists()
        sizes = [a.nbytes for a in model_arrays(model)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        for got, want in zip(model_arrays(loaded), model_arrays(model), strict=True):
            np.testing.assert_array_equal(got, want)
        assert peak <= sum(sizes) + 14000 * 8 + 64 * 1024, (peak, sum(sizes))

    @pytest.mark.parametrize("chunk_values", [1, 7, 1 << 16])
    def test_sidecar_chunks_load_bitwise_and_c_ordered(
        self, tmp_path, monkeypatch, chunk_values
    ):
        import mmfa.model as model_module

        monkeypatch.setattr(model_module, "SIDECAR_CHUNK_VALUES", chunk_values)
        synth = small_dataset(seed=4, p=23, with_missing=True)
        model = fit(synth.dataset, ModelSpec(n_factors=3, max_iters=3, seed=2))
        loaded = self._roundtrip(model, tmp_path)
        for got, want in zip(model_arrays(loaded), model_arrays(model), strict=True):
            np.testing.assert_array_equal(got, want, strict=True)
            assert got.flags.c_contiguous
        blob = tmp_path / "model.mmfa.bin"
        blob.write_bytes(blob.read_bytes()[:-12])
        with pytest.raises(mmfa.SchemaError, match="payload"):
            load_model(tmp_path / "model.mmfa")

    def test_version_mismatch_refused(self, tmp_path):
        synth = small_dataset(seed=1, p=10)
        model = fit(synth.dataset, ModelSpec(n_factors=2, max_iters=2, seed=1))
        path = tmp_path / "model.mmfa"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(mmfa.SchemaError, match="version"):
            load_model(path)
