"""Inference-task tests: scoring, predictive likelihood, anomaly
thresholding, imputation, category prediction, and recall."""

from dataclasses import replace

import numpy as np
import pytest

from mmfa import (
    FittedModel,
    GaussianState,
    GeneratorConfig,
    HeteroDataset,
    ModelSpec,
    MultinomialData,
    UndefinedMetricError,
    UndefinedScoreError,
    anomaly_detect,
    category_probabilities,
    fit,
    impute,
    instance_log_likelihoods,
    recall_at_k,
    sample_dataset,
    score_dataset,
    score_instance,
)
from mmfa import engine
from mmfa import gaussian as gmod
from mmfa.engine import score_system, solve_scores_batch
from mmfa.inference import (
    INNER_TOL,
    anomaly_threshold,
    predict_gaussian,
    predictive_log_likelihood,
)
from oracles import bound_terms, dense_curvature, pivot_softmax


def fitted_bimodal(seed=0, p=60, tol=1e-12, max_iters=400):
    # noise prior mode matched to the generator noise, so the fitted
    # variances sit near the truth and convergence is well-behaved
    synth = sample_dataset(
        GeneratorConfig(
            n_factors=2,
            n_instances=p,
            n_gaussian=6,
            n_categories=(4,),
            n_trials=8,
            noise_variance=0.5,
            seed=seed,
        )
    )
    spec = ModelSpec(
        n_factors=2, alpha=1.0, beta=1.0, tol=tol, max_iters=max_iters,
        seed=seed + 1,
    )
    return synth, fit(synth.dataset, spec)


def gaussian_point_model(mean, noise_variance, spec=None):
    """Model with point-mass loading posteriors and a chosen test-time
    noise variance (via alpha/beta whose prior mode equals it)."""
    mean = np.asarray(mean, dtype=float)
    d1, k = mean.shape
    alpha = 1.0
    beta = 1.0 / (noise_variance * (alpha + 1.0))
    spec = spec or ModelSpec(
        n_factors=k, alpha=alpha, beta=beta, score_update="unconstrained",
        ridge_weight=0.0,
    )
    return FittedModel(
        spec=spec,
        scores=np.zeros((k, 0)),
        gaussian=GaussianState(mean=mean, cov=np.zeros((d1, k, k))),
    )


class TestScoreInstance:
    def test_training_instance_rescored_matches(self):
        synth, model = fitted_bimodal(seed=6, max_iters=2000)
        assert model.converged
        rescored, _ = score_dataset(model, synth.dataset)
        np.testing.assert_allclose(rescored, model.scores, atol=1e-4)

    def test_gaussian_only_closed_form(self):
        model = gaussian_point_model(np.array([[2.0]]), noise_variance=1.0)
        data = HeteroDataset(gaussian=np.array([[3.0]]))
        got = score_instance(model, data, 0)
        # single feature: c = (y a / s2) / (a^2 / s2) with point-mass loading
        assert got.scores[0] == pytest.approx(3.0 / 2.0, abs=1e-12)

    def test_categorical_only_instance_finite(self):
        synth, model = fitted_bimodal(seed=9, p=40, tol=1e-8, max_iters=120)
        data = synth.dataset
        masked = HeteroDataset(
            gaussian=data.gaussian,
            mask=np.zeros_like(data.gaussian, dtype=bool),
            categoricals=data.categoricals,
        )
        single = masked.subset([3])
        score = score_instance(model, single, 0)
        assert np.isfinite(score.scores).all()
        assert np.isfinite(score.log_predictive)

    def test_all_missing_instance_rejected(self):
        synth, model = fitted_bimodal(seed=2, p=20, tol=1e-6, max_iters=60)
        counts = synth.dataset.categoricals[0]
        d1 = model.n_gaussian
        empty = HeteroDataset(
            gaussian=np.zeros((1, d1)),
            mask=np.zeros((1, d1), dtype=bool),
            categoricals=[
                MultinomialData(
                    counts=np.zeros((1, counts.n_categories - 1)),
                    trials=np.zeros(1),
                    n_categories=counts.n_categories,
                )
            ],
        )
        with pytest.raises(UndefinedScoreError):
            score_instance(model, empty, 0)

    def test_pure_read_does_not_mutate_model(self):
        synth, model = fitted_bimodal(seed=5, p=25, tol=1e-6, max_iters=60)
        before = {
            "scores": model.scores.copy(),
            "mean": model.gaussian.mean.copy(),
            "loading": model.categoricals[0].loading_mean.copy(),
        }
        score_dataset(model, synth.dataset)
        np.testing.assert_array_equal(model.scores, before["scores"])
        np.testing.assert_array_equal(model.gaussian.mean, before["mean"])
        np.testing.assert_array_equal(
            model.categoricals[0].loading_mean, before["loading"]
        )


class TestSharedScoreSystem:
    """Fitting and scoring solve one score system (engine.score_system)."""

    @pytest.fixture(scope="class")
    def masked_two_blocks(self):
        synth = sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=60, n_gaussian=5, n_categories=(4, 3),
                n_trials=6, noise_variance=0.5, missing_fraction=0.3, seed=12,
            )
        )
        # plain EM: the values pinned below are of its 60-iteration model
        scores = []
        model = fit(
            synth.dataset, ModelSpec(n_factors=2, max_iters=60, seed=3, accelerate=False),
            callback=lambda _, m: scores.append(m.scores.copy()),
        )
        return synth.dataset, model, scores[-2]

    def test_final_solve_reproduces_fitted_scores(self, masked_two_blocks):
        # fit updates no state after its last score solve, which it takes
        # at the noise-variance M-step and expansion points of the scores
        # before
        data, model, source = masked_two_blocks
        spec = model.spec
        Y = gmod._observed(data.gaussian, data.mask)
        sigma2 = gmod.gaussian_m_step(
            model.gaussian, source, Y, data.mask, spec.alpha, spec.beta
        )
        H, rho = score_system(
            data, model.gaussian, gmod._weighted(sigma2, Y, data.mask), model.categoricals,
            [
                # category-first, as the fit passes it
                bound_terms(block.counts, block.trials, source.T @ state.loading_mean).T
                for block, state in zip(data.categoricals, model.categoricals)
            ],
        )
        scores = solve_scores_batch(H, rho, spec.score_update, spec.ridge_weight)
        np.testing.assert_allclose(scores.T, model.scores, rtol=1e-12, atol=0)

    def test_score_dataset_matches_pinned_values(self, masked_two_blocks):
        # the converged scores, pinned when scoring took Newton steps; the
        # MM iteration it replaced agrees to 3.2e-7 at 5000 steps
        data, model, _ = masked_two_blocks
        assert model.objective_trace[-1] == pytest.approx(
            -1303.2102584267327, rel=1e-12
        )
        C, loglik = score_dataset(model, data)
        np.testing.assert_allclose(
            C[:, :3],
            [
                [1.1381590513507864, -1.547955409441338, -0.33660712676060195],
                [0.018873250428674916, -1.3973135152771667, -0.4605497232875385],
            ],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            loglik[:3],
            [-12.804093986808816, -6.997451076727652, -12.229745961478283],
            rtol=1e-12,
        )
        assert loglik.sum() == pytest.approx(-664.9117663859611, rel=1e-12)


def mm_scores(model, data, steps):
    """Scores (K, P) after steps of the minorize-maximize iteration: the
    score system at the prior-mode noise variances and zero scores, then
    at the noise-variance M-step and expansion points of the last scores,
    each solved."""
    spec = model.spec
    C = np.zeros((model.n_factors, data.n_instances))
    for step in range(steps):
        sigma2 = None
        if step == 0 and data.gaussian is not None:
            sigma2 = np.full(
                data.gaussian.shape, gmod.prior_mode_variance(spec.alpha, spec.beta)
            )
        blk = engine._local_step(
            data, spec, model.gaussian, model.categoricals, C, slice(None),
            sigma2=sigma2,
        )
        C = solve_scores_batch(
            blk.H, blk.rho, spec.score_update, spec.ridge_weight, warm_start=C.T
        ).T
    return C


def profiled_objective(model, data, C):
    """Each instance's surrogate objective at scores C (K, P), with its
    noise variances and expansion points at their optima, up to terms
    free of C."""
    spec = model.spec
    g = -0.5 * spec.effective_ridge * np.sum(C * C, axis=0)
    if data.gaussian is not None:
        state = model.gaussian
        residual = data.gaussian - C.T @ state.mean.T
        spread = np.einsum("kp,jkl,lp->pj", C, state.cov, C)
        terms = np.log(np.square(residual) + spread + 2.0 / spec.beta)
        g -= (spec.alpha + 1.5) * np.where(data.observed_mask(), terms, 0.0).sum(axis=1)
    for state, block in zip(model.categoricals, data.categoricals):
        psi = C.T @ state.loading_mean
        lse = np.logaddexp.reduce(np.c_[psi, np.zeros(len(psi))], axis=1)
        A = dense_curvature(state.n_categories)
        # trace of A times the loading covariance of the log-odds
        spread = np.trace(A) * state.precision_inv + A.sum() * state.cross_cov
        g += (
            np.sum(block.counts * psi, axis=1) - block.trials * lse
            - 0.5 * block.trials * np.einsum("kp,kl,lp->p", C, spread, C)
        )
    return g


class TestConvergedScoring:
    """score_dataset takes safeguarded Newton steps on each instance's
    profiled objective."""

    @pytest.fixture(scope="class")
    def fits(self):
        synth = sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=60, n_gaussian=5, n_categories=(4, 3),
                n_trials=6, noise_variance=0.5, missing_fraction=0.3, seed=12,
            )
        )
        data = synth.dataset
        gaussian = HeteroDataset(gaussian=data.gaussian, mask=data.mask)
        categorical = HeteroDataset(categoricals=data.categoricals)
        # plain EM: at the default fit's model, 5000 MM steps of the
        # reference stop 1.3e-5 short of the fixed point scoring reaches;
        # test_stationary_at_default_fit covers that model
        spec = ModelSpec(n_factors=2, max_iters=60, seed=3, accelerate=False)
        fits = {
            name: (part, fit(part, spec))
            for name, part in (
                ("two-block", data), ("gaussian", gaussian),
                ("categorical", categorical),
            )
        }
        # a narrower noise prior, under which some Newton steps would lower
        # the objective and some Newton matrices do not factor
        fits["narrow-prior"] = (data, fit(data, replace(spec, beta=5.0)))
        return fits

    @pytest.mark.parametrize("name", ["two-block", "gaussian", "categorical"])
    def test_matches_long_mm_iteration(self, fits, name):
        data, model = fits[name]
        C, _ = score_dataset(model, data)
        np.testing.assert_allclose(C, mm_scores(model, data, 5000), rtol=0, atol=1e-6)

    @pytest.mark.parametrize("name", ["two-block", "gaussian", "categorical"])
    def test_stationary_at_default_fit(self, fits, name):
        # at a model of the default (SQUAREM) fit each instance's profiled
        # objective is flat at its scores, by central differences: rounding
        # puts the slope near 1e-9 there, and the 5000-step MM reference
        # reads 3.3e-7 on the categorical part
        data, _ = fits[name]
        model = fit(data, ModelSpec(n_factors=2, max_iters=60, seed=3))
        assert model.extrapolations > 0
        C, _ = score_dataset(model, data)
        h = 1e-5
        for k in range(model.n_factors):
            step = np.zeros_like(C)
            step[k] = h
            slope = (
                profiled_objective(model, data, C + step)
                - profiled_objective(model, data, C - step)
            ) / (2.0 * h)
            assert np.abs(slope).max() < 1e-7

    @pytest.mark.filterwarnings("ignore:scoring stopped")
    def test_profiled_objective_never_decreases(self, fits):
        data, model = fits["narrow-prior"]
        values = [
            profiled_objective(model, data, score_dataset(model, data, max_inner=t)[0])
            for t in range(1, 25)
        ]
        for before, after in zip(values, values[1:]):
            assert (after >= before - 1e-12 * np.abs(before)).all()

    @pytest.mark.filterwarnings("ignore:scoring stopped")
    def test_unfactorable_newton_matrix_takes_mm_step(self):
        # one factor, three features with unit loadings and residuals far
        # above the prior's noise scale: at the first step's scores the
        # Newton matrix w_j (1 - 2 w_j r_j^2 / (2 alpha + 3)) summed over j
        # is negative
        model = gaussian_point_model(np.ones((3, 1)), noise_variance=0.01)
        data = HeteroDataset(gaussian=np.array([[3.0, 3.0, -2.0]]))
        spec = model.spec
        c = mm_scores(model, data, 1)[0, 0]
        r = data.gaussian[0] - c
        w = (2.0 * spec.alpha + 3.0) / (r**2 + 2.0 / spec.beta)
        assert np.sum(w * (1.0 - 2.0 * w * r**2 / (2.0 * spec.alpha + 3.0))) < 0
        C, _ = score_dataset(model, data, max_inner=2)
        np.testing.assert_allclose(C, mm_scores(model, data, 2), rtol=1e-12)

    def test_nonnegative_scores_are_nonnegative(self, fits):
        data, _ = fits["two-block"]
        model = fit(
            data, ModelSpec(n_factors=2, score_update="nonnegative", max_iters=60, seed=3)
        )
        C, _ = score_dataset(model, data)
        assert (C >= 0).all()

    @pytest.mark.filterwarnings("ignore:scoring stopped")
    def test_converged_instance_not_moved_by_later_steps(self, fits):
        data, model = fits["two-block"]
        final, _ = score_dataset(model, data)
        iterates = [score_dataset(model, data, max_inner=t)[0] for t in range(1, 16)]
        partial = 0
        for before, after in zip(iterates, iterates[1:]):
            done = np.abs(after - before).max(axis=0) < INNER_TOL
            partial += 0 < done.sum() < data.n_instances
            np.testing.assert_array_equal(final[:, done], after[:, done])
        assert partial  # some steps ran with converged instances in the block


class TestHiddenEntries:
    def test_nan_in_masked_entries_changes_nothing(self):
        # hidden Gaussian entries may hold NaN (a "nan" CSV cell); fitting
        # and scoring must only ever read the observed entries
        data = sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=60, n_gaussian=5, n_categories=(4,),
                n_trials=6, noise_variance=0.5, missing_fraction=0.3, seed=14,
            )
        ).dataset
        assert np.isfinite(data.gaussian).all() and not data.mask.all()
        hidden = np.where(data.mask, data.gaussian, np.nan)
        nan_data = HeteroDataset(
            gaussian=hidden, mask=data.mask, categoricals=data.categoricals
        )
        spec = ModelSpec(n_factors=2, max_iters=30, seed=2)
        finite_model, nan_model = fit(data, spec), fit(nan_data, spec)
        np.testing.assert_array_equal(
            nan_model.objective_trace, finite_model.objective_trace
        )
        np.testing.assert_array_equal(nan_model.scores, finite_model.scores)
        np.testing.assert_array_equal(nan_model.gaussian.mean, finite_model.gaussian.mean)
        np.testing.assert_array_equal(nan_model.gaussian.cov, finite_model.gaussian.cov)
        for got, want in zip(
            score_dataset(nan_model, nan_data), score_dataset(finite_model, data)
        ):
            np.testing.assert_array_equal(got, want)

    def test_validate_reads_only_observed_entries(self):
        Y = np.arange(6.0).reshape(3, 2)
        mask = np.array([[True, False], [True, True], [False, True]])
        Y[0, 1] = Y[2, 0] = np.nan
        HeteroDataset(gaussian=Y, mask=mask)  # NaN only where hidden
        Y[1, 0] = np.nan
        with pytest.raises(ValueError, match="observed gaussian entries must be finite"):
            HeteroDataset(gaussian=Y, mask=mask)
        with pytest.raises(ValueError, match="observed gaussian entries must be finite"):
            HeteroDataset(gaussian=np.where(mask, Y, 0.0))  # no mask: all observed


class TestPredictiveLikelihood:
    def test_point_mass_posterior_reduces_to_gaussian_density(self):
        mean = np.array([[1.0, 0.0], [0.5, -0.5], [0.0, 2.0]])
        s2 = 0.7
        model = gaussian_point_model(mean, noise_variance=s2)
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((5, 3))
        data = HeteroDataset(gaussian=Y)
        C, loglik = score_dataset(model, data)
        expected = np.zeros(5)
        for i in range(5):
            mu = mean @ C[:, i]
            expected[i] = np.sum(
                -0.5 * (np.log(2 * np.pi * s2) + (Y[i] - mu) ** 2 / s2)
            )
        np.testing.assert_allclose(loglik, expected, atol=1e-10)

    @pytest.mark.filterwarnings("ignore:n_factors")
    def test_bound_below_quadrature_oracle_binary(self):
        # single Bernoulli modality: the reported categorical term is a lower
        # bound on the exact marginal computed by 1-D Gauss-Hermite
        # quadrature over the log-odds, and the gap stays under 0.1 nats
        synth = sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=120, n_gaussian=3, n_categories=(2,),
                n_trials=1, noise_variance=0.5, seed=6,
            )
        )
        model = fit(
            synth.dataset, ModelSpec(n_factors=2, tol=1e-10, max_iters=300, seed=1)
        )
        state = model.categoricals[0]
        C, _ = score_dataset(model, synth.dataset)
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        weights = weights / weights.sum()
        block = synth.dataset.categoricals[0]

        # recompute only the categorical part of the reported value
        from mmfa.multinomial import expected_bound_loglik, psi_update

        psi = psi_update(state.loading_mean, C)
        bound_terms = expected_bound_loglik(
            state, block.counts, block.trials, psi, C
        )
        cov_block = state.precision_inv + state.cross_cov  # D2=2: one block
        for i in range(0, 120, 7):
            c = C[:, i]
            m = (state.loading_mean.T @ c).item()
            s = float(np.sqrt(c @ cov_block @ c))
            eta = m + s * nodes
            p1 = 1.0 / (1.0 + np.exp(-eta))
            z = block.counts[i, 0]
            lik = p1 if z == 1 else 1.0 - p1
            exact = np.log(lik @ weights)
            assert bound_terms[i] <= exact + 1e-9
            assert exact - bound_terms[i] < 0.1

    def test_additive_over_instances(self):
        synth, model = fitted_bimodal(seed=7, p=30, tol=1e-8, max_iters=100)
        whole = predictive_log_likelihood(model, synth.dataset)
        first = predictive_log_likelihood(model, synth.dataset.subset(range(11)))
        rest = predictive_log_likelihood(model, synth.dataset.subset(range(11, 30)))
        assert whole == pytest.approx(first + rest, abs=1e-8)


class TestAnomaly:
    def test_median_threshold(self):
        assert anomaly_threshold([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)

    def test_threshold_monotone_in_delta(self):
        rng = np.random.default_rng(12)
        loglik = rng.standard_normal(200)
        deltas = [0.01, 0.05, 0.1, 0.25, 0.5]
        values = [anomaly_threshold(loglik, d) for d in deltas]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_small_validation_warns(self):
        with pytest.warns(UserWarning, match="unreliable"):
            anomaly_threshold([1.0, 2.0, 3.0], 0.05)

    def test_median_instance_not_anomalous_at_small_delta(self):
        synth, model = fitted_bimodal(seed=11, p=60, tol=1e-8, max_iters=100)
        loglik = instance_log_likelihoods(model, synth.dataset)
        median_idx = int(np.argsort(loglik)[len(loglik) // 2])
        verdicts = anomaly_detect(
            model, synth.dataset, synth.dataset.subset([median_idx]), delta=0.05
        )
        assert len(verdicts) == 1
        assert not verdicts[0].is_anomalous
        assert verdicts[0].is_anomalous == (
            verdicts[0].log_likelihood < verdicts[0].threshold
        )

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            anomaly_threshold([1.0], 1.5)


class TestImpute:
    def test_zero_scores_zero_prediction(self):
        model = gaussian_point_model(np.array([[1.0], [0.0]]), noise_variance=1.0)
        data = HeteroDataset(gaussian=np.array([[0.0, 5.0]]))
        # feature 0 observed as 0 -> score 0 -> any imputed value is 0
        masked = HeteroDataset(
            gaussian=data.gaussian,
            mask=np.array([[True, False]]),
        )
        assert impute(model, masked, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_dot_product_value(self):
        # observed feature has loading e1, so the instance scores to
        # c = [1, 0] (up to the default ridge) and the hidden feature's
        # prediction is its loading's first component
        model = gaussian_point_model(
            np.array([[1.0, 0.0], [3.0, -1.0]]),
            noise_variance=1.0,
            spec=ModelSpec(n_factors=2),
        )
        data = HeteroDataset(
            gaussian=np.array([[1.0, 0.0]]),
            mask=np.array([[True, False]]),
        )
        score = score_instance(model, data, 0)
        np.testing.assert_allclose(score.scores, [1.0, 0.0], atol=1e-5)
        assert impute(model, data, 0, 1) == pytest.approx(3.0, abs=1e-4)

    def test_linear_in_loading_at_fixed_scores(self):
        # scaling the loading of a feature the instance never observed
        # leaves its score unchanged, so the imputed value scales exactly
        synth, model = fitted_bimodal(seed=13, p=25, tol=1e-6, max_iters=50)
        data = synth.dataset
        mask = data.observed_mask().copy()
        mask[2, 1] = False
        hidden = HeteroDataset(
            gaussian=data.gaussian, mask=mask, categoricals=data.categoricals
        )
        value = impute(model, hidden, 2, 1)
        model.gaussian.mean[1] *= 2.5
        assert impute(model, hidden, 2, 1) == pytest.approx(2.5 * value, rel=1e-9)

    def test_categorical_index_rejected(self):
        synth, model = fitted_bimodal(seed=13, p=20, tol=1e-6, max_iters=40)
        with pytest.raises(ValueError, match="category_probabilities"):
            impute(model, synth.dataset, 0, model.n_gaussian)

    def test_beats_column_means_on_lowrank_ratings(self):
        synth = sample_dataset(
            GeneratorConfig(
                n_factors=3, n_instances=150, n_gaussian=25, n_categories=(),
                noise_variance=0.3, missing_fraction=0.4, seed=21,
            )
        )
        model = fit(
            synth.dataset, ModelSpec(n_factors=3, tol=1e-8, max_iters=150, seed=2)
        )
        hidden = ~synth.dataset.mask
        predictions = predict_gaussian(model, synth.dataset)
        truth = synth.dataset.gaussian
        mse_model = np.mean((predictions[hidden] - truth[hidden]) ** 2)
        observed = synth.dataset.mask
        means = np.array(
            [truth[observed[:, j], j].mean() for j in range(truth.shape[1])]
        )
        mse_base = np.mean((np.broadcast_to(means, truth.shape)[hidden] - truth[hidden]) ** 2)
        assert mse_model < mse_base


class TestCategoryProbabilities:
    def test_neutral_instance_uniform(self):
        synth, model = fitted_bimodal(seed=15, p=20, tol=1e-6, max_iters=40)
        d2 = model.categoricals[0].n_categories
        # gaussian observations of zero with zero trials: rho = 0 -> c = 0
        neutral = HeteroDataset(
            gaussian=np.zeros((1, model.n_gaussian)),
            categoricals=[
                MultinomialData(
                    counts=np.zeros((1, d2 - 1)), trials=np.zeros(1),
                    n_categories=d2,
                )
            ],
        )
        probs = category_probabilities(model, neutral, 0, 0)
        np.testing.assert_allclose(probs, np.full(d2, 1.0 / d2), atol=1e-6)

    def test_two_thirds_one_third(self):
        spec = ModelSpec(
            n_factors=1, score_update="unconstrained", ridge_weight=0.0,
        )
        model = gaussian_point_model(np.array([[1.0]]), 1.0, spec=spec)
        model.categoricals = [
            __import__("mmfa").MultinomialState(
                n_categories=2,
                precision=np.eye(1),
                precision_inv=np.eye(1),
                cross_cov=np.zeros((1, 1)),
                loading_mean=np.array([[np.log(2.0)]]),
            )
        ]
        data = HeteroDataset(
            gaussian=np.array([[1.0]]),
            categoricals=[
                MultinomialData(
                    counts=np.zeros((1, 1)), trials=np.zeros(1), n_categories=2
                )
            ],
        )
        probs = category_probabilities(model, data, 0, 0)
        np.testing.assert_allclose(probs, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)

    def test_matches_manual_softmax_composition(self):
        synth, model = fitted_bimodal(seed=16, p=30, tol=1e-6, max_iters=60)
        i = 4
        score = score_instance(model, synth.dataset, i)
        expected = pivot_softmax(model.categoricals[0].loading_mean.T @ score.scores)
        got = category_probabilities(model, synth.dataset, i, 0)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


class TestRecall:
    def _ratings_model(self, seed=0, p=80, d1=12):
        synth = sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=p, n_gaussian=d1, n_categories=(),
                noise_variance=0.2, missing_fraction=0.35, seed=seed,
            )
        )
        model = fit(
            synth.dataset, ModelSpec(n_factors=2, tol=1e-7, max_iters=120, seed=1)
        )
        return synth, model

    def test_single_liked_item_ranked_first(self):
        synth, model = self._ratings_model(seed=3)
        train_mask = synth.dataset.mask
        predictions = model.scores.T @ model.gaussian.mean.T
        j = 0
        candidates = np.flatnonzero(~train_mask[:, j])
        best_item = candidates[np.argmax(predictions[candidates, j])]
        test_mask = np.zeros_like(train_mask)
        test_mask[best_item, j] = True
        values = np.full(train_mask.shape, -np.inf)
        values[best_item, j] = 100.0
        got = recall_at_k(
            model, values, test_mask, train_mask, k=10, like_threshold=4.0
        )
        assert got == pytest.approx(1.0)

    def test_no_eligible_users_raises(self):
        synth, model = self._ratings_model(seed=4)
        test_mask = np.zeros_like(synth.dataset.mask)
        with pytest.raises(UndefinedMetricError):
            recall_at_k(
                model,
                np.zeros_like(synth.dataset.gaussian),
                test_mask,
                synth.dataset.mask,
            )

    def test_constant_predictions_match_permutation_null(self):
        # with all predictions equal the stable top-k is an arbitrary fixed
        # subset; over random liked sets the expected recall is k / pool
        synth, model = self._ratings_model(seed=5)
        model.gaussian.mean[:] = 0.0  # constant predictions
        train_mask = synth.dataset.mask
        rng = np.random.default_rng(8)
        k = 10
        recalls = []
        nulls = []
        for _ in range(60):
            test_mask = ~train_mask & (rng.random(train_mask.shape) < 0.25)
            values = np.where(rng.random(train_mask.shape) < 0.4, 5.0, 1.0)
            try:
                recalls.append(
                    recall_at_k(model, values, test_mask, train_mask, k=k)
                )
            except UndefinedMetricError:
                continue
            pools = (~train_mask).sum(axis=0)
            nulls.append(np.mean(np.minimum(k, pools) / pools))
        assert abs(np.mean(recalls) - np.mean(nulls)) < 0.05

    def test_oversized_k_uses_full_pool_with_warning(self):
        synth, model = self._ratings_model(seed=6, p=15)
        train_mask = synth.dataset.mask
        test_mask = ~train_mask
        values = np.full(train_mask.shape, 5.0)
        with pytest.warns(UserWarning, match="candidate pool"):
            got = recall_at_k(
                model, values, test_mask, train_mask, k=500, like_threshold=4.0
            )
        assert got == pytest.approx(1.0)
