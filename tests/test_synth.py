"""Generator tests: determinism, limiting cases, frequency laws, outliers."""

import numpy as np
import pytest

from mmfa import GeneratorConfig, sample_dataset
from mmfa.synth import inject_outliers
from oracles import pivot_softmax


class TestSampleDataset:
    def test_bitwise_deterministic(self):
        cfg = GeneratorConfig(
            n_factors=2, n_instances=40, n_gaussian=3, n_categories=(4, 3),
            n_trials=6, missing_fraction=0.2, outlier_fraction=0.05, seed=17,
        )
        a = sample_dataset(cfg)
        b = sample_dataset(cfg)
        np.testing.assert_array_equal(a.dataset.gaussian, b.dataset.gaussian)
        np.testing.assert_array_equal(a.dataset.mask, b.dataset.mask)
        for x, y in zip(a.dataset.categoricals, b.dataset.categoricals):
            np.testing.assert_array_equal(x.counts, y.counts)
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.outlier_labels, b.outlier_labels)

    def test_noiseless_limit_exact_product(self):
        cfg = GeneratorConfig(
            n_factors=2, n_instances=30, n_gaussian=4, n_categories=(3,),
            noise_variance=0.0, seed=3,
        )
        synth = sample_dataset(cfg)
        np.testing.assert_allclose(
            synth.dataset.gaussian,
            synth.scores.T @ synth.gaussian_loadings.T,
            atol=1e-12,
        )

    def test_zero_trials_zero_counts(self):
        cfg = GeneratorConfig(
            n_factors=2, n_instances=10, n_gaussian=2, n_categories=(4,),
            n_trials=0, seed=1,
        )
        synth = sample_dataset(cfg)
        assert synth.dataset.categoricals[0].full_counts().sum() == 0.0

    def test_rows_sum_to_trials(self):
        trials = np.arange(12)
        cfg = GeneratorConfig(
            n_factors=2, n_instances=12, n_gaussian=2, n_categories=(5,),
            n_trials=trials, seed=6,
        )
        synth = sample_dataset(cfg)
        np.testing.assert_array_equal(
            synth.dataset.categoricals[0].full_counts().sum(axis=1), trials
        )

    def test_category_frequencies_follow_softmax(self):
        # all instances share one score vector: empirical frequencies over
        # a large sample match the softmax probabilities within 3 binomial
        # standard errors
        k, p, d2 = 2, 100_000, 4
        rng = np.random.default_rng(9)
        shared = rng.standard_normal(k)
        cfg = GeneratorConfig(
            n_factors=k, n_instances=p, n_gaussian=1, n_categories=(d2,),
            n_trials=1, score_scale=1e-12, seed=12,
        )
        synth = sample_dataset(cfg)
        # overwrite with a shared score by regenerating counts directly
        V = synth.categorical_loadings[0]
        probs = pivot_softmax(shared @ V)
        counts = rng.multinomial(1, np.broadcast_to(probs, (p, d2)))
        freq = counts.mean(axis=0)
        stderr = np.sqrt(probs * (1 - probs) / p)
        assert np.all(np.abs(freq - probs) <= 3 * stderr + 1e-12)

    def test_mask_keeps_every_feature_covered(self):
        cfg = GeneratorConfig(
            n_factors=1, n_instances=8, n_gaussian=5, n_categories=(),
            missing_fraction=0.9, seed=2,
        )
        synth = sample_dataset(cfg)
        assert synth.dataset.mask.any(axis=0).all()

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(missing_fraction=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(outlier_fraction=-0.1)


class TestInjectOutliers:
    def _clean(self, p=200, seed=5):
        return sample_dataset(
            GeneratorConfig(
                n_factors=2, n_instances=p, n_gaussian=6, n_categories=(5,),
                n_trials=15, noise_variance=0.25, seed=seed,
            )
        )

    def test_zero_fraction_unchanged(self):
        synth = self._clean()
        out, labels = inject_outliers(synth, 0.0, seed=3)
        assert labels.sum() == 0
        np.testing.assert_array_equal(out.dataset.gaussian, synth.dataset.gaussian)

    def test_exact_count(self):
        synth = self._clean(p=1000)
        _, labels = inject_outliers(synth, 0.02, seed=3)
        assert labels.sum() == 20

    def test_categorical_block_untouched(self):
        synth = self._clean()
        out, labels = inject_outliers(synth, 0.1, seed=4)
        np.testing.assert_array_equal(
            out.dataset.categoricals[0].counts, synth.dataset.categoricals[0].counts
        )
        changed = np.any(out.dataset.gaussian != synth.dataset.gaussian, axis=1)
        np.testing.assert_array_equal(changed, labels)

    def test_injected_instances_have_lower_likelihood(self):
        from mmfa import ModelSpec, fit, instance_log_likelihoods

        synth = self._clean(p=400, seed=8)
        corrupted, labels = inject_outliers(synth, 0.05, seed=9)
        spec = ModelSpec(
            n_factors=2, alpha=1.0, beta=2.0, tol=1e-7, max_iters=150, seed=1
        )
        model = fit(corrupted.dataset, spec)
        loglik = instance_log_likelihoods(model, corrupted.dataset)
        assert np.median(loglik[labels]) < np.median(loglik[~labels])
