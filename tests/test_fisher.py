"""Fisher information tests: closed-form cases, Monte Carlo consistency,
the conditional-Fisher oracle for the concentrated-prior regime, and the
exact bound of the score-recovery experiment."""

import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from mmfa import GeneratorConfig, NumericalError, crlb, fisher, sample_dataset
from mmfa.fisher import (
    MseExperimentConfig,
    aligned_score_mse,
    gaussian_fisher,
    mse_experiment,
    multinomial_fisher_mc,
)
from mmfa.multinomial import _probabilities
from oracles import pivot_softmax

CRLB_EXAMPLE = json.loads(
    (Path(__file__).parents[1] / "configs" / "crlb-example.json").read_text()
)


def conditional_multinomial_fisher(c, V, n_trials):
    """Closed form at known loadings: V N (diag(p) - p p^T) V^T over the
    non-pivot categories."""
    probs = pivot_softmax(V.T @ c)[:-1]
    return n_trials * V @ (np.diag(probs) - np.outer(probs, probs)) @ V.T


def whole_matrix_fisher(c, n_trials, n_categories, n_replicates, seed, xlogy_form):
    """multinomial_fisher_mc with its R x R cross-likelihood built whole
    and then reduced in blocks of 256 rows, as the estimator once did.

    xlogy_form False is that estimator's own arithmetic, counts @ log(p)^T
    with NaN entries dropped to -inf; True scores each entry with
    sum_d xlogy(z_rd, p_sd), the 0 log 0 = 0 convention. The probabilities
    are the estimator's own, so that the two agree to the bit.
    """
    k, d, r = len(c), n_categories, n_replicates
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((r, k, d - 1))
    probs = _probabilities(np.einsum("rkd,k->rd", V, c).T)
    counts = rng.multinomial(n_trials, probs)
    if xlogy_form:
        loglik = xlogy(counts[:, None, :], probs[None, :, :]).sum(axis=-1)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            loglik = counts @ np.log(probs).T
        loglik = np.where(np.isnan(loglik), -np.inf, loglik)
    loglik += (gammaln(n_trials + 1.0) - gammaln(counts + 1.0).sum(axis=1))[:, None]
    weights = np.exp(loglik - loglik.max(axis=1, keepdims=True))
    zbar = counts[:, : d - 1].astype(float)
    vp = np.einsum("rkd,rd->rk", V, probs[:, : d - 1])
    info = np.zeros((k, k))
    for start in range(0, r, 256):
        w = weights[start : start + 256]
        vw = (w @ V.reshape(r, -1)).reshape(len(w), k, d - 1)
        score = np.einsum("bkd,bd->bk", vw, zbar[start : start + 256])
        score -= n_trials * (w @ vp)
        score /= w.sum(axis=1)[:, None]
        info += score.T @ score
    info /= r
    return 0.5 * (info + info.T)


class TestGaussianFisher:
    def test_mean_term_only(self):
        got = gaussian_fisher(np.array([1.0]), mean=np.array([[1.0]]), cov=None,
                              noise_variance=1.0)
        assert got[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_variance_term_only(self):
        got = gaussian_fisher(
            np.array([1.0]), mean=np.array([[0.0]]), cov=1.0, noise_variance=1.0
        )
        assert got[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k, d1 = 3, 6
            got = gaussian_fisher(
                rng.standard_normal(k),
                mean=rng.standard_normal((d1, k)),
                cov=np.stack([
                    m @ m.T / k for m in rng.standard_normal((d1, k, k))
                ]),
                noise_variance=rng.uniform(0.5, 2.0, d1),
            )
            np.testing.assert_allclose(got, got.T, atol=1e-12)
            assert np.linalg.eigvalsh(got).min() >= -1e-10

    def test_score_function_monte_carlo_oracle(self):
        # sample y from the marginal, estimate the score by central
        # differences of the marginal log-density, average outer products
        rng = np.random.default_rng(7)
        k, d1 = 2, 3
        c = np.array([0.8, -0.4])
        mean = rng.standard_normal((d1, k))
        cov = np.stack([np.eye(k) * s for s in (0.5, 1.0, 0.2)])
        noise = np.array([0.6, 1.1, 0.9])
        analytic = gaussian_fisher(c, mean=mean, cov=cov, noise_variance=noise)

        def logpdf(y, cvec):
            mu = mean @ cvec
            var = np.einsum("jkl,k,l->j", cov, cvec, cvec) + noise
            return np.sum(-0.5 * (np.log(2 * np.pi * var) + (y - mu) ** 2 / var))

        n = 200_000
        h = 1e-5
        mu = mean @ c
        sd = np.sqrt(np.einsum("jkl,k,l->j", cov, c, c) + noise)
        ys = mu + sd * rng.standard_normal((n, d1))
        info = np.zeros((k, k))
        for y in ys:
            grad = np.empty(k)
            for d in range(k):
                step = np.zeros(k)
                step[d] = h
                grad[d] = (logpdf(y, c + step) - logpdf(y, c - step)) / (2 * h)
            info += np.outer(grad, grad)
        info /= n
        assert np.linalg.norm(info - analytic) / np.linalg.norm(analytic) < 0.05


class TestMultinomialFisherMc:
    def test_symmetric_psd_any_seed(self):
        for seed in range(5):
            got = multinomial_fisher_mc(
                np.array([0.5, -1.0]), n_trials=6, n_categories=4,
                n_replicates=200, seed=seed,
            )
            np.testing.assert_allclose(got, got.T, atol=1e-12)
            assert np.linalg.eigvalsh(got).min() >= -1e-10

    def test_deterministic_given_seed(self):
        kwargs = dict(n_trials=5, n_categories=3, n_replicates=300, seed=42)
        a = multinomial_fisher_mc(np.array([1.0, 0.5]), **kwargs)
        b = multinomial_fisher_mc(np.array([1.0, 0.5]), **kwargs)
        np.testing.assert_array_equal(a, b)

    def test_concentrated_prior_matches_conditional_fisher(self):
        rng = np.random.default_rng(3)
        k, d2, n = 3, 5, 40
        c = rng.standard_normal(k)
        V = rng.standard_normal((k, d2 - 1))
        analytic = conditional_multinomial_fisher(c, V, n)
        mc = multinomial_fisher_mc(
            c, n_trials=n, n_categories=d2, n_replicates=5000, seed=11,
            loading_mean=V, loading_var=1e-6,
        )
        rel = np.linalg.norm(mc - analytic) / np.linalg.norm(analytic)
        assert rel < 0.10

    def test_error_shrinks_with_replicates(self):
        # median over seeds of the relative gap between R and 4R estimates
        # decreases as R grows
        c = np.array([0.4, -0.7])
        gaps = {}
        for r in (100, 400):
            vals = []
            for seed in range(7):
                small = multinomial_fisher_mc(
                    c, n_trials=8, n_categories=4, n_replicates=r, seed=seed
                )
                large = multinomial_fisher_mc(
                    c, n_trials=8, n_categories=4, n_replicates=4 * r,
                    seed=seed + 100,
                )
                vals.append(
                    np.linalg.norm(small - large) / np.linalg.norm(large)
                )
            gaps[r] = np.median(vals)
        assert gaps[400] < gaps[100]

    def test_rejects_tiny_replicate_count(self):
        with pytest.raises(ValueError):
            multinomial_fisher_mc(np.array([1.0]), 4, 3, n_replicates=1, seed=0)

    @pytest.mark.parametrize("n_replicates", [2000.5, "2000", True])
    def test_rejects_non_integral_replicate_count(self, n_replicates):
        with pytest.raises(ValueError, match="n_replicates"):
            multinomial_fisher_mc(
                np.array([1.0]), 4, 3, n_replicates=n_replicates, seed=0
            )

    @pytest.mark.parametrize("n_replicates", [257, 2000])
    def test_matches_whole_matrix_reference(self, n_replicates):
        c = np.array(CRLB_EXAMPLE["c"])
        got = multinomial_fisher_mc(
            c, n_replicates=n_replicates, seed=CRLB_EXAMPLE["seed"],
            **CRLB_EXAMPLE["multinomial"],
        )
        want = whole_matrix_fisher(
            c, n_replicates=n_replicates, seed=CRLB_EXAMPLE["seed"],
            xlogy_form=False, **CRLB_EXAMPLE["multinomial"],
        )
        if n_replicates % 256 == 1:
            # the one-row last block takes BLAS's matrix-vector path,
            # which rounds differently from the same row of a whole GEMM
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        else:
            np.testing.assert_array_equal(got, want)

    def test_zero_probability_follows_xlogy(self):
        # at scores this large most replicates have a category whose
        # probability underflows to 0; a count vector without mass there
        # keeps its likelihood (once 0 * -inf = NaN dropped it to 0)
        c = 800.0 * np.array(CRLB_EXAMPLE["c"])
        kwargs = dict(n_trials=40, n_categories=5, n_replicates=500, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = multinomial_fisher_mc(c, **kwargs)
            want = whole_matrix_fisher(c, xlogy_form=True, **kwargs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.trace(got) < 0.1

    def test_memory_bounded_by_a_block_of_rows(self):
        # the cross-likelihood is built and reduced 256 rows at a time:
        # the traced peak stays below a single R x R float64 array
        r = 2000
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            multinomial_fisher_mc(
                np.array(CRLB_EXAMPLE["c"]), n_replicates=r,
                seed=CRLB_EXAMPLE["seed"], **CRLB_EXAMPLE["multinomial"],
            )
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < r * r * 8, peak


class TestCrlb:
    def test_identity_gaussian_only(self):
        k = 3
        # features = identity loadings with unit noise: F_g = I, bound = K
        result = crlb(
            np.zeros(k),
            gaussian={"mean": np.eye(k), "noise_variance": 1.0},
        )
        assert result.crlb == pytest.approx(float(k), abs=1e-12)
        np.testing.assert_array_equal(result.multinomial, 0.0)

    def test_scalar_sum(self):
        # K=1 with F_g = 2 and F_m = 2 gives trace((4)^-1) = 0.25; build
        # F_g = 2 from two unit loadings at unit noise and F_m = 2 from a
        # concentrated prior chosen to hit the target curvature
        result = crlb(
            np.array([1.0]),
            gaussian={"mean": np.array([[1.0], [1.0]]), "noise_variance": 1.0},
        )
        f_m = 2.0
        total = result.gaussian[0, 0] + f_m
        assert result.gaussian[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert 1.0 / total == pytest.approx(0.25, abs=1e-12)

    def test_single_block_bounds(self):
        result = crlb(
            np.array([1.0, 0.5]),
            gaussian={"mean": np.eye(2), "noise_variance": 2.0},
        )
        np.testing.assert_allclose(result.gaussian, np.eye(2) / 2.0, atol=1e-12)
        assert result.crlb_gaussian == pytest.approx(4.0, rel=1e-12)
        assert result.crlb_gaussian == pytest.approx(result.crlb, rel=1e-12)
        assert result.crlb_multinomial == np.inf  # no multinomial block

    @pytest.mark.parametrize(
        "argument, c, block",
        [
            ("c", [np.nan, 0.0], {}),
            ("c", [np.inf, 0.0], {}),
            ("loading_mean", [1.0, 0.5], {"loading_mean": [[np.inf, 0.0], [0.0, 1.0]]}),
            ("loading_var", [1.0, 0.5], {"loading_var": np.nan}),
        ],
        ids=["nan-c", "inf-c", "inf-loading-mean", "nan-loading-var"],
    )
    def test_non_finite_input_names_the_argument(self, argument, c, block):
        # each arrives from a user's config through `mmfa crlb`
        with pytest.raises(ValueError, match=f"^{argument} contains non-finite"):
            crlb(
                np.array(c), multinomial={"n_trials": 10, "n_categories": 3, **block},
                n_replicates=50,
            )

    @pytest.mark.parametrize(
        "argument, c, block",
        [
            ("c", [np.nan, 0.0], {}),
            ("c", [np.inf, 0.0], {}),
            ("mean", [1.0, 0.5], {"mean": [[np.nan, 0.0], [0.0, 1.0]]}),
            ("cov", [1.0, 0.5], {"cov": [[np.inf, 0.0], [0.0, 1.0]]}),
            ("noise_variance", [1.0, 0.5], {"noise_variance": np.inf}),
            ("noise_variance", [1.0, 0.5], {"noise_variance": [1.0, np.nan]}),
        ],
        ids=["nan-c", "inf-c", "nan-mean", "inf-cov", "inf-noise", "nan-noise"],
    )
    def test_non_finite_gaussian_input_names_the_argument(self, argument, c, block):
        # these once surfaced as a singular Fisher matrix, the numerical
        # failure `mmfa crlb` exits 4 on
        with pytest.raises(ValueError, match=f"^{argument} contains non-finite"):
            crlb(np.array(c), gaussian={"mean": np.eye(2), **block})

    def test_singular_combined_fisher_raises(self):
        with pytest.raises(NumericalError):
            crlb(np.array([1.0, 1.0]), gaussian={"mean": np.zeros((1, 2))})

    def test_rank_deficient_fisher_is_singular(self):
        # two features cannot inform three factors; the Cholesky factor of
        # such a matrix can survive rounding with a pivot of about 1e-8
        mean = np.random.default_rng(3).standard_normal((2, 3))
        with pytest.raises(NumericalError, match="singular"):
            crlb(np.array([0.3, -1.0, 0.5]),
                 gaussian={"mean": mean, "noise_variance": 5.0})

    def test_tiny_well_conditioned_fisher_stays_finite(self):
        # singularity is judged against the matrix's own scale
        mean = np.random.default_rng(4).standard_normal((6, 3))
        result = crlb(np.zeros(3), gaussian={"mean": mean, "noise_variance": 1e8})
        want = np.trace(np.linalg.inv(result.gaussian))
        assert result.crlb == pytest.approx(want, rel=1e-12)
        assert result.crlb > 1e7

    def test_additivity_inequality(self):
        # trace((F_g + F_m)^-1) <= min of the single-block bounds
        rng = np.random.default_rng(9)
        for trial in range(100):
            k = int(rng.integers(1, 4))
            c = rng.standard_normal(k)
            mean = rng.standard_normal((k + 2, k))
            f_g = gaussian_fisher(c, mean=mean, noise_variance=1.0)
            V = rng.standard_normal((k, 4))
            f_m = conditional_multinomial_fisher(c, V, n_trials=10)
            total = np.trace(np.linalg.inv(f_g + f_m + 1e-12 * np.eye(k)))
            assert total <= np.trace(np.linalg.inv(f_g)) + 1e-9
            assert total <= np.trace(np.linalg.inv(f_m + 1e-12 * np.eye(k))) + 1e-9

    def test_reference_configuration_regression_value(self):
        # D1 = D2 = 5, N = 40, K = 3, R = 2000: seeded value pinned after
        # validating the estimator against the conditional-Fisher oracle
        rng = np.random.default_rng(123)
        c = rng.standard_normal(3)
        mean = rng.standard_normal((5, 3))
        V = rng.standard_normal((3, 4))
        result = crlb(
            c,
            gaussian={"mean": mean, "noise_variance": 5.0},
            multinomial={
                "n_trials": 40,
                "n_categories": 5,
                "loading_mean": V,
                "loading_var": 1e-6,
            },
            n_replicates=2000,
            seed=7,
        )
        assert result.crlb == pytest.approx(REGRESSION_CRLB, rel=1e-9)


# pinned from the first run of test_reference_configuration_regression_value,
# after checking it against the analytic conditional Fisher (0.3% gap)
REGRESSION_CRLB = 1.0861867987902287


class TestTraceInverses:
    """The CRLB's trace of an inverse, over a stack of Fisher matrices."""

    def test_stack_equals_matrix_by_matrix(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((6, 3, 5))
        stack = M @ M.transpose(0, 2, 1)
        v = rng.standard_normal(3)
        stack[2] = np.outer(v, v)  # rank one: its rounding-sized pivot reads inf
        stack[4] = -np.eye(3)  # does not factor
        got = fisher._trace_inverses(stack)
        want = [fisher._trace_inverse(matrix) for matrix in stack]
        assert got[2] == got[4] == np.inf
        np.testing.assert_allclose(got, want, rtol=1e-13)
        for i in (0, 1, 3, 5):
            assert got[i] == pytest.approx(np.trace(np.linalg.inv(stack[i])), rel=1e-12)


class TestAlignedMse:
    def test_zero_for_rotated_scores(self):
        rng = np.random.default_rng(5)
        truth = rng.standard_normal((3, 40))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert aligned_score_mse(q @ truth, truth) == pytest.approx(0.0, abs=1e-20)

    def test_detects_real_error(self):
        rng = np.random.default_rng(6)
        truth = rng.standard_normal((2, 30))
        noisy = truth + 0.1 * rng.standard_normal(truth.shape)
        got = aligned_score_mse(noisy, truth)
        assert 0.0 < got < 2 * 0.01 * 2 * 30 / 30


class TestMseExperimentConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("n_seeds", 0), ("iterations", 0), ("n_instances", 0), ("n_factors", 0),
         ("n_trials", 0), ("n_categories", 1), ("noise_variance", 0.0),
         ("noise_variance", -1.0)],
    )
    def test_rejects_out_of_range_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            MseExperimentConfig(**{field: value})

    def test_to_dict_equals_asdict_and_round_trips(self):
        config = MseExperimentConfig(n_instances=7, noise_variance=2.5, seed=3)
        doc = config.to_dict()
        assert doc == dataclasses.asdict(config)
        assert MseExperimentConfig.from_dict(doc) == config

    @pytest.mark.filterwarnings("ignore:n_factors=3 is not smaller")
    def test_rank_deficient_gaussian_block_reports_inf(self):
        # two features cannot inform three factors; this seed once
        # reported a Gaussian bound of 8.5e16
        config = MseExperimentConfig(
            n_instances=12, n_gaussian=2, n_categories=5, n_factors=3,
            n_trials=5, iterations=2, n_seeds=1, seed=1,
        )
        result = mse_experiment(config)
        assert result.crlb_gaussian == np.inf
        assert np.isfinite(result.crlb_total)


class TestMseExperimentSmoke:
    CONFIG = MseExperimentConfig(
        n_instances=12,
        n_gaussian=3,
        n_categories=3,
        n_factors=2,
        n_trials=5,
        noise_variance=0.5,
        iterations=4,
        n_seeds=2,
        seed=5,
    )

    def test_tiny_configuration_runs(self):
        result = mse_experiment(self.CONFIG)
        assert result.mse_mean.shape == (4,)
        rows = list(result.rows())
        assert rows[0]["iteration"] == 1
        assert np.isfinite(result.crlb_total)
        assert result.crlb_total <= result.crlb_gaussian + 1e-9
        assert result.crlb_total <= result.crlb_multinomial + 1e-9

    def test_bounds_exact_at_realized_loadings_and_deterministic(self):
        config = self.CONFIG
        totals, multinomials = [], []
        for rep in range(config.n_seeds):
            synth = sample_dataset(
                GeneratorConfig(
                    n_factors=config.n_factors,
                    n_instances=config.n_instances,
                    n_gaussian=config.n_gaussian,
                    n_categories=(config.n_categories,),
                    n_trials=config.n_trials,
                    noise_variance=config.noise_variance,
                    seed=config.seed + rep,
                )
            )
            V = synth.categorical_loadings[0]
            for c in synth.scores.T:
                f_g = gaussian_fisher(
                    c, mean=synth.gaussian_loadings,
                    noise_variance=config.noise_variance,
                )
                f_m = conditional_multinomial_fisher(c, V, config.n_trials)
                totals.append(np.trace(np.linalg.inv(f_g + f_m)))
                multinomials.append(np.trace(np.linalg.inv(f_m)))
        result = mse_experiment(config)
        assert result.crlb_total == pytest.approx(np.mean(totals), rel=1e-12)
        assert result.crlb_multinomial == pytest.approx(
            np.mean(multinomials), rel=1e-12
        )
        again = mse_experiment(config)
        np.testing.assert_array_equal(again.per_seed_mse, result.per_seed_mse)
        assert list(again.rows()) == list(result.rows())
