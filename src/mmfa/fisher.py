"""Estimation-error oracle: Fisher information and the resulting lower
bound on the mean squared error of any unbiased score estimator.

The Gaussian block has a closed-form Fisher matrix for the marginal
y_ij ~ Normal(c^T mu_j, c^T Sigma_j c + sigma2_ij). At fixed loadings V
the multinomial block has one too, N V (diag p - p p^T) V^T over the
non-pivot categories; the score-recovery experiment uses it. With the
loadings drawn from their prior it has no tractable form, so it is
estimated by Monte Carlo: draw loading matrices, draw one count vector
per draw, and average the score-function outer products with a
cross-likelihood matrix over the draws. All likelihood arithmetic runs
in log space with a max-shift, because the raw multinomial likelihoods
underflow already at modest trial counts.
"""

import contextlib
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .engine import _blas_threads, _one_blas_thread
from .errors import NumericalError
from .gaussian import _cholesky
from .multinomial import _log_factorial, _probabilities

_BLOCK = 256  # replicate block size for the cross-likelihood reductions


@dataclass
class FisherResult:
    gaussian: np.ndarray  # (K, K)
    multinomial: np.ndarray  # (K, K)
    crlb: float

    @property
    def crlb_gaussian(self):
        """Bound from the Gaussian block alone: trace of its inverse Fisher."""
        return _trace_inverse(self.gaussian)

    @property
    def crlb_multinomial(self):
        """Bound from the multinomial block alone."""
        return _trace_inverse(self.multinomial)


def _require_finite(**inputs):
    """Raise ValueError naming the first input not None and not finite."""
    for name, value in inputs.items():
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} contains non-finite entries")


def gaussian_fisher(c, mean, cov=None, noise_variance=1.0):
    """Fisher information of the Gaussian block at score vector c.

    Parameters
    ----------
    c : (K,) score vector.
    mean : (D1, K) loading means, one row per feature.
    cov : loading covariances: None for deterministic loadings, a scalar
        s for s * I shared by all features, a (K, K) matrix shared by all
        features, or a (D1, K, K) stack.
    noise_variance : scalar or (D1,) per-feature noise variances.

    Returns the (K, K) sum over features of

        mu_j mu_j^T / d_j + 2 (Sigma_j c)(Sigma_j c)^T / d_j^2,

    d_j = c^T Sigma_j c + sigma2_j. A non-finite entry in any argument
    raises ValueError naming it.
    """
    _require_finite(c=c, mean=mean, cov=cov, noise_variance=noise_variance)
    c = np.asarray(c, dtype=float)
    mean = np.atleast_2d(np.asarray(mean, dtype=float))
    d1, k = mean.shape
    if cov is None:
        cov = np.zeros((d1, k, k))
    elif np.isscalar(cov):
        cov = np.broadcast_to(float(cov) * np.eye(k), (d1, k, k))
    else:
        cov = np.asarray(cov, dtype=float)
        if cov.shape == (k, k):
            cov = np.broadcast_to(cov, (d1, k, k))
    noise = np.broadcast_to(np.asarray(noise_variance, dtype=float), (d1,))
    if np.any(noise <= 0):
        raise ValueError("noise variances must be positive")

    sc = np.einsum("jkl,l->jk", cov, c)
    denom = sc @ c + noise
    info = np.einsum("jk,jl,j->kl", mean, mean, 1.0 / denom)
    info += 2.0 * np.einsum("jk,jl,j->kl", sc, sc, 1.0 / denom**2)
    return 0.5 * (info + info.T)


def multinomial_fisher_mc(
    c,
    n_trials,
    n_categories,
    n_replicates,
    seed,
    loading_mean=None,
    loading_var=1.0,
):
    """Monte Carlo Fisher information of the multinomial block.

    For each of R replicates, draws a K x (D-1) loading matrix from
    Normal(loading_mean, loading_var * I) (standard normal by default),
    forms its category probabilities, and samples one count vector. The
    score of the loading-marginalized likelihood is then estimated for
    every sampled count vector by averaging likelihoods and likelihood
    gradients across all R loading draws, and the Fisher matrix is the
    average outer product of those scores.

    Shrinking loading_var toward zero around a fixed loading_mean turns
    the estimate into the loading-conditional Fisher matrix, which is the
    regime with a closed form to test against.

    n_replicates must be an integer of at least 2. The R x R
    cross-likelihood matrix is never formed: it is built, weighted and
    reduced _BLOCK rows at a time, so memory is O(_BLOCK * R) beyond the
    O(R K D) draws. A category whose probability underflows to exactly 0
    follows the convention 0 log 0 = 0: a count vector with no mass on it
    keeps its full likelihood under that replicate, one with mass on it
    gets likelihood 0.
    """
    c = np.asarray(c, dtype=float)
    k = c.shape[0]
    d = int(n_categories)
    r = _replicate_count(n_replicates)
    if n_trials < 1 or d < 2:
        raise ValueError("need at least one trial and two categories")
    _require_finite(c=c, loading_mean=loading_mean, loading_var=loading_var)
    rng = np.random.default_rng(seed)

    V = math.sqrt(loading_var) * rng.standard_normal((r, k, d - 1))
    if loading_mean is not None:
        V += np.asarray(loading_mean, dtype=float)
    eta = np.einsum("rkd,k->rd", V, c)
    probs = _probabilities(eta.T)  # (R, D)
    counts = rng.multinomial(int(n_trials), probs)  # (R, D)

    # 0 log 0 = 0: a zero probability contributes nothing to the GEMM, and
    # its replicates' columns are set to -inf afterwards where the count
    # row puts mass on the zero category
    zero = probs == 0
    log_probs = np.log(probs, out=np.zeros_like(probs), where=~zero)
    zero_cols = np.flatnonzero(zero.any(axis=1))
    zero_at = zero[zero_cols].T.astype(float)  # (D, columns with a zero)
    log_coeff = math.lgamma(n_trials + 1.0) - _log_factorial(counts).sum(axis=1)

    # score of replicate r: [sum_s w_rs V_s] z_r - n [sum_s w_rs V_s p_s],
    # normalized by the weight sum; shift factors cancel in the ratio
    zbar = counts[:, : d - 1].astype(float)
    vp = np.einsum("rkd,rd->rk", V, probs[:, : d - 1])  # V_s p_s per replicate
    v_flat = V.reshape(r, -1)
    info = np.zeros((k, k))
    for start in range(0, r, _BLOCK):
        stop = min(start + _BLOCK, r)
        # log cross-likelihoods: row r is z_r scored under every
        # replicate's probability vector
        w = counts[start:stop] @ log_probs.T  # (b, R)
        w += log_coeff[start:stop, None]
        if zero_cols.size:
            lost = (counts[start:stop] > 0) @ zero_at
            w[:, zero_cols] = np.where(lost > 0, -np.inf, w[:, zero_cols])
        shift = w.max(axis=1, keepdims=True)
        if not np.isfinite(shift).all():
            raise NumericalError(
                "all cross-likelihoods underflowed; increase the replicate "
                "count or reduce the trial count"
            )
        w -= shift
        np.exp(w, out=w)
        weight_sums = w.sum(axis=1)  # (b,)
        vw = (w @ v_flat).reshape(stop - start, k, d - 1)
        score = np.einsum("bkd,bd->bk", vw, zbar[start:stop])
        score -= n_trials * (w @ vp)
        score /= weight_sums[:, None]
        info += score.T @ score
    info /= r
    return 0.5 * (info + info.T)


def _replicate_count(n_replicates):
    """n_replicates as an int, or ValueError unless it is an integer >= 2."""
    if (
        isinstance(n_replicates, bool)
        or not isinstance(n_replicates, numbers.Integral)
        or n_replicates < 2
    ):
        raise ValueError(
            f"n_replicates must be an integer of at least 2, got {n_replicates!r}"
        )
    return int(n_replicates)


def crlb(c, gaussian=None, multinomial=None, n_replicates=2000, seed=0):
    """Combined Fisher information and the trace-of-inverse bound.

    gaussian: dict of :func:`gaussian_fisher` keyword arguments (mean,
    cov, noise_variance), or None when there is no Gaussian block.
    multinomial: one dict (or a list of dicts, summed) of
    :func:`multinomial_fisher_mc` keyword arguments minus c/seed, or None;
    its estimates run with OpenBLAS at one thread.
    """
    c = np.asarray(c, dtype=float)
    k = c.shape[0]
    _replicate_count(n_replicates)
    f_gauss = np.zeros((k, k))
    if gaussian is not None:
        f_gauss = gaussian_fisher(c, **gaussian)
    f_mult = np.zeros((k, k))
    if multinomial is not None:
        blocks = multinomial if isinstance(multinomial, (list, tuple)) else [multinomial]
        # OpenBLAS at one thread: the estimator's GEMMs are (256, R) by
        # (R, K(D-1)) at most, and a second BLAS thread busy-waits into the
        # Python work between them
        blas = _blas_threads()
        with _one_blas_thread(*blas) if blas else contextlib.nullcontext():
            for m, block in enumerate(blocks):
                f_mult += multinomial_fisher_mc(
                    c, n_replicates=n_replicates, seed=seed + m, **block
                )
    bound = _trace_inverse(f_gauss + f_mult)
    if math.isinf(bound):
        raise NumericalError("combined Fisher information is singular")
    return FisherResult(gaussian=f_gauss, multinomial=f_mult, crlb=bound)


def _trace_inverse(matrix):
    """Trace of the inverse of an SPD matrix, or inf if it is singular.

    With F = L L^T, inv(F) = inv(L)^T inv(L), so the trace is the squared
    Frobenius norm of inv(L). F counts as singular when its Cholesky
    factorization fails or its smallest pivot is negligible against its
    own scale, min(diag L)^2 <= K eps max(diag F): a rank-deficient F can
    factor with a rounding-sized pivot whose inverse would read as a
    finite bound of about 1e16.
    """
    chol = _cholesky(matrix)
    if chol is None:
        return math.inf
    floor = matrix.shape[0] * np.finfo(float).eps * np.diagonal(matrix).max()
    if np.diagonal(chol).min() ** 2 <= floor:
        return math.inf
    return float(np.sum(np.linalg.inv(chol) ** 2))


@dataclass
class MseExperimentConfig:
    """Configuration of the score-recovery experiment.

    Data is generated from the model itself, fit while tracking the
    per-iteration squared score error (after the best orthogonal
    alignment, since the factorization is only identifiable up to an
    orthogonal transform), and compared against the bound computed at the
    realized loadings: the exact Gaussian Fisher with the drawn loadings
    as deterministic means, plus the exact multinomial Fisher at the
    drawn loadings. Construction raises ValueError, naming the field, for
    a count below its minimum (two categories, one of everything else)
    or a noise variance that is not positive.
    """

    n_instances: int = 100
    n_gaussian: int = 5
    n_categories: int = 5
    n_factors: int = 3
    n_trials: int = 40
    noise_variance: float = 5.0
    ridge_weight: float = 1e-6
    alpha: float = 1.0
    beta: float = 0.1
    iterations: int = 100
    n_seeds: int = 10
    seed: int = 0

    def __post_init__(self):
        least = {"n_instances": 1, "n_factors": 1, "n_trials": 1,
                 "iterations": 1, "n_seeds": 1, "n_categories": 2}
        for name, minimum in least.items():
            value = getattr(self, name)
            if value < minimum:
                raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
        if not self.noise_variance > 0:
            raise ValueError(
                f"noise_variance must be positive, got {self.noise_variance!r}"
            )

    @classmethod
    def from_dict(cls, doc):
        return cls(**doc)

    def to_dict(self):
        # every field is a number, so a shallow dict is a copy; asdict's
        # recursive copy takes about 6 times as long
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class MseExperimentResult:
    config: MseExperimentConfig
    mse_mean: np.ndarray  # (iterations,) averaged over seeds and instances
    mse_stderr: np.ndarray  # (iterations,) across seeds
    crlb_total: float
    crlb_gaussian: float
    crlb_multinomial: float
    per_seed_mse: np.ndarray = field(default=None)  # (n_seeds, iterations)

    def rows(self):
        """Iterable of per-iteration report rows (1-based iterations)."""
        for i in range(len(self.mse_mean)):
            yield {
                "iteration": i + 1,
                "mse_mean": float(self.mse_mean[i]),
                "mse_stderr": float(self.mse_stderr[i]),
                "crlb_total": self.crlb_total,
                "crlb_gaussian": self.crlb_gaussian,
                "crlb_multinomial": self.crlb_multinomial,
            }


def aligned_score_mse(estimated, truth):
    """Mean squared score error after the best orthogonal alignment.

    Solves the orthogonal Procrustes problem min_Q ||Q est - truth||_F
    over the full orthogonal group (reflections included, since the
    isotropic priors leave them unidentifiable) and returns the mean
    per-instance squared error after applying it.
    """
    truth = np.asarray(truth, dtype=float)
    estimated = np.asarray(estimated, dtype=float)
    u, _, vt = np.linalg.svd(truth @ estimated.T)
    rotation = u @ vt
    diff = rotation @ estimated - truth
    return float(np.sum(diff**2) / truth.shape[1])


def mse_experiment(config):
    """Run the score-recovery experiment; see :class:`MseExperimentConfig`."""
    from .engine import fit
    from .model import ModelSpec
    from .synth import GeneratorConfig, sample_dataset

    all_mse = np.zeros((config.n_seeds, config.iterations))
    crlb_totals = []
    crlb_gauss = []
    crlb_mult = []
    for rep in range(config.n_seeds):
        data_seed = config.seed + rep
        synth = sample_dataset(
            GeneratorConfig(
                n_factors=config.n_factors,
                n_instances=config.n_instances,
                n_gaussian=config.n_gaussian,
                n_categories=(config.n_categories,),
                n_trials=config.n_trials,
                noise_variance=config.noise_variance,
                seed=data_seed,
            )
        )
        spec = ModelSpec(
            n_factors=config.n_factors,
            alpha=config.alpha,
            beta=config.beta,
            score_update="ridge",
            ridge_weight=config.ridge_weight,
            tol=1e-300,  # run every iteration; convergence is not the question
            max_iters=config.iterations,
            seed=data_seed + 1_000_003,
            accelerate=False,  # the error curve is per plain EM iteration
        )
        track = all_mse[rep]

        def record(iteration, snapshot, track=track, truth=synth.scores):
            track[iteration - 1] = aligned_score_mse(snapshot.scores, truth)

        fit(synth.dataset, spec, callback=record)

        V = synth.categorical_loadings[0]
        for c_true in synth.scores.T:
            f_g = gaussian_fisher(
                c_true,
                mean=synth.gaussian_loadings,
                cov=None,
                noise_variance=config.noise_variance,
            )
            probs = _probabilities((V.T @ c_true)[:, None])[0, :-1]  # non-pivot
            f_m = config.n_trials * V @ (np.diag(probs) - np.outer(probs, probs)) @ V.T
            crlb_totals.append(_trace_inverse(f_g + f_m))
            crlb_gauss.append(_trace_inverse(f_g))
            crlb_mult.append(_trace_inverse(f_m))

    if config.n_seeds > 1:
        stderr = all_mse.std(axis=0, ddof=1) / math.sqrt(config.n_seeds)
    else:
        stderr = np.zeros(config.iterations)
    return MseExperimentResult(
        config=config,
        mse_mean=all_mse.mean(axis=0),
        mse_stderr=stderr,
        crlb_total=float(np.mean(crlb_totals)),
        crlb_gaussian=float(np.mean(crlb_gauss)),
        crlb_multinomial=float(np.mean(crlb_mult)),
        per_seed_mse=all_mse,
    )
