"""Seeded sampling from the generative model, for tests and experiments.

Loadings and scores are drawn from their standard normal priors, the
real-valued block gets additive Gaussian noise, and each categorical
block is multinomial with probabilities given by the pivoted softmax of
its log-odds. A single generator drives everything in a fixed order, so
a config reproduces its dataset bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import HeteroDataset
from .multinomial import MultinomialData, _probabilities


@dataclass
class GeneratorConfig:
    n_factors: int = 3
    n_instances: int = 100
    n_gaussian: int = 5
    n_categories: tuple = (5,)
    n_trials: object = 1  # int, or sequence of per-instance counts
    score_scale: float = 1.0
    noise_variance: float = 1.0
    missing_fraction: float = 0.0
    outlier_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_factors, self.n_instances) < 1:
            raise ValueError("n_factors and n_instances must be positive")
        if self.n_gaussian < 0 or any(d < 2 for d in self.n_categories):
            raise ValueError("invalid modality dimensions")
        if not 0.0 <= self.missing_fraction < 1.0:
            raise ValueError("missing_fraction must lie in [0, 1)")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1)")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be nonnegative")

    def trials_array(self):
        if np.isscalar(self.n_trials):
            return np.full(self.n_instances, int(self.n_trials))
        trials = np.asarray(self.n_trials, dtype=int)
        if trials.shape != (self.n_instances,):
            raise ValueError("per-instance trials must have one entry per instance")
        return trials


@dataclass
class SyntheticData:
    """A sampled dataset together with its generating latent variables."""

    config: GeneratorConfig
    dataset: HeteroDataset
    scores: np.ndarray  # (K, P)
    gaussian_loadings: np.ndarray  # (D1, K) or None
    categorical_loadings: list = field(default_factory=list)  # [(K, D2-1)]
    outlier_labels: np.ndarray = None  # (P,) bool or None


def sample_dataset(config):
    """Draw one dataset (plus ground truth) from the generative model."""
    rng = np.random.default_rng(config.seed)
    k, p, d1 = config.n_factors, config.n_instances, config.n_gaussian

    U = rng.standard_normal((d1, k)) if d1 else None
    V = [rng.standard_normal((k, d2 - 1)) for d2 in config.n_categories]
    C = config.score_scale * rng.standard_normal((k, p))

    Y = None
    mask = None
    if d1:
        Y = C.T @ U.T + math.sqrt(config.noise_variance) * rng.standard_normal((p, d1))
        if config.missing_fraction > 0:
            mask = rng.random((p, d1)) >= config.missing_fraction
            for j in np.flatnonzero(~mask.any(axis=0)):
                mask[rng.integers(p), j] = True  # keep every feature covered

    trials = config.trials_array()
    categoricals = []
    for vm in V:
        z_full = rng.multinomial(trials, _probabilities((C.T @ vm).T))
        categoricals.append(MultinomialData.from_full_counts(z_full))

    synth = SyntheticData(
        config=config,
        dataset=HeteroDataset(gaussian=Y, mask=mask, categoricals=categoricals),
        scores=C,
        gaussian_loadings=U,
        categorical_loadings=V,
    )
    if config.outlier_fraction > 0:
        synth, labels = inject_outliers(synth, config.outlier_fraction, rng)
        synth.outlier_labels = labels
    return synth


def inject_outliers(synth, fraction, seed):
    """Make a fraction of instances cross-modal outliers: resample their
    gaussian block from fresh scores while their categorical blocks keep
    the original scores.

    Each corrupted instance is then unremarkable within any single
    modality but implausible jointly. Returns (new SyntheticData, boolean
    labels).
    """
    if synth.gaussian_loadings is None:
        raise ValueError("cross-modal outliers need a gaussian block")
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    cfg = synth.config
    p = cfg.n_instances
    n_out = int(round(fraction * p))
    labels = np.zeros(p, dtype=bool)
    Y = synth.dataset.gaussian.copy()
    if n_out:
        chosen = rng.choice(p, size=n_out, replace=False)
        labels[chosen] = True
        fresh_scores = cfg.score_scale * rng.standard_normal((cfg.n_factors, n_out))
        Y[chosen] = fresh_scores.T @ synth.gaussian_loadings.T + math.sqrt(
            cfg.noise_variance
        ) * rng.standard_normal((n_out, cfg.n_gaussian))
    dataset = HeteroDataset(
        gaussian=Y,
        mask=None if synth.dataset.mask is None else synth.dataset.mask.copy(),
        categoricals=synth.dataset.categoricals,
    )
    return (
        SyntheticData(
            config=cfg,
            dataset=dataset,
            scores=synth.scores,
            gaussian_loadings=synth.gaussian_loadings,
            categorical_loadings=synth.categorical_loadings,
            outlier_labels=labels,
        ),
        labels,
    )
