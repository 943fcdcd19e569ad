"""EM driver: per-modality updates followed by a shared score step.

One iteration runs, in order: the exact Gaussian posterior and noise
updates, the variational multinomial posterior and expansion-point
updates for each categorical block, then one quadratic-program solve per
instance that fuses all modality contributions into new scores. Every
block update is an exact coordinate-ascent step on the same surrogate
objective, so the tracked objective never decreases.

The score step works through blocks of gaussian.KHATRI_RAO_CHUNK
instances: each block's Hessians are assembled by one GEMM, solved, and
read for the block's share of the objective before the next block is
built, so no array of K^2 P floats exists.
"""

import math
import time
from dataclasses import replace

import numpy as np

from . import gaussian as gmod
from . import multinomial as mmod
from .errors import DimensionMismatch, MmfaError, NumericalError
from .model import FittedModel, ModelSpec
from .multinomial import MultinomialState

NONNEG_KKT_TOL = 1e-8
NONNEG_MAX_ITERS = 20_000


def _prior_multinomial_state(n_categories, k, p):
    eye = np.eye(k)
    return MultinomialState(
        n_categories=n_categories,
        precision=eye.copy(),
        precision_inv=eye.copy(),
        cross_cov=np.zeros((k, k)),
        loading_mean=np.zeros((k, n_categories - 1)),
        expansion=np.zeros((p, n_categories - 1)),
    )


def _score_step(data, spec, C, gauss_state, weights, cat_states, ztildes,
                solve=True):
    """New scores and the score-dependent part of the objective.

    Builds the score system one block of instances at a time. With solve,
    each block is solved (warm-started from C) and the objective part is
    read at the new scores; without, it is read at C, which is returned.
    With every other part of the state held fixed the objective is
    sum_i (rho_i^T c_i - c_i^T (H_i + ridge I) c_i / 2) plus terms free
    of the scores, where (H, rho) is the unridged :func:`score_system`.
    Returns (scores (K, P), that sum).
    """
    new_C = np.empty_like(C) if solve else C
    lam = spec.effective_ridge
    quadratic = 0.0
    for rows in gmod._instance_blocks(C.shape[1]):
        H, rho = score_system(data, gauss_state, weights, cat_states, ztildes, rows)
        c = C[:, rows].T
        if solve:
            c = solve_scores_batch(
                H, rho, spec.score_update, spec.ridge_weight, warm_start=c
            )
            new_C[:, rows] = c.T
        Hc = np.einsum("pkl,pl->pk", H, c)
        quadratic += float(np.sum(c * (rho - 0.5 * Hc)))
        if lam > 0:
            quadratic -= 0.5 * lam * float(np.sum(c * c))
    return new_C, quadratic


def _score_free_terms(data, spec, gauss_state, sigma2, Y, weights, cat_states,
                      offsets, log_coefficient):
    """The objective's terms free of the scores; log_coefficient is the
    data-only :func:`_log_coefficient`."""
    total = log_coefficient
    if data.gaussian is not None:
        total += gmod.gaussian_score_free_terms(
            gauss_state, sigma2, Y, data.mask, weights, spec.alpha, spec.beta
        )
    for state, block, offset in zip(cat_states, data.categoricals, offsets):
        total += mmod.multinomial_score_free_terms(state, block.trials, offset)
    return total


def _log_coefficient(data):
    """Multinomial log-coefficient summed over every block and instance."""
    return float(sum(
        mmod.log_multinomial_coefficient(block.counts, block.trials).sum()
        for block in data.categoricals
    ))


def _adjusted_counts(data, cat_states):
    """Adjusted counts and bound offsets of every categorical block at its
    expansion points, as two lists."""
    pairs = [
        mmod.adjusted_counts(
            block.counts, block.trials, state.expansion, block.n_categories,
            return_offset=True,
        )
        for block, state in zip(data.categoricals, cat_states)
    ]
    return [z for z, _ in pairs], [offset for _, offset in pairs]


def _observed_weights(data, sigma2):
    """The Gaussian block with hidden entries zeroed, and its weights
    (:func:`gaussian._weighted`) at noise variances sigma2."""
    if data.gaussian is None:
        return None, None
    Y = gmod._observed(data.gaussian, data.mask)
    return Y, gmod._weighted(sigma2, Y, data.mask)


def surrogate_objective(model, data):
    """Surrogate objective of a fitted model on a dataset.

    The exact Gaussian evidence terms plus the bounded multinomial terms,
    each with their prior and posterior-entropy parts, minus the ridge
    penalty when that score mode is active. It is read off the score
    system built at the model's state by :func:`score_system`, the same
    path :func:`fit` takes, so it reproduces the last entry of the fit's
    trace. Deterministic given the model state.
    """
    model.check_compatible(data)
    spec, gauss_state, sigma2 = model.spec, model.gaussian, model.noise_variance
    Y, weights = _observed_weights(data, sigma2)
    ztildes, offsets = _adjusted_counts(data, model.categoricals)
    _, quadratic = _score_step(
        data, spec, model.scores, gauss_state, weights, model.categoricals,
        ztildes, solve=False,
    )
    return quadratic + _score_free_terms(
        data, spec, gauss_state, sigma2, Y, weights, model.categoricals, offsets,
        _log_coefficient(data),
    )


def solve_scores_batch(H, rho, mode, ridge_weight, warm_start=None):
    """Solve every instance's score quadratic program.

    H: (P, K, K) symmetric PSD stack, rho: (P, K). Modes:
      unconstrained - SPD solve of H c = rho
      ridge         - SPD solve of (H + ridge I) c = rho
      nonnegative   - accelerated projected gradient on the constrained
                      QP; each instance stops once its componentwise KKT
                      residual drops below 1e-8
    The SPD modes factor each system once, L L^T, by a Cholesky vectorized
    across instances, then substitute forward and back against L. The
    factor works in a (K, K, P) array: an H that is a view of one, as
    :func:`score_system` returns, is copied without reordering. Returns
    scores of shape (P, K). A non-finite entry in H or rho raises
    NumericalError, and so does a pivot that is not positive: the system
    is then singular or indefinite. Every instance's result is
    independent of the others, so a fit may solve its instances in
    blocks.
    """
    H = np.asarray(H, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if not (np.isfinite(H).all() and np.isfinite(rho).all()):
        raise NumericalError("non-finite score system")
    if mode == "nonnegative":
        return _nonneg_qp_batch(H, rho, warm_start)
    lam = ridge_weight if mode == "ridge" else 0.0
    L = _cholesky_batch(H, lam)
    k = L.shape[0]
    x = np.array(rho.T)  # (K, P)
    for j in range(k):
        x[j] -= np.einsum("mp,mp->p", L[j, :j], x[:j])
        x[j] /= L[j, j]
    for j in reversed(range(k)):
        x[j] -= np.einsum("mp,mp->p", L[j + 1:, j], x[j + 1:])
        x[j] /= L[j, j]
    return x.T


def _cholesky_batch(H, lam):
    """Lower Cholesky factors of H_i + lam I in a (K, K, P) array.

    One loop over the K columns; each step works on all instances at
    once along the last axis. The factor fills the lower triangle; the
    strict upper triangle keeps the entries of H and is never read.
    """
    k = H.shape[1]
    L = np.array(H.transpose(1, 2, 0), order="C")
    for j in range(k):
        done = L[j, :j]
        pivot = L[j, j] + lam - np.einsum("mp,mp->p", done, done)
        if not (np.isfinite(pivot) & (pivot > 0)).all():
            raise NumericalError(
                "singular score system; add ridge regularization "
                "(score_update='ridge')"
            )
        L[j, j] = np.sqrt(pivot)
        below = L[j + 1:, j]
        below -= np.einsum("imp,mp->ip", L[j + 1:, :j], done)
        below /= L[j, j]
    return L


def _nonneg_qp_batch(H, rho, warm_start):
    """Accelerated projected gradient (FISTA, step 1/L) per instance, with
    the gradient restart of O'Donoghue & Candes (2015): an instance's
    momentum resets whenever its step turns against its last move. Plain
    projected gradient needs about cond(H) ln(1/tol) steps, which breaks
    NONNEG_MAX_ITERS on an ill-conditioned instance; the accelerated one
    needs about the square root of that. An instance leaves the batch once
    its KKT residual is below NONNEG_KKT_TOL, so its iterates do not
    depend on the other instances."""
    p, k = rho.shape
    c = np.zeros((p, k)) if warm_start is None else np.maximum(warm_start, 0.0)
    H = np.ascontiguousarray(H)
    lipschitz = np.maximum(np.linalg.eigvalsh(H)[:, -1], 1e-12)[:, None]
    left = np.arange(p)
    x = y = c
    Hx = Hy = np.einsum("pkl,pl->pk", H, x)
    t = np.ones(p)
    for _ in range(NONNEG_MAX_ITERS):
        done = np.abs(np.minimum(x, Hx - rho)).max(axis=1) < NONNEG_KKT_TOL
        if done.any():
            c[left[done]] = x[done]
            keep = ~done
            left, x, Hx, y, Hy, t = (
                left[keep], x[keep], Hx[keep], y[keep], Hy[keep], t[keep]
            )
            H, rho, lipschitz = H[keep], rho[keep], lipschitz[keep]
        if not left.size:
            return c
        x_new = np.maximum(y - (Hy - rho) / lipschitz, 0.0)
        Hx_new = np.einsum("pkl,pl->pk", H, x_new)
        restart = np.einsum("pk,pk->p", y - x_new, x_new - x) > 0
        t_new = np.where(restart, 1.0, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t)))
        momentum = np.where(restart, 0.0, (t - 1.0) / t_new)[:, None]
        y = x_new + momentum * (x_new - x)
        Hy = Hx_new + momentum * (Hx_new - Hx)  # by linearity: one product a step
        x, Hx, t = x_new, Hx_new, t_new
    raise NumericalError("nonnegative score solver failed to reach KKT tolerance")


def score_system(data, gauss_state, weights, cat_states, ztildes,
                 rows=slice(None)):
    """Score quadratic programs (H, rho) of the instances in rows.

    Sums the Gaussian terms at weights (w, w * Y) (:func:`_observed_weights`)
    and, for each categorical block, the bounded multinomial terms at its
    adjusted counts ztilde (:func:`multinomial.adjusted_counts` at the
    block's expansion points). Every instance's Hessian is a weighted sum
    of the same few K x K matrices,

        H_i = sum_j w_ij (cov_j + mean_j mean_j^T) + sum_b N_ib base_b,

    so one GEMM of the stacked matrices against the block's weights
    writes H in the (K, K, b) layout that :func:`solve_scores_batch`
    factors. H is returned as a (b, K, K) view of it (H[i] is instance
    i's matrix), rho as (b, K). Fitting and scoring both solve this
    system, and the fit reads its objective off it.
    """
    mats, cols = [], []
    rho = 0.0
    if data.gaussian is not None:
        w, wy = weights
        moments, rho = gmod.gaussian_score_terms(gauss_state, wy[rows])
        mats.append(moments.reshape(len(moments), -1))
        cols.append(w[rows])
    for state, block, ztilde in zip(cat_states, data.categoricals, ztildes):
        base, rm = mmod.multinomial_score_terms(state, ztilde[rows])
        mats.append(base.reshape(1, -1))
        cols.append(block.trials[rows, None])
        rho = rho + rm
    k = rho.shape[1]
    stacked, weight = np.concatenate(mats), np.concatenate(cols, axis=1)
    H = (stacked.T @ weight.T).reshape(k, k, -1).transpose(2, 0, 1)
    return H, rho


def _categorical_sweep(block, C, ztilde):
    state = mmod.multinomial_e_step(C, block.trials, ztilde, block.n_categories)
    state.expansion = mmod.psi_update(state.loading_mean, C)
    return state


def fit(data, spec, callback=None):
    """Fit the factor model to a heterogeneous dataset.

    Iterates until the relative change of the surrogate objective falls
    below spec.tol or spec.max_iters is reached. An infinite tol runs
    exactly one iteration and reports converged=False, which is useful
    for smoke tests.

    Each iteration updates the Gaussian posterior and noise variances,
    sweeps every categorical block, then takes the score step: for one
    block of instances at a time it builds the score system with
    :func:`score_system`, solves it for the new scores and reads the
    block's share of the objective off it. The Gaussian weights at the
    new noise variances serve this score step and the next E-step; the
    adjusted counts and bound offsets at each block's new expansion
    points serve this score step, the objective and the next sweep.

    callback, if given, is invoked after every iteration as
    callback(iteration, snapshot) where snapshot is a FittedModel sharing
    the live state arrays (copy anything kept beyond the call).
    """
    if not isinstance(spec, ModelSpec):
        raise TypeError("spec must be a ModelSpec")
    data.validate()
    data.require_covered_features()
    spec.check_data(data)
    spec.warn_if_factor_heavy(data.n_gaussian, data.category_counts)

    k, p = spec.n_factors, data.n_instances
    rng = np.random.default_rng(spec.seed)
    C = 0.1 * rng.standard_normal((k, p))

    gauss_state = None
    sigma2 = None
    if data.gaussian is not None:
        d1 = data.n_gaussian
        gauss_state = gmod.GaussianState(
            mean=np.zeros((d1, k)),
            cov=np.broadcast_to(np.eye(k), (d1, k, k)).copy(),
        )
        sigma2 = np.full(
            (p, d1), gmod.prior_mode_variance(spec.alpha, spec.beta)
        )
    cat_states = [
        _prior_multinomial_state(b.n_categories, k, p) for b in data.categoricals
    ]

    log_coefficient = _log_coefficient(data)
    Y, weights = _observed_weights(data, sigma2)
    ztildes, offsets = _adjusted_counts(data, cat_states)
    _, quadratic = _score_step(
        data, spec, C, gauss_state, weights, cat_states, ztildes, solve=False
    )
    trace = [
        quadratic + _score_free_terms(
            data, spec, gauss_state, sigma2, Y, weights, cat_states, offsets,
            log_coefficient,
        )
    ]
    seconds = []
    stopped_early = False
    iterations = 0
    for iteration in range(1, spec.max_iters + 1):
        start = time.perf_counter()
        try:
            if data.gaussian is not None:
                gauss_state = gmod._e_step(C, *weights)
                weights = None  # free them before the M-step's temporaries
                sigma2 = gmod.gaussian_m_step(
                    gauss_state, C, Y, data.mask, spec.alpha, spec.beta
                )
                weights = gmod._weighted(sigma2, Y, data.mask)
            # the adjusted counts at the new expansion points feed both this
            # score step and the next iteration's categorical sweep
            cat_states = [
                _categorical_sweep(block, C, ztilde)
                for block, ztilde in zip(data.categoricals, ztildes)
            ]
            ztildes, offsets = _adjusted_counts(data, cat_states)
            C, quadratic = _score_step(
                data, spec, C, gauss_state, weights, cat_states, ztildes
            )
        except NumericalError as exc:
            raise NumericalError(f"iteration {iteration}: {exc}") from exc

        objective = quadratic + _score_free_terms(
            data, spec, gauss_state, sigma2, Y, weights, cat_states, offsets,
            log_coefficient,
        )
        seconds.append(time.perf_counter() - start)
        trace.append(objective)
        iterations = iteration
        if callback is not None:
            callback(
                iteration,
                FittedModel(
                    spec=spec,
                    scores=C,
                    gaussian=gauss_state,
                    noise_variance=sigma2,
                    categoricals=cat_states,
                    objective_trace=trace.copy(),
                    iterations_run=iteration,
                    converged=False,
                ),
            )
        previous = trace[-2]
        rel_change = abs(objective - previous) / max(abs(previous), 1e-12)
        if rel_change < spec.tol:
            stopped_early = True
            break

    return FittedModel(
        spec=spec,
        scores=C,
        gaussian=gauss_state,
        noise_variance=sigma2,
        categoricals=cat_states,
        objective_trace=trace,
        iterations_run=iterations,
        converged=stopped_early and math.isfinite(spec.tol),
        iteration_seconds=seconds,
    )


def select_k(data, k_candidates, spec, holdout_fraction=0.2):
    """Pick the factor count by BIC with a held-out predictive likelihood.

    Splits instances once (seeded by spec.seed), fits every candidate on
    the training fold, and scores the held-out fold with the predictive
    log-likelihood. The parameter count follows the model's nonparametric
    accounting: one score vector and one noise-variance row per training
    instance. Returns (best_k, table) where the table has one dict per
    candidate; ties break toward the smaller candidate.
    """
    from .inference import predictive_log_likelihood

    candidates = sorted(set(int(c) for c in k_candidates))
    if not candidates:
        raise ValueError("k_candidates must be nonempty")
    p = data.n_instances
    if p < 2:
        raise DimensionMismatch("need at least two instances to hold out a fold")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(p)
    n_hold = min(max(1, int(round(holdout_fraction * p))), p - 1)
    holdout = data.subset(perm[:n_hold])
    training = data.subset(perm[n_hold:])
    n_train = training.n_instances

    table = []
    for k in candidates:
        spec_k = replace(spec, n_factors=k)
        try:
            model = fit(training, spec_k)
            loglik = predictive_log_likelihood(model, holdout)
        except MmfaError as exc:
            raise type(exc)(f"candidate n_factors={k}: {exc}") from exc
        n_params = n_train * k + n_train * data.n_gaussian
        bic = n_params * math.log(n_train) - 2.0 * loglik
        table.append(
            {
                "n_factors": k,
                "bic": float(bic),
                "holdout_loglik": float(loglik),
                "n_params": n_params,
            }
        )
    best = min(table, key=lambda row: (row["bic"], row["n_factors"]))
    return best["n_factors"], table
