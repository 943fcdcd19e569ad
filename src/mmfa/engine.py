"""EM loop: a global step, then one pass over blocks of instances.

The loading posteriors of every modality depend on the instances only
through sums over them: sum_i w_ij c_i c_i^T and C (w * Y) for the
Gaussian block, C diag(N) C^T and C ztilde for each categorical block.
One iteration runs, in order:

- the global step (:func:`_global_step`): the exact Gaussian loading
  posterior (:func:`gaussian._e_step_finish`) and the variational
  posterior of each categorical block (:func:`multinomial._e_step_finish`),
  finished from the sums the previous pass left;
- one pass (:func:`_walk`) over blocks of INSTANCE_BLOCK instances
  (:func:`_instance_blocks`). Each block takes its local step
  (:func:`_local_step`): the noise-variance M-step and the bound's
  expansion points at the block's current scores, then its Gaussian
  weights, adjusted counts with the bound's offsets and score system,
  which one solve turns into new scores. The block then adds its share
  of the objective, read off the system just solved, and at its new
  scores its share of the sums (the modules' ``_e_step_sums``) the next
  global step reads.

This module decides the blocking; the Gaussian and multinomial modules
do per-block arithmetic only. A pass of several blocks runs them on a
thread pool of one worker per usable core, with OpenBLAS held at one
thread, and adds their results in block order (:func:`_blocks_in_order`),
so results do not depend on the number of workers.

Every update is an exact coordinate-ascent step on the same surrogate
objective, so the tracked objective never decreases. Beyond its outputs
(scores, noise variances, expansion points, posteriors), a fit holds one
block's working set per worker: no array of P D1 or K^2 P floats is made
per iteration.
"""

import contextlib
import ctypes
import functools
import math
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from . import gaussian as gmod
from . import multinomial as mmod
from .errors import DimensionMismatch, MmfaError, NumericalError
from .model import FittedModel, ModelSpec
from .multinomial import MultinomialState

NONNEG_KKT_TOL = 1e-8
NONNEG_MAX_ITERS = 20_000
# Instances per block of the fit's and scoring's passes: a block's working
# set holds a few arrays of K^2 or K(K+1)/2 floats per instance (the score
# systems take 1.6 MB at K=10), whatever P is.
INSTANCE_BLOCK = 2048
# Threads a pass runs its blocks on; None means every usable core.
_WORKERS = None


def _instance_blocks(p):
    """Consecutive slices of INSTANCE_BLOCK instances covering range(p)."""
    for start in range(0, p, INSTANCE_BLOCK):
        yield slice(start, start + INSTANCE_BLOCK)


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy calls, or None.

    The functions are looked up through numpy's core extension, whose
    handle also reaches the BLAS it was linked against.
    """
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get = getattr(lib, name.format("get"), None)
        set_ = getattr(lib, name.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_pin_lock = threading.Lock()
_pinned = []  # per pass holding the pin: the thread count to restore


@contextlib.contextmanager
def _one_blas_thread(get, set_):
    """OpenBLAS at one thread while a pass runs. Passes that run at the
    same time on several caller threads share the pin: the last to finish
    restores the count the first one found."""
    with _pin_lock:
        _pinned.append(_pinned[0] if _pinned else get())
        set_(1)
    try:
        yield
    finally:
        with _pin_lock:
            saved = _pinned.pop()
            if not _pinned:
                set_(saved)


def _blocks_in_order(p, step):
    """The results of step for each slice of :func:`_instance_blocks`, in
    block order.

    step(rows) returns (result, held): held is whatever the thread must
    keep referenced until it has built its next block (see run below).
    A pass of more than one block runs the blocks on min(workers, blocks)
    threads, workers being _WORKERS or else the usable cores: the calling
    thread and a pool of the others, each with one block at a time in
    flight. OpenBLAS is held at one thread for the pass: threads of both
    kinds would compete for the cores, and its rounding would then depend
    on the worker count. step may write only its own rows of shared
    arrays; the caller reduces the results in the order they are yielded,
    so its result does not depend on the worker count either. Where
    OpenBLAS's thread count cannot be set, the blocks run one after
    another on the calling thread. An exception from a block is raised
    once the blocks in flight have finished.
    """
    blocks = list(_instance_blocks(p))
    held = threading.local()

    def run(rows):
        # what a thread's previous block held stays referenced until the
        # thread has built its next block. Freed first, malloc hands the
        # pages of a wide block's arrays back to the system and the next
        # block faults them all in again: at 255 categories that tripled
        # the page faults and made an iteration 1.6 times slower.
        result, held.arrays = step(rows)
        return result

    blas = _blas_threads() if len(blocks) > 1 else None
    if blas is None:
        for rows in blocks:
            yield run(rows)
        return
    # imported here, not with the module: it imports logging, and a process
    # whose passes are single blocks never needs it
    from concurrent.futures import ThreadPoolExecutor

    workers = min(_WORKERS or _usable_cores(), len(blocks))
    with (_one_blas_thread(*blas),
          ThreadPoolExecutor(max(workers - 1, 1), "mmfa-block") as pool):
        # the calling thread takes the first block of each group of
        # workers blocks and the pool the others; a pool thread starts at
        # the first block submitted to it
        for start in range(0, len(blocks), workers):
            group = [pool.submit(run, rows) for rows in blocks[start + 1:start + workers]]
            yield run(blocks[start])
            for future in group:
                yield future.result()


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


@dataclass
class _Block:
    """One block of instances after its :func:`_local_step`."""

    rows: slice
    Y: np.ndarray = None  # (b, D1) Gaussian data, 0 where hidden
    mask: np.ndarray = None  # (b, D1), or None when every entry is observed
    sigma2: np.ndarray = None  # (b, D1) noise variances
    weights: tuple = None  # (w, w * Y) at sigma2
    psis: list = None  # expansion points, (D - 1, b) per categorical block
    ztildes: list = None  # adjusted counts at psis, (D - 1, b)
    offsets: list = None  # bound offsets at psis, for the objective only
    H: np.ndarray = None  # (b, K, K) score system
    rho: np.ndarray = None  # (b, K)


def _local_step(data, spec, gauss_state, cat_states, scores, rows,
                sigma2=None, psis=None, offsets=False, Y=None, bases=None):
    """The local step of the instances in rows, up to its solve.

    scores (K, b) are the block's current scores. Its noise variances are
    sigma2 or, if None, their M-step (:func:`gaussian.gaussian_m_step`)
    at scores; its expansion points are psis or, if None,
    psi = loading_mean^T C at scores, both category-first (D - 1, b).
    From them come the Gaussian weights, the adjusted counts (with their
    bound offsets if offsets, which only the objective reads;
    :func:`multinomial._bound_terms`) and the score system
    (:func:`score_system`). Fitting and scoring both take this step with
    the loading posteriors held fixed, and each solves the system itself.
    A caller that takes many steps on the same rows may pass what depends
    only on the data and the model: Y, the rows' Gaussian data from
    :func:`gaussian._observed`, and bases, the model's :func:`_score_bases`.
    Returns a :class:`_Block`.
    """
    blk = _Block(rows)
    if data.gaussian is not None:
        blk.mask = None if data.mask is None else data.mask[rows]
        blk.Y = gmod._observed(data.gaussian[rows], blk.mask) if Y is None else Y
        if sigma2 is None:
            sigma2 = gmod.gaussian_m_step(
                gauss_state, scores, blk.Y, blk.mask, spec.alpha, spec.beta
            )
        blk.sigma2 = sigma2
        blk.weights = gmod._weighted(sigma2, blk.Y, blk.mask)
    if psis is None:
        psis = [state.loading_mean.T @ scores for state in cat_states]
    blk.psis = psis
    adjusted = [
        mmod._bound_terms(block.counts[rows].T, block.trials[rows], psi, offsets)
        for block, psi in zip(data.categoricals, psis)
    ]
    if offsets:
        blk.ztildes = [z for z, _ in adjusted]
        blk.offsets = [offset for _, offset in adjusted]
    else:
        blk.ztildes = adjusted
    blk.H, blk.rho = score_system(
        data, gauss_state, blk.weights, cat_states, blk.ztildes, rows, bases
    )
    return blk


def _walk(data, model, log_coefficient, update):
    """One pass over the instance blocks; returns (objective, sums).

    model holds the state the pass reads and, with update, writes. With
    update (a fit iteration) each block takes its local step at its
    current scores, writes its noise variances into model.noise_variance
    and its expansion points into each categorical state's expansion
    array, and solves for new scores, written into model.scores. Without,
    each block reads the noise variances and expansion points as they are
    and the scores are kept. The objective is the surrogate at the scores
    the model then holds: the blocks' quadratic sum_i (rho_i^T c_i -
    c_i^T (H_i + ridge I) c_i / 2) with (H, rho) the unridged score
    system, plus the per-entry and per-instance terms free of the scores,
    then the terms of the loading posteriors alone and log_coefficient
    (:func:`_log_coefficient` of data). The sums, at the same scores, are
    what :func:`_global_step` reads: the packed Gaussian precision sums
    and C (w * Y), then C diag(N) C^T and C ztilde^T per categorical
    block.

    The blocks run through :func:`_blocks_in_order`, so on several
    threads at once. Each block writes only its own rows of the model's
    arrays and returns its objective terms and its sums; they are added
    here, block after block, so the result does not depend on the number
    of threads.
    """
    spec, C, sigma2 = model.spec, model.scores, model.noise_variance
    gauss_state, cat_states = model.gaussian, model.categoricals
    lam = spec.effective_ridge
    bases = _score_bases(cat_states)

    def step(rows):
        scores = C[:, rows]
        if update:
            blk = _local_step(
                data, spec, gauss_state, cat_states, scores, rows, offsets=True,
                bases=bases,
            )
            if sigma2 is not None:
                sigma2[rows] = blk.sigma2
            for state in cat_states:
                # by a second product, not a transposing copy of blk.psis,
                # which costs 8 times as much at 512 categories
                state.expansion[rows] = mmod.psi_update(state.loading_mean, scores)
            c = solve_scores_batch(
                blk.H, blk.rho, spec.score_update, spec.ridge_weight,
                warm_start=scores.T,
            )
            C[:, rows] = c.T
        else:
            blk = _local_step(
                data, spec, gauss_state, cat_states, scores, rows,
                sigma2=None if sigma2 is None else sigma2[rows],
                psis=[state.expansion[rows].T for state in cat_states],
                offsets=True, bases=bases,
            )
            c = scores.T
        Hc = np.einsum("pkl,pl->pk", blk.H, c)
        terms = [float(np.sum(c * (blk.rho - 0.5 * Hc)))]
        if lam > 0:
            terms.append(-0.5 * lam * float(np.sum(c * c)))
        if blk.weights is not None:
            terms.append(gmod.gaussian_entry_terms(
                blk.sigma2, blk.Y, blk.mask, blk.weights, spec.alpha, spec.beta
            ))
        for block, offset in zip(data.categoricals, blk.offsets):
            terms.append(-float(block.trials[rows] @ offset))

        parts = [] if blk.weights is None else [*gmod._e_step_sums(c.T, *blk.weights)]
        for block, ztilde in zip(data.categoricals, blk.ztildes):
            parts += mmod._e_step_sums(c.T, block.trials[rows], ztilde)
        # held: the arrays that grow with the category count; holding the
        # Gaussian ones too would cost a W1 fit 14 MB
        return (terms, parts), (blk.psis, blk.ztildes, blk.offsets)

    k = C.shape[0]
    total = 0.0
    sums = [] if data.gaussian is None else [
        np.zeros((k * (k + 1) // 2, data.n_gaussian)), np.zeros((k, data.n_gaussian))
    ]
    for block in data.categoricals:
        sums += [np.zeros((k, k)), np.zeros((k, block.n_categories - 1))]
    for terms, parts in _blocks_in_order(C.shape[1], step):
        for term in terms:
            total += term
        for acc, part in zip(sums, parts):
            acc += part
    return total + _posterior_terms(gauss_state, cat_states) + log_coefficient, sums


def _global_step(data, sums, cat_states):
    """The loading posteriors from the sums of :func:`_walk`.

    Returns (Gaussian state, categorical states). Each new categorical
    state takes over its predecessor's expansion array, which the next
    pass overwrites block by block.
    """
    sums = iter(sums)
    gauss_state = None
    if data.gaussian is not None:
        gauss_state = gmod._e_step_finish(next(sums), next(sums))
    new_states = []
    for block, old in zip(data.categoricals, cat_states):
        state = mmod._e_step_finish(next(sums), next(sums), block.n_categories)
        state.expansion = old.expansion
        new_states.append(state)
    return gauss_state, new_states


def _posterior_terms(gauss_state, cat_states):
    """The objective's terms that depend on the loading posteriors alone."""
    total = 0.0
    if gauss_state is not None:
        total += gmod.gaussian_posterior_terms(gauss_state)
    for state in cat_states:
        total += mmod.multinomial_posterior_terms(state)
    return total


def _log_coefficient(data):
    """Multinomial log-coefficient summed over every block and instance."""
    return float(sum(
        mmod.log_multinomial_coefficient(block.counts, block.trials).sum()
        for block in data.categoricals
    ))


def surrogate_objective(model, data):
    """Surrogate objective of a fitted model on a dataset.

    The exact Gaussian evidence terms plus the bounded multinomial terms,
    each with their prior and posterior-entropy parts, minus the ridge
    penalty when that score mode is active. It is read off the score
    system built at the model's state by :func:`score_system`, through
    the same pass over instance blocks that :func:`fit` takes, so it
    reproduces the last entry of the fit's trace. Deterministic given the
    model state.
    """
    model.check_compatible(data)
    objective, _ = _walk(data, model, _log_coefficient(data), update=False)
    return objective


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
    :func:`score_system` returns once it has unpacked its packed systems,
    is copied without reordering. Returns
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
    return _substitute(_cholesky_batch(H, lam), rho.T).T


def _substitute(L, rhs):
    """x (K, P) with L_i L_i^T x_i = rhs_i, for factors L (K, K, P) from
    :func:`_cholesky_batch` and rhs (K, P): forward, then back
    substitution, each on all instances at once."""
    k = L.shape[0]
    x = np.array(rhs)
    for j in range(k):
        x[j] -= np.einsum("mp,mp->p", L[j, :j], x[:j])
        x[j] /= L[j, j]
    for j in reversed(range(k)):
        x[j] -= np.einsum("mp,mp->p", L[j + 1:, j], x[j + 1:])
        x[j] /= L[j, j]
    return x


def _cholesky_batch(H, lam, flag=False):
    """Lower Cholesky factors of H_i + lam I in a (K, K, P) array.

    One loop over the K columns; each step works on all instances at
    once along the last axis. The factor fills the lower triangle; the
    strict upper triangle keeps the entries of H and is never read. A
    pivot that is not positive raises NumericalError or, with flag, marks
    its instance: (L, ok) is returned, and the factor of an instance with
    ok False is not to be used.
    """
    k = H.shape[1]
    L = np.array(H.transpose(1, 2, 0), order="C")
    ok = np.ones(L.shape[2], dtype=bool)
    for j in range(k):
        done = L[j, :j]
        pivot = L[j, j] + lam - np.einsum("mp,mp->p", done, done)
        good = np.isfinite(pivot) & (pivot > 0)
        if not good.all():
            if not flag:
                raise NumericalError(
                    "singular score system; add ridge regularization "
                    "(score_update='ridge')"
                )
            ok &= good
            pivot[~good] = 1.0  # the flagged instances' columns go on finite
        L[j, j] = np.sqrt(pivot)
        below = L[j + 1:, j]
        below -= np.einsum("imp,mp->ip", L[j + 1:, :j], done)
        below /= L[j, j]
    return (L, ok) if flag else L


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


def _score_bases(cat_states):
    """Each categorical block's :func:`multinomial.score_base`, packed
    (:func:`gaussian._pack`), one row per block: the model-only part of
    the score systems' categorical terms."""
    return [gmod._pack(mmod.score_base(state))[None] for state in cat_states]


def score_system(data, gauss_state, weights, cat_states, ztildes,
                 rows=slice(None), bases=None):
    """Score quadratic programs (H, rho) of the instances in rows.

    Sums the Gaussian terms at weights (w, w * Y) (:func:`gaussian._weighted`)
    and, for each categorical block, the bounded multinomial terms at its
    category-first adjusted counts ztilde, (D - 1, b)
    (:func:`multinomial._bound_terms` at the block's expansion points).
    weights and ztildes hold the rows' instances only. Every instance's
    Hessian is a weighted sum of the same few symmetric K x K matrices,

        H_i = sum_j w_ij (cov_j + mean_j mean_j^T) + sum_b N_ib base_b,

    so one GEMM of those matrices, packed to their K(K+1)/2 upper-triangle
    entries (:func:`gaussian._pack`), against the block's weights gives
    every H_i packed. It is unpacked once into the (K, K, b) layout that
    :func:`solve_scores_batch` factors, and H is returned as a (b, K, K)
    view of that array (H[i] is instance i's matrix), rho as (b, K).
    Fitting and scoring both solve this system, and the fit reads its
    objective off it. bases, if given, are the model's
    :func:`_score_bases`, which a caller building many systems makes once.
    """
    if bases is None:
        bases = _score_bases(cat_states)
    mats, cols = [], []
    rho = 0.0
    if data.gaussian is not None:
        w, wy = weights
        moments, rho = gmod.gaussian_score_terms(gauss_state, wy)
        mats.append(moments)
        cols.append(w)
    for state, block, ztilde in zip(cat_states, data.categoricals, ztildes):
        cols.append(block.trials[rows, None])
        rho = rho + (state.loading_mean @ ztilde).T
    stacked, weight = np.concatenate(mats + bases), np.concatenate(cols, axis=1)
    H = gmod._unpack(stacked.T @ weight.T).transpose(2, 0, 1)
    return H, rho


def fit(data, spec, callback=None):
    """Fit the factor model to a heterogeneous dataset.

    Iterates until the relative change of the surrogate objective falls
    below spec.tol or spec.max_iters is reached. An infinite tol runs
    exactly one iteration and reports converged=False, which is useful
    for smoke tests.

    Each iteration finishes the Gaussian and categorical loading
    posteriors from sums over the instances (:func:`_global_step`), then
    walks the blocks of instances once (:func:`_walk`). Each block takes
    its noise-variance M-step and expansion points at its current scores,
    builds its score system with :func:`score_system`, solves it for new
    scores, reads its share of the objective off it, and adds its share
    of the sums the next iteration's posteriors are finished from.
    trace[0] comes from the same walk at the initial state, without the
    solve and the updates. The blocks of a walk run on the usable cores,
    with OpenBLAS at one thread and their results added in block order,
    so the result does not depend on the number of cores. Beyond the
    returned arrays a fit holds one block's working set per worker, so
    its memory grows with P only through its outputs and the data.

    callback, if given, is invoked after every iteration as
    callback(iteration, model) with the FittedModel the fit returns,
    whose states, arrays and trace the next iteration overwrites or
    extends (copy anything kept beyond the call).
    """
    if not isinstance(spec, ModelSpec):
        raise TypeError("spec must be a ModelSpec")
    data.validate()
    data.require_covered_features()
    spec.check_data(data)
    spec.warn_if_factor_heavy(data.n_gaussian, data.category_counts)

    k, p = spec.n_factors, data.n_instances
    rng = np.random.default_rng(spec.seed)
    model = FittedModel(spec=spec, scores=0.1 * rng.standard_normal((k, p)))
    if data.gaussian is not None:
        d1 = data.n_gaussian
        model.gaussian = gmod.GaussianState(
            mean=np.zeros((d1, k)),
            cov=np.broadcast_to(np.eye(k), (d1, k, k)).copy(),
        )
        model.noise_variance = np.full(
            (p, d1), gmod.prior_mode_variance(spec.alpha, spec.beta)
        )
    model.categoricals = [
        _prior_multinomial_state(b.n_categories, k, p) for b in data.categoricals
    ]
    log_coefficient = _log_coefficient(data)
    objective, sums = _walk(data, model, log_coefficient, update=False)
    model.objective_trace.append(objective)
    for iteration in range(1, spec.max_iters + 1):
        start = time.perf_counter()
        try:
            model.gaussian, model.categoricals = _global_step(
                data, sums, model.categoricals
            )
            objective, sums = _walk(data, model, log_coefficient, update=True)
        except NumericalError as exc:
            raise NumericalError(f"iteration {iteration}: {exc}") from exc
        model.iteration_seconds.append(time.perf_counter() - start)
        model.objective_trace.append(objective)
        model.iterations_run = iteration
        if callback is not None:
            callback(iteration, model)
        previous = model.objective_trace[-2]
        rel_change = abs(objective - previous) / max(abs(previous), 1e-12)
        if rel_change < spec.tol:
            model.converged = math.isfinite(spec.tol)
            break
    return model


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
