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
do per-block arithmetic only. Every pass holds OpenBLAS at one thread; a
pass of several blocks runs them on a thread pool of one worker per
usable core and adds their results in block order
(:func:`_blocks_in_order`), so results depend neither on the number of
workers nor on OpenBLAS's own thread count.

Every update is an exact coordinate-ascent step on the same surrogate
objective. By default :func:`fit` runs these iterations, the EM map
evaluations, in SQUAREM cycles: two iterations, then an extrapolation of
the scores, log noise variances and expansion points along the two steps
taken (:class:`_Squarem`), a pass for the sums at the extrapolated point
and one iteration from there, kept only if its objective is no lower than
the second iteration's. So the tracked objective never decreases. No
noise variances or expansion points are stored: each block recomputes
them. Beyond its outputs (scores, posteriors), a fit holds one block's
working set per worker and a few (K, P) score arrays: no array of P D1
or K^2 P floats is made.
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
    A pass runs its blocks on min(workers, blocks) threads, workers being
    _WORKERS or else the usable cores: the calling thread and a pool of
    the others, each with one block at a time in flight. OpenBLAS is held
    at one thread for every pass, a single block's too: threads of both
    kinds would compete for the cores, and its rounding would then depend
    on the worker count and on OPENBLAS_NUM_THREADS. step may write only
    its own rows of shared arrays; the caller reduces the results in the
    order they are yielded, so its result does not depend on the worker
    count either. Where OpenBLAS's thread count cannot be set, the blocks
    run one after another on the calling thread. An exception from a
    block is raised once the blocks in flight have finished.
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

    blas = _blas_threads()
    workers = min(_WORKERS or _usable_cores(), len(blocks))
    with _one_blas_thread(*blas) if blas else contextlib.nullcontext():
        if blas is None or workers <= 1:
            for rows in blocks:
                yield run(rows)
            return
        # imported here, not with the module: it imports logging, and a
        # process whose passes run on one thread never needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers - 1, "mmfa-block") as pool:
            # the calling thread takes the first block of each group of
            # workers blocks and the pool the others; a pool thread starts
            # at the first block submitted to it
            for start in range(0, len(blocks), workers):
                group = [
                    pool.submit(run, rows) for rows in blocks[start + 1:start + workers]
                ]
                yield run(blocks[start])
                for future in group:
                    yield future.result()


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


def _initial_theta(spec, Y, cat_states, b):
    """The noise variances and expansion points of a fit's or scoring's
    initial state at b instances with Gaussian data Y, or None without a
    Gaussian block: the prior mode at every entry, and psi = 0 in the
    (b, D - 1) layout of :func:`multinomial.psi_update`."""
    sigma2 = None
    if Y is not None:
        sigma2 = np.full(Y.shape, gmod.prior_mode_variance(spec.alpha, spec.beta))
    return sigma2, [np.zeros((b, state.n_categories - 1)) for state in cat_states]


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


def _walk(data, model, log_coefficient, update, hook=None):
    """One pass over the instance blocks; returns (objective, sums).

    With update (a fit iteration) each block takes its local step at its
    current scores and writes the scores it solves for into the model's.
    Without, each block keeps its scores, and its noise variances and
    expansion points are those hook gives or, with no hook, their optima
    at the scores: the M-step and psi = loading_mean^T C. The objective
    is the surrogate at the scores the model then holds: the blocks'
    sum_i (rho_i^T c_i - c_i^T (H_i + ridge I) c_i / 2), (H, rho) the
    unridged score system, plus the terms free of the scores, those of
    the loading posteriors alone and log_coefficient
    (:func:`_log_coefficient`). The sums, at the same scores, are what
    :func:`_global_step` reads: the packed Gaussian precision sums and
    C (w * Y), then C diag(N) C^T and C ztilde^T per categorical block.
    They depend on the scores, noise variances and expansion points alone.

    hook, if given, does SQUAREM's work in every block (:class:`_Squarem`)
    or gives the initial theta, given the rows' Gaussian data Y
    (:func:`gaussian._observed`) and mask. With update, hook(rows, Y,
    mask, scores, sigma2, psis) gets the block's new theta before it
    overwrites the model's scores. Without, hook(rows, Y, mask) runs first
    and returns the block's (sigma2, psis), psis (b, D - 1) each; if it
    returns None the block is skipped, leaving the results partial.

    The blocks run on several threads (:func:`_blocks_in_order`). Each
    writes only its own rows, and their terms and sums are added here in
    block order, so the result does not depend on the number of threads.
    """
    spec, C = model.spec, model.scores
    gauss_state, cat_states = model.gaussian, model.categoricals
    lam = spec.effective_ridge
    bases = _score_bases(cat_states)

    def step(rows):
        scores = C[:, rows]
        Y = mask = None
        if data.gaussian is not None:
            mask = None if data.mask is None else data.mask[rows]
            Y = gmod._observed(data.gaussian[rows], mask)
        if update:
            blk = _local_step(
                data, spec, gauss_state, cat_states, scores, rows, offsets=True,
                Y=Y, bases=bases,
            )
            c = solve_scores_batch(
                blk.H, blk.rho, spec.score_update, spec.ridge_weight,
                warm_start=scores.T,
            )
        else:
            sigma2 = psis = None
            if hook is not None:
                theta = hook(rows, Y, mask)
                if theta is None:
                    return ([], []), None
                sigma2, psis = theta[0], [psi.T for psi in theta[1]]
            blk = _local_step(
                data, spec, gauss_state, cat_states, scores, rows,
                sigma2=sigma2, psis=psis, offsets=True, Y=Y, bases=bases,
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
        held, new_sigma2 = (blk.psis, blk.ztildes, blk.offsets), blk.sigma2
        if update:
            del blk  # H and the weights go before the hook allocates: 2.5 MB of W1's peak
            if hook is not None:
                # by a second product, not a transposing copy of blk.psis,
                # which costs 8 times as much at 512 categories
                psis = [mmod.psi_update(state.loading_mean, scores) for state in cat_states]
                hook(rows, Y, mask, c.T, new_sigma2, psis)
            C[:, rows] = c.T
        return (terms, parts), held

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
    posterior = 0.0  # the terms of the loading posteriors alone
    if gauss_state is not None:
        posterior += gmod.gaussian_posterior_terms(gauss_state)
    for state in cat_states:
        posterior += mmod.multinomial_posterior_terms(state)
    return total + posterior + log_coefficient, sums


def _global_step(data, sums):
    """The loading posteriors from the sums of :func:`_walk`: (Gaussian
    state, categorical states)."""
    sums = iter(sums)
    gauss_state = None
    if data.gaussian is not None:
        gauss_state = gmod._e_step_finish(next(sums), next(sums))
    return gauss_state, [
        mmod._e_step_finish(next(sums), next(sums), block.n_categories)
        for block in data.categoricals
    ]


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
    penalty when that score mode is active, at the model's scores with the
    noise variances and expansion points at their optima for them (the
    M-step and psi = loading_mean^T C). It is read off the score system
    built there by :func:`score_system`, through the same pass over
    instance blocks that :func:`fit` takes. Both updates are exact
    coordinate ascent from the fit's last state, so it is no lower than
    the last entry of the fit's trace. Deterministic given the model.
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


def _differences(theta0, theta1, theta2):
    """(r, v): theta_1 - theta_0, theta_2 - 2 theta_1 + theta_0, in theta_0's."""
    r = [np.subtract(b, a) for a, b in zip(theta0, theta1)]
    for a, b, c in zip(theta0, r, theta2):
        a += b
        a += b
        np.subtract(c, a, out=a)
    return r, theta0


class _Squarem:
    """SQUAREM's record of a fit (Varadhan & Roland 2008, step length S3)
    over theta = (scores, log noise variances, expansion points).

    A map evaluation computes each block's noise variances and expansion
    points from the scores it starts from and the loading posteriors it
    has just finished, and reads no others. So an iterate's are fixed by
    its source, and are recomputed block by block when needed: the record
    of an iterate is (scores, source scores, Gaussian state, categorical
    states), source scores None for the initial state (prior-mode
    variances, psi = 0; :func:`_initial_theta`). Beyond the model a cycle
    holds a few (K, P) arrays. Its work rides on two walks of the fit, as
    their hook.
    """

    def __init__(self, model):
        self.model = model
        self.prev = None  # the source scores of the model's state
        self.records = []  # the cycle's theta_0 and theta_1
        self.shares = {}  # per block, by first row: its |r|^2 and |v|^2
        self.finite = True  # whether every block's last theta' was finite

    def evaluating(self):
        """Record the model's state before a plain map evaluation, which
        overwrites its scores. Returns the evaluation's hook: :meth:`norms`
        for the cycle's second evaluation, else None."""
        model = self.model
        scores = model.scores.copy()
        self.records.append((scores, self.prev, model.gaussian, model.categoricals))
        self.prev = scores
        return self.norms if len(self.records) == 2 else None

    def _recorded(self, record, rows, Y, mask):
        """theta of a recorded iterate at rows, as new arrays: scores (K, b),
        log noise variances (b, D1) and expansion points (b, D - 1), from
        the rows' Gaussian data Y (:func:`gaussian._observed`) and mask."""
        scores, prev, gauss, cats = record
        spec = self.model.spec
        theta = [np.array(scores[:, rows])]
        if prev is None:
            sigma2, psis = _initial_theta(spec, Y, cats, theta[0].shape[1])
        else:
            sigma2 = None if Y is None else gmod.gaussian_m_step(
                gauss, prev[:, rows], Y, mask, spec.alpha, spec.beta
            )
            psis = [mmod.psi_update(state.loading_mean, prev[:, rows]) for state in cats]
        if sigma2 is not None:
            theta.append(np.log(sigma2, out=sigma2))
        return theta + psis

    def norms(self, rows, Y, mask, scores, sigma2, psis):
        """theta_2's map evaluation's hook: the block's |r|^2 and |v|^2, a
        pair per array, with theta_0 and theta_1 recomputed."""
        theta2 = [scores] + ([] if sigma2 is None else [np.log(sigma2)]) + psis
        r, v = _differences(
            *(self._recorded(record, rows, Y, mask) for record in self.records), theta2
        )
        # einsum, not BLAS dot: the sums must not depend on its thread count
        self.shares[rows.start] = [
            (np.einsum("ij,ij->", x, x), np.einsum("ij,ij->", y, y)) for x, y in zip(r, v)
        ]

    def extrapolation(self, nonnegative):
        """The hook for the walk at theta' = theta_0 - 2 a r + a^2 v, with
        r = theta_1 - theta_0, v = theta_2 - 2 theta_1 + theta_0 (theta_2
        the model's state, whose source is theta_1's scores) and
        a = -max(1, |r| / |v|), the norms added up from :meth:`norms`'s
        shares in block order, then array by array; None if a is -1, where
        theta' is theta_2, or not finite. The hook writes the scores of
        theta' = theta_2 - 2 (1 + a) r + (a^2 - 1) v, clipped at 0 if
        nonnegative, into the new array the caller puts in model.scores and
        returns its noise variances and expansion points, or None, clearing
        self.finite, if the block's theta' is not finite.
        """
        model = self.model
        totals = np.zeros((1 + (model.gaussian is not None) + len(model.categoricals), 2))
        for start in sorted(self.shares):
            totals += self.shares[start]
        rr, vv = totals.sum(axis=0)
        if not (vv > 0.0 and math.isfinite(rr) and math.isfinite(vv)):
            return None
        alpha = -max(1.0, math.sqrt(rr / vv))
        if alpha == -1.0:
            return None
        # theta_2's record: its source is theta_1's scores
        theta2 = (model.scores, self.records[1][0], model.gaussian, model.categoricals)
        records = [*self.records, theta2]
        self.finite = True

        def hook(rows, Y, mask):
            theta0, theta1, now = (self._recorded(rec, rows, Y, mask) for rec in records)
            r, v = _differences(theta0, theta1, now)
            with np.errstate(over="ignore", invalid="ignore"):
                for x, y, z in zip(r, v, now):
                    y *= 0.5 * (1.0 - alpha)
                    y += x
                    y *= -2.0 * (1.0 + alpha)
                    y += z  # theta' in v's arrays
                new = iter(v)
                c = next(new)
                if nonnegative:
                    np.maximum(c, 0.0, out=c)
                model.scores[:, rows] = c
                ok = np.isfinite(c).all()
                sigma2 = None
                if Y is not None:
                    sigma2 = np.exp(next(new))
                    ok &= np.isfinite(sigma2).all() and (sigma2 > 0.0).all()
                psis = list(new)
                ok &= all(np.isfinite(psi).all() for psi in psis)
            if not ok:
                self.finite = False  # only ever cleared: safe from any thread
                return None
            return sigma2, psis

        return hook


def fit(data, spec, callback=None):
    """Fit the factor model to a heterogeneous dataset.

    A map evaluation is one EM iteration: it finishes the loading
    posteriors from sums over the instances (:func:`_global_step`), then
    walks the blocks of instances once (:func:`_walk`). Each block takes
    its noise-variance M-step and expansion points at its current scores,
    solves its score system (:func:`score_system`) for new scores, and
    adds its shares of the objective and of the sums the next evaluation
    reads. The map reads the state only through those sums and the
    scores. trace[0] comes from the same walk at the initial state
    (:func:`_initial_theta`), without the solve. A later entry holds the
    noise variances and expansion points of the scores its evaluation
    started from, so :func:`surrogate_objective` is no lower than trace[-1].

    With spec.accelerate (the default) the map evaluations run in SQUAREM
    cycles over theta = (scores, log noise variances, expansion points):
    two plain evaluations from theta_0 give theta_1 and theta_2, then one
    walk forms the extrapolated point theta' and the sums there
    (:class:`_Squarem`), and one map evaluation runs from there. Its
    iterate is kept only if its objective is finite and no lower than
    theta_2's; otherwise, or if that walk or evaluation raises
    NumericalError, the fit goes back to theta_2 and counts the
    extrapolation as rejected, so the trace never decreases. A theta' that
    is not finite is no extrapolation. One is tried only while two map
    evaluations remain under spec.max_iters. Without spec.accelerate every
    map evaluation is kept.

    The fit stops once the relative change between the last two trace
    entries falls below spec.tol, checked after every kept map
    evaluation, or once spec.max_iters map evaluations have run; an
    infinite tol runs exactly one and reports converged=False.
    iterations_run counts map evaluations, the trace holds one entry per
    kept state, and iteration_seconds one per map evaluation, an
    extrapolated one's including the walk at theta'.

    Walks run their blocks on the usable cores with OpenBLAS at one
    thread, adding results in block order, so the result does not depend
    on the number of cores. Beyond the returned scores and posteriors a
    fit holds one block's working set per worker and, when accelerated, a
    few copies of the scores.

    callback, if given, is invoked after every kept map evaluation as
    callback(iteration, model), iteration counting map evaluations, with
    the FittedModel the fit returns, whose scores, states and trace the
    next evaluation overwrites or extends (copy anything kept beyond the
    call).
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
    # the prior posteriors, finished from zero sums like every later one
    if data.gaussian is not None:
        d1 = data.n_gaussian
        zeros = np.zeros((k * (k + 1) // 2, d1))
        model.gaussian = gmod._e_step_finish(zeros, np.zeros((k, d1)))
    model.categoricals = [
        mmod._e_step_finish(np.zeros((k, k)), np.zeros((k, d - 1)), d)
        for d in data.category_counts
    ]
    log_coefficient = _log_coefficient(data)

    def initial(rows, Y, mask):
        return _initial_theta(spec, Y, model.categoricals, len(range(p)[rows]))

    objective, sums = _walk(data, model, log_coefficient, update=False, hook=initial)
    model.objective_trace.append(objective)
    squarem = _Squarem(model) if spec.accelerate else None

    def evaluate(hook=None):
        model.gaussian, model.categoricals = _global_step(data, sums)
        return _walk(data, model, log_coefficient, update=True, hook=hook)

    while model.iterations_run < spec.max_iters:
        start = time.perf_counter()
        model.iterations_run += 1
        hook = None
        if squarem is not None and len(squarem.records) == 2:
            if model.iterations_run < spec.max_iters:
                hook = squarem.extrapolation(spec.score_update == "nonnegative")
            squarem.records.clear()
        plain = hook is None
        if not plain:
            saved = model.scores, model.gaussian, model.categoricals, sums
            model.scores = np.empty_like(model.scores)  # theta''s, which the walk writes
            objective = math.nan
            with contextlib.suppress(NumericalError):
                at = _walk(data, model, log_coefficient, update=False, hook=hook)[1]
                hook = None  # theta_0's scores go with it, before the evaluation
                if squarem.finite:
                    # the evaluation overwrites the scores it starts from
                    sums, source = at, model.scores.copy()
                    objective, sums = evaluate()
            if not squarem.finite:  # no extrapolation: theta_2's evaluation follows
                model.scores, plain = saved[0], True
            elif math.isfinite(objective) and objective >= model.objective_trace[-1]:
                model.extrapolations += 1
                squarem.prev = source
            else:
                # back to theta_2, whose source squarem.prev still holds
                model.extrapolations += 1
                model.extrapolations_rejected += 1
                model.scores, model.gaussian, model.categoricals, sums = saved
                model.iteration_seconds.append(time.perf_counter() - start)
                continue
        if plain:
            norms = None if squarem is None else squarem.evaluating()
            try:
                objective, sums = evaluate(norms)
            except NumericalError as exc:
                raise NumericalError(f"iteration {model.iterations_run}: {exc}") from exc
        model.iteration_seconds.append(time.perf_counter() - start)
        model.objective_trace.append(objective)
        if callback is not None:
            callback(model.iterations_run, model)
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
