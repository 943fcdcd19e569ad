"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.

Run with `pytest tests/test_acceptance.py -v -s`. The suite is seeded and
deterministic apart from the wall-clock scaling probe (A7 ratios), which
assumes an otherwise idle machine.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import spearmanr

from mmfa import (
    CurvatureMatrix,
    GeneratorConfig,
    ModelSpec,
    fit,
    inject_outliers,
    instance_log_likelihoods,
    multinomial_fisher_mc,
    predict_gaussian,
    recall_at_k,
    sample_dataset,
    select_k,
    softmax_pivot,
)
from mmfa import gaussian as gmod
from mmfa import multinomial as mmod
from mmfa.cli import _rank_auc
from mmfa.fisher import MseExperimentConfig, gaussian_fisher, mse_experiment
from mmfa.inference import predictive_log_likelihood
from mmfa.multinomial import adjusted_counts


def report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_a1_mse_reaches_crlb():
    """Score MSE at iteration 20 within 2x of the combined bound and below
    both single-modality bounds, on the reference configuration."""
    start = time.perf_counter()
    config = MseExperimentConfig(
        n_instances=100,
        n_gaussian=5,
        n_categories=5,
        n_factors=3,
        n_trials=40,
        noise_variance=5.0,  # matches the inverse-gamma prior mode for a=1, b=0.1
        ridge_weight=1e-6,
        alpha=1.0,
        beta=0.1,
        iterations=20,
        n_seeds=10,
        seed=100,
    )
    result = mse_experiment(config)
    elapsed = time.perf_counter() - start
    mse20 = float(result.mse_mean[19])
    ok = (
        mse20 <= 2.0 * result.crlb_total
        and mse20 < result.crlb_gaussian
        and mse20 < result.crlb_multinomial
    )
    report(
        "A1",
        ok,
        f"MSE@20={mse20:.3f} vs CRLB={result.crlb_total:.3f} "
        f"(ratio {mse20 / result.crlb_total:.2f}, limit 2.0), "
        f"gaussian-only={result.crlb_gaussian:.2f}, "
        f"multinomial-only={result.crlb_multinomial:.2f}, {elapsed:.0f}s",
    )


def test_a2_structured_posterior_equals_dense():
    """Structured (precision, cross-cov, mean) reconstruction matches the
    dense stacked-posterior inverse within 1e-9 on 50 random instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 7))
        d2 = int(rng.integers(2, 6))
        C = rng.standard_normal((k, p))
        trials = rng.integers(0, 7, size=p).astype(float)
        probs = rng.dirichlet(np.ones(d2), size=p)
        z_full = np.stack(
            [rng.multinomial(int(n), pr) for n, pr in zip(trials, probs)]
        ).astype(float)
        psi = 0.5 * rng.standard_normal((p, d2 - 1))
        ztilde = adjusted_counts(z_full[:, :-1], trials, psi, d2)
        state = mmod._e_step_finish(*mmod._e_step_sums(C, trials, ztilde.T), d2)

        A = CurvatureMatrix(d2).dense()
        dim = (d2 - 1) * k
        prec = np.eye(dim)
        rhs = np.zeros(dim)
        for i in range(p):
            Ci = np.kron(np.eye(d2 - 1), C[:, i : i + 1])
            prec += trials[i] * Ci @ A @ Ci.T
            rhs += Ci @ ztilde[i]
        cov_dense = np.linalg.inv(prec)
        structured = np.kron(np.eye(d2 - 1), state.precision_inv) + np.kron(
            np.ones((d2 - 1, d2 - 1)), state.cross_cov
        )
        worst = max(
            worst,
            np.abs(structured - cov_dense).max(),
            np.abs(state.loading_mean.T.reshape(-1) - cov_dense @ rhs).max(),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report("A2", ok, f"max reconstruction error {worst:.2e} (limit 1e-9), {elapsed:.1f}s")


def test_a3_bound_property_suite():
    """10^4 random triples: bound dominates lse, is tight at the expansion
    point, and its gradient matches central finite differences. The bound
    is the one the fit forms: with no counts and one trial,
    adjusted_counts gives (ztilde, offset), and
    bound(eta; psi) = offset - eta^T ztilde + eta^T A eta / 2."""

    def bohning_bound(eta, psi):
        d2 = psi.shape[-1] + 1
        ztilde, offset = adjusted_counts(
            np.zeros_like(psi), np.ones(len(psi)), psi, d2, return_offset=True
        )
        quad = CurvatureMatrix(d2).quad(eta)
        return offset - np.sum(eta * ztilde, axis=-1) + 0.5 * quad

    def lse(eta):
        pivot = np.zeros((len(eta), 1))
        return logsumexp(np.concatenate([eta, pivot], axis=1), axis=1)

    rng = np.random.default_rng(303)
    n = 10_000
    min_gap = np.inf
    max_equality_error = 0.0
    max_grad_error = 0.0
    h = 1e-6
    for d2 in range(2, 11):
        rows = n // 9
        eta = rng.uniform(-6, 6, size=(rows, d2 - 1))
        psi = rng.uniform(-6, 6, size=(rows, d2 - 1))
        gap = bohning_bound(eta, psi) - lse(eta)
        min_gap = min(min_gap, gap.min())
        max_equality_error = max(
            max_equality_error, np.abs(bohning_bound(eta, eta) - lse(eta)).max()
        )
        # gradient of the bound in eta at psi is softmax(psi); check by
        # finite differences of the bound itself
        probs = softmax_pivot(psi)[:, :-1]
        for d in range(d2 - 1):
            step = np.zeros(d2 - 1)
            step[d] = h
            numeric = (bohning_bound(psi + step, psi) - bohning_bound(psi - step, psi)) / (2 * h)
            max_grad_error = max(max_grad_error, np.abs(numeric - probs[:, d]).max())
    ok = min_gap >= -1e-12 and max_equality_error < 1e-12 and max_grad_error < 1e-6
    report(
        "A3",
        ok,
        f"min gap {min_gap:.1e}, equality error {max_equality_error:.1e} "
        f"(limit 1e-12), gradient error {max_grad_error:.1e} (limit 1e-6)",
    )


@pytest.mark.filterwarnings("ignore:n_factors")
def test_a4_monotone_surrogate_objective():
    """20 random fits across modes and shapes: the objective trace never
    decreases by more than 1e-8."""
    rng = np.random.default_rng(404)
    worst_drop = 0.0
    for run in range(20):
        k = int(rng.integers(1, 4))
        cats = tuple(
            int(rng.integers(3, 7)) for _ in range(int(rng.integers(0, 3)))
        )
        d1 = int(rng.integers(0 if cats else 2, 7))
        cfg = GeneratorConfig(
            n_factors=k,
            n_instances=int(rng.integers(10, 60)),
            n_gaussian=d1,
            n_categories=cats,
            n_trials=int(rng.integers(1, 12)),
            noise_variance=float(rng.uniform(0.2, 3.0)),
            missing_fraction=float(rng.uniform(0, 0.4)) if d1 else 0.0,
            seed=run,
        )
        synth = sample_dataset(cfg)
        mode = ("ridge", "unconstrained", "nonnegative")[run % 3]
        spec = ModelSpec(
            n_factors=k,
            score_update=mode,
            ridge_weight=1e-6 if mode == "ridge" else 1e-4,
            tol=1e-9,
            max_iters=40,
            seed=run + 1,
            beta=float(rng.uniform(0.1, 2.0)),
        )
        if mode == "unconstrained":
            spec.ridge_weight = 0.0
        model = fit(synth.dataset, spec)
        drops = -np.diff(model.objective_trace)
        worst_drop = max(worst_drop, float(drops.max(initial=0.0)))
    ok = worst_drop <= 1e-8
    report("A4", ok, f"worst objective decrease {worst_drop:.2e} (limit 1e-8)")


def test_a5_gaussian_e_step_exact():
    """Loading posteriors match the dense Bayesian-regression oracle
    within 1e-10 on 50 random small cases."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 9))
        d1 = int(rng.integers(1, 5))
        C = rng.standard_normal((k, p))
        sigma2 = rng.uniform(0.1, 3.0, size=(p, d1))
        Y = rng.standard_normal((p, d1)) * 2.0
        mask = rng.random((p, d1)) < 0.8
        mask[rng.integers(p)] = True
        weights = gmod._weighted(sigma2, gmod._observed(Y, mask), mask)
        state = gmod._e_step_finish(*gmod._e_step_sums(C, *weights))
        for j in range(d1):
            prec = np.eye(k)
            rhs = np.zeros(k)
            for i in np.flatnonzero(mask[:, j]):
                prec += np.outer(C[:, i], C[:, i]) / sigma2[i, j]
                rhs += C[:, i] * Y[i, j] / sigma2[i, j]
            cov = np.linalg.inv(prec)
            worst = max(
                worst,
                np.abs(state.cov[j] - cov).max(),
                np.abs(state.mean[j] - cov @ rhs).max(),
            )
    ok = worst < 1e-10
    report("A5", ok, f"max posterior error {worst:.2e} (limit 1e-10)")


def test_a6_fisher_oracle_and_additivity():
    """Monte Carlo multinomial Fisher matches the loading-conditional
    closed form at a concentrated prior; the trace-of-inverse inequality
    holds for combined information on 100 random cases."""
    rng = np.random.default_rng(606)
    k, d2, n = 3, 5, 40
    c = rng.standard_normal(k)
    V = rng.standard_normal((k, d2 - 1))
    probs = softmax_pivot(V.T @ c)[:-1]
    analytic = n * V @ (np.diag(probs) - np.outer(probs, probs)) @ V.T
    mc = multinomial_fisher_mc(
        c, n_trials=n, n_categories=d2, n_replicates=5000, seed=660,
        loading_mean=V, loading_var=1e-6,
    )
    rel = np.linalg.norm(mc - analytic) / np.linalg.norm(analytic)

    violations = 0
    for _ in range(100):
        kk = int(rng.integers(1, 4))
        cc = rng.standard_normal(kk)
        f_g = gaussian_fisher(
            cc, mean=rng.standard_normal((kk + 2, kk)),
            noise_variance=float(rng.uniform(0.3, 3.0)),
        )
        Vm = rng.standard_normal((kk, 4))
        pm = softmax_pivot(Vm.T @ cc)[:-1]
        f_m = 10 * Vm @ (np.diag(pm) - np.outer(pm, pm)) @ Vm.T
        eps = 1e-10 * np.eye(kk)
        total = np.trace(np.linalg.inv(f_g + f_m + eps))
        if total > np.trace(np.linalg.inv(f_g + eps)) + 1e-9:
            violations += 1
        if total > np.trace(np.linalg.inv(f_m + eps)) + 1e-9:
            violations += 1
    ok = rel < 0.10 and violations == 0
    report(
        "A6",
        ok,
        f"MC vs conditional Fisher {100 * rel:.1f}% (limit 10%), "
        f"additivity violations {violations}/200",
    )


@pytest.mark.slow
def test_a7_linear_complexity_scaling():
    """Per-iteration wall time doubles (ratio in [1.6, 2.6]) when doubling
    the instance count from 5e4 and the category count from 256."""

    def per_iter_time(p, d2, seed):
        synth = sample_dataset(
            GeneratorConfig(
                n_factors=3, n_instances=p, n_gaussian=5,
                n_categories=(d2,), n_trials=1, noise_variance=1.0, seed=seed,
            )
        )
        spec = ModelSpec(
            n_factors=3, beta=0.5, tol=1e-300, max_iters=5, seed=seed
        )
        return np.median(fit(synth.dataset, spec).iteration_seconds[1:])

    def ratio(base, double, runs=5):
        # the two sizes' runs alternate, so a change in host load between
        # them moves both medians alike
        per_iter_time(*double, seed=0)  # warm allocator and BLAS pools
        times = [
            [per_iter_time(*size, seed=r) for size in (base, double)]
            for r in range(runs)
        ]
        base_time, double_time = np.median(times, axis=0)
        return float(double_time / base_time)

    ratio_p = ratio((50_000, 8), (100_000, 8))
    ratio_d = ratio((20_000, 256), (20_000, 512))
    ok = 1.6 <= ratio_p <= 2.6 and 1.6 <= ratio_d <= 2.6
    report(
        "A7",
        ok,
        f"instance-doubling ratio {ratio_p:.2f}, category-doubling ratio "
        f"{ratio_d:.2f} (window [1.6, 2.6])",
    )


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore:n_factors")
def test_a8_task_sanity():
    """Desk-scale task checks: anomaly AUC, imputation vs baseline,
    recall vs permutation null, and BIC factor-count recovery."""
    # anomaly: 2% cross-modal outliers in 2000 instances
    synth = sample_dataset(
        GeneratorConfig(
            n_factors=3, n_instances=2000, n_gaussian=12, n_categories=(8,),
            n_trials=60, noise_variance=0.1, seed=801,
        )
    )
    corrupted, labels = inject_outliers(synth, 0.02, seed=802)
    model = fit(
        corrupted.dataset,
        ModelSpec(n_factors=3, beta=5.0, tol=1e-6, max_iters=80, seed=803),
    )
    auc = _rank_auc(-instance_log_likelihoods(model, corrupted.dataset), labels)

    # imputation: 40% hidden entries vs the column-mean baseline
    ratings = sample_dataset(
        GeneratorConfig(
            n_factors=3, n_instances=150, n_gaussian=25, n_categories=(),
            noise_variance=0.3, missing_fraction=0.4, seed=804,
        )
    )
    rmodel = fit(
        ratings.dataset,
        ModelSpec(n_factors=3, beta=1.5, tol=1e-7, max_iters=150, seed=805),
    )
    hidden = ~ratings.dataset.mask
    truth = ratings.dataset.gaussian
    predictions = predict_gaussian(rmodel, ratings.dataset)
    mse_model = float(np.mean((predictions[hidden] - truth[hidden]) ** 2))
    means = np.array(
        [
            truth[ratings.dataset.mask[:, j], j].mean()
            for j in range(truth.shape[1])
        ]
    )
    mse_base = float(
        np.mean((np.broadcast_to(means, truth.shape)[hidden] - truth[hidden]) ** 2)
    )

    # recall@10 against the permutation null, sign test over 20 seeds
    wins = 0
    for seed in range(20):
        rs = sample_dataset(
            GeneratorConfig(
                n_factors=3, n_instances=200, n_gaussian=30, n_categories=(),
                noise_variance=0.25, missing_fraction=0.4, seed=806 + seed,
            )
        )
        rm = fit(
            rs.dataset,
            ModelSpec(n_factors=3, beta=2.0, tol=1e-6, max_iters=100, seed=900 + seed),
        )
        train_mask = rs.dataset.mask
        values = rs.dataset.gaussian
        rec = recall_at_k(
            rm, values, ~train_mask, train_mask, k=10, like_threshold=2.0
        )
        pools = (~train_mask).sum(axis=0)
        liked_any = ((~train_mask) & (values >= 2.0)).sum(axis=0) > 0
        null = float(np.mean(np.minimum(10, pools[liked_any]) / pools[liked_any]))
        wins += rec > null
    # one-sided binomial sign test at p(win) = 1/2
    p_value = sum(math.comb(20, i) for i in range(wins, 21)) / 2**20

    # BIC recovers the generating factor count in >= 8 of 10 runs
    correct = 0
    for seed in range(10):
        bs = sample_dataset(
            GeneratorConfig(
                n_factors=3, n_instances=500, n_gaussian=20, n_categories=(6,),
                n_trials=10, noise_variance=0.25, seed=950 + seed,
            )
        )
        best, _ = select_k(
            bs.dataset,
            [1, 2, 3, 4, 5, 6],
            ModelSpec(n_factors=1, beta=2.0, tol=1e-5, max_iters=60, seed=980 + seed),
            holdout_fraction=0.3,
        )
        correct += best == 3
    ok = auc >= 0.9 and mse_model < mse_base and p_value < 0.01 and correct >= 8
    report(
        "A8",
        ok,
        f"anomaly AUC {auc:.3f} (limit 0.9); imputation MSE {mse_model:.3f} vs "
        f"baseline {mse_base:.3f}; recall wins {wins}/20 (p={p_value:.2e}, "
        f"limit 0.01); BIC correct {correct}/10 (limit 8)",
    )


def test_a9_heldout_predictive_trend():
    """Held-out predictive objective increases monotonically on average
    (Spearman rho > 0.9 against iteration) on the reference configuration
    with a 10-instance test split."""
    synth = sample_dataset(
        GeneratorConfig(
            n_factors=3, n_instances=110, n_gaussian=5, n_categories=(5,),
            n_trials=40, noise_variance=5.0, seed=901,
        )
    )
    train = synth.dataset.subset(range(100))
    test = synth.dataset.subset(range(100, 110))
    heldout = []

    def record(iteration, snapshot):
        heldout.append(predictive_log_likelihood(snapshot, test))

    fit(
        train,
        ModelSpec(n_factors=3, beta=0.1, tol=1e-300, max_iters=40, seed=902),
        callback=record,
    )
    rho = float(spearmanr(np.arange(len(heldout)), heldout).statistic)
    ok = rho > 0.9
    report("A9", ok, f"Spearman rho {rho:.3f} (limit 0.9) over {len(heldout)} iterations")


@pytest.mark.slow
def test_a10_cli_chain(tmp_path):
    """simulate -> fit -> eval(predict, anomaly, impute) completes with
    exit 0 in under 60 seconds, and identical seeds give byte-identical
    reports."""
    start = time.perf_counter()
    gen = {
        "n_factors": 2, "n_instances": 300, "n_gaussian": 6,
        "n_categories": [5], "n_trials": 10, "noise_variance": 0.5,
        "missing_fraction": 0.3, "outlier_fraction": 0.03, "seed": 55,
    }
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(gen))

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "mmfa.cli", *args],
            capture_output=True, text=True,
        )
        return proc

    outputs = []
    for round_dir in ("one", "two"):
        base = tmp_path / round_dir
        data = base / "data"
        model = base / "model.mmfa"
        steps = [
            ("simulate", "--config", str(cfg), "-o", str(data)),
            ("fit", str(data / "manifest.json"), "--k", "2", "--seed", "9",
             "--beta", "1.0", "--tol", "1e-6", "--max-iters", "300",
             "-o", str(model)),
        ]
        for step in steps:
            proc = cli(*step)
            assert proc.returncode == 0, (step[0], proc.stderr)
        reports = {}
        for task, extra in [
            ("predict", ()),
            ("anomaly", ("--delta", "0.05", "--labels", str(data / "labels.csv"))),
            ("impute", ()),
        ]:
            out = base / f"{task}.csv"
            proc = cli(
                "eval", str(model), str(data / "manifest.json"),
                "--task", task, *extra, "-o", str(out),
            )
            assert proc.returncode == 0, (task, proc.stderr)
            reports[task] = out.read_bytes()
        outputs.append(reports)
    elapsed = time.perf_counter() - start
    identical = all(outputs[0][t] == outputs[1][t] for t in outputs[0])
    ok = elapsed < 60.0 and identical
    report(
        "A10",
        ok,
        f"chain twice in {elapsed:.1f}s (limit 60s per chain), reports "
        f"byte-identical: {identical}",
    )
