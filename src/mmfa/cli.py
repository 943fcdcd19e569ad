"""Command-line surface: simulate, fit, eval, crlb, mse-experiment.

Exit codes: 0 success, 1 parse or I/O failure, 2 dimension mismatch,
3 fit stopped at the iteration cap (model still written), 4 numerical
failure. Reports are deterministic byte for byte given the same seed:
no timestamps, sorted JSON keys, fixed float formatting.
"""

import argparse
import functools
import json
import sys
import warnings

import numpy as np

from . import dataio
from .engine import fit
from .errors import (
    DimensionMismatch,
    MmfaError,
    NumericalError,
    SchemaError,
)
from .fisher import MseExperimentConfig, crlb, mse_experiment
from .inference import (
    anomaly_threshold,
    instance_log_likelihoods,
    predict_gaussian,
    recall_at_k,
)
from .model import ModelSpec, load_model, save_model
from .synth import GeneratorConfig, sample_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIMENSION = 2
EXIT_MAX_ITERS = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _MaxItersReached(Exception):
    pass


def _emit_report(meta, columns, rows, fmt, out):
    """Write a report as commented CSV or as JSON, to a path or stdout."""
    if fmt == "json":
        doc = {"meta": meta, "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    else:
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(
                ",".join(
                    dataio.format_float(v)
                    if isinstance(v, float)
                    else str(v)
                    for v in row
                )
            )
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _cmd_fit(args):
    dataset = dataio.load_dataset(args.manifest)
    spec = ModelSpec(
        n_factors=args.k,
        alpha=args.alpha,
        beta=args.beta,
        score_update="nonnegative" if args.nonneg else "ridge",
        ridge_weight=args.ridge,
        tol=args.tol,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    model = fit(dataset, spec)
    save_model(model, args.output)
    trace_path = args.trace or (args.output + ".trace.csv")
    _emit_report(
        {"seed": args.seed, "converged": model.converged,
         "iterations": model.iterations_run,
         "extrapolations": model.extrapolations,
         "rejected": model.extrapolations_rejected},
        ["iteration", "objective"],
        [(i, float(v)) for i, v in enumerate(model.objective_trace)],
        "csv",
        trace_path,
    )
    # wall-clock seconds vary run to run, so they stay out of the trace
    _emit_report(
        {},
        ["iteration", "seconds"],
        list(enumerate(model.iteration_seconds, start=1)),
        "csv",
        args.output + ".timing.csv",
    )
    if not model.converged:
        raise _MaxItersReached()


def _rank_auc(scores, labels):
    """Mann-Whitney AUC of scores against boolean labels, ties averaged."""
    # scipy.stats.rankdata's method, without its import (about 40 MB of RSS)
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    pos = labels.astype(bool)
    n_pos, n_neg = pos.sum(), (~pos).sum()
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _cmd_eval(args):
    model = load_model(args.model)
    dataset = dataio.load_dataset(args.manifest)
    meta = {"seed": model.spec.seed, "task": args.task}

    if args.task == "predict":
        loglik = instance_log_likelihoods(model, dataset)
        meta["note"] = (
            "categorical terms are an ELBO (lower bound), not an exact likelihood"
        )
        meta["total_log_predictive_elbo"] = dataio.format_float(loglik.sum())
        rows = [(i, float(v)) for i, v in enumerate(loglik)]
        _emit_report(meta, ["instance", "log_predictive_elbo"], rows,
                     args.format, args.output)

    elif args.task == "anomaly":
        loglik = instance_log_likelihoods(model, dataset)
        if args.validation:
            validation = dataio.load_dataset(args.validation)
            val_loglik = instance_log_likelihoods(model, validation)
        else:
            meta["note"] = "threshold estimated on the evaluated set itself"
            val_loglik = loglik
        threshold = anomaly_threshold(val_loglik, args.delta)
        meta["delta"] = args.delta
        meta["threshold"] = dataio.format_float(threshold)
        labels = None
        if args.labels:
            labels = dataio.read_matrix_csv(args.labels, 1)[:, 0] > 0.5
            if labels.shape[0] != dataset.n_instances:
                raise DimensionMismatch(
                    f"{labels.shape[0]} labels for {dataset.n_instances} instances"
                )
            meta["auc"] = dataio.format_float(_rank_auc(-loglik, labels))
        order = np.argsort(loglik, kind="stable")
        rows = []
        for i in order:
            row = [int(i), float(loglik[i]), int(loglik[i] < threshold)]
            if labels is not None:
                row.append(int(labels[i]))
            rows.append(tuple(row))
        columns = ["instance", "log_likelihood", "is_anomalous"]
        if labels is not None:
            columns.append("label")
        _emit_report(meta, columns, rows, args.format, args.output)

    elif args.task == "impute":
        if dataset.mask is None:
            raise DimensionMismatch(
                "impute evaluation needs a manifest with a mask; hidden entries "
                "are scored against the values stored in the Gaussian matrix"
            )
        predictions = predict_gaussian(model, dataset)
        hidden = ~dataset.mask
        truth = dataset.gaussian
        observed_sum = np.where(dataset.mask, truth, 0.0).sum(axis=0)
        observed_count = dataset.mask.sum(axis=0)
        column_means = np.divide(
            observed_sum,
            observed_count,
            out=np.zeros(truth.shape[1]),
            where=observed_count > 0,
        )
        baseline = np.broadcast_to(column_means, truth.shape)
        mse_model = float(np.mean((predictions[hidden] - truth[hidden]) ** 2))
        mse_base = float(np.mean((baseline[hidden] - truth[hidden]) ** 2))
        meta["mse_model"] = dataio.format_float(mse_model)
        meta["mse_column_mean_baseline"] = dataio.format_float(mse_base)
        rows = [
            (int(i), int(j), float(predictions[i, j]), float(truth[i, j]))
            for i, j in zip(*np.nonzero(hidden))
        ]
        _emit_report(meta, ["instance", "feature", "prediction", "value"],
                     rows, args.format, args.output)

    elif args.task == "recall":
        if dataset.mask is None:
            raise DimensionMismatch(
                "recall evaluation needs a manifest with a mask marking "
                "training interactions"
            )
        value = recall_at_k(
            model,
            test_values=dataset.gaussian,
            test_mask=~dataset.mask,
            train_mask=dataset.mask,
            k=args.k,
            like_threshold=args.like_threshold,
        )
        meta["k"] = args.k
        meta["like_threshold"] = args.like_threshold
        rows = [(args.k, float(value))]
        _emit_report(meta, ["k", "recall"], rows, args.format, args.output)


def _cmd_crlb(args):
    doc = _load_json(args.config)
    seed = doc.get("seed", 0)
    n_replicates = doc.get("n_replicates", 2000)
    c = np.asarray(doc["c"], dtype=float)
    result = crlb(  # rejects an n_replicates that is not an integer >= 2
        c,
        gaussian=doc.get("gaussian"),
        multinomial=doc.get("multinomial"),
        n_replicates=n_replicates,
        seed=seed,
    )
    if n_replicates < 100:
        print(
            f"warning: n_replicates={n_replicates} gives a wide-error "
            "Monte Carlo estimate",
            file=sys.stderr,
        )
    meta = {"seed": seed, "n_replicates": n_replicates}
    rows = [(result.crlb, result.crlb_gaussian, result.crlb_multinomial)]
    _emit_report(
        meta, ["crlb_total", "crlb_gaussian", "crlb_multinomial"], rows,
        args.format, args.output,
    )


def _cmd_mse_experiment(args):
    config = MseExperimentConfig.from_dict(_load_json(args.config))
    result = mse_experiment(config)
    meta = {"seed": config.seed}
    meta.update(
        (key, value) for key, value in sorted(config.to_dict().items())
        if key != "seed"
    )
    meta["crlb_note"] = "exact bounds evaluated at the realized loadings"
    columns = [
        "iteration", "mse_mean", "mse_stderr",
        "crlb_total", "crlb_gaussian", "crlb_multinomial",
    ]
    rows = [tuple(row[c] for c in columns) for row in result.rows()]
    _emit_report(meta, columns, rows, args.format, args.output)


def _cmd_simulate(args):
    doc = _load_json(args.config)
    known = {f.name for f in GeneratorConfig.__dataclass_fields__.values()}
    unknown = set(doc) - known
    if unknown:
        raise SchemaError(f"unknown generator config keys: {sorted(unknown)}")
    if "n_categories" in doc:
        doc["n_categories"] = tuple(doc["n_categories"])
    config = GeneratorConfig(**doc)
    synth = sample_dataset(config)
    try:
        dataio.save_dataset(
            args.output,
            synth.dataset,
            ground_truth=synth,
            labels=synth.outlier_labels,
        )
    except OSError as exc:
        raise SchemaError(f"cannot write to {args.output}: {exc}") from exc


@functools.cache  # parse_args leaves the parser as it is, and building costs ten parses
def build_parser():
    parser = _Parser(prog="mmfa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a dataset manifest")
    p_fit.add_argument("manifest")
    p_fit.add_argument("--k", type=int, required=True, help="number of factors")
    p_fit.add_argument("--ridge", type=float, default=1e-6,
                       help="ridge weight for score updates (default 1e-6; 0 "
                            "is the plain solve; --nonneg ignores it)")
    p_fit.add_argument("--nonneg", action="store_true",
                       help="constrain scores to be nonnegative")
    p_fit.add_argument("--alpha", type=float, default=1.0)
    p_fit.add_argument("--beta", type=float, default=0.1)
    p_fit.add_argument("--tol", type=float, default=1e-6)
    p_fit.add_argument("--max-iters", type=int, default=500)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--trace", default=None,
                       help="objective trace CSV path (default: <output>.trace.csv)")
    p_fit.add_argument("-o", "--output", required=True)

    p_eval = sub.add_parser("eval", help="run a post-fit task")
    p_eval.add_argument("model")
    p_eval.add_argument("manifest")
    p_eval.add_argument("--task", required=True,
                        choices=["predict", "anomaly", "impute", "recall"])
    p_eval.add_argument("--delta", type=float, default=0.05)
    p_eval.add_argument("--validation", default=None,
                        help="manifest providing the anomaly threshold sample")
    p_eval.add_argument("--labels", default=None,
                        help="outlier labels CSV; adds AUC to the anomaly report")
    p_eval.add_argument("--k", type=int, default=10)
    p_eval.add_argument("--like-threshold", type=float, default=4.0)
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")
    p_eval.add_argument("-o", "--output", default=None)

    p_crlb = sub.add_parser("crlb", help="Fisher information / CRLB table")
    p_crlb.add_argument("--config", required=True)
    p_crlb.add_argument("--format", choices=["csv", "json"], default="csv")
    p_crlb.add_argument("-o", "--output", default=None)

    p_mse = sub.add_parser("mse-experiment",
                           help="score-recovery MSE curve against the CRLB")
    p_mse.add_argument("--config", required=True)
    p_mse.add_argument("--format", choices=["csv", "json"], default="csv")
    p_mse.add_argument("-o", "--output", default=None)

    p_sim = sub.add_parser("simulate", help="sample a dataset from the model")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("-o", "--output", required=True,
                       help="output directory for the manifest and its files")
    return parser


_COMMANDS = {
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "crlb": _cmd_crlb,
    "mse-experiment": _cmd_mse_experiment,
    "simulate": _cmd_simulate,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            _COMMANDS[args.command](args)
    except _MaxItersReached:
        return EXIT_MAX_ITERS
    except DimensionMismatch as exc:
        print(f"mmfa: dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except NumericalError as exc:
        print(f"mmfa: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SchemaError, OSError) as exc:
        print(f"mmfa: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MmfaError, ValueError, KeyError, TypeError) as exc:
        print(f"mmfa: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
