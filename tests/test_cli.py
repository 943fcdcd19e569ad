"""Command-line surface tests: exit codes, report determinism, and the
simulate -> fit -> eval chain."""

import json
import subprocess
import sys

import numpy as np
import pytest

from mmfa.cli import _rank_auc, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def sim_dir(tmp_path):
    cfg = {
        "n_factors": 2,
        "n_instances": 120,
        "n_gaussian": 5,
        "n_categories": [4],
        "n_trials": 8,
        "noise_variance": 0.5,
        "missing_fraction": 0.25,
        "outlier_fraction": 0.05,
        "seed": 11,
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "data"
    code = main(["simulate", "--config", str(cfg_path), "-o", str(out_dir)])
    assert code == 0
    return out_dir


class TestSimulate:
    def test_writes_loadable_manifest(self, sim_dir):
        assert (sim_dir / "manifest.json").exists()
        assert (sim_dir / "labels.csv").exists()
        from mmfa.dataio import load_dataset

        dataset = load_dataset(sim_dir / "manifest.json")
        assert dataset.n_instances == 120

    def test_seed_repeat_identical_files(self, tmp_path, sim_dir):
        cfg = {
            "n_factors": 2, "n_instances": 120, "n_gaussian": 5,
            "n_categories": [4], "n_trials": 8, "noise_variance": 0.5,
            "missing_fraction": 0.25, "outlier_fraction": 0.05, "seed": 11,
        }
        cfg_path = tmp_path / "gen2.json"
        cfg_path.write_text(json.dumps(cfg))
        second = tmp_path / "data2"
        assert main(["simulate", "--config", str(cfg_path), "-o", str(second)]) == 0
        for name in ("manifest.json", "gaussian.npy", "cat_0.npy", "labels.csv"):
            assert (sim_dir / name).read_bytes() == (second / name).read_bytes()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg_path), "-o", str(tmp_path / "x")
        )
        assert code == 1
        assert "bogus" in err

    def test_retired_outlier_mechanism_key(self, tmp_path, capsys):
        # earlier versions took outlier_mechanism, whose one value was the
        # cross-modal mechanism every simulation uses
        cfg_path = tmp_path / "gen.json"
        cfg_path.write_text(json.dumps({"outlier_mechanism": "cross_modal"}))
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg_path), "-o", str(tmp_path / "x")
        )
        assert code == 1
        assert "unknown generator config keys: ['outlier_mechanism']" in err


class TestFit:
    def test_fit_and_trace(self, sim_dir, tmp_path, capsys):
        model_path = tmp_path / "model.mmfa"
        code, _, _ = run(
            capsys, "fit", str(sim_dir / "manifest.json"), "--k", "2",
            "--seed", "3", "--beta", "1.0", "--max-iters", "400",
            "--tol", "1e-7", "-o", str(model_path),
        )
        assert code == 0
        assert model_path.exists()
        trace = (tmp_path / "model.mmfa.trace.csv").read_text().splitlines()
        assert trace[0].startswith("# seed=3")
        meta = dict(line[2:].split("=") for line in trace if line.startswith("# "))
        assert list(meta) == ["seed", "converged", "iterations", "extrapolations", "rejected"]
        assert trace[len(meta)] == "iteration,objective"
        values = [float(line.split(",")[1]) for line in trace[len(meta) + 1:]]
        assert all(b >= a - 1e-8 for a, b in zip(values, values[1:]))
        # one trace row per kept state from the initial one, one timing row
        # per map evaluation
        iterations, rejected = int(meta["iterations"]), int(meta["rejected"])
        assert int(meta["extrapolations"]) > 0
        assert len(values) == iterations - rejected + 1
        timing = (tmp_path / "model.mmfa.timing.csv").read_text().splitlines()
        assert timing[0] == "iteration,seconds"
        rows = [line.split(",") for line in timing[1:]]
        assert [int(i) for i, _ in rows] == list(range(1, iterations + 1))
        assert all(float(seconds) > 0 for _, seconds in rows)

    def test_model_and_blob_move_together(self, sim_dir, tmp_path, capsys):
        model_path = tmp_path / "model.mmfa"
        code, _, _ = run(
            capsys, "fit", str(sim_dir / "manifest.json"), "--k", "2",
            "--max-iters", "5", "-o", str(model_path),
        )
        assert code in (0, 3)
        assert (tmp_path / "model.mmfa.bin").exists()
        args = (str(sim_dir / "manifest.json"), "--task", "predict")
        code, before, _ = run(capsys, "eval", str(model_path), *args)
        assert code == 0
        moved = tmp_path / "moved"
        moved.mkdir()
        for name in ("model.mmfa", "model.mmfa.bin"):
            (tmp_path / name).rename(moved / name)
        code, after, _ = run(capsys, "eval", str(moved / "model.mmfa"), *args)
        assert code == 0
        assert after == before

    def test_infinite_tol_one_iteration_exit_3(self, sim_dir, tmp_path, capsys):
        model_path = tmp_path / "one.mmfa"
        code, _, _ = run(
            capsys, "fit", str(sim_dir / "manifest.json"), "--k", "2",
            "--tol", "inf", "-o", str(model_path),
        )
        assert code == 3
        assert model_path.exists()
        from mmfa import load_model

        assert load_model(model_path).iterations_run == 1

    def test_dimension_mismatch_exit_2(self, sim_dir, tmp_path, capsys):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        manifest["gaussian"]["d1"] = 9
        bad = sim_dir / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        code, _, err = run(
            capsys, "fit", str(bad), "--k", "2", "-o", str(tmp_path / "m.mmfa")
        )
        assert code == 2
        assert "columns" in err

    def test_corrupt_manifest_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        code, _, _ = run(
            capsys, "fit", str(bad), "--k", "2", "-o", str(tmp_path / "m.mmfa")
        )
        assert code == 1


class TestEval:
    @pytest.fixture()
    def model_path(self, sim_dir, tmp_path):
        path = tmp_path / "model.mmfa"
        assert main([
            "fit", str(sim_dir / "manifest.json"), "--k", "2", "--seed", "3",
            "--beta", "1.0", "--max-iters", "150", "--tol", "1e-7",
            "-o", str(path),
        ]) in (0, 3)
        return path

    def test_predict_reports_elbo(self, sim_dir, model_path, capsys):
        code, out, _ = run(
            capsys, "eval", str(model_path), str(sim_dir / "manifest.json"),
            "--task", "predict",
        )
        assert code == 0
        assert "ELBO" in out
        assert "total_log_predictive_elbo" in out

    def test_anomaly_report_sorted_with_auc(self, sim_dir, model_path, capsys):
        code, out, _ = run(
            capsys, "eval", str(model_path), str(sim_dir / "manifest.json"),
            "--task", "anomaly", "--delta", "0.05",
            "--labels", str(sim_dir / "labels.csv"),
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        loglik_col = header.index("log_likelihood")
        values = [float(r[loglik_col]) for r in rows]
        assert values == sorted(values)
        meta = {
            l.split("=")[0][2:]: l.split("=", 1)[1]
            for l in out.splitlines() if l.startswith("# ")
        }
        assert float(meta["auc"]) > 0.5
        assert "threshold" in meta

    def test_impute_reports_mse(self, sim_dir, model_path, capsys):
        code, out, _ = run(
            capsys, "eval", str(model_path), str(sim_dir / "manifest.json"),
            "--task", "impute", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert float(doc["meta"]["mse_model"]) > 0
        hidden = ~np.load(sim_dir / "gaussian_mask.npy")
        assert len(doc["rows"]) == int(hidden.sum())

    def test_recall_runs(self, sim_dir, model_path, capsys):
        code, out, _ = run(
            capsys, "eval", str(model_path), str(sim_dir / "manifest.json"),
            "--task", "recall", "--k", "5", "--like-threshold", "1.0",
        )
        assert code == 0
        assert "recall" in out

    def test_reports_byte_identical(self, sim_dir, model_path, capsys):
        args = ("eval", str(model_path), str(sim_dir / "manifest.json"),
                "--task", "predict")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_incompatible_dims_exit_2(self, model_path, tmp_path, capsys):
        from mmfa import GeneratorConfig, sample_dataset
        from mmfa.dataio import save_dataset

        other = sample_dataset(
            GeneratorConfig(n_factors=1, n_instances=10, n_gaussian=2,
                            n_categories=(4,), seed=1)
        )
        manifest = save_dataset(tmp_path / "other", other.dataset)
        code, _, _ = run(
            capsys, "eval", str(model_path), str(manifest), "--task", "predict"
        )
        assert code == 2


class TestShippedConfigs:
    def test_reference_experiment_config_loads(self):
        import os
        from mmfa.fisher import MseExperimentConfig

        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        doc = json.load(open(os.path.join(root, "paper-sec5c.json")))
        config = MseExperimentConfig.from_dict(doc)
        assert config.iterations == 100
        assert config.n_seeds == 10
        assert set(doc) == set(MseExperimentConfig.__dataclass_fields__)

    def test_simulate_config_loads(self, tmp_path, capsys):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        code, _, _ = run(
            capsys, "simulate", "--config",
            os.path.join(root, "simulate-desk.json"), "-o", str(tmp_path / "d"),
        )
        assert code == 0


class TestCrlbCommand:
    def _config(self, tmp_path, n_replicates=400):
        doc = {
            "c": [0.5, -0.2],
            "gaussian": {"mean": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                         "noise_variance": 1.0},
            "multinomial": {"n_trials": 10, "n_categories": 4},
            "n_replicates": n_replicates,
            "seed": 21,
        }
        path = tmp_path / "crlb.json"
        path.write_text(json.dumps(doc))
        return path

    def test_deterministic_output(self, tmp_path, capsys):
        path = self._config(tmp_path)
        _, first, _ = run(capsys, "crlb", "--config", str(path))
        _, second, _ = run(capsys, "crlb", "--config", str(path))
        assert first == second
        assert "crlb_total" in first

    def test_tiny_replicates_warns_but_runs(self, tmp_path, capsys):
        path = self._config(tmp_path, n_replicates=2)
        code, out, err = run(capsys, "crlb", "--config", str(path))
        assert code == 0
        assert "wide-error" in err
        assert "crlb_total" in out

    @pytest.mark.parametrize("n_replicates", [2000.5, "2000"])
    def test_non_integral_replicates_rejected(self, tmp_path, capsys, n_replicates):
        # a fractional count used to run int(n) replicates under a header
        # naming n, and a string failed on an unrelated comparison
        path = self._config(tmp_path, n_replicates=n_replicates)
        code, out, err = run(capsys, "crlb", "--config", str(path))
        assert code == 1
        assert "n_replicates must be an integer" in err
        assert out == ""


class TestMseExperimentCommand:
    DOC = {
        "n_instances": 10, "n_gaussian": 3, "n_categories": 3,
        "n_factors": 2, "n_trials": 4, "noise_variance": 0.5,
        "iterations": 3, "n_seeds": 1, "seed": 2,
    }

    def test_tiny_run(self, tmp_path, capsys):
        path = tmp_path / "mse.json"
        path.write_text(json.dumps(self.DOC))
        out_path = tmp_path / "mse.csv"
        code, _, _ = run(
            capsys, "mse-experiment", "--config", str(path), "-o", str(out_path)
        )
        assert code == 0
        lines = [
            l for l in out_path.read_text().splitlines() if not l.startswith("#")
        ]
        assert lines[0].split(",")[0] == "iteration"
        assert len(lines) == 4  # header + 3 iterations

    @pytest.mark.parametrize("key, value", [("n_seeds", 0), ("noise_variance", 0.0)])
    def test_out_of_range_value_rejected(self, tmp_path, capsys, key, value):
        # n_seeds=0 once wrote NaN rows, and noise_variance=0 failed only
        # after the whole fit
        path = tmp_path / "mse.json"
        path.write_text(json.dumps({**self.DOC, key: value}))
        code, out, err = run(capsys, "mse-experiment", "--config", str(path))
        assert code == 1
        assert key in err
        assert out == ""

    def test_removed_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "mse.json"
        path.write_text(json.dumps({**self.DOC, "fisher_replicates": 120}))
        code, _, err = run(capsys, "mse-experiment", "--config", str(path))
        assert code == 1
        assert "fisher_replicates" in err


class TestRankAuc:
    @staticmethod
    def pairwise_auc(scores, labels):
        # Mann-Whitney count over all (positive, negative) pairs, ties half
        pos, neg = scores[labels], scores[~labels]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        return (wins + 0.5 * ties) / (pos.size * neg.size)

    def test_tie_heavy_matches_pairwise_count(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(5, 200))
            scores = rng.integers(0, 4, n).astype(float)
            labels = rng.random(n) < 0.3
            if labels.all() or not labels.any():
                continue
            assert _rank_auc(scores, labels) == pytest.approx(
                self.pairwise_auc(scores, labels), abs=1e-12
            )

    def test_all_tied_is_one_half(self):
        labels = np.array([True, False, True, False, False])
        assert _rank_auc(np.ones(5), labels) == 0.5

    def test_single_class_is_nan(self):
        assert np.isnan(_rank_auc(np.arange(4.0), np.zeros(4, dtype=bool)))


# Runs in a fresh interpreter: simulate -> fit -> eval -> crlb ->
# mse-experiment through cli.main, then writes the exit codes and every
# imported module whose name starts with "scipy" to argv[1]/out.json.
NUMPY_ONLY_CHAIN = """
import json, sys
from pathlib import Path

import mmfa
from mmfa import cli

base = Path(sys.argv[1])
gen = {"n_factors": 2, "n_instances": 60, "n_gaussian": 4, "n_categories": [4],
       "n_trials": 6, "noise_variance": 0.5, "seed": 3}
crlb = {"c": [0.5, -0.2], "gaussian": {"mean": [[1.0, 0.0], [0.0, 1.0]]},
        "multinomial": {"n_trials": 10, "n_categories": 4},
        "n_replicates": 50, "seed": 1}
mse = {"n_instances": 10, "n_gaussian": 3, "n_categories": 3, "n_factors": 2,
       "n_trials": 4, "noise_variance": 0.5, "iterations": 2, "n_seeds": 1}
for name, doc in [("gen", gen), ("crlb", crlb), ("mse", mse)]:
    (base / f"{name}.json").write_text(json.dumps(doc))
manifest = str(base / "data" / "manifest.json")
steps = [
    ["simulate", "--config", str(base / "gen.json"), "-o", str(base / "data")],
    ["fit", manifest, "--k", "2", "--tol", "1e-4", "-o", str(base / "model.mmfa")],
    ["eval", str(base / "model.mmfa"), manifest, "--task", "predict",
     "-o", str(base / "predict.csv")],
    ["crlb", "--config", str(base / "crlb.json"), "-o", str(base / "crlb.csv")],
    ["mse-experiment", "--config", str(base / "mse.json"),
     "-o", str(base / "mse.csv")],
]
codes = [cli.main(step) for step in steps]
scipy = sorted(m for m in sys.modules if m.startswith("scipy"))
(base / "out.json").write_text(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test-only dependency: neither the package nor any
    # command may import it
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_CHAIN, str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "out.json").read_text())
    assert out["codes"] == [0, 0, 0, 0, 0], proc.stderr
    assert out["scipy"] == []
