"""Dataset manifest and CSV round-trip tests."""

import filecmp
import json

import numpy as np
import pytest

from mmfa import DimensionMismatch, GeneratorConfig, SchemaError, dataio, sample_dataset
from mmfa.dataio import (
    load_dataset,
    load_manifest,
    read_matrix_csv,
    save_dataset,
    write_matrix_csv,
)


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((17, 4)) * 10.0 ** rng.integers(-8, 8, (17, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix, [f"c{i}" for i in range(4)])
    back = read_matrix_csv(path, 4)
    np.testing.assert_array_equal(back, matrix)


def reference_write_matrix_csv(path, matrix, columns):
    """The per-value writer whose bytes write_matrix_csv must reproduce."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in matrix:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def byte_cases():
    rng = np.random.default_rng(12)
    big = np.finfo(float).max
    special = [
        np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1e16, 1e17, big, -big, 0.1, 1 / 3, 123456789012345678.0, 1.0,
    ]
    return {
        "special": np.array(special).reshape(4, 4),
        # 41 rows of 3: with 10 values per block, 14 blocks of 3 rows, the
        # last one holding 2
        "exponents": rng.standard_normal((41, 3)) * 10.0 ** rng.integers(-300, 301, (41, 3)),
        "integer": rng.integers(-10**6, 10**6, (9, 4)),
        "boolean": rng.random((9, 5)) < 0.3,
        "one-d": rng.standard_normal(5),
        "zero-rows": np.empty((0, 3)),
    }


@pytest.mark.parametrize("block_values", [dataio.CSV_BLOCK_VALUES, 10])
@pytest.mark.parametrize("case", list(byte_cases()))
def test_matrix_csv_bytes_match_per_value_writer(tmp_path, monkeypatch, case, block_values):
    matrix = byte_cases()[case]
    columns = [f"c{i}" for i in range(np.atleast_2d(matrix).shape[1])]
    monkeypatch.setattr(dataio, "CSV_BLOCK_VALUES", block_values)
    write_matrix_csv(tmp_path / "got.csv", matrix, columns)
    reference_write_matrix_csv(tmp_path / "want.csv", matrix, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_save_dataset_bytes_match_per_value_writer(tmp_path, monkeypatch):
    synth = sample_dataset(
        GeneratorConfig(
            n_factors=2, n_instances=40, n_gaussian=5, n_categories=(4, 3),
            n_trials=7, missing_fraction=0.3, outlier_fraction=0.1, seed=9,
        )
    )
    monkeypatch.setattr(dataio, "CSV_BLOCK_VALUES", 16)
    save_dataset(
        tmp_path / "got", synth.dataset, ground_truth=synth,
        labels=synth.outlier_labels,
    )
    monkeypatch.setattr(dataio, "write_matrix_csv", reference_write_matrix_csv)
    save_dataset(
        tmp_path / "want", synth.dataset, ground_truth=synth,
        labels=synth.outlier_labels,
    )
    names = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == names
    assert len(names) == 10  # manifest and nine CSVs
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "got", tmp_path / "want", names, shallow=False
    )
    assert (mismatch, errors) == ([], [])


def test_dataset_roundtrip(tmp_path):
    synth = sample_dataset(
        GeneratorConfig(
            n_factors=2, n_instances=25, n_gaussian=3, n_categories=(4, 3),
            n_trials=7, missing_fraction=0.3, outlier_fraction=0.08, seed=4,
        )
    )
    manifest = save_dataset(
        tmp_path / "data", synth.dataset, ground_truth=synth,
        labels=synth.outlier_labels,
    )
    loaded = load_dataset(manifest)
    np.testing.assert_array_equal(loaded.gaussian, synth.dataset.gaussian)
    np.testing.assert_array_equal(loaded.mask, synth.dataset.mask)
    for got, want in zip(loaded.categoricals, synth.dataset.categoricals):
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.trials, want.trials)
    assert (tmp_path / "data" / "labels.csv").exists()
    assert (tmp_path / "data" / "scores_true.csv").exists()


def test_manifest_missing_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "schema_version": 1, "instances": 3,
        "gaussian": {"csv": "nope.csv", "d1": 2},
    }))
    with pytest.raises(SchemaError):
        load_dataset(path)


def test_manifest_bad_version(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema_version": 9, "categoricals": []}))
    with pytest.raises(SchemaError, match="version"):
        load_manifest(path)


def test_manifest_declared_dims_must_match(tmp_path):
    synth = sample_dataset(
        GeneratorConfig(n_factors=1, n_instances=10, n_gaussian=3,
                        n_categories=(), seed=1)
    )
    manifest = save_dataset(tmp_path / "d", synth.dataset)
    doc = json.loads(open(manifest).read())
    doc["gaussian"]["d1"] = 5
    open(manifest, "w").write(json.dumps(doc))
    with pytest.raises(DimensionMismatch, match="columns"):
        load_dataset(manifest)


def test_manifest_wrong_trials_rejected(tmp_path):
    synth = sample_dataset(
        GeneratorConfig(n_factors=1, n_instances=10, n_gaussian=2,
                        n_categories=(3,), n_trials=4, seed=2)
    )
    manifest = save_dataset(tmp_path / "d", synth.dataset)
    doc = json.loads(open(manifest).read())
    doc["categoricals"][0]["trials"] = 9
    open(manifest, "w").write(json.dumps(doc))
    with pytest.raises(DimensionMismatch, match="trials"):
        load_dataset(manifest)


def test_non_numeric_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,hello\n")
    with pytest.raises(SchemaError):
        read_matrix_csv(path)
