"""Dataset manifest, .npy and CSV round-trip tests."""

import filecmp
import io
import json
import pickle

import numpy as np
import pytest

from mmfa import (
    DimensionMismatch, GeneratorConfig, HeteroDataset, MultinomialData, SchemaError,
    dataio, sample_dataset,
)
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
    assert len(names) == 10  # manifest, four data and four ground-truth .npy, labels
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
    truth = {
        "scores_true": synth.scores.T,
        "gaussian_loadings": synth.gaussian_loadings,
        "cat_0_loadings": synth.categorical_loadings[0],
        "cat_1_loadings": synth.categorical_loadings[1],
    }
    for name, want in truth.items():
        got = np.load(tmp_path / "data" / f"{name}.npy", allow_pickle=False)
        assert got.dtype == np.dtype("<f8")
        np.testing.assert_array_equal(got, want, strict=True)


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


def write_manifest(directory, gaussian, mask=None, categoricals=()):
    """A manifest over the named matrix files, as a user would write it."""
    doc = {"schema_version": 1, "gaussian": dict(gaussian), "categoricals": list(categoricals)}
    if mask is not None:
        doc["gaussian"]["mask_csv"] = mask
    path = directory / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def npy_bytes(array, **kwargs):
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


def bad_npy_cases():
    good = np.arange(12.0).reshape(4, 3)
    archive = io.BytesIO()
    np.savez(archive, good)
    return {
        "truncated": npy_bytes(good)[:-8],
        "header-only": npy_bytes(good)[:20],
        "empty": b"",
        "pickled": pickle.dumps(good),
        "object": npy_bytes(np.array([[1.0, "a", None]], dtype=object), allow_pickle=True),
        "archive": archive.getvalue(),
        "float32": npy_bytes(good.astype(np.float32)),
        "big-endian": npy_bytes(good.astype(">f8")),
        "integer": npy_bytes(good.astype(np.int64)),
        "one-d": npy_bytes(good.ravel()),
        "three-d": npy_bytes(good.reshape(2, 2, 3)),
    }


@pytest.mark.parametrize("case", ["missing", *bad_npy_cases()])
def test_npy_matrix_rejected_naming_the_file(tmp_path, case):
    if case != "missing":
        (tmp_path / "bad.npy").write_bytes(bad_npy_cases()[case])
    manifest = write_manifest(tmp_path, {"csv": "bad.npy", "d1": 3})
    with pytest.raises(SchemaError, match="bad.npy"):
        load_dataset(manifest)


@pytest.mark.parametrize("dtype", [float, np.uint8])
def test_npy_mask_must_be_bool(tmp_path, dtype):
    (tmp_path / "g.npy").write_bytes(npy_bytes(np.zeros((4, 3))))
    (tmp_path / "m.npy").write_bytes(npy_bytes(np.ones((4, 3), dtype=dtype)))
    manifest = write_manifest(tmp_path, {"csv": "g.npy", "d1": 3}, mask="m.npy")
    with pytest.raises(SchemaError, match="m.npy"):
        load_dataset(manifest)


def test_npy_counts_must_be_float(tmp_path):
    (tmp_path / "c.npy").write_bytes(npy_bytes(np.ones((4, 3), dtype=np.int64)))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "schema_version": 1, "categoricals": [{"csv": "c.npy", "d2": 3}],
    }))
    with pytest.raises(SchemaError, match="c.npy"):
        load_dataset(manifest)


@pytest.mark.parametrize("entry", ["gaussian", "mask", "counts"])
def test_npy_column_count_must_match_manifest(tmp_path, entry):
    np.save(tmp_path / "g.npy", np.zeros((4, 3)))
    np.save(tmp_path / "m.npy", np.ones((4, 3), dtype=bool))
    np.save(tmp_path / "c.npy", np.ones((4, 3)))
    np.save(tmp_path / "wide.npy", np.ones((4, 4), dtype=bool if entry == "mask" else float))
    names = {"gaussian": "g.npy", "mask": "m.npy", "counts": "c.npy", entry: "wide.npy"}
    manifest = write_manifest(
        tmp_path, {"csv": names["gaussian"], "d1": 3}, mask=names["mask"],
        categoricals=[{"csv": names["counts"], "d2": 3}],
    )
    with pytest.raises(DimensionMismatch, match="wide.npy has 4 columns"):
        load_dataset(manifest)


def test_npy_roundtrip_is_bit_exact(tmp_path):
    big = np.finfo(float).max
    special = np.array([
        [np.nan, -0.0, 5e-324, -5e-324],
        [2.2250738585072014e-308, big, -big, 1e300],
        [-1e-300, 0.1, np.nan, 1 / 3],
    ])
    mask = ~np.isnan(special)
    counts = np.array([[0.0, 3.0, 4.0], [7.0, 0.0, 0.0], [1.0, 1.0, 5.0]])
    dataset = HeteroDataset(
        gaussian=special, mask=mask,
        categoricals=[MultinomialData.from_full_counts(counts)],
    )
    loaded = load_dataset(save_dataset(tmp_path / "c", dataset))
    assert loaded.gaussian.dtype == np.float64 and loaded.mask.dtype == bool
    np.testing.assert_array_equal(loaded.gaussian.view(np.uint64), special.view(np.uint64))
    np.testing.assert_array_equal(loaded.mask, mask)
    np.testing.assert_array_equal(loaded.categoricals[0].full_counts(), counts)
    np.testing.assert_array_equal(loaded.categoricals[0].trials, [7.0, 7.0, 7.0])

    # equal data saves to equal bytes, whatever the input's memory layout
    fortran = HeteroDataset(
        gaussian=np.asfortranarray(special), mask=np.asfortranarray(mask),
        categoricals=[MultinomialData.from_full_counts(np.asfortranarray(counts))],
    )
    save_dataset(tmp_path / "f", fortran)
    names = sorted(p.name for p in (tmp_path / "c").iterdir())
    assert names == ["cat_0.npy", "gaussian.npy", "gaussian_mask.npy", "manifest.json"]
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "c", tmp_path / "f", names, shallow=False
    )
    assert (mismatch, errors) == ([], [])


@pytest.mark.parametrize("layout", ["csv", "mixed"])
def test_hand_written_csv_and_mixed_manifests_load(tmp_path, layout):
    dataset = sample_dataset(
        GeneratorConfig(
            n_factors=2, n_instances=30, n_gaussian=4, n_categories=(5, 3),
            n_trials=6, missing_fraction=0.25, seed=17,
        )
    ).dataset
    d1, (d2a, d2b) = dataset.n_gaussian, dataset.category_counts
    files = {
        "g": dataset.gaussian,
        "m": dataset.mask.astype(int),
        "a": dataset.categoricals[0].full_counts(),
        "b": dataset.categoricals[1].full_counts(),
    }
    npy = {"m", "b"} if layout == "mixed" else set()
    names = {}
    for key, matrix in files.items():
        if key in npy:
            names[key] = f"{key}.npy"
            np.save(tmp_path / names[key], matrix > 0 if key == "m" else matrix)
        else:
            names[key] = f"{key}.csv"
            write_matrix_csv(
                tmp_path / names[key], matrix, [f"x{j}" for j in range(matrix.shape[1])]
            )
    manifest = write_manifest(
        tmp_path, {"csv": names["g"], "d1": d1}, mask=names["m"],
        categoricals=[
            {"csv": names["a"], "d2": d2a, "trials": 6},
            {"csv": names["b"], "d2": d2b},
        ],
    )
    loaded = load_dataset(manifest)
    np.testing.assert_array_equal(loaded.gaussian, dataset.gaussian)
    np.testing.assert_array_equal(loaded.mask, dataset.mask)
    for got, want in zip(loaded.categoricals, dataset.categoricals, strict=True):
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.trials, want.trials)
