"""Dataset IO tests: manifests, CSV parsing, dummy expansion, perturbation."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from stepgate import (
    Dataset,
    DatasetManifest,
    DegenerateColumnError,
    InvalidInputError,
    ParseError,
    SchemaError,
    load_builtin,
    load_csv,
    load_manifest,
    perturb_response,
    standardize_columns,
    write_csv,
)

PROSTATE_ORDER = ["lcavol", "lweight", "age", "lbph", "svi", "lcp", "gleason", "pgg45"]
BIRTHWEIGHT_ORDER = [
    "age", "lwt", "smoke", "ptl", "ht", "ui", "ftv", "race-other", "race-white",
]


def test_builtin_prostate_anchors():
    ds, manifest = load_builtin("prostate")
    assert (ds.n, ds.k) == (97, 8)
    assert list(ds.columns) == PROSTATE_ORDER
    assert float(ds.y.sum()) == pytest.approx(238.6075393, abs=1e-7)
    assert ds.columns["lcavol"][0] == pytest.approx(-0.579818495)
    assert manifest.response_column == "lpsa"
    assert manifest.conventions == {"intercept": True, "standardize": False}
    assert "reconstruction" in manifest.source_note  # provenance warning must survive


def test_builtin_birthweight_anchors():
    ds, manifest = load_builtin("birthweight")
    assert (ds.n, ds.k) == (189, 9)
    assert list(ds.columns) == BIRTHWEIGHT_ORDER
    assert int(ds.y.sum()) == 556527
    # race indicators: 67 "other", 96 "white", baseline 26 "black"
    assert int(ds.columns["race-other"].sum()) == 67
    assert int(ds.columns["race-white"].sum()) == 96
    assert set(np.unique(ds.columns["race-other"])) == {0.0, 1.0}
    assert (ds.columns["age"][0], ds.columns["lwt"][0], ds.y[0]) == (19.0, 182.0, 2523.0)
    assert manifest.dummy_encodings == {"race": ["race-other", "race-white"]}


def test_builtin_unknown_name():
    with pytest.raises(InvalidInputError):
        load_builtin("bodyfat")


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_dummy_expansion(tmp_path):
    csv_path = _write(
        tmp_path / "d.csv",
        "y,x,group\n1,0.5,20\n2,1.5,10\n3,2.5,30\n4,3.5,10\n",
    )
    manifest = DatasetManifest(
        name="d",
        source_note="",
        response_column="y",
        covariate_columns=["x", "g-mid", "g-high"],
        dummy_encodings={"group": ["g-mid", "g-high"]},
    )
    ds = load_csv(csv_path, manifest)
    assert list(ds.columns) == ["x", "g-mid", "g-high"]
    # levels sort to 10 < 20 < 30; 10 is the omitted baseline
    assert_array_equal(ds.columns["g-mid"], [1.0, 0.0, 0.0, 0.0])
    assert_array_equal(ds.columns["g-high"], [0.0, 0.0, 1.0, 0.0])


def test_dummy_level_count_mismatch(tmp_path):
    csv_path = _write(tmp_path / "d.csv", "y,g\n1,1\n2,2\n3,3\n4,4\n")
    manifest = DatasetManifest(
        name="d", source_note="", response_column="y",
        covariate_columns=["g-a", "g-b"], dummy_encodings={"g": ["g-a", "g-b"]},
    )
    with pytest.raises(SchemaError):
        load_csv(csv_path, manifest)  # 4 levels need 3 dummy names, not 2


def test_manifest_validation():
    with pytest.raises(SchemaError):
        DatasetManifest(name="m", source_note="", response_column="y",
                        covariate_columns=["y", "x"])
    with pytest.raises(SchemaError):
        DatasetManifest(name="m", source_note="", response_column="y",
                        covariate_columns=["a", "a2"],
                        dummy_encodings={"g": ["a", "a"]})
    with pytest.raises(SchemaError):
        DatasetManifest(name="m", source_note="", response_column="y",
                        covariate_columns=["x"],
                        dummy_encodings={"g": ["g-1"]})  # g-1 not declared


def test_load_manifest_missing_key(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"name": "m", "covariate_columns": ["x"]}))
    with pytest.raises(SchemaError):
        load_manifest(str(p))


SIMPLE = DatasetManifest(name="s", source_note="", response_column="y",
                         covariate_columns=["x"])


def test_csv_missing_column(tmp_path):
    path = _write(tmp_path / "c.csv", "y,z\n1,2\n")
    with pytest.raises(SchemaError):
        load_csv(path, SIMPLE)


def test_csv_bad_cell_reports_location(tmp_path):
    path = _write(tmp_path / "c.csv", "y,x\n1,2\n3,oops\n")
    with pytest.raises(ParseError, match=r"row 2, column 'x'"):
        load_csv(path, SIMPLE)


@pytest.mark.parametrize("cell", ["nan", " inf"])
def test_csv_non_finite_cell_reports_location(tmp_path, cell):
    path = _write(tmp_path / "c.csv", f"y,x\n1,2\n3,{cell}\n")
    with pytest.raises(ParseError, match=r"row 2, column 'x'.*finite"):
        load_csv(path, SIMPLE)


def test_csv_ragged_row(tmp_path):
    path = _write(tmp_path / "c.csv", "y,x\n1,2,3\n")
    with pytest.raises(ParseError, match="expected 2 fields"):
        load_csv(path, SIMPLE)


def test_csv_empty_file(tmp_path):
    path = _write(tmp_path / "c.csv", "")
    with pytest.raises(SchemaError):
        load_csv(path, SIMPLE)


def test_csv_tolerates_trailing_blank_line(tmp_path):
    path = _write(tmp_path / "c.csv", "y,x\n1,2\n\n")
    ds = load_csv(path, SIMPLE)
    assert ds.n == 1


def test_write_load_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    y = rng.standard_normal(20) / 3.0
    cols = {"a": rng.standard_normal(20) * np.pi, "b": rng.integers(0, 5, 20).astype(float)}
    ds = Dataset("rt", y, cols)
    path = tmp_path / "rt.csv"
    write_csv(ds, str(path))
    manifest = DatasetManifest(name="rt", source_note="", response_column="y",
                               covariate_columns=["a", "b"])
    back = load_csv(str(path), manifest)
    assert_array_equal(back.y, y)  # repr() emits shortest exact decimals
    assert_array_equal(back.columns["a"], cols["a"])
    assert_array_equal(back.columns["b"], cols["b"])


def test_write_csv_response_name_clash(tmp_path):
    ds = Dataset("c", np.ones(2), {"y": np.zeros(2)})
    with pytest.raises(SchemaError):
        write_csv(ds, str(tmp_path / "c.csv"))


def test_perturb_response_semantics():
    ds = Dataset("p", np.array([1.0, 2.0, 3.0]), {"x": np.array([4.0, 5.0, 6.0])})
    out = perturb_response(ds, 1, 10.0)  # 1-based: replaces the first entry
    assert_array_equal(out.y, [10.0, 2.0, 3.0])
    assert_array_equal(ds.y, [1.0, 2.0, 3.0])  # original untouched
    out.columns["x"][0] = 99.0
    assert ds.columns["x"][0] == 4.0  # columns are copies too


def test_perturb_response_validation():
    ds = Dataset("p", np.array([1.0, 2.0]), {"x": np.array([0.0, 1.0])})
    for bad in (0, 3, -1):
        with pytest.raises(IndexError):
            perturb_response(ds, bad, 5.0)
    with pytest.raises(InvalidInputError):
        perturb_response(ds, 1.5, 5.0)
    with pytest.raises(InvalidInputError):
        perturb_response(ds, True, 5.0)
    with pytest.raises(InvalidInputError):
        perturb_response(ds, 1, np.inf)


def test_standardize_columns():
    rng = np.random.default_rng(2)
    ds = Dataset("s", rng.standard_normal(30),
                 {"a": rng.standard_normal(30) * 7 + 3, "b": rng.uniform(0, 1, 30)})
    out = standardize_columns(ds)
    for col in out.columns.values():
        assert np.mean(col) == pytest.approx(0.0, abs=1e-12)
        assert np.std(col, ddof=1) == pytest.approx(1.0, rel=1e-12)
    assert_array_equal(out.y, ds.y)


def test_standardize_rejects_constant_column():
    ds = Dataset("s", np.arange(5.0), {"c": np.full(5, 2.0)})
    with pytest.raises(DegenerateColumnError):
        standardize_columns(ds)


def test_dataset_validation():
    with pytest.raises(InvalidInputError):
        Dataset("bad", np.ones(3), {"x": np.ones(4)})
    with pytest.raises(InvalidInputError):
        Dataset("bad", np.ones((2, 2)), {})
    with pytest.raises(InvalidInputError):
        Dataset("bad", np.ones(2), {1: np.ones(2), "1": np.ones(2)})


def test_dataset_matrix_subsets():
    ds = Dataset("m", np.zeros(3),
                 {"a": np.array([1.0, 2, 3]), "b": np.array([4.0, 5, 6])})
    assert ds.matrix().shape == (3, 2)
    assert_allclose(ds.matrix(["b", "a"])[:, 0], [4.0, 5, 6])
    assert ds.matrix([]).shape == (3, 0)
