"""Data generation, ingestion and splitting tests."""

import numpy as np
import pytest

from specscale import (
    DataMatrix,
    data,
    SplitSpec,
    generate_toy,
    load_matrix,
    save_matrix,
    split,
    standardize,
)
from specscale.errors import MatrixParseError, ZeroVarianceError


def balanced_matrix(n=800, m=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([1, 2] * (n // 2))
    return DataMatrix(
        values=rng.normal(size=(n, m)),
        feature_names=[f"c{i}" for i in range(m)],
        labels=labels,
    )


class TestGenerateToy:
    def test_shape_and_labels(self):
        data = generate_toy(800, seed=0)
        assert data.values.shape == (800, 10)
        assert data.labels is not None
        counts = np.bincount(data.labels)
        # class sizes are one-to-five so the default supervision value matches
        assert counts[1] == round(800 / 6)
        assert counts[2] == 800 - counts[1]

    def test_deterministic(self):
        a = generate_toy(200, seed=3)
        b = generate_toy(200, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_noise_feature_moments(self):
        data = generate_toy(800, seed=1)
        means = data.values[:, 3:].mean(axis=0)
        np.testing.assert_allclose(means, 0.5, atol=3.0 / np.sqrt(12 * 800))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_toy(7)
        with pytest.raises(ValueError):
            generate_toy(4)


class TestStandardize:
    def test_two_point_column(self):
        dm = DataMatrix(values=np.array([[0.0], [2.0]]), feature_names=["x"])
        out = standardize(dm)
        np.testing.assert_allclose(out.values, [[-1.0], [1.0]])

    def test_population_moments(self):
        data = standardize(generate_toy(400, seed=2))
        np.testing.assert_allclose(data.values.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(data.values.var(axis=0), 1.0, atol=1e-10)

    def test_idempotent(self):
        data = standardize(generate_toy(200, seed=0))
        again = standardize(data)
        np.testing.assert_allclose(again.values, data.values, atol=1e-10)

    def test_constant_feature_named_in_error(self):
        dm = DataMatrix(
            values=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
            feature_names=["flat", "ok"],
        )
        with pytest.raises(ZeroVarianceError, match="flat"):
            standardize(dm)


class TestLoadSave:
    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,label\n1.5,2.5,1\n3.5,4.5,2\n0.5,0.25,1\n")
        dm = load_matrix(path)
        assert dm.feature_names == ["a", "b"]
        np.testing.assert_array_equal(dm.labels, [1, 2, 1])
        np.testing.assert_array_equal(dm.values[0], [1.5, 2.5])

    def test_headerless_numeric(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n")
        dm = load_matrix(path)
        assert dm.labels is None
        assert dm.values.shape == (2, 2)

    def test_tab_delimited_sniffed(self, tmp_path):
        path = tmp_path / "wide.tsv"
        path.write_text("x\ty\tlabel\n1\t2\t1\n3\t4\t2\n")
        dm = load_matrix(path)
        assert dm.feature_names == ["x", "y"]

    def test_blank_lines_before_the_header_are_skipped(self, tmp_path):
        path = tmp_path / "lead.csv"
        path.write_text("\na,b,label\n1,2,1\n3,4,2\n")
        dm = load_matrix(path)
        assert dm.feature_names == ["a", "b"]
        np.testing.assert_array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(dm.labels, [1, 2])
        path.write_text("\n \n1,2\n3\n")  # line numbers count the skipped lines
        with pytest.raises(MatrixParseError, match=":4: ragged row"):
            load_matrix(path)

    def test_ragged_row_cites_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(MatrixParseError, match=":3"):
            load_matrix(path)

    def test_non_numeric_cell_cites_line(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(MatrixParseError, match=":3"):
            load_matrix(path)

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("a,b\n1,\n")
        with pytest.raises(MatrixParseError, match=":2"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "cell, problem", [("oops", "non-numeric"), ("inf", "non-finite"), ("", "missing")]
    )
    def test_bad_last_cell_of_wide_row_cites_line_and_column(self, tmp_path, cell, problem):
        width = 500
        good = ",".join(["0.5"] * width)
        path = tmp_path / "wide_bad.csv"
        path.write_text(
            ",".join(f"g{j}" for j in range(width)) + f"\n{good}\n{good[:-3]}{cell}\n"
        )
        with pytest.raises(MatrixParseError, match=f":3: {problem}.* column {width}$"):
            load_matrix(path)

    def test_roundtrip_exact_across_chunks(self, tmp_path, monkeypatch):
        # 3 rows of 8 cells (7 features and the label) per chunk: 17 chunks,
        # the last one short
        monkeypatch.setattr(data, "_CHUNK_CELLS", 3 * 8 + 5)
        dm = balanced_matrix(n=50, m=7, seed=4)
        path = tmp_path / "chunks.csv"
        save_matrix(dm, path)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.values, dm.values)
        np.testing.assert_array_equal(back.labels, dm.labels)
        assert back.feature_names == dm.feature_names

    def test_bad_cell_in_a_later_chunk_after_blank_lines_cites_line_and_column(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(data, "_CHUNK_CELLS", 2 * 3)  # 2 rows per chunk
        lines = ["a,b,c", "1,2,3", "", "4,5,6", "  ", "7,8,9", "1,2,3", "", "\t",
                 "4,5,6", "7,8,9", "1,2,oops", "4,5,6"]
        path = tmp_path / "late.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MatrixParseError, match=r":12: non-numeric cell 'oops' in column 3$"):
            load_matrix(path)

    def test_quoted_numeric_cells_load(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"a","b","label"\n"1.5",2.5,"1"\n3.5,"4.5",2\n')
        dm = load_matrix(path)
        assert dm.feature_names == ["a", "b"]
        np.testing.assert_array_equal(dm.values, [[1.5, 2.5], [3.5, 4.5]])
        np.testing.assert_array_equal(dm.labels, [1, 2])

    def test_wide_matrix_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        labels = np.array([1] * 12 + [2] * 12)
        dm = DataMatrix(
            values=rng.normal(size=(24, 2000)),
            feature_names=[f"g{i:04d}" for i in range(2000)],
            labels=labels,
        )
        path = tmp_path / "wide.csv"
        save_matrix(dm, path)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.values, dm.values)
        np.testing.assert_array_equal(back.labels, dm.labels)
        assert back.feature_names == dm.feature_names


class TestSplit:
    def test_balanced_half_split(self):
        data = balanced_matrix(800)
        train, test = split(data, SplitSpec(0.5, seed=0))
        assert train.size == 400 and test.size == 400

    def test_full_fraction(self):
        data = balanced_matrix(100)
        train, test = split(data, SplitSpec(1.0, seed=0))
        assert train.size == 100 and test.size == 0

    def test_deterministic(self):
        data = balanced_matrix(200)
        a = split(data, SplitSpec(0.3, seed=9), repetition=4)
        b = split(data, SplitSpec(0.3, seed=9), repetition=4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_repetitions_differ(self):
        data = balanced_matrix(200)
        a, _ = split(data, SplitSpec(0.3, seed=9), repetition=0)
        b, _ = split(data, SplitSpec(0.3, seed=9), repetition=1)
        assert not np.array_equal(a, b)

    def test_small_fraction_keeps_both_classes(self):
        data = generate_toy(200, seed=0)
        train, _ = split(data, SplitSpec(0.05, seed=0))
        assert np.unique(data.labels[train]).size == 2

    def test_disjoint_cover(self):
        data = generate_toy(100, seed=1)
        train, test = split(data, SplitSpec(0.4, seed=2), repetition=3)
        combined = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_requires_labels(self):
        dm = DataMatrix(values=np.zeros((4, 2)), feature_names=["a", "b"])
        with pytest.raises(ValueError):
            split(dm, SplitSpec(0.5))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0.0)
        with pytest.raises(ValueError):
            SplitSpec(0.5, repetitions=0)
