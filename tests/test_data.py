"""Data generation, ingestion and splitting tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specscale import (
    DataMatrix,
    SplitSpec,
    generate_toy,
    load_matrix,
    save_matrix,
    split,
    standardize,
)
from specscale.data import sorted_classes
from specscale.errors import MatrixParseError, ZeroVarianceError


def numpy_standardized(X):
    """``standardize``'s values by numpy's own column maxima and deviations."""
    magnitudes = np.abs(X).max(axis=0)
    scaled = X / np.ldexp(1.0, np.frexp(magnitudes)[1] - 1)
    return (scaled - scaled.mean(axis=0)) / scaled.std(axis=0)


def balanced_matrix(n=800, m=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([1, 2] * (n // 2))
    return DataMatrix(
        values=rng.normal(size=(n, m)),
        feature_names=[f"c{i}" for i in range(m)],
        labels=labels,
    )


class TestDataMatrix:
    def one_column(self, labels):
        return DataMatrix(values=[[0.0], [1.0], [2.0]], feature_names=["a"], labels=labels)

    @pytest.mark.parametrize("labels", [[1.5, 2.7, 2.2], [1.0, np.nan, 2.0]])
    def test_non_integer_labels_are_rejected(self, labels):
        # [1.5, 2.7, 2.2] was truncated to [1, 2, 2]
        with pytest.raises(ValueError, match="labels must be integers"):
            self.one_column(labels)

    def test_integral_float_labels_are_kept(self):
        data = self.one_column([1.0, 2.0, 2.0])
        assert data.labels.dtype.kind == "i"
        np.testing.assert_array_equal(data.labels, [1, 2, 2])

    def test_no_feature_column_is_rejected(self):
        with pytest.raises(ValueError, match="at least one feature column"):
            DataMatrix(values=np.empty((3, 0)), feature_names=[], labels=[1, 2, 2])


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

    def test_one_ulp_column_rejected(self):
        # two values one ulp apart: the spread is rounding, not a feature
        column = np.where(np.arange(6) % 2 == 0, 1e12, np.nextafter(1e12, 2e12))
        values = np.column_stack([np.arange(6.0), column])
        dm = DataMatrix(values=values, feature_names=["ok", "ulp"])
        with pytest.raises(ZeroVarianceError, match="ulp"):
            standardize(dm)

    def test_huge_column_is_standardized(self):
        # the squares of 1e200 overflow: its variance must not be taken unscaled
        values = np.array([[1e200, 0.0], [-1e200, 1.0], [3e199, 2.0]])
        out = standardize(DataMatrix(values=values, feature_names=["huge", "ok"]))
        values[:, 0] /= 1e199
        small = standardize(DataMatrix(values=values, feature_names=["huge", "ok"]))
        np.testing.assert_allclose(out.values, small.values, rtol=1e-14, atol=0)

    def test_tiny_column_is_not_rejected(self):
        # the squares of 1e-200 underflow to 0, which is no zero variance
        values = np.array([[1e-200, 0.0], [2e-200, 1.0], [4e-200, 2.0]])
        out = standardize(DataMatrix(values=values, feature_names=["tiny", "ok"]))
        values[:, 0] *= 1e200
        small = standardize(DataMatrix(values=values, feature_names=["tiny", "ok"]))
        np.testing.assert_allclose(out.values, small.values, rtol=1e-14, atol=0)

    @settings(max_examples=50)
    @given(st.integers(-1000, 1000), st.integers(0, 2**32 - 1))
    def test_power_of_two_scale_is_exact(self, exponent, seed):
        # standardize(2^e X) = standardize(X) bit for bit, at every e for which
        # 2^e X is a normal float: dividing by a power of two loses nothing
        X = np.random.default_rng(seed).normal(size=(20, 3)) + [0.0, 5.0, -300.0]
        names = ["x", "y", "z"]
        moved = standardize(DataMatrix(values=np.ldexp(X, exponent), feature_names=names))
        np.testing.assert_array_equal(
            moved.values, standardize(DataMatrix(values=X, feature_names=names)).values
        )

    @settings(max_examples=50)
    @given(st.floats(-8.0, 8.0), st.floats(-100.0, 100.0), st.integers(0, 2**32 - 1))
    def test_scale_and_offset_free(self, exponent, shift, seed):
        # standardize(a X + b) = standardize(X): the offset is a multiple of a,
        # so that a X + b keeps X's digits at every scale
        X = np.random.default_rng(seed).normal(size=(20, 3))
        a = 10.0**exponent
        names = ["x", "y", "z"]
        moved = standardize(DataMatrix(values=a * X + a * shift, feature_names=names))
        np.testing.assert_allclose(
            moved.values, standardize(DataMatrix(values=X, feature_names=names)).values,
            rtol=0, atol=1e-12,
        )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.lists(st.integers(-300, 300), min_size=1, max_size=12),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_moments_are_numpys_bit_for_bit(self, n, exponents, fortran, seed):
        # max |x| and the standard deviation per column are numpy's
        # np.abs(x).max(axis=0) and x.std(axis=0), bit for bit, whatever the
        # column scales, with one column or many, in either memory order
        rng = np.random.default_rng(seed)
        m = len(exponents)
        X = np.ldexp(rng.normal(size=(n, m)) + rng.normal(size=m) * 4, exponents)
        X = np.asfortranarray(X) if fortran else X
        names = [f"c{i}" for i in range(m)]
        np.testing.assert_array_equal(
            standardize(DataMatrix(values=X, feature_names=names)).values.view(np.uint64),
            numpy_standardized(X).view(np.uint64),
        )

    @pytest.mark.parametrize("shape", [(100_000, 3), (144, 2000), (3200, 10), (5000, 1)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_workload_shapes_are_numpys_bit_for_bit(self, shape):
        X = np.random.default_rng(shape[1]).uniform(-3.0, 5.0, size=shape)
        names = [f"c{i}" for i in range(shape[1])]
        np.testing.assert_array_equal(
            standardize(DataMatrix(values=X, feature_names=names)).values.view(np.uint64),
            numpy_standardized(X).view(np.uint64),
        )

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_column_names_an_unsigned_magnitude(self, zero):
        dm = DataMatrix(values=np.array([[zero, 0.0], [zero, 1.0], [zero, 2.0]]),
                        feature_names=["zero", "ok"])
        with pytest.raises(ZeroVarianceError) as exc:
            standardize(dm)
        assert str(exc.value) == (
            "feature 'zero' has standard deviation 0.000e+00, "
            "within rounding of its largest magnitude 0.000e+00"
        )


class TestSortedClasses:
    @settings(max_examples=300)
    @given(
        st.lists(st.integers(-3, 3), max_size=40),
        st.sampled_from([np.int8, np.int64, np.uint16, np.float64]),
        st.sampled_from([(-1,), (2, -1)]),
    )
    def test_is_numpys_unique(self, values, dtype, shape):
        # labels of integer and float dtypes, empty arrays too; both flatten a
        # 2-D array
        labels = np.array(values[: len(values) // 2 * 2]).astype(dtype).reshape(shape)
        expected = np.unique(labels)
        got = sorted_classes(labels)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


class TestLoadSave:
    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "small.csv"
        path.write_text("a,b,label\n1.5,2.5,1\n3.5,4.5,2\n0.5,0.25,1\n")
        dm = load_matrix(path)
        assert dm.feature_names == ["a", "b"]
        np.testing.assert_array_equal(dm.labels, [1, 2, 1])
        np.testing.assert_array_equal(dm.values[0], [1.5, 2.5])

    def test_byte_order_mark_before_the_label_header(self, tmp_path):
        # the mark is not part of the first name, so 'label' is the label column
        path = tmp_path / "bom.csv"
        path.write_text("\ufefflabel,a,b\n1,1.5,2.5\n2,3.5,4.5\n1,0.5,0.25\n", encoding="utf-8")
        dm = load_matrix(path)
        assert dm.feature_names == ["a", "b"]
        np.testing.assert_array_equal(dm.labels, [1, 2, 1])
        np.testing.assert_array_equal(dm.values[1], [3.5, 4.5])

    def test_byte_order_mark_before_headerless_numbers(self, tmp_path):
        # the first cell still reads as a number: every row is data
        values = np.random.default_rng(0).uniform(size=(60, 3))
        path = tmp_path / "bom.csv"
        rows = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in values)
        path.write_text("\ufeff" + rows, encoding="utf-8")
        dm = load_matrix(path)
        assert dm.feature_names == ["f001", "f002", "f003"]
        np.testing.assert_array_equal(dm.values, values)

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
        "cell, problem",
        [("oops", "non-numeric"), ("", "missing")]
        + [(cell, "non-finite") for cell in ("inf", "-inf", "Infinity", "nan", "NaN")],
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

    def test_roundtrip_exact_50_rows(self, tmp_path):
        dm = balanced_matrix(n=50, m=7, seed=4)
        path = tmp_path / "rows.csv"
        save_matrix(dm, path)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.values, dm.values)
        np.testing.assert_array_equal(back.labels, dm.labels)
        assert back.feature_names == dm.feature_names

    def test_bad_cell_after_blank_lines_cites_line_and_column(self, tmp_path):
        lines = ["a,b,c", "1,2,3", "", "4,5,6", "  ", "7,8,9", "1,2,3", "", "\t",
                 "4,5,6", "7,8,9", "1,2,oops", "4,5,6"]
        path = tmp_path / "late.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MatrixParseError, match=r":12: non-numeric cell 'oops' in column 3$"):
            load_matrix(path)

    def test_hash_is_data_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("a,b\n1,2\n1,2#x\n")
        with pytest.raises(MatrixParseError, match=r":3: non-numeric cell '2#x' in column 2$"):
            load_matrix(path)

    def test_rows_narrower_than_the_header_are_ragged_at_the_first_data_line(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("a,b,c\n\n1,2\n3,4\n")
        with pytest.raises(MatrixParseError, match=r":3: ragged row with 2 cells, expected 3$"):
            load_matrix(path)

    def test_single_data_row_is_one_by_m(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,b,c\n1.5,2.5,3.5\n")
        dm = load_matrix(path)
        assert dm.values.shape == (1, 3)
        np.testing.assert_array_equal(dm.values, [[1.5, 2.5, 3.5]])
        path.write_text("7.25\n")  # headerless, one cell
        assert load_matrix(path).values.shape == (1, 1)

    def test_crlf_line_endings_load(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"a,b,label\r\n1.5,2.5,1\r\n\r\n3.5,4.5,2\r\n")
        dm = load_matrix(path)
        assert dm.feature_names == ["a", "b"]
        np.testing.assert_array_equal(dm.values, [[1.5, 2.5], [3.5, 4.5]])
        np.testing.assert_array_equal(dm.labels, [1, 2])

    def test_header_only_has_no_data_rows(self, tmp_path):
        # tier-1 turns warnings into errors, so numpy's empty-input UserWarning
        # would fail this test before the MatrixParseError
        path = tmp_path / "header.csv"
        path.write_text("a,b,label\n\n  \n")
        with pytest.raises(MatrixParseError, match=r"header\.csv: no data rows$"):
            load_matrix(path)

    def test_whitespace_lines_are_skipped_and_still_counted(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,b\n1,2\n \t \n\n3,4\n\t\n5,x\n")
        with pytest.raises(MatrixParseError, match=r":7: non-numeric cell 'x' in column 2$"):
            load_matrix(path)
        path.write_text("a,b\n1,2\n \t \n\n3,4\n\t\n")
        np.testing.assert_array_equal(load_matrix(path).values, [[1.0, 2.0], [3.0, 4.0]])

    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        rows = b"".join(b"%d,%d\n" % (i, i + 1) for i in range(3000))  # past one read buffer
        path.write_bytes(b"a,b\n" + rows + b"caf\xe9,2\n")
        with pytest.raises(MatrixParseError, match=r"latin1\.csv:3002: bytes that are not UTF-8$"):
            load_matrix(path)
        path.write_bytes(b"caf\xe9,b\n1,2\n")  # in the header
        with pytest.raises(MatrixParseError, match=r":1: bytes that are not UTF-8$"):
            load_matrix(path)

    def test_cells_numpy_does_not_parse_are_rejected(self, tmp_path):
        # Python's float() takes digit-group underscores and non-ASCII digits;
        # numpy's parser does not, and the error names the file line
        path = tmp_path / "cells.csv"
        for cell in ("1_0", "\u0661\u0662", "2.\u0665"):
            path.write_text(f"a,b\n1,2\n3,{cell}\n", encoding="utf-8")
            with pytest.raises(MatrixParseError,
                               match=rf"cells\.csv:3: non-numeric cell '{cell}' in column 2$"):
                load_matrix(path)
        path.write_text("1_0,2\n3,4\n")  # the same rules tell a header line apart
        assert load_matrix(path).feature_names == ["1_0", "2"]

    def test_label_column_alone_has_no_feature_columns(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\n1\n2\n2\n")
        with pytest.raises(MatrixParseError, match=r"labels\.csv: no feature columns$"):
            load_matrix(path)

    @pytest.mark.parametrize("labels, classes", [((1, 1, 1), 1), ((1, 2, 3), 3)],
                             ids=["one-class", "three-classes"])
    def test_label_column_without_two_classes_is_a_parse_error(self, tmp_path, labels, classes):
        path = tmp_path / "classes.csv"
        path.write_text("a,b,label\n" + "".join(f"{i},{i + 1},{c}\n"
                                                  for i, c in enumerate(labels)))
        message = rf"classes\.csv: the label column needs 2 classes, found {classes}$"
        with pytest.raises(MatrixParseError, match=message):
            load_matrix(path)

    @settings(max_examples=30)
    @given(
        shape=st.sampled_from([(12, 3), (4, 40), (2, 1), (9, 9)]),
        delimiter=st.sampled_from([",", "\t"]),
        labelled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_load_roundtrip_is_bit_exact(self, tmp_path_factory, shape, delimiter,
                                              labelled, seed):
        rng = np.random.default_rng(seed)
        n, m = shape
        # every binade from subnormal to huge, both signs, and exact zeros
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-310, 300, size=shape)
        values[rng.random(shape) < 0.1] = 0.0
        dm = DataMatrix(
            values=values,
            feature_names=[f"feat{j}" for j in range(m)],
            labels=np.arange(n) % 2 + 1 if labelled else None,
        )
        path = tmp_path_factory.mktemp("roundtrip") / "table.txt"
        save_matrix(dm, path, delimiter=delimiter)
        back = load_matrix(path)
        assert back.values.tobytes() == dm.values.tobytes()
        assert back.feature_names == dm.feature_names
        if labelled:
            np.testing.assert_array_equal(back.labels, dm.labels)
        else:
            assert back.labels is None

    def test_quoted_numeric_cells_load(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"a","b","label"\n"1.5",2.5,"1"\n3.5,"4.5",2\n')
        dm = load_matrix(path)
        assert dm.feature_names == ["a", "b"]
        np.testing.assert_array_equal(dm.values, [[1.5, 2.5], [3.5, 4.5]])
        np.testing.assert_array_equal(dm.labels, [1, 2])

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_names_with_delimiter_or_quote_roundtrip(self, tmp_path, delimiter):
        names = ["a,b", 'c"d', "e\tf"] if delimiter == "\t" else ["a,b", 'c"d', "e f"]
        dm = DataMatrix(
            values=[[0, 1, 2], [1, 0, 2], [2, 3, 2], [3, 2, 3]],
            feature_names=names,
            labels=[1, 2, 1, 2],
        )
        path = tmp_path / "names.txt"
        save_matrix(dm, path, delimiter=delimiter)
        back = load_matrix(path)
        assert back.feature_names == names
        np.testing.assert_array_equal(back.values, dm.values)
        np.testing.assert_array_equal(back.labels, dm.labels)

    @pytest.mark.parametrize(
        "name, delimiter",
        [("a\nb", ","), ("a\r\nb", "\t"), ("a\rb", ","), ("a\tb", ",")],
        ids=["newline", "crlf-tab-file", "carriage-return", "tab-in-comma-file"],
    )
    def test_names_that_cannot_roundtrip_rejected(self, tmp_path, name, delimiter):
        dm = DataMatrix(values=[[0, 1], [1, 0]], feature_names=[name, "g"], labels=[1, 2])
        path = tmp_path / "names.txt"
        with pytest.raises(ValueError, match="cannot be read back"):
            save_matrix(dm, path, delimiter=delimiter)
        assert not path.exists()

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

    def test_negative_seed_is_rejected(self):
        # numpy's default_rng raised its own ValueError only once a split was drawn
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            split(balanced_matrix(20), SplitSpec(0.5, seed=-1))

    def test_negative_repetition_is_rejected(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            split(balanced_matrix(20), SplitSpec(0.5), repetition=-1)

    @pytest.mark.parametrize("seed, repetition", [(0, 0), (3, 9), (2**33 + 1, 2)])
    def test_shuffles_are_numpys_default_rng(self, seed, repetition):
        # each class's indices, in class order, shuffled by default_rng([seed, repetition])
        data = generate_toy(800, seed=1)
        rng = np.random.default_rng([seed, repetition])
        train, test = [], []
        for cls in (1, 2):
            idx = rng.permutation(np.flatnonzero(data.labels == cls))
            n_train = int(np.floor(0.3 * idx.size + 0.5))
            train.append(idx[:n_train])
            test.append(idx[n_train:])
        got = split(data, SplitSpec(0.3, seed=seed), repetition=repetition)
        np.testing.assert_array_equal(got[0], np.sort(np.concatenate(train)))
        np.testing.assert_array_equal(got[1], np.sort(np.concatenate(test)))
