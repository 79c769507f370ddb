"""Synthetic data generation, delimited-text ingestion, standardization, splits.

``load_matrix`` reads a table of long decimal cells, such as the ``repr`` of
random doubles, with the vectorized reader of ``decimals``, and every other
table with one ``np.loadtxt`` call. Both give the same bits: numpy rounds
each cell to the nearest double, and so does the reader, which reads each
cell's digits and power of ten as integers, rounds their product once in
long-double precision, where both factors are exact, and hands the cells
whose double that does not settle to Python's correctly rounded ``float``.
The reader declines every table it cannot read so: one with a cell that is
not a plain decimal, a blank line, a carriage return or a ragged row, one
whose cells mostly hold at most 16 digits (numpy's parser reads those as
fast), and every table where the long double is not x87 extended precision.

Error messages come from a second pass that runs only when the parse fails
or its table is bad, and reads the file again row by row to name the line
and column. numpy's parser is stricter than Python's ``float``: it rejects
cells such as digit-group underscores ('1_0') that ``float`` would take, and
the header test and the second pass apply its rules too.
"""

from __future__ import annotations

import codecs
import csv
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import decimals, pcg64
from .errors import MatrixParseError, ZeroVarianceError

LABEL_COLUMN = "label"


def sorted_classes(labels):
    """The distinct values of the array ``labels``, in increasing order, from
    one sort: numpy's ``unique`` returns the same (but keeps one NaN where
    this keeps each) and takes ~20x as long on label arrays and imports
    ``numpy.ma``."""
    ordered = np.sort(labels, axis=None)
    return np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])


@dataclass
class DataMatrix:
    """Row-major sample-by-feature matrix with names and optional binary labels."""

    values: np.ndarray
    feature_names: list[str]
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] == 0:
            raise ValueError("values must be 2-D, with at least one feature column")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain non-finite entries")
        if len(self.feature_names) != self.values.shape[1]:
            raise ValueError("feature_names length does not match the columns")
        if self.labels is not None:
            given = np.asarray(self.labels)
            with np.errstate(invalid="ignore"):  # a NaN casts to garbage, rejected below
                self.labels = given.astype(int)
            if not np.array_equal(self.labels, given):
                raise ValueError("labels must be integers")
            if self.labels.shape != (self.values.shape[0],):
                raise ValueError("labels length does not match the rows")
            if sorted_classes(self.labels).size != 2:
                raise ValueError("labels must contain exactly two classes")

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_features(self):
        return self.values.shape[1]


@dataclass
class SplitSpec:
    """Stratified train/test split sizes and seeding."""

    train_fraction: float
    seed: int = 0
    repetitions: int = 10

    def __post_init__(self):
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train_fraction must be in (0, 1]")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# Geometry of the synthetic benchmark: two ribbon-shaped manifolds traced by a
# shared latent coordinate t, offset across the first two features, with a
# third feature following the ribbon curvature only. Class sizes are 1:5 so
# the default supervision value -0.2 matches the degree-sum ratio of the
# groups. Noise features are independent Uniform[0, 1].
_CLASS_FRACTION = 1 / 6
_CLASS_GAP = 0.8
_TANGENT_RANGE = 1.3
_JITTER_SCALE = 0.10
_N_NOISE = 7


def generate_toy(n_samples=800, seed=0) -> DataMatrix:
    """Synthetic benchmark: 3 structured features plus 7 uniform noise features.

    Features 1-2 carry the class offset on top of a shared curved-ribbon
    latent; feature 3 traces the ribbon only (no class offset), so a signed
    scaling factor can cancel the shared variation. Features 4-10 are
    independent Uniform[0, 1] noise. Labels are {1, 2} with sizes about 1:5.
    Deterministic for a fixed seed.
    """
    if n_samples % 2 != 0 or n_samples < 8:
        raise ValueError("n_samples must be even and at least 8")
    rng = np.random.default_rng(seed)
    n1 = int(round(n_samples * _CLASS_FRACTION))
    n2 = n_samples - n1
    cls = np.concatenate([np.full(n1, 0.5), np.full(n2, -0.5)])
    t = rng.uniform(-_TANGENT_RANGE, _TANGENT_RANGE, n_samples)
    jitter = rng.laplace(0.0, _JITTER_SCALE, (n_samples, 3))
    f1 = _CLASS_GAP * cls + 0.60 * t + jitter[:, 0]
    f2 = _CLASS_GAP * cls - 0.60 * t + 0.20 * (t**2 - _TANGENT_RANGE**2 / 3) + jitter[:, 1]
    f3 = 0.95 * t + 0.22 * np.cos(2.0 * t) + jitter[:, 2]
    noise = rng.uniform(0.0, 1.0, (n_samples, _N_NOISE))
    values = np.column_stack([f1, f2, f3, noise])
    labels = np.concatenate([np.ones(n1, dtype=int), np.full(n2, 2, dtype=int)])
    perm = rng.permutation(n_samples)
    names = [f"f{i:02d}" for i in range(1, values.shape[1] + 1)]
    return DataMatrix(values=values[perm], feature_names=names, labels=labels[perm])


# A column's standard deviation at or below this many eps times its largest
# magnitude is rounding noise: constant columns of 3 to 1e6 rows at magnitudes
# 1e-100 to 1e100 read up to 2.4.
_NOISE_SPREAD = 16.0


def standardize(data: DataMatrix) -> DataMatrix:
    """Center each feature to mean 0 and population variance 1.

    A feature whose standard deviation is within rounding of its largest
    magnitude, at most 16 eps max_i |x_ik|, raises ZeroVarianceError. The test
    does not depend on the feature's scale.

    Each feature is first divided by the power of two 2^e with max_i |x_ik| in
    [2^e, 2^(e+1)), so its variance neither overflows (magnitudes above ~1e154)
    nor underflows (below ~1e-154). Dividing by a power of two is exact, so
    where neither happens the result is, bit for bit, that of the unscaled data.
    The deviations take numpy ``std``'s steps, so its bits, on data centred in place.
    """
    magnitudes = np.maximum(np.abs(data.values.max(axis=0)), np.abs(data.values.min(axis=0)))
    scales = np.ldexp(1.0, np.frexp(magnitudes)[1] - 1)
    scaled = data.values / scales
    scaled -= scaled.mean(axis=0)
    stds = np.sqrt(np.square(scaled).sum(axis=0) / scaled.shape[0])
    low = stds <= _NOISE_SPREAD * np.finfo(float).eps * (magnitudes / scales)
    if np.any(low):
        idx = int(np.flatnonzero(low)[0])
        raise ZeroVarianceError(
            f"feature '{data.feature_names[idx]}' has standard deviation "
            f"{stds[idx] * scales[idx]:.3e}, "
            f"within rounding of its largest magnitude {magnitudes[idx]:.3e}"
        )
    scaled /= stds
    return DataMatrix(
        values=scaled,
        feature_names=list(data.feature_names),
        labels=None if data.labels is None else data.labels.copy(),
    )


def _sniff_delimiter(line):
    return "\t" if "\t" in line else ","


def _is_float(cell):
    """Whether numpy's reader parses ``cell``: after stripping whitespace it
    reads ASCII only, by Python's ``float`` rules without digit-group
    underscores."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _header(line, delimiter):
    """The stripped cells of ``line`` if it is a header, with a cell that is
    not a number, else None."""
    cells = next(csv.reader([line], delimiter=delimiter))
    return None if all(_is_float(c) for c in cells) else [c.strip() for c in cells]


def load_matrix(path) -> DataMatrix:
    """Read a delimited text table as a DataMatrix.

    A UTF-8 byte-order mark is skipped, and so are blank lines. The first
    other line sets the delimiter (a tab if it holds one, else a comma) and
    may be a header of feature names; a column named 'label' holds integer
    class labels, and a table with no other column is rejected. A table of
    plain decimal cells, most of them longer than 16 digits as a ``repr``
    writes them, goes through the decimal reader, which reads the bits
    numpy's parser would at about half its cost; every other table goes
    through one ``np.loadtxt`` call. Neither makes a Python string of each
    cell. When the parse fails, or the table is ragged against the header or
    holds a non-finite value, a second pass reads the file again row by row
    only to name the 1-based line and the column of the first problem.

    Cells that Python's ``float`` takes but numpy's parser does not, such as
    digit-group underscores ('1_0') or non-ASCII digits, are rejected.
    """
    try:
        header, table = _read_decimal(path) or _read_text(path)
    except ValueError as exc:  # numpy's parse error, or a byte that is not UTF-8
        raise _first_problem(path, str(exc)) from None
    if header is not None and table.shape[1] != len(header):
        raise _first_problem(path, f"{table.shape[1]} columns under {len(header)} names")
    if not np.all(np.isfinite(table)):
        raise _first_problem(path, "non-finite value")
    if header is not None and LABEL_COLUMN in header:
        if len(header) == 1:
            raise MatrixParseError(f"{path}: no feature columns")
        label_idx = header.index(LABEL_COLUMN)
        labels = table[:, label_idx].astype(int)
        if np.any(table[:, label_idx] != labels):
            raise MatrixParseError(f"{path}: label column holds non-integer values")
        classes = sorted_classes(labels).size
        if classes != 2:
            raise MatrixParseError(f"{path}: the label column needs 2 classes, found {classes}")
        values = np.delete(table, label_idx, axis=1)
        names = [h for i, h in enumerate(header) if i != label_idx]
    else:
        labels = None
        values = table
        names = header if header is not None else _default_names(values.shape[1])
    return DataMatrix(values=values, feature_names=names, labels=labels)


def _read_text(path):
    """``(header, table)``, the data lines parsed by one ``np.loadtxt`` call."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        lines = (line for line in handle if not line.isspace())
        first = next(lines, None)
        if first is None:
            raise MatrixParseError(f"{path}: empty file")
        delimiter = _sniff_delimiter(first)
        header = _header(first, delimiter)
        if header is not None:
            first = next(lines, None)
            if first is None:  # np.loadtxt would only warn
                raise MatrixParseError(f"{path}: no data rows")
        table = np.loadtxt(
            itertools.chain([first], lines),
            delimiter=delimiter,
            comments=None,
            quotechar='"',
            ndmin=2,
            dtype=float,
        )
    return header, table


def _read_decimal(path):
    """``(header, table)`` by the decimal reader, or None where it declines:
    also when the first line is blank or holds a carriage return, or the
    table does not suit the reader."""
    with open(path, "rb") as handle:
        first = handle.readline().removeprefix(codecs.BOM_UTF8)
        try:
            text = first.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if not text.strip() or "\r" in text:
            return None
        delimiter = _sniff_delimiter(text)
        sample = handle.read(decimals.SAMPLE_BYTES)
        if not decimals.suits(sample, delimiter):
            return None
        header = _header(text, delimiter)
        if header is None:
            sample = first + sample
        width = text.count(delimiter) + 1 if header is None else len(header)
        table = decimals.read_lines(handle, sample, delimiter, width)
    return None if table is None else (header, table)


def _first_problem(path, message) -> MatrixParseError:
    """The diagnostic pass: read ``path`` again line by line and return a
    MatrixParseError naming the line (and column) of the first line that is
    not UTF-8, ragged row or bad cell; with no such problem the error carries
    ``message``."""
    width = None
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            where = f"{path}:{lineno}"
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return MatrixParseError(f"{where}: bytes that are not UTF-8")
            if width is None:
                delimiter = _sniff_delimiter(line)
            cells = next(csv.reader([line], delimiter=delimiter))
            if width is None:
                width = len(cells)
                if not all(_is_float(c) for c in cells):
                    continue  # the header
            if len(cells) != width:
                return MatrixParseError(
                    f"{where}: ragged row with {len(cells)} cells, expected {width}"
                )
            for i, cell in enumerate(cells, start=1):
                cell = cell.strip()
                if cell == "":
                    return MatrixParseError(f"{where}: missing value in column {i}")
                if not _is_float(cell):
                    return MatrixParseError(f"{where}: non-numeric cell '{cell}' in column {i}")
                if not np.isfinite(float(cell)):
                    return MatrixParseError(f"{where}: non-finite value in column {i}")
    return MatrixParseError(f"{path}: {message}")


def _default_names(m):
    width = max(3, len(str(m)))
    return [f"f{i:0{width}d}" for i in range(1, m + 1)]


def save_matrix(data: DataMatrix, path, delimiter=","):
    """Write a DataMatrix as delimited text; floats use repr so a reload is exact.
    Names are quoted as ``load_matrix`` reads them; ValueError for one that it
    cannot read back: a line break, or a tab in a comma file (sniffed as tab)."""
    header = list(data.feature_names)
    for name in header:
        if "\n" in name or "\r" in name or (delimiter != "\t" and "\t" in name):
            raise ValueError(f"feature name {name!r} cannot be read back from the file")
    if data.labels is not None:
        header.append(LABEL_COLUMN)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, delimiter=delimiter, quotechar='"', lineterminator="\n").writerow(header)
        for i in range(data.n_samples):
            cells = [repr(float(x)) for x in data.values[i]]
            if data.labels is not None:
                cells.append(str(int(data.labels[i])))
            handle.write(delimiter.join(cells) + "\n")


def split(data: DataMatrix, spec: SplitSpec, repetition=0):
    """Stratified train/test indices, deterministic per (seed, repetition).

    Each class contributes round(train_fraction * class size) training samples
    (at least one), so both classes are always represented. Returned index
    arrays are sorted and disjoint, covering all samples. ``pcg64`` shuffles as
    numpy's ``default_rng([seed, repetition])`` does, fixed across numpy versions.
    """
    if data.labels is None:
        raise ValueError("split requires labeled data")
    rng = pcg64.Stream(spec.seed, repetition)
    train_parts, test_parts = [], []
    for cls in sorted_classes(data.labels):
        idx = np.flatnonzero(data.labels == cls)
        perm = rng.permutation(idx)
        n_train = min(len(idx), max(1, int(np.floor(spec.train_fraction * len(idx) + 0.5))))
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return train, test
