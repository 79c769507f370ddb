"""The decimal reader agrees with numpy's text parser bit for bit.

Each test sets the reader's result against ``np.loadtxt`` or against
``load_matrix`` with the reader switched off, the path every table took
before the reader existed: either both read the same bits, or the reader
declines and ``load_matrix`` raises the same MatrixParseError.
"""

import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specscale import data, decimals, load_matrix
from specscale.errors import MatrixParseError

pytestmark = pytest.mark.skipif(not decimals._X87, reason="the reader needs x87 long doubles")

FORMATS = {
    "repr": lambda x: repr(float(x)),
    "%.17g": lambda x: "%.17g" % x,
    "%.18e": lambda x: "%.18e" % x,
    "%.15g": lambda x: "%.15g" % x,
    "%.4f": lambda x: "%.4f" % x,
}
PLAIN_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# 19 digits, more than the 16 that most cells of a table the reader takes hold
LONG = "0.123456789012345678"

doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 9007199254740993.0]),
)


def read(path, delimiter, width):
    """The reader's table of a headerless file, taken whatever its cells'
    length, or None."""
    with open(path, "rb") as handle:
        return decimals.read_lines(handle, b"", delimiter, width)


def loadtxt(path, delimiter):
    return np.loadtxt(path, delimiter=delimiter, comments=None, quotechar='"', ndmin=2,
                      dtype=float)


def without_reader(path):
    """``load_matrix`` with every table parsed by ``np.loadtxt``."""
    with mock.patch.object(data, "_read_decimal", return_value=None):
        return load_matrix(path)


def outcome(load, path):
    try:
        return load(path).values.tobytes()
    except MatrixParseError as exc:
        return str(exc)


def write(path, rows, delimiter):
    path.write_text("".join(delimiter.join(row) + "\n" for row in rows), encoding="utf-8")


@settings(max_examples=60)
@given(
    values=st.lists(doubles, min_size=1, max_size=60),
    fmt=st.sampled_from(sorted(FORMATS)),
    delimiter=st.sampled_from([",", "\t"]),
    width=st.integers(1, 5),
)
def test_doubles_in_every_format_read_as_numpy_reads_them(tmp_path_factory, values, fmt,
                                                          delimiter, width):
    values = (values * width)[: len(values) * width]
    path = tmp_path_factory.mktemp("formats") / "table.txt"
    cells = [FORMATS[fmt](x) for x in values]
    write(path, [cells[i:i + width] for i in range(0, len(cells), width)], delimiter)
    got = read(path, delimiter, width)
    assert got is not None
    assert got.tobytes() == loadtxt(path, delimiter).tobytes()


def exact_decimal(value):
    """The finite decimal expansion of a dyadic Fraction."""
    digits = 0
    while (value * 10**digits).denominator != 1:
        digits += 1
    scaled = str(abs(value.numerator * 10**digits // value.denominator)).rjust(digits + 1, "0")
    text = scaled[: len(scaled) - digits] + ("." + scaled[len(scaled) - digits:] if digits else "")
    return ("-" if value < 0 else "") + text


def around(value, n):
    """The two cells of n significant digits just below and above ``value``,
    as D e-s."""
    s = 0
    while value * Fraction(10) ** s < 10 ** (n - 1):
        s += 1
    while value * Fraction(10) ** s >= 10**n:
        s -= 1
    below = int(value * Fraction(10) ** s)
    return [f"{below}e{-s}", f"{below + 1}e{-s}"]


def test_midpoints_and_cells_next_to_them_read_as_numpy_reads_them(tmp_path):
    # (2^53 + 2j + 1) / 2^i lies halfway between two doubles. The long double
    # holds it exactly while it has at most 64 bits, and it rounds a cell of
    # 17 to 19 digits just beside it onto it about as often as not: those
    # are the cells whose double the rounding does not settle
    cells = []
    for j in (0, 1, 12345, 2**51 - 1):
        for i in range(-10, 80):
            mid = Fraction(2**53 + 2 * j + 1) / Fraction(2) ** i
            cells += [exact_decimal(mid), exact_decimal(-mid)]
            cells += [cell for n in (17, 18, 19) for cell in around(mid, n)]
    path = tmp_path / "midpoints.csv"
    write(path, [[cell] for cell in cells], ",")
    got = read(path, ",", 1)
    assert got is not None
    assert got.tobytes() == loadtxt(path, ",").tobytes()
    assert got[cells.index("9007199254740993"), 0] == 2.0**53  # a tie goes to the even one


def test_every_power_of_ten_reads_as_numpy_reads_it(tmp_path):
    # random mantissas of up to 19 digits at each power of ten the long double
    # takes exactly, and a few past them
    rng = np.random.default_rng(0)
    cells = [f"{m}e{k}" for k in range(-decimals._MAX_POWER - 3, decimals._MAX_POWER + 4)
             for m in rng.integers(1, 10**19, 300, dtype=np.uint64)]
    path = tmp_path / "powers.csv"
    write(path, [[cell] for cell in cells], ",")
    got = read(path, ",", 1)
    assert got is not None
    assert got.tobytes() == loadtxt(path, ",").tobytes()


@pytest.fixture
def redone(monkeypatch):
    """The number of cells each call of ``decimals._nearest`` sends to float()."""
    sizes, original = [], decimals._nearest

    def nearest(*args):
        values, redo = original(*args)
        sizes.append(redo.size)
        return values, redo

    monkeypatch.setattr(decimals, "_nearest", nearest)
    return sizes


def mantissas(rows):
    return [int(cell.lstrip("-").replace(".", "").partition("e")[0])
            for row in rows for cell in row]


def test_mantissas_past_int64_read_vectorized(tmp_path, redone):
    # %.18e writes 19 digits, and a mantissa at or above 9.223372036854775808
    # (2^63) passes int64: 4.6% of a standard normal table's cells. Read as
    # uint64 with the sign taken from the bytes, they and -0.0 need no float()
    rng = np.random.default_rng(0)
    big = rng.uniform(9.2233720368547759, 10.0, 600) * 10.0 ** rng.integers(-9, 10, 600)
    values = np.concatenate([big, -big, [0.0, -0.0], rng.standard_normal(598)])
    rows = [["%.18e" % x for x in row] for row in rng.permutation(values).reshape(-1, 20)]
    path = tmp_path / "long.csv"
    write(path, [*rows, ["-0.000000000000000000e+00"] * 20], ",")
    got = read(path, ",", 20)
    assert got is not None
    assert got.tobytes() == loadtxt(path, ",").tobytes()
    assert np.signbit(got[-1]).all()
    digits = mantissas(rows)
    assert sum(d >= 2**63 for d in digits) >= 1200
    assert sum(redone) <= len(digits) // 100  # the midpoints alone (~1 in 2048)


def test_savetxt_table_takes_no_float(tmp_path, redone):
    # np.savetxt's default %.18e: 450 of this table's 10,000 mantissas lie in
    # [2^63, 2^64), and none of its cells is a midpoint
    path = tmp_path / "normal.csv"
    np.savetxt(path, np.random.default_rng(0).standard_normal((200, 50)), delimiter=",")
    got = read(path, ",", 50)
    assert got is not None
    assert got.tobytes() == loadtxt(path, ",").tobytes()
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert sum(d >= 2**63 for d in mantissas(rows)) == 450
    assert sum(redone) == 0


@pytest.mark.parametrize("cell", [
    "-0", "-0.0e5", "+0e-999", "0e999", "1e-9223372036854775808", "1e9223372036854775807",
    "1e-9223372036854775809", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "1.e5", ".5", "-.5e-3", "+1", "1e+05",
    "00000000000000000000001.5", "1" + "0" * 400, "0." + "0" * 400 + "1", "2.5e-324",
    "2.4703282292062328e-324", "1.7976931348623158e308", "4.9e-324", "123456789012345678901e-3",
])
def test_edge_cells_read_as_numpy_reads_them(tmp_path, cell):
    path = tmp_path / "edge.csv"
    write(path, [[cell, LONG]] * 3, ",")
    got = read(path, ",", 2)
    assert got is not None
    assert got.tobytes() == loadtxt(path, ",").tobytes()


@settings(max_examples=200)
@given(
    cell=st.text(alphabet="0123456789.eE+-", max_size=9),
    position=st.integers(0, 6),
    delimiter=st.sampled_from([",", "\t"]),
)
@example(cell="", position=0, delimiter=",")
@example(cell="1e5e5", position=3, delimiter=",")
@example(cell=".-5", position=6, delimiter="\t")
@example(cell="5e-.3", position=1, delimiter=",")
@example(cell="-", position=2, delimiter=",")
@example(cell="+-5", position=0, delimiter=",")
@example(cell="--1.5", position=4, delimiter="\t")
def test_any_cell_agrees_with_the_loadtxt_path(tmp_path_factory, cell, position, delimiter):
    # six long cells of seven make the table one the reader takes, unless the
    # cell makes it decline
    row = [LONG] * 6
    row.insert(position, cell)
    path = tmp_path_factory.mktemp("cells") / "table.txt"
    write(path, [[f"g{j}" for j in range(7)], row, [LONG] * 7, row], delimiter)
    assert outcome(load_matrix, path) == outcome(without_reader, path)
    reader = data._read_decimal(path)
    assert (reader is not None) == bool(PLAIN_DECIMAL.fullmatch(cell))


@pytest.mark.parametrize("fmt, reads", [("repr", True), ("%.17g", True), ("%.18e", True),
                                        ("%.15g", False), ("%.4f", False)])
def test_the_reader_takes_long_cells_only(tmp_path, fmt, reads):
    rng = np.random.default_rng(0)
    rows = [[FORMATS[fmt](x) for x in row] for row in rng.standard_normal((40, 30))]
    path = tmp_path / "table.csv"
    write(path, [[f"g{j}" for j in range(30)], *rows], ",")
    assert (data._read_decimal(path) is not None) == reads
    assert load_matrix(path).values.tobytes() == without_reader(path).values.tobytes()


@pytest.mark.parametrize(
    "text",
    [
        b"a,b\r\n0.123456789012345678,0.123456789012345678\r\n",  # CRLF
        b"\na,b\n0.123456789012345678,0.123456789012345678\n",  # a blank first line
        b"a,b\n0.123456789012345678,0.123456789012345678\n\n",  # a trailing blank line
        b'a,b\n"0.123456789012345678",0.123456789012345678\n',  # a quoted cell
        b"a,b\n 0.123456789012345678,0.123456789012345678\n",  # a space
        b"a,b,c\n0.123456789012345678,0.123456789012345678\n",  # a ragged row
    ],
    ids=["crlf", "blank-first-line", "trailing-blank-line", "quote", "space", "ragged"],
)
def test_the_reader_declines_what_it_does_not_parse(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    assert data._read_decimal(path) is None
    assert outcome(load_matrix, path) == outcome(without_reader, path)


def test_a_table_longer_than_its_first_line_suggests_grows(tmp_path):
    # the table is sized from the first line, so shorter lines after it are
    # more rows than that guess
    rng = np.random.default_rng(1)
    short = ["%.17g" % x for x in rng.standard_normal(4)]
    rows = [["1.2345678901234567e-300"] * 4] + [short] * 20000
    path = tmp_path / "tall.csv"
    write(path, rows, ",")
    got = read(path, ",", 4)
    assert got is not None and got.shape == (20001, 4)
    assert got.tobytes() == loadtxt(path, ",").tobytes()
