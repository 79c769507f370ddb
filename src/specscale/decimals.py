"""Exact vectorized reading of delimited tables of plain decimal cells.

numpy's text parser rounds every cell to the nearest double through
``strtod``. A cell of at most 15 significant digits takes strtod's fast path,
but a longer one, such as the 17 of a ``repr``, does not (Clinger, PLDI 1990)
and costs ~250-450 ns. This reader gets the same bits at ~150 ns a cell. It
reads the digits of each cell as one uint64 M and its power of ten k with
integer parses, takes the signs from the byte classes, rounds M * 10^k once in
the x87 long double, where both factors are exact, and hands the few cells
whose double that does not settle to Python's ``float``, which rounds
correctly too (see ``_nearest``).

A table it cannot read that way is declined, and the caller parses it as it
would without the reader: a table most of whose first cells hold at most 16
digits (numpy reads those as fast), one with a cell that is not
[+-]d*[.d*][(e|E)[+-]d+] with a mantissa digit, a blank line, a line of
another cell count, or any other byte (a space, a quote, a carriage return),
and every table on a platform whose long double is not the x87 80-bit format.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

# The reader works on blocks of whole lines of about 64 KB, and decides
# whether to read a table from the cells in its first 16 KB of data.
_BLOCK_BYTES = 1 << 16
SAMPLE_BYTES = 1 << 14
_MIN_DIGITS = 16

# It sorts the bytes of a line into these classes and looks at the non-digit
# ones alone, about 2.5 a cell.
_DIGIT, _DELIMITER, _NEWLINE, _EXPONENT, _SIGN, _POINT, _OTHER = range(7)
_CLASSES = 7


def _byte_classes(delimiter):
    kinds = {ord(c): kind for chars, kind in (("0123456789", _DIGIT), (delimiter, _DELIMITER),
                                              ("\n", _NEWLINE), ("eE", _EXPONENT), ("+-", _SIGN),
                                              (".", _POINT)) for c in chars}
    return np.array([kinds.get(b, _OTHER) for b in range(256)], np.int16)


def _follows(before, prev, prev_digits, cur, digits):
    """Whether a non-digit byte of class ``cur``, after digits or not
    (``digits``), may come next to class ``prev``, itself after digits or not
    (``prev_digits``) and after class ``before``, in lines of cells
    [+-]d*[.d*][(e|E)[+-]d+] with at least one mantissa digit."""
    ends = (_DELIMITER, _NEWLINE)
    if prev in ends or (prev == _SIGN and before in ends):  # a mantissa's integer part
        return ((cur == _SIGN and prev in ends and not digits) or cur == _POINT
                or (cur in (*ends, _EXPONENT) and digits))
    if prev == _POINT:
        return cur in (*ends, _EXPONENT) and (digits or prev_digits)
    if prev == _EXPONENT:
        return (cur == _SIGN and not digits) or (cur in ends and digits)
    return prev == _SIGN and before == _EXPONENT and cur in ends and digits


# _GRAMMAR[(before * 2 C + 2 prev + prev_digits) * 2 C + 2 cur + digits], C classes
_GRAMMAR = np.array([
    _follows(*key)
    for key in itertools.product(range(_CLASSES), range(_CLASSES), (False, True),
                                 range(_CLASSES), (False, True))
])
_BYTE_CLASS = {d: _byte_classes(d) for d in (",", "\t")}
# the delimiter, line end and exponent letter end an integer (the point and
# the signs are deleted)
_TO_INTEGERS = {d: bytes.maketrans(d.encode() + b"\neE", b",,,,") for d in (",", "\t")}
# 10^27 = 5^27 2^27 with 5^27 < 2^63, so 10^0 .. 10^27 are exact in a 64-bit
# significand, as is every uint64 mantissa
_MAX_POWER = 27
# 10^0 .. 10^27, then their negatives for a cell after a minus sign
_SCALES = np.array([sign * 10**i for sign in (1, -1) for i in range(_MAX_POWER + 1)],
                   dtype=np.longdouble)
# x87 extended precision, stored in 16 bytes with the 64-bit significand first
_X87 = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_TIE_BYTE = np.arange(256) % 8 == 4  # a significand's second byte, in a tie
_UINT64_MAX = np.iinfo(np.uint64).max  # where numpy's int parse saturates
# exponents are clipped here, far outside the exact range, before they are signed
_EXPONENT_CAP = 1 << 32


def suits(sample, delimiter):
    """Whether to read a table whose data start with ``sample``: the long
    double is x87, and most of the sample's cells hold more than 16 digits."""
    raw = np.frombuffer(sample, np.uint8)
    digits = np.cumsum((raw >= ord("0")) & (raw <= ord("9")))
    cells = np.diff(digits[(raw == ord(delimiter)) | (raw == ord("\n"))], prepend=0)
    return _X87 and 2 * np.count_nonzero(cells > _MIN_DIGITS) > cells.size


def read_lines(handle, start, delimiter, width):
    """The float64 table of the data lines, each of ``width`` cells: the
    bytes ``start`` and the rest of the binary file ``handle``; None where
    the reader declines."""
    block = start + handle.read(_BLOCK_BYTES) + handle.readline()
    # sized by the first line (of at least 2 bytes a cell); a short guess grows
    line = max(block.find(b"\n") + 1, 2 * width)
    table = np.empty((os.fstat(handle.fileno()).st_size // line + 1, width))
    rows = 0
    while block:
        values = _block_values(block, delimiter, width)
        if values is None:
            return None
        if rows + len(values) > len(table):  # at least doubled
            table = np.concatenate([table[:rows], np.empty((max(rows, len(values)), width))])
        table[rows:rows + len(values)] = values
        rows += len(values)
        block = handle.read(_BLOCK_BYTES) + handle.readline()
    return table[:rows]


def _block_values(block, delimiter, width):
    """The cells of ``block`` as a float64 array with one row a line; None if
    a cell or a line breaks the rules, or a line holds other than ``width``
    cells."""
    if not block.endswith(b"\n"):
        block += b"\n"  # the file's last line
    raw = np.frombuffer(block, np.uint8)
    nondigit = raw < ord("0")
    nondigit |= raw > ord("9")
    at = np.flatnonzero(nondigit)
    kinds = _BYTE_CLASS[delimiter].take(raw.take(at))
    if not _well_formed(at, kinds):
        return None
    ends = np.flatnonzero(kinds <= _NEWLINE)
    if not np.array_equal(np.flatnonzero(kinds.take(ends) == _NEWLINE),
                          np.arange(width - 1, ends.size, width)):
        return None
    values, redo = _nearest(*_digits_and_powers(block, delimiter, at, kinds))
    if redo.size:
        stop = at.take(ends.take(redo))
        start = np.where(redo > 0, at.take(ends.take(redo - 1)) + 1, 0)
        values[redo] = [float(block[i:j]) for i, j in zip(start.tolist(), stop.tolist())]
    return values.reshape(-1, width)


def _well_formed(at, kinds):
    """Whether the non-digit bytes at offsets ``at``, of classes ``kinds``,
    make lines of valid cells. Each byte's rule looks at the two bytes before
    it and at whether digits came between; a line ends just before the first."""
    code = 2 * kinds + (np.diff(at, prepend=-1) > 1)
    before = np.concatenate(([_NEWLINE] * 2, kinds[:-2]))
    prev = np.concatenate(([2 * _NEWLINE], code[:-1]))
    return bool(_GRAMMAR[(before * 2 * _CLASSES + prev) * 2 * _CLASSES + code].all())


def _digits_and_powers(block, delimiter, at, kinds):
    """Each cell's digits M, read as one uint64 without the point and sign,
    its power of ten k, its exponent less its number of digits after the
    point, and whether it has a minus sign."""
    ints = np.fromstring(block.translate(_TO_INTEGERS[delimiter], b".+-"), np.uint64, sep=",")
    # an integer ends at each delimiter, line end and exponent letter; the one
    # after a letter is an exponent, every other one a cell's digits. A sign
    # comes right after such an end, so an integer's is the first non-digit
    # byte after the end of the one before it.
    stops = np.flatnonzero(kinds <= _EXPONENT)
    signs = at.take(np.concatenate(([0], stops[:-1] + 1)))
    minus = np.frombuffer(block, np.uint8).take(signs) == ord("-")
    mantissa = np.ones(stops.size, bool)
    mantissa[1:] = kinds.take(stops[:-1]) != _EXPONENT
    stops = stops[mantissa]
    before = stops - 1  # the point if the cell has one (cell 0: the last line end)
    powers = np.where(kinds.take(before) == _POINT, at.take(before) + 1 - at.take(stops), 0)
    exponents = np.minimum(ints[~mantissa], _EXPONENT_CAP).astype(np.int64)
    powers[kinds.take(stops) == _EXPONENT] += np.where(minus[~mantissa], -exponents, exponents)
    return ints[mantissa], powers, minus[mantissa]


def _nearest(digits, powers, minus):
    """The doubles nearest digits * 10^powers, negated where ``minus``,
    and the cells whose double this does not settle.

    For |k| <= 27 both M and 10^|k| are exact in the 64-bit significand, so
    one long-double product or quotient rounds M * 10^k once, to a value
    between 1e-27 and 1e47, well inside the normal doubles. Rounding that to
    the double's 53 bits drops 11 more and gives the double nearest the cell,
    unless the 11 bits are exactly a half: then the cell may lie on either
    side of that midpoint. Those cells, and the ones with |k| > 27 or with M
    past the uint64 range, are left to redo. Rounding to nearest is symmetric,
    so a minus sign negates the scale 10^|k|, and M = 0 gives -0.0 after one.
    """
    exact = (powers >= -_MAX_POWER) & (powers <= _MAX_POWER)
    powers[~exact] = 0
    rounded = digits.astype(np.longdouble)
    negative = powers < 0
    index = np.where(negative, -powers, powers)
    index += minus * (_MAX_POWER + 1)  # the negated half of the table
    scale = _SCALES.take(index)
    np.divide(rounded, scale, out=rounded, where=negative)
    np.multiply(rounded, scale, out=rounded, where=~negative)
    # the significand's low 11 bits are a half, 0x400, when its first byte is
    # 0 and its second 4 mod 8 (by bytes: no other step loads a bitwise loop)
    low = rounded.view(np.uint8).reshape(-1, rounded.itemsize)
    tie = (low[:, 0] == 0) & _TIE_BYTE.take(low[:, 1])
    redo = tie | ~exact | (digits == _UINT64_MAX)
    return rounded.astype(float), np.flatnonzero(redo)
