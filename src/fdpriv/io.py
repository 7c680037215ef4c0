"""File formats: curve CSV, key=value metadata sidecars, long-format CSV.

Curve CSV contract: first row holds the grid points, each later row one
curve; comma separated, '.' decimal separator, LF line endings, no header.
Floats are written with shortest round-trip decimal formatting, so reading a
file back reproduces every value bit for bit.

Curve CSVs are parsed by numpy's C reader (``np.loadtxt``), which converts
each field with ``PyOS_string_to_double``, the same correctly rounded
conversion as ``float()``.  Blank lines, CRLF line endings and spaces around
a field are accepted; unlike ``float()``, the reader refuses underscore digit
separators such as ``1_0``.  Fields that parse to a non-finite value (``nan``,
``inf``, ``-inf``, or a number past the float range), which the writer never
writes, are refused too with their line and field, and non-UTF-8 text with
its line.  The reader hands the parser one line at a time, never the whole
file.

The writer formats one bounded block of whole rows at a time (about 8k
values) and holds one block of text.  It finds each value's digits with
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) in
64-bit integer arithmetic over the whole block: the shortest decimal in the
value's rounding interval, the one nearest the value, even on a tie.  Those
are the digits ``repr(float)`` prints, laid out as it lays them out, so every
field equals ``format_float`` of its value.
"""

from __future__ import annotations

import functools
import os
import re
from itertools import chain, islice
from typing import Mapping

import numpy as np

from .kernels import Grid, _to_float_array, grid_from_points


class CsvFormatError(ValueError):
    """Malformed curve CSV; the message carries the offending line number."""


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to exactly the same float.

    This is the scalar rule, used for sidecars and messages; the curve CSV
    writer's block kernel writes the same string for every finite value.
    """
    return repr(float(x))


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_format_cell(v) for v in value)
    return str(value)


def write_curves_csv(path, grid: Grid, rows) -> None:
    """Write grid points and curve rows in the curve CSV dialect.

    The rows are read, never copied whole: a first pass refuses a block that
    is not finite or not in float range before the file is opened, and the
    second formats one block of whole rows at a time as contiguous floats.
    """
    rows = np.atleast_2d(np.asarray(rows))
    if rows.ndim != 2 or rows.shape[1] != grid.size:
        raise ValueError("curve rows do not match the grid size")
    step = max(1, _BLOCK_VALUES // grid.size)
    blocks = [slice(start, start + step) for start in range(0, len(rows), step)]
    for block in blocks:
        _to_float_array(rows[block], "rows")
    with open(path, "wb") as fh:
        fh.write(_csv_lines(grid.points[np.newaxis]))
        for block in blocks:
            fh.write(_csv_lines(np.ascontiguousarray(rows[block], dtype=float)))


_BLOCK_VALUES = 8192  # values the writer formats at once, in whole rows

# The kernel names the dtype of every uint64 operand: numpy 1.x promotes
# uint64 combined with a signed integer to float64.
_U = np.uint64
_LOW32, _LOW63 = _U(0xFFFFFFFF), _U((1 << 63) - 1)
_P10 = np.array([10**j for j in range(20)], dtype=np.uint64)  # 10^19 < 2^64


@functools.cache
def _tables():
    """Schubfach's powers of ten, digit-group text and byte masks, built on first use.

    For k in [-324, 292], g(k) = floor(10^-k 2^(125 - floor(-k log2 10))) + 1
    is a 126-bit integer, returned as its high and low 63 bits.  A floor of a
    floor divided by an integer is the floor, so shifts of 5^-k and of
    2^900 // 5^k give every g.  The text table holds one 4-byte word each for
    "dddd" of 0-9999, then ".ddd" of 0-999, then "d000" of 0-9; row j of the
    prefix table marks the first j of 44 bytes.
    """
    def shift(k):  # 10^-k 2^(125 - floor(-k log2 10)) = 5^-k 2^shift(k)
        return 125 - k - ((-k * 913124641741) >> 38)

    g = []
    power = 1  # 5^-k for k = 0, -1, ..., -324
    for k in range(0, -325, -1):
        g.append(power << shift(k) if shift(k) >= 0 else power >> -shift(k))
        power *= 5
    g.reverse()
    power = 1 << 900  # 2^900 // 5^k for k = 1, ..., 292
    for k in range(1, 293):
        power //= 5
        g.append(power >> (900 - shift(k)))
    words = np.frombuffer(b"".join((x + 1).to_bytes(16, "little") for x in g), "<u8")
    low, high = words[0::2].astype(np.uint64), words[1::2].astype(np.uint64)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.empty((10, 10, 10, 10, 4), np.uint8)  # text[a, b, c, d] = "abcd"
    text[..., 0], text[..., 1] = digit[:, None, None, None], digit[:, None, None]
    text[..., 2], text[..., 3] = digit[:, None], digit
    text = text.reshape(10000, 4)
    dotted = text[:1000].copy()
    dotted[:, 0] = ord(".")
    text = np.concatenate([text, dotted, text[::1000]]).view(np.uint32).ravel()
    prefix = (np.arange(44) < np.arange(45)[:, np.newaxis]).view(np.uint32)  # row j: j of 44 bytes
    return (high << _U(1)) | (low >> _U(63)), low & _LOW63, text, prefix


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the products a b, from 32-bit halves, for a < 2^63 and b < 2^59.

    The middle sum a_lo b_hi + a_hi b_lo + (a_lo b_lo >> 32) is then below
    2^59 + 2^63 + 2^32, so it fits 64 bits.
    """
    return a_hi * b_hi + ((a_lo * b_hi + a_hi * b_lo + ((a_lo * b_lo) >> _U(32))) >> _U(32))


def _round_to_odd(g1, g_halves, cp):
    """floor(g cp / 2^127) for g = g1 2^63 + g0, with its last bit set if that drops a remainder.

    ``g_halves`` holds the 32-bit halves of g0 and g1, both below 2^63; cp is
    below 2^59.  As in Schubfach, the remainder test looks at the bits of
    g1 cp + (g0 cp >> 64) only.
    """
    cp_lo, cp_hi = cp & _LOW32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mulhi(*g_halves[:2], cp_lo, cp_hi)
    high = _mulhi(*g_halves[2:], cp_lo, cp_hi) + (z >> _U(63))
    return high | (((z & _LOW63) + _LOW63) >> _U(63))


def _shortest_digits(bits):
    """Digits d and exponent k of each double's shortest round-trip decimal d 10^k.

    ``bits`` holds the doubles' IEEE bit patterns; the sign is ignored, and a
    zero gives d = 0.  Of the shortest decimals in the value's rounding
    interval, d 10^k is the one nearest the value, the even one on a tie:
    Schubfach's choice, and repr's.  10^k is the largest power of ten not
    above the interval's width, so the interval holds at most one multiple
    of 10^(k+1); if it holds one, that is the answer, else s 10^k or
    (s + 1) 10^k is, s the floor of the value over 10^k.  The ends and the
    value are scaled by 4 10^-k in ``vbl``, ``vbr`` and ``vb``.  d may end in
    zeros.
    """
    g1_table, g0_table = _tables()[:2]
    biased = (bits >> _U(52)) & _U(0x7FF)
    fraction = bits & _U((1 << 52) - 1)
    c = fraction | ((biased != _U(0)).astype(np.uint64) << _U(52))
    q = np.maximum(biased.astype(np.int64), 1) - 1075  # |v| = c 2^q
    irregular = (fraction == _U(0)) & (biased > _U(1))  # c = 2^52: half the gap below
    # k = floor(log10 of the interval's width, 2^q or 3/4 2^q), by fixed-point logarithms
    k = (q * 661971961083 - irregular.astype(np.int64) * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g1, g0 = g1_table[k + 324], g0_table[k + 324]
    g_halves = (g0 & _LOW32, g0 >> _U(32), g1 & _LOW32, g1 >> _U(32))
    cb = c << _U(2)  # 4c; the interval runs from 4c - 2 (4c - 1 if irregular) to 4c + 2
    # h is 1 to 4, so the products below take cp = (4c + 2) 2^h < 2^59
    vb = _round_to_odd(g1, g_halves, cb << h)
    vbl = _round_to_odd(g1, g_halves, (cb - _U(2) + irregular.astype(np.uint64)) << h)
    vbr = _round_to_odd(g1, g_halves, (cb + _U(2)) << h)
    odd = c & _U(1)  # an odd c's interval is open: narrow both ends by one
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    lower_in = vbl <= s << _U(2)
    upper_in = (s + _U(1)) << _U(2) <= vbr
    middle = (s << _U(2)) + _U(2)  # s + 1/2 in vb's units, a quarter
    nearer_upper = (vb > middle) | ((vb == middle) & ((s & _U(1)) == _U(1)))
    d = s + (upper_in & (~lower_in | nearer_upper)).astype(np.uint64)
    s10 = s // _U(10) * _U(10)  # the multiples of 10^(k+1) on either side
    lower10_in = vbl <= s10 << _U(2)
    upper10_in = (s10 + _U(10)) << _U(2) <= vbr
    ten = ((s >= _U(10)) & (lower10_in != upper10_in)).astype(np.uint64)
    d += ten * (s10 + upper10_in.astype(np.uint64) * _U(10) - d)
    return d * ((bits << _U(1)) != _U(0)).astype(np.uint64), k


def _digit_words(left, lead):
    """Words 1-10 of each value's 44-byte layout: 16 integer digits, the point, 20 fraction digits.

    ``left`` holds each value's digits as a 17-digit integer, and ``lead`` how
    many of them come before the point (-z: z zeros come after it).  Word 0,
    left for the sign, is not written.
    """
    text = _tables()[2]
    scale = _P10[17 - np.maximum(lead, 0)]
    integer = left // scale
    fraction = left - integer * scale  # the digits after the point, as 20:
    scale = _P10[np.maximum(13 - lead, 0)]
    head = fraction // scale
    tail = (fraction - head * scale) * _P10[3 + lead]  # the last 16,
    head *= _P10[np.maximum(lead - 13, 0)]  # the first 4: "abcd" is laid out as ".abc", "d"
    middle = (head - head // _U(10) * _U(10)) * _P10[15] + tail // _U(10)
    words = np.empty((left.size, 11), np.uint32)
    words[:, 5] = text[10000 + (head // _U(10)).astype(np.intp)]
    words[:, 10] = text[11000 + (tail - tail // _U(10) * _U(10)).astype(np.intp)]
    for column, number in ((1, integer), (6, middle)):
        number = number.astype(np.intp)
        high = number // 10**8
        for half in (high, number - high * 10**8):
            quarter = half // 10**4
            words[:, column] = text[quarter]
            words[:, column + 1] = text[half - quarter * 10**4]
            column += 2
    return words


def _csv_lines(block) -> bytes:
    """Curve CSV lines of a 2-D array of finite floats: ``format_float`` of each value, joined.

    Each value is laid out in 44 bytes from the digit-group table: a spare
    word for the sign, 16 integer digits right-aligned to the point, the
    point and 20 fraction digits, then room for an exponent and the
    separator.  The bytes from each value's first to its last character are
    then kept, in order.
    """
    bits = block.reshape(-1).view(np.uint64)
    d, k = _shortest_digits(bits)
    ndigits = np.where(d >= _P10[16], 17, 16)  # a normal value's d has 16 or 17 digits
    short = np.flatnonzero(d < _P10[15])  # a subnormal's may have fewer; a zero's d is 0
    ndigits[short] = np.searchsorted(_P10, d[short], side="right")
    point = np.where(d == _U(0), 1, ndigits + k)  # |v| = 0.<digits> 10^point, repr's decpt
    fixed = (point > -4) & (point <= 16)  # repr's rule; else d.ddde+XX
    lead = np.where(fixed, point, 1)  # digits before the point; -z: z zeros after it
    line = _digit_words(d * _P10[17 - ndigits], lead).view(np.uint8)
    zeros = np.flatnonzero((d == d // _U(10) * _U(10)) & (d != _U(0)))
    stripped, trailing = d[zeros], 0
    for p in (16, 8, 4, 2, 1):  # count trailing zeros, 16 at most
        shorter = stripped // _P10[p]
        drop = shorter * _P10[p] == stripped
        stripped = np.where(drop, shorter, stripped)
        trailing = np.where(drop, trailing + p, trailing)
    ndigits[zeros] -= trailing
    after = np.maximum(ndigits - lead, fixed)  # digits after the point; none in 1e+16
    start = 19 - np.maximum(lead, 1)  # the sign's place, kept if negative
    end = np.where(after > 0, 21 + after, 20)  # where the exponent or separator goes
    flat = line.reshape(-1)
    at = np.arange(0, flat.size, 44)
    flat[at + start] = ord("-")
    start += 1 - (bits >> _U(63)).astype(np.intp)
    text, prefix = _tables()[2:]
    scientific = np.flatnonzero(~fixed)
    if scientific.size:  # "e-05", "e+16", "e-324": "0005" from the e, or "0324" one past it,
        power = point[scientific] - 1  # then "e" and the sign over its first two bytes
        three = (np.abs(power) >= 100).astype(np.intp)
        e = at[scientific] + end[scientific]
        digits = text[np.abs(power)].view(np.uint8).reshape(-1, 4)
        flat[(e + three)[:, np.newaxis] + np.arange(4)] = digits
        flat[e], flat[e + 1] = ord("e"), np.where(power < 0, ord("-"), ord("+"))
        end[scientific] += 4 + three
    separators = np.full(block.shape, ord(","), np.uint8)
    separators[:, -1] = ord("\n")
    flat[at + end] = separators.reshape(-1)
    keep = np.take(prefix, end + 1, axis=0)  # the bytes before end + 1, less those before start
    keep ^= np.take(prefix, start, axis=0)
    return line[keep.view(bool)].tobytes()


def read_curves_csv(path) -> tuple[Grid, np.ndarray]:
    """Read a curve CSV; returns the grid and an (N, M) array of curve values.

    Grid weights are reconstructed from the points: uniform for equispaced
    grids, trapezoid otherwise.
    """
    at = [0, ""]  # number and text of the line the parser was last handed

    def fed(lines):
        for at[0], at[1] in lines:
            yield at[1]

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _numbered_lines(fh)
            head = list(islice(lines, 2))  # the grid row, and what tells a curve row is there
            if len(head) == 2:  # else the refusal below; np.loadtxt warns on an empty input
                rows = np.loadtxt(fed(chain(head, lines)), delimiter=",", comments=None, ndmin=2)
    except UnicodeDecodeError as exc:  # a ValueError, raised by whichever read meets the byte
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:  # bytes to U+DCxx
            escaped = (n for n, text in _numbered_lines(fh) if re.search("[\udc80-\udcff]", text))
            raise CsvFormatError(f"{path}: line {next(escaped)}: not UTF-8 text") from exc
    except ValueError as exc:
        fields, expected = at[1].split(","), head[0][1].count(",") + 1
        if len(fields) != expected:
            reason = f"expected {expected} values, got {len(fields)}"
        else:
            index, field = next((k, f) for k, f in enumerate(fields, start=1) if not _parses(f))
            reason = f"field {index} is not a number: {field.strip()!r}"
        raise CsvFormatError(f"{path}: line {at[0]}: {reason}") from exc
    if len(head) < 2:
        raise CsvFormatError(f"{path}: need a grid row and at least one curve row")
    if not np.isfinite(rows).all():
        row, col = np.argwhere(~np.isfinite(rows))[0]  # row-major: the first in file order
        with open(path, "r", encoding="utf-8") as fh:
            number, text = next(islice(_numbered_lines(fh), row, None))
        raise CsvFormatError(f"{path}: line {number}: field {col + 1} is not finite: "
                             f"{text.split(',')[col].strip()!r}")
    try:
        grid = grid_from_points(rows[0])
    except ValueError as exc:
        raise CsvFormatError(f"{path}: line {head[0][0]}: {exc}") from exc
    return grid, rows[1:]


def _numbered_lines(fh):
    """Number and text of each non-blank line of an open text file, read as needed."""
    return ((n, text) for n, text in enumerate(fh, start=1) if text.strip())


def _parses(field: str) -> bool:
    """Whether numpy's reader converts one field of a curve CSV line to a number."""
    try:  # a blank field is not tried: np.loadtxt would skip it as a blank line, and warn
        return bool(field.strip()) and np.loadtxt([field], delimiter=",", comments=None).size == 1
    except ValueError:
        return False


def meta_path(output_path) -> str:
    """Sidecar path for an output file."""
    return os.fspath(output_path) + ".meta"


def write_meta(path, entries: Mapping) -> None:
    """Write a flat key=value file, one pair per line, keys sorted; lists comma separated."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(str(k) for k in entries):
            fh.write(f"{key}={_format_cell(entries[key])}\n")


def read_meta(path) -> dict[str, str]:
    """Read a key=value file back into a dict of strings."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            key, _, value = line.partition("=")
            entries[key] = value
    return entries


def write_long_csv(path, header: list[str], rows) -> None:
    """Write a long-format CSV with a header row (sweep and projections output)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")
