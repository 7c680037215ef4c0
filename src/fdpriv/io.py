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
its line.  Writer and reader hold one line of text, never the whole file.
"""

from __future__ import annotations

import os
import re
from itertools import chain, islice
from typing import Mapping

import numpy as np

from .kernels import Grid, _to_float_array, grid_from_points


class CsvFormatError(ValueError):
    """Malformed curve CSV; the message carries the offending line number."""


def format_float(x: float) -> str:
    """Shortest decimal string that parses back to exactly the same float."""
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
    """Write grid points and curve rows in the curve CSV dialect."""
    rows = np.atleast_2d(_to_float_array(rows, "rows"))
    if rows.shape[1] != grid.size:
        raise ValueError("curve rows do not match the grid size")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # repr of a Python float is format_float's string; tolist() gives Python floats
        for row in chain([grid.points], rows):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


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
