"""File formats: curve CSV, key=value metadata sidecars, long-format CSV.

Curve CSV contract: first row holds the grid points, each later row one
curve; comma separated, '.' decimal separator, LF line endings, no header.
Floats are written with shortest round-trip decimal formatting, so reading a
file back reproduces every value bit for bit.
"""

from __future__ import annotations

import os
from typing import Mapping

import numpy as np

from .kernels import Grid, grid_from_points


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
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != grid.size:
        raise ValueError("curve rows do not match the grid size")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # repr of a Python float is format_float's string; tolist() gives Python floats
        for row in [grid.points.tolist(), *rows.tolist()]:
            fh.write(",".join(map(repr, row)) + "\n")


def read_curves_csv(path) -> tuple[Grid, np.ndarray]:
    """Read a curve CSV; returns the grid and an (N, M) array of curve values.

    Grid weights are reconstructed from the points: uniform for equispaced
    grids, trapezoid otherwise.
    """
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                parsed = list(map(float, line.split(",")))
            except ValueError as exc:
                raise CsvFormatError(f"{path}: line {lineno}: {exc}") from exc
            if rows and len(parsed) != len(rows[0]):
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {len(rows[0])} values, "
                    f"got {len(parsed)}"
                )
            rows.append(parsed)
    if len(rows) < 2:
        raise CsvFormatError(f"{path}: need a grid row and at least one curve row")
    try:
        grid = grid_from_points(rows[0])
    except ValueError as exc:
        raise CsvFormatError(f"{path}: line 1: {exc}") from exc
    return grid, np.asarray(rows[1:], dtype=float)


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
