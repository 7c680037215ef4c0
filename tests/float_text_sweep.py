"""Check the curve CSV writer's text against ``format_float`` on many doubles.

    python tests/float_text_sweep.py

Writes curve CSVs of ten million random finite 64-bit patterns, and of 1000
random mantissas plus 0, 1 and 2^52 - 1 at every biased exponent in both signs,
together with the families of ``oracles.float_text_cases``, one million
values at a time, and compares each file's bytes with ``format_float`` of
every value joined.  Prints the count checked; exits 1 naming the first
value whose text differs.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from fdpriv import uniform_grid
from fdpriv.io import format_float, write_curves_csv
from oracles import curve_csv_text, float_text_cases

_CHUNK = 1_000_000  # values per file
_WIDTH = 1000  # values per row
_RANDOM = 10_000_000  # random bit patterns
_MANTISSAS = 1000  # random mantissas at each exponent and sign
_SEED = 0


def _first_difference(values: np.ndarray, text: bytes) -> str:
    fields = text.decode("utf-8").replace("\n", ",").split(",")[_WIDTH:]
    for value, field in zip(values.tolist(), fields):
        if field != format_float(value):
            return f"{value.hex()}: wrote {field!r}, format_float gives {format_float(value)!r}"
    return "the files differ in length"


def _batches(rng, n_random: int, n_mantissas: int):
    for start in range(0, n_random, _CHUNK):
        yield float_text_cases(rng, min(_CHUNK, n_random - start), 0)["random bits"]
    for values in float_text_cases(rng, 0, n_mantissas).values():
        for start in range(0, values.size, _CHUNK):
            yield values[start:start + _CHUNK]


def main() -> int:
    grid = uniform_grid(_WIDTH)
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sweep.csv"
        for values in _batches(np.random.default_rng(_SEED), _RANDOM, _MANTISSAS):
            rows = np.concatenate([values, np.zeros(-values.size % _WIDTH)]).reshape(-1, _WIDTH)
            write_curves_csv(path, grid, rows)
            written = path.read_bytes()
            if written != curve_csv_text(grid.points, rows):
                print(f"mismatch: {_first_difference(rows.ravel(), written)}")
                return 1
            checked += values.size
    print(f"{checked} values written as format_float writes them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
