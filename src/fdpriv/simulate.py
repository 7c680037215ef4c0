"""Karhunen-Loeve simulation of curve samples around a known mean."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Curve, Grid, _to_count, _to_float, _to_whole
from .rng import make_rng
from .smoothing import SampleSet
from .spectral import SpectralBasis

MEAN_NAMES = ("sin_default", "zero")
DEFAULT_SCORE_HALFWIDTH = 0.4


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Sample size, score decay exponent p > 1, mean, score range, and whole-number seed.

    mean is a name from MEAN_NAMES or a Curve on the basis grid.  Scores
    multiplying mode j decay like j^(-p/2); p must exceed 1 or the curves
    would not be square integrable in the limit.
    """

    n: int
    p: float = 4.0
    mean: str | Curve = "sin_default"
    score_halfwidth: float = DEFAULT_SCORE_HALFWIDTH
    seed: int = 0

    def __post_init__(self):
        n = _to_count(self.n, "sample size n", 1)
        p, halfwidth = _to_float(self.p, "p"), _to_float(self.score_halfwidth, "score_halfwidth")
        if not (math.isfinite(p) and p > 1.0):
            raise ValueError("score decay exponent p must be strictly larger than 1")
        if not (math.isfinite(halfwidth) and halfwidth > 0.0):
            raise ValueError("score halfwidth must be positive")
        if isinstance(self.mean, str) and self.mean not in MEAN_NAMES:
            raise ValueError(f"unknown mean name {self.mean!r}; choose from {MEAN_NAMES}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "score_halfwidth", halfwidth)
        object.__setattr__(self, "seed", _to_whole(self.seed, "seed"))


def default_mean(name: str, grid: Grid) -> Curve:
    """Named mean functions sampled on a grid.

    sin_default is 0.1 sin(pi t); zero is the zero curve.
    """
    if name == "sin_default":
        return Curve(0.1 * np.sin(np.pi * grid.points), grid)
    if name == "zero":
        return Curve(np.zeros(grid.size), grid)
    raise ValueError(f"unknown mean name {name!r}; choose from {MEAN_NAMES}")


def kl_simulate(cfg: SimConfig, basis: SpectralBasis) -> SampleSet:
    """Draw N curves  mu + sum_j j^(-p/2) U_ij v_j  with U_ij ~ Uniform(-w, w).

    The truncation is the basis truncation.  tau is computed from the realized
    sample as the largest weighted L2 norm; curves are not rescaled.
    """
    grid = basis.grid
    if isinstance(cfg.mean, Curve):
        if not cfg.mean.grid.matches(grid):
            raise ValueError("mean curve lives on a different grid than the basis")
        mu = cfg.mean
    else:
        mu = default_mean(cfg.mean, grid)
    w = cfg.score_halfwidth
    scores = make_rng(cfg.seed).uniform(-w, w, size=(cfg.n, basis.m))
    decay = np.arange(1, basis.m + 1, dtype=float) ** (-cfg.p / 2.0)
    values = mu.values + (scores * decay) @ basis.matrix.T
    return SampleSet(values, grid)
