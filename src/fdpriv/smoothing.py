"""Penalized RKHS estimation of a mean curve.

The estimator shrinks each basis coefficient of the sample mean by
lambda_j^eta / (lambda_j^eta + phi), which is the minimizer of mean squared
error plus phi times the squared Cameron-Martin norm of order eta.  Shrinking
through the spectrum is what forces the estimate into the noise's
Cameron-Martin space and thereby makes it privatizable at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .kernels import Curve, Grid, _to_float, _to_float_array
from .spectral import SpectralBasis, coefficients, reconstruct


@dataclass(frozen=True)
class SmootherConfig:
    """Penalty parameter phi > 0 and penalty exponent eta >= 1."""

    phi: float
    eta: float = 1.0

    def __post_init__(self):
        phi, eta = _to_float(self.phi, "phi"), _to_float(self.eta, "eta")
        if not (math.isfinite(phi) and phi > 0.0):
            raise ValueError("penalty phi must be positive and finite")
        if not (math.isfinite(eta) and eta >= 1.0):
            raise ValueError("penalty exponent eta must be at least 1")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True, eq=False)
class SampleSet:
    """N curves on a common grid together with a bound tau on their L2 norms.

    The curves are held as one read-only (N, M) array of values on ``grid``,
    row i being curve i; a set is built from such an array, directly or
    through :meth:`from_values`, and read back through ``values``.  tau is
    the quantity sensitivity bounds scale with.  By default (tau None) it is
    recomputed from the data as the largest realized norm, which is itself
    mildly disclosive; pass an explicit tau to bound the data a priori
    instead.  Nonzero curves whose norms underflow to a tau of 0 are refused.
    The mean curve ``mean`` is computed on first access and kept, so every
    fit of one set, such as a cross-validation fold's training set scored at
    several penalties, reads the same mean.
    """

    values: np.ndarray
    grid: Grid
    tau: float | None = None
    _tau_stated: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        values = _to_float_array(self.values, "values")
        if values.ndim != 2:
            raise ValueError("sample values must be an (N, M) array")
        if values.shape[0] == 0:
            raise ValueError("sample set needs at least one curve")
        if values.shape[1] != self.grid.size:
            raise ValueError(
                f"curves have {values.shape[1]} values for a {self.grid.size}-point grid"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        norms = np.sqrt(self.grid.norm_sq(values))
        tau = float(norms.max()) if self.tau is None else _to_float(self.tau, "tau")
        if not (math.isfinite(tau) and tau >= 0.0):
            raise ValueError("tau must be a finite non-negative bound")
        if norms.max() > tau:
            raise ValueError("a curve exceeds the stated norm bound tau")
        if tau == 0.0 and np.any(values):
            raise ValueError("the curves are nonzero but their norms underflow to 0, "
                             "so tau=0.0 bounds nothing; rescale them")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_tau_stated", self.tau is not None)
        object.__setattr__(self, "tau", tau)

    @classmethod
    def from_values(cls, values, grid: Grid, tau: float | None = None) -> "SampleSet":
        """Bundle an (N, M) array of curve values on a grid; a 1-D array is one curve."""
        return cls(np.atleast_2d(values), grid, tau)

    def subset(self, rows) -> "SampleSet":
        """The curves at the given row indices.

        A tau stated for this set bounds the subset too and carries over; a
        tau derived from the data is derived again from the subset's curves.
        """
        return SampleSet(self.values[rows], self.grid, self.tau if self._tau_stated else None)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def mean(self) -> Curve:
        """The pointwise sample mean of the curves, computed once per set."""
        return Curve(self.values.mean(axis=0), self.grid)


def shrinkage_factors(basis: SpectralBasis, cfg: SmootherConfig) -> np.ndarray:
    """Per-mode filter lambda_j^eta / (lambda_j^eta + phi) in (0, 1)."""
    lam_eta = basis.eigenvalues**cfg.eta
    return lam_eta / (lam_eta + cfg.phi)


def penalized_mean(data: SampleSet, basis: SpectralBasis, cfg: SmootherConfig) -> Curve:
    """Penalized mean estimate: shrink the sample mean's coefficients mode by mode.

    Data energy orthogonal to the retained span is discarded; the output
    therefore always lies in the span and passes the compatibility check.
    """
    if not data.grid.matches(basis.grid):
        raise ValueError("data grid does not match the basis grid")
    return reconstruct(shrinkage_factors(basis, cfg) * coefficients(data.mean, basis), basis)
