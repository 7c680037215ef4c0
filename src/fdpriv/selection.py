"""Hyperparameter selection: k-fold CV over the kernel range, and private CV
that scores the sanitized estimate instead of the raw one.

Plain CV always favors the smallest penalty (least shrinkage fits held-out
data best), but a small penalty forces a large noise variance.  Private CV
scores the expected error of each training fit's sanitized release instead,
so the noise cost enters the selection.

Each range parameter rho gets one spectral basis, and a whole column of
penalties phi is scored against it: per fold the training complement is
built once, its mean computed once (``SampleSet.mean``), and fitted with
:func:`penalized_mean` at every phi.  Private CV calibrates each phi once per
distinct calibration input (tau, n), not once per fold.  The folds take at
most two sizes, and a derived tau is the sample's largest norm in every
training set but the one that holds out the largest-norm curve, so a call
makes at most 3 calibrations per phi, at most 2 with a stated tau and
exactly 1 with ``calibrate_on_full_n``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .calibration import PrivacyBudget, calibrate
from .kernels import KernelSpec, _to_float
from .mechanism import noise_energy
from .rng import make_rng
from .smoothing import SampleSet, SmootherConfig, penalized_mean
from .spectral import DEFAULT_TRUNCATION_TOL, kernel_basis


def _check_folds(folds) -> None:
    """Refuse a fold count that is not a whole number of at least two."""
    if not _to_float(folds, "folds").is_integer():
        raise ValueError(f"fold count must be a whole number, got {folds}")
    if folds < 2:
        raise ValueError("need at least two folds")


@dataclass(frozen=True)
class SelectionGrid:
    """Penalty and range-parameter grids plus the fold count for a search."""

    phi_values: tuple[float, ...]
    rho_values: tuple[float, ...]
    folds: int = 10

    def __post_init__(self):
        phi = tuple(_to_float(v, "phi") for v in self.phi_values)
        rho = tuple(_to_float(v, "rho") for v in self.rho_values)
        for name, grid in (("phi", phi), ("rho", rho)):
            if len(grid) == 0:
                raise ValueError(f"{name} grid must be non-empty")
            if any(v <= 0 or not math.isfinite(v) for v in grid):
                raise ValueError(f"{name} grid values must be positive and finite")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} grid must be strictly increasing")
        _check_folds(self.folds)
        object.__setattr__(self, "phi_values", phi)
        object.__setattr__(self, "rho_values", rho)


def fold_partition(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic seeded partition of range(n) into folds of near-equal size."""
    _check_folds(folds)
    if folds > n:
        raise ValueError(f"cannot split {n} curves into {folds} folds")
    perm = make_rng(seed).permutation(n)
    return list(np.array_split(perm, folds))


def _smoothers(phi, eta: float) -> list[SmootherConfig]:
    """One validated smoother per penalty; phi is a float or a non-empty 1-D sequence."""
    phis = np.atleast_1d(np.asarray(phi))
    if phis.ndim != 1 or phis.size == 0:
        raise ValueError("phi must be a float or a non-empty 1-D sequence of floats")
    return [SmootherConfig(p, eta) for p in phis]


def cv_score(
    data: SampleSet,
    spec: KernelSpec,
    phi: float | Sequence[float],
    eta: float = 1.0,
    folds: int = 10,
    fold_seed: int = 0,
) -> float | np.ndarray:
    """k-fold cross-validation score of the penalized mean: :func:`pcv_score`
    without a budget, the average over folds of the mean squared weighted-L2
    distance between the training-complement fit and each held-out curve.
    """
    return pcv_score(data, spec, phi, eta, None, folds, fold_seed)


def cv_select(
    data: SampleSet,
    family: str,
    phi_fixed: float,
    rho_grid,
    folds: int = 10,
    seed: int = 0,
    eta: float = 1.0,
) -> float:
    """Pick the kernel range parameter minimizing the CV score at fixed phi.

    Candidates are scanned in increasing order and ties resolve to the
    smallest rho; each candidate derives its own spectral basis.
    """
    rho_values = sorted(_to_float(r, "rho") for r in rho_grid)
    if not rho_values:
        raise ValueError("rho grid must be non-empty")
    scores = [cv_score(data, KernelSpec(family, rho), phi_fixed, eta, folds, seed)
              for rho in rho_values]
    return rho_values[int(np.argmin(scores))]


def pcv_score(
    data: SampleSet,
    spec: KernelSpec,
    phi: float | Sequence[float],
    eta: float,
    budget: PrivacyBudget | None,
    folds: int = 10,
    seed: int = 0,
    calibrate_on_full_n: bool = False,
    tol: float = DEFAULT_TRUNCATION_TOL,
) -> float | np.ndarray:
    """Private CV score: the expected error of each fold's sanitized fit.

    Per fold, E||fit + Z - X||^2 averaged over the held-out curves X equals
    the plain CV error plus the noise energy sigma_sq * sum_j lambda_j,
    exactly, since the noise Z is mean-zero; budget None adds no noise
    energy, which is :func:`cv_score`.  The noise variance is calibrated per
    training complement, at its sample size and its tau (the tau stated for
    data, or the training curves' largest norm when data's tau was derived
    from its curves), matching what an analyst fitting on those curves would
    have to add; calibrate_on_full_n switches to calibrating with the full
    sample size and tau instead.  Folds that share that (tau, n) share one
    calibration per phi.  seed fixes the folds.  phi is a float
    (float score) or a 1-D sequence (array of scores), all scored from one
    spectral basis.
    """
    basis = kernel_basis(spec, data.grid, tol)
    cfgs = _smoothers(phi, eta)
    parts = fold_partition(data.n, folds, seed)
    total = np.zeros(len(cfgs))
    energies = {}  # (tau, n) calibrated at -> noise energy per phi
    for k, held_idx in enumerate(parts):
        train = data.subset(np.concatenate([p for i, p in enumerate(parts) if i != k]))
        fits = np.stack([penalized_mean(train, basis, cfg).values for cfg in cfgs])
        # (P, held, M) differences, one norm per (phi, held-out curve)
        errors = data.grid.norm_sq(fits[:, None, :] - data.values[held_idx]).mean(axis=1)
        if budget is not None:
            calibrated_on = data if calibrate_on_full_n else train
            key = (calibrated_on.tau, calibrated_on.n)
            if key not in energies:
                energies[key] = [noise_energy(basis, calibrate(basis, cfg.phi, eta, *key,
                                                               budget).sigma_sq)
                                 for cfg in cfgs]
            errors += energies[key]
        total += errors
    scores = total / folds
    return float(scores[0]) if np.ndim(phi) == 0 else scores


def pcv_select(
    data: SampleSet,
    family: str,
    grid: SelectionGrid,
    eta: float,
    budget: PrivacyBudget,
    seed: int = 0,
    calibrate_on_full_n: bool = False,
) -> tuple[float, float]:
    """Exhaustive (phi, rho) grid search minimizing the private CV score.

    Each rho's whole phi column is scored in one :func:`pcv_score` call.
    Ties resolve to the smallest phi, then the smallest rho.
    """
    table = np.column_stack([
        pcv_score(data, KernelSpec(family, rho), grid.phi_values, eta, budget,
                  grid.folds, seed, calibrate_on_full_n)
        for rho in grid.rho_values
    ])  # (P, R); argmin takes the first minimum in C order
    p, r = np.unravel_index(int(np.argmin(table)), table.shape)
    return grid.phi_values[p], grid.rho_values[r]
