"""Hyperparameter selection: k-fold CV over the kernel range, and private CV
that scores the sanitized estimate instead of the raw one.

Plain CV always favors the smallest penalty (least shrinkage fits held-out
data best), but a small penalty forces a large noise variance.  Private CV
scores the expected error of each training fit's sanitized release instead,
so the noise cost enters the selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import PrivacyBudget, calibrate
from .kernels import KernelSpec
from .mechanism import noise_energy
from .rng import make_rng
from .smoothing import SampleSet, SmootherConfig, penalized_mean
from .spectral import DEFAULT_TRUNCATION_TOL, SpectralBasis, kernel_basis


@dataclass(frozen=True)
class SelectionGrid:
    """Penalty and range-parameter grids plus the fold count for a search."""

    phi_values: tuple[float, ...]
    rho_values: tuple[float, ...]
    folds: int = 10

    def __post_init__(self):
        phi = tuple(float(v) for v in self.phi_values)
        rho = tuple(float(v) for v in self.rho_values)
        for name, grid in (("phi", phi), ("rho", rho)):
            if len(grid) == 0:
                raise ValueError(f"{name} grid must be non-empty")
            if any(v <= 0 or not math.isfinite(v) for v in grid):
                raise ValueError(f"{name} grid values must be positive and finite")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} grid must be strictly increasing")
        if self.folds < 2:
            raise ValueError("need at least two folds")
        object.__setattr__(self, "phi_values", phi)
        object.__setattr__(self, "rho_values", rho)


def fold_partition(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic seeded partition of range(n) into folds of near-equal size."""
    if folds < 2:
        raise ValueError("need at least two folds")
    if folds > n:
        raise ValueError(f"cannot split {n} curves into {folds} folds")
    perm = make_rng(seed).permutation(n)
    return list(np.array_split(perm, folds))


def _fold_errors(
    data: SampleSet, basis: SpectralBasis, cfg: SmootherConfig, folds: int, seed: int
):
    """Per fold, yield (training set, mean squared L2 error of its fit on the held-out rows)."""
    parts = fold_partition(data.n, folds, seed)
    for k, held_idx in enumerate(parts):
        train_idx = np.concatenate([p for i, p in enumerate(parts) if i != k])
        train = SampleSet(data.values[train_idx], data.grid)
        fit = penalized_mean(train, basis, cfg)
        diffs = fit.values[None, :] - data.values[held_idx]
        errors = (diffs**2) @ data.grid.weights
        yield train, float(errors.mean())


def cv_score(
    data: SampleSet,
    spec: KernelSpec,
    phi: float,
    eta: float = 1.0,
    folds: int = 10,
    fold_seed: int = 0,
    tol: float = DEFAULT_TRUNCATION_TOL,
) -> float:
    """k-fold cross-validation score of the penalized mean.

    Average over folds of the mean squared weighted-L2 distance between the
    training-complement fit and each held-out curve.
    """
    basis = kernel_basis(spec, data.grid, tol)
    cfg = SmootherConfig(phi, eta)
    return sum(err for _, err in _fold_errors(data, basis, cfg, folds, fold_seed)) / folds


def cv_select(
    data: SampleSet,
    family: str,
    phi_fixed: float,
    rho_grid,
    folds: int = 10,
    seed: int = 0,
    eta: float = 1.0,
    tol: float = DEFAULT_TRUNCATION_TOL,
) -> float:
    """Pick the kernel range parameter minimizing the CV score at fixed phi.

    Candidates are scanned in increasing order and ties resolve to the
    smallest rho; each candidate derives its own spectral basis.
    """
    rho_values = sorted(float(r) for r in rho_grid)
    if not rho_values:
        raise ValueError("rho grid must be non-empty")
    best_rho, best_score = None, math.inf
    for rho in rho_values:
        score = cv_score(data, KernelSpec(family, rho), phi_fixed, eta, folds, seed, tol)
        if score < best_score:
            best_rho, best_score = rho, score
    return best_rho


def pcv_score(
    data: SampleSet,
    spec: KernelSpec,
    phi: float,
    eta: float,
    budget: PrivacyBudget,
    folds: int = 10,
    seed: int = 0,
    calibrate_on_full_n: bool = False,
    tol: float = DEFAULT_TRUNCATION_TOL,
) -> float:
    """Private CV score: the expected error of each fold's sanitized fit.

    Per fold, E||fit + Z - X||^2 averaged over the held-out curves X equals
    the plain CV error plus the noise energy sigma_sq * sum_j lambda_j,
    exactly, since the noise Z is mean-zero.  The noise variance is
    calibrated per training complement (its sample size and realized tau),
    matching what an analyst fitting on those curves would have to add;
    calibrate_on_full_n switches to calibrating with the full sample size and
    tau instead.  seed fixes the folds.
    """
    basis = kernel_basis(spec, data.grid, tol)
    cfg = SmootherConfig(phi, eta)
    total = 0.0
    for train, base_err in _fold_errors(data, basis, cfg, folds, seed):
        calibrated_on = data if calibrate_on_full_n else train
        calib = calibrate(basis, phi, eta, calibrated_on.tau, calibrated_on.n, budget)
        total += base_err + noise_energy(basis, calib.sigma_sq)
    return total / folds


def pcv_select(
    data: SampleSet,
    family: str,
    grid: SelectionGrid,
    eta: float,
    budget: PrivacyBudget,
    seed: int = 0,
    calibrate_on_full_n: bool = False,
    tol: float = DEFAULT_TRUNCATION_TOL,
) -> tuple[float, float]:
    """Exhaustive (phi, rho) grid search minimizing the private CV score.

    Ties resolve to the smallest phi, then the smallest rho.
    """
    best, best_score = None, math.inf
    for phi in grid.phi_values:
        for rho in grid.rho_values:
            score = pcv_score(
                data,
                KernelSpec(family, rho),
                phi,
                eta,
                budget,
                grid.folds,
                seed,
                calibrate_on_full_n,
                tol,
            )
            if score < best_score:
                best, best_score = (phi, rho), score
    return best
