"""Eigendecomposition of discretized covariance operators and the norms built on it.

The covariance operator acts on the weighted-L2 space of the grid as
(C x)(t_i) = sum_k w_k G(t_i, t_k) x(t_k).  Its eigenpairs come from the
equivalent symmetric problem  W^{1/2} G W^{1/2} u = lambda u  with
eigenfunctions v = W^{-1/2} u, orthonormal under the grid weights.  The
squared Cameron-Martin norm  sum_j c_j^2 / lambda_j  of a coefficient vector
is the quantity that controls how much Gaussian noise a release needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Curve, Grid, KernelSpec, gram_matrix

DEFAULT_TRUNCATION_TOL = 1e-12

#: Relative residual-energy tolerance at which releases treat a curve as
#: lying inside the basis span.
RELEASE_COMPAT_TOL = 1e-10


class DegenerateKernelError(ValueError):
    """The covariance matrix has no numerically positive spectrum."""


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Retained eigenpairs of a discretized covariance operator.

    eigenvalues are strictly positive and non-increasing; the columns of the
    read-only (grid size, m) ``matrix`` are the eigenfunction values,
    orthonormal in the weighted L2 inner product.  Instances may come from
    :func:`decompose` or be handcrafted for small experiments from an
    eigenvalue vector and such a matrix, in which case ``spec`` is usually
    None.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray
    grid: Grid
    spec: KernelSpec | None = None

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("need at least one eigenvalue")
        if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be positive and finite")
        if np.any(np.diff(lam) > 0.0):
            raise ValueError("eigenvalues must be non-increasing")
        if lam.size > self.grid.size:
            raise ValueError("more eigenpairs than grid points")
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != lam.size:
            raise ValueError("eigenvalue/eigenfunction count mismatch")
        if matrix.shape[0] != self.grid.size:
            raise ValueError("eigenfunctions must live on the basis grid")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("eigenfunction values must be finite")
        overlap = matrix.T @ (self.grid.weights[:, None] * matrix)
        if np.max(np.abs(overlap - np.eye(lam.size))) > 1e-8:
            raise ValueError("eigenfunctions are not orthonormal under the grid weights")
        lam.setflags(write=False)
        matrix.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "matrix", matrix)

    @property
    def m(self) -> int:
        """Number of retained modes."""
        return self.eigenvalues.size


def decompose(
    gram: np.ndarray,
    grid: Grid,
    tol: float = DEFAULT_TRUNCATION_TOL,
    spec: KernelSpec | None = None,
) -> SpectralBasis:
    """Eigendecompose a covariance matrix on a grid.

    Solves W^{1/2} G W^{1/2} u = lambda u and keeps every mode with
    lambda > tol * lambda_max (a relative rule, so rescaling G rescales the
    spectrum without changing what is retained).  Eigenvector signs are fixed
    by making the first non-negligible component positive, which keeps the
    output deterministic across linear-algebra backends.

    Raises
    ------
    DegenerateKernelError
        If no eigenvalue is numerically positive.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (grid.size, grid.size):
        raise ValueError("gram matrix does not match the grid size")
    if not (0.0 < tol < 1.0):
        raise ValueError("truncation tol must lie in (0, 1)")
    gram = 0.5 * (gram + gram.T)
    sqrt_w = np.sqrt(grid.weights)
    sym = sqrt_w[:, None] * gram * sqrt_w[None, :]
    evals, evecs = np.linalg.eigh(sym)
    lam_max = evals[-1]
    if not (lam_max > 0.0):
        raise DegenerateKernelError("degenerate kernel: no positive eigenvalues")
    kept = np.nonzero(evals > tol * lam_max)[0][::-1]  # descending order
    if kept.size == 0:
        raise DegenerateKernelError("degenerate kernel: spectrum below truncation threshold")
    lam = evals[kept]
    funcs = evecs[:, kept] / sqrt_w[:, None]
    mags = np.abs(funcs)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)  # first True per column
    funcs *= np.where(funcs[lead, np.arange(kept.size)] < 0.0, -1.0, 1.0)
    return SpectralBasis(lam, funcs, grid, spec)


def kernel_basis(
    spec: KernelSpec, grid: Grid, tol: float = DEFAULT_TRUNCATION_TOL
) -> SpectralBasis:
    """Gram matrix + decomposition in one step, recording the kernel spec."""
    return decompose(gram_matrix(spec, grid), grid, tol, spec=spec)


def coefficients(x: Curve, basis: SpectralBasis) -> np.ndarray:
    """Coefficients <x, v_j> of a curve in the basis, via weighted dot products."""
    if not x.grid.matches(basis.grid):
        raise ValueError("curve grid does not match the basis grid")
    return (basis.grid.weights * x.values) @ basis.matrix


def reconstruct(coeffs: np.ndarray, basis: SpectralBasis) -> Curve:
    """Curve sum_j c_j v_j from a coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.m,):
        raise ValueError(f"expected {basis.m} coefficients, got {coeffs.shape}")
    return Curve(basis.matrix @ coeffs, basis.grid)


def cm_norm_sq(coeffs: np.ndarray, basis: SpectralBasis) -> float:
    """Squared Cameron-Martin norm sum_j c_j^2 / lambda_j.

    This is the norm of the noise covariance C under which the global
    sensitivity of a release is measured, whatever penalty exponent the
    estimator used.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.m,):
        raise ValueError(f"expected {basis.m} coefficients, got {coeffs.shape}")
    return float(np.sum(coeffs**2 / basis.eigenvalues))


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of a span check: the verdict plus the share it was based on.

    residual_fraction is the share of the curve's squared L2 norm lying
    outside the retained span; the curve is compatible when that share is at
    most RELEASE_COMPAT_TOL.
    """

    compatible: bool
    residual_fraction: float

    def __bool__(self) -> bool:
        return self.compatible


def compatibility_check(x: Curve, basis: SpectralBasis) -> CompatibilityReport:
    """Check whether a curve lies in the basis span, up to RELEASE_COMPAT_TOL.

    A summary failing this check cannot be privatized by noise drawn from this
    basis at any scale, so release operations refuse it outright.  The check
    itself never raises; it reports.
    """
    residual = x.values - basis.matrix @ coefficients(x, basis)
    residual_energy = float(basis.grid.norm_sq(residual))
    total_energy = float(basis.grid.norm_sq(x.values))
    fraction = residual_energy / total_energy if total_energy > 0.0 else 0.0
    compatible = residual_energy <= RELEASE_COMPAT_TOL * total_energy
    return CompatibilityReport(compatible, fraction)

