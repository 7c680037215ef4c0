"""Eigendecomposition of discretized covariance operators and the norms built on it.

The covariance operator acts on the weighted-L2 space of the grid as
(C x)(t_i) = sum_k w_k G(t_i, t_k) x(t_k).  Its eigenpairs come from the
equivalent symmetric problem  W^{1/2} G W^{1/2} u = lambda u  with
eigenfunctions v = W^{-1/2} u, orthonormal under the grid weights.  The
squared Cameron-Martin norm  sum_j c_j^2 / lambda_j  of a coefficient vector
is the quantity that controls how much Gaussian noise a release needs.

Every kernel family is stationary, so on a grid symmetric about its midpoint
(uniform grids, and any grid whose points and weights mirror) the matrix
S = W^{1/2} G W^{1/2} is centrosymmetric: J S J = S with J the exchange
matrix.  Such a matrix splits into two half-size symmetric problems, one for
the eigenvectors even under J and one for the odd ones, and ``decompose``
solves those two instead of the full one whenever S is centrosymmetric to
within eigh's own backward error.  Every other matrix (irregular grids read
from CSV, handcrafted Gram matrices) takes one full-size eigh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

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

    Solves S u = lambda u with S = W^{1/2} G W^{1/2} and keeps every mode with
    lambda > tol * lambda_max (a relative rule, so rescaling G rescales the
    spectrum without changing what is retained).  Eigenvector signs are fixed
    by making the first non-negligible component positive, which keeps the
    output deterministic across linear-algebra backends.

    When ||S - J S J||_F <= M * eps * ||S||_F (J the exchange matrix, M the
    grid size), a difference below eigh's own backward error, the
    centrosymmetric part (S + J S J) / 2 is solved as two half-size eigh
    calls and only the retained eigenvectors are assembled at full size.
    Stationary kernels on grids symmetric about their midpoint meet this
    test; any other matrix is solved by one full-size eigh.  Both routes
    apply the same truncation and sign rules.

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
    flipped = sym[::-1, ::-1]
    eps = np.finfo(float).eps
    if np.linalg.norm(sym - flipped) <= grid.size * eps * np.linalg.norm(sym):
        evals, vectors = _split_eigh(0.5 * (sym + flipped))
    else:
        evals, evecs = np.linalg.eigh(sym)
        vectors = partial(np.take, evecs, axis=1)  # the columns at given positions
    lam_max = evals[-1]
    if not (lam_max > 0.0):
        raise DegenerateKernelError("degenerate kernel: no positive eigenvalues")
    kept = np.nonzero(evals > tol * lam_max)[0][::-1]  # descending order
    if kept.size == 0:
        raise DegenerateKernelError("degenerate kernel: spectrum below truncation threshold")
    lam = evals[kept]
    funcs = vectors(kept) / sqrt_w[:, None]
    mags = np.abs(funcs)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)  # first True per column
    funcs *= np.where(funcs[lead, np.arange(kept.size)] < 0.0, -1.0, 1.0)
    return SpectralBasis(lam, funcs, grid, spec)


def _split_eigh(
    sym: np.ndarray,
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Eigenpairs of a symmetric centrosymmetric matrix from two half-size eigh calls.

    With h = M // 2, A = S[:h, :h] and B J = S[:h, ::-1][:, :h], the even
    eigenvectors are [x; J x] / sqrt(2) with (A + B J) x = lambda x, and the
    odd ones are [y; -J y] / sqrt(2) with (A - B J) y = lambda y.  For odd M
    the middle row and column join the even block, scaled by sqrt(2), and
    the last component of an even-block eigenvector is the middle entry of
    the full one.

    Returns all eigenvalues in ascending order and a function that assembles
    the full-length unit eigenvectors at the given positions of that order.
    """
    m = sym.shape[0]
    h = m // 2
    a = sym[:h, :h]
    bj = sym[:h, ::-1][:, :h]
    even = a + bj
    if m % 2:
        edge = math.sqrt(2.0) * sym[:h, h]
        even = np.block([[even, edge[:, None]], [edge[None, :], sym[h, h]]])
    even_vals, even_vecs = np.linalg.eigh(even)
    odd_vals, odd_vecs = np.linalg.eigh(a - bj)
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(evals, kind="stable")

    def vectors(cols: np.ndarray) -> np.ndarray:
        src = order[cols]
        is_even = src < even_vals.size
        half = np.zeros((m - h, src.size))  # rows 0..h-1, then the middle row for odd M
        half[:, is_even] = even_vecs[:, src[is_even]]
        half[:h, ~is_even] = odd_vecs[:, src[~is_even] - even_vals.size]
        out = np.empty((m, src.size))
        out[:h] = math.sqrt(0.5) * half[:h]
        out[m - h :] = (np.where(is_even, 1.0, -1.0) * out[:h])[::-1]
        if m % 2:
            out[h] = half[h]
        return out

    return evals[order], vectors


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

