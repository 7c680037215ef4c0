"""Eigendecomposition of discretized covariance operators and the norms built on it.

The covariance operator acts on the weighted-L2 space of the grid as
(C x)(t_i) = sum_k w_k G(t_i, t_k) x(t_k).  Its eigenpairs come from the
equivalent symmetric problem  S u = lambda u,  S = W^{1/2} G W^{1/2},  with
eigenfunctions v = W^{-1/2} u, orthonormal under the grid weights.  The
squared Cameron-Martin norm  sum_j c_j^2 / lambda_j  of a coefficient vector
is the quantity that controls how much Gaussian noise a release needs.

``kernel_basis`` is the one constructor of such a basis from a kernel.  It
takes one of three routes to the eigenpairs, tried in this order.  Each
route returns plain arrays, every eigenvalue it found in the order it found
them and the matching unit eigenvectors of S as columns; ``kernel_basis``
alone orders, truncates and signs them.  Only the dense routes (split and
full) form the M x M Gram matrix.

* Low rank.  Smooth kernels keep few modes whatever the grid size: the
  Gaussian keeps 111 at rho = 0.001 and 39 at rho = 0.01.  On grids of at
  least _LOW_RANK_MIN_SIZE points, a greedy pivoted Cholesky factorisation
  S ~ L L^T reads one row of S per pivot, each evaluated on its own by
  ``gram_matrix(spec, grid, rows=[p])``, so the route holds O(M r) numbers
  (Harbrecht, Peters & Schneider, Appl. Numer. Math. 2012).  It stops at the
  first rank r at which the trace of the residual S - L L^T, plus the
  round-off floor eps * tr S of its downdated diagonal, is at most
  _LOW_RANK_CUT_SHARE times min(tol, DEFAULT_TRUNCATION_TOL) times a lower
  bound on lambda_max.  S is a covariance matrix, so that residual is
  positive semi-definite, and Weyl's inequality bounds lambda_{r+1}(S) by
  its trace: every mode above the cut is among the r found, and their
  eigenvalues are those of S to within 1e-14 lambda_max plus round-off.  A
  QR of the M x r factor and an r x r eigh then give the eigenpairs.  The
  route gives up once r would pass the budget M / _LOW_RANK_RANK_SHARE, and
  at 2/8, 4/8, 5/8 and 6/8 of that budget if the trace's decay over the
  last half of its steps, kept up for the rest of the budget, would not
  reach the stop: the Matern and exponential kernels keep most of their
  modes, so they take a dense route.
* Split.  Every kernel family is stationary, so on a grid symmetric about
  its midpoint (uniform grids, and any grid whose points and weights
  mirror) S is centrosymmetric: J S J = S with J the exchange matrix.  When
  ||S - J S J||_F <= M * eps * ||S||_F, a difference below eigh's own
  backward error, the centrosymmetric part (S + J S J) / 2 splits into two
  half-size symmetric problems, one for the eigenvectors even under J and
  one for the odd ones, which are then assembled at full size, even block
  first.
* Full.  Every other grid (irregular grids read from CSV) takes one
  full-size eigh.

A covariance outside the kernel families gets its basis from hand-built
eigenpairs, as ``SpectralBasis(eigenvalues, matrix, grid)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Curve, Grid, KernelSpec, _to_float_array, gram_matrix

DEFAULT_TRUNCATION_TOL = 1e-12

# The low-rank route: grids smaller than this take a dense route outright, a
# rank above M / _LOW_RANK_RANK_SHARE sends the route back to one, and the
# residual trace must fall to this share of the truncation cut.
_LOW_RANK_MIN_SIZE = 320
_LOW_RANK_RANK_SHARE = 4
_LOW_RANK_CUT_SHARE = 0.01

#: Relative residual-energy tolerance at which releases treat a curve as
#: lying inside the basis span.
RELEASE_COMPAT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Retained eigenpairs of a discretized covariance operator.

    eigenvalues are strictly positive and non-increasing; the columns of the
    read-only (grid size, m) ``matrix`` are the eigenfunction values,
    orthonormal in the weighted L2 inner product.  Instances come from
    :func:`kernel_basis`, or are handcrafted from an eigenvalue vector and
    such a matrix (for a covariance outside the kernel families, or a small
    experiment), in which case ``spec`` is usually None.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray
    grid: Grid
    spec: KernelSpec | None = None

    def __post_init__(self):
        lam = _to_float_array(self.eigenvalues, "eigenvalues")
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("need at least one eigenvalue")
        if np.any(lam <= 0.0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(lam) > 0.0):
            raise ValueError("eigenvalues must be non-increasing")
        if lam.size > self.grid.size:
            raise ValueError("more eigenpairs than grid points")
        matrix = _to_float_array(self.matrix, "matrix")
        if matrix.ndim != 2 or matrix.shape[1] != lam.size:
            raise ValueError("eigenvalue/eigenfunction count mismatch")
        if matrix.shape[0] != self.grid.size:
            raise ValueError("eigenfunctions must live on the basis grid")
        u = np.sqrt(self.grid.weights)[:, None] * matrix
        overlap = u.T @ u  # V^T W V, by the symmetric product u^T u that numpy runs as one syrk
        if np.max(np.abs(overlap - np.eye(lam.size))) > 1e-8:
            raise ValueError("eigenfunctions are not orthonormal under the grid weights")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "matrix", matrix)

    @property
    def m(self) -> int:
        """Number of retained modes."""
        return self.eigenvalues.size


def kernel_basis(
    spec: KernelSpec, grid: Grid, tol: float = DEFAULT_TRUNCATION_TOL
) -> SpectralBasis:
    """The retained eigenbasis of a kernel's covariance operator on a grid.

    Solves S u = lambda u with S = W^{1/2} G W^{1/2}, by the route the module
    docstring describes, and keeps every mode with lambda > tol * lambda_max
    (a relative rule, so rescaling G rescales the spectrum without changing
    what is retained).  Eigenvector signs are fixed by making the first
    non-negligible component positive, which keeps the output deterministic
    across linear-algebra backends.  The basis records ``spec``.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("truncation tol must lie in (0, 1)")
    sqrt_w = np.sqrt(grid.weights)
    evals, vectors = _low_rank_eigh(spec, grid, sqrt_w, tol) or _dense_eigh(spec, grid, sqrt_w)
    order = np.argsort(evals, kind="stable")[::-1]  # descending; ties in reverse route order
    kept = order[evals[order] > tol * evals[order[0]]]
    funcs = np.take(vectors, kept, axis=1) / sqrt_w[:, None]  # C order, unlike vectors[:, kept]
    mags = np.abs(funcs)
    lead = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)  # first True per column
    funcs *= np.where(funcs[lead, np.arange(kept.size)] < 0.0, -1.0, 1.0)
    return SpectralBasis(evals[kept], funcs, grid, spec)


def _dense_eigh(
    spec: KernelSpec, grid: Grid, sqrt_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenpair of S, formed whole.

    Two half-size eigh calls solve S if it is centrosymmetric, else one full-size call.
    """
    sym = sqrt_w[:, None] * gram_matrix(spec, grid) * sqrt_w[None, :]
    flipped = sym[::-1, ::-1]
    if np.linalg.norm(sym - flipped) <= grid.size * np.finfo(float).eps * np.linalg.norm(sym):
        return _split_eigh(0.5 * (sym + flipped))
    return np.linalg.eigh(sym)


def _low_rank_eigh(
    spec: KernelSpec, grid: Grid, sqrt_w: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenpairs of S ~ L L^T from a greedy pivoted Cholesky factor L, or None.

    Step k pivots on the largest entry p of the residual diagonal d of
    R = S - L L^T, reads row p of S as kernel row p times the weights,
    appends column l_k and downdates d by l_k^2, so that tr R drops by
    |l_k|^2.  The kernel's diagonal is 1, so d starts as the weights.  The
    largest drop is a lower bound on lambda_max(S).  The module docstring
    gives the stop rule, why it certifies the kept modes, and when the route
    gives up (None).

    Scaled to a unit entry at their pivots, the columns of L have entries
    of modulus at most 1 and are well conditioned, so two Cholesky QR passes
    give L = Q R D with Q orthonormal and D the pivot scales; None if they
    fail.  The eigenpairs of L L^T are those of the r x r matrix
    (R D)(R D)^T, their eigenvectors mapped through Q.
    """
    m = sqrt_w.size
    if m < _LOW_RANK_MIN_SIZE:
        return None
    diag = sqrt_w * sqrt_w
    trace = float(diag.sum())
    budget = m // _LOW_RANK_RANK_SHARE
    resid = diag / trace  # the residual diagonal, relative to tr S
    cut = _LOW_RANK_CUT_SHARE * min(tol, DEFAULT_TRUNCATION_TOL)
    floor = np.finfo(float).eps  # the round-off floor of the downdated trace, relative to tr S
    row_weights = sqrt_w * (1.0 / trace)
    factor = np.empty((budget, m))  # row k is column k of L / sqrt(tr S)
    scales = np.empty(budget)
    lam_low, residual, traces = 0.0, 1.0, []
    checkpoints = {budget * eighths // 8 for eighths in (2, 4, 5, 6)}
    for k in range(budget):
        p = int(np.argmax(resid))
        if not resid[p] > 0.0:  # nothing left to pivot on, yet no certificate
            return None
        scale = scales[k] = math.sqrt(resid[p])
        col = factor[k]
        row = gram_matrix(spec, grid, rows=[p])[0]
        np.multiply(row, row_weights * (sqrt_w[p] / scale), out=col)
        col -= (factor[:k, p] / scale) @ factor[:k]
        resid -= col * col
        resid[p] = 0.0
        previous, residual = residual, float(resid.sum())
        lam_low = max(lam_low, previous - residual)
        goal = cut * lam_low - floor
        if residual <= goal:
            break
        traces.append(residual)
        n = k + 1
        if n in checkpoints:  # would the last n/2 steps' decay, kept up, get there?
            earlier = traces[n // 2 - 1]
            if not (goal > 0.0 and earlier > 0.0
                    and residual * (residual / earlier) ** (2.0 * (budget - n) / n) <= goal):
                return None
    else:
        return None
    r = k + 1
    q = (factor[:r] / scales[:r, None]).T
    tri = np.diag(scales[:r])
    try:
        for _ in range(2):
            chol = np.linalg.cholesky(q.T @ q)
            q = q @ np.linalg.inv(chol.T)
            tri = chol.T @ tri
    except np.linalg.LinAlgError:
        return None
    evals, small = np.linalg.eigh(tri @ tri.T)
    return trace * evals, q @ small


def _split_eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric centrosymmetric matrix from two half-size eigh calls.

    With h = M // 2, A = S[:h, :h] and B J = S[:h, ::-1][:, :h], the even
    eigenvectors are [x; J x] / sqrt(2) with (A + B J) x = lambda x, and the
    odd ones are [y; -J y] / sqrt(2) with (A - B J) y = lambda y.  For odd M
    the middle row and column join the even block, scaled by sqrt(2), and
    the last component of an even-block eigenvector is the middle entry of
    the full one.

    Returns the even block's eigenvalues, then the odd block's, each in the
    order eigh found them, and the full-length unit eigenvectors as the
    columns of an M x M matrix, in that order.
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
    vectors = np.zeros((m, m))  # the m - h even columns first; for odd M they fill row h too
    vectors[: m - h, : m - h] = even_vecs
    vectors[:h, m - h :] = odd_vecs
    vectors[:h] *= math.sqrt(0.5)
    vectors[m - h :] = (vectors[:h] * np.repeat([1.0, -1.0], [m - h, h]))[::-1]
    return np.concatenate([even_vals, odd_vals]), vectors


def coefficients(x: Curve, basis: SpectralBasis) -> np.ndarray:
    """Coefficients <x, v_j> of a curve in the basis, via weighted dot products."""
    if not x.grid.matches(basis.grid):
        raise ValueError("curve grid does not match the basis grid")
    return (basis.grid.weights * x.values) @ basis.matrix


def _coefficient_vector(coeffs, basis: SpectralBasis) -> np.ndarray:
    """coeffs as a float vector with one entry per retained mode of the basis."""
    coeffs = _to_float_array(coeffs, "coefficients")
    if coeffs.shape != (basis.m,):
        raise ValueError(f"expected {basis.m} coefficients, got {coeffs.shape}")
    return coeffs


def reconstruct(coeffs: np.ndarray, basis: SpectralBasis) -> Curve:
    """Curve sum_j c_j v_j from a coefficient vector."""
    return Curve(basis.matrix @ _coefficient_vector(coeffs, basis), basis.grid)


def cm_norm_sq(coeffs: np.ndarray, basis: SpectralBasis) -> float:
    """Squared Cameron-Martin norm sum_j c_j^2 / lambda_j.

    This is the norm of the noise covariance C under which the global
    sensitivity of a release is measured, whatever penalty exponent the
    estimator used.  A norm past the float range is inf, with no warning.
    """
    with np.errstate(over="ignore"):
        return float(np.sum(_coefficient_vector(coeffs, basis) ** 2 / basis.eigenvalues))


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
    reports rather than raises, except for a curve on another grid than the
    basis's, which is a ValueError.  It runs on the curve scaled by the power
    of two that puts its largest entry in [0.5, 1), which is exact, so the
    verdict and share are the curve's own and no square overflows.
    """
    scaled = Curve(np.ldexp(x.values, -np.frexp(np.max(np.abs(x.values)))[1]), x.grid)
    residual = scaled.values - basis.matrix @ coefficients(scaled, basis)
    residual_energy = float(basis.grid.norm_sq(residual))
    total_energy = float(basis.grid.norm_sq(scaled.values))
    fraction = residual_energy / total_energy if total_energy > 0.0 else 0.0
    compatible = residual_energy <= RELEASE_COMPAT_TOL * total_energy
    return CompatibilityReport(compatible, fraction)

