"""Grids on [0, 1], curves living on them, and Matern-family covariance kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Canonical kernel names, ordered from smoothest to roughest sample paths.
KERNEL_FAMILIES = ("gaussian", "matern52", "matern32", "exponential")

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_NORM_BLOCK_VALUES = 1 << 16  # values Grid.norm_sq squares at once


def _to_float(value, name: str) -> float:
    """float(value), refusing an integer too large for a float with a ValueError naming it.

    Every scalar parameter a constructor or entry point converts to a float
    goes through here, so such an integer is refused like any other
    out-of-range value instead of escaping as an OverflowError.
    """
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large to be represented as a float") from None


def _to_whole(value, name: str) -> int:
    """value as an int, refusing a non-whole value with a ValueError naming it; the seed rule."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    number = _to_float(value, name)
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(number)


def _to_count(value, name: str, minimum: int) -> int:
    """value as a whole number of at least minimum that a float can hold; the one count rule."""
    count = _to_whole(value, name)
    if _to_float(count, name) < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return count


def _to_float_array(values, name: str) -> np.ndarray:
    """A read-only float copy of an array argument; the one array rule.

    Refuses an entry too large for a float, as ``_to_float`` does for
    scalars, or a NaN or infinite one, with a ValueError naming the argument.
    """
    try:
        array = np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} has an entry too large to be represented as a float") from None
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Grid:
    """Discretization of [0, 1] with quadrature weights.

    The weighted dot product sum(w_k * x_k * y_k) is the discrete L2 inner
    product every other module works in.  Weights must be strictly positive;
    points strictly increasing inside [0, 1].
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = _to_float_array(self.points, "points")
        weights = _to_float_array(self.weights, "weights")
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least two points")
        if weights.shape != points.shape:
            raise ValueError("points and weights must have the same length")
        if np.any(np.diff(points) <= 0.0):
            raise ValueError("grid points must be strictly increasing")
        if points[0] < 0.0 or points[-1] > 1.0:
            raise ValueError("grid points must lie in [0, 1]")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.points.size

    def norm_sq(self, values) -> np.ndarray | float:
        """Squared weighted L2 norm sum(w_k * x_k^2) along the last axis; inf if it overflows.

        An array of curves is reduced a block of leading rows at a time by the
        same expression, so each norm is the same bit for bit and the
        temporaries are one block's size, not the array's.
        """
        values = np.asarray(values)
        with np.errstate(over="ignore"):
            if values.ndim < 2 or values.size <= _NORM_BLOCK_VALUES:
                return np.sum(self.weights * values**2, axis=-1)
            step = max(1, _NORM_BLOCK_VALUES * len(values) // values.size)
            return np.concatenate([np.sum(self.weights * values[start:start + step]**2, axis=-1)
                                   for start in range(0, len(values), step)])

    def matches(self, other: "Grid") -> bool:
        """True when both grids discretize the same abscissae."""
        return self is other or (
            np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )


def uniform_grid(m: int) -> Grid:
    """Equispaced m-point grid on [0, 1]; ``grid_from_points`` gives it weights 1/m."""
    return grid_from_points(np.linspace(0.0, 1.0, _to_count(m, "uniform grid size m", 2)))


def grid_from_points(points) -> Grid:
    """Build a grid from bare abscissae, choosing quadrature weights.

    Equispaced points get uniform weights (last - first) / m, which is 1/m
    on [0, 1]; anything else gets trapezoid weights.  Both total the span
    up to O(1/m), so a point moved off the equispaced lattice moves the
    weights only slightly.  This is how grids read back from CSV recover
    their weights.
    """
    points = _to_float_array(points, "points")
    if points.ndim != 1 or points.size < 2:
        raise ValueError("need at least two grid points")
    gaps = np.diff(points)
    if np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12):
        weights = np.full(points.size, (points[-1] - points[0]) / points.size)
    else:
        weights = np.empty(points.size)
        weights[0] = 0.5 * gaps[0]
        weights[-1] = 0.5 * gaps[-1]
        weights[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    return Grid(points, weights)


@dataclass(frozen=True, eq=False)
class Curve:
    """A function sampled on a grid: one value per grid point, all finite."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        values = _to_float_array(self.values, "values")
        if values.shape != (self.grid.size,):
            raise ValueError(
                f"curve has {values.size} values for a {self.grid.size}-point grid"
            )
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """Weighted L2 norm sqrt(sum(w_k * x_k^2))."""
        return math.sqrt(float(self.grid.norm_sq(self.values)))


def _check_rho(value) -> float:
    """A kernel range parameter as a float; the one rho rule, described in ``KernelSpec``."""
    rho = _to_float(value, "rho")
    if not (rho > 0.0 and np.finfo(float).tiny <= rho * rho < math.inf):
        raise ValueError(f"kernel range parameter rho={rho} must be positive, with a square "
                         "that is a normal float (about 1.5e-154 to 1.3e154)")
    return rho


@dataclass(frozen=True)
class KernelSpec:
    """A Matern-family covariance kernel: family name plus range parameter rho.

    rho must be positive with a square that is a normal float, which puts it
    between about 1.5e-154 and 1.3e154.  Every kernel entry is then finite.
    Outside that range the Matern kernels' rho^2 or d^2 / rho^2 can overflow,
    and an infinite factor times exp(-inf) = 0 makes a NaN; the Gaussian and
    exponential kernels keep the same range.
    """

    family: str
    rho: float

    def __post_init__(self):
        family = str(self.family).strip().lower()
        if family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; choose from {KERNEL_FAMILIES}"
            )
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rho", _check_rho(self.rho))


def gram_matrix(spec: KernelSpec, grid: Grid, rows=None) -> np.ndarray:
    """Kernel matrix G[i, j] = C(t_i, t_j) over the grid points.

    All four families are stationary in d = |t - s| and normalized to lie in
    (0, 1], so G is exactly symmetric, has unit diagonal, and is positive
    semi-definite up to round-off.  ``rows``, a sequence of grid indices,
    gives just G[rows, :]: each entry is computed by the same arithmetic, so
    it equals the full matrix's bit for bit.
    """
    t = grid.points
    rows = np.arange(t.size) if rows is None else np.asarray(rows, dtype=np.intp)
    d = np.abs(t[rows][:, None] - t[None, :])
    rho = spec.rho
    if spec.family == "gaussian":
        gram = np.exp(-(d**2) / rho)
    elif spec.family == "matern52":
        r = d / rho
        gram = (1.0 + _SQRT5 * r + 5.0 * d**2 / (3.0 * rho**2)) * np.exp(-_SQRT5 * r)
    elif spec.family == "matern32":
        r = d / rho
        gram = (1.0 + _SQRT3 * r) * np.exp(-_SQRT3 * r)
    else:  # "exponential", the one family left in KERNEL_FAMILIES
        gram = np.exp(-d / rho)
    gram[np.arange(rows.size), rows] = 1.0  # the diagonal entries among the rows
    return gram
