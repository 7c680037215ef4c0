import math
import re
import warnings

import numpy as np
import pytest

from fdpriv import (
    Curve,
    Grid,
    KERNEL_FAMILIES,
    KernelSpec,
    gram_matrix,
    grid_from_points,
    uniform_grid,
)


def test_uniform_grid_weights_are_one_over_m():
    grid = uniform_grid(100)
    assert grid.size == 100
    assert np.all(grid.weights == 1.0 / 100)
    assert grid.points[0] == 0.0 and grid.points[-1] == 1.0


def test_grid_from_points_trapezoid_for_nonuniform():
    pts = np.array([0.0, 0.1, 0.4, 1.0])
    grid = grid_from_points(pts)
    expected = np.array([0.05, 0.2, 0.45, 0.3])
    assert np.allclose(grid.weights, expected, rtol=0, atol=1e-15)
    assert np.all(grid.weights > 0)


def test_grid_from_points_weights_are_continuous_at_equispaced_points():
    # equispaced points get (last - first) / M each, so a copy with one point
    # moved off the lattice (trapezoid weights) keeps nearly the same total
    points = np.linspace(0.0, 0.2, 5)
    moved = points.copy()
    moved[2] += 1e-6
    even, uneven = grid_from_points(points), grid_from_points(moved)
    assert np.all(even.weights == 0.2 / 5)
    assert even.weights.sum() == pytest.approx(uneven.weights.sum(), rel=1e-12)
    # on [0, 1] that is 1/M exactly, so every uniform grid reads back as written
    for m in (2, 3, 7, 100, 1000):
        assert grid_from_points(uniform_grid(m).points).matches(uniform_grid(m))


def test_norm_sq_is_the_weighted_sum_along_the_last_axis():
    grid = grid_from_points(np.array([0.0, 0.1, 0.4, 1.0]))
    stack = np.random.default_rng(3).normal(size=(2, 3, 4))
    got = grid.norm_sq(stack)
    assert got.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert got[i, j] == np.sum(grid.weights * stack[i, j] ** 2)
            assert math.sqrt(got[i, j]) == Curve(stack[i, j], grid).norm()


@pytest.mark.parametrize(
    "points,weights",
    [
        ([0.5, 0.2], [0.5, 0.5]),        # not increasing
        ([-0.1, 0.5], [0.5, 0.5]),       # below 0
        ([0.1, 1.5], [0.5, 0.5]),        # above 1
        ([0.1, 0.5], [0.5, 0.0]),        # non-positive weight
        ([0.1, 0.5], [0.5]),             # length mismatch
        ([0.5], [1.0]),                  # fewer than two points
    ],
)
def test_grid_invariants_rejected(points, weights):
    with pytest.raises(ValueError):
        Grid(np.asarray(points, float), np.asarray(weights, float))


def test_curve_validation():
    grid = uniform_grid(4)
    with pytest.raises(ValueError):
        Curve(np.array([1.0, 2.0]), grid)
    with pytest.raises(ValueError):
        Curve(np.array([1.0, np.inf, 0.0, 0.0]), grid)


@pytest.mark.parametrize("points,weights,name", [
    ([0, 10**400], [1, 1], "points"),
    ([0, 1], [1, 10**400], "weights"),
], ids=["points", "weights"])
def test_grid_refuses_an_integer_too_large_for_a_float(points, weights, name):
    with pytest.raises(ValueError, match=f"{name} has an entry too large to be represented"):
        Grid(points, weights)


def test_curve_refuses_an_integer_too_large_for_a_float():
    with pytest.raises(ValueError, match="values has an entry too large to be represented"):
        Curve([10**400] + [0] * 9, uniform_grid(10))


def test_curve_and_grid_copy_the_callers_arrays():
    points, weights, values = np.linspace(0.0, 1.0, 3), np.full(3, 1.0 / 3), np.zeros(3)
    grid = Grid(points, weights)
    curve = Curve(values, grid)
    points[1], weights[1], values[0] = 0.25, 0.5, 1.0  # still writable
    assert grid.points[1] == 0.5 and grid.weights[1] == 1.0 / 3
    assert curve.values[0] == 0.0
    assert not (grid.points.flags.writeable or curve.values.flags.writeable)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("brownian", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", 0.0)
    assert KernelSpec("Gaussian", 1.0).family == "gaussian"


#: The least and the largest rho whose square is a normal float.
RHO_MIN, RHO_MAX = 1.4916681462400413e-154, 1.3407807929942596e154


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernels_are_finite_at_both_ends_of_the_rho_range(family):
    grid = grid_from_points([0.0, 1e-300, 1e-150, 1e-10, 0.5, 1.0])  # gaps from 1e-300 to 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or a NaN in numpy warns
        for rho in (RHO_MIN, RHO_MAX):
            spec = KernelSpec(family, rho)
            assert spec.rho == rho
            gram = gram_matrix(spec, grid)
            assert np.all((0.0 <= gram) & (gram <= 1.0))
        assert np.all(gram_matrix(KernelSpec(family, RHO_MAX), grid) == 1.0)


@pytest.mark.parametrize(
    "rho",
    [np.nextafter(RHO_MIN, 0.0), np.nextafter(RHO_MAX, math.inf), 1e-310, 1e-200, 1e300,
     0.0, -1.0, math.nan, math.inf],
)
def test_kernel_spec_refuses_a_rho_whose_square_is_not_a_normal_float(rho):
    for family in KERNEL_FAMILIES:
        with pytest.raises(ValueError, match=re.escape(f"rho={float(rho)} must be positive")):
            KernelSpec(family, rho)


def test_kernel_spec_refuses_an_integer_too_large_for_a_float():
    with pytest.raises(ValueError, match="rho is too large to be represented as a float"):
        KernelSpec("gaussian", 10**400)


def _entry(spec: KernelSpec, t: float, s: float) -> float:
    """C(t, s) read off the Gram matrix of the two-point grid {t, s}."""
    return gram_matrix(spec, grid_from_points([t, s]))[0, 1]


def test_gram_matrix_exponential_closed_form():
    got = _entry(KernelSpec("exponential", 0.5), 0.2, 0.7)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_gram_matrix_matern32_closed_form():
    got = _entry(KernelSpec("matern32", 0.5), 0.0, 0.5)
    expected = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
    assert got == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(0.4833577, abs=1e-6)


def test_gram_matrix_matern52_closed_form():
    d, rho = 0.3, 0.7
    expected = (
        1.0 + math.sqrt(5.0) * d / rho + 5.0 * d**2 / (3.0 * rho**2)
    ) * math.exp(-math.sqrt(5.0) * d / rho)
    assert _entry(KernelSpec("matern52", rho), 0.1, 0.4) == pytest.approx(expected, rel=1e-15)


def test_grid_rejects_nonfinite_points():
    with pytest.raises(ValueError, match="finite"):
        grid_from_points([0.0, float("nan")])


def test_kernel_symmetry_and_range():
    rng = np.random.default_rng(123)
    for family in KERNEL_FAMILIES:
        spec = KernelSpec(family, float(10 ** rng.uniform(-3, 0.3)))
        gram = gram_matrix(spec, grid_from_points(np.sort(rng.uniform(0, 1, 50))))
        assert np.array_equal(gram, gram.T)
        off_diagonal = gram[~np.eye(50, dtype=bool)]
        assert np.all((0.0 < off_diagonal) & (off_diagonal < 1.0))


def test_gram_matrix_two_point_exponential():
    grid = uniform_grid(2)
    gram = gram_matrix(KernelSpec("exponential", 1.0), grid)
    e1 = math.exp(-1.0)
    assert np.array_equal(gram, np.array([[1.0, e1], [e1, 1.0]]))


def test_gram_matrix_exactly_symmetric_unit_diagonal():
    rng = np.random.default_rng(7)
    pts = np.sort(rng.uniform(0, 1, 10))
    grid = grid_from_points(pts)
    for family in KERNEL_FAMILIES:
        gram = gram_matrix(KernelSpec(family, 0.2), grid)
        assert np.array_equal(gram, gram.T)
        assert np.all(np.diag(gram) == 1.0)


def test_gram_matrix_positive_semidefinite_up_to_roundoff():
    rng = np.random.default_rng(99)
    for family in KERNEL_FAMILIES:
        for m in (20, 100, 200):
            pts = np.sort(rng.uniform(0, 1, m))
            while np.any(np.diff(pts) <= 0):
                pts = np.sort(rng.uniform(0, 1, m))
            grid = grid_from_points(pts)
            evals = np.linalg.eigvalsh(gram_matrix(KernelSpec(family, 0.05), grid))
            assert evals.min() >= -1e-8 * evals.max()


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_gram_matrix_rows_are_the_full_matrix_rows_bit_for_bit(family):
    jittered = np.linspace(0.0, 1.0, 301)
    jittered[1:-1] += np.random.default_rng(3).uniform(-0.2, 0.2, 299) / 300
    for grid in (uniform_grid(301), grid_from_points(jittered)):
        for rho in (0.001, 0.1):
            spec = KernelSpec(family, rho)
            full = gram_matrix(spec, grid)
            for rows in ([0], [150], [300], [7, 7, 0, 299], list(range(0, 301, 3))):
                part = gram_matrix(spec, grid, rows=rows)
                assert part.shape == (len(rows), grid.size)
                assert np.array_equal(part.view(np.uint64), full[rows].view(np.uint64))
                assert np.all(part[np.arange(len(rows)), rows] == 1.0)
