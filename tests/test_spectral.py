import math
import os

import numpy as np
import pytest

from fdpriv import (
    KERNEL_FAMILIES,
    Curve,
    KernelSpec,
    PrivacyBudget,
    SpectralBasis,
    cm_norm_sq,
    coefficients,
    compatibility_check,
    gram_matrix,
    grid_from_points,
    kernel_basis,
    noise_scale,
    reconstruct,
    spectral,
    uniform_grid,
)
from fdpriv.io import write_curves_csv

from conftest import toy_basis, two_point_basis
from oracles import k_gram


def jacobi_eigenvalues(sym: np.ndarray) -> np.ndarray:
    """Brute-force eigenvalue oracle: cyclic Jacobi rotations on a symmetric matrix."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    scale = np.abs(a).max() or 1.0
    for _ in range(100):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def test_decompose_identity_gram_two_points():
    grid = uniform_grid(2)
    spec = KernelSpec("exponential", 1e-3)  # exp(-1000) underflows to 0
    assert np.array_equal(gram_matrix(spec, grid), np.eye(2))
    basis = kernel_basis(spec, grid)
    assert np.allclose(basis.eigenvalues, [0.5, 0.5], rtol=0, atol=1e-15)
    assert basis.m == 2
    # degenerate eigenvalue: compare the span projector, not the vectors
    projector = basis.matrix @ basis.matrix.T @ np.diag(grid.weights)
    assert np.allclose(projector, np.eye(2), atol=1e-12)


def test_decompose_rank_one_gram():
    grid = uniform_grid(2)
    spec = KernelSpec("gaussian", 1e100)  # exp(-1e-100) rounds to 1
    assert np.array_equal(gram_matrix(spec, grid), np.ones((2, 2)))
    basis = kernel_basis(spec, grid)
    assert basis.m == 1
    assert basis.eigenvalues[0] == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(basis.matrix[:, 0], [1.0, 1.0], atol=1e-12)


def test_decompose_default_setup_mode_count(default_basis):
    # 100-point grid, gaussian kernel with rho=0.001: most of the spectrum is
    # numerically alive
    assert 30 <= default_basis.m <= 100


def symmetric_irregular_grid():
    """Irregular points mirrored about 1/2, so they get symmetric trapezoid weights."""
    half = np.array([0.0, 0.07, 0.2, 0.26, 0.41])
    return grid_from_points(np.concatenate([half, [0.5], 1.0 - half[::-1]]))


def test_decompose_matches_jacobi_oracle():
    rng = np.random.default_rng(5)
    grids = []
    for trial in range(10):
        m = int(rng.integers(3, 11))
        pts = np.sort(rng.uniform(0, 1, m))
        while np.any(np.diff(pts) <= 0):
            pts = np.sort(rng.uniform(0, 1, m))
        grids.append(grid_from_points(pts))
    # symmetric grids take the split route
    grids += [uniform_grid(m) for m in range(3, 11)]
    grids.append(symmetric_irregular_grid())
    spec = KernelSpec("matern32", 0.3)
    for grid in grids:
        gram = gram_matrix(spec, grid)
        basis = kernel_basis(spec, grid, tol=1e-12)
        sqrt_w = np.sqrt(grid.weights)
        oracle = jacobi_eigenvalues(sqrt_w[:, None] * gram * sqrt_w[None, :])
        assert np.allclose(
            basis.eigenvalues, oracle[: basis.m], rtol=1e-8, atol=1e-14
        )


def record_eigh_shapes(monkeypatch) -> list:
    """Wrap np.linalg.eigh so that the shapes of the matrices it solves are recorded."""
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    return shapes


def moved_point_grid():
    """The uniform 100-point grid with one interior point moved by 1e-9."""
    points = np.linspace(0.0, 1.0, 100)
    points[33] += 1e-9
    return grid_from_points(points)


@pytest.mark.parametrize(
    "grid, expected",
    [
        (uniform_grid(100), [(50, 50), (50, 50)]),
        (uniform_grid(101), [(51, 51), (50, 50)]),
        (symmetric_irregular_grid(), [(6, 6), (5, 5)]),
        (moved_point_grid(), [(100, 100)]),
    ],
    ids=["uniform-100", "uniform-101", "symmetric-irregular", "moved-point"],
)
def test_decompose_splits_only_centrosymmetric_matrices(monkeypatch, grid, expected):
    shapes = record_eigh_shapes(monkeypatch)
    kernel_basis(KernelSpec("gaussian", 0.001), grid)
    assert shapes == expected


def assert_matches_one_full_eigh(basis, gram, grid, tol=1e-12):
    """Kept count, eigenvalues and kept span of a basis against one full-size eigh."""
    eps = np.finfo(float).eps
    sqrt_w = np.sqrt(grid.weights)
    sym = sqrt_w[:, None] * gram * sqrt_w[None, :]
    evals = np.linalg.eigvalsh(sym)
    if evals[0] > tol * evals[-1]:  # every mode kept: the kept span is the whole space
        evecs = np.empty((grid.size, 0))
    else:
        evals, evecs = np.linalg.eigh(sym)
    lam_max = evals[-1]
    kept = np.nonzero(evals > tol * lam_max)[0][::-1]
    assert basis.m == kept.size
    assert np.abs(basis.eigenvalues - evals[kept]).max() <= 1e-13 * lam_max
    # The kept span is fixed only up to round-off over the gap at the cut
    # (Davis-Kahan): M * eps * lam_max / gap, which is large when the cut
    # falls among eigenvalues of order tol * lam_max.  The error is measured
    # as ||P - P_eigh||_F = sqrt(2) ||V_dropped^T U||_F, which bounds the
    # largest entry of P - P_eigh and costs no M x M product.
    gap = evals[kept[-1]] - evals[kept[-1] - 1] if kept[-1] > 0 else math.inf
    u = sqrt_w[:, None] * basis.matrix
    projector_error = math.sqrt(2.0) * np.linalg.norm(evecs[:, : kept[-1]].T @ u)
    assert projector_error <= 1e-10 + grid.size * eps * lam_max / gap


def switch_off_low_rank_route(monkeypatch):
    monkeypatch.setattr(spectral, "_low_rank_eigh", lambda *args: None)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("m", [2, 3, 100, 101, 1000])
def test_split_route_matches_one_full_eigh(monkeypatch, family, m):
    # Gaussian bases at M = 1000 take the low-rank route, so it is switched
    # off here to keep checking the split route at that size.
    grid = uniform_grid(m)
    for rho in (0.001, 0.1):
        spec = KernelSpec(family, rho)
        switch_off_low_rank_route(monkeypatch)
        shapes = record_eigh_shapes(monkeypatch)
        basis = kernel_basis(spec, grid)
        assert max(shapes) == (m - m // 2, m - m // 2)
        monkeypatch.undo()
        assert_matches_one_full_eigh(basis, gram_matrix(spec, grid), grid)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("m", [200, 500, 1000, 2000])
def test_decompose_matches_one_full_eigh_on_every_route(family, m):
    grid = uniform_grid(m)
    for rho in (0.0005, 0.001, 0.01, 0.1):
        spec = KernelSpec(family, rho)
        assert_matches_one_full_eigh(kernel_basis(spec, grid), gram_matrix(spec, grid), grid)


def jittered_grid(m):
    """An m-point grid with every interior point moved by up to a fifth of a gap."""
    points = np.linspace(0.0, 1.0, m)
    points[1:-1] += np.random.default_rng(9).uniform(-0.2, 0.2, m - 2) / (m - 1)
    return grid_from_points(points)


@pytest.mark.parametrize(
    "family, grid, dense_shapes",
    [
        ("gaussian", uniform_grid(1000), None),
        ("gaussian", jittered_grid(1000), None),
        ("matern52", uniform_grid(1000), [(500, 500), (500, 500)]),
        ("exponential", uniform_grid(1000), [(500, 500), (500, 500)]),
        ("matern52", jittered_grid(1000), [(1000, 1000)]),
        ("exponential", jittered_grid(1000), [(1000, 1000)]),
    ],
    ids=["gaussian", "gaussian-jittered", "matern52", "exponential",
         "matern52-jittered", "exponential-jittered"],
)
def test_low_rank_route_is_taken_only_for_fast_decaying_spectra(
    monkeypatch, family, grid, dense_shapes
):
    shapes = record_eigh_shapes(monkeypatch)
    basis = kernel_basis(KernelSpec(family, 0.001), grid)
    if dense_shapes is None:  # one r x r eigh, r between the kept count and M / 4
        (r, r2), = shapes
        assert r == r2 and basis.m <= r <= grid.size // 4
    else:
        assert shapes == dense_shapes


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("rho", [0.0005, 0.001, 0.002, 0.01, 0.1])
def test_cli_sized_bases_keep_the_split_route(monkeypatch, family, rho):
    # The 100-point default grid is below the low-rank route's minimum size,
    # so its bases, and every output built on them, are those of the split route.
    shapes = record_eigh_shapes(monkeypatch)
    kernel_basis(KernelSpec(family, rho), uniform_grid(100))
    assert shapes == [(50, 50), (50, 50)]


def test_low_rank_route_falls_back_when_tol_is_below_its_round_off_floor(monkeypatch):
    # At tol = 1e-15 the stop would need a residual trace of 1e-17 lam_max,
    # below the round-off floor eps * tr S of the downdated diagonal.
    shapes = record_eigh_shapes(monkeypatch)
    kernel_basis(KernelSpec("gaussian", 0.001), uniform_grid(1000), tol=1e-15)
    assert shapes == [(500, 500), (500, 500)]


def test_low_rank_route_at_a_coarse_cut_keeps_the_dense_modes(monkeypatch):
    grid = uniform_grid(1000)
    spec = KernelSpec("gaussian", 0.001)
    shapes = record_eigh_shapes(monkeypatch)
    basis = kernel_basis(spec, grid, tol=0.5)
    (r, _), = shapes
    assert r < grid.size // 4
    monkeypatch.undo()
    switch_off_low_rank_route(monkeypatch)
    dense = kernel_basis(spec, grid, tol=0.5)
    assert basis.m == dense.m
    assert np.abs(basis.eigenvalues - dense.eigenvalues).max() <= 1e-13 * dense.eigenvalues[0]
    assert np.abs(basis.matrix - dense.matrix).max() <= 1e-8
    assert_matches_one_full_eigh(basis, gram_matrix(spec, grid), grid, tol=0.5)


@pytest.mark.parametrize(
    "family, grid, route",
    [
        ("gaussian", uniform_grid(1000), "low-rank"),
        ("gaussian", jittered_grid(1000), "low-rank"),
        ("gaussian", uniform_grid(100), "split"),
        ("matern52", uniform_grid(1000), "split"),
        ("exponential", jittered_grid(1000), "full"),
        ("matern32", jittered_grid(100), "full"),
    ],
    ids=["gaussian-1000", "gaussian-jittered-1000", "gaussian-100", "matern52-1000",
         "exponential-jittered-1000", "matern32-jittered-100"],
)
def test_kernel_basis_equals_decompose_of_the_gram_matrix_bit_for_bit(
    monkeypatch, family, grid, route
):
    spec = KernelSpec(family, 0.001)
    shapes = record_eigh_shapes(monkeypatch)
    basis = kernel_basis(spec, grid)
    m, h = grid.size, grid.size // 2
    if route == "low-rank":  # one r x r eigh
        (r, _), = shapes
        assert r <= m // 4
    else:
        assert shapes == ([(m - h, m - h), (h, h)] if route == "split" else [(m, m)])
    assert basis.spec == spec
    gram = gram_matrix(spec, grid)  # every route reads its kernel rows from this matrix
    monkeypatch.setattr(spectral, "gram_matrix",
                        lambda spec, grid, rows=None: gram if rows is None else gram[rows])
    dense = kernel_basis(spec, grid)
    assert np.array_equal(basis.eigenvalues.view(np.uint64), dense.eigenvalues.view(np.uint64))
    assert np.array_equal(basis.matrix.view(np.uint64), dense.matrix.view(np.uint64))


def record_gram_requests(monkeypatch) -> list:
    """Wrap spectral.gram_matrix, which kernel_basis calls; record each request's rows (None: all)."""
    requests = []

    def recording_gram_matrix(spec, grid, rows=None):
        requests.append(rows)
        return gram_matrix(spec, grid, rows)

    monkeypatch.setattr(spectral, "gram_matrix", recording_gram_matrix)
    return requests


def test_low_rank_kernel_basis_reads_single_kernel_rows_only(monkeypatch):
    grid = uniform_grid(1000)
    requests = record_gram_requests(monkeypatch)
    basis = kernel_basis(KernelSpec("gaussian", 0.001), grid)
    assert all(rows is not None and len(rows) == 1 for rows in requests)
    assert basis.m <= len(requests) <= grid.size // 4
    assert len({rows[0] for rows in requests}) == len(requests)  # no row read twice


def test_abandoned_low_rank_kernel_basis_forms_the_gram_matrix_once(monkeypatch):
    grid = uniform_grid(1000)
    requests = record_gram_requests(monkeypatch)
    kernel_basis(KernelSpec("matern52", 0.001), grid)
    assert requests[-1] is None and requests.count(None) == 1
    # abandoned at the first decay check, a quarter of the rank budget M / 4
    assert 0 < len(requests) - 1 <= grid.size // 16


def test_low_rank_route_gives_up_at_its_first_failed_decay_check(monkeypatch):
    # Matern 5/2 at rho = 1 passes the checks at 2/8 and 4/8 of the rank
    # budget M / 4 = 250 and fails the one at 5/8, so it reads 156 rows, not 250.
    requests = record_gram_requests(monkeypatch)
    kernel_basis(KernelSpec("matern52", 1.0), uniform_grid(1000))
    assert len(requests) - 1 == 5 * 250 // 8 and requests[-1] is None


def test_low_rank_route_that_reaches_its_rank_budget_gives_the_dense_basis(monkeypatch):
    # Matern 5/2 at rho = 1.72 passes every decay check, so the route reads a
    # row per step up to its whole budget of M / 4 before it gives up.
    spec, grid = KernelSpec("matern52", 1.72), uniform_grid(1000)
    requests = record_gram_requests(monkeypatch)
    basis = kernel_basis(spec, grid)
    *rows, full = requests
    assert all(len(row) == 1 for row in rows) and full is None
    assert len(rows) == grid.size // spectral._LOW_RANK_RANK_SHARE
    monkeypatch.undo()
    switch_off_low_rank_route(monkeypatch)
    dense = kernel_basis(spec, grid)
    assert np.array_equal(basis.eigenvalues, dense.eigenvalues)
    assert np.array_equal(basis.matrix, dense.matrix)


def test_low_rank_route_whose_cholesky_qr_fails_gives_the_dense_basis(monkeypatch):
    # Gaussian rho = 0.001 takes the low-rank route at M = 1000; a failing
    # Cholesky QR of its factor sends it back to the dense route.
    spec, grid = KernelSpec("gaussian", 0.001), uniform_grid(1000)
    low_rank = kernel_basis(spec, grid)
    calls = []

    def failing_cholesky(matrix):
        calls.append(matrix.shape)
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    fallback = kernel_basis(spec, grid)
    monkeypatch.undo()
    assert len(calls) == 1  # the first of its two passes
    switch_off_low_rank_route(monkeypatch)
    dense = kernel_basis(spec, grid)
    assert np.array_equal(fallback.eigenvalues, dense.eigenvalues)
    assert np.array_equal(fallback.matrix, dense.matrix)
    assert not np.array_equal(fallback.matrix, low_rank.matrix)


@pytest.mark.parametrize("grid", [uniform_grid(100), jittered_grid(100), uniform_grid(1000)],
                         ids=["split", "full", "low-rank"])
def test_kernel_basis_matrix_is_c_ordered_on_every_route(grid):
    # coefficients and reconstruct multiply by this matrix, and BLAS rounds
    # differently by layout, so every route hands back the same one.
    assert kernel_basis(KernelSpec("gaussian", 0.001), grid).matrix.flags.c_contiguous


@pytest.mark.parametrize("tol", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_kernel_basis_refuses_a_tol_outside_the_unit_interval(tol):
    with pytest.raises(ValueError, match="truncation tol must lie in"):
        kernel_basis(KernelSpec("gaussian", 0.1), uniform_grid(10), tol)


def test_decompose_reconstructs_gram_at_full_rank(default_basis):
    gram = gram_matrix(KernelSpec("gaussian", 0.001), default_basis.grid)
    recon = default_basis.matrix @ (
        default_basis.eigenvalues[:, None] * default_basis.matrix.T
    )
    assert np.abs(recon - gram).max() <= 1e-6


def test_decompose_eigenfunctions_orthonormal(default_basis):
    overlap = default_basis.matrix.T @ (
        default_basis.grid.weights[:, None] * default_basis.matrix
    )
    assert np.abs(overlap - np.eye(default_basis.m)).max() <= 1e-8


def test_decompose_sign_convention(default_basis):
    grid = uniform_grid(5)
    for basis in (kernel_basis(KernelSpec("gaussian", 0.1), grid), default_basis):
        for j in range(basis.m):
            col = basis.matrix[:, j]
            lead = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0][0]
            assert col[lead] > 0


@pytest.mark.parametrize("eigenvalues,matrix,name", [
    ([10**400], [[1], [1]], "eigenvalues"),
    ([0.5], [[10**400], [1]], "matrix"),
], ids=["eigenvalues", "matrix"])
def test_spectral_basis_refuses_an_integer_too_large_for_a_float(eigenvalues, matrix, name):
    with pytest.raises(ValueError, match=f"{name} has an entry too large to be represented"):
        SpectralBasis(eigenvalues, matrix, uniform_grid(2))


@pytest.mark.parametrize("call,name", [
    (lambda basis: grid_from_points([0, 10**400]), "points"),
    (lambda basis: reconstruct([10**400] + [0] * (basis.m - 1), basis), "coefficients"),
    (lambda basis: cm_norm_sq([10**400] + [0] * (basis.m - 1), basis), "coefficients"),
    (lambda basis: noise_scale(PrivacyBudget(1.0, 0.1), 10**400), "delta_sq"),
    (lambda basis: write_curves_csv(os.devnull, basis.grid,
                                    [[10**400] + [0] * (basis.grid.size - 1)]), "rows"),
], ids=["grid_from_points", "reconstruct", "cm_norm_sq", "noise_scale", "write_curves_csv"])
def test_array_and_scalar_arguments_refuse_an_integer_too_large_for_a_float(call, name):
    with pytest.raises(ValueError, match=f"{name} .*too large to be represented"):
        call(toy_basis())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,name", [
    (lambda basis: reconstruct([math.inf] + [0.0] * (basis.m - 1), basis), "coefficients"),
    (lambda basis: cm_norm_sq([math.nan] + [0.0] * (basis.m - 1), basis), "coefficients"),
    (lambda basis: write_curves_csv(os.devnull, basis.grid,
                                    [[math.nan] + [0.0] * (basis.grid.size - 1)]), "rows"),
    (lambda basis: SpectralBasis(basis.eigenvalues, np.full_like(basis.matrix, math.nan),
                                 basis.grid), "matrix"),
], ids=["reconstruct", "cm_norm_sq", "write_curves_csv", "spectral_basis"])
def test_array_arguments_refuse_an_entry_that_is_not_finite(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        call(toy_basis())


def test_basis_construction_rejects_bad_inputs():
    grid = uniform_grid(2)
    good = np.array([[1.0, 1.0], [1.0, -1.0]])  # columns (1, 1) and (1, -1)
    basis = SpectralBasis(np.array([0.5, 0.25]), good, grid)
    assert basis.matrix is not good and not basis.matrix.flags.writeable
    with pytest.raises(ValueError):  # not orthonormal under the weights
        SpectralBasis(np.array([0.5, 0.25]), good[:, [0, 0]], grid)
    with pytest.raises(ValueError, match="orthonormal"):  # off by 1e-7, past the 1e-8 bound
        SpectralBasis(np.array([0.5, 0.25]), good * [1.0, 1.0 + 5e-8], grid)
    SpectralBasis(np.array([0.5, 0.25]), good * [1.0, 1.0 + 1e-10], grid)
    with pytest.raises(ValueError):  # increasing eigenvalues
        SpectralBasis(np.array([0.25, 0.5]), good, grid)
    with pytest.raises(ValueError):  # non-positive eigenvalue
        SpectralBasis(np.array([0.5, 0.0]), good, grid)
    with pytest.raises(ValueError):  # count mismatch
        SpectralBasis(np.array([0.5]), good, grid)
    with pytest.raises(ValueError):  # columns sampled on a 3-point grid
        SpectralBasis(np.array([0.5]), np.ones((3, 1)), grid)
    with pytest.raises(ValueError, match="need at least one eigenvalue"):
        SpectralBasis(np.array([]), np.empty((2, 0)), grid)
    with pytest.raises(ValueError, match="more eigenpairs than grid points"):
        SpectralBasis(np.array([0.5, 0.25, 0.125]), np.ones((2, 3)), grid)


def test_coefficients_orthonormality():
    basis = toy_basis()
    c = coefficients(Curve(basis.matrix[:, 0], basis.grid), basis)
    expected = np.zeros(basis.m)
    expected[0] = 1.0
    assert np.allclose(c, expected, atol=1e-12)
    zero = Curve(np.zeros(basis.grid.size), basis.grid)
    assert np.all(coefficients(zero, basis) == 0.0)


def test_coefficients_linear_combination():
    basis = toy_basis()
    combo = Curve(
        2.0 * basis.matrix[:, 0] + 3.0 * basis.matrix[:, 1], basis.grid
    )
    got = coefficients(combo, basis)
    # independent oracle: direct weighted dot products
    w = basis.grid.weights
    direct = np.array(
        [np.sum(w * combo.values * basis.matrix[:, j]) for j in range(basis.m)]
    )
    assert np.allclose(got, direct, atol=1e-14)
    assert np.allclose(got, [2.0, 3.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_coefficients_grid_mismatch_rejected():
    basis = toy_basis()
    other = Curve(np.zeros(10), uniform_grid(10))
    with pytest.raises(ValueError):
        coefficients(other, basis)


def test_reconstruct_round_trip():
    basis = toy_basis()
    v2 = Curve(basis.matrix[:, 1], basis.grid)
    back = reconstruct(coefficients(v2, basis), basis)
    assert np.abs(back.values - v2.values).max() <= 1e-10
    assert np.all(reconstruct(np.zeros(basis.m), basis).values == 0.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.normal(size=basis.m)
        assert np.allclose(coefficients(reconstruct(c, basis), basis), c, atol=1e-8)
    with pytest.raises(ValueError):
        reconstruct(np.zeros(basis.m + 1), basis)


def test_cm_norm_sq_examples():
    basis = two_point_basis(0.5, 0.25)
    e1 = np.array([1.0, 0.0])
    assert cm_norm_sq(e1, basis) == pytest.approx(1.0 / 0.5, rel=1e-14)
    assert cm_norm_sq(np.zeros(2), basis) == 0.0
    # lambda = (0.5, 0.25): 1/0.5 + 1/0.25 = 6
    assert cm_norm_sq(np.array([1.0, 1.0]), basis) == pytest.approx(6.0, rel=1e-14)


def test_cm_norm_sq_quadratic_form_properties():
    basis = toy_basis()
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = rng.normal(size=basis.m)
        d = rng.normal(size=basis.m)
        a = rng.uniform(0.1, 5.0)
        assert cm_norm_sq(a * c, basis) == pytest.approx(
            a**2 * cm_norm_sq(c, basis), rel=1e-12
        )
        lhs = cm_norm_sq(c + d, basis) + cm_norm_sq(c - d, basis)
        rhs = 2.0 * cm_norm_sq(c, basis) + 2.0 * cm_norm_sq(d, basis)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_cm_norm_reproducing_identity():
    # h = C(g) has coefficients lambda_j g_j and |h|^2 = sum lambda_j g_j^2
    basis = toy_basis()
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.normal(size=basis.m)
        h_coeffs = basis.eigenvalues * g
        assert cm_norm_sq(h_coeffs, basis) == pytest.approx(
            float(np.sum(basis.eigenvalues * g**2)), rel=1e-12
        )


def test_compatibility_check_in_span():
    basis = toy_basis()
    report = compatibility_check(Curve(basis.matrix[:, 0], basis.grid), basis)
    assert report.compatible and bool(report)
    assert report.residual_fraction <= 1e-20
    zero = Curve(np.zeros(basis.grid.size), basis.grid)
    assert compatibility_check(zero, basis).compatible
    with pytest.raises(ValueError, match="curve grid does not match the basis grid"):
        compatibility_check(Curve(np.ones(10), uniform_grid(10)), basis)


def test_compatibility_check_detects_off_span():
    basis = toy_basis()  # 5 modes on a 40-point grid
    rng = np.random.default_rng(21)
    raw = rng.normal(size=basis.grid.size)
    proj = basis.matrix @ coefficients(Curve(raw, basis.grid), basis)
    residual = Curve(raw - proj, basis.grid)
    report = compatibility_check(residual, basis)
    assert not report.compatible
    assert report.residual_fraction > 0.99


@pytest.mark.filterwarnings("error")
def test_compatibility_check_does_not_depend_on_the_curves_scale():
    grid = uniform_grid(100)
    basis = kernel_basis(KernelSpec("gaussian", 0.1), grid)  # 16 modes
    alternating = Curve(np.where(np.arange(grid.size) % 2, -1.0, 1.0), grid)
    unit = compatibility_check(alternating, basis)
    assert not unit.compatible and unit.residual_fraction > 0.98
    exact = compatibility_check(Curve(2.0**530 * alternating.values, grid), basis)
    assert exact == unit  # a power of two rescales exactly
    for scale in (1e160, 1e-160, 1e300):
        report = compatibility_check(Curve(scale * alternating.values, grid), basis)
        assert not report.compatible
        assert report.residual_fraction == pytest.approx(unit.residual_fraction, rel=1e-12)
    in_span = reconstruct(np.linspace(1.0, 2.0, basis.m), basis)
    assert compatibility_check(Curve(1e160 * in_span.values, grid), basis).compatible


def test_k_gram_and_point_eval():
    basis = toy_basis()
    f1 = basis.matrix[3]
    gram = k_gram(np.stack([f1, f1]), basis)
    expected = float(np.sum(basis.eigenvalues * f1**2))
    assert np.allclose(gram, expected, rtol=1e-12)
