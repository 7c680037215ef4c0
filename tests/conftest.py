import numpy as np
import pytest

from fdpriv import KernelSpec, SpectralBasis, kernel_basis, uniform_grid
from fdpriv.rng import make_rng

#: Spectrum used by the small handcrafted bases in several test modules.
TOY_EIGENVALUES = (0.5, 0.25, 0.12, 0.06, 0.03)


def toy_basis(n_points=40, n_modes=5, seed=7, eigenvalues=TOY_EIGENVALUES) -> SpectralBasis:
    """Handcrafted basis with exactly known eigenvalues.

    Eigenfunctions are sqrt(M) times the columns of a random orthogonal
    matrix, which makes them exactly orthonormal under the uniform weights.
    """
    grid = uniform_grid(n_points)
    q, _ = np.linalg.qr(make_rng(seed).standard_normal((n_points, n_modes)))
    mat = q * np.sqrt(n_points)
    return SpectralBasis(np.asarray(eigenvalues, dtype=float), mat, grid)


def two_point_basis(lam1=0.5, lam2=0.25) -> SpectralBasis:
    """Two-point basis with hand-checkable eigenpairs (1, 1) and (1, -1)."""
    grid = uniform_grid(2)
    mat = np.array([[1.0, 1.0], [1.0, -1.0]])  # columns (1, 1) and (1, -1)
    return SpectralBasis(np.array([lam1, lam2]), mat, grid)


@pytest.fixture(scope="session")
def default_basis() -> SpectralBasis:
    """The default simulation setup: Gaussian kernel, rho=0.001, 100 points."""
    return kernel_basis(KernelSpec("gaussian", 0.001), uniform_grid(100))
