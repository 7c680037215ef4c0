"""Covariance kernels, their spectra, and the Cameron-Martin norm.

The noise a release adds is a Gaussian process with a Matern-family
covariance.  Everything downstream (sensitivity, noise scale, compatibility)
is computed in the eigenbasis of that covariance on the grid, so this demo
walks through exactly that machinery.
"""

import numpy as np

from fdpriv import (
    KernelSpec,
    KERNEL_FAMILIES,
    cm_norm_sq,
    coefficients,
    compatibility_check,
    gram_matrix,
    grid_from_points,
    kernel_basis,
    reconstruct,
    uniform_grid,
)

grid = uniform_grid(100)

print("kernel values at d = |t - s| = 0.1, rho = 0.1")
pair = grid_from_points([0.0, 0.1])
for family in KERNEL_FAMILIES:
    c01 = gram_matrix(KernelSpec(family, 0.1), pair)[0, 1]
    print(f"  {family:12s} C(0.0, 0.1) = {c01:.6f}")

# The rough kernel used by the default simulation setup: rho = 0.001 keeps
# most of the 100-mode spectrum numerically alive.
spec = KernelSpec("gaussian", 0.001)
basis = kernel_basis(spec, grid)
print(f"\ngaussian rho=0.001 on a 100-point grid: {basis.m} retained modes")
print(f"  lambda_1 = {basis.eigenvalues[0]:.5f}, lambda_m = {basis.eigenvalues[-1]:.2e}")
print(f"  trace (= integral of C(t,t)) = {basis.eigenvalues.sum():.6f}")

# Eigenfunctions are orthonormal in the weighted inner product, so coefficient
# transforms round-trip exactly on the span.
c = np.zeros(basis.m)
c[:3] = [1.0, -0.5, 0.25]
curve = reconstruct(c, basis)
back = coefficients(curve, basis)
print(f"\ncoefficient round trip error: {np.abs(back - c).max():.2e}")

# The Cameron-Martin norm weights coefficients by 1/lambda_j: energy sitting
# on small eigenvalues is expensive.  A curve built from the 80th mode has a
# much larger norm than the same energy on the 1st mode.
e1, e80 = np.zeros(basis.m), np.zeros(basis.m)
e1[0] = 1.0
e80[79] = 1.0
print("\nCameron-Martin norms of unit-energy curves:")
print(f"  mode 1:  {cm_norm_sq(e1, basis):.4f}")
print(f"  mode 80: {cm_norm_sq(e80, basis):.4f}")

# A smoother kernel (rho = 0.1) keeps only a handful of modes; anything
# outside that span is incompatible and cannot be privatized with its noise.
smooth_basis = kernel_basis(KernelSpec("gaussian", 0.1), grid)
print(f"\ngaussian rho=0.1 keeps {smooth_basis.m} modes")
wiggly = reconstruct(np.eye(basis.m)[40], basis)  # 41st mode of the rough basis
report = compatibility_check(wiggly, smooth_basis)
print(f"  41st rough mode vs smooth basis: compatible={report.compatible}, "
      f"residual fraction={report.residual_fraction:.2e}")

gram = gram_matrix(spec, grid)
print(f"\ngram matrix: symmetric={np.array_equal(gram, gram.T)}, "
      f"unit diagonal={np.all(np.diag(gram) == 1.0)}")
