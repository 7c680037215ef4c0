"""End-to-end private release of a mean curve.

Simulate a sample, smooth it with the penalized RKHS estimator, bound the
sensitivity, calibrate Gaussian-process noise to an (epsilon, delta) budget,
and release.  Also shows the refusal path for a summary the noise cannot
protect, and post-processing of the released curve.
"""

import numpy as np

from fdpriv import (
    Curve,
    KernelSpec,
    PrivacyBudget,
    PrivacyRefusalError,
    SimConfig,
    SmootherConfig,
    calibrate,
    default_mean,
    kernel_basis,
    kl_simulate,
    noise_energy,
    penalized_mean,
    release_function,
    uniform_grid,
)

grid = uniform_grid(100)
basis = kernel_basis(KernelSpec("gaussian", 0.001), grid)

# default study setup: 25 curves around 0.1 sin(pi t)
data = kl_simulate(SimConfig(n=25, p=4.0, seed=42), basis)
mu = default_mean("sin_default", grid)
print(f"simulated {data.n} curves, realized norm bound tau = {data.tau:.4f}")

phi, eta = 0.01, 1.0
mu_hat = penalized_mean(data, basis, SmootherConfig(phi, eta))
err = float(grid.norm_sq(mu_hat.values - mu.values))
print(f"penalized mean at phi={phi}: squared L2 error vs truth = {err:.3e}")

budget = PrivacyBudget(epsilon=1.0, delta=0.1)
calib = calibrate(basis, phi, eta, data.tau, data.n, budget)
print(f"sensitivity bound delta_sq = {calib.delta_sq:.4e}")
print(f"noise variance sigma_sq   = {calib.sigma_sq:.4e}")

release = release_function(mu_hat, basis, calib, seed=7)
realized_energy = float(grid.norm_sq(release.curve.values - mu_hat.values))
print(f"released curve; realized noise energy = {realized_energy:.4e} "
      f"(expected sigma_sq * trace = {noise_energy(basis, calib.sigma_sq):.4e})")
print(f"provenance: {release.meta.as_dict()}")

# post-processing is free: any transform of the released curve keeps the
# guarantee -- its values at grid points, its norm, its derivative
rows = [0, 49, 99]
eval_points = grid.points[rows]
evaluations = release.curve.values[rows]
print(f"\nsanitized evaluations at t = {np.round(eval_points, 3)}: "
      f"{np.round(evaluations, 4)}")

deriv = np.gradient(release.curve.values, grid.points)
print(f"released L2 norm = {release.curve.norm():.4f}")
print(f"released derivative range = "
      f"[{deriv.min():.2f}, {deriv.max():.2f}]")

# the raw sample mean has energy outside the basis span (it was never
# smoothed), so releasing it is refused outright
raw_mean = Curve(data.values.mean(axis=0), grid)
smooth_basis = kernel_basis(KernelSpec("gaussian", 0.1), grid)
smooth_calib = calibrate(smooth_basis, phi, eta, data.tau, data.n, budget)
try:
    release_function(raw_mean, smooth_basis, smooth_calib, seed=0)
except PrivacyRefusalError as exc:
    print(f"\nrefused as expected: {exc}")
