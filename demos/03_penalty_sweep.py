"""The privacy-utility sweet spot as the penalty varies.

Heavier smoothing hurts the estimate but slashes the noise needed for the
same privacy budget.  Tabulating both errors against phi reveals the
trade-off; the total release error is minimized strictly inside the range.
"""

from fdpriv import (
    KernelSpec,
    PrivacyBudget,
    SimConfig,
    SmootherConfig,
    calibrate,
    default_mean,
    kernel_basis,
    kl_simulate,
    noise_energy,
    penalized_mean,
    uniform_grid,
)

grid = uniform_grid(100)
basis = kernel_basis(KernelSpec("gaussian", 0.001), grid)
data = kl_simulate(SimConfig(n=25, p=4.0, seed=1), basis)
mu = default_mean("sin_default", grid)
budget = PrivacyBudget(1.0, 0.1)

# The noise is mean-zero, so the expected release error is exactly the
# smoothing error plus the noise energy sigma^2 * sum(lambda).
print(f"{'phi':>8s} {'|muhat-mu|^2':>14s} {'E|rel-muhat|^2':>15s} {'E|rel-mu|^2':>13s}")
for phi in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0):
    mu_hat = penalized_mean(data, basis, SmootherConfig(phi))
    calib = calibrate(basis, phi, 1.0, data.tau, data.n, budget)
    err_smooth = float(grid.norm_sq(mu_hat.values - mu.values))
    err_noise = noise_energy(basis, calib.sigma_sq)
    print(f"{phi:8.0e} {err_smooth:14.4e} {err_noise:15.4e} {err_smooth + err_noise:13.4e}")

print("\nsmall phi: the estimate is faithful but the noise swamps it;")
print("large phi: almost no noise but the estimate has been flattened.")
print("(the same table comes from:  fdpriv sweep --sweep phi "
      "--values 1e-6,1e-4,1e-2,1e-1,1 --output sweep.csv)")
