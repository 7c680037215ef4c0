"""Empirically auditing the privacy guarantee.

The audit replays the differential-privacy argument by Monte Carlo: draw
the privacy loss of releases centered at one summary, measure how often it
exceeds epsilon against an adjacent summary, and compare that rate with
delta.  The loss is exactly N(mu, 2 mu), mu = D^2 / (2 sigma^2), so each
report also carries the exact rate the draws estimate.  Correctly calibrated
noise passes with a wide margin; noise divided by 100 fails decisively.
"""

import numpy as np

from fdpriv import (
    KernelSpec,
    PrivacyBudget,
    cm_norm_sq,
    dp_audit,
    kernel_basis,
    noise_scale,
    reconstruct,
    uniform_grid,
)

grid = uniform_grid(50)
basis = kernel_basis(KernelSpec("matern32", 0.05), grid)
budget = PrivacyBudget(epsilon=1.0, delta=0.1)

# an adjacent pair of summaries: same curve with one record's influence moved
rng = np.random.default_rng(3)
cd = 0.3 * rng.normal(size=basis.m) * basis.eigenvalues  # smooth-ish summary
cdp = cd.copy()
cdp[:5] += 0.02
theta_d = reconstruct(cd, basis)
theta_dp = reconstruct(cdp, basis)

pair_delta_sq = cm_norm_sq(cd - cdp, basis)
sigma_sq = noise_scale(budget, pair_delta_sq)
print(f"pair distance delta_sq = {pair_delta_sq:.4e}")
print(f"calibrated sigma_sq    = {sigma_sq:.4e}")

calibrated = dp_audit(theta_d, theta_dp, basis, budget, sigma_sq,
                      n_samples=100_000, seed=0)
print(f"\ncalibrated audit: rate = {calibrated.empirical_violation_rate:.5f} "
      f"+- {calibrated.mc_stderr:.5f} (exact {calibrated.exact_violation_rate:.5f}), "
      f"pass = {calibrated.passed}")

weak = dp_audit(theta_d, theta_dp, basis, budget, sigma_sq / 100.0,
                n_samples=100_000, seed=1)
print(f"sigma_sq/100 audit: rate = {weak.empirical_violation_rate:.5f} "
      f"(exact {weak.exact_violation_rate:.5f}), pass = {weak.passed}, "
      f"undercalibrated flag = {weak.undercalibrated}")

# auditing the other direction (summaries swapped) tells the same story
swapped = dp_audit(theta_dp, theta_d, basis, budget, sigma_sq,
                   n_samples=100_000, seed=2)
print(f"swapped direction: rate = {swapped.empirical_violation_rate:.5f} "
      f"(exact {swapped.exact_violation_rate:.5f}), pass = {swapped.passed}")
