"""Auditing the privacy guarantee.

The privacy loss of releases centered at one summary, against an adjacent
summary, is exactly N(mu, 2 mu), mu = D^2 / (2 sigma^2).  The audit passes
when that law's tail above epsilon is at most delta, and shows beside it
the rate at which drawn losses exceed epsilon, a Monte-Carlo estimate of the
same tail.  Correctly calibrated noise passes with a wide margin; noise
divided by 100 fails decisively.
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
print(f"\ncalibrated audit: exact = {calibrated.exact_violation_rate:.5f} "
      f"(Monte Carlo {calibrated.empirical_violation_rate:.5f}), pass = {calibrated.passed}")

weak = dp_audit(theta_d, theta_dp, basis, budget, sigma_sq / 100.0,
                n_samples=100_000, seed=1)
print(f"sigma_sq/100 audit: exact = {weak.exact_violation_rate:.5f} "
      f"(Monte Carlo {weak.empirical_violation_rate:.5f}), pass = {weak.passed}, "
      f"undercalibrated flag = {weak.undercalibrated}")

# auditing the other direction (summaries swapped) tells the same story
swapped = dp_audit(theta_dp, theta_d, basis, budget, sigma_sq,
                   n_samples=100_000, seed=2)
print(f"swapped direction: exact = {swapped.exact_violation_rate:.5f} "
      f"(Monte Carlo {swapped.empirical_violation_rate:.5f}), pass = {swapped.passed}")
