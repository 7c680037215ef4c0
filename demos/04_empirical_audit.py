"""Empirically auditing the privacy guarantee.

The audit replays the differential-privacy argument by Monte Carlo: draw
releases centered at one summary, measure how often the log density ratio
against an adjacent summary exceeds epsilon, and compare that rate with
delta.  Correctly calibrated noise passes with a wide margin; noise divided
by 100 fails decisively.
"""

import numpy as np

from fdpriv import (
    KernelSpec,
    PrivacyBudget,
    cm_norm_sq,
    density_log_ratio,
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

# the log density ratio at the center itself is small relative to epsilon
lr = density_log_ratio(theta_d, theta_d, theta_dp, basis, sigma_sq)
print(f"log ratio at theta_d   = {lr:.4f} (epsilon = {budget.epsilon})")

calibrated = dp_audit(theta_d, theta_dp, basis, budget, sigma_sq,
                      n_samples=100_000, seed=0)
print(f"\ncalibrated audit: rate = {calibrated.empirical_violation_rate:.5f} "
      f"+- {calibrated.mc_stderr:.5f}, pass = {calibrated.passed}")

weak = dp_audit(theta_d, theta_dp, basis, budget, sigma_sq / 100.0,
                n_samples=100_000, seed=1)
print(f"sigma_sq/100 audit: rate = {weak.empirical_violation_rate:.5f}, "
      f"pass = {weak.passed}, undercalibrated flag = {weak.undercalibrated}")

# auditing the other direction (summaries swapped) tells the same story
swapped = dp_audit(theta_dp, theta_d, basis, budget, sigma_sq,
                   n_samples=100_000, seed=2)
print(f"swapped direction: rate = {swapped.empirical_violation_rate:.5f}, "
      f"pass = {swapped.passed}")
