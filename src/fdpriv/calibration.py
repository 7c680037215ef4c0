"""Global-sensitivity bounds for the penalized mean and Gaussian noise calibration.

For a dataset of N curves with L2 norms bounded by tau, the penalized mean
with penalty (phi, eta) changes by at most

    delta_sq = (4 tau^2 / N^2) * sup_j s_j^2 / lambda_j

in squared Cameron-Martin norm when one record changes, where
s_j = lambda_j^eta / (lambda_j^eta + phi) is the smoother's own filter
(:func:`~fdpriv.smoothing.shrinkage_factors`), so that
s_j^2 / lambda_j = lambda_j^(2 eta - 1) / (lambda_j^eta + phi)^2.  The
supremum over the actual spectrum gives the tight, grid-aware bound;
maximizing over all lambda > 0 gives the grid-free closed form.  The
Gaussian mechanism then needs noise variance
sigma_sq = 2 log(2/delta) / epsilon^2 * delta_sq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _to_count, _to_float
from .smoothing import SmootherConfig, _check_tau, shrinkage_factors
from .spectral import SpectralBasis

GS_METHODS = ("exact_spectral", "closed_form")


class PrivacyRefusalError(ValueError):
    """A requested release cannot be given a privacy guarantee, so it is refused."""


def _noise_multiplier(epsilon: float, delta: float) -> float:
    """Noise variance per unit delta_sq, 2 log(2/delta) / epsilon^2 (inf if epsilon^2 is 0)."""
    eps_sq = epsilon**2
    return 2.0 * math.log(2.0 / delta) / eps_sq if eps_sq > 0.0 else math.inf


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta) privacy budget.

    epsilon is capped at 1 because the Gaussian-mechanism guarantee this
    package calibrates against is only established for epsilon <= 1; budgets
    beyond that are refused rather than silently weakened.  So is a budget
    whose noise multiplier 2 log(2/delta) / epsilon^2 is not a finite float.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        epsilon, delta = _to_float(self.epsilon, "epsilon"), _to_float(self.delta, "delta")
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if epsilon > 1.0:
            raise PrivacyRefusalError(
                "epsilon must be at most 1: the Gaussian mechanism used here "
                "carries no guarantee beyond epsilon = 1"
            )
        if not (0.0 < delta < 1.0):
            raise ValueError("delta must lie strictly between 0 and 1")
        if not math.isfinite(_noise_multiplier(epsilon, delta)):
            raise ValueError(f"epsilon={epsilon} and delta={delta} are too small: "
                             "the noise multiplier 2 log(2/delta) / epsilon^2 is not finite")
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class CalibrationResult:
    """Sensitivity bound, noise variance, and the inputs they were derived from."""

    delta_sq: float
    sigma_sq: float
    method: str
    phi: float
    eta: float
    tau: float
    n: int
    epsilon: float
    delta: float


def _check_gs_args(phi, eta, tau, n) -> tuple[SmootherConfig, float, int]:
    """The smoother (phi, eta), tau and the sample size n, each checked by its one rule;
    the bounds square n as float(n) * n, inf past the float range (zero noise, refused)."""
    return SmootherConfig(phi, eta), _check_tau(tau), _to_count(n, "sample size n", 1)


def gs_exact_bound(
    basis: SpectralBasis, phi: float, eta: float, tau: float, n: int
) -> float:
    """Sensitivity bound (4 tau^2 / N^2) * max_j s_j^2 / lambda_j over the retained spectrum.

    s is the filter :func:`~fdpriv.smoothing.penalized_mean` applies,
    :func:`~fdpriv.smoothing.shrinkage_factors`.  s_j^2 / lambda_j equals
    lambda_j^(2 eta - 1) / (lambda_j^eta + phi)^2, but that ratio of powers
    underflows to 0/0 or 0 at large eta and tiny phi, where this one need not.
    """
    cfg, tau, n = _check_gs_args(phi, eta, tau, n)
    s = shrinkage_factors(basis, cfg)
    return 4.0 * (tau * tau) / (float(n) * n) * float(np.max(s * s / basis.eigenvalues))


def gs_closed_bound(phi: float, eta: float, tau: float, n: int) -> float:
    """Grid-free sensitivity bound: the supremum taken over all lambda > 0.

    Equals tau^2 / (N^2 phi^(1/eta)) * (2 eta - 1)^(2 - 1/eta) / eta^2, which
    collapses to tau^2 / (N^2 phi) at eta = 1 and never exceeds
    4 tau^2 / (N^2 phi^(1/eta)).  Inputs at which this expression is not a
    finite float, such as an eta whose square overflows, are refused.
    """
    cfg, tau, n = _check_gs_args(phi, eta, tau, n)
    phi, eta = cfg.phi, cfg.eta
    try:
        bound = (
            tau * tau
            / (float(n) * n * phi ** (1.0 / eta))
            * (2.0 * eta - 1.0) ** (2.0 - 1.0 / eta)
            / eta**2
        )
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"the closed-form bound at eta={eta}, tau={tau}, phi={phi} "
                         "is not a finite float")
    return bound


def noise_scale(budget: PrivacyBudget, delta_sq: float) -> float:
    """Minimal compliant noise variance 2 log(2/delta) / epsilon^2 * delta_sq."""
    delta_sq = _to_float(delta_sq, "delta_sq")
    if delta_sq < 0.0:
        raise ValueError("delta_sq must be non-negative")
    return _noise_multiplier(budget.epsilon, budget.delta) * delta_sq


def calibrate(
    basis: SpectralBasis,
    phi: float,
    eta: float,
    tau: float,
    n: int,
    budget: PrivacyBudget,
    method: str = "exact_spectral",
) -> CalibrationResult:
    """Derive the sensitivity bound and noise variance for a release.

    method selects the spectrum-aware bound (tighter, so less noise) or the
    grid-free closed form.  The noise variance is always the minimal one
    compliant with the budget.  A bound that underflows to zero noise at
    tau > 0 is refused with :class:`PrivacyRefusalError`.
    """
    if method not in GS_METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {GS_METHODS}")
    cfg, tau, n = _check_gs_args(phi, eta, tau, n)
    if method == "exact_spectral":
        delta_sq = gs_exact_bound(basis, cfg.phi, cfg.eta, tau, n)
    else:
        delta_sq = gs_closed_bound(cfg.phi, cfg.eta, tau, n)
    sigma_sq = noise_scale(budget, delta_sq)
    if sigma_sq == 0.0 and tau > 0.0:
        raise PrivacyRefusalError(
            f"the sensitivity bound at tau={tau}, phi={cfg.phi}, eta={cfg.eta} underflows to "
            "zero noise, which would release the estimate itself"
        )
    return CalibrationResult(delta_sq, sigma_sq, method, cfg.phi, cfg.eta, tau, n,
                             budget.epsilon, budget.delta)

