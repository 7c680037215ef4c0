"""The Gaussian mechanism for curves: noise sampling, releases, and the auditor.

Noise is a mean-zero Gaussian process expanded in the basis,
sigma * sum_j sqrt(lambda_j) xi_j v_j with iid standard normal xi_j, so a
release is the smoothed estimate plus one draw of that process.
release_function is the only release: point values, projections, norms and
derivatives of the released curve are post-processing and keep its
guarantee.  The auditor replays the privacy argument numerically: under the
distribution induced by one dataset, the log density ratio against an
adjacent dataset may exceed epsilon with probability at most delta.  That
ratio, the privacy loss, is exactly N(mu, 2 mu) with mu = D^2 / (2 sigma^2),
D the pair's Cameron-Martin distance (Balle & Wang, ICML 2018); the auditor
samples that law in one dimension, compares each standard normal with one
precomputed cut that gives exactly the loss's float comparison with epsilon,
and reports the law's exact tail beside the Monte-Carlo rate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from .calibration import CalibrationResult, PrivacyBudget, PrivacyRefusalError, noise_scale
from .kernels import Curve, _to_count, _to_float, _to_whole
from .spectral import SpectralBasis, cm_norm_sq, coefficients, compatibility_check, reconstruct
from .rng import make_rng

_AUDIT_MIN_SAMPLES = 10_000
# Standard normals per block (1 MB of float64): the audit draws and scores its
# losses block by block through one reused buffer, so its memory does not grow
# with n_samples.  Consecutive fills of one Generator give the values of a
# single fill, so the block size changes no report.
_AUDIT_BLOCK_VALUES = 1 << 17


@dataclass(frozen=True)
class ReleaseMeta(CalibrationResult):
    """Provenance carried by every sanitized release: its calibration, kernel and seed.

    It holds nothing that varies between runs, so identical configurations
    produce byte-identical sidecars.
    """

    kernel_family: str
    rho: float
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class SanitizedRelease:
    """A privatized curve plus its provenance; any functional of it is post-processing."""

    meta: ReleaseMeta
    curve: Curve


@dataclass(frozen=True)
class AuditReport:
    """Empirical check of the (epsilon, delta) tail bound by Monte Carlo.

    empirical_violation_rate is the share of n_samples privacy losses above
    epsilon, drawn by ``dp_audit`` as mirrored pairs mu + t and mu - t and
    counted by comparing each draw's standard normal with one cut, which
    gives the same counts as comparing the float losses with epsilon.
    exact_violation_rate is the tail those draws estimate: P(L > epsilon) for
    the exact loss L ~ N(mu, 2 mu), 0.5 erfc((epsilon - mu) / (2 sqrt(mu))),
    and 0.0 at mu = 0, where the loss is identically zero.
    mc_stderr is sqrt(rate * (1 - rate) / n_samples), the standard error of
    n_samples independent tail indicators, and an upper bound on the standard
    error of the audit's mirrored pairs.  A pair scores the losses mu + t and
    mu - t of one symmetric t.  If mu <= epsilon, both exceed epsilon only if
    t > epsilon - mu >= 0 > mu - epsilon > t, so the two tail events are
    disjoint (covariance -p^2); if mu > epsilon, their complements are
    (covariance -(1 - p)^2).  The pair covariance is never positive.
    """

    n_samples: int
    epsilon: float
    delta: float
    sigma_sq: float
    empirical_violation_rate: float
    mc_stderr: float
    passed: bool
    undercalibrated: bool
    exact_violation_rate: float


def _span_coefficients(x: Curve, basis: SpectralBasis, name: str) -> np.ndarray:
    """Coefficients of x; refuses x off the basis span, which no noise scale privatizes."""
    report = compatibility_check(x, basis)
    if not report.compatible:
        raise PrivacyRefusalError(
            f"{name} is incompatible with the noise: fraction "
            f"{report.residual_fraction:.3e} of its energy lies outside the "
            "basis span, so no noise scale achieves differential privacy"
        )
    return coefficients(x, basis)


def _check_sigma_sq(sigma_sq: float, zero_ok: bool) -> float:
    """A noise variance as a float; refuses NaN, infinite, negative, or zero unless zero_ok."""
    value = _to_float(sigma_sq, "sigma_sq")
    if not math.isfinite(value) or value < 0.0 or (value == 0.0 and not zero_ok):
        bound = "non-negative" if zero_ok else "positive"
        raise ValueError(f"sigma_sq must be finite and {bound}, got {sigma_sq}")
    return value


def sample_noise(basis: SpectralBasis, sigma_sq: float, seed: int) -> Curve:
    """One draw of the scaled Gaussian process, deterministic in the seed."""
    sigma_sq = _check_sigma_sq(sigma_sq, zero_ok=True)
    xi = make_rng(seed).standard_normal(basis.m)
    return reconstruct(xi * (math.sqrt(sigma_sq) * np.sqrt(basis.eigenvalues)), basis)


def noise_energy(basis: SpectralBasis, sigma_sq: float) -> float:
    """Expected squared L2 norm sigma_sq * sum_j lambda_j of one noise draw.

    The draw's coefficients in the orthonormal basis have variances
    sigma_sq * lambda_j, and its mean is zero, so this is also exactly what a
    release adds in expectation to the squared L2 distance between its
    estimate and any fixed curve.
    """
    return _check_sigma_sq(sigma_sq, zero_ok=True) * float(np.sum(basis.eigenvalues))


def release_function(
    mu_hat: Curve, basis: SpectralBasis, calib: CalibrationResult, seed: int
) -> SanitizedRelease:
    """Full-function release mu_hat + noise; refuses a summary off the basis span."""
    _span_coefficients(mu_hat, basis, "summary")
    noise = sample_noise(basis, calib.sigma_sq, seed)
    released = Curve(mu_hat.values + noise.values, basis.grid)
    family = basis.spec.family if basis.spec is not None else "custom"
    rho = basis.spec.rho if basis.spec is not None else float("nan")
    meta = ReleaseMeta(kernel_family=family, rho=rho, seed=_to_whole(seed, "seed"),
                       **asdict(calib))
    return SanitizedRelease(meta, released)


def _float_at(rank: int) -> float:
    """The float64 of this rank in the float order: 0.0 at 0, the k-th above (below) at k (-k)."""
    bits = rank if rank >= 0 else -(1 << 63) - rank
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _loss_cut(mu: float, scale: float, epsilon: float) -> float:
    """The largest float64 u at which mu + u * scale, in float arithmetic, is not above epsilon.

    That test is monotone in u (``dp_audit`` shows why), so bisecting the
    ranks of the float64 values finds u in at most 64 evaluations.  Python
    float arithmetic rounds each product and sum as numpy's elementwise
    multiply and add do; neither fuses them into an FMA.  The test is false at
    -inf (-inf * scale is -inf, or NaN at scale = 0), where the bisection
    starts; +inf stands in for the first u where it is true, so at scale = 0,
    where it is false everywhere, u is the largest finite float.
    """
    lo, hi = -(0x7FF << 52), 0x7FF << 52  # the ranks of -inf and +inf
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mu + _float_at(mid) * scale > epsilon:
            hi = mid
        else:
            lo = mid
    return _float_at(lo)


def dp_audit(
    theta_d: Curve,
    theta_dp: Curve,
    basis: SpectralBasis,
    budget: PrivacyBudget,
    sigma_sq: float | None = None,
    n_samples: int = 100_000,
    seed: int = 0,
) -> AuditReport:
    """Monte-Carlo audit of the privacy tail bound for one adjacent pair.

    Draws privacy losses of releases centered at theta_d against theta_dp,
    estimates how often they exceed epsilon, and passes when that rate stays
    within delta plus three Monte-Carlo standard errors.  sigma_sq defaults
    to the calibrated minimum for this pair, noise_scale(budget, D^2) with D
    the pair's Cameron-Martin distance, and the report records the variance
    audited.  A sigma_sq below that minimum is flagged as undercalibrated
    (the audit still runs and is expected to fail).  The direction is the
    argument order: pass the summaries swapped to audit the opposite
    direction.

    The log density ratio at the release cd + z is mu + t, with
    mu = D^2 / (2 sigma_sq) and t = z . shift / (lambda sigma_sq) linear in
    the noise z = sigma * sqrt(lambda) * xi, so t is exactly N(0, 2 mu).  The
    audit forms no release and no noise vector: it draws t itself,
    sqrt(2 mu) times a standard normal, and the report's
    exact_violation_rate is the tail of that law.  t and -t are equally
    likely, so each draw is scored as the two losses mu + t and mu - t (the
    releases cd + z and cd - z), which halves the normals per sample and
    keeps the rate unbiased (the AuditReport docstring shows why mc_stderr
    stays an upper bound).  ceil(n_samples / 2) draws are made and the first
    floor(n_samples / 2) are mirrored, so at odd n_samples an audit at
    n_samples + 1 scores the same draws plus one mirror.

    Neither loss is formed.  With s = sqrt(2 mu) and z the standard normal,
    the loss mu + t exceeds epsilon in float arithmetic, fl(mu + fl(z s)) >
    epsilon, exactly when z > u for one float u computed once per audit: the
    test is monotone in z, because both roundings are.  IEEE rounding is
    symmetric in sign and mu - x is exactly mu + (-x), so
    fl(mu - fl(z s)) = fl(mu + fl((-z) s)) and the mirror exceeds epsilon
    exactly when z < -u.  Each draw is therefore compared with the cut, and
    the counts equal those of forming mu + t and mu - t.

    Identical summaries at a stated sigma_sq, or a D^2 / (2 sigma_sq) that
    underflows, give mu = 0: every loss is zero and both rates are 0.0.
    Identical summaries without one leave nothing to calibrate against.  They
    are refused with ValueError, as are a D^2 or a calibrated sigma_sq that
    overflows, and a stated sigma_sq so small that mu or 2 mu overflows.

    The draws come from the one stream ``make_rng(seed)``, block by block
    through one reused buffer of 2**17 values, so memory does not depend on
    n_samples.  The report depends only on the seed, n_samples, mu and the
    budget, never on the block size.
    """
    n_samples = _to_count(n_samples, "n_samples", _AUDIT_MIN_SAMPLES)
    if sigma_sq is not None:
        sigma_sq = _check_sigma_sq(sigma_sq, zero_ok=False)
    cd = _span_coefficients(theta_d, basis, "theta_d")
    d_sq = cm_norm_sq(cd - _span_coefficients(theta_dp, basis, "theta_dp"), basis)
    if not math.isfinite(d_sq):
        raise ValueError("the pair's squared Cameron-Martin distance D^2 is not a finite "
                         "float; rescale the summaries")
    minimum = noise_scale(budget, d_sq)
    if sigma_sq is None:
        if d_sq == 0.0:
            raise ValueError("theta_d and theta_dp are identical (D^2 = 0), so there is no noise "
                             "variance to calibrate against; state one to audit them at mu = 0")
        if minimum == math.inf:
            raise ValueError(f"the noise variance calibrated for the pair's D^2 = {d_sq} "
                             "is not a finite float")
        sigma_sq = minimum
    undercalibrated = sigma_sq < minimum * (1.0 - 1e-12)
    mu = d_sq / (2.0 * sigma_sq)
    if not math.isfinite(2.0 * mu):
        raise ValueError(f"sigma_sq={sigma_sq} is too small to audit this pair: the privacy "
                         "loss N(mu, 2 mu), mu = D^2 / (2 sigma_sq), is not finite")
    exact = 0.5 * math.erfc((budget.epsilon - mu) / (2.0 * math.sqrt(mu))) if mu > 0.0 else 0.0

    draws, mirrored = -(-n_samples // 2), n_samples // 2
    cut = _loss_cut(mu, math.sqrt(2.0 * mu), budget.epsilon)
    rng = make_rng(seed)
    buf = np.empty(min(_AUDIT_BLOCK_VALUES, draws))
    total = 0
    for start in range(0, draws, buf.size):
        z = rng.standard_normal(out=buf[: draws - start])
        total += int(np.count_nonzero(z > cut) + np.count_nonzero(z[: mirrored - start] < -cut))
    rate = total / n_samples
    stderr = math.sqrt(rate * (1.0 - rate) / n_samples)
    return AuditReport(
        n_samples=n_samples,
        epsilon=budget.epsilon,
        delta=budget.delta,
        sigma_sq=sigma_sq,
        empirical_violation_rate=rate,
        mc_stderr=stderr,
        passed=rate <= budget.delta + 3.0 * stderr,
        undercalibrated=undercalibrated,
        exact_violation_rate=exact,
    )
