import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.stats import chi2, norm

from fdpriv import (
    CalibrationResult,
    Curve,
    PrivacyBudget,
    PrivacyRefusalError,
    coefficients,
    cm_norm_sq,
    compatibility_check,
    dp_audit,
    noise_energy,
    noise_scale,
    reconstruct,
    release_function,
    sample_noise,
)

import fdpriv.mechanism as mechanism
from fdpriv.rng import make_rng

from conftest import toy_basis
from oracles import audit_violations_one_call, k_gram

BUDGET = PrivacyBudget(1.0, 0.1)


def make_calibration(sigma_sq: float, basis) -> CalibrationResult:
    """Calibration record with a directly imposed noise variance (for tests)."""
    eps, delta = BUDGET.epsilon, BUDGET.delta
    delta_sq = sigma_sq * eps**2 / (2.0 * math.log(2.0 / delta))
    return CalibrationResult(
        delta_sq=delta_sq, sigma_sq=sigma_sq, method="exact_spectral",
        phi=0.01, eta=1.0, tau=1.0, n=25, epsilon=eps, delta=delta,
    )


def test_sample_noise_zero_variance():
    basis = toy_basis()
    z = sample_noise(basis, 0.0, seed=4)
    assert np.all(z.values == 0.0)


def test_sample_noise_deterministic_in_seed():
    basis = toy_basis()
    a = sample_noise(basis, 0.7, seed=11)
    b = sample_noise(basis, 0.7, seed=11)
    c = sample_noise(basis, 0.7, seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sample_noise_is_the_scaled_seeded_draw():
    basis = toy_basis()
    sigma_sq = 0.7
    xi = make_rng(11).standard_normal(basis.m)
    expected = basis.matrix @ (math.sqrt(sigma_sq) * np.sqrt(basis.eigenvalues) * xi)
    assert np.array_equal(sample_noise(basis, sigma_sq, seed=11).values, expected)


def test_sample_noise_coefficient_covariance():
    basis = toy_basis()
    sigma_sq = 0.8
    draws = np.stack(
        [coefficients(sample_noise(basis, sigma_sq, seed), basis) for seed in range(10_000)]
    )
    emp = draws.T @ draws / draws.shape[0]
    target = sigma_sq * basis.eigenvalues
    assert np.all(np.abs(np.diag(emp) / target - 1.0) <= 0.05)
    off = emp - np.diag(np.diag(emp))
    limit = 0.05 * sigma_sq * np.sqrt(np.outer(basis.eigenvalues, basis.eigenvalues))
    assert np.all(np.abs(off) <= limit)
    norms = (draws**2).sum(axis=1)
    assert norms.mean() == pytest.approx(sigma_sq * basis.eigenvalues.sum(), rel=0.03)


def test_sample_noise_variance_scaling():
    basis = toy_basis()
    small = np.stack(
        [coefficients(sample_noise(basis, 0.5, seed), basis) for seed in range(4000)]
    )
    big = np.stack(
        [coefficients(sample_noise(basis, 2.0, 10_000 + seed), basis) for seed in range(4000)]
    )
    ratio = big.var(axis=0) / small.var(axis=0)
    assert np.all(np.abs(ratio / 4.0 - 1.0) <= 0.10)


def test_release_function_zero_noise_and_determinism():
    basis = toy_basis()
    mu_hat = reconstruct(np.array([0.3, -0.1, 0.0, 0.05, 0.0]), basis)
    exact = release_function(mu_hat, basis, make_calibration(0.0, basis), seed=3)
    assert np.array_equal(exact.curve.values, mu_hat.values)
    a = release_function(mu_hat, basis, make_calibration(0.4, basis), seed=3)
    b = release_function(mu_hat, basis, make_calibration(0.4, basis), seed=3)
    assert np.array_equal(a.curve.values, b.curve.values)
    assert a.meta.sigma_sq == 0.4 and a.meta.seed == 3
    assert a.meta.kernel_family == "custom"  # handcrafted basis has no kernel spec


def test_release_curve_stays_in_basis_span():
    basis = toy_basis()
    mu_hat = reconstruct(np.array([0.3, -0.1, 0.0, 0.05, 0.0]), basis)
    release = release_function(mu_hat, basis, make_calibration(0.5, basis), seed=17)
    assert compatibility_check(release.curve, basis).compatible


def test_release_function_noise_energy_identity():
    basis = toy_basis()
    sigma_sq = 0.6
    mu_hat = reconstruct(np.zeros(basis.m), basis)
    calib = make_calibration(sigma_sq, basis)
    w = basis.grid.weights
    total = 0.0
    for seed in range(10_000):
        rel = release_function(mu_hat, basis, calib, seed)
        diff = rel.curve.values - mu_hat.values
        total += float(np.sum(w * diff**2))
    expected = sigma_sq * float(basis.eigenvalues.sum())
    assert total / 10_000 == pytest.approx(expected, rel=0.03)


def test_release_projections_point_evaluation_zero_noise():
    basis = toy_basis()
    mu_hat = reconstruct(np.array([0.5, 0.25, 0.0, 0.0, -0.1]), basis)
    k = 7
    f = basis.matrix[k]
    rel = release_function(mu_hat, basis, make_calibration(0.0, basis), 0)
    assert f @ coefficients(rel.curve, basis) == pytest.approx(mu_hat.values[k], rel=1e-12)


def test_release_projections_covariance_matches_k_gram():
    basis = toy_basis()
    sigma_sq = 0.7
    calib = make_calibration(sigma_sq, basis)
    mu_hat = reconstruct(np.zeros(basis.m), basis)
    functionals = basis.matrix[[2, 30]]
    draws = np.stack(
        [
            functionals @ coefficients(release_function(mu_hat, basis, calib, seed).curve, basis)
            for seed in range(10_000)
        ]
    )
    emp = draws.T @ draws / draws.shape[0]
    target = sigma_sq * k_gram(functionals, basis)
    scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
    assert np.all(np.abs(emp - target) <= 0.05 * scale)


@pytest.mark.parametrize("call", [
    lambda bad, ok, basis: release_function(bad, basis, make_calibration(0.5, basis), 0),
    lambda bad, ok, basis: dp_audit(bad, ok, basis, BUDGET, 0.5, 10_000),
    lambda bad, ok, basis: dp_audit(ok, bad, basis, BUDGET, 0.5, 10_000),
], ids=["release", "audit_theta_d", "audit_theta_dp"])
def test_off_span_curve_is_refused_everywhere(call):
    basis = toy_basis()
    raw = np.random.default_rng(41).normal(size=basis.grid.size)
    proj = basis.matrix @ coefficients(Curve(raw, basis.grid), basis)
    off_span = Curve(raw - proj, basis.grid)
    ok = reconstruct(np.array([0.3, -0.1, 0.0, 0.05, 0.0]), basis)
    with pytest.raises(PrivacyRefusalError, match="outside the basis span"):
        call(off_span, ok, basis)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e160, 2.0**530, 1e300, 1e-200],
                         ids=["1e160", "2**530", "1e300", "1e-200"])
def test_off_span_curve_is_refused_at_any_scale(scale):
    basis = toy_basis()
    raw = np.random.default_rng(41).normal(size=basis.grid.size)
    off_span = raw - basis.matrix @ coefficients(Curve(raw, basis.grid), basis)
    with pytest.raises(PrivacyRefusalError, match="outside the basis span"):
        release_function(Curve(scale * off_span, basis.grid), basis,
                         make_calibration(0.5, basis), 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma_sq", [None, 1.0])
def test_dp_audit_refuses_a_pair_whose_distance_overflows(sigma_sq):
    basis = toy_basis()
    theta = reconstruct(np.array([1e160, 0.0, 0.0, 0.0, 0.0]), basis)
    with pytest.raises(ValueError, match="D\\^2 is not a finite float"):
        dp_audit(theta, reconstruct(-coefficients(theta, basis), basis), basis, BUDGET,
                 sigma_sq, 10_000)


@pytest.mark.filterwarnings("error")
def test_dp_audit_refuses_a_calibrated_variance_that_overflows():
    basis = toy_basis()
    cd = np.array([3e153, 0.0, 0.0, 0.0, 0.0])
    pair_sq = cm_norm_sq(2.0 * cd, basis)
    assert math.isfinite(pair_sq) and noise_scale(BUDGET, pair_sq) == math.inf
    theta_d, theta_dp = reconstruct(cd, basis), reconstruct(-cd, basis)
    with pytest.raises(ValueError, match="noise variance calibrated for the pair's D\\^2"):
        dp_audit(theta_d, theta_dp, basis, BUDGET, None, 10_000)
    assert dp_audit(theta_d, theta_dp, basis, BUDGET, 1e300, 10_000).undercalibrated


def test_dp_audit_equal_pair_passes_with_zero_rate():
    basis = toy_basis()
    theta = reconstruct(np.array([0.4, 0.0, 0.0, 0.0, 0.0]), basis)
    report = dp_audit(theta, theta, basis, BUDGET, 0.3, 10_000, seed=2)
    assert report.empirical_violation_rate == 0.0
    assert report.passed and not report.undercalibrated


@pytest.mark.parametrize("kwargs,name", [(dict(n_samples=10**400), "n_samples"),
                                         (dict(sigma_sq=10**400), "sigma_sq")],
                         ids=["n_samples", "sigma_sq"])
def test_dp_audit_refuses_an_integer_too_large_for_a_float(kwargs, name):
    basis = toy_basis()
    theta_d = reconstruct(np.array([0.4, 0.0, 0.0, 0.0, 0.0]), basis)
    theta_dp = reconstruct(np.array([-0.4, 0.0, 0.0, 0.0, 0.0]), basis)
    with pytest.raises(ValueError, match=f"{name} is too large to be represented as a float"):
        dp_audit(theta_d, theta_dp, basis, BUDGET, **kwargs)


def test_dp_audit_calibrated_passes_and_undercalibrated_fails():
    basis = toy_basis()
    rng = np.random.default_rng(55)
    for trial in range(5):
        cd = rng.normal(size=basis.m)
        cdp = cd + 0.5 * rng.normal(size=basis.m)
        theta_d, theta_dp = reconstruct(cd, basis), reconstruct(cdp, basis)
        sigma_sq = noise_scale(BUDGET, cm_norm_sq(cd - cdp, basis))
        good = dp_audit(theta_d, theta_dp, basis, BUDGET, sigma_sq, 100_000, seed=trial)
        assert good.passed and not good.undercalibrated
        assert good.empirical_violation_rate <= good.delta + 3.0 * good.mc_stderr
        bad = dp_audit(
            theta_d, theta_dp, basis, BUDGET, sigma_sq / 100.0, 100_000, seed=trial
        )
        assert not bad.passed and bad.undercalibrated


def test_dp_audit_defaults_to_the_pairs_calibrated_noise():
    basis = toy_basis()
    rng = np.random.default_rng(62)
    theta_d = reconstruct(rng.normal(size=basis.m), basis)
    theta_dp = reconstruct(coefficients(theta_d, basis) + 0.3 * rng.normal(size=basis.m), basis)
    cd, cdp = coefficients(theta_d, basis), coefficients(theta_dp, basis)
    minimum = noise_scale(BUDGET, cm_norm_sq(cd - cdp, basis))
    report = dp_audit(theta_d, theta_dp, basis, BUDGET, n_samples=20_000, seed=8)
    assert report.sigma_sq == minimum and not report.undercalibrated
    assert report == dp_audit(theta_d, theta_dp, basis, BUDGET, minimum, 20_000, seed=8)
    given = dp_audit(theta_d, theta_dp, basis, BUDGET, 0.5 * minimum, 20_000, seed=8)
    assert given.sigma_sq == 0.5 * minimum and given.undercalibrated
    # identical summaries calibrate to zero noise, which cannot be audited
    with pytest.raises(ValueError, match=r"identical \(D\^2 = 0\)"):
        dp_audit(theta_d, theta_d, basis, BUDGET, n_samples=20_000)


def test_release_meta_is_its_calibration_plus_kernel_and_seed():
    basis = toy_basis()
    calib = make_calibration(0.2, basis)
    meta = release_function(reconstruct(np.full(basis.m, 0.1), basis), basis, calib, 3).meta
    assert isinstance(meta, CalibrationResult)
    record = meta.as_dict()
    assert sorted(record) == sorted([
        "delta_sq", "sigma_sq", "method", "phi", "eta", "tau", "n", "epsilon", "delta",
        "kernel_family", "rho", "seed",
    ])
    assert {key: record[key] for key in asdict(calib)} == asdict(calib)
    assert (record["kernel_family"], record["seed"]) == ("custom", 3)
    assert math.isnan(record["rho"])


def test_dp_audit_report_invariants():
    basis = toy_basis()
    rng = np.random.default_rng(60)
    cd = rng.normal(size=basis.m)
    cdp = cd + 0.3 * rng.normal(size=basis.m)
    sigma_sq = noise_scale(BUDGET, cm_norm_sq(cd - cdp, basis))
    report = dp_audit(
        reconstruct(cd, basis), reconstruct(cdp, basis), basis, BUDGET, sigma_sq,
        20_000, seed=8,
    )
    rate = report.empirical_violation_rate
    assert report.mc_stderr == pytest.approx(
        math.sqrt(rate * (1 - rate) / report.n_samples), rel=1e-12, abs=1e-15
    )
    assert report.passed == (rate <= report.delta + 3.0 * report.mc_stderr)


def test_dp_audit_swap_direction_runs():
    basis = toy_basis()
    rng = np.random.default_rng(61)
    cd = rng.normal(size=basis.m)
    cdp = cd + 0.3 * rng.normal(size=basis.m)
    sigma_sq = noise_scale(BUDGET, cm_norm_sq(cd - cdp, basis))
    fwd = dp_audit(reconstruct(cd, basis), reconstruct(cdp, basis), basis, BUDGET,
                   sigma_sq, 10_000, seed=9)
    bwd = dp_audit(reconstruct(cdp, basis), reconstruct(cd, basis), basis, BUDGET,
                   sigma_sq, 10_000, seed=9)
    assert fwd.passed and bwd.passed


@pytest.mark.parametrize("scale", [1.0, 0.05, 10.0])
@pytest.mark.parametrize("swapped", [False, True])
def test_dp_audit_rate_matches_exact_privacy_loss_law(scale, swapped):
    basis = toy_basis()
    rng = np.random.default_rng(71)
    cd = rng.normal(size=basis.m)
    cdp = cd + 0.4 * rng.normal(size=basis.m)
    pair_sq = cm_norm_sq(cd - cdp, basis)
    sigma_sq = scale * noise_scale(BUDGET, pair_sq)
    centers = (reconstruct(cd, basis), reconstruct(cdp, basis))
    if swapped:
        centers = centers[::-1]
    n = 200_000
    report = dp_audit(*centers, basis, BUDGET, sigma_sq, n, seed=12)
    exact = report.exact_violation_rate
    stderr = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(report.empirical_violation_rate - exact) <= 4.0 * stderr
    assert report.undercalibrated == (scale < 1.0)


def test_dp_audit_rate_matches_exact_law_across_seeds():
    # Each seed's stream is a fresh resample: a draw that biased the rate
    # would show as a large z at some seed.
    basis = toy_basis()
    rng = np.random.default_rng(72)
    cd = rng.normal(size=basis.m)
    cdp = cd + 0.4 * rng.normal(size=basis.m)
    pair_sq = cm_norm_sq(cd - cdp, basis)
    sigma_sq = noise_scale(BUDGET, pair_sq)
    centers = (reconstruct(cd, basis), reconstruct(cdp, basis))
    n = 100_000
    reports = [dp_audit(*centers, basis, BUDGET, sigma_sq, n, seed=seed) for seed in range(12)]
    exact = reports[0].exact_violation_rate
    stderr = math.sqrt(exact * (1.0 - exact) / n)
    z = [(report.empirical_violation_rate - exact) / stderr for report in reports]
    assert max(map(abs, z)) < 4.0, z


@pytest.mark.parametrize("budget,pinned", [(BUDGET, 0.0124330), (PrivacyBudget(0.5, 0.01), None)],
                         ids=["eps1-delta0.1", "eps0.5-delta0.01"])
def test_dp_audit_exact_rate_at_the_calibrated_noise_is_the_budget_oracle(budget, pinned):
    # At sigma_sq = noise_scale(budget, D^2), mu = epsilon^2 / (2 c^2) with
    # c = sqrt(2 log(2/delta)) for every pair, so the tail of N(mu, 2 mu)
    # above epsilon is Phi(epsilon / (2 c) - c).
    c = math.sqrt(2.0 * math.log(2.0 / budget.delta))
    oracle = norm.cdf(budget.epsilon / (2.0 * c) - c)
    if pinned is not None:
        assert oracle == pytest.approx(pinned, abs=5e-8)
    basis = toy_basis()
    rng = np.random.default_rng(73)
    for _ in range(4):
        cd = rng.normal(size=basis.m)
        cdp = cd + rng.uniform(0.01, 2.0) * rng.normal(size=basis.m)
        report = dp_audit(reconstruct(cd, basis), reconstruct(cdp, basis), basis, budget,
                          n_samples=10_000)
        assert report.exact_violation_rate == pytest.approx(oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scale", [0.05, 10.0])
def test_dp_audit_exact_rate_off_the_calibrated_noise_is_the_normal_tail(scale):
    basis = toy_basis()
    rng = np.random.default_rng(74)
    cd = rng.normal(size=basis.m)
    cdp = cd + 0.4 * rng.normal(size=basis.m)
    pair_sq = cm_norm_sq(cd - cdp, basis)
    sigma_sq = scale * noise_scale(BUDGET, pair_sq)
    report = dp_audit(reconstruct(cd, basis), reconstruct(cdp, basis), basis, BUDGET,
                      sigma_sq, 10_000)
    mu = pair_sq / (2.0 * sigma_sq)
    expected = norm.sf((BUDGET.epsilon - mu) / math.sqrt(2.0 * mu))
    assert 0.0 < expected < 1.0
    assert report.exact_violation_rate == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_dp_audit_zero_loss_mean_has_zero_rates():
    # Identical summaries at a stated sigma_sq, and a pair whose
    # D^2 / (2 sigma_sq) underflows to 0: the loss is identically zero.
    basis = toy_basis()
    theta = reconstruct(np.array([0.4, 0.0, 0.0, 0.0, 0.0]), basis)
    tiny = reconstruct(np.array([1e-150, 0.0, 0.0, 0.0, 0.0]), basis)
    zero = reconstruct(np.zeros(basis.m), basis)
    pair_sq = cm_norm_sq(coefficients(tiny, basis) - coefficients(zero, basis), basis)
    assert pair_sq > 0.0 and pair_sq / (2.0 * 1e30) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [dp_audit(theta, theta, basis, BUDGET, 0.3, 10_000),
                   dp_audit(tiny, zero, basis, BUDGET, 1e30, 10_000)]
    for report in reports:
        assert report.exact_violation_rate == 0.0
        assert report.empirical_violation_rate == 0.0 and report.passed


def test_dp_audit_refuses_a_sigma_sq_whose_loss_overflows():
    # At 1e-310, mu = D^2 / (2 sigma_sq) is inf; at the second variance mu is
    # finite but the loss variance 2 mu is not.  Either way every loss would
    # exceed epsilon, and the draw cannot show it.
    basis = toy_basis()
    cd = np.array([0.4, 0.0, 0.0, 0.0, 0.0])
    cdp = np.array([-0.4, 0.0, 0.0, 0.0, 0.0])
    pair_sq = cm_norm_sq(cd - cdp, basis)
    band = pair_sq / 1.5e308 / 2.0
    mu = pair_sq / (2.0 * band)
    assert math.isinf(pair_sq / 2e-310) and math.isfinite(mu) and math.isinf(2.0 * mu)
    for sigma_sq in (1e-310, band):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"sigma_sq={sigma_sq} is too small"):
                dp_audit(reconstruct(cd, basis), reconstruct(cdp, basis), basis, BUDGET,
                         sigma_sq, 10_000)


def test_dp_audit_rejects_small_sample_count():
    basis = toy_basis()
    theta = reconstruct(np.zeros(basis.m), basis)
    with pytest.raises(ValueError):
        dp_audit(theta, theta, basis, BUDGET, 0.5, 5000, seed=0)


@pytest.mark.parametrize("sigma_sq", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda theta, basis, s: dp_audit(theta, theta, basis, BUDGET, s, 10_000),
    lambda theta, basis, s: sample_noise(basis, s, seed=0),
    lambda theta, basis, s: noise_energy(basis, s),
], ids=["dp_audit", "sample_noise", "noise_energy"])
def test_non_finite_sigma_sq_is_refused(call, sigma_sq):
    basis = toy_basis()
    theta = reconstruct(np.array([0.4, 0.0, 0.0, 0.0, 0.0]), basis)
    with pytest.raises(ValueError, match="sigma_sq must be finite"):
        call(theta, basis, sigma_sq)


def _audit_case():
    """A 100-mode pair at 0.05x its calibrated noise, audited at an odd sample count.

    The last draw is scored without its mirror.
    """
    basis = toy_basis(n_points=120, n_modes=100, seed=13,
                      eigenvalues=tuple(0.5 * 0.95**k for k in range(100)))
    rng = np.random.default_rng(81)
    cd = rng.normal(size=basis.m)
    cdp = cd + 0.4 * rng.normal(size=basis.m)
    sigma_sq = 0.05 * noise_scale(BUDGET, cm_norm_sq(cd - cdp, basis))
    return basis, cd, cdp, sigma_sq, 20_001


@pytest.mark.parametrize("block_values", [
    lambda: mechanism._AUDIT_BLOCK_VALUES,
    lambda: 1,
    lambda: 7,
    lambda: 20_001,
], ids=["default", "one_row", "seven_rows", "above_chunk"])
def test_dp_audit_matches_serial_oracle_across_chunks(monkeypatch, block_values):
    # The oracle draws all normals serially in one call; the audit fills them
    # in chunks of block_values draws: one, seven, one chunk above the draw
    # count, and the module default.
    basis, cd, cdp, sigma_sq, odd_n = _audit_case()
    monkeypatch.setattr(mechanism, "_AUDIT_BLOCK_VALUES", block_values())
    for n in (odd_n, odd_n + 1):
        report = dp_audit(reconstruct(cd, basis), reconstruct(cdp, basis), basis, BUDGET,
                          sigma_sq, n, seed=5)
        expected = audit_violations_one_call(cd, cdp, basis.eigenvalues, sigma_sq,
                                             BUDGET.epsilon, n, seed=5)
        assert 0 < expected < n
        assert report.empirical_violation_rate == expected / n


_CUT_MUS = {
    "zero": lambda eps: 0.0,
    "subnormal": lambda eps: 5e-324,
    "1e-300": lambda eps: 1e-300,
    "1e-12": lambda eps: 1e-12,
    "eps_below": lambda eps: eps * (1.0 - 2.0**-52),
    "eps_above": lambda eps: eps * (1.0 + 2.0**-52),
    "next_below": lambda eps: math.nextafter(eps, -math.inf),
    "next_above": lambda eps: math.nextafter(eps, math.inf),
    "eps": lambda eps: eps,
    "10": lambda eps: 10.0,
    "1e10": lambda eps: 1e10,
    "1e300": lambda eps: 1e300,
}


@pytest.mark.parametrize("mu_at", _CUT_MUS.values(), ids=_CUT_MUS.keys())
@pytest.mark.parametrize("epsilon", [0.01, 0.5, 1.0])
def test_dp_audit_loss_cut_is_the_float_loss_comparison(epsilon, mu_at):
    # The audit counts z > u and, for mirrors, z < -u instead of forming the
    # losses mu + t and mu - t, t = z * scale, in float64 and comparing them
    # with epsilon.  u must be the last float at which mu + t stays at or
    # below epsilon in numpy's own arithmetic, and the counts must agree.
    mu = mu_at(epsilon)
    scale = math.sqrt(2.0 * mu)
    cut = mechanism._loss_cut(mu, scale, epsilon)

    def exceeds(z):
        t = np.array(z, dtype=float)
        t *= scale
        return mu + t > epsilon

    if mu == 0.0:
        assert cut == np.finfo(float).max
        assert not exceeds([-np.finfo(float).max, cut]).any()
    else:
        assert exceeds([cut, math.nextafter(cut, math.inf)]).tolist() == [False, True]
    for seed in range(3):
        for n in (20_001, 20_000):
            t = make_rng(seed).standard_normal(-(-n // 2))
            z = t.copy()
            t *= scale
            mirrored = n // 2
            formed = np.count_nonzero(mu + t > epsilon) + np.count_nonzero(
                mu - t[:mirrored] > epsilon)
            assert np.count_nonzero(z > cut) + np.count_nonzero(z[:mirrored] < -cut) == formed


def test_dp_audit_loss_draw_is_the_release_noise_on_the_loss_line():
    # The audit draws t = z . slope directly as N(0, 2 mu), slope the shift
    # over lambda sigma_sq.  Form t from the noise a release adds instead, one
    # sample_noise seed per draw, and check by chi-squared tests that each
    # mode has variance sigma_sq * lambda_j and t has variance 2 mu.
    basis, cd, cdp, sigma_sq, _ = _audit_case()
    shift = cd - cdp
    mu = cm_norm_sq(shift, basis) / (2.0 * sigma_sq)
    slope = shift / (basis.eigenvalues * sigma_sq)
    n = 20_000
    z = np.stack([coefficients(sample_noise(basis, sigma_sq, seed), basis) for seed in range(n)])
    t = z @ slope
    stats = np.append(np.sum(z**2, axis=0) / (sigma_sq * basis.eigenvalues), t @ t / (2.0 * mu))
    p_values = 2.0 * np.minimum(chi2.cdf(stats, n), chi2.sf(stats, n))
    assert p_values.min() > 1e-3 / p_values.size, p_values.min()
    assert abs(t.mean()) < 4.0 * math.sqrt(2.0 * mu / n)


def test_dp_audit_odd_sample_count_drops_one_mirror():
    # At odd n the audit makes the same draws as at n + 1 and scores every
    # loss but the last draw's mirror, so the counts differ by that one.
    basis, cd, cdp, sigma_sq, n = _audit_case()
    centers = (reconstruct(cd, basis), reconstruct(cdp, basis))
    counts = [
        round(dp_audit(*centers, basis, BUDGET, sigma_sq, k, seed=4).empirical_violation_rate * k)
        for k in (n, n + 1)
    ]
    assert 0 < counts[0] < n
    assert counts[1] - counts[0] in (0, 1)


@pytest.mark.parametrize("n_samples", [100_000.5, math.nan, math.inf])
def test_dp_audit_refuses_non_whole_sample_count(n_samples):
    basis = toy_basis()
    centers = (reconstruct(np.array([0.4, 0.0, 0.0, 0.0, 0.0]), basis),
               reconstruct(np.zeros(basis.m), basis))
    with pytest.raises(ValueError, match="n_samples must be a whole number"):
        dp_audit(*centers, basis, BUDGET, 0.05, n_samples)
    # A whole count given as a float is the same audit as the int.
    report = dp_audit(*centers, basis, BUDGET, 0.05, 10_001.0)
    assert report == dp_audit(*centers, basis, BUDGET, 0.05, 10_001)
    assert report.n_samples == 10_001 and report.empirical_violation_rate > 0.0


def test_dp_audit_records_its_checked_sigma_sq():
    basis = toy_basis()
    centers = (reconstruct(np.array([0.4, 0.0, 0.0, 0.0, 0.0]), basis),
               reconstruct(np.zeros(basis.m), basis))
    report = dp_audit(*centers, basis, BUDGET, np.float32(0.05), 10_000)
    assert type(report.sigma_sq) is float and report == dp_audit(
        *centers, basis, BUDGET, float(np.float32(0.05)), 10_000)


def test_dp_audit_memory_does_not_grow_with_samples():
    # numpy reports its buffers to tracemalloc.  The audit holds one block
    # buffer (1 MiB) and one comparison mask (1/8 of it) at any sample count.
    # Drawing all of the larger audit's normals at once would take 10 MB, and
    # forming the losses mu + t and mu - t would add one more block.
    basis, cd, cdp, sigma_sq, _ = _audit_case()
    centers = (reconstruct(cd, basis), reconstruct(cdp, basis))
    dp_audit(*centers, basis, BUDGET, sigma_sq, 20_000)  # first-call imports stay untraced
    one_block = 2 * mechanism._AUDIT_BLOCK_VALUES
    peaks = {}
    for n in (one_block, 10 * one_block):
        tracemalloc.start()
        try:
            dp_audit(*centers, basis, BUDGET, sigma_sq, n, seed=1)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[10 * one_block] <= peaks[one_block] + 2**16
    assert peaks[10 * one_block] < 1.5 * 2**20
