import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fdpriv import (
    GS_METHODS,
    KernelSpec,
    PrivacyBudget,
    PrivacyRefusalError,
    SampleSet,
    SpectralBasis,
    calibrate,
    cm_norm_sq,
    gs_closed_bound,
    gs_exact_bound,
    kernel_basis,
    noise_scale,
    release_function,
    reconstruct,
    uniform_grid,
)
from fdpriv.io import read_meta, write_meta

from conftest import toy_basis, two_point_basis
from oracles import gs_sup_maximizer, projection_quadratic_form


def basis_with_eigenvalues(lams) -> SpectralBasis:
    """Handcrafted basis with an exactly prescribed spectrum."""
    lams = np.asarray(lams, dtype=float)
    grid = uniform_grid(max(len(lams), 2))
    m_pts = grid.size
    mat = np.sqrt(m_pts) * np.eye(m_pts)[:, : len(lams)]
    return SpectralBasis(lams, mat, grid)


def test_budget_validation():
    PrivacyBudget(1.0, 0.1)
    with pytest.raises(PrivacyRefusalError):
        PrivacyBudget(2.0, 0.1)
    with pytest.raises(ValueError):
        PrivacyBudget(0.0, 0.1)
    with pytest.raises(ValueError):
        PrivacyBudget(0.5, 0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(0.5, 1.0)
    # 2 log(2/delta) / epsilon^2 must be finite: epsilon^2 underflows to 0,
    # the quotient overflows, or 2/delta is inf
    for epsilon, delta in ((1e-200, 0.1), (1e-160, 0.1), (0.5, 1e-320), (1.0, 5e-324)):
        with pytest.raises(ValueError, match=f"epsilon={epsilon} and delta={delta}"):
            PrivacyBudget(epsilon, delta)
    PrivacyBudget(1e-150, 0.1)  # the multiplier is large but finite
    with pytest.raises(ValueError, match="epsilon is too large to be represented as a float"):
        PrivacyBudget(10**400, 0.1)


@pytest.mark.parametrize("epsilon,delta", [(True, 0.1), ("1", 0.1), (1.0, "0.1"),
                                           (np.float32(0.5), np.float32(0.1))])
def test_budget_stores_its_checked_floats(epsilon, delta, tmp_path):
    budget = PrivacyBudget(epsilon, delta)
    assert (budget.epsilon, budget.delta) == (float(epsilon), float(delta))
    assert type(budget.epsilon) is float and type(budget.delta) is float
    basis = toy_basis()
    calib = calibrate(basis, 0.1, 1.0, 1.0, 5, budget)
    release = release_function(reconstruct(np.zeros(basis.m), basis), basis, calib, 0)
    write_meta(tmp_path / "r.meta", release.meta.as_dict())
    assert read_meta(tmp_path / "r.meta")["epsilon"] == repr(float(epsilon))


def test_gs_exact_single_eigenvalue():
    # one eigenvalue at lambda = phi = 0.01, eta=1, tau=1, N=1:
    # 4 * lambda / (2 lambda)^2 = 1 / lambda = 100
    basis = basis_with_eigenvalues([0.01])
    assert gs_exact_bound(basis, 0.01, 1.0, 1.0, 1) == pytest.approx(100.0, rel=1e-12)


def test_gs_exact_zero_tau():
    assert gs_exact_bound(toy_basis(), 0.05, 1.0, 0.0, 3) == 0.0


def test_gs_exact_two_eigenvalues():
    basis = two_point_basis(0.5, 0.25)
    got = gs_exact_bound(basis, 0.1, 1.0, 1.0, 2)
    # (4/4) * max(0.5/0.36, 0.25/0.1225) = 100/49
    assert got == pytest.approx(100.0 / 49.0, rel=1e-12)


@pytest.mark.parametrize("eta,phi", [(60.0, 1e-200), (30.0, 1e-170), (200.0, 1e-150)])
def test_gs_exact_bound_at_extreme_penalties(eta, phi):
    # lambda^eta and phi meet far below the smallest normal double here, so
    # expanding s_j^2 / lambda_j as a ratio of powers of lambda_j gives 0/0 or 0
    basis = kernel_basis(KernelSpec("gaussian", 0.001), uniform_grid(100))
    log_lam = np.log(basis.eigenvalues)
    log_ratio = 2.0 * (eta * log_lam - np.logaddexp(eta * log_lam, math.log(phi))) - log_lam
    expected = 4.0 * 0.5**2 / 25**2 * math.exp(float(np.max(log_ratio)))
    got = gs_exact_bound(basis, phi, eta, 0.5, 25)
    assert math.isfinite(got) and got > 0.0
    assert got == pytest.approx(expected, rel=1e-12)


def test_gs_closed_bound_values():
    assert gs_closed_bound(0.01, 1.0, 1.0, 25) == pytest.approx(0.16, rel=1e-12)
    # eta=1 collapses to tau^2 / (N^2 phi)
    for phi, tau, n in ((0.3, 2.0, 7), (1e-4, 0.5, 3)):
        assert gs_closed_bound(phi, 1.0, tau, n) == pytest.approx(
            tau**2 / (n**2 * phi), rel=1e-14
        )
    assert gs_closed_bound(1.0, 2.0, 1.0, 1) == pytest.approx(
        3.0**1.5 / 4.0, rel=1e-12
    )
    assert gs_closed_bound(1.0, 2.0, 1.0, 1) == pytest.approx(1.29904, abs=1e-5)


@pytest.mark.parametrize("delta_sq", [-1.0, -1e-300, -math.inf])
def test_noise_scale_refuses_a_negative_sensitivity_bound(delta_sq):
    with pytest.raises(ValueError, match="delta_sq must be non-negative"):
        noise_scale(PrivacyBudget(1.0, 0.1), delta_sq)


def test_gs_sup_maximizer_values():
    assert gs_sup_maximizer(0.3, 1.0) == pytest.approx(0.3, rel=1e-14)
    assert gs_sup_maximizer(1.0, 2.0) == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert gs_sup_maximizer(0.008, 1.5) == pytest.approx(0.016 ** (2.0 / 3.0), rel=1e-14)
    assert gs_sup_maximizer(0.008, 1.5) == pytest.approx(0.063496, abs=1e-6)


def test_gs_sup_maximizer_against_numeric_optimum():
    for eta in (1.0, 1.5, 2.0):
        for phi in (1e-4, 1e-2, 1.0):
            f = lambda x: -(x ** (2 * eta - 1)) / (x**eta + phi) ** 2
            x_star = gs_sup_maximizer(phi, eta)
            res = minimize_scalar(
                f, bounds=(x_star / 10, x_star * 10), method="bounded",
                options={"xatol": x_star * 1e-12},
            )
            # a quadratic maximum limits derivative-free accuracy to ~sqrt(eps)
            assert res.x == pytest.approx(x_star, rel=1e-6)


def test_bound_ordering_over_random_spectra():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(1, 51))
        lams = np.sort(rng.uniform(1e-12, 1.0, m))[::-1]
        basis = basis_with_eigenvalues(lams)
        tau = float(rng.uniform(0.1, 3.0))
        n = int(rng.integers(1, 200))
        for eta in (1.0, 1.5, 2.0):
            for phi in (1e-4, 1e-2, 1.0):
                exact = gs_exact_bound(basis, phi, eta, tau, n)
                closed = gs_closed_bound(phi, eta, tau, n)
                cap = 4.0 * tau**2 / (n**2 * phi ** (1.0 / eta))
                assert exact <= closed * (1 + 1e-12)
                assert closed <= cap * (1 + 1e-12)


def test_bounds_monotone_in_phi_and_n_linear_in_tau_sq():
    basis = toy_basis()
    prev_exact, prev_closed = math.inf, math.inf
    for phi in (1e-4, 1e-2, 1.0, 10.0):
        e = gs_exact_bound(basis, phi, 1.5, 1.0, 10)
        c = gs_closed_bound(phi, 1.5, 1.0, 10)
        assert e <= prev_exact and c <= prev_closed
        prev_exact, prev_closed = e, c
    prev = math.inf
    for n in (1, 5, 25, 125):
        b = gs_exact_bound(basis, 0.01, 1.0, 1.0, n)
        assert b <= prev
        prev = b
    base = gs_closed_bound(0.2, 2.0, 1.0, 4)
    assert gs_closed_bound(0.2, 2.0, 3.0, 4) == pytest.approx(9 * base, rel=1e-12)


def test_calibrate_worked_values():
    basis = toy_basis()
    budget = PrivacyBudget(1.0, 0.1)
    assert noise_scale(budget, 0.16) == pytest.approx(
        2.0 * math.log(20.0) * 0.16, rel=1e-12
    )
    assert noise_scale(budget, 0.16) == pytest.approx(0.958634, abs=1e-6)
    assert noise_scale(budget, 0.0) == 0.0
    assert noise_scale(PrivacyBudget(1.0, 2.0 / math.e), 1.0) == pytest.approx(
        2.0, rel=1e-14
    )
    result = calibrate(basis, 0.05, 1.0, 1.0, 10, budget)
    assert result.sigma_sq == pytest.approx(
        2.0 * math.log(2.0 / 0.1) / 1.0**2 * result.delta_sq, rel=1e-12
    )
    assert result.method == "exact_spectral"


@pytest.mark.parametrize("method,phi,eta,tau", [
    ("exact_spectral", 1e-60, 200.0, 0.5),  # s_j^2 underflows on every mode
    ("closed_form", 0.1, 1.0, 1e-170),  # tau^2 underflows
])
def test_calibrate_refuses_a_bound_that_underflows_to_zero_noise(method, phi, eta, tau):
    basis = kernel_basis(KernelSpec("gaussian", 0.001), uniform_grid(100))
    budget = PrivacyBudget(1.0, 0.1)
    with pytest.raises(PrivacyRefusalError,
                       match=f"tau={tau}, phi={phi}, eta={eta} underflows to zero noise"):
        calibrate(basis, phi, eta, tau, 25, budget, method)
    # tau = 0 bounds data that are all zero: no noise is the right answer there
    assert calibrate(basis, phi, eta, 0.0, 25, budget, method).sigma_sq == 0.0


def test_calibrate_method_ordering():
    basis = toy_basis()
    budget = PrivacyBudget(0.8, 0.05)
    exact = calibrate(basis, 0.02, 1.5, 1.3, 12, budget, "exact_spectral")
    closed = calibrate(basis, 0.02, 1.5, 1.3, 12, budget, "closed_form")
    assert exact.delta_sq <= closed.delta_sq
    assert exact.sigma_sq <= closed.sigma_sq
    with pytest.raises(ValueError):
        calibrate(basis, 0.02, 1.5, 1.3, 12, budget, "bootstrap")


def test_projection_quadratic_form_never_exceeds_cm_norm():
    basis = toy_basis()
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(1, 11))
        functionals = rng.normal(size=(k, basis.m))
        diff = rng.normal(size=basis.m)
        q = projection_quadratic_form(functionals, diff, basis)
        assert q <= cm_norm_sq(diff, basis) + 1e-8


def test_projection_quadratic_form_equality_for_full_rank():
    # with m independent functionals the projection is the identity
    basis = two_point_basis()
    diff = np.array([0.7, -1.2])
    q = projection_quadratic_form(np.eye(2), diff, basis)
    assert q == pytest.approx(cm_norm_sq(diff, basis), rel=1e-10)


@pytest.mark.parametrize("phi,eta,tau,n,match", [
    (0.0, 1.0, 1.0, 5, "penalty phi"),
    (-0.1, 1.0, 1.0, 5, "penalty phi"),
    (math.nan, 1.0, 1.0, 5, "penalty phi"),
    (0.1, 0.5, 1.0, 5, "penalty exponent eta"),
    (0.1, math.nan, 1.0, 5, "penalty exponent eta"),
    (0.1, 1.0, -1.0, 5, "tau"),
    (0.1, 1.0, math.nan, 5, "tau"),
    (0.1, 1.0, 1.0, 0, "sample size"),
    (0.1, 1.0, 1.0, math.nan, "sample size"),
    (0.1, 1.0, 1.0, 2.5, "sample size n must be a whole number, got 2.5"),
    (0.1, 1.0, math.inf, 5, "tau must be a finite non-negative bound, got inf"),
    (10**400, 1.0, 1.0, 5, "phi is too large to be represented"),
    (0.1, 10**400, 1.0, 5, "eta is too large to be represented"),
    (0.1, 1.0, 10**400, 5, "tau is too large to be represented"),
    (0.1, 1.0, 1.0, 10**400, "n is too large to be represented"),
    (0.1, 1.0, 1e200, 5, r"tau=1e\+200 is too large"),
])
@pytest.mark.parametrize("bound", [
    lambda *args: gs_exact_bound(toy_basis(), *args),
    gs_closed_bound,
    lambda *args: calibrate(toy_basis(), *args, PrivacyBudget(1.0, 0.1)),
], ids=["gs_exact_bound", "gs_closed_bound", "calibrate"])
def test_sensitivity_inputs_are_refused(bound, phi, eta, tau, n, match):
    with pytest.raises(ValueError, match=match):
        bound(phi, eta, tau, n)


@pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf, 1e200])
def test_sample_set_and_calibrate_refuse_a_tau_with_one_message(tau):
    with pytest.raises(ValueError) as stated:
        SampleSet(np.zeros((2, 8)), uniform_grid(8), tau)
    with pytest.raises(ValueError) as calibrated:
        calibrate(toy_basis(), 0.1, 1.0, tau, 5, PrivacyBudget(1.0, 0.1))
    assert str(stated.value) == str(calibrated.value)


def test_bounds_compute_and_record_the_checked_values():
    basis, budget = toy_basis(), PrivacyBudget(1.0, 0.1)
    phi = np.float32(0.1)
    closed = gs_closed_bound(phi, 1.0, 1.0, 5)
    assert type(closed) is float and closed == gs_closed_bound(float(phi), 1.0, 1.0, 5)
    for method in GS_METHODS:
        calib = calibrate(basis, phi, np.float32(1.5), 3, 25.0, budget, method)
        assert calib == calibrate(basis, float(phi), 1.5, 3.0, 25, budget, method)
        assert [type(v) for v in (calib.phi, calib.eta, calib.tau, calib.n)] == [
            float, float, float, int]
    assert gs_exact_bound(basis, 0.1, 1.0, 1.0, 2.0) == gs_exact_bound(basis, 0.1, 1.0, 1.0, 2)


@pytest.mark.parametrize("method", GS_METHODS)
def test_sample_size_whose_square_overflows_is_a_zero_noise_refusal(method):
    # N^2 is inf, so either bound is 0: the release would carry no noise
    with pytest.raises(PrivacyRefusalError, match="underflows to zero noise"):
        calibrate(toy_basis(), 0.1, 1.0, 1.0, 10**200, PrivacyBudget(1.0, 0.1), method)


@pytest.mark.parametrize("phi,eta,tau", [
    (0.1, 1e200, 1.0),  # eta**2 overflows
    (0.1, 1e160, 1.0),  # (2 eta - 1) ** (2 - 1 / eta) overflows
    (1e-300, 1.0, 1e10),  # tau^2 / phi overflows to inf
])
@pytest.mark.parametrize("bound", [
    gs_closed_bound,
    lambda *args: calibrate(toy_basis(), *args, PrivacyBudget(1.0, 0.1), "closed_form"),
], ids=["gs_closed_bound", "calibrate"])
def test_closed_form_bound_that_is_not_finite_is_refused(bound, phi, eta, tau):
    with pytest.raises(ValueError, match=re.escape(f"closed-form bound at eta={eta},")):
        bound(phi, eta, tau, 5)
