"""Acceptance suite: one test per release-gate criterion, each printing a
PASS/FAIL line (run with  pytest tests/test_acceptance.py -s  to see them)."""

import math

import numpy as np
from scipy.optimize import minimize_scalar

from fdpriv import (
    KernelSpec,
    PrivacyBudget,
    SimConfig,
    SmootherConfig,
    SpectralBasis,
    calibrate,
    cm_norm_sq,
    coefficients,
    cv_score,
    dp_audit,
    gs_closed_bound,
    gs_exact_bound,
    kernel_basis,
    kl_simulate,
    noise_scale,
    pcv_select,
    penalized_mean,
    reconstruct,
    sample_noise,
    SampleSet,
    SelectionGrid,
    default_mean,
    grid_from_points,
    uniform_grid,
)
from fdpriv.cli import main
from fdpriv.io import write_curves_csv
from fdpriv.rng import make_rng

from conftest import toy_basis
from oracles import (
    derive_seed,
    gs_sup_maximizer,
    penalized_mean_direct,
    projection_quadratic_form,
)

BUDGET = PrivacyBudget(1.0, 0.1)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"acceptance criterion {num} ({name}) failed {detail}"


def spectrum_basis(lams) -> SpectralBasis:
    lams = np.asarray(lams, dtype=float)
    grid = uniform_grid(max(len(lams), 2))
    mat = np.sqrt(grid.size) * np.eye(grid.size)[:, : len(lams)]
    return SpectralBasis(lams, mat, grid)


def test_acceptance_01_sensitivity_maximizer():
    tau, n = 1.3, 7
    log_grid = np.logspace(-8.0, 3.0, 100_000)
    ok = True
    for eta in (1.0, 1.5, 2.0):
        for phi in (1e-4, 1e-2, 1.0):
            f = lambda x: x ** (2 * eta - 1) / (x**eta + phi) ** 2
            idx = int(np.argmax(f(log_grid)))
            lo = log_grid[max(idx - 1, 0)]
            hi = log_grid[min(idx + 1, log_grid.size - 1)]
            res = minimize_scalar(lambda x: -f(x), bounds=(lo, hi), method="bounded",
                                  options={"xatol": log_grid[idx] * 1e-12})
            x_star = gs_sup_maximizer(phi, eta)
            ok &= abs(res.x - x_star) <= 1e-6 * x_star
            numeric_bound = 4.0 * tau**2 / n**2 * f(res.x)
            closed = gs_closed_bound(phi, eta, tau, n)
            ok &= abs(numeric_bound - closed) <= 1e-9 * closed
    report(1, "sensitivity maximizer", ok)


def test_acceptance_02_bound_ordering():
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        lams = np.sort(rng.uniform(1e-12, 1.0, m))[::-1]
        basis = spectrum_basis(lams)
        tau = float(rng.uniform(0.05, 4.0))
        n = int(rng.integers(1, 500))
        for eta in (1.0, 1.5, 2.0):
            for phi in (1e-4, 1e-2, 1.0):
                exact = gs_exact_bound(basis, phi, eta, tau, n)
                closed = gs_closed_bound(phi, eta, tau, n)
                cap = 4.0 * tau**2 / (n**2 * phi ** (1.0 / eta))
                if exact > closed * (1 + 1e-12) or closed > cap * (1 + 1e-12):
                    violations += 1
    report(2, "bound ordering", violations == 0, f"violations={violations}")


def test_acceptance_03_calibration_arithmetic():
    ok = True
    rng = np.random.default_rng(3)
    for _ in range(200):
        eps = float(rng.uniform(0.05, 1.0))
        delta = float(rng.uniform(1e-6, 0.5))
        dsq = float(rng.uniform(0.0, 10.0))
        got = noise_scale(PrivacyBudget(eps, delta), dsq)
        expected = 2.0 * math.log(2.0 / delta) / eps**2 * dsq
        ok &= got == expected or abs(got - expected) <= 1e-12 * expected
    worked = noise_scale(PrivacyBudget(1.0, 0.1), 0.16)
    ok &= abs(worked - 2.0 * math.log(20.0) * 0.16) <= 1e-12 * worked
    ok &= abs(worked - 0.958634) <= 1e-6
    report(3, "calibration arithmetic", ok, f"worked value={worked:.6f}")


def test_acceptance_04_smoother_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        m_pts = int(rng.integers(5, 21))  # grid size caps the mode count at 20
        if rng.random() < 0.5:
            pts = np.linspace(0.0, 1.0, m_pts)
        else:
            pts = np.sort(rng.uniform(0, 1, m_pts))
            while np.any(np.diff(pts) <= 1e-6):
                pts = np.sort(rng.uniform(0, 1, m_pts))
        grid = grid_from_points(pts)
        spec = KernelSpec(
            str(rng.choice(("gaussian", "matern52", "matern32", "exponential"))),
            float(10 ** rng.uniform(-3, 0.5)),
        )
        basis = kernel_basis(spec, grid)
        data = SampleSet.from_values(
            rng.normal(size=(int(rng.integers(1, 6)), m_pts)), grid
        )
        cfg = SmootherConfig(
            float(10 ** rng.uniform(-3, 1)), float(rng.choice([1.0, 1.5, 2.0]))
        )
        gap = np.abs(
            penalized_mean(data, basis, cfg).values
            - penalized_mean_direct(data, basis, cfg).values
        ).max()
        worst = max(worst, gap)
    report(4, "smoother oracle agreement", worst <= 1e-8, f"worst gap={worst:.2e}")


def test_acceptance_05_dp_audit():
    bases = [
        toy_basis(n_points=30, n_modes=3, seed=51, eigenvalues=(0.6, 0.2, 0.05)),
        toy_basis(),  # the 5-mode basis
        toy_basis(n_points=50, n_modes=8, seed=52,
                  eigenvalues=(0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005)),
        toy_basis(n_points=60, n_modes=10, seed=53,
                  eigenvalues=tuple(0.5 * 0.7**k for k in range(10))),
    ]
    rng = np.random.default_rng(5)
    all_calibrated_pass = True
    all_undercalibrated_fail = True
    for trial in range(20):
        basis = bases[trial % len(bases)]
        cd = rng.normal(size=basis.m)
        cdp = cd + rng.normal(size=basis.m) * rng.uniform(0.1, 1.0)
        theta_d, theta_dp = reconstruct(cd, basis), reconstruct(cdp, basis)
        sigma_sq = noise_scale(BUDGET, cm_norm_sq(cd - cdp, basis))
        good = dp_audit(theta_d, theta_dp, basis, BUDGET, sigma_sq, 100_000, seed=trial)
        bad = dp_audit(theta_d, theta_dp, basis, BUDGET, sigma_sq / 100.0,
                       100_000, seed=1000 + trial)
        all_calibrated_pass &= good.passed
        all_undercalibrated_fail &= (not bad.passed) and bad.undercalibrated
    report(5, "dp audit", all_calibrated_pass and all_undercalibrated_fail)


def test_acceptance_06_noise_covariance():
    basis = toy_basis()
    sigma_sq = 0.8
    draws = np.stack(
        [coefficients(sample_noise(basis, sigma_sq, seed), basis)
         for seed in range(10_000)]
    )
    variances = draws.var(axis=0)
    target = sigma_sq * basis.eigenvalues
    var_ok = bool(np.all(np.abs(variances / target - 1.0) <= 0.05))
    trace = float((draws**2).sum(axis=1).mean())
    trace_target = sigma_sq * float(basis.eigenvalues.sum())
    trace_ok = abs(trace / trace_target - 1.0) <= 0.03
    report(6, "noise covariance", var_ok and trace_ok,
           f"max var err={np.abs(variances / target - 1).max():.3f}, "
           f"trace err={abs(trace / trace_target - 1):.3f}")


def test_acceptance_07_utility_scaling(default_basis):
    mu = default_mean("sin_default", default_basis.grid)
    w = default_basis.grid.weights
    c = 0.01
    ratios = []
    for n in (25, 100, 400):
        phi = c / n
        cfg = SmootherConfig(phi, 2.0)
        noise_err, smooth_err = [], []
        for r in range(200):
            data = kl_simulate(
                SimConfig(n, seed=derive_seed(7, "scaling", n, r)), default_basis
            )
            mu_hat = penalized_mean(data, default_basis, cfg)
            calib = calibrate(default_basis, phi, 2.0, data.tau, n, BUDGET)
            smooth_err.append(float(np.sum(w * (mu_hat.values - mu.values) ** 2)))
            xi = make_rng(derive_seed(8, "scaling-noise", n, r)).standard_normal(
                default_basis.m
            )
            noise = np.sqrt(calib.sigma_sq * default_basis.eigenvalues) * xi
            noise_err.append(float(np.sum(noise**2)))
        ratios.append(np.mean(noise_err) / np.mean(smooth_err))
    ok = ratios[0] > ratios[1] > ratios[2]
    report(7, "utility scaling", ok, "ratios=" + ",".join(f"{r:.2f}" for r in ratios))


def test_acceptance_08_sweet_spot_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--sweep", "phi", "--values", "1e-6,1e-4,1e-2,1e-1,1",
        "--seed", "1", "--output", str(out),
    ])
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    noise, smooth = {}, {}
    for row in rows:
        _, value, metric, estimate = row.split(",")
        if metric == "release_vs_smooth":
            noise[float(value)] = float(estimate)
        elif metric == "smooth_vs_truth":
            smooth[float(value)] = float(estimate)
    phis = sorted(noise)
    noise_series = [noise[p] for p in phis]
    smooth_series = [smooth[p] for p in phis]
    monotone = all(a > b for a, b in zip(noise_series, noise_series[1:]))
    tail_up = smooth_series[-1] > smooth_series[2] and smooth_series[-2] > smooth_series[2]
    report(8, "sweet-spot sweep", monotone and tail_up,
           f"noise={noise_series}, smooth={smooth_series}")


def test_acceptance_09_projection_quadratic_form():
    basis = toy_basis()
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        functionals = rng.normal(size=(k, basis.m)) * rng.uniform(0.1, 10)
        theta = rng.normal(size=basis.m)
        theta_p = theta + rng.normal(size=basis.m) * rng.uniform(0.01, 2.0)
        q = projection_quadratic_form(functionals, theta - theta_p, basis)
        if q > cm_norm_sq(theta - theta_p, basis) + 1e-8:
            violations += 1
    report(9, "projection quadratic form", violations == 0, f"violations={violations}")


def test_acceptance_10_pcv_oversmooths(default_basis):
    data = kl_simulate(SimConfig(25, seed=3), default_basis)
    spec = KernelSpec("gaussian", 0.001)
    phis = (1e-4, 1e-3, 1e-2, 0.1)
    cv_scores = [cv_score(data, spec, phi, folds=10, fold_seed=5) for phi in phis]
    phi_cv = phis[int(np.argmin(cv_scores))]
    sel = SelectionGrid(phis, (0.001,), folds=10)
    phi_pcv, _ = pcv_select(data, "gaussian", sel, 1.0, BUDGET, seed=5)
    report(10, "pcv prefers heavier smoothing", phi_pcv >= phi_cv,
           f"phi_cv={phi_cv}, phi_pcv={phi_pcv}")


def test_acceptance_11_cli_determinism(tmp_path):
    grid = uniform_grid(25)
    rng = np.random.default_rng(11)
    sample = tmp_path / "data.csv"
    write_curves_csv(sample, grid, 0.2 * rng.normal(size=(6, 25)))
    basis = kernel_basis(KernelSpec("gaussian", 0.05), grid)
    theta_a = tmp_path / "ta.csv"
    theta_b = tmp_path / "tb.csv"
    write_curves_csv(theta_a, grid, reconstruct(0.2 * np.eye(basis.m)[0], basis).values)
    write_curves_csv(theta_b, grid, reconstruct(-0.2 * np.eye(basis.m)[0], basis).values)
    cases = {
        "simulate": ["simulate", "--n", "4", "--grid-points", "25", "--seed", "1"],
        "smooth": ["smooth", "--input", str(sample), "--rho", "0.05"],
        "release": ["release", "--input", str(sample), "--rho", "0.05", "--seed", "2"],
        "projections": ["projections", "--input", str(sample), "--rho", "0.05",
                        "--at", "0.0,0.5", "--seed", "2"],
        "audit": ["audit", "--theta-d", str(theta_a), "--theta-dp", str(theta_b),
                  "--rho", "0.05", "--samples", "10000", "--seed", "3"],
        "cv": ["cv", "--input", str(sample), "--rho-grid", "0.05,0.5",
               "--folds", "3", "--seed", "4"],
        "pcv": ["pcv", "--input", str(sample), "--phi-grid", "0.01,0.1",
                "--rho-grid", "0.05", "--folds", "3", "--seed", "4"],
        "sweep": ["sweep", "--sweep", "phi", "--values", "0.01,0.1", "--n", "4",
                  "--grid-points", "25", "--seed", "5"],
    }
    ok = True
    for name, argv in cases.items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        ok &= main(argv + ["--output", str(first)]) == 0
        ok &= main(argv + ["--output", str(second)]) == 0
        ok &= first.read_bytes() == second.read_bytes()
        meta1, meta2 = first.with_suffix(".out.meta"), second.with_suffix(".out.meta")
        if meta1.exists():
            ok &= meta1.read_bytes() == meta2.read_bytes()
    report(11, "cli determinism", ok)
