import inspect
import math

import numpy as np
import pytest

import fdpriv.selection
from fdpriv import (
    Curve,
    KernelSpec,
    PrivacyBudget,
    SampleSet,
    SelectionGrid,
    SimConfig,
    calibrate,
    cv_score,
    cv_select,
    fold_partition,
    kernel_basis,
    kl_simulate,
    noise_energy,
    pcv_score,
    pcv_select,
    penalized_mean,
    SmootherConfig,
    uniform_grid,
)
from oracles import pcv_score_coefficient_space

BUDGET = PrivacyBudget(1.0, 0.1)
CHECK_PHIS = (0.001, 0.01, 0.1, 1.0)
CHECK_RHOS = (0.0005, 0.001, 0.002)


def test_selection_grid_validation():
    SelectionGrid((0.01, 0.1), (0.001, 0.01))
    with pytest.raises(ValueError):
        SelectionGrid((), (0.1,))
    with pytest.raises(ValueError):
        SelectionGrid((0.1, 0.01), (0.1,))  # not increasing
    with pytest.raises(ValueError):
        SelectionGrid((0.1,), (0.1,), folds=1)


def test_selection_grid_checks_each_value_by_its_owners_rule():
    with pytest.raises(ValueError, match="kernel range parameter rho=1e[+]200 must be positive"):
        SelectionGrid((0.1,), (0.001, 1e200))
    for rho in (0.0, 1e-160, math.nan):
        with pytest.raises(ValueError, match="kernel range parameter rho"):
            SelectionGrid((0.1,), (rho,))
    for phi in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="penalty phi must be positive and finite"):
            SelectionGrid((0.01, phi), (0.1,))


def test_cv_select_checks_every_candidate_before_scoring_any(monkeypatch):
    scored = []
    monkeypatch.setattr(fdpriv.selection, "cv_score", lambda *args: scored.append(args) or 0.0)
    with pytest.raises(ValueError, match="kernel range parameter rho=1e[+]200"):
        cv_select(_rough_sample(), "gaussian", 0.1, [0.01, 0.1, 1e200])
    with pytest.raises(ValueError, match="rho grid must be non-empty"):
        cv_select(_rough_sample(), "gaussian", 0.1, [])
    assert scored == []


def test_fractional_fold_count_is_refused():
    # 2.5 folds would split into 2 but divide the summed errors by 2.5
    data = _rough_sample(n=20)
    with pytest.raises(ValueError, match="whole number"):
        fold_partition(20, 2.5, seed=0)
    with pytest.raises(ValueError, match="whole number"):
        cv_score(data, KernelSpec("gaussian", 0.05), 0.1, folds=2.5)
    with pytest.raises(ValueError, match="whole number"):
        SelectionGrid((0.1,), (0.1,), folds=2.5)
    assert cv_score(data, KernelSpec("gaussian", 0.05), 0.1, folds=2.0) == cv_score(
        data, KernelSpec("gaussian", 0.05), 0.1, folds=2)
    grid = SelectionGrid((0.1,), (0.1,), folds=3.0)
    assert grid.folds == 3 and type(grid.folds) is int


@pytest.mark.parametrize("n,seed,match", [
    (10.5, 0, "sample size n must be a whole number"),
    (0, 0, "sample size n must be at least 1"),
    (10, 2.7, "seed must be a whole number"),
])
def test_fold_partition_refuses_a_count_or_seed_that_is_not_whole(n, seed, match):
    with pytest.raises(ValueError, match=match):
        fold_partition(n, 2, seed)


def test_fold_partition_takes_a_whole_valued_float_sample_size():
    assert all(np.array_equal(a, b)
               for a, b in zip(fold_partition(10.0, 2, 0), fold_partition(10, 2, 0)))


def test_fold_partition_properties():
    parts = fold_partition(23, 4, seed=3)
    again = fold_partition(23, 4, seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(parts, again))
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1
    joined = np.sort(np.concatenate(parts))
    assert np.array_equal(joined, np.arange(23))
    with pytest.raises(ValueError):
        fold_partition(3, 4, seed=0)


def test_cv_score_perfect_fit_limit():
    grid = uniform_grid(2)
    basis = kernel_basis(KernelSpec("exponential", 1.0), grid)
    v1 = basis.matrix[:, 0]
    data = SampleSet(np.tile(v1, (4, 1)), grid)
    score = cv_score(data, KernelSpec("exponential", 1.0), 1e-15, folds=2, fold_seed=0)
    assert score <= 1e-16


def test_cv_score_null_model_limit():
    grid = uniform_grid(12)
    rng = np.random.default_rng(2)
    values = rng.normal(size=(6, 12))
    data = SampleSet.from_values(values, grid)
    folds, seed = 3, 5
    score = cv_score(data, KernelSpec("gaussian", 0.05), 1e12, folds=folds, fold_seed=seed)
    # with phi huge the fit is ~0, so each fold scores the held-out norms
    expected = 0.0
    for held in fold_partition(data.n, folds, seed):
        expected += float(((values[held] ** 2) @ grid.weights).mean())
    expected /= folds
    assert score == pytest.approx(expected, abs=1e-8)


def test_cv_score_two_fold_hand_value():
    grid = uniform_grid(2)
    spec = KernelSpec("exponential", 1.0)
    basis = kernel_basis(spec, grid)
    v1 = basis.matrix[:, 0]  # (1, 1) with eigenvalue (1 + e^-1)/2
    lam1 = (1.0 + math.exp(-1.0)) / 2.0
    assert basis.eigenvalues[0] == pytest.approx(lam1, rel=1e-14)
    data = SampleSet(np.stack([v1, -v1]), grid)
    phi = 0.3
    s = lam1 / (lam1 + phi)
    score = cv_score(data, spec, phi, folds=2, fold_seed=0)
    assert score == pytest.approx((1.0 + s) ** 2, rel=1e-12)


def test_cv_select_single_and_duplicate_grid():
    grid = uniform_grid(10)
    rng = np.random.default_rng(3)
    data = SampleSet.from_values(rng.normal(size=(5, 10)), grid)
    assert cv_select(data, "gaussian", 0.01, [0.2], folds=5) == 0.2
    assert cv_select(data, "gaussian", 0.01, [0.2, 0.2], folds=5) == 0.2


def test_cv_select_recovers_generating_range_parameter(default_basis):
    # a mean with fine-scale structure: the wide-range kernel cannot represent
    # it, so the generating rho wins
    grid = default_basis.grid
    rough = Curve(
        0.1 * np.sin(np.pi * grid.points) + 0.2 * default_basis.matrix[:, 30], grid
    )
    data = kl_simulate(SimConfig(25, mean=rough, seed=3), default_basis)
    scores = {
        rho: cv_score(data, KernelSpec("gaussian", rho), 1e-3, folds=5, fold_seed=2)
        for rho in (0.001, 1.0)
    }
    assert scores[0.001] < scores[1.0]
    assert cv_select(data, "gaussian", 1e-3, [0.001, 1.0], folds=5, seed=2) == 0.001


def test_cv_select_order_invariant():
    grid = uniform_grid(10)
    rng = np.random.default_rng(4)
    data = SampleSet.from_values(rng.normal(size=(6, 10)), grid)
    grid_a = [0.01, 0.3, 0.05, 1.0]
    grid_b = list(reversed(grid_a))
    a = cv_select(data, "matern32", 0.05, grid_a, folds=3, seed=1)
    b = cv_select(data, "matern32", 0.05, grid_b, folds=3, seed=1)
    assert a == b


def _pcv_noise_gap(data, spec, phi, eta, folds, seed):
    """Fold mean of sigma_k^2 * sum(lambda), the exact pcv - cv gap.

    Per fold the expected sanitized score is  A + 2 E<z, d> + E|z|^2  with z
    the mean-zero noise, so the shift over plain CV is sigma_k^2 tr(lambda).
    """
    basis = kernel_basis(spec, data.grid)
    parts = fold_partition(data.n, folds, seed)
    gap = 0.0
    for k in range(len(parts)):
        train_idx = np.concatenate([p for i, p in enumerate(parts) if i != k])
        train = SampleSet.from_values(data.values[train_idx], data.grid)
        calib = calibrate(basis, phi, eta, train.tau, train.n, BUDGET)
        gap += calib.sigma_sq * float(basis.eigenvalues.sum())
    return gap / len(parts)


def test_pcv_score_equals_cv_score_without_noise():
    grid = uniform_grid(10)
    data = SampleSet.from_values(np.zeros((6, 10)), grid)  # tau = 0 => sigma^2 = 0
    spec = KernelSpec("gaussian", 0.05)
    cv = cv_score(data, spec, 0.01, folds=3, fold_seed=1)
    pcv = pcv_score(data, spec, 0.01, 1.0, BUDGET, folds=3, seed=1)
    assert abs(pcv - cv) <= 1e-10
    # CV is PCV without a budget, exactly, on real data and a whole phi column
    data = SampleSet.from_values(0.4 * np.random.default_rng(3).normal(size=(9, 10)), grid)
    for phi in (0.01, [0.001, 0.01, 0.1]):
        cv = cv_score(data, spec, phi, 1.5, folds=3, fold_seed=4)
        pcv = pcv_score(data, spec, phi, 1.5, None, folds=3, seed=4)
        assert np.all(pcv == cv) and np.ndim(pcv) == np.ndim(phi)
        assert np.all(pcv_score(data, spec, phi, 1.5, BUDGET, folds=3, seed=4) > cv)


def test_pcv_score_deterministic():
    grid = uniform_grid(10)
    rng = np.random.default_rng(5)
    data = SampleSet.from_values(0.3 * rng.normal(size=(6, 10)), grid)
    spec = KernelSpec("gaussian", 0.05)
    a = pcv_score(data, spec, 0.01, 1.0, BUDGET, folds=3, seed=9)
    b = pcv_score(data, spec, 0.01, 1.0, BUDGET, folds=3, seed=9)
    assert a == b


def test_pcv_score_noise_trace_decomposition():
    grid = uniform_grid(15)
    rng = np.random.default_rng(6)
    data = SampleSet.from_values(0.5 * rng.normal(size=(8, 15)), grid)
    spec = KernelSpec("matern52", 0.1)
    phi, eta, folds, seed = 0.05, 1.0, 4, 3
    cv = cv_score(data, spec, phi, eta, folds, seed)
    pcv = pcv_score(data, spec, phi, eta, BUDGET, folds, seed)
    gap = _pcv_noise_gap(data, spec, phi, eta, folds, seed)
    assert pcv - cv == pytest.approx(gap, rel=1e-12)


def test_pcv_score_never_below_cv_minus_noise():
    rng = np.random.default_rng(7)
    for trial in range(6):
        m_pts = int(rng.integers(8, 16))
        grid = uniform_grid(m_pts)
        data = SampleSet.from_values(rng.normal(size=(6, m_pts)) * 0.4, grid)
        spec = KernelSpec(
            str(rng.choice(("gaussian", "matern32"))), float(10 ** rng.uniform(-2, 0))
        )
        phi = float(10 ** rng.uniform(-3, 0))
        cv = cv_score(data, spec, phi, folds=3, fold_seed=trial)
        pcv = pcv_score(data, spec, phi, 1.0, BUDGET, 3, trial)
        gap = _pcv_noise_gap(data, spec, phi, 1.0, 3, trial)
        assert pcv >= cv
        assert pcv - cv == pytest.approx(gap, rel=1e-12)


def test_pcv_full_n_calibration_adds_less_noise():
    grid = uniform_grid(12)
    rng = np.random.default_rng(9)
    data = SampleSet.from_values(0.4 * rng.normal(size=(9, 12)), grid)
    spec = KernelSpec("gaussian", 0.05)
    per_fold = pcv_score(data, spec, 0.01, 1.0, BUDGET, folds=3, seed=2)
    full_n = pcv_score(data, spec, 0.01, 1.0, BUDGET, folds=3, seed=2,
                       calibrate_on_full_n=True)
    # full-N calibration uses the larger sample size, hence sigma^2 shrinks by
    # (N_train/N)^2 and the noise part of the score drops with it
    cv = cv_score(data, spec, 0.01, folds=3, fold_seed=2)
    assert cv < full_n < per_fold


def test_pcv_select_single_cell():
    grid = uniform_grid(10)
    rng = np.random.default_rng(8)
    data = SampleSet.from_values(0.3 * rng.normal(size=(6, 10)), grid)
    sel = SelectionGrid((0.02,), (0.1,), folds=3)
    assert pcv_select(data, "gaussian", sel, 1.0, BUDGET, seed=1) == (0.02, 0.1)


def test_pcv_select_zero_data_matches_cv_selection():
    grid = uniform_grid(10)
    data = SampleSet.from_values(np.zeros((6, 10)), grid)
    sel = SelectionGrid((0.01, 0.1), (0.05, 0.5), folds=3)
    phi_star, rho_star = pcv_select(data, "gaussian", sel, 1.0, BUDGET, seed=2)
    # zero sensitivity: pcv scores equal cv scores, every cell ties, and the
    # tie rule picks the smallest phi then smallest rho -- same as plain cv
    assert (phi_star, rho_star) == (0.01, 0.05)
    assert cv_select(data, "gaussian", 0.01, [0.05, 0.5], folds=3, seed=2) == 0.05


def test_pcv_prefers_heavier_smoothing_than_cv(default_basis):
    data = kl_simulate(SimConfig(25, seed=3), default_basis)
    phis = (1e-4, 1e-3, 1e-2, 0.1)
    spec = KernelSpec("gaussian", 0.001)
    cv_scores = [cv_score(data, spec, phi, folds=10, fold_seed=5) for phi in phis]
    phi_cv = phis[int(np.argmin(cv_scores))]
    sel = SelectionGrid(phis, (0.001,), folds=10)
    phi_pcv, _ = pcv_select(data, "gaussian", sel, 1.0, BUDGET, seed=5)
    assert phi_pcv >= phi_cv


def test_selection_builds_no_per_row_curves(default_basis, monkeypatch):
    built = []
    original = Curve.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(Curve, "__post_init__", counting)
    sel = SelectionGrid((0.01, 0.1), (0.001, 0.002), folds=4)
    counts = []
    for n in (40, 200):
        data = kl_simulate(SimConfig(n, seed=1), default_basis)
        built.clear()
        pcv_select(data, "gaussian", sel, 1.0, BUDGET, seed=2)
        cv_select(data, "gaussian", 0.01, sel.rho_values, folds=4, seed=2)
        counts.append(len(built))
    assert counts[0] == counts[1]


def _rough_sample(m_points=30, n=13, seed=11):
    """Rough curves: white noise plus a smooth bump, with energy on every mode."""
    grid = uniform_grid(m_points)
    rng = np.random.default_rng(seed)
    values = 0.4 * rng.normal(size=(n, m_points)) + np.sin(np.pi * grid.points)
    return SampleSet.from_values(values, grid)


@pytest.mark.parametrize("calibrate_on_full_n", (False, True))
@pytest.mark.parametrize("eta", (1.0, 1.5))
@pytest.mark.parametrize("spec", (KernelSpec("gaussian", 0.05), KernelSpec("matern32", 0.2),
                                  KernelSpec("exponential", 0.5)), ids=lambda s: s.family)
def test_scores_match_coefficient_space_oracle(spec, eta, calibrate_on_full_n):
    data = _rough_sample()
    basis = kernel_basis(spec, data.grid)
    if spec.family == "gaussian":
        # truncated spectrum: part of every curve lies off the retained span,
        # which the coefficient-space oracle has to add back
        assert basis.m < data.grid.size
        off_span = data.values - (data.values * data.grid.weights) @ basis.matrix @ basis.matrix.T
        assert np.min((off_span**2) @ data.grid.weights) > 1e-3
    phis = (1e-4, 0.003, 0.1, 2.0)
    folds, seed = 4, 7
    cv = cv_score(data, spec, phis, eta, folds, seed)
    pcv = pcv_score(data, spec, phis, eta, BUDGET, folds, seed, calibrate_on_full_n)
    for p, phi in enumerate(phis):
        want_cv = pcv_score_coefficient_space(data, spec, phi, eta, folds, seed)
        want_pcv = pcv_score_coefficient_space(data, spec, phi, eta, folds, seed, BUDGET,
                                               calibrate_on_full_n)
        assert cv[p] == pytest.approx(want_cv, rel=1e-12, abs=0.0)
        assert pcv[p] == pytest.approx(want_pcv, rel=1e-12, abs=0.0)


def test_vector_phi_equals_scalar_calls():
    data = _rough_sample(n=17, seed=12)
    spec = KernelSpec("matern52", 0.1)
    phis = [1e-3, 0.02, 0.5]
    cv = cv_score(data, spec, phis, 1.5, 5, 2)
    pcv = pcv_score(data, spec, phis, 1.5, BUDGET, 5, 2)
    assert isinstance(cv, np.ndarray) and cv.shape == (3,)
    assert isinstance(pcv, np.ndarray) and pcv.shape == (3,)
    for p, phi in enumerate(phis):
        one_cv = cv_score(data, spec, phi, 1.5, 5, 2)
        one_pcv = pcv_score(data, spec, phi, 1.5, BUDGET, 5, 2)
        assert isinstance(one_cv, float) and isinstance(one_pcv, float)
        # each penalty's score is summed exactly as a scalar call sums it
        assert one_cv == cv[p]
        assert one_pcv == pcv[p]


def test_every_phi_of_a_column_is_validated():
    data = _rough_sample()
    spec = KernelSpec("gaussian", 0.05)
    with pytest.raises(ValueError, match="penalty phi must be positive and finite"):
        cv_score(data, spec, [0.1, -1.0])
    with pytest.raises(ValueError, match="penalty phi must be positive and finite"):
        pcv_score(data, spec, [0.1, math.inf], 1.0, BUDGET)
    with pytest.raises(ValueError, match="penalty exponent eta must be at least 1"):
        pcv_score(data, spec, [0.1], 0.5, BUDGET)
    with pytest.raises(ValueError, match="1-D"):
        cv_score(data, spec, [])
    with pytest.raises(ValueError, match="1-D"):
        cv_score(data, spec, [[0.1, 0.2]])


def test_selection_builds_one_basis_and_one_training_set_per_rho_and_fold(default_basis,
                                                                          monkeypatch):
    data = kl_simulate(SimConfig(30, seed=4), default_basis)
    bases, sample_sets = [], []
    original_basis = fdpriv.selection.kernel_basis
    original_init = SampleSet.__post_init__

    def counting_basis(*args, **kwargs):
        bases.append(1)
        return original_basis(*args, **kwargs)

    def counting_init(self):
        sample_sets.append(1)
        original_init(self)

    monkeypatch.setattr(fdpriv.selection, "kernel_basis", counting_basis)
    monkeypatch.setattr(SampleSet, "__post_init__", counting_init)
    sel = SelectionGrid((0.001, 0.01, 0.1, 1.0), (0.001, 0.002, 0.004), folds=5)
    pcv_select(data, "gaussian", sel, 1.0, BUDGET, seed=1)
    # per rho, not per (phi, rho) cell
    assert len(bases) == len(sel.rho_values)
    assert len(sample_sets) == len(sel.rho_values) * sel.folds
    bases.clear()
    sample_sets.clear()
    cv_select(data, "gaussian", 0.01, sel.rho_values, folds=5, seed=1)
    assert len(bases) == len(sel.rho_values)
    assert len(sample_sets) == len(sel.rho_values) * sel.folds


@pytest.mark.parametrize("calibrate_on_full_n", (False, True))
def test_pcv_carries_a_stated_tau_into_every_fold(calibrate_on_full_n):
    grid = uniform_grid(30)
    values = np.random.default_rng(5).normal(size=(12, 30))
    realized = SampleSet(values, grid)
    stated = SampleSet(values, grid, tau=10.0 * realized.tau)
    spec, phis, folds, seed = KernelSpec("matern32", 0.2), (0.01, 0.1), 4, 3
    got = pcv_score(stated, spec, phis, 1.0, BUDGET, folds, seed, calibrate_on_full_n)
    for p, phi in enumerate(phis):
        want = pcv_score_coefficient_space(stated, spec, phi, 1.0, folds, seed, BUDGET,
                                           calibrate_on_full_n, tau=stated.tau)
        assert got[p] == pytest.approx(want, rel=1e-12, abs=0.0)
    # ten times the bound, a hundred times the noise: the noise term dominates
    data_derived = pcv_score(realized, spec, phis, 1.0, BUDGET, folds, seed,
                             calibrate_on_full_n)
    assert np.all(got > 10.0 * data_derived)


@pytest.mark.parametrize("calibrate_on_full_n", (False, True))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_pcv_select_pick_matches_oracle_on_check_set(default_basis, seed,
                                                     calibrate_on_full_n):
    data = kl_simulate(SimConfig(200, seed=seed), default_basis)
    table = np.array([
        [pcv_score_coefficient_space(data, KernelSpec("gaussian", rho), phi, 1.0, 10, seed,
                                     BUDGET, calibrate_on_full_n) for rho in CHECK_RHOS]
        for phi in CHECK_PHIS
    ])
    p, r = np.unravel_index(np.argmin(table), table.shape)
    sel = SelectionGrid(CHECK_PHIS, CHECK_RHOS, folds=10)
    pick = pcv_select(data, "gaussian", sel, 1.0, BUDGET, seed, calibrate_on_full_n)
    assert pick == (CHECK_PHIS[p], CHECK_RHOS[r]) == (0.1, 0.002)


@pytest.mark.parametrize("function", [cv_score, cv_select, pcv_select])
def test_selection_takes_the_default_basis_truncation(function):
    assert "tol" not in inspect.signature(function).parameters


@pytest.mark.parametrize("call,name", [
    (lambda: SelectionGrid((10**400,), (0.1,)), "phi"),
    (lambda: SelectionGrid((0.1,), (10**400,)), "rho"),
    (lambda: SelectionGrid((0.1,), (0.1,), 10**400), "folds"),
    (lambda: fold_partition(10, 10**400, 0), "folds"),
    (lambda: cv_select(_rough_sample(), "gaussian", 0.1, [10**400]), "rho"),
    (lambda: cv_score(_rough_sample(), KernelSpec("gaussian", 0.05), [0.1, 10**400]), "phi"),
], ids=["grid-phi", "grid-rho", "grid-folds", "fold_partition", "cv_select", "cv_score"])
def test_integers_too_large_for_a_float_are_refused(call, name):
    with pytest.raises(ValueError, match=f"{name} is too large to be represented as a float"):
        call()


def _counting_calibrate(monkeypatch) -> list:
    """Record the (tau, n) of every calibration that selection makes."""
    calls = []
    original = fdpriv.selection.calibrate

    def counting(basis, phi, eta, tau, n, budget):
        calls.append((tau, n))
        return original(basis, phi, eta, tau, n, budget)

    monkeypatch.setattr(fdpriv.selection, "calibrate", counting)
    return calls


def _per_fold_pcv(data, spec, phis, eta, budget, folds, seed, calibrate_on_full_n):
    """Private CV scores from a loop that calibrates every (fold, phi) afresh."""
    basis = kernel_basis(spec, data.grid)
    cfgs = [SmootherConfig(phi, eta) for phi in phis]
    parts = fold_partition(data.n, folds, seed)
    total = np.zeros(len(cfgs))
    for k, held_idx in enumerate(parts):
        train = data.subset(np.concatenate([p for i, p in enumerate(parts) if i != k]))
        fits = np.stack([penalized_mean(train, basis, cfg).values for cfg in cfgs])
        errors = data.grid.norm_sq(fits[:, None, :] - data.values[held_idx]).mean(axis=1)
        on = data if calibrate_on_full_n else train
        errors += [noise_energy(basis, calibrate(basis, cfg.phi, eta, on.tau, on.n,
                                                 budget).sigma_sq) for cfg in cfgs]
        total += errors
    return total / folds


def test_pcv_select_calibrates_once_per_distinct_tau_and_n(default_basis, monkeypatch):
    # M = 100, n = 200, a 4 x 3 grid and 10 folds of 20 curves: every training
    # set has 180 curves, and all but one share the sample's largest norm
    calls = _counting_calibrate(monkeypatch)
    data = kl_simulate(SimConfig(200, seed=1), default_basis)
    sel = SelectionGrid(CHECK_PHIS, CHECK_RHOS, folds=10)
    pcv_select(data, "gaussian", sel, 1.0, BUDGET, seed=1)
    assert len(calls) == 2 * len(CHECK_PHIS) * len(CHECK_RHOS) == 24
    assert set(calls) == {(data.tau, 180), (sorted(calls)[0][0], 180)}
    assert sorted(calls)[0][0] < data.tau


@pytest.mark.parametrize("eta", (1.0, 1.5))
@pytest.mark.parametrize("tau,calibrate_on_full_n,keys", [
    (None, False, 3), (3.0, False, 2), (None, True, 1), (3.0, True, 1),
], ids=["derived", "stated", "derived-full-n", "stated-full-n"])
def test_pcv_score_calibrates_each_phi_once_per_key(monkeypatch, tau, calibrate_on_full_n, keys,
                                                     eta):
    # 37 curves in 4 folds: training sets of 27 and 28 curves, and at fold
    # seed 1 the largest-norm curve is held out from one of the 28, so a
    # derived tau takes the keys (tau_max, 27), (tau_max, 28), (tau_2nd, 28)
    rough = _rough_sample(n=37, seed=13)
    data = SampleSet(rough.values, rough.grid, tau)
    spec, phis, folds, seed = KernelSpec("matern52", 0.1), (1e-3, 0.02, 0.5), 4, 1
    want = _per_fold_pcv(data, spec, phis, eta, BUDGET, folds, seed, calibrate_on_full_n)
    calls = _counting_calibrate(monkeypatch)
    got = pcv_score(data, spec, phis, eta, BUDGET, folds, seed, calibrate_on_full_n)
    assert len(set(calls)) == keys and len(calls) == keys * len(phis)
    if calibrate_on_full_n:
        assert set(calls) == {(data.tau, data.n)}
    assert np.all(got == want)  # bit for bit: the fold sum keeps its order
