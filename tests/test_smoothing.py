import math
import tracemalloc

import numpy as np
import pytest

from fdpriv import (
    Curve,
    KernelSpec,
    SampleSet,
    SimConfig,
    SmootherConfig,
    SpectralBasis,
    cm_norm_sq,
    coefficients,
    compatibility_check,
    grid_from_points,
    kernel_basis,
    kl_simulate,
    penalized_mean,
    reconstruct,
    shrinkage_factors,
    uniform_grid,
)

from conftest import toy_basis
from oracles import penalized_mean_direct


def test_smoother_config_validation():
    with pytest.raises(ValueError):
        SmootherConfig(0.0)
    with pytest.raises(ValueError):
        SmootherConfig(0.1, eta=0.9)


@pytest.mark.parametrize("build,name", [
    (lambda: SmootherConfig(10**400), "phi"),
    (lambda: SmootherConfig(0.1, 10**400), "eta"),
    (lambda: SampleSet(np.zeros((2, 5)), uniform_grid(5), tau=10**400), "tau"),
], ids=["phi", "eta", "tau"])
def test_integers_too_large_for_a_float_are_refused(build, name):
    with pytest.raises(ValueError, match=f"{name} is too large to be represented as a float"):
        build()


def test_sample_set_refuses_an_integer_too_large_for_a_float():
    with pytest.raises(ValueError, match="values has an entry too large to be represented"):
        SampleSet([[10**400] + [0] * 9], uniform_grid(10))


def test_sample_set_tau_from_data():
    grid = uniform_grid(8)
    rng = np.random.default_rng(1)
    values = rng.normal(size=(4, 8))
    data = SampleSet(values, grid)
    norms = [Curve(row, grid).norm() for row in values]
    assert data.tau == max(norms)
    assert all(n <= data.tau for n in norms)


def test_simulated_norms_are_pinned_bitwise():
    # The quadrature is sum(w * x**2) in numpy's pairwise order: another
    # summation (a matrix product, say) moves these last bits.  The basis is
    # handcrafted, 10 times the identity (orthonormal under weights 1/100),
    # so that no LAPACK build enters the values.
    grid = uniform_grid(100)
    basis = SpectralBasis(1.0 / np.arange(1, 101) ** 2, 10.0 * np.eye(100), grid)
    data = kl_simulate(SimConfig(25, seed=0), basis)
    assert data.tau.hex() == "0x1.987e78ec9927ap-2"
    norms = [Curve(data.values[i], grid).norm().hex() for i in (0, 24)]
    assert norms == ["0x1.987e78ec9927ap-2", "0x1.047e8f856e428p-2"]


def test_subset_keeps_a_stated_tau_and_rederives_a_realized_one():
    grid = uniform_grid(8)
    values = np.random.default_rng(2).normal(size=(5, 8))
    realized = SampleSet(values, grid)
    largest = int(np.argmax(np.sum(values**2, axis=1)))
    rows = [i for i in range(5) if i != largest]
    part = realized.subset(rows)
    assert np.array_equal(part.values, values[rows])
    assert part.tau == SampleSet(values[rows], grid).tau < realized.tau
    assert SampleSet(values, grid, tau=9.0).subset(rows).tau == 9.0


def test_sample_set_rejects_violated_bound_and_mixed_grids():
    grid = uniform_grid(8)
    with pytest.raises(ValueError):
        SampleSet(np.full((1, 8), 10.0), grid, tau=1.0)
    with pytest.raises(ValueError):  # rows sampled on a 9-point grid
        SampleSet(np.zeros((2, 9)), grid)
    tiny = np.full((2, 8), 1e-170)  # nonzero, but the squared norms underflow
    for tau in (None, 0.0):
        with pytest.raises(ValueError, match="norms underflow to 0"):
            SampleSet(tiny, grid, tau)
        assert SampleSet(np.zeros((2, 8)), grid, tau).tau == 0.0
    assert SampleSet(tiny, grid, 1e-160).tau == 1e-160


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [None, 1e200])
def test_sample_set_refuses_curves_whose_squared_norm_overflows(tau):
    grid = uniform_grid(8)
    values = np.ones((3, 8))
    values[1] *= 1e160
    with pytest.raises(ValueError, match="squared norm is not a finite float"):
        SampleSet(values, grid, tau)


@pytest.mark.parametrize("tau", [-1.0, -1e-300, math.nan, math.inf])
def test_sample_set_refuses_a_stated_tau_that_is_not_a_finite_non_negative_bound(tau):
    with pytest.raises(ValueError, match="tau must be a finite non-negative bound"):
        SampleSet(np.zeros((2, 8)), uniform_grid(8), tau)


def test_sample_set_from_values_validates_rows():
    grid = uniform_grid(8)
    rng = np.random.default_rng(8)
    values = rng.normal(size=(5, 8))
    data = SampleSet.from_values(values, grid)
    assert data.n == 5 and data.grid is grid
    assert not data.values.flags.writeable
    with pytest.raises(ValueError):
        data.values[0, 0] = 1.0
    values[0, 0] = 99.0  # the sample keeps its own copy
    assert data.values[0, 0] != 99.0
    norms = [Curve(row, grid).norm() for row in data.values]
    assert data.tau == max(norms)
    bad = values.copy()
    bad[2, 3] = np.nan
    with pytest.raises(ValueError):
        SampleSet.from_values(bad, grid)
    with pytest.raises(ValueError):  # wrong width
        SampleSet.from_values(values[:, :7], grid)
    with pytest.raises(ValueError):  # a row above the stated bound
        SampleSet.from_values(values, grid, tau=0.5 * max(norms))
    with pytest.raises(ValueError):  # no rows
        SampleSet.from_values(np.empty((0, 8)), grid)
    with pytest.raises(ValueError, match=r"sample values must be an \(N, M\) array"):
        SampleSet.from_values(values[None], grid)


def test_sample_set_mean_is_computed_once_and_read_only():
    data = kl_simulate(SimConfig(37, seed=3), toy_basis())
    mean = data.mean
    assert isinstance(mean, Curve) and mean.grid is data.grid
    assert mean.values.tobytes() == data.values.mean(axis=0).tobytes()
    assert data.mean is mean  # the same object on every access
    assert not mean.values.flags.writeable
    with pytest.raises(AttributeError):
        data.mean = mean
    # a subset has its own mean, not its parent's
    part = data.subset([0, 5, 7])
    assert part.mean.values.tobytes() == data.values[[0, 5, 7]].mean(axis=0).tobytes()


def test_sample_set_holds_one_copy_of_its_values():
    grid = uniform_grid(1000)
    values = np.random.default_rng(9).normal(size=(400, 1000))
    tracemalloc.start()
    try:
        data = SampleSet.from_values(values, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * values.nbytes, peak / values.nbytes
    assert data.tau == float(np.sqrt(np.sum(grid.weights * values**2, axis=-1)).max())


@pytest.mark.parametrize("spec", [None, KernelSpec("gaussian", 0.01), KernelSpec("matern52", 0.1)],
                         ids=["toy", "gaussian", "matern52"])
def test_penalized_mean_is_bitwise_the_filtered_sample_mean(spec):
    basis = toy_basis() if spec is None else kernel_basis(spec, uniform_grid(40))
    data = kl_simulate(SimConfig(29, seed=4), basis)
    xbar = Curve(data.values.mean(axis=0), data.grid)
    for phi in (1e-4, 0.01, 1.0):
        for eta in (1.0, 1.5):
            cfg = SmootherConfig(phi, eta)
            want = reconstruct(shrinkage_factors(basis, cfg) * coefficients(xbar, basis), basis)
            assert penalized_mean(data, basis, cfg).values.tobytes() == want.values.tobytes()


def test_penalized_mean_single_mode_closed_form():
    basis = toy_basis()
    lam1 = basis.eigenvalues[0]
    c = 1.7
    phi = 0.05
    data = SampleSet.from_values(c * basis.matrix[:, 0], basis.grid)
    mu_hat = penalized_mean(data, basis, SmootherConfig(phi))
    expected = (lam1 / (lam1 + phi)) * c
    got = coefficients(mu_hat, basis)
    assert got[0] == pytest.approx(expected, rel=1e-12)
    assert np.abs(got[1:]).max() <= 1e-12


def test_penalized_mean_large_phi_shrinks_to_zero():
    basis = toy_basis()
    rng = np.random.default_rng(2)
    data = SampleSet.from_values(rng.normal(size=(3, basis.grid.size)), basis.grid)
    mu_hat = penalized_mean(data, basis, SmootherConfig(1e12))
    xbar = Curve(data.values.mean(axis=0), basis.grid)
    assert mu_hat.norm() <= 1e-10 * xbar.norm()


def test_penalized_mean_tiny_phi_is_projection():
    basis = toy_basis()
    rng = np.random.default_rng(3)
    data = SampleSet.from_values(rng.normal(size=(4, basis.grid.size)), basis.grid)
    mu_hat = penalized_mean(data, basis, SmootherConfig(1e-15))
    xbar = Curve(data.values.mean(axis=0), basis.grid)
    projection = basis.matrix @ coefficients(xbar, basis)
    assert np.abs(mu_hat.values - projection).max() <= 1e-8


def test_penalized_mean_grid_mismatch():
    basis = toy_basis()
    data = SampleSet.from_values(np.zeros((1, 10)), uniform_grid(10))
    with pytest.raises(ValueError):
        penalized_mean(data, basis, SmootherConfig(0.1))


def test_penalized_mean_linearity_in_data():
    basis = toy_basis()
    rng = np.random.default_rng(4)
    cfg = SmootherConfig(0.03, 1.5)
    x = rng.normal(size=basis.grid.size)
    y = rng.normal(size=basis.grid.size)
    a, b = 2.5, -1.25
    fit = lambda vals: coefficients(
        penalized_mean(SampleSet.from_values(vals, basis.grid), basis, cfg), basis
    )
    combo = fit(a * x + b * y)
    parts = a * fit(x) + b * fit(y)
    assert np.allclose(combo, parts, rtol=1e-10, atol=1e-12)


def test_penalized_mean_shrinkage_monotone_in_phi():
    basis = toy_basis()
    rng = np.random.default_rng(5)
    data = SampleSet.from_values(rng.normal(size=(3, basis.grid.size)), basis.grid)
    prev = None
    for phi in (1e-4, 1e-2, 1.0, 100.0):
        c = np.abs(coefficients(penalized_mean(data, basis, SmootherConfig(phi)), basis))
        if prev is not None:
            assert np.all(c <= prev + 1e-15)
        prev = c


def test_penalized_mean_output_is_compatible():
    basis = toy_basis()
    rng = np.random.default_rng(6)
    data = SampleSet.from_values(rng.normal(size=(5, basis.grid.size)), basis.grid)
    mu_hat = penalized_mean(data, basis, SmootherConfig(0.02))
    report = compatibility_check(mu_hat, basis)
    assert report.compatible
    assert np.isfinite(cm_norm_sq(coefficients(mu_hat, basis), basis))


def test_shrinkage_factors_between_zero_and_one():
    basis = toy_basis()
    f = shrinkage_factors(basis, SmootherConfig(0.1, 2.0))
    assert np.all((f > 0) & (f < 1))
    assert np.all(np.diff(f) <= 0)  # smaller eigenvalues shrink harder


def test_direct_solver_matches_spectral_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m_pts = int(rng.integers(5, 21))
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
        spectral = penalized_mean(data, basis, cfg)
        direct = penalized_mean_direct(data, basis, cfg)
        assert np.abs(spectral.values - direct.values).max() <= 1e-8


def test_direct_solver_single_mode_closed_form():
    grid = uniform_grid(12)
    basis = kernel_basis(KernelSpec("gaussian", 0.05), grid)
    v1 = Curve(basis.matrix[:, 0], grid)
    phi = 0.2
    direct = penalized_mean_direct(
        SampleSet.from_values(v1.values, grid), basis, SmootherConfig(phi)
    )
    lam1 = basis.eigenvalues[0]
    expected = (lam1 / (lam1 + phi)) * v1.values
    assert np.abs(direct.values - expected).max() <= 1e-10


def test_direct_solver_large_phi():
    basis = toy_basis()
    rng = np.random.default_rng(8)
    data = SampleSet.from_values(rng.normal(size=(2, basis.grid.size)), basis.grid)
    direct = penalized_mean_direct(data, basis, SmootherConfig(1e12))
    assert np.abs(direct.values).max() <= 1e-10
