import numpy as np
import pytest

from fdpriv import (
    Curve,
    SimConfig,
    coefficients,
    default_mean,
    grid_from_points,
    kl_simulate,
    uniform_grid,
)

from conftest import toy_basis


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(0)
    with pytest.raises(ValueError, match="whole number"):
        SimConfig(2.5)  # would silently become 2 curves
    with pytest.raises(ValueError):
        SimConfig(5, p=1.0)  # p must exceed 1
    with pytest.raises(ValueError):
        SimConfig(5, score_halfwidth=0.0)
    with pytest.raises(ValueError):
        SimConfig(5, mean="ramp")
    for name, kwargs in (("n", dict(n=10**400)), ("p", dict(n=5, p=10**400)),
                         ("score_halfwidth", dict(n=5, score_halfwidth=10**400))):
        with pytest.raises(ValueError, match=f"{name} is too large to be represented as a float"):
            SimConfig(**kwargs)


def test_sim_config_refuses_custom_mean_name():
    # a custom mean is passed as a Curve, so "custom" is no longer a name
    with pytest.raises(ValueError):
        SimConfig(5, mean="custom")


def test_default_mean_values():
    grid = uniform_grid(101)  # includes t = 0.5 exactly
    mu = default_mean("sin_default", grid)
    mid = np.nonzero(grid.points == 0.5)[0][0]
    assert mu.values[mid] == pytest.approx(0.1, rel=1e-15)
    assert mu.values[0] == 0.0
    assert np.all(default_mean("zero", grid).values == 0.0)
    with pytest.raises(ValueError):
        default_mean("parabola", grid)
    with pytest.raises(ValueError):
        default_mean("custom", grid)  # a mean curve goes into SimConfig directly


def test_kl_simulate_deterministic():
    basis = toy_basis()
    a = kl_simulate(SimConfig(8, seed=42), basis)
    b = kl_simulate(SimConfig(8, seed=42), basis)
    c = kl_simulate(SimConfig(8, seed=43), basis)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_kl_simulate_score_range():
    basis = toy_basis()
    p, w = 2.5, 0.4
    data = kl_simulate(SimConfig(50, p=p, seed=7), basis)
    mu = default_mean("sin_default", basis.grid)
    decay = np.arange(1, basis.m + 1, dtype=float) ** (-p / 2.0)
    for row in data.values:
        c = coefficients(Curve(row - mu.values, basis.grid), basis)
        scores = c / decay
        assert np.all(np.abs(scores) < w + 1e-12)


def test_kl_simulate_tau_is_attained_max_norm():
    basis = toy_basis()
    data = kl_simulate(SimConfig(30, seed=9), basis)
    norms = [Curve(row, basis.grid).norm() for row in data.values]
    assert data.tau == max(norms)
    assert all(n <= data.tau for n in norms)


def test_kl_simulate_vanishing_scores():
    basis = toy_basis()
    data = kl_simulate(SimConfig(5, score_halfwidth=1e-300, seed=1), basis)
    mu = default_mean("sin_default", basis.grid)
    assert np.abs(data.values - mu.values).max() <= 1e-290


def test_kl_simulate_curves_lie_in_mean_plus_span():
    basis = toy_basis()
    data = kl_simulate(SimConfig(1, seed=13), basis)
    mu = default_mean("sin_default", basis.grid)
    deviation = Curve(data.values[0] - mu.values, basis.grid)
    residual = deviation.values - basis.matrix @ coefficients(deviation, basis)
    assert float(np.sqrt(np.sum(basis.grid.weights * residual**2))) <= 1e-10


def test_kl_simulate_sample_mean_converges(default_basis):
    p, w, n = 4.0, 0.4, 10_000
    data = kl_simulate(SimConfig(n, p=p, seed=2024), default_basis)
    mu = default_mean("sin_default", default_basis.grid)
    gap = Curve(data.values.mean(axis=0) - mu.values, default_basis.grid)
    j = np.arange(1, default_basis.m + 1, dtype=float)
    # score variance is w^2/3 per mode, so E|Xbar - mu|^2 = sum j^-p w^2/3 / n
    bound = 4.0 * np.sqrt(np.sum(j ** (-p)) * w**2 / 3.0 / n)
    assert gap.norm() <= bound


def test_kl_simulate_custom_mean_curve():
    basis = toy_basis()
    custom = Curve(np.linspace(0.0, 0.5, basis.grid.size), basis.grid)
    data = kl_simulate(SimConfig(3, mean=custom, score_halfwidth=1e-300, seed=0), basis)
    assert np.abs(data.values - custom.values).max() <= 1e-290
    other = grid_from_points(basis.grid.points**2)  # same size, other abscissae
    with pytest.raises(ValueError, match="different grid"):
        kl_simulate(SimConfig(3, mean=Curve(custom.values, other)), basis)
