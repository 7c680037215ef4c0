"""Independent reference implementations the tests check the package against."""

import numpy as np

from fdpriv import Curve, SampleSet, SmootherConfig, SpectralBasis, gram_matrix


def penalized_mean_direct(
    data: SampleSet, basis: SpectralBasis, cfg: SmootherConfig
) -> Curve:
    """Dense-solve form of the penalized mean, an oracle for ``penalized_mean``.

    Solves (C^eta + phi I) mu = C^eta xbar on the grid, where C^eta is formed
    from the full (untruncated) spectrum of the symmetrized covariance matrix.
    Agreement with :func:`fdpriv.penalized_mean` within 1e-8 in max norm is
    part of the estimator's contract.
    """
    if not data.grid.matches(basis.grid):
        raise ValueError("data grid does not match the basis grid")
    grid = basis.grid
    if basis.spec is not None:
        gram = gram_matrix(basis.spec, grid)
    else:
        gram = basis.matrix @ (basis.eigenvalues[:, None] * basis.matrix.T)
    sqrt_w = np.sqrt(grid.weights)
    sym = sqrt_w[:, None] * (0.5 * (gram + gram.T)) * sqrt_w[None, :]
    if cfg.eta == 1.0:
        sym_eta = sym
    else:
        evals, evecs = np.linalg.eigh(sym)
        evals = np.clip(evals, 0.0, None)  # round-off can leave tiny negatives
        sym_eta = (evecs * evals**cfg.eta) @ evecs.T
    xbar = data.values.mean(axis=0)
    rhs = sym_eta @ (sqrt_w * xbar)
    solution = np.linalg.solve(sym_eta + cfg.phi * np.eye(grid.size), rhs)
    return Curve(solution / sqrt_w, grid)
