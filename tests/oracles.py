"""Independent reference implementations the tests check the package against.

Besides the dense-solve smoother oracle, this module holds the formulas that
only the tests need: the closed-form sensitivity maximizer, the dual Gram
matrix of a batch of functionals and its quadratic form, the hashed
substream seeds of the Monte-Carlo acceptance studies, a one-call replay
of the privacy audit, the coefficient-space (P)CV score, and the curve CSV
text as ``format_float`` joins it, with the doubles that test the writer's
digits against it.
"""

import hashlib
import math
import struct

import numpy as np

from fdpriv import (
    Curve,
    KernelSpec,
    PrivacyBudget,
    SampleSet,
    SmootherConfig,
    SpectralBasis,
    calibrate,
    fold_partition,
    gram_matrix,
    kernel_basis,
    noise_energy,
    shrinkage_factors,
)
from fdpriv.io import format_float
from fdpriv.rng import make_rng

_MASK64 = (1 << 64) - 1


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


def gs_sup_maximizer(phi: float, eta: float) -> float:
    """Argmax of f(x) = x^(2 eta - 1) / (x^eta + phi)^2 over x > 0.

    The maximum sits at x* = (phi (2 eta - 1))^(1/eta); plugging it into f
    reproduces the closed-form bound.
    """
    SmootherConfig(phi, eta)  # the bounds' own refusals of phi and eta
    return (phi * (2.0 * eta - 1.0)) ** (1.0 / eta)


def k_gram(functionals: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Gram matrix of linear functionals in the dual (covariance) inner product.

    A functional is a length-m coefficient vector f acting as
    f(x) = sum_j f_j <x, v_j>; the dual inner product is
    <f, g> = sum_j lambda_j f_j g_j.
    """
    f = np.atleast_2d(np.asarray(functionals, dtype=float))
    if f.shape[1] != basis.m:
        raise ValueError(f"functionals must have {basis.m} coefficients")
    if not np.all(np.isfinite(f)):
        raise ValueError("functional coefficients must be finite")
    return (f * basis.eigenvalues) @ f.T


def projection_quadratic_form(
    functionals: np.ndarray, delta_coeffs: np.ndarray, basis: SpectralBasis
) -> float:
    """Quadratic form (nu - nu')^T K^+ (nu - nu') for a batch of functionals.

    nu - nu' are the functional values of the coefficient difference
    delta_coeffs, and K is the functionals' dual-space Gram matrix.  The form
    never exceeds the squared Cameron-Martin norm of the difference, which is
    why a finite batch of functional releases costs no more noise than the
    full function.  Singular values of K below 1e-10 of the largest are
    treated as zero in the pseudoinverse.
    """
    f = np.atleast_2d(np.asarray(functionals, dtype=float))
    delta_coeffs = np.asarray(delta_coeffs, dtype=float)
    if delta_coeffs.shape != (basis.m,):
        raise ValueError(f"expected {basis.m} coefficients")
    gram = k_gram(f, basis)
    diff = f @ delta_coeffs
    return float(diff @ np.linalg.pinv(gram, rcond=1e-10) @ diff)


def derive_seed(base: int, *parts) -> int:
    """Hash (base, parts) into a fresh 64-bit substream seed.

    Parts may be ints, floats, or strings; floats are hashed through their
    IEEE-754 bits so equal values map to the same substream no matter how they
    were produced (e.g. the same grid value listed in a different order).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", int(base) & _MASK64))
    for part in parts:
        if isinstance(part, bool):
            h.update(b"b" + bytes([part]))
        elif isinstance(part, int):
            h.update(b"i" + struct.pack("<q", part))
        elif isinstance(part, float):
            h.update(b"f" + struct.pack("<d", part))
        else:
            data = str(part).encode("utf-8")
            h.update(b"s" + struct.pack("<I", len(data)) + data)
    return int.from_bytes(h.digest(), "little")


def audit_violations_one_call(
    cd: np.ndarray,
    cdp: np.ndarray,
    eigenvalues: np.ndarray,
    sigma_sq: float,
    epsilon: float,
    n_samples: int,
    seed: int,
) -> int:
    """Violation count of ``dp_audit``, with all its normals drawn in one call.

    The audit makes ceil(n_samples / 2) draws xi from ``make_rng(seed)``.  Each
    gives t = (D / sigma) * xi, the N(0, 2 mu) law of the noise's component
    along the loss line, with D^2 = sum (cd - cdp)^2 / lambda and
    mu = D^2 / (2 sigma^2).  Each t is scored as the two losses mu + t and
    mu - t, and at odd n_samples the last draw's mirror is dropped.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    mu = float(np.sum((cd - cdp) ** 2 / lam)) / (2.0 * sigma_sq)
    t = math.sqrt(2.0 * mu) * make_rng(seed).standard_normal(-(-n_samples // 2))
    losses = np.concatenate([mu + t, mu - t[: n_samples // 2]])
    return int(np.count_nonzero(losses > epsilon))


def pcv_score_coefficient_space(
    data: SampleSet,
    spec: KernelSpec,
    phi: float,
    eta: float,
    folds: int,
    seed: int,
    budget: PrivacyBudget | None = None,
    calibrate_on_full_n: bool = False,
    tau: float | None = None,
) -> float:
    """(P)CV score from the curves' basis coefficients, an oracle for ``cv_score``/``pcv_score``.

    With C the curves' coefficients in the basis, a fold's fit at penalty phi
    has coefficients S(phi) * cbar, cbar the mean of C over the training
    rows, so its squared weighted-L2 distance to held-out curve i is
    ||S(phi) * cbar - C_i||^2 plus curve i's energy off the retained span.
    That energy is taken from the residual X_i - V C_i itself (the difference
    of two norms would cancel to round-off).  With a budget, add the noise
    energy of the fold's calibrated release: training n and largest training
    norm, or the full sample's with calibrate_on_full_n.  tau is a bound
    stated for the sample a priori (pass the one data was built with); it
    bounds every training set too, so it replaces the largest training norm.
    Without a budget this is the plain CV score.
    """
    basis = kernel_basis(spec, data.grid)
    v, w = basis.matrix, data.grid.weights
    coeffs = (data.values * w) @ v
    off_span = ((data.values - coeffs @ v.T) ** 2) @ w
    norms = np.sqrt((data.values**2) @ w)
    shrink = shrinkage_factors(basis, SmootherConfig(phi, eta))
    parts = fold_partition(data.n, folds, seed)
    total = 0.0
    for k, held_idx in enumerate(parts):
        train_idx = np.concatenate([p for i, p in enumerate(parts) if i != k])
        fit = shrink * coeffs[train_idx].mean(axis=0)
        err = float((np.sum((fit - coeffs[held_idx]) ** 2, axis=1) + off_span[held_idx]).mean())
        if budget is not None:
            bound, n = ((data.tau, data.n) if calibrate_on_full_n
                        else (norms[train_idx].max() if tau is None else tau, train_idx.size))
            err += noise_energy(basis, calibrate(basis, phi, eta, bound, n, budget).sigma_sq)
        total += err
    return total / folds


def curve_csv_text(points, rows) -> bytes:
    """Curve CSV bytes joined value by value: ``format_float`` of each, one line per row."""
    lines = [np.asarray(points, dtype=float).tolist(), *np.asarray(rows, dtype=float).tolist()]
    return "".join(",".join(map(format_float, line)) + "\n" for line in lines).encode("utf-8")


def float_text_cases(rng, n_random: int, n_mantissas: int) -> dict[str, np.ndarray]:
    """Finite doubles that probe shortest round-trip formatting, by family.

    ``n_random`` random bit patterns (the non-finite ones dropped), and at
    every biased exponent 0-2046 ``n_mantissas`` random mantissas plus 0, 1
    and 2^52 - 1, in both signs.  With ``n_mantissas`` > 0 also: the first
    1e5 subnormals, powers of 2 and 10 with their float neighbours, short
    decimals at every scale, integers up to 2^53 and across 1e16-1e17, and
    the values on either side of repr's switch to exponent form.
    """
    bits = rng.integers(0, 2**64, n_random, dtype=np.uint64, endpoint=False).view(np.float64)
    exponents = np.arange(2047, dtype=np.uint64)[:, np.newaxis] << np.uint64(52)
    mantissas = np.concatenate([rng.integers(0, 2**52, (2047, n_mantissas), dtype=np.uint64),
                                np.tile(np.array([0, 1, 2**52 - 1], np.uint64), (2047, 1))], axis=1)
    patterns = (exponents | mantissas).ravel()
    cases = {
        "random bits": bits[np.isfinite(bits)],
        "every exponent": np.concatenate([patterns, patterns | np.uint64(1 << 63)]).view(float),
    }
    if n_mantissas:
        powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                                 [float(f"1e{j}") for j in range(-323, 309)]])
        cases["subnormals"] = np.arange(1, 100001, dtype=np.uint64).view(np.float64)
        cases["powers"] = np.concatenate([powers, np.nextafter(powers, 0.0),
                                          np.nextafter(powers, np.inf)])
        short = np.array([float(f"{m}e{j}") for j in range(-324, 309)
                          for m in (1, 2, 5, 12, 125, 999, 1234567)])
        cases["short decimals"] = short[np.isfinite(short)]
        cases["integers"] = np.concatenate([
            rng.integers(0, 2**53, 20000, endpoint=True).astype(float),
            np.arange(0.0, 20000.0),
            rng.integers(10**16, 10**17, 20000, endpoint=True).astype(float),
        ])
        cases["fixed or exponent"] = np.array([
            -0.0, 0.0, 5e-324, 123.0, 1e-05, 9.999999999999999e-05, 0.0001, 0.00012345678901234567,
            9999999999999998.0, 1e16, 1.2345678901234567e16, 0.1 + 0.2, 2.0**50 + 0.25,
        ])
    return cases
