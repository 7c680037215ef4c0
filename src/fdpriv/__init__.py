"""Differentially private releases of curve-valued statistics.

Estimates a mean curve by penalized RKHS smoothing, bounds its sensitivity in
the Cameron-Martin norm of a chosen Gaussian-process noise, and releases the
estimate with calibrated noise.  Includes a Karhunen-Loeve simulator, an
empirical privacy auditor, and CV/PCV hyperparameter selection.

Post-processing needs no API: any function of ``release.curve`` (its
``norm()``, linear functionals ``F @ coefficients(release.curve, basis)``,
``np.gradient`` on the grid, your own transform) keeps the release's
guarantee, and ``release.meta`` carries the provenance alongside.
"""

from .calibration import (
    CalibrationResult,
    GS_METHODS,
    PrivacyBudget,
    PrivacyRefusalError,
    calibrate,
    gs_closed_bound,
    gs_exact_bound,
    noise_scale,
)
from .kernels import (
    Curve,
    Grid,
    KERNEL_FAMILIES,
    KernelSpec,
    gram_matrix,
    grid_from_points,
    uniform_grid,
)
from .mechanism import (
    AuditReport,
    ReleaseMeta,
    SanitizedRelease,
    dp_audit,
    noise_energy,
    release_function,
    sample_noise,
)
from .rng import make_rng
from .selection import (
    SelectionGrid,
    cv_score,
    cv_select,
    fold_partition,
    pcv_score,
    pcv_select,
)
from .simulate import MEAN_NAMES, SimConfig, default_mean, kl_simulate
from .smoothing import (
    SampleSet,
    SmootherConfig,
    penalized_mean,
    shrinkage_factors,
)
from .spectral import (
    CompatibilityReport,
    SpectralBasis,
    cm_norm_sq,
    coefficients,
    compatibility_check,
    kernel_basis,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CalibrationResult",
    "CompatibilityReport",
    "Curve",
    "GS_METHODS",
    "Grid",
    "KERNEL_FAMILIES",
    "KernelSpec",
    "MEAN_NAMES",
    "PrivacyBudget",
    "PrivacyRefusalError",
    "ReleaseMeta",
    "SampleSet",
    "SanitizedRelease",
    "SelectionGrid",
    "SimConfig",
    "SmootherConfig",
    "SpectralBasis",
    "calibrate",
    "cm_norm_sq",
    "coefficients",
    "compatibility_check",
    "cv_score",
    "cv_select",
    "default_mean",
    "dp_audit",
    "fold_partition",
    "gram_matrix",
    "grid_from_points",
    "gs_closed_bound",
    "gs_exact_bound",
    "kernel_basis",
    "kl_simulate",
    "make_rng",
    "noise_energy",
    "noise_scale",
    "pcv_score",
    "pcv_select",
    "penalized_mean",
    "reconstruct",
    "release_function",
    "sample_noise",
    "shrinkage_factors",
    "uniform_grid",
]
