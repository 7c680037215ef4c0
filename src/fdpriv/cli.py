"""Command-line interface tying the modules into reproducible runs.

Subcommands: simulate | smooth | release | projections | audit | cv | pcv |
sweep.  Each accepts exactly the options its handler reads, declared once in
``_OPTIONS``, and no abbreviation of them.  Every kernel basis keeps the
modes above ``DEFAULT_TRUNCATION_TOL`` of the leading eigenvalue.  Exit codes:
0 success, 2 configuration or parse error (also inputs too large to allocate),
3 privacy refusal (epsilon > 1 or an incompatible summary), 4 numerical
failure.  Every output is a CSV or key=value file that reruns
byte-identically from the same flags and seed.
Every sidecar comes from ``_write_sidecar``: ``command``, the basis ``tol``,
each option the command read under its argparse dest except the file paths,
then the command's outputs (the ``ReleaseMeta`` fields for ``release`` and
``projections``, the ``AuditReport`` fields for ``audit``, ``passed`` written
as ``pass``), which win on a clash.  ``--phi-grid`` and ``--rho-grid`` are
sorted and refused with a repeated value while parsing.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .calibration import GS_METHODS, PrivacyBudget, PrivacyRefusalError, calibrate
from .io import (
    CsvFormatError,
    format_float,
    meta_path,
    read_curves_csv,
    write_curves_csv,
    write_long_csv,
    write_meta,
)
from .kernels import Curve, KERNEL_FAMILIES, KernelSpec, uniform_grid
from .mechanism import dp_audit, noise_energy, release_function
from .selection import SelectionGrid, cv_score, pcv_select
from .simulate import MEAN_NAMES, SimConfig, default_mean, kl_simulate
from .smoothing import SampleSet, SmootherConfig, penalized_mean
from .spectral import DEFAULT_TRUNCATION_TOL, kernel_basis

SWEEP_PARAMETERS = ("phi", "rho", "kernel", "p", "epsilon", "delta", "n", "mean")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError(f"numeric list {text!r} has no values")
    return values


def _candidate_list(text: str) -> list[float]:
    values = sorted(_float_list(text))
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"candidate list {text!r} repeats a value")
    return values


def _str_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip() != ""]


#: Every option of every subcommand, declared once; ``_COMMANDS`` names the
#: ones each handler reads.
_OPTIONS = {
    "--input": dict(required=True, help="curve CSV holding the sample"),
    "--tau": dict(type=float, default=None,
                  help="a-priori bound on every curve's norm (default: the data's largest)"),
    "--theta-d": dict(required=True, help="curve CSV with the first summary"),
    "--theta-dp": dict(required=True, help="curve CSV with the adjacent summary"),
    "--sweep": dict(required=True, choices=SWEEP_PARAMETERS, dest="parameter",
                    help="the single parameter to vary"),
    "--values": dict(required=True, help="comma-separated values for the swept parameter"),
    "--kernel": dict(default="gaussian", choices=KERNEL_FAMILIES, dest="kernel_family",
                     help="covariance kernel family (default gaussian)"),
    "--rho": dict(type=float, default=0.001, help="kernel range parameter (default 0.001)"),
    "--phi": dict(type=float, default=0.01, help="penalty parameter (default 0.01)"),
    "--eta": dict(type=float, default=1.0, help="penalty exponent >= 1 (default 1)"),
    "--epsilon": dict(type=float, default=1.0,
                      help="privacy budget epsilon in (0, 1] (default 1)"),
    "--delta": dict(type=float, default=0.1, help="privacy budget delta in (0, 1) (default 0.1)"),
    "--method": dict(default="exact_spectral", choices=GS_METHODS,
                     help="sensitivity bound to calibrate with"),
    "--n": dict(type=int, default=25, help="number of curves (default 25)"),
    "--p": dict(type=float, default=4.0, help="score decay exponent (default 4)"),
    "--grid-points": dict(type=int, default=100, help="equispaced grid size (default 100)"),
    "--mean": dict(default="sin_default", choices=MEAN_NAMES,
                   help="mean function name (default sin_default)"),
    "--score-halfwidth": dict(type=float, default=0.4,
                              help="uniform score halfwidth (default 0.4)"),
    "--at": dict(type=_float_list, required=True,
                 help="comma-separated grid points to evaluate at"),
    "--sigma-sq": dict(type=float, default=None,
                       help="noise variance to audit (default: calibrated for the pair)"),
    "--samples": dict(type=int, default=100_000, dest="n_samples",
                      help="Monte-Carlo sample count (default 100000)"),
    "--phi-grid": dict(type=_candidate_list, required=True, dest="phi_values",
                       help="comma-separated candidate penalties"),
    "--rho-grid": dict(type=_candidate_list, required=True, dest="rho_values",
                       help="comma-separated candidate range parameters"),
    "--folds": dict(type=int, default=10, help="CV folds (default 10)"),
    "--calibrate-on-full-n": dict(action="store_true",
                                  help="calibrate fold noise with the full sample size and tau"),
    "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "--output": dict(required=True, help="output file path"),
}


#: Options naming files; a sidecar records the rest.
_FILE_OPTIONS = ("--input", "--theta-d", "--theta-dp", "--output")


def _dest(option: str) -> str:
    return _OPTIONS[option].get("dest", option[2:].replace("-", "_"))


def _write_sidecar(path, args, **outputs) -> None:
    """Write ``command``, the basis ``tol``, each non-file option read, then the outputs."""
    dests = [_dest(o) for o in _COMMANDS[args.command][2].split() if o not in _FILE_OPTIONS]
    write_meta(path, {"command": args.command, "tol": DEFAULT_TRUNCATION_TOL,
                      **{d: getattr(args, d) for d in dests}, **outputs})


def _load_sample(path, tau=None) -> SampleSet:
    grid, values = read_curves_csv(path)
    return SampleSet.from_values(values, grid, tau)


def _basis(args, grid):
    return kernel_basis(KernelSpec(args.kernel_family, args.rho), grid)


def _simulate(args, basis):
    return kl_simulate(SimConfig(args.n, args.p, args.mean, args.score_halfwidth, args.seed),
                       basis)


def _smooth_and_calibrate(args, data, basis):
    mu_hat = penalized_mean(data, basis, SmootherConfig(args.phi, args.eta))
    budget = PrivacyBudget(args.epsilon, args.delta)
    return mu_hat, calibrate(basis, args.phi, args.eta, data.tau, data.n, budget, args.method)


def cmd_simulate(args) -> None:
    grid = uniform_grid(args.grid_points)
    basis = _basis(args, grid)
    data = _simulate(args, basis)
    write_curves_csv(args.output, grid, data.values)
    _write_sidecar(meta_path(args.output), args, modes=basis.m, tau=data.tau)
    print(f"wrote {args.n} curves to {args.output}")


def cmd_smooth(args) -> None:
    data = _load_sample(args.input)
    basis = _basis(args, data.grid)
    mu_hat = penalized_mean(data, basis, SmootherConfig(args.phi, args.eta))
    write_curves_csv(args.output, data.grid, mu_hat.values)
    _write_sidecar(meta_path(args.output), args, n=data.n, tau=data.tau, modes=basis.m)
    print(f"wrote smoothed mean to {args.output}")


def _release_pipeline(args):
    data = _load_sample(args.input, args.tau)
    basis = _basis(args, data.grid)
    return (data, basis, *_smooth_and_calibrate(args, data, basis))


def cmd_release(args) -> None:
    data, basis, mu_hat, calib = _release_pipeline(args)
    release = release_function(mu_hat, basis, calib, args.seed)
    write_curves_csv(args.output, data.grid, release.curve.values)
    _write_sidecar(meta_path(args.output), args, **release.meta.as_dict())
    print(f"wrote sanitized release to {args.output} "
          f"(delta_sq={format_float(calib.delta_sq)}, sigma_sq={format_float(calib.sigma_sq)})")


def _grid_row(grid, t: float) -> int:
    """Index of the grid point at t; point evaluations exist only there."""
    idx = np.nonzero(np.isclose(grid.points, t, rtol=0.0, atol=1e-12))[0]
    if idx.size == 0:
        raise ValueError(f"t={t} is not a grid point; point evaluations need one")
    return int(idx[0])


def cmd_projections(args) -> None:
    data, basis, mu_hat, calib = _release_pipeline(args)
    rows = [_grid_row(data.grid, t) for t in args.at]
    release = release_function(mu_hat, basis, calib, args.seed)
    write_long_csv(args.output, [format_float(t) for t in args.at], [release.curve.values[rows]])
    _write_sidecar(meta_path(args.output), args, **release.meta.as_dict())
    print(f"wrote {len(rows)} sanitized point evaluations to {args.output}")


def _read_single_curve(path):
    grid, values = read_curves_csv(path)
    if len(values) != 1:
        raise ValueError(f"{path} holds {len(values)} curves; audit needs one summary curve")
    return Curve(values[0], grid)


def cmd_audit(args) -> None:
    theta_d = _read_single_curve(args.theta_d)
    theta_dp = _read_single_curve(args.theta_dp)
    if not theta_d.grid.matches(theta_dp.grid):
        raise ValueError("theta curves live on different grids")
    basis = _basis(args, theta_d.grid)
    budget = PrivacyBudget(args.epsilon, args.delta)
    report = dp_audit(theta_d, theta_dp, basis, budget, args.sigma_sq, args.n_samples, args.seed)
    fields = asdict(report)
    fields["pass"] = fields.pop("passed")
    _write_sidecar(args.output, args, **fields)
    verdict = "pass" if report.passed else "FAIL"
    print(f"audit {verdict}: rate={format_float(report.empirical_violation_rate)} "
          f"vs delta={format_float(report.delta)}")


def cmd_cv(args) -> None:
    data = _load_sample(args.input)
    scores = [cv_score(data, KernelSpec(args.kernel_family, rho), args.phi, args.eta,
                       args.folds, args.seed) for rho in args.rho_values]
    best = int(np.argmin(scores))  # the first minimum: rho_values is sorted
    selected_rho = args.rho_values[best]
    _write_sidecar(args.output, args, n=data.n, scores=scores, selected_rho=selected_rho,
                   selected_score=scores[best])
    print(f"cv selected rho={format_float(selected_rho)}")


def cmd_pcv(args) -> None:
    data = _load_sample(args.input, args.tau)
    grid = SelectionGrid(args.phi_values, args.rho_values, args.folds)
    budget = PrivacyBudget(args.epsilon, args.delta)
    phi_star, rho_star = pcv_select(
        data, args.kernel_family, grid, args.eta, budget, args.seed, args.calibrate_on_full_n,
    )
    _write_sidecar(args.output, args, n=data.n, tau=data.tau, selected_phi=phi_star,
                   selected_rho=rho_star)
    print(f"pcv selected phi={format_float(phi_star)} rho={format_float(rho_star)}")


def _sweep_values(parameter: str, raw: str):
    if parameter in ("kernel", "mean"):
        return _str_list(raw)
    if parameter == "n":
        values = _float_list(raw)
        if not all(v.is_integer() for v in values):
            raise ValueError(f"sweep over n needs whole numbers, got {raw!r}")
        return [int(v) for v in values]
    return _float_list(raw)


def _sweep_point(args, value):
    """The simulate, smooth and calibrate stages at the flags with one option replaced."""
    point = argparse.Namespace(**{**vars(args), _dest("--" + args.parameter): value})
    grid = uniform_grid(point.grid_points)
    basis = _basis(point, grid)
    mu_hat, calib = _smooth_and_calibrate(point, _simulate(point, basis), basis)
    err_smooth = float(grid.norm_sq(mu_hat.values - default_mean(point.mean, grid).values))
    return err_smooth, noise_energy(basis, calib.sigma_sq)


def cmd_sweep(args) -> None:
    values = _sweep_values(args.parameter, args.values)
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for value in values:
        err_smooth, err_noise = _sweep_point(args, value)
        rows.append((args.parameter, value, "smooth_vs_truth", err_smooth))
        rows.append((args.parameter, value, "release_vs_smooth", err_noise))
        rows.append((args.parameter, value, "release_vs_truth", err_smooth + err_noise))
    write_long_csv(args.output, ["parameter", "value", "metric", "estimate"], rows)
    _write_sidecar(meta_path(args.output), args)
    print(f"wrote sweep over {args.parameter} ({len(values)} values) to {args.output}")


#: Each subcommand: its handler, its help line and the options it reads.
_COMMANDS = {
    "simulate": (cmd_simulate, "simulate curves by Karhunen-Loeve expansion",
                 "--kernel --rho --n --p --grid-points --mean --score-halfwidth --seed --output"),
    "smooth": (cmd_smooth, "penalized mean estimate of a curve sample",
               "--input --kernel --rho --phi --eta --output"),
    "release": (cmd_release, "sanitized full-function release",
                "--input --tau --kernel --rho --phi --eta --epsilon --delta --method"
                " --seed --output"),
    "projections": (cmd_projections, "sanitized point evaluations",
                    "--input --tau --kernel --rho --phi --eta --epsilon --delta --method"
                    " --at --seed --output"),
    "audit": (cmd_audit, "Monte-Carlo audit of an adjacent summary pair",
              "--theta-d --theta-dp --kernel --rho --epsilon --delta --sigma-sq --samples"
              " --seed --output"),
    "cv": (cmd_cv, "cross-validate the kernel range at fixed phi",
           "--input --kernel --phi --eta --rho-grid --folds --seed --output"),
    "pcv": (cmd_pcv, "private cross-validation over (phi, rho)",
            "--input --tau --kernel --eta --epsilon --delta --phi-grid --rho-grid --folds"
            " --calibrate-on-full-n --seed --output"),
    "sweep": (cmd_sweep, "vary one parameter and tabulate expected errors",
              "--sweep --values --kernel --rho --phi --eta --epsilon --delta --n --p"
              " --grid-points --mean --score-halfwidth --method --seed --output"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdpriv",
        description="Differentially private releases of curve-valued statistics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line, allow_abbrev=False)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
        return 0
    except PrivacyRefusalError as exc:
        print(f"privacy refusal: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (CsvFormatError, ValueError, OSError, MemoryError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
