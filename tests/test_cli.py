import argparse
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fdpriv.cli
from fdpriv import (
    AuditReport,
    Curve,
    KernelSpec,
    PrivacyBudget,
    ReleaseMeta,
    SampleSet,
    SelectionGrid,
    default_mean,
    dp_audit,
    kernel_basis,
    pcv_select,
    reconstruct,
    uniform_grid,
)
from fdpriv.cli import build_parser, main
from fdpriv.io import _format_cell, read_curves_csv, read_meta, write_curves_csv


def run(*argv) -> int:
    return main(list(argv))


def test_simulate_default_shape_and_meta(tmp_path):
    out = tmp_path / "sample.csv"
    assert run("simulate", "--output", str(out)) == 0
    grid, values = read_curves_csv(out)
    assert grid.size == 100 and values.shape == (25, 100)
    meta = read_meta(str(out) + ".meta")
    assert float(meta["tau"]) > 0.0
    assert meta["seed"] == "0"


def test_simulate_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--n", "5", "--grid-points", "40", "--seed", "7"]
    assert run(*args, "--output", str(a)) == 0
    assert run(*args, "--output", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta").read_bytes() == (tmp_path / "b.csv.meta").read_bytes()


def test_simulate_single_curve_tiny_scores(tmp_path):
    out = tmp_path / "one.csv"
    assert run("simulate", "--n", "1", "--score-halfwidth", "1e-300",
               "--grid-points", "50", "--output", str(out)) == 0
    grid, values = read_curves_csv(out)
    mu = 0.1 * np.sin(np.pi * grid.points)
    assert np.abs(values[0] - mu).max() <= 1e-290


def test_release_pipeline_and_meta_arithmetic(tmp_path):
    sample = tmp_path / "sample.csv"
    out = tmp_path / "release.csv"
    assert run("simulate", "--n", "10", "--grid-points", "60", "--seed", "3",
               "--output", str(sample)) == 0
    assert run("release", "--input", str(sample),
               "--phi", "0.01", "--epsilon", "1", "--delta", "0.1",
               "--seed", "5", "--output", str(out)) == 0
    meta = read_meta(str(out) + ".meta")
    sigma_sq = float(meta["sigma_sq"])
    delta_sq = float(meta["delta_sq"])
    assert sigma_sq == pytest.approx(2.0 * math.log(20.0) * delta_sq, rel=1e-12)
    assert meta["method"] == "exact_spectral"
    grid, values = read_curves_csv(out)
    assert values.shape == (1, 60)


def test_release_refuses_epsilon_above_one(tmp_path, capsys):
    sample = tmp_path / "sample.csv"
    assert run("simulate", "--n", "4", "--grid-points", "30",
               "--output", str(sample)) == 0
    code = run("release", "--input", str(sample), "--epsilon", "2",
               "--output", str(tmp_path / "r.csv"))
    assert code == 3
    assert "epsilon" in capsys.readouterr().err


def test_release_of_zero_data_equals_smooth(tmp_path):
    grid = uniform_grid(20)
    sample = tmp_path / "zeros.csv"
    write_curves_csv(sample, grid, np.zeros((4, 20)))
    smooth_out = tmp_path / "smooth.csv"
    release_out = tmp_path / "release.csv"
    common = ["--input", str(sample), "--kernel", "gaussian", "--rho", "0.01",
              "--phi", "0.05"]
    assert run("smooth", *common, "--output", str(smooth_out)) == 0
    assert run("release", *common, "--seed", "9", "--output", str(release_out)) == 0
    _, smoothed = read_curves_csv(smooth_out)
    _, released = read_curves_csv(release_out)
    assert np.array_equal(smoothed, released)  # tau = 0 forces sigma_sq = 0
    meta = read_meta(str(release_out) + ".meta")
    assert float(meta["sigma_sq"]) == 0.0


@pytest.mark.parametrize("eta,phi", [("60", "1e-200"), ("200", "1e-150")])
def test_release_adds_noise_where_powers_of_the_spectrum_underflow(tmp_path, eta, phi):
    sample, smooth_out, release_out = (tmp_path / f for f in ("D.csv", "s.csv", "r.csv"))
    assert run("simulate", "--output", str(sample)) == 0
    common = ["--input", str(sample), "--eta", eta, "--phi", phi]
    assert run("smooth", *common, "--output", str(smooth_out)) == 0
    assert run("release", *common, "--output", str(release_out)) == 0
    sigma_sq = float(read_meta(str(release_out) + ".meta")["sigma_sq"])
    assert math.isfinite(sigma_sq) and sigma_sq > 0.0
    assert not np.array_equal(read_curves_csv(smooth_out)[1], read_curves_csv(release_out)[1])


@pytest.mark.parametrize("command,argv", [
    ("release", ["--phi", "1e-60"]),
    ("projections", ["--phi", "1e-60", "--at", "0.0"]),
    ("pcv", ["--phi-grid", "1e-60,0.1", "--rho-grid", "0.001", "--folds", "3"]),
    ("sweep", ["--sweep", "phi", "--values", "1e-60", "--n", "6"]),
])
def test_bound_that_underflows_to_zero_noise_is_a_privacy_refusal(tmp_path, capsys, command,
                                                                   argv):
    sample, out = tmp_path / "D.csv", tmp_path / "out.csv"
    assert run("simulate", "--output", str(sample)) == 0
    inputs = [] if command == "sweep" else ["--input", str(sample)]
    assert run(command, *inputs, *argv, "--eta", "200", "--output", str(out)) == 3
    err = capsys.readouterr().err
    assert "phi=1e-60, eta=200.0 underflows to zero noise" in err and "tau=" in err
    assert not out.exists()


def test_release_refuses_nonzero_curves_whose_norms_underflow(tmp_path, capsys):
    sample, tiny, out = tmp_path / "D.csv", tmp_path / "tiny.csv", tmp_path / "r.csv"
    assert run("simulate", "--output", str(sample)) == 0
    grid, values = read_curves_csv(sample)
    write_curves_csv(tiny, grid, 1e-170 * values)
    assert run("release", "--input", str(tiny), "--output", str(out)) == 2
    assert "norms underflow to 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,argv", [
    ("release", ["--rho", "0.05"]),
    ("projections", ["--rho", "0.05", "--at", "0.0"]),
    ("pcv", ["--phi-grid", "0.1", "--rho-grid", "0.05", "--folds", "3"]),
])
def test_tau_whose_square_overflows_is_config_error(tmp_path, capsys, command, argv):
    sample, out = tmp_path / "D.csv", tmp_path / "out.csv"
    assert run("simulate", "--n", "6", "--grid-points", "30", "--rho", "0.05",
               "--output", str(sample)) == 0
    assert run(command, "--input", str(sample), "--tau", "1e200", *argv,
               "--output", str(out)) == 2
    assert "tau=1e+200 is too large" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["--kernel", "matern52", "--rho", "1e300"], ["--kernel", "matern52", "--rho", "1e-200"],
     ["--kernel", "matern32", "--rho", "1e-310"], ["--rho", "1e-310"]],
    ids=["matern52-large", "matern52-small", "matern32-subnormal", "gaussian-subnormal"],
)
def test_rho_whose_square_is_not_a_normal_float_is_config_error(tmp_path, capsys, argv):
    out = tmp_path / "D.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("simulate", *argv, "--output", str(out)) == 2
    assert f"rho={float(argv[-1])} must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,option,name", [
    ("simulate", "--n", "n"), ("cv", "--folds", "folds"), ("audit", "--samples", "n_samples"),
])
def test_integer_too_large_for_a_float_is_config_error(tmp_path, capsys, command, option,
                                                       name):
    sample, out = tmp_path / "D.csv", tmp_path / "out.txt"
    assert run("simulate", "--n", "6", "--grid-points", "30", "--output", str(sample)) == 0
    theta = tmp_path / "theta.csv"
    assert run("smooth", "--input", str(sample), "--output", str(theta)) == 0
    inputs = {"simulate": [], "cv": ["--input", str(sample), "--rho-grid", "0.001"],
              "audit": ["--theta-d", str(theta), "--theta-dp", str(theta)]}[command]
    capsys.readouterr()
    assert run(command, *inputs, option, "1" + "0" * 400, "--output", str(out)) == 2
    assert f"{name} is too large to be represented as a float" in capsys.readouterr().err
    assert not out.exists()


def test_closed_form_bound_that_overflows_is_config_error(tmp_path, capsys):
    sample, out = tmp_path / "D.csv", tmp_path / "out.csv"
    assert run("simulate", "--n", "6", "--grid-points", "30", "--rho", "0.05",
               "--output", str(sample)) == 0
    assert run("release", "--input", str(sample), "--rho", "0.05", "--method", "closed_form",
               "--eta", "1e200", "--output", str(out)) == 2
    assert "closed-form bound at eta=1e+200," in capsys.readouterr().err
    assert not out.exists()


def test_malformed_csv_exit_code_and_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,0.5,1.0\n1.0,x,2.0\n", encoding="utf-8")
    code = run("smooth", "--input", str(bad), "--output", str(tmp_path / "o.csv"))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2: field 2 is not a number: 'x'" in err and "row" not in err
    bad.write_text("", encoding="utf-8")
    assert run("smooth", "--input", str(bad), "--output", str(tmp_path / "o.csv")) == 2
    assert "need a grid row" in capsys.readouterr().err


def test_unknown_flag_is_config_error(tmp_path):
    assert run("simulate", "--output", str(tmp_path / "x.csv"), "--bogus") == 2


#: The options each subcommand accepts: exactly the ones its handler reads.
SUBCOMMAND_OPTIONS = {
    "simulate": "--kernel --rho --n --p --grid-points --mean --score-halfwidth --seed --output",
    "smooth": "--input --kernel --rho --phi --eta --output",
    "release": "--input --tau --kernel --rho --phi --eta --epsilon --delta --method"
               " --seed --output",
    "projections": "--input --tau --kernel --rho --phi --eta --epsilon --delta --method"
                   " --at --seed --output",
    "audit": "--theta-d --theta-dp --kernel --rho --epsilon --delta --sigma-sq --samples"
             " --seed --output",
    "cv": "--input --kernel --phi --eta --rho-grid --folds --seed --output",
    "pcv": "--input --tau --kernel --eta --epsilon --delta --phi-grid --rho-grid --folds"
           " --calibrate-on-full-n --seed --output",
    "sweep": "--sweep --values --kernel --rho --phi --eta --epsilon --delta --n --p"
             " --grid-points --mean --score-halfwidth --method --seed --output",
}


def test_each_subcommand_accepts_exactly_the_options_it_reads():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert accepted == {name: set(opts.split()) for name, opts in SUBCOMMAND_OPTIONS.items()}
    assert sum(len(opts) for opts in accepted.values()) == 84


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["cv", "--input", "{sample}", "--rho-grid", "0.02", "--folds", "3"], ["--rho", "0.5"]),
        # cv's score does not depend on tau, so it takes none
        (["cv", "--input", "{sample}", "--rho-grid", "0.02", "--folds", "3"], ["--tau", "3"]),
        (["pcv", "--input", "{sample}", "--phi-grid", "0.01", "--rho-grid", "0.02",
          "--folds", "3"], ["--rho", "0.5"]),
        (["release", "--input", "{sample}"], ["--tol", "1e-10"]),
        (["smooth", "--input", "{sample}"], ["--seed", "1"]),
        # the smoother does not depend on tau, so it takes none
        (["smooth", "--input", "{sample}"], ["--tau", "3"]),
        (["audit", "--theta-d", "{theta}", "--theta-dp", "{theta2}", "--rho", "0.05",
          "--samples", "10000"], ["--swap"]),
        (["release", "--input", "{sample}"], ["--eps", "0.5"]),  # no prefix aliases
        (["pcv", "--input", "{sample}", "--phi-grid", "0.01", "--rho-grid", "0.02",
          "--folds", "3"], ["--rho-g", "0.5"]),
    ],
    ids=["cv-rho", "cv-tau", "pcv-rho", "release-tol", "smooth-seed", "smooth-tau",
         "audit-swap", "release-eps", "pcv-rho-g"],
)
def test_options_no_handler_reads_are_refused(tmp_path, capsys, argv, extra):
    grid = uniform_grid(30)
    basis = kernel_basis(KernelSpec("gaussian", 0.05), grid)
    theta = reconstruct(0.3 * np.eye(basis.m)[0], basis)
    paths = {"sample": tmp_path / "sample.csv", "theta": tmp_path / "theta.csv",
             "theta2": tmp_path / "theta2.csv"}
    write_curves_csv(paths["sample"], grid, 0.2 * np.random.default_rng(3).normal(size=(6, 30)))
    write_curves_csv(paths["theta"], grid, theta.values)
    write_curves_csv(paths["theta2"], grid, -theta.values)
    argv = [a.format(**paths) for a in argv] + ["--output", str(tmp_path / "out")]
    assert run(*argv) == 0  # the same call without the extra option runs
    capsys.readouterr()
    assert run(*argv, *extra) == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_projections_zero_noise_match_smooth(tmp_path):
    grid = uniform_grid(20)
    sample = tmp_path / "zeros.csv"
    write_curves_csv(sample, grid, np.zeros((4, 20)))
    out = tmp_path / "proj.csv"
    assert run("projections", "--input", str(sample), "--rho", "0.01",
               "--phi", "0.05", "--at", "0.0,1.0", "--output", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [float(v) for v in lines[0].split(",")] == [0.0, 1.0]
    assert all(float(v) == 0.0 for v in lines[1].split(","))


def test_projections_equal_release_at_the_points(tmp_path):
    sample = tmp_path / "sample.csv"
    assert run("simulate", "--n", "10", "--grid-points", "40", "--seed", "3",
               "--output", str(sample)) == 0
    release_out, proj_out = tmp_path / "release.csv", tmp_path / "proj.csv"
    common = ["--input", str(sample), "--rho", "0.01", "--seed", "5"]
    assert run("release", *common, "--output", str(release_out)) == 0
    grid, released = read_curves_csv(release_out)
    idx = [0, 13, 39]
    at = ",".join(repr(float(t)) for t in grid.points[idx])
    assert run("projections", *common, "--at", at, "--output", str(proj_out)) == 0
    assert float(read_meta(str(release_out) + ".meta")["sigma_sq"]) > 0.0
    proj_meta = read_meta(str(proj_out) + ".meta")
    release_meta = read_meta(str(release_out) + ".meta")
    assert (proj_meta.pop("command"), proj_meta.pop("at")) == ("projections", at)
    assert release_meta.pop("command") == "release"
    assert proj_meta == release_meta
    lines = proj_out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert [float(v) for v in lines[0].split(",")] == list(grid.points[idx])
    values = np.array([float(v) for v in lines[1].split(",")])
    assert np.array_equal(values, released[0, idx])


def test_projections_refuse_a_point_off_the_grid(tmp_path, capsys):
    sample, out = tmp_path / "sample.csv", tmp_path / "proj.csv"
    assert run("simulate", "--output", str(sample)) == 0  # the 100-point grid
    assert run("projections", "--input", str(sample), "--at", "0.5",
               "--output", str(out)) == 2
    assert "t=0.5 is not a grid point; point evaluations need one" in capsys.readouterr().err
    assert not out.exists()


def _audit_pair(tmp_path) -> tuple[Path, Path]:
    """Files holding the summaries +-0.3 v_1 of the Gaussian rho = 0.05 basis on 30 points."""
    grid = uniform_grid(30)
    basis = kernel_basis(KernelSpec("gaussian", 0.05), grid)
    d_path, dp_path = tmp_path / "d.csv", tmp_path / "dp.csv"
    for path, sign in ((d_path, 1.0), (dp_path, -1.0)):
        write_curves_csv(path, grid, reconstruct(sign * 0.3 * np.eye(basis.m)[0], basis).values)
    return d_path, dp_path


def test_audit_calibrated_pair_passes(tmp_path):
    d_path, dp_path = _audit_pair(tmp_path)
    report = tmp_path / "audit.txt"
    assert run("audit", "--theta-d", str(d_path), "--theta-dp", str(dp_path),
               "--kernel", "gaussian", "--rho", "0.05",
               "--samples", "20000", "--output", str(report)) == 0
    meta = read_meta(report)
    assert meta["pass"] == "true"
    assert meta["undercalibrated"] == "false"


def test_audit_verdict_is_the_exact_tail_at_small_delta(tmp_path):
    # At delta = 1e-5, half the calibrated variance has an exact tail of about
    # 40 delta, which leaves only a few of 10000 draws above epsilon.
    d_path, dp_path = _audit_pair(tmp_path)
    pair = ["audit", "--theta-d", str(d_path), "--theta-dp", str(dp_path), "--rho", "0.05",
            "--delta", "0.00001", "--samples", "10000"]
    calibrated, halved = tmp_path / "calibrated.txt", tmp_path / "halved.txt"
    assert run(*pair, "--output", str(calibrated)) == 0
    assert read_meta(calibrated)["pass"] == "true"
    sigma_sq = float(read_meta(calibrated)["sigma_sq"]) / 2.0
    assert run(*pair, "--sigma-sq", repr(sigma_sq), "--output", str(halved)) == 0
    meta = read_meta(halved)
    assert (meta["pass"], meta["undercalibrated"]) == ("false", "true")
    assert float(meta["exact_violation_rate"]) > 10 * 1e-5


@pytest.mark.parametrize("sigma_sq", ["nan", "inf"])
def test_audit_non_finite_sigma_sq_is_config_error(tmp_path, capsys, sigma_sq):
    grid = uniform_grid(30)
    basis = kernel_basis(KernelSpec("gaussian", 0.05), grid)
    theta = reconstruct(0.3 * np.eye(basis.m)[0], basis)
    d_path, dp_path = tmp_path / "d.csv", tmp_path / "dp.csv"
    write_curves_csv(d_path, grid, theta.values)
    write_curves_csv(dp_path, grid, -theta.values)
    report = tmp_path / "audit.txt"
    assert run("audit", "--theta-d", str(d_path), "--theta-dp", str(dp_path),
               "--rho", "0.05", "--sigma-sq", sigma_sq, "--samples", "10000",
               "--output", str(report)) == 2
    assert "sigma_sq must be finite" in capsys.readouterr().err
    assert not report.exists()


def test_audit_sigma_sq_whose_loss_overflows_is_config_error(tmp_path, capsys):
    # Two distinct smoothed samples: at sigma_sq=1e-310 the loss mean
    # D^2 / (2 sigma_sq) overflows, which the audit refuses instead of
    # scoring infinite losses.
    summaries = []
    for seed in ("0", "2"):
        sample, smooth = tmp_path / f"D{seed}.csv", tmp_path / f"S{seed}.csv"
        assert run("simulate", "--seed", seed, "--output", str(sample)) == 0
        assert run("smooth", "--input", str(sample), "--output", str(smooth)) == 0
        summaries.append(str(smooth))
    report = tmp_path / "audit.txt"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("audit", "--theta-d", summaries[0], "--theta-dp", summaries[1],
                   "--sigma-sq", "1e-310", "--output", str(report)) == 2
    assert "sigma_sq=1e-310 is too small to audit this pair" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("budget", [("1e-200", "0.1"), ("1e-160", "0.1"), ("0.5", "1e-320")],
                         ids=["epsilon_sq_underflows", "multiplier_overflows", "tiny_delta"])
@pytest.mark.parametrize("command", ["release", "projections", "pcv", "sweep", "audit"])
def test_budget_without_a_finite_noise_multiplier_is_config_error(tmp_path, capsys, command,
                                                                  budget):
    sample, smooth = tmp_path / "sample.csv", tmp_path / "smooth.csv"
    assert run("simulate", "--n", "6", "--grid-points", "30", "--rho", "0.05",
               "--output", str(sample)) == 0
    assert run("smooth", "--input", str(sample), "--rho", "0.05", "--output", str(smooth)) == 0
    out = tmp_path / "out.csv"
    argv = {
        "release": ["--input", str(sample), "--rho", "0.05"],
        "projections": ["--input", str(sample), "--rho", "0.05", "--at", "0.0"],
        "pcv": ["--input", str(sample), "--phi-grid", "0.1", "--rho-grid", "0.05",
                "--folds", "3"],
        "sweep": ["--sweep", "phi", "--values", "0.1", "--n", "6", "--grid-points", "30",
                  "--rho", "0.05"],
        "audit": ["--theta-d", str(smooth), "--theta-dp", str(smooth), "--rho", "0.05",
                  "--samples", "10000"],
    }[command]
    epsilon, delta = budget
    assert run(command, *argv, "--epsilon", epsilon, "--delta", delta,
               "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert f"epsilon={float(epsilon)} and delta={float(delta)}" in err
    assert not out.exists()


def test_audit_refuses_multi_curve_summary_file(tmp_path, capsys):
    sample, smooth = tmp_path / "sample.csv", tmp_path / "smooth.csv"
    assert run("simulate", "--n", "25", "--grid-points", "30", "--rho", "0.05",
               "--output", str(sample)) == 0
    assert run("smooth", "--input", str(sample), "--rho", "0.05",
               "--output", str(smooth)) == 0
    report = tmp_path / "audit.txt"
    for d_path, dp_path in ((sample, smooth), (smooth, sample)):
        assert run("audit", "--theta-d", str(d_path), "--theta-dp", str(dp_path),
                   "--rho", "0.05", "--samples", "10000", "--output", str(report)) == 2
        err = capsys.readouterr().err
        assert str(sample) in err and "25 curves" in err
        assert not report.exists()


def test_audit_refuses_summaries_on_different_grids(tmp_path, capsys):
    paths = []
    for m in (30, 31):
        sample, smooth = tmp_path / f"sample{m}.csv", tmp_path / f"smooth{m}.csv"
        assert run("simulate", "--n", "5", "--grid-points", str(m), "--rho", "0.05",
                   "--output", str(sample)) == 0
        assert run("smooth", "--input", str(sample), "--rho", "0.05",
                   "--output", str(smooth)) == 0
        paths.append(str(smooth))
    report = tmp_path / "audit.txt"
    assert run("audit", "--theta-d", paths[0], "--theta-dp", paths[1], "--rho", "0.05",
               "--output", str(report)) == 2
    assert "theta curves live on different grids" in capsys.readouterr().err
    assert not report.exists()


def test_allocation_failure_is_config_error(tmp_path, capsys, monkeypatch):
    def refuse(m):
        raise MemoryError(f"Unable to allocate an array for {m} points")

    monkeypatch.setattr(fdpriv.cli, "uniform_grid", refuse)
    out = tmp_path / "D.csv"
    assert run("simulate", "--grid-points", "99999999999", "--output", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate an array for 99999999999 points\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-3", "1" + "0" * 400])
def test_simulate_takes_any_whole_seed_by_its_low_64_bits(tmp_path, seed):
    outs = [tmp_path / "given.csv", tmp_path / "low_bits.csv"]
    for value, out in zip((seed, str(int(seed) % 2**64)), outs):
        assert run("simulate", "--n", "3", "--grid-points", "20", "--seed", value,
                   "--output", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cv_single_candidate_echoed(tmp_path):
    sample = tmp_path / "sample.csv"
    assert run("simulate", "--n", "6", "--grid-points", "30", "--seed", "2",
               "--output", str(sample)) == 0
    report = tmp_path / "cv.txt"
    assert run("cv", "--input", str(sample), "--rho-grid", "0.02",
               "--folds", "3", "--output", str(report)) == 0
    meta = read_meta(report)
    assert float(meta["selected_rho"]) == 0.02


def test_pcv_zero_data_matches_cv(tmp_path):
    grid = uniform_grid(20)
    sample = tmp_path / "zeros.csv"
    write_curves_csv(sample, grid, np.zeros((6, 20)))
    cv_report = tmp_path / "cv.txt"
    pcv_report = tmp_path / "pcv.txt"
    assert run("cv", "--input", str(sample), "--phi", "0.01",
               "--rho-grid", "0.05,0.5", "--folds", "3",
               "--output", str(cv_report)) == 0
    assert run("pcv", "--input", str(sample), "--phi-grid", "0.01,0.1",
               "--rho-grid", "0.05,0.5", "--folds", "3",
               "--output", str(pcv_report)) == 0
    cv_meta, pcv_meta = read_meta(cv_report), read_meta(pcv_report)
    assert float(pcv_meta["selected_rho"]) == float(cv_meta["selected_rho"])
    assert float(pcv_meta["selected_phi"]) == 0.01  # tie rule: smallest phi


def test_pcv_reads_a_stated_tau(tmp_path):
    sample, report = tmp_path / "sample.csv", tmp_path / "pcv.txt"
    assert run("simulate", "--n", "200", "--seed", "1", "--output", str(sample)) == 0
    assert run("pcv", "--input", str(sample), "--phi-grid", "0.001,0.01,0.1,1",
               "--rho-grid", "0.0005,0.001,0.002", "--tau", "3",
               "--output", str(report)) == 0
    meta = read_meta(report)
    assert meta["tau"] == "3.0"
    grid, values = read_curves_csv(sample)
    sel = SelectionGrid((0.001, 0.01, 0.1, 1.0), (0.0005, 0.001, 0.002), folds=10)
    budget = PrivacyBudget(1.0, 0.1)
    stated = pcv_select(SampleSet.from_values(values, grid, 3.0), "gaussian", sel, 1.0, budget)
    derived = pcv_select(SampleSet.from_values(values, grid), "gaussian", sel, 1.0, budget)
    assert (float(meta["selected_phi"]), float(meta["selected_rho"])) == stated != derived


def test_sweep_single_point(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--sweep", "phi", "--values", "0.01", "--n", "5",
               "--grid-points", "30", "--output", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "parameter,value,metric,estimate"
    assert len(lines) == 1 + 3  # one swept value, three measured quantities


@pytest.mark.parametrize("parameter,values,cells", [
    ("kernel", "gaussian,matern32", ["gaussian", "matern32"]),
    ("mean", "sin_default,zero", ["sin_default", "zero"]),
    ("rho", "0.001,0.01", ["0.001", "0.01"]),
    ("p", "3,4", ["3.0", "4.0"]),
    ("epsilon", "0.5,1", ["0.5", "1.0"]),
    ("delta", "0.05,0.1", ["0.05", "0.1"]),
])
def test_sweep_over_each_remaining_parameter(tmp_path, parameter, values, cells):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run("sweep", "--sweep", parameter, "--values", values, "--n", "8",
                   "--grid-points", "40", "--output", str(out)) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{name}.meta").read_bytes()))
    assert outputs[0] == outputs[1]
    header, *rows = outputs[0][0].decode("utf-8").splitlines()
    assert header == "parameter,value,metric,estimate"
    rows = [row.split(",") for row in rows]
    metrics = ["smooth_vs_truth", "release_vs_smooth", "release_vs_truth"]
    assert [row[:3] for row in rows] == [[parameter, c, m] for c in cells for m in metrics]
    for smooth, noise, total in zip(rows[::3], rows[1::3], rows[2::3]):
        assert float(total[3]) == float(smooth[3]) + float(noise[3])


@pytest.mark.parametrize("parameter,values,code,message", [
    ("kernel", ",", 2, "sweep needs at least one value"),
    ("kernel", "nope", 2, "unknown kernel family 'nope'"),
    ("epsilon", "2", 3, "epsilon must be at most 1"),
])
def test_sweep_refusals(tmp_path, capsys, parameter, values, code, message):
    out = tmp_path / "s.csv"
    assert run("sweep", "--sweep", parameter, "--values", values, "--n", "8",
               "--grid-points", "40", "--output", str(out)) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exits_4(tmp_path, capsys, monkeypatch):
    def failing_basis(spec, grid):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("fdpriv.cli.kernel_basis", failing_basis)
    assert run("simulate", "--output", str(tmp_path / "x.csv")) == 4
    assert "numerical failure: Eigenvalues did not converge" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_curves_too_large_to_square_are_refused(tmp_path, capsys):
    sample, big = tmp_path / "D.csv", tmp_path / "H.csv"
    assert run("simulate", "--n", "6", "--grid-points", "40", "--output", str(sample)) == 0
    grid, values = read_curves_csv(sample)
    write_curves_csv(big, grid, 1e160 * values)
    assert run("smooth", "--input", str(big), "--output", str(tmp_path / "s.csv")) == 2
    assert "squared norm is not a finite float" in capsys.readouterr().err
    smoothed, scaled, negated = (tmp_path / f"{n}.csv" for n in ("t", "t160", "n160"))
    assert run("smooth", "--input", str(sample), "--output", str(smoothed)) == 0
    grid, mu_hat = read_curves_csv(smoothed)
    write_curves_csv(scaled, grid, 1e160 * mu_hat)
    write_curves_csv(negated, grid, -1e160 * mu_hat)
    for sigma_sq in ([], ["--sigma-sq", "1"]):
        capsys.readouterr()
        assert run("audit", "--theta-d", str(scaled), "--theta-dp", str(negated), *sigma_sq,
                   "--output", str(tmp_path / "a.txt")) == 2
        assert "D^2 is not a finite float" in capsys.readouterr().err
    assert not (tmp_path / "a.txt").exists()


@pytest.mark.filterwarnings("error")
def test_audit_of_identical_summaries_needs_a_stated_sigma_sq(tmp_path, capsys):
    sample, smoothed, report = tmp_path / "D.csv", tmp_path / "t.csv", tmp_path / "a.txt"
    assert run("simulate", "--n", "6", "--grid-points", "40", "--output", str(sample)) == 0
    assert run("smooth", "--input", str(sample), "--output", str(smoothed)) == 0
    capsys.readouterr()
    pair = ["audit", "--theta-d", str(smoothed), "--theta-dp", str(smoothed),
            "--samples", "10000", "--output", str(report)]
    assert run(*pair) == 2
    err = capsys.readouterr().err
    assert "identical (D^2 = 0)" in err and "sigma_sq" not in err
    assert not report.exists()
    assert run(*pair, "--sigma-sq", "1") == 0
    meta = read_meta(report)
    assert meta["empirical_violation_rate"] == meta["exact_violation_rate"] == "0.0"


def test_sweep_rejects_two_parameters_structurally(tmp_path):
    # the surface only accepts one --sweep value; a second one overrides is
    # prevented by argparse choices + single flag, so a bad name is the error path
    assert run("sweep", "--sweep", "phi,rho", "--values", "0.01",
               "--output", str(tmp_path / "s.csv")) == 2


def test_sweep_n_decreases_noise(tmp_path):
    out = tmp_path / "sweep_n.csv"
    assert run("sweep", "--sweep", "n", "--values", "5,25,100", "--grid-points", "50",
               "--seed", "4", "--output", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    noise = [float(l.split(",")[3]) for l in lines if l.split(",")[2] == "release_vs_smooth"]
    assert noise[0] > noise[1] > noise[2]


def test_sweep_n_refuses_non_integral_values(tmp_path, capsys):
    out = tmp_path / "sweep_n.csv"
    assert run("sweep", "--sweep", "n", "--values", "2.5,10", "--grid-points", "20",
               "--output", str(out)) == 2
    assert "whole numbers" in capsys.readouterr().err
    assert not out.exists()
    plain, sci = tmp_path / "plain.csv", tmp_path / "sci.csv"
    common = ["sweep", "--sweep", "n", "--grid-points", "20", "--seed", "4"]
    assert run(*common, "--values", "10,100", "--output", str(plain)) == 0
    assert run(*common, "--values", "10,1e2", "--output", str(sci)) == 0
    assert plain.read_bytes() == sci.read_bytes()
    assert plain.read_text(encoding="utf-8").splitlines()[-1].startswith("n,100,")


@pytest.mark.parametrize(
    "argv",
    [
        # refused while parsing, before the (absent) input file is opened
        ["projections", "--input", "absent.csv", "--at", ""],
        ["cv", "--input", "absent.csv", "--rho-grid", ""],
        ["pcv", "--input", "absent.csv", "--phi-grid", "", "--rho-grid", "0.001"],
        ["pcv", "--input", "absent.csv", "--phi-grid", "0.01", "--rho-grid", ","],
        ["sweep", "--sweep", "phi", "--values", ""],
        ["sweep", "--sweep", "phi", "--values", "a"],
    ],
)
def test_empty_or_bad_numeric_lists_are_config_errors(tmp_path, capsys, argv):
    assert run(*argv, "--output", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert "numeric list" in err
    assert "stack" not in err and "argmin" not in err


def _small_runs(tmp_path) -> dict[str, list[str]]:
    """One small call of each subcommand, without ``--output``, on files it writes."""
    grid = uniform_grid(25)
    rng = np.random.default_rng(11)
    sample = tmp_path / "data.csv"
    write_curves_csv(sample, grid, 0.2 * rng.normal(size=(6, 25)))
    basis = kernel_basis(KernelSpec("gaussian", 0.05), grid)
    theta = reconstruct(0.2 * np.eye(basis.m)[0], basis)
    tpath = tmp_path / "theta.csv"
    tpath2 = tmp_path / "theta2.csv"
    write_curves_csv(tpath, grid, theta.values)
    write_curves_csv(tpath2, grid, -theta.values)

    return {
        "simulate": ["simulate", "--n", "4", "--grid-points", "25", "--seed", "1"],
        "smooth": ["smooth", "--input", str(sample), "--rho", "0.05"],
        "release": ["release", "--input", str(sample), "--rho", "0.05", "--seed", "2"],
        "projections": ["projections", "--input", str(sample), "--rho", "0.05",
                        "--at", "0.0,0.5", "--seed", "2"],
        "audit": ["audit", "--theta-d", str(tpath), "--theta-dp", str(tpath2),
                  "--rho", "0.05", "--samples", "10000", "--seed", "3"],
        "cv": ["cv", "--input", str(sample), "--rho-grid", "0.05,0.5",
               "--folds", "3", "--seed", "4"],
        "pcv": ["pcv", "--input", str(sample), "--phi-grid", "0.01,0.1",
                "--rho-grid", "0.05", "--folds", "3", "--seed", "4"],
        "sweep": ["sweep", "--sweep", "phi", "--values", "0.01,0.1", "--n", "4",
                  "--grid-points", "25", "--seed", "5"],
    }


def test_every_subcommand_reruns_byte_identically(tmp_path):
    for name, argv in _small_runs(tmp_path).items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        assert run(*argv, "--output", str(first)) == 0, name
        assert run(*argv, "--output", str(second)) == 0, name
        assert first.read_bytes() == second.read_bytes(), name
        meta1, meta2 = f"{first}.meta", f"{second}.meta"
        if os.path.exists(meta1):
            with open(meta1, "rb") as f1, open(meta2, "rb") as f2:
                assert f1.read() == f2.read(), name


#: Sidecar keys of the options whose argparse dest is not their own name.
RENAMED_DESTS = {"--kernel": "kernel_family", "--samples": "n_samples", "--sweep": "parameter",
                 "--phi-grid": "phi_values", "--rho-grid": "rho_values"}
FILE_OPTIONS = {"--input", "--theta-d", "--theta-dp", "--output"}
RELEASE_META = {field.name for field in dataclasses.fields(ReleaseMeta)}
#: What each command's sidecar records besides ``command``, ``tol`` and its options.
SIDECAR_OUTPUTS = {
    "simulate": {"modes", "tau"},
    "smooth": {"n", "tau", "modes"},
    "release": RELEASE_META,
    "projections": RELEASE_META,
    "audit": {"sigma_sq", "empirical_violation_rate", "exact_violation_rate", "pass",
              "undercalibrated"},
    "cv": {"n", "scores", "selected_rho", "selected_score"},
    "pcv": {"n", "tau", "selected_phi", "selected_rho"},
    "sweep": set(),
}


def _option_dests(name: str) -> dict[str, str]:
    """The argparse dest of each non-file option of a subcommand, mapped to the option."""
    options = set(SUBCOMMAND_OPTIONS[name].split()) - FILE_OPTIONS
    return {RENAMED_DESTS.get(o, o[2:].replace("-", "_")): o for o in options}


@pytest.mark.parametrize("name", list(SUBCOMMAND_OPTIONS))
def test_sidecar_keys_are_the_options_read_and_the_outputs(tmp_path, name):
    out = tmp_path / f"{name}.out"
    assert run(*_small_runs(tmp_path)[name], "--output", str(out)) == 0
    sidecar = out if name in ("audit", "cv", "pcv") else Path(f"{out}.meta")
    expected = {"command", "tol"} | set(_option_dests(name)) | SIDECAR_OUTPUTS[name]
    assert set(read_meta(sidecar)) == expected


def test_audit_sidecar_holds_every_audit_report_field(tmp_path):
    out = tmp_path / "audit.out"
    assert run(*_small_runs(tmp_path)["audit"], "--output", str(out)) == 0
    grid, values = read_curves_csv(tmp_path / "theta.csv")
    basis = kernel_basis(KernelSpec("gaussian", 0.05), grid)
    report = dp_audit(Curve(values[0], grid), Curve(-values[0], grid), basis,
                      PrivacyBudget(1.0, 0.1), None, 10000, 3)
    meta = read_meta(out)
    for field in dataclasses.fields(AuditReport):
        key = "pass" if field.name == "passed" else field.name
        assert meta[key] == _format_cell(getattr(report, field.name))


@pytest.mark.parametrize(
    "argv",
    [
        ["release"],  # tau derived from the data, then replayed as --tau
        ["release", "--method", "closed_form", "--eta", "1.5"],
        ["projections", "--at", "0.0,1.0"],
    ],
    ids=["release-default", "release-closed-form", "projections"],
)
def test_release_replays_from_its_sidecar(tmp_path, argv):
    sample = tmp_path / "sample.csv"
    assert run("simulate", "--n", "12", "--grid-points", "30", "--seed", "4",
               "--output", str(sample)) == 0
    first, replay = tmp_path / "first.csv", tmp_path / "replay.csv"
    assert run(*argv, "--input", str(sample), "--rho", "0.01", "--seed", "9",
               "--output", str(first)) == 0
    meta = read_meta(f"{first}.meta")
    flags = [arg for dest, option in _option_dests(meta["command"]).items()
             for arg in (option, meta[dest])]
    assert run(meta["command"], *flags, "--input", str(sample), "--output", str(replay)) == 0
    assert replay.read_bytes() == first.read_bytes()
    assert Path(f"{replay}.meta").read_bytes() == Path(f"{first}.meta").read_bytes()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["cv", "--rho-grid", "0.001,0.01,0.001"], "--rho-grid"),
        (["pcv", "--phi-grid", "0.1,0.01,0.1", "--rho-grid", "0.001"], "--phi-grid"),
    ],
    ids=["cv", "pcv"],
)
def test_repeated_candidate_is_refused_while_parsing(tmp_path, capsys, argv, option):
    # the input file does not exist: the list is refused before it is read
    assert run(*argv, "--input", str(tmp_path / "absent.csv"),
               "--output", str(tmp_path / "out.txt")) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: candidate list '{argv[argv.index(option) + 1]}'" in err
    assert "repeats a value" in err


def test_candidate_grids_are_sorted_while_parsing(tmp_path):
    sample = tmp_path / "sample.csv"
    assert run("simulate", "--n", "12", "--grid-points", "30", "--seed", "4",
               "--output", str(sample)) == 0
    reports = {}
    for order, phi, rho in (("sorted", "0.01,0.1", "0.01,0.02,0.05"),
                            ("reversed", "0.1,0.01", "0.05,0.02,0.01")):
        for name, argv in (("cv", ["--rho-grid", rho]),
                           ("pcv", ["--phi-grid", phi, "--rho-grid", rho])):
            out = tmp_path / f"{name}-{order}.txt"
            assert run(name, "--input", str(sample), *argv, "--folds", "3",
                       "--output", str(out)) == 0
            reports[name, order] = out.read_bytes()
    for name in ("cv", "pcv"):
        assert reports[name, "reversed"] == reports[name, "sorted"]


def test_sweep_reruns_the_simulate_smooth_and_release_stages(tmp_path):
    flags = ["--n", "8", "--grid-points", "40", "--seed", "2"]
    sweep = tmp_path / "sweep.csv"
    assert run("sweep", "--sweep", "phi", "--values", "0.01,0.3", *flags,
               "--output", str(sweep)) == 0
    rows = [line.split(",") for line in sweep.read_text(encoding="utf-8").splitlines()[1:]]
    estimates = {(value, metric): float(est) for _, value, metric, est in rows}
    sample = tmp_path / "sample.csv"
    assert run("simulate", *flags, "--output", str(sample)) == 0
    for phi in ("0.01", "0.3"):
        smoothed, released = tmp_path / f"s{phi}.csv", tmp_path / f"r{phi}.csv"
        assert run("smooth", "--input", str(sample), "--phi", phi, "--output", str(smoothed)) == 0
        assert run("release", "--input", str(sample), "--phi", phi,
                   "--output", str(released)) == 0
        grid, mu_hat = read_curves_csv(smoothed)
        basis = kernel_basis(KernelSpec("gaussian", 0.001), grid)
        smooth_err = float(grid.norm_sq(mu_hat[0] - default_mean("sin_default", grid).values))
        noise = float(read_meta(f"{released}.meta")["sigma_sq"]) * float(np.sum(basis.eigenvalues))
        assert estimates[(phi, "smooth_vs_truth")] == smooth_err
        assert estimates[(phi, "release_vs_smooth")] == noise
        assert estimates[(phi, "release_vs_truth")] == smooth_err + noise


def _import_fdpriv_loads(module: str) -> bool:
    """Whether a fresh ``import fdpriv`` pulls in ``module``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import fdpriv, sys; sys.exit({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=env).returncode != 0


def test_import_does_not_load_scipy():
    assert not _import_fdpriv_loads("scipy")


def test_import_does_not_load_concurrent_futures():
    # Only the audit's thread pool needs it; every other CLI call skips its cost.
    assert not _import_fdpriv_loads("concurrent.futures")
