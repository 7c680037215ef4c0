"""Benchmark worker: one workload in one fresh process.

    python perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --spawned-at MONOTONIC --workdir DIR --out RESULT.json \
        [--setup-only] [--smoke] [--corrupt]

run.py starts it from the checkout root with ``src`` on PYTHONPATH and
OPENBLAS_NUM_THREADS set to the usable core count.  The worker imports
fdpriv and builds the workload's inputs from the seed; that set-up is timed
from ``--spawned-at`` on the system-wide monotonic clock.  It then repeats the
workload's cycle of operations, closed loop, until ``--seconds`` have passed
(at least one cycle).  Every output is checked untimed against an oracle, and
a failed check fails its operation.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced, which gives the per-layer self times, exact counts and the
tracing overhead.  ``--smoke`` shrinks the in-process workloads for the
self-tests; ``--corrupt`` damages one output of the first cycle so that the
self-tests can see the checks fail.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Calls the tracer wraps go through the fdpriv modules (fdpriv.kernel_basis,
# fdpriv.io.read_curves_csv, ...) so that tracing.install's rebinding reaches them.
import fdpriv
import fdpriv.io
from fdpriv import (
    KernelSpec,
    PrivacyBudget,
    SampleSet,
    SelectionGrid,
    SimConfig,
    SmootherConfig,
    noise_scale,
    uniform_grid,
)
from fdpriv.io import format_float, meta_path, read_meta

import tracing

HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"
CLI_TIMEOUT_S = 120

PHI = 0.01
EPSILON, DELTA = 1.0, 0.1
BUDGET = PrivacyBudget(EPSILON, DELTA)
#: An audit rate further than this many Monte-Carlo standard errors from the
#: exact rate fails; a fixed audit seed per run keeps false alarms rare.
AUDIT_Z = 4.0
SMOOTH_ORACLE_TOL = 1e-8
PROJECTION_TOL = 1e-9
DELTA_SQ_RTOL = 1e-9

#: Phase keys for the seeds and kernel ranges a cycle draws.  The untraced
#: phase of a traced run repeats the inputs of an untraced run.
UNTRACED, TRACED = 0, 1


def derive(seed: int, *key: int) -> int:
    """Deterministic 32-bit sub-seed for (seed, key)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def exact_violation_rate(pair_cm_sq: float, sigma_sq: float, epsilon: float) -> float:
    """P(privacy loss > epsilon) for the Gaussian mechanism on one adjacent pair.

    The loss is exactly N(mu, 2 mu) with mu = D^2 / (2 sigma^2), D the pair's
    Cameron-Martin distance (Balle & Wang, ICML 2018), so the rate is
    Phi(D / (2 sigma) - epsilon sigma / D).
    """
    d, s = math.sqrt(pair_cm_sq), math.sqrt(sigma_sq)
    return normal_cdf(d / (2.0 * s) - epsilon * s / d)


def pair_cm_sq(a: np.ndarray, b: np.ndarray, basis) -> float:
    """Squared Cameron-Martin distance of two curves in a basis."""
    c = (basis.grid.weights * (a - b)) @ basis.matrix
    return float(np.sum(c**2 / basis.eigenvalues))


def audit_failures(rate, n_samples, passed, undercalibrated, pair_sq, sigma_sq,
                   expect_pass) -> list[str]:
    exact = exact_violation_rate(pair_sq, sigma_sq, EPSILON)
    z = (rate - exact) / math.sqrt(exact * (1.0 - exact) / n_samples)
    failures = []
    if abs(z) > AUDIT_Z:
        failures.append(f"audit rate {rate} is {z:.2f} standard errors from exact {exact}")
    if passed != expect_pass:
        failures.append(f"audit pass={passed}, expected {expect_pass}")
    if undercalibrated == expect_pass:
        failures.append(f"audit undercalibrated={undercalibrated}, expected {not expect_pass}")
    return failures


def dense_penalized_mean(values: np.ndarray, points: np.ndarray, weights: np.ndarray,
                         rho: float, phi: float) -> np.ndarray:
    """Penalized mean (eta = 1, gaussian kernel) by one dense solve.

    Solves (S + phi I) y = S W^1/2 xbar with S = W^1/2 G W^1/2 over the full
    spectrum and returns W^-1/2 y; it shares no code with fdpriv's spectral
    route.
    """
    gram = np.exp(-((points[:, None] - points[None, :]) ** 2) / rho)
    sqrt_w = np.sqrt(weights)
    sym = sqrt_w[:, None] * gram * sqrt_w[None, :]
    rhs = sym @ (sqrt_w * values.mean(axis=0))
    return np.linalg.solve(sym + phi * np.eye(points.size), rhs) / sqrt_w


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def flip_byte(path: Path) -> None:
    """Flip the lowest bit of the leading significant digit of the first curve value.

    That digit always changes the value; a trailing digit of a 17-digit
    decimal may not.
    """
    data = bytearray(path.read_bytes())
    pos = data.index(b"\n") + 1
    while data[pos] not in b"123456789":
        pos += 1
    data[pos] ^= 1
    path.write_bytes(bytes(data))


def metric(value, unit: str, note: str = "") -> dict:
    return {"value": value, "unit": unit, "note": note}


def median_of(records, kinds) -> float:
    return statistics.median(r["seconds"] for r in records if r["kind"] in kinds)


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With fewer than eleven samples no such percentile exists and the maximum
    is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class CliRelease:
    """Shell user: sequential CLI calls at the CLI defaults (M=100, N=25)."""

    name = "cli-release"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer):
        self.seed, self.workdir, self.tracer = seed, workdir, tracer
        self.spec = KernelSpec("gaussian", 0.001)
        self.grid = uniform_grid(100)
        self.basis = fdpriv.kernel_basis(self.spec, self.grid)
        data = fdpriv.kl_simulate(SimConfig(25, seed=seed), self.basis)
        self.d_values = data.values
        self.dp_values = data.values.copy()
        self.dp_values[-1] = -self.dp_values[-1]
        self.paths = {k: workdir / f"{k}.csv" for k in
                      ("D", "Dp", "sim", "sD", "sDp", "release", "proj", "audit", "ref")}
        fdpriv.io.write_curves_csv(self.paths["D"], self.grid, self.d_values)
        fdpriv.io.write_curves_csv(self.paths["Dp"], self.grid, self.dp_values)
        self.release_seed = derive(seed, 1)
        self.audit_seed = derive(seed, 2)
        rng = np.random.default_rng(derive(seed, 3))
        self.at_index = np.sort(rng.choice(self.grid.size, 3, replace=False))
        self.at_arg = ",".join(format_float(self.grid.points[i]) for i in self.at_index)
        self.projections_bytes = None

    @functools.cached_property
    def reference_release(self) -> bytes:
        """The release CSV built in-process along the library route the CLI takes."""
        grid, values = fdpriv.io.read_curves_csv(self.paths["D"])
        data = SampleSet.from_values(values, grid)
        basis = fdpriv.kernel_basis(self.spec, grid)
        mu = fdpriv.penalized_mean(data, basis, SmootherConfig(PHI))
        calib = fdpriv.calibrate(basis, PHI, 1.0, data.tau, data.n, BUDGET)
        release = fdpriv.release_function(mu, basis, calib, self.release_seed)
        fdpriv.io.write_curves_csv(self.paths["ref"], grid, release.curve.values)
        return self.paths["ref"].read_bytes()

    def _call(self, argv):
        traced = self.tracer is not None and self.tracer.active
        if traced:
            spans = self.workdir / "spans.json"
            cmd = [sys.executable, str(TRACED_CLI), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "fdpriv", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if traced and proc.returncode == 0:
            trace = json.loads(spans.read_text(encoding="utf-8"))
            self.tracer.merge(trace["spans"], trace["counts"])
        return proc

    def _checked(self, check):
        def run(proc):
            if proc.returncode != 0:
                return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
            return check()
        return run

    def _check_simulate(self):
        if self.paths["sim"].read_bytes() != self.paths["D"].read_bytes():
            return ["simulate output differs from the set-up sample of the same seed"]
        return []

    def _check_smooth(self, out_key, values):
        def check():
            _, smoothed = fdpriv.io.read_curves_csv(self.paths[out_key])
            oracle = dense_penalized_mean(values, self.grid.points, self.grid.weights,
                                          self.spec.rho, PHI)
            err = max_abs_diff(smoothed[0], oracle)
            return [] if err <= SMOOTH_ORACLE_TOL else [f"smooth off the dense oracle by {err}"]
        return check

    def _check_release(self):
        if self.paths["release"].read_bytes() != self.reference_release:
            return ["release CSV differs from the in-process release of the same seed"]
        return []

    def _check_projections(self):
        failures = []
        raw = self.paths["proj"].read_bytes()
        if self.projections_bytes is None:
            self.projections_bytes = raw
        elif raw != self.projections_bytes:
            failures.append("projections rerun is not byte-identical")
        lines = raw.decode("utf-8").splitlines()
        values = np.array([float(v) for v in lines[1].split(",")])
        _, released = fdpriv.io.read_curves_csv(self.paths["release"])
        err = max_abs_diff(values, released[0][self.at_index])
        if err > PROJECTION_TOL:
            failures.append(f"projections differ from the release curve by {err}")
        return failures

    def _check_audit(self):
        meta = read_meta(self.paths["audit"])
        _, a = fdpriv.io.read_curves_csv(self.paths["sD"])
        _, b = fdpriv.io.read_curves_csv(self.paths["sDp"])
        return audit_failures(
            float(meta["empirical_violation_rate"]), int(meta["n_samples"]),
            meta["pass"] == "true", meta["undercalibrated"] == "true",
            pair_cm_sq(a[0], b[0], self.basis), float(meta["sigma_sq"]), True)

    def cycle(self, phase: int, i: int):
        p = {k: str(v) for k, v in self.paths.items()}
        seed = str(self.seed)
        calls = (
            ("simulate", ["simulate", "--seed", seed, "--output", p["sim"]],
             self._check_simulate),
            ("smooth", ["smooth", "--input", p["D"], "--output", p["sD"]],
             self._check_smooth("sD", self.d_values)),
            ("smooth", ["smooth", "--input", p["Dp"], "--output", p["sDp"]],
             self._check_smooth("sDp", self.dp_values)),
            ("release", ["release", "--input", p["D"], "--seed", str(self.release_seed),
                         "--output", p["release"]], self._check_release),
            ("projections", ["projections", "--input", p["D"], "--at", self.at_arg,
                             "--seed", str(self.release_seed), "--output", p["proj"]],
             self._check_projections),
            ("audit", ["audit", "--theta-d", p["sD"], "--theta-dp", p["sDp"],
                       "--seed", str(self.audit_seed), "--output", p["audit"]],
             self._check_audit),
        )
        return [(kind, functools.partial(self._call, argv), self._checked(check))
                for kind, argv, check in calls]

    def corrupt(self, kind, out):
        if kind == "release":
            flip_byte(self.paths["release"])
        return out

    def report(self, records) -> dict:
        calls = [r["seconds"] for r in records]
        value, pct, n = tail(calls)
        return {
            "cli_call_s": metric(statistics.median(calls), "s", f"median of {n} invocations"),
            "cli_call_tail_s": metric(value, "s", f"p{pct:.1f} of {n} invocations"),
            "cli_release_s": metric(median_of(records, ("release",)), "s", "median"),
        }

    key_ops, aux_ops = ("release",), None
    rss_note = "largest CLI child"

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class ReleaseLarge:
    """Analyst: one large sample (M=1000, N=250) through files, in-process."""

    name = "release-large"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer):
        self.seed = seed
        self.m, self.n = (200, 50) if smoke else (1000, 250)
        self.grid = uniform_grid(self.m)
        self.sim_basis = fdpriv.kernel_basis(KernelSpec("gaussian", 0.001), self.grid)
        self.sample_path = workdir / "sample.csv"
        self.release_path = workdir / "release.csv"
        self.simulated = None
        self.used_rhos: set[float] = set()

    def _simulate_write(self, sim_seed):
        data = fdpriv.kl_simulate(SimConfig(self.n, seed=sim_seed), self.sim_basis)
        fdpriv.io.write_curves_csv(self.sample_path, self.grid, data.values)
        return data.values

    def _release_cycle(self, rho, release_seed):
        grid, values = fdpriv.io.read_curves_csv(self.sample_path)
        data = SampleSet.from_values(values, grid)
        basis = fdpriv.kernel_basis(KernelSpec("gaussian", rho), grid)
        mu = fdpriv.penalized_mean(data, basis, SmootherConfig(PHI))
        calib = fdpriv.calibrate(basis, PHI, 1.0, data.tau, data.n, BUDGET)
        release = fdpriv.release_function(mu, basis, calib, release_seed)
        fdpriv.io.write_curves_csv(self.release_path, grid, release.curve.values)
        fdpriv.io.write_meta(meta_path(self.release_path), release.meta.as_dict())
        return grid, values, basis, mu, calib, release, rho

    def _check_simulate(self, values):
        self.simulated = values
        return []

    def _check_release(self, out):
        grid, values, basis, mu, calib, release, rho = out
        failures = []
        if rho in self.used_rhos:
            failures.append(f"kernel range {rho} was already used in this run")
        self.used_rhos.add(rho)
        if not (np.array_equal(grid.points, self.grid.points)
                and self.simulated is not None and np.array_equal(values, self.simulated)):
            failures.append("sample CSV read-back is not bit-exact")
        oracle = dense_penalized_mean(self.simulated, self.grid.points, self.grid.weights,
                                      rho, PHI)
        err = max_abs_diff(mu.values, oracle)
        if err > SMOOTH_ORACLE_TOL:
            failures.append(f"penalized mean off the dense oracle by {err}")
        tau = float(np.sqrt((self.simulated**2) @ self.grid.weights).max())
        lam = basis.eigenvalues
        expected = 4.0 * tau**2 / self.n**2 * float(np.max(lam / (lam + PHI) ** 2))
        if abs(calib.delta_sq - expected) > DELTA_SQ_RTOL * expected:
            failures.append(f"delta_sq {calib.delta_sq} differs from 4 tau^2/N^2 sup = {expected}")
        _, released = fdpriv.io.read_curves_csv(self.release_path)
        if not np.array_equal(released[0], release.curve.values):
            failures.append("release CSV read-back is not bit-exact")
        return failures

    def cycle(self, phase: int, i: int):
        jitter = np.random.default_rng(derive(self.seed, phase, i, 1)).uniform(-1.0, 1.0)
        rho = 0.001 * (1.0 + 0.05 * jitter)
        return [
            ("simulate_write",
             functools.partial(self._simulate_write, derive(self.seed, phase, i, 0)),
             self._check_simulate),
            ("release_cycle", functools.partial(self._release_cycle, float(rho),
                                                derive(self.seed, phase, i, 2)),
             self._check_release),
        ]

    def corrupt(self, kind, out):
        if kind == "release_cycle":
            flip_byte(self.release_path)
        return out

    def report(self, records) -> dict:
        return {
            "simulate_write_s": metric(median_of(records, ("simulate_write",)), "s", "median"),
            "release_cycle_s": metric(median_of(records, ("release_cycle",)), "s", "median"),
        }

    key_ops, aux_ops = ("release_cycle",), ("simulate_write",)
    rss_note = "worker process"

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class PrivateSelect:
    """Simulation study: private hyperparameter selection plus a privacy audit."""

    name = "private-select"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer):
        self.seed = seed
        if smoke:
            m, n, phis, rhos, folds, draws, self.audit_n = (
                50, 40, (0.01, 0.1), (0.001, 0.002), 4, 50, 10_000)
        else:
            m, n, phis, rhos, folds, draws, self.audit_n = (
                100, 200, (0.001, 0.01, 0.1, 1.0), (0.0005, 0.001, 0.002), 10, 1000, 200_000)
        # Monte-Carlo draws are passed only while SelectionGrid takes them, so
        # that a closed-form PCV without the knob runs the same workload.
        knobs = {f.name for f in dataclasses.fields(SelectionGrid)}
        mc = {"mc_draws": draws} if "mc_draws" in knobs else {}
        self.selection = SelectionGrid(phis, rhos, folds=folds, **mc)
        grid = uniform_grid(m)
        self.basis = fdpriv.kernel_basis(KernelSpec("gaussian", 0.001), grid)
        self.data = fdpriv.kl_simulate(SimConfig(n, seed=seed), self.basis)
        adjacent = self.data.values.copy()
        adjacent[-1] = -adjacent[-1]
        cfg = SmootherConfig(PHI)
        self.mu_d = fdpriv.penalized_mean(self.data, self.basis, cfg)
        self.mu_dp = fdpriv.penalized_mean(SampleSet.from_values(adjacent, grid), self.basis, cfg)
        self.pair_sq = pair_cm_sq(self.mu_d.values, self.mu_dp.values, self.basis)
        self.sigma_sq = noise_scale(BUDGET, self.pair_sq)
        self.audit_seed = derive(seed, 2)
        self.first = {}

    def _same_across_repeats(self, kind, value, on_grid):
        failures = [] if on_grid else [f"{kind} chose {value}, which is off the grid"]
        first = self.first.setdefault(kind, value)
        if value != first:
            failures.append(f"{kind} chose {value} after {first}")
        return failures

    def _check_pcv(self, out):
        phi, rho = out
        sel = self.selection
        return self._same_across_repeats(
            "pcv_select", out, phi in sel.phi_values and rho in sel.rho_values)

    def _check_cv(self, rho):
        return self._same_across_repeats("cv_select", rho, rho in self.selection.rho_values)

    def _audit(self, scale):
        return fdpriv.dp_audit(self.mu_d, self.mu_dp, self.basis, BUDGET,
                               scale * self.sigma_sq, self.audit_n, self.audit_seed)

    def _check_audit(self, scale):
        def check(report):
            return audit_failures(report.empirical_violation_rate, report.n_samples,
                                  report.passed, report.undercalibrated, self.pair_sq,
                                  scale * self.sigma_sq, scale >= 1.0)
        return check

    def cycle(self, phase: int, i: int):
        sel = self.selection
        return [
            ("pcv_select", functools.partial(fdpriv.pcv_select, self.data, "gaussian", sel, 1.0,
                                             BUDGET, self.seed), self._check_pcv),
            ("cv_select", functools.partial(fdpriv.cv_select, self.data, "gaussian", PHI,
                                            sel.rho_values, sel.folds, self.seed), self._check_cv),
            ("dp_audit", functools.partial(self._audit, 1.0), self._check_audit(1.0)),
            ("dp_audit", functools.partial(self._audit, 0.05), self._check_audit(0.05)),
        ]

    def corrupt(self, kind, out):
        if kind == "pcv_select":
            phi, rho = out
            return (math.nextafter(phi, math.inf), rho)
        return out

    def report(self, records) -> dict:
        rates = [self.audit_n / r["seconds"] / 1e6 for r in records if r["kind"] == "dp_audit"]
        return {
            "pcv_select_s": metric(median_of(records, ("pcv_select",)), "s", "median"),
            "cv_select_s": metric(median_of(records, ("cv_select",)), "s", "median"),
            "dp_audit_s": metric(median_of(records, ("dp_audit",)), "s", "median"),
            "audit_msamples_per_s": metric(statistics.median(rates), "1e6samples/s",
                                           f"median over audits of {self.audit_n} samples"),
        }

    key_ops, aux_ops = ("pcv_select",), ("dp_audit",)
    rss_note = "worker process"

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {w.name: w for w in (CliRelease, ReleaseLarge, PrivateSelect)}


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------

def run_phase(workload, phase: int, seconds: float, tracer, corrupt: bool):
    """Closed loop of cycles for ``seconds``; returns (op records, cycle times, counts)."""
    records, cycle_times, cycle_counts = [], [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        busy = 0.0
        for kind, run, check in workload.cycle(phase, i):
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            error, out = None, None
            t0 = time.perf_counter()
            span = contextlib.nullcontext() if tracer is None else tracer.span(f"op.{kind}")
            try:
                with span:
                    out = run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{kind}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            busy += elapsed
            if error is None:
                if corrupt and i == 0:
                    out = workload.corrupt(kind, out)
                try:
                    failures = [f"{kind}: {f}" for f in check(out)]
                except Exception as exc:
                    failures = [f"{kind}: check raised {type(exc).__name__}: {exc}"]
            else:
                failures = [error]
            records.append({"kind": kind, "cycle": i, "seconds": elapsed, "failures": failures})
        cycle_times.append(busy)
        if tracer is not None:
            cycle_counts.append(dict(tracer.counts))
            tracer.counts.clear()
        i += 1
    return records, cycle_times, cycle_counts


def import_probes(rounds: int = 5) -> dict:
    """Fresh-interpreter start and import costs, medians over ``rounds``."""
    codes = {"floor": "pass", "numpy": "import numpy", "fdpriv": "import fdpriv"}
    times = {k: [] for k in codes}
    for _ in range(rounds):
        for key, code in codes.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=CLI_TIMEOUT_S)
            times[key].append(time.perf_counter() - t0)
    med = {k: statistics.median(v) for k, v in times.items()}
    note = f"fresh interpreter, median of {rounds}"
    return {
        "cli.interpreter_s": metric(med["floor"], "s", note),
        "cli.import_numpy_s": metric(med["numpy"] - med["floor"], "s", note + ", over the floor"),
        "cli.import_s": metric(med["fdpriv"] - med["floor"], "s", note + ", over the floor"),
    }


def per_layer(tracer, cycle_counts, untraced_cycles, traced_cycles) -> dict:
    by_cycle = tracing.self_times_by_op(tracer.spans)
    cycles = range(len(traced_cycles))
    names = sorted({name for c in cycles for name in by_cycle[c]})
    out = {f"{name}_s": metric(statistics.median(by_cycle[c].get(name, 0.0) for c in cycles),
                               "s", "self time per cycle, median")
           for name in names}
    for name in tracing.COUNT_NAMES:
        unit = "bytes" if name.endswith("_bytes") else "count"
        out[name] = metric(cycle_counts[0].get(name, 0), unit, "first traced cycle")
    overhead = statistics.median(traced_cycles) / statistics.median(untraced_cycles) - 1.0
    out["trace.overhead_frac"] = metric(overhead, "ratio",
                                        "traced over untraced cycle time, minus 1")
    out.update(import_probes())
    return out


def _openblas_runtime() -> tuple[str, object]:
    """OpenBLAS core type and thread count as reported by the loaded library."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for corename, threads in (("scipy_openblas_get_corename64_",
                                   "scipy_openblas_get_num_threads64_"),
                                  ("openblas_get_corename", "openblas_get_num_threads")):
            if hasattr(lib, corename) and hasattr(lib, threads):
                getattr(lib, corename).restype = ctypes.c_char_p
                getattr(lib, threads).restype = ctypes.c_int
                return getattr(lib, corename)().decode(), getattr(lib, threads)()
    return "unknown", "unknown"


def environment() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = _openblas_runtime()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_build": blas.get("openblas configuration", "unknown"),
        "openblas_core": core,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir, tracer)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        args.out.write_text(json.dumps(result), encoding="utf-8")
        return 0

    if args.trace:
        half = args.seconds / 2.0
        records, untraced, _ = run_phase(workload, UNTRACED, half, None, args.corrupt)
        tracing.install(tracer)
        traced_records, traced, counts = run_phase(workload, TRACED, half, tracer, False)
        records += traced_records
        result["metrics"] = per_layer(tracer, counts, untraced, traced)
        spans_path = args.out.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    else:
        records, cycles, _ = run_phase(workload, UNTRACED, args.seconds, None, args.corrupt)
        report = workload.report(records)
        key = [r["seconds"] for r in records if r["kind"] in workload.key_ops]
        aux = [r["seconds"] for r in records
               if workload.aux_ops is None or r["kind"] in workload.aux_ops]
        key_name = "/".join(workload.key_ops)
        aux_name = "/".join(workload.aux_ops or ["calls"])
        # The gated timings are means over the run: see "Noise" in README.md.
        report.update(
            cycle_s=metric(statistics.fmean(cycles), "s", f"mean of {len(cycles)} cycles"),
            key_op_s=metric(statistics.fmean(key), "s", f"mean of {len(key)} {key_name}"),
            aux_op_s=metric(statistics.fmean(aux), "s", f"mean of {len(aux)} {aux_name}"),
            peak_rss_mb=metric(workload.peak_rss_kb() / 1024.0, "MB", workload.rss_note),
        )
        result["metrics"] = report
    failures = [f for r in records for f in r["failures"]]
    result.update(
        attempted=len(records),
        failed=sum(1 for r in records if r["failures"]),
        failures=failures[:20],
        env=environment(),
        operations=[[r["kind"], r["cycle"], r["seconds"], bool(r["failures"])] for r in records],
    )
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
