"""Self-tests of the benchmark: smoke runs of every workload at tiny sizes.

    python3 -m pytest perfbench -q

They check that every declared metric is reported with its unit, that the
exact counts repeat between two traced runs of one seed, that a corrupted
output is counted as a failed operation, and that the benchmark refuses to
run without the fdpriv sources.  The repository's own test suite does not
collect them (its testpaths is tests/).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The metrics each workload reports by name besides the declared ones.
NAMED = {
    "cli-release": {"cli_call_s": "s", "cli_call_tail_s": "s", "cli_release_s": "s"},
    "release-large": {"simulate_write_s": "s", "release_cycle_s": "s"},
    "private-select": {"pcv_select_s": "s", "cv_select_s": "s", "dp_audit_s": "s",
                       "audit_msamples_per_s": "1e6samples/s"},
}
#: Per-layer self times each workload must exercise beyond the declared ones.
LAYERS = {
    "cli-release": ("cli.main.release_s", "mechanism.dp_audit_s", "io.write_curves_csv_s",
                    "io.read_curves_csv_s", "simulate.kl_simulate_s"),
    "release-large": ("io.write_curves_csv_s", "io.read_curves_csv_s", "io.write_meta_s",
                      "simulate.kl_simulate_s", "mechanism.release_function_s",
                      "mechanism.sample_noise_s"),
    "private-select": ("selection.pcv_score_s", "selection.cv_score_s", "mechanism.dp_audit_s"),
}
COUNTS = ("kernels.Curve.count", "spectral.kernel_basis.calls", "spectral.modes",
          "smoothing.SampleSet.count", "selection.mc_normals", "io.write_bytes",
          "io.read_bytes", "mechanism.audit_samples")


def bench(root: Path, workload: str, *extra: str, seed: int = 3, trace: int = 0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(workload: str, seed: int, trace: int) -> dict:
    path = ROOT / "perfbench" / "_work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_metric(workload):
    out = last_json(bench(ROOT, workload, "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())
    result = result_file(workload, 3, 0)
    for name, unit in NAMED[workload].items():
        assert result["metrics"][name]["unit"] == unit
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "openblas_build",
                "openblas_core", "blas_threads"):
        assert key in result["env"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_counts_repeat_exactly(workload):
    first = last_json(bench(ROOT, workload, "--smoke", trace=1))
    all_layers = result_file(workload, 3, 1)["metrics"]
    second = last_json(bench(ROOT, workload, "--smoke", trace=1))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in LAYERS[workload]:
        assert all_layers[name]["value"] > 0, name
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["spectral.kernel_basis.calls"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_a_failed_operation(workload):
    out = last_json(bench(ROOT, workload, "--smoke", "--corrupt"))
    assert not out["correct"]
    assert out["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0])
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
