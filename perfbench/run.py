"""fdpriv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout; workloads and metrics are declared in
BENCHMARK.json and described in perfbench/README.md.  Each workload runs in
fresh worker processes (perfbench/worker.py) with ``src`` on PYTHONPATH and
OPENBLAS_NUM_THREADS set to the usable core count, so the caller's
environment cannot change the library or the BLAS thread count.  Set-up is
timed in five fresh processes and reported as their median.

Output: readable lines with every metric, its unit and the environment, then
as the last line one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1).  The full result, and with --trace 1 the spans, are also written
to perfbench/_work/.  ``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = BENCH / "_work"
SETUPS = 5
SETUP_TIMEOUT_S = 120
#: Slack past --seconds for the last cycle, untimed checks and, with
#: --trace 1, the import probes.
RUN_SLACK_S = 120


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


def spawn(cmd: list[str], timeout: float) -> None:
    """Run a worker as a new process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"worker timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if code != 0:
        raise SystemExit(f"worker exited with code {code}: {' '.join(cmd)}")


def run_workload(name: str, args) -> dict:
    tmp = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
    out = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace)]
    base += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
    setups = []
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        # Fresh processes give fresh imports; the last one goes on to measure.
        n_setups = SETUPS if args.trace == 0 else 1
        for k in range(n_setups):
            last = k == n_setups - 1
            result_path = out if last else tmp / f"setup{k}.json"
            cmd = base + ["--workdir", str(tmp / f"w{k}"), "--out", str(result_path)]
            cmd += [] if last else ["--setup-only"]
            timeout = args.seconds + RUN_SLACK_S if last else SETUP_TIMEOUT_S
            spawn(cmd + ["--spawned-at", repr(time.monotonic())], timeout)
            setups.append(json.loads(result_path.read_text(encoding="utf-8"))["setup_s"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setups_s"] = setups
    if args.trace == 0:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s",
            "note": f"median of {len(setups)} fresh processes"}
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def emit(name: str, args, result: dict, spec: dict) -> None:
    print(f"# perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(result["env"]))
    metrics = result["metrics"]
    for key in sorted(metrics):
        m = metrics[key]
        print(f"{key} = {m['value']!r} {m['unit']} ({m['note']})")
    frac = result["failed"] / result["attempted"]
    print(f"failed_frac = {frac!r} ratio ({result['failed']} of {result['attempted']} operations)")
    for failure in result["failures"]:
        print(f"# failed: {failure}", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    wrong = [m["name"] for m in declared
             if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]]
    if wrong:
        raise SystemExit(f"benchmark bug: metrics {wrong} not measured in their declared unit")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in declared},
    }))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage one output of the first cycle, for the self-tests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "fdpriv" / "__init__.py").is_file():
        print(f"perfbench: no fdpriv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in workloads if args.workload == "all" else [args.workload]:
        emit(name, args, run_workload(name, args), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
