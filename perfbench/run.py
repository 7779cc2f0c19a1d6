"""saddlescape benchmark: time a workload's sweep end to end or layer by layer.

    python3 perfbench/run.py --workload psgd_sgc --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in processes of its own with one BLAS thread
and ``workers=1``.  With ``--trace 0`` the last stdout line is a JSON object
holding the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
a traced run.  Workloads, metrics and the layer-to-end-to-end map are set
out in ``perfbench/DESIGN.md``.  Scratch output goes to ``.perfbench_runs/``,
where the spans of the last traced sweep are kept.

This file uses the standard library only; numpy, scipy and saddlescape are
imported by the measured worker processes alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_PROBES = 2  # extra processes that only set up; set-up is the median of these and the measured one
DEADLINE_S = 170.0  # a run must end within 180 s

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

BLAS_THREADS = 1  # never more than nproc; one thread is the steadiest on a shared host
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A failure that leaves no result to print."""


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SADDLESCAPE_OUT"}
    env.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same string-hash layout in every measured process
    return env


def _spawn(args, deadline: float, *extra) -> dict:
    """Run one worker process to completion and return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at), "--runs-dir", str(RUNS_DIR), *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=max(deadline - spawned_at, 1.0),
        )
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped the worker
        raise BenchError(f"worker timed out after {err.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(args, deadline: float) -> dict:
    """Result object of one workload, printed as the last stdout line."""
    if args.trace:
        measured = _spawn(args, deadline)
        values, units = measured["layers"], PER_LAYER
    else:
        setups = [_spawn(args, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
        measured = _spawn(args, deadline)
        setups.append(measured)
        values = dict(measured["e2e"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        measured["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
        values["ok_cell_ratio"] = 1.0 - measured["failed"] / measured["attempted"]
        units = END_TO_END
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"worker did not report {sorted(missing)}")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "sweeps": measured["sweeps"], "traced_sweeps": measured["traced_sweeps"],
        "raw_wall_s": measured["raw_wall_s"], "slowdown": measured["slowdown"],
        "raw_setup_s": measured.get("raw_setup_s"),
        "trace_sha256": measured["trace_sha256"], "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "numpy": measured["numpy"], "scipy": measured["scipy"],
        "python": sys.version.split()[0], "failures": measured["failures"],
    }
    print("info " + json.dumps(info))
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    return {
        "correct": not measured["failures"],
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "saddlescape" / "__init__.py").is_file():
        print(f"error: no saddlescape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
