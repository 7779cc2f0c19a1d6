"""Measured process of the saddlescape benchmark: one workload, one process.

Started by ``run.py`` with the monotonic time at which it was spawned, so
that set-up time covers interpreter start, imports and spec construction up
to the first cell.  Repeats the workload's sweep for the given seconds,
checks every cell, and prints one JSON object as its last stdout line.
Set-up and sweep times are divided by the host slowdown measured around
them (see DESIGN.md).

With ``--trace 0`` it reports the end-to-end figures of untraced sweeps.
With ``--trace 1`` it spends half the time on untraced and half on traced
sweeps and reports per-layer figures plus the tracing overhead.
With ``--setup-only`` it stops where the first sweep would start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from saddlescape import cli
from saddlescape.harness import ExperimentSpec, read_trace, run_experiment

import tracing
from workloads import MEMORY_BOUND, WORKLOADS

# Host-speed reference (see DESIGN.md, "Host-speed normalisation").  The
# constants are the kernels' typical times on the 2-vCPU x86-64 VM the
# benchmark was tuned on; they fix the scale of the normalised seconds only.
REF_INTERPRETER_S = 0.0015
REF_MEMORY_S = 0.0045
_REF_VEC = np.arange(10.0)


def host_slowdown(memory_only: bool = False) -> float:
    """How much slower than the reference speed the host runs right now.

    Averages the slowdowns of an interpreter-bound kernel (small numpy calls
    in a Python loop, like an optimizer step at d=10) and a memory-bound one
    (allocate, fill and read 16 MB, like a zeroth-order direction batch), or
    takes the memory-bound one alone.
    """
    start = time.perf_counter()
    acc = 0.0
    if not memory_only:
        for i in range(1000):
            acc += float(np.dot(_REF_VEC, _REF_VEC + i))
    mid = time.perf_counter()
    acc += float(np.arange(2_000_000, dtype=np.float64).sum())
    end = time.perf_counter()
    memory = (end - mid) / REF_MEMORY_S
    return memory if memory_only else 0.5 * ((mid - start) / REF_INTERPRETER_S + memory)


_PER_STEP = {
    ("psgd", "first_order"): lambda n1, n2: n1,
    ("psgd", "zeroth_order"): lambda n1, n2: 2 * n1,
    ("scrn", "higher_order"): lambda n1, n2: n1 + n2,
    ("scrn", "zeroth_order"): lambda n1, n2: 2 * n1 + 3 * n2,
}


def _echo(trace) -> dict:
    return dict(line.split(" = ", 1) for line in trace.config_echo.splitlines() if " = " in line)


def _cell_failures(trace) -> list:
    """Invariants every trace of a finished cell must satisfy."""
    meta = _echo(trace)
    rows = trace.rows
    if not rows:
        return ["trace has no rows"]
    errors = []
    if any(b.oracle_calls < a.oracle_calls for a, b in zip(rows, rows[1:])):
        errors.append("oracle_calls decreases along the trace")
    per_step = _PER_STEP[(meta["algorithm"], meta["mode"])](
        int(meta["n1"]), int(meta.get("n2", 0))
    )
    steps = rows[-1].t
    if trace.total_oracle_calls != per_step * steps or rows[-1].oracle_calls != trace.total_oracle_calls:
        errors.append(
            f"total_oracle_calls {trace.total_oracle_calls} != {per_step} calls x {steps} steps"
        )
    if meta["algorithm"] == "scrn":
        M = float(meta["M"])
        for row in rows[1:]:
            bound = -(M / 12.0) * row.h_norm**3
            tol = max(1e-8, 64 * np.finfo(float).eps * (abs(row.model_decrease) + abs(bound)))
            if row.model_decrease > bound + tol:
                errors.append(f"row t={row.t} misses the M/12 model decrease")
                break
    return errors


def _round_trip(out: Path, summarize):
    """Run ``saddlescape summarize`` on a sweep directory; count summary rows
    that differ from the ones ``run`` wrote."""
    written = (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    with contextlib.redirect_stdout(io.StringIO()):
        status = summarize(["summarize", "--dir", str(out)])
    rebuilt = (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    mismatch = sum(a != b for a, b in itertools.zip_longest(written, rebuilt))
    return status, mismatch


def run_sweep(spec: ExperimentSpec, memory_only: bool, seed: int, runs_dir: Path, tracer=None) -> dict:
    """One run_experiment sweep into a fresh directory, then its checks."""
    out = Path(tempfile.mkdtemp(prefix="sweep-", dir=runs_dir))
    try:
        run, summarize = run_experiment, cli.main
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
                run = tracer.wrap("harness.run_experiment", run_experiment)
                summarize = tracer.wrap("cli.summarize", cli.main)
            slowdown = host_slowdown(memory_only)
            start = time.perf_counter()
            run(spec, out_dir=out, workers=1, master_seed=seed)
            wall = time.perf_counter() - start
            slowdown = 0.5 * (slowdown + host_slowdown(memory_only))
            status, mismatch = _round_trip(out, summarize)

        failures = [] if status == 0 else [f"summarize exited {status}"]
        digest = hashlib.sha256()
        traces = {}
        for path in sorted(out.glob("*_seed*.csv")):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            trace = read_trace(path)
            meta = _echo(trace)
            traces[(float(meta["epsilon"]), int(meta["user_seed"]))] = (trace, len(data))
        cell_lines = (out / "cells.txt").read_text(encoding="utf-8").splitlines()
        cells = [(eps, s) for eps in spec.epsilon_grid for s in spec.seeds]
        failed = 0
        for eps, s in cells:
            errors = []
            if f"eps={eps:g} seed={s} ok" not in cell_lines:
                errors.append("cells.txt does not list the cell as ok")
            if (eps, s) not in traces:
                errors.append("no trace file")
            else:
                errors += _cell_failures(traces[(eps, s)][0])
            if errors:
                failed += 1
                failures.append(f"eps={eps:g} seed={s}: {'; '.join(errors)}")
        found = [t for t, _ in traces.values()]
        return dict(
            wall_s=wall,
            norm_wall_s=wall / slowdown,
            slowdown=slowdown,
            cells=len(cells),
            failed_cells=failed,
            failures=failures,
            sha256=digest.hexdigest(),
            steps=sum(t.rows[-1].t for t in found if t.rows),
            oracle_calls=sum(t.total_oracle_calls for t in found),
            theorem_T=sum(int(_echo(t)["theorem_T"]) for t in found),
            trace_bytes=sum(n for _, n in traces.values()),
            summary_mismatch_rows=mismatch,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)


def repeat_sweeps(spec, memory_only, seed, seconds, runs_dir, make_tracer=None) -> list:
    """Sweeps back to back until ``seconds`` have passed; at least one."""
    sweeps = []
    deadline = time.monotonic() + seconds
    while not sweeps or time.monotonic() < deadline:
        if sweeps and make_tracer:
            sweeps[-1]["tracer"].spans.clear()  # only the last sweep's spans are written
        tracer = make_tracer() if make_tracer else None
        sweep = run_sweep(spec, memory_only, seed, runs_dir, tracer)
        sweep["tracer"] = tracer
        sweeps.append(sweep)
    return sweeps


def layer_metrics(sweep: dict) -> dict:
    """Per-layer figures of one traced sweep."""
    tracer = sweep["tracer"]
    calls, counts = tracer.calls, tracer.counts
    certify_calls = calls["diagnostics.certify"]
    out = tracer.layer_seconds()
    out.update({
        "seeds.rng_calls": calls["seeds.rng"],
        "problems.samples": counts["problems.samples"],
        "estimators.zo_hess_peak_mb": tracer.zo_hess_peak_bytes / 2**20,
        "psgd.steps": calls["psgd.psgd_step"],
        "psgd.clamped_steps": counts["psgd.clamped_steps"],
        "scrn.solves": calls["scrn.solve_cubic"],
        "scrn.hard_cases": counts["scrn.hard_cases"],
        "scrn.brentq_calls": calls["scrn.brentq"],
        "scrn.secular_evals": counts["scrn.secular_evals"],
        "scrn.clamped_steps": counts["scrn.clamped_steps"],
        "diagnostics.certify_calls": certify_calls,
        "diagnostics.certified_ratio": counts["diagnostics.certified"] / max(certify_calls, 1),
        "harness.trace_bytes": sweep["trace_bytes"],
        "harness.summary_mismatch_rows": sweep["summary_mismatch_rows"],
        "harness.oracle_calls": sweep["oracle_calls"],
        "harness.budget_used_ratio": sweep["steps"] / sweep["theorem_T"],
        "trace.spans": sum(calls.values()),
    })
    return out


def norm_wall(sweeps) -> float:
    """Median host-normalised sweep wall time."""
    return statistics.median(s["norm_wall_s"] for s in sweeps)


def main(args) -> int:
    spec = ExperimentSpec(**WORKLOADS[args.workload])
    runs_dir = Path(args.runs_dir)
    raw_setup_s = time.monotonic() - args.spawned_at
    # the kernel's first calls in a fresh process run slow; the median of 5 skips them
    slowdown = statistics.median(host_slowdown() for _ in range(5))
    setup = {"setup_s": raw_setup_s / slowdown, "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    memory_only = args.workload in MEMORY_BOUND
    sweeps = repeat_sweeps(spec, memory_only, args.seed, untraced_seconds, runs_dir)
    traced = []
    if args.trace:
        traced = repeat_sweeps(spec, memory_only, args.seed, args.seconds / 2, runs_dir, tracing.Tracer)
    all_sweeps = sweeps + traced

    failures = [f for s in all_sweeps for f in s["failures"]]
    digests = {s["sha256"] for s in all_sweeps}
    if len(digests) > 1:
        failures.append(f"trace bytes differ between sweeps of one seed: {sorted(digests)}")
    if len({s["summary_mismatch_rows"] for s in all_sweeps}) > 1:
        failures.append("summary round trip differs between sweeps of one seed")
    result = dict(
        workload=args.workload,
        seed=args.seed,
        sweeps=len(sweeps),
        traced_sweeps=len(traced),
        attempted=sum(s["cells"] for s in all_sweeps),
        failed=sum(s["failed_cells"] for s in all_sweeps),
        trace_sha256=all_sweeps[0]["sha256"],
        **setup,
        raw_wall_s=statistics.median(s["wall_s"] for s in sweeps),
        slowdown=statistics.median(s["slowdown"] for s in sweeps),
        numpy=np.__version__,
        scipy=scipy.__version__,
    )
    wall = norm_wall(sweeps)
    if args.trace:
        per_sweep = [layer_metrics(s) for s in traced]
        for s, m in zip(traced, per_sweep):
            if m["problems.samples"] != s["oracle_calls"]:
                failures.append(
                    f"oracle samples drawn {m['problems.samples']} != calls charged {s['oracle_calls']}"
                )
        layers = {k: statistics.median(m[k] for m in per_sweep) for k in per_sweep[0]}
        layers["trace.overhead_s"] = norm_wall(traced) - wall
        result["layers"] = layers
        traced[-1]["tracer"].write_spans(runs_dir / f"{args.workload}-seed{args.seed}-spans.csv")
    else:
        result["e2e"] = {
            "wall_s": wall,
            "steps_per_s": sweeps[0]["steps"] / wall,
            "oracle_calls_per_s": sweeps[0]["oracle_calls"] / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result["failures"] = failures[:20]
    print(json.dumps(result))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning this process")
    parser.add_argument("--runs-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main(parse_args()))
