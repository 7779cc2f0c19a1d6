"""Alternating parent/change pairs of the saddlescape benchmark, written as one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --claim scrn_zo.wall_s --holdout-seed 7 --out BENCH_17.json

``--parent`` and ``--change`` are two source checkouts.  Each pair runs
``perfbench/run.py --workload all`` (master seed 0, 25 s) once in each
checkout, then the tier-1 suite once in each, then the three acceptance
sweeps once in each, in the same order; the parent goes first in odd pairs,
the change in even pairs.  Runs happen one at a time.  The acceptance sweeps
are the specs of ``tests/test_acceptance.py::sweep`` (PSGD strong-growth,
PSGD additive-noise and SCRN higher-order), run in a child process of the
checkout: each spec runs one untimed warm-up sweep, then ``SWEEP_REPEATS``
sweeps timed around their ``run_experiment`` call.  A sweep's ``wall_s`` is
its time divided by the host slowdown taken around it (``host_slowdown`` of
``perfbench/worker.py``, as the benchmark normalises its own sweeps), and
its ``raw_wall_s`` the time itself; the pair records the median of each over
the timed sweeps.  The output holds, for every end-to-end metric of every
workload, for the tier-1 wall time and for both wall times of each
acceptance sweep, both sides' medians and quartiles, the pairs the change
won (ties count for neither) and the median change in percent, followed by
every raw run.  Its ``change`` and ``notes`` fields, and the
claim's ``target``, are left empty to be written by hand.

Each benchmark run also records how busy the host was around it: the
aggregate CPU line of ``/proc/stat`` is read before and after the run, and
the run's ``contention`` holds the share of CPU time stolen by the
hypervisor (``steal_share``) and the share spent busy outside the run's own
process tree (``others_busy_share``: the host's busy time less the run's
``RUSAGE_CHILDREN`` CPU time), both None where ``/proc/stat`` is missing.
The summary's ``host_contention`` reports the largest of each.  The tool
only reads these counters; it changes no setting of the host.  The ``host``
line also says whether the measured processes, which inherit this
process's environment, write bytecode caches: with
``PYTHONDONTWRITEBYTECODE`` set, every run compiles ``src/`` afresh, and
``setup_s`` grows with the size of ``src/``.

``--claim WORKLOAD.METRIC`` adds a ``claimed`` entry, which says whether the
change won at least nine pairs in ten and whether its median gap exceeds the
parent's quartile distance.  ``--holdout-seed`` then reruns the benchmark
over three more pairs, without tier-1, at a master seed not used while the
change was written, and reports the claimed metric there.

Standard library only; numpy and saddlescape are imported by the measured
processes alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SEED = 0
SECONDS = 25  # the run length BENCHMARK.json gives
HOLDOUT_PAIRS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIER1_TEXT = "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors -p no:cacheprovider"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_TIMEOUT_S = 1200.0  # four workloads, each cut by run.py at 170 s
TIER1_TIMEOUT_S = 1800.0
SWEEP_TIMEOUT_S = 600.0
SWEEP_REPEATS = 3  # timed sweeps per spec and run, after one untimed warm-up
PROC_STAT = Path("/proc/stat")

# The acceptance sweeps of tests/test_acceptance.py::sweep, run in the
# checkout: problems, grid and tuned c come from that module, and the other
# keywords are the fixture's.  Prints, as JSON, each spec's median wall time
# over its timed sweeps, normalised by the host slowdown and raw.
SWEEP_PROGRAM = """
import json, statistics, sys, tempfile, time
sys.path[:0] = ["src", "tests", "perfbench"]
import test_acceptance as acc
from saddlescape.harness import ExperimentSpec, run_experiment
from worker import host_slowdown
psgd = dict(algorithm="psgd", mode="first_order", seeds=range(5), c=acc.TUNED_C,
            stop_after_certified=True)
specs = {
    "psgd_sgc": dict(psgd, problem=acc.PROBLEM_SGC, sgc_arm=True),
    "psgd_additive": dict(psgd, problem=acc.PROBLEM_ADD, sgc_arm=False),
    "scrn_ho": dict(problem=acc.PROBLEM_SGC, algorithm="scrn", mode="higher_order",
                    sgc_arm=True, seeds=range(10)),
}


def sweep(spec):
    with tempfile.TemporaryDirectory() as out:
        slowdown = host_slowdown()
        start = time.perf_counter()
        run_experiment(spec, out_dir=out)
        wall = time.perf_counter() - start
        return wall, 0.5 * (slowdown + host_slowdown())


walls = {}
for name, kwargs in specs.items():
    spec = ExperimentSpec(epsilon_grid=acc.EPS_GRID, max_steps=5000, **kwargs)
    sweep(spec)
    times = [sweep(spec) for _ in range(%d)]
    walls[name] = {"wall_s": round(statistics.median(w / s for w, s in times), 4),
                   "raw_wall_s": round(statistics.median(w for w, _ in times), 4)}
print(json.dumps(walls))
""" % SWEEP_REPEATS
SWEEP_METRICS = ("wall_s", "raw_wall_s")


class PairError(Exception):
    """A run that left no result to record."""


def _bench_command(seed: int) -> list:
    return ["perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def cpu_ticks():
    """The host's CPU time in clock ticks from the aggregate line of
    ``/proc/stat``: user, nice, system, idle, iowait, irq, softirq and
    steal; None where the file is missing or reads otherwise."""
    try:
        with PROC_STAT.open(encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return [int(v) for v in fields[1:9]]


def children_cpu_s() -> float:
    """User plus system CPU seconds of this process's waited-for descendants."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def contention(before, after, own_cpu_s: float) -> dict:
    """The steal share and the busy share outside the run's own process
    tree, between two ``cpu_ticks`` readings, the run's tree having used
    ``own_cpu_s`` CPU seconds; None for both without two readings."""
    deltas = None if before is None or after is None else [a - b for a, b in zip(after, before)]
    if not deltas or sum(deltas) <= 0:
        return {"steal_share": None, "others_busy_share": None}
    user, nice, system, _idle, _iowait, irq, softirq, steal = deltas
    total, ticks_per_s = sum(deltas), os.sysconf("SC_CLK_TCK")
    others = max(0.0, (user + nice + system + irq + softirq) / ticks_per_s - own_cpu_s)
    return {"steal_share": round(steal / total, 4),
            "others_busy_share": round(others / (total / ticks_per_s), 4)}


def run_bench(side: Path, seed: int) -> tuple:
    """The JSON result object that ``perfbench/run.py`` prints last, with
    the host's ``contention`` around the run added, and its first
    workload's ``info`` line (library versions)."""
    ticks, own = cpu_ticks(), children_cpu_s()
    proc = subprocess.run([sys.executable, *_bench_command(seed)], cwd=side,
                          capture_output=True, text=True, timeout=BENCH_TIMEOUT_S)
    load = contention(ticks, cpu_ticks(), children_cpu_s() - own)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PairError(f"benchmark in {side} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    info = [json.loads(line[5:]) for line in lines if line.startswith("info ")]
    return dict(json.loads(lines[-1]), contention=load), (info[0] if info else {})


def run_tier1(side: Path) -> dict:
    """Wall time and last summary line of one tier-1 run."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"), **{v: "1" for v in BLAS_VARS})
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=side, env=env, capture_output=True, text=True,
                          timeout=TIER1_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "result": lines[-1].strip("= ") if lines else "no output"}


def run_sweeps(side: Path) -> dict:
    """Median normalised and raw wall times in seconds of each acceptance
    sweep's ``run_experiment``."""
    env = dict(os.environ, **{v: "1" for v in BLAS_VARS})
    proc = subprocess.run([sys.executable, "-c", SWEEP_PROGRAM], cwd=side, env=env,
                          capture_output=True, text=True, timeout=SWEEP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PairError(f"acceptance sweeps in {side} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def compare(parent: list, change: list, better: str) -> dict:
    """Medians, inclusive quartiles and pairs won of one metric's paired values."""
    def q1_q3(values):
        q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        return [round(q[0], 6), round(q[2], 6)]

    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent_median": round(p_med, 6),
        "change_median": round(c_med, 6),
        "parent_q1_q3": q1_q3(parent),
        "change_q1_q3": q1_q3(change),
        "change_better_pairs": f"{won}/{len(parent)}",
        "median_change_pct": round(100.0 * (c_med - p_med) / p_med, 1) if p_med else 0.0,
    }


def run_pairs(dirs: dict, n_pairs: int, seed: int, tier1: bool) -> tuple:
    """The benchmark, tier-1 and acceptance-sweep records of every pair, and
    the change's run info.

    The parent runs first in odd pairs, the change in even pairs."""
    pairs, tier1_pairs, sweep_pairs, info = [], [], [], {}
    for pair in range(1, n_pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        record = {"pair": pair, "first": order[0]}
        for side in order:
            record[side], side_info = run_bench(dirs[side], seed)
            info = side_info if side == "change" else info
        pairs.append(record)
        if tier1:
            tier1_pairs.append({"pair": pair, "first": order[0],
                                **{side: run_tier1(dirs[side]) for side in order}})
            sweep_pairs.append({"pair": pair, "first": order[0],
                                **{side: run_sweeps(dirs[side]) for side in order}})
        print(f"seed {seed}: pair {pair}/{n_pairs} done", file=sys.stderr)
    return pairs, tier1_pairs, sweep_pairs, info


def largest_contention(pairs: list) -> dict:
    """The largest steal and outside-busy shares over the benchmark runs of
    ``pairs``, each None if no run has it."""
    runs = [p[side]["contention"] for p in pairs for side in ("parent", "change")]
    out = {}
    for key in ("steal_share", "others_busy_share"):
        values = [run[key] for run in runs if run[key] is not None]
        out[f"max_{key}"] = max(values) if values else None
    return out


def _values(pairs: list, key: str) -> dict:
    return {side: [p[side]["metrics"][key]["value"] for p in pairs] for side in ("parent", "change")}


def summarize(pairs: list, tier1_pairs: list, sweep_pairs: list, directions: dict) -> dict:
    summary = {}
    for key in pairs[0]["parent"]["metrics"]:
        workload, metric = key.split(".", 1)
        values = _values(pairs, key)
        summary.setdefault(workload, {})[metric] = compare(
            values["parent"], values["change"], directions[metric])
    summary["tier1"] = {"wall_s": compare([p["parent"]["wall_s"] for p in tier1_pairs],
                                          [p["change"]["wall_s"] for p in tier1_pairs], "lower")}
    summary["acceptance_sweeps"] = {
        name: {key: compare([p["parent"][name][key] for p in sweep_pairs],
                            [p["change"][name][key] for p in sweep_pairs], "lower")
               for key in SWEEP_METRICS}
        for name in sweep_pairs[0]["parent"]}
    summary["host_contention"] = largest_contention(pairs)
    return summary


def claim_entry(summary: dict, claim: str) -> dict:
    workload, metric = claim.split(".", 1)
    stats = summary[workload][metric]
    won, n = (int(v) for v in stats["change_better_pairs"].split("/"))
    q1, q3 = stats["parent_q1_q3"]
    return {
        "workload": workload, "metric": metric, "target": "",
        **{k: stats[k] for k in ("parent_median", "change_median", "median_change_pct",
                                 "change_better_pairs", "parent_q1_q3")},
        "won_nine_tenths": won * 10 >= 9 * n,
        "gap_exceeds_parent_iqr": abs(stats["change_median"] - stats["parent_median"]) > q3 - q1,
    }


def holdout_entry(pairs: list, claim: str, seed: int, better: str) -> dict:
    """The claimed metric over the holdout pairs."""
    values = _values(pairs, claim)
    stats = compare(values["parent"], values["change"], better)
    return {
        "command": "python3 " + " ".join(_bench_command(seed)),
        "why": (f"a master seed not used while the change was written; {len(pairs)} "
                "alternating pairs, parent first in odd pairs"),
        **{k: stats[k] for k in ("parent_median", "change_median", "median_change_pct",
                                 "change_better_pairs")},
        "host_contention": largest_contention(pairs),
        "pairs": [{"pair": p["pair"], "first": p["first"],
                   **{side: round(values[side][i], 6) for side in ("parent", "change")}}
                  for i, p in enumerate(pairs)],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", help="WORKLOAD.METRIC the change claims a gain on")
    parser.add_argument("--holdout-seed", type=int, help="master seed for the claim's holdout pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.holdout_seed is not None and not args.claim:
        parser.error("--holdout-seed needs --claim")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            parser.error(f"{side} has no perfbench/run.py")
    return args


def bytecode_note(environ=os.environ) -> str:
    """Whether processes started with ``environ`` write bytecode caches."""
    if environ.get("PYTHONDONTWRITEBYTECODE"):
        return ("PYTHONDONTWRITEBYTECODE set, so every measured process compiles src/ "
                "afresh")
    return "bytecode cached by the measured processes"


def main(argv=None) -> int:
    args = parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.claim:
        workload, _, metric = args.claim.partition(".")
        if workload not in {w["name"] for w in spec["workloads"]} or metric not in directions:
            print(f"error: --claim names no workload's end-to-end metric: {args.claim}",
                  file=sys.stderr)
            return 2
    try:
        pairs, tier1_pairs, sweep_pairs, info = run_pairs(dirs, args.pairs, SEED, tier1=True)
        summary = summarize(pairs, tier1_pairs, sweep_pairs, directions)
        holdout = None
        if args.holdout_seed is not None:
            holdout_pairs = run_pairs(dirs, HOLDOUT_PAIRS, args.holdout_seed, tier1=False)[0]
            holdout = holdout_entry(holdout_pairs, args.claim, args.holdout_seed, directions[metric])
    except (PairError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = {
        "change": "",
        "command": "python3 " + " ".join(_bench_command(SEED)),
        "tier1_command": TIER1_TEXT,
        "host": (f"{os.cpu_count()}-vCPU {platform.system()}, one BLAS thread, "
                 f"numpy {info.get('numpy')}, scipy {info.get('scipy')}, "
                 f"python {platform.python_version()}; {bytecode_note()}; parent and "
                 "change from separate checkouts of the same machine, run one at a time"),
        "protocol": (f"{args.pairs} pairs; parent runs first in odd pairs, change first in even "
                     "pairs; in each pair both benchmark runs come first, then one tier-1 run "
                     "per side, then one run of the three acceptance sweeps per side, in the "
                     f"same order; a run sweeps each spec once untimed, then {SWEEP_REPEATS} "
                     "times timed, and records the median wall time, divided by the host "
                     "slowdown around each sweep (wall_s) and raw (raw_wall_s)"),
        "sweep_command": "python3 -c tools.bench_pairs.SWEEP_PROGRAM (in the checkout, one BLAS thread)",
        "notes": "",
        "claimed": claim_entry(summary, args.claim) if args.claim else None,
        "summary": summary,
        "tier1_pairs": tier1_pairs,
        "sweep_pairs": sweep_pairs,
        "pairs": pairs,
    }
    if holdout is not None:
        out["holdout_seed"] = holdout
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
