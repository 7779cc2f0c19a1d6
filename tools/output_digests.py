"""sha256 of every output file of the benchmark's workloads and the lockstep test arms.

    python3 tools/output_digests.py 0 1 2 > change.txt
    python3 tools/output_digests.py --checkout ../parent 0 1 2 > parent.txt
    diff parent.txt change.txt

Runs ``run_experiment`` on each spec of ``perfbench/workloads.py::WORKLOADS``
and of ``tests/test_lockstep.py::ARMS``, at each master seed given, into a
temporary directory, with the ``src/`` of ``--checkout`` (by default the
checkout holding this script) and one BLAS thread.  Prints one line
``name seed file sha256`` per output file (traces, ``summary.csv``,
``cells.txt``, ``complexity.svg``), sorted by file name; a spec is named
``workloads.<key>`` or ``test_lockstep.<key>``.  Two checkouts whose lines
agree write byte-identical outputs.

Standard library plus saddlescape.  Nothing is written in the checkout: no
bytecode is cached, and the two spec files are read, not imported.
``workloads.py`` is executed as it stands (it imports nothing);
``test_lockstep.py`` contributes only its module-level assignments up to
``ARMS``, so neither pytest nor the test helpers are needed.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import os
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def workload_specs(checkout: Path) -> dict:
    """The benchmark's workload specs, from ``perfbench/workloads.py``."""
    path = checkout / "perfbench" / "workloads.py"
    namespace: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace["WORKLOADS"]


def lockstep_arms(checkout: Path) -> dict:
    """``ARMS`` of ``tests/test_lockstep.py``, from the module-level
    assignments up to and including its own."""
    path = checkout / "tests" / "test_lockstep.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    body = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            body.append(node)
            if any(isinstance(t, ast.Name) and t.id == "ARMS" for t in node.targets):
                break
    namespace: dict = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(path), "exec"), namespace)
    return namespace["ARMS"]


def digests(checkout: Path, seeds: list) -> list:
    """``(name, seed, file, sha256)`` of every output file of every spec."""
    from saddlescape.harness import OUT_DIR_ENV, ExperimentSpec, run_experiment

    os.environ.pop(OUT_DIR_ENV, None)  # it would redirect the outputs
    specs = {f"workloads.{k}": v for k, v in workload_specs(checkout).items()}
    specs.update({f"test_lockstep.{k}": v for k, v in lockstep_arms(checkout).items()})
    lines = []
    for name, kwargs in specs.items():
        spec = ExperimentSpec(**kwargs)
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="output-digests-") as out:
                run_experiment(spec, out_dir=out, master_seed=seed)
                for path in sorted(Path(out).iterdir()):
                    lines.append((name, seed, path.name,
                                  hashlib.sha256(path.read_bytes()).hexdigest()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED", help="master seeds")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to run (default: the one holding this script)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "saddlescape").is_dir():
        parser.error(f"{checkout} has no src/saddlescape")
    sys.dont_write_bytecode = True
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(checkout / "src"))
    for name, seed, file, digest in digests(checkout, args.seeds):
        print(name, seed, file, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
