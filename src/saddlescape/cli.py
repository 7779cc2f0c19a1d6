"""Command-line entry point.

Subcommands::

    saddlescape run --spec exp.cfg --out runs/ [--master-seed S]
    saddlescape summarize --dir runs/
    saddlescape plot --summary runs/summary.csv --out curve.svg
    saddlescape certify --problem prob.cfg --point point.csv --epsilon 0.05

Exit codes: 0 success, 1 usage, validation or configuration error, 2
numerical failure.  Every failure prints one line to stderr.  The
``SADDLESCAPE_OUT`` environment variable overrides the output directory (and
nothing else).

Only numpy and saddlescape are loaded at start-up: scipy is imported by the
cubic solver's Brent safeguard and by ``eigsh`` above d = 512, when they run.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import harness
from .diagnostics import certify
from .errors import ConfigurationError, EvaluationError, NumericalError
from .problems import as_point, problem_from_config


def _print_rows(rows) -> int:
    for row in rows:
        print(
            f"{row.algorithm}-{row.mode}-{'sgc' if row.sgc_arm else 'nosgc'} "
            f"eps={row.epsilon:g} median_calls={row.median_calls_to_first_certified} "
            f"sosp_fraction={row.sosp_fraction:.3f} success={row.success_rate:.2f}"
        )
    return 0


def _cmd_run(args) -> int:
    spec = harness.experiment_from_config(args.spec)
    return _print_rows(harness.run_experiment(spec, args.out, master_seed=args.master_seed))


def _cmd_summarize(args) -> int:
    directory = Path(args.dir)
    paths = sorted(directory.glob(harness.TRACE_GLOB))
    if not paths:
        raise ConfigurationError(f"no trace files found under {directory}")
    rows = harness.summarize_traces(harness.read_trace(path) for path in paths)
    harness.write_summary_outputs(rows, directory)
    return _print_rows(rows)


def _cmd_plot(args) -> int:
    rows = harness.read_summary(args.summary)
    harness.emit_plot(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_certify(args) -> int:
    problem = problem_from_config(args.problem)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input is reported below
            points = np.loadtxt(args.point, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ConfigurationError(f"{args.point}: {err}") from None
    if points.size == 0:
        raise ConfigurationError(f"{args.point}: no points")
    for i, x in enumerate(points):
        cert = certify(problem, as_point(x, problem.meta.dim), args.epsilon)
        print(
            f"point {i}: certified={int(cert.certified)} score={cert.score!r} "
            f"grad_norm={cert.grad_norm!r} lambda_min={cert.lambda_min!r} "
            f"epsilon={cert.epsilon!r}"
        )
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors through ``main``'s one-line, exit-1 path."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saddlescape")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment spec")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--master-seed", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_sum = sub.add_parser("summarize", help="rebuild summary.csv and complexity.svg from trace files")
    p_sum.add_argument("--dir", required=True)
    p_sum.set_defaults(func=_cmd_summarize)

    p_plot = sub.add_parser("plot", help="render a log-log complexity chart")
    p_plot.add_argument("--summary", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    p_cert = sub.add_parser("certify", help="certify points against a problem")
    p_cert.add_argument("--problem", required=True)
    p_cert.add_argument("--point", required=True)
    p_cert.add_argument("--epsilon", type=float, required=True)
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigurationError, EvaluationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        where = f" at iterate {err.iterate}" if err.iterate is not None else ""
        print(f"numerical failure{where}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
