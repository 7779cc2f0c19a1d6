"""Experiment orchestration: sweeps, trace/summary CSVs, complexity plots.

An :class:`ExperimentSpec` names a problem, an algorithm arm, an accuracy
grid, and seeds; ``run_experiment`` executes every (epsilon, seed) cell,
writes one trace CSV per run plus a summary CSV and a log-log complexity
plot, and returns the summary rows.  Everything is reproducible from the
spec and the master seed: traces are byte-identical across re-runs.

The primary complexity statistic is the oracle budget consumed up to the
first certified iterate (median over seeds): the convergence theorems
guarantee certified iterates exist within their budgets, and first-hit time
is the desk-scale observable.  Cubic-Newton runs additionally report the
budget consumed through the uniformly drawn iterate of their in-expectation
guarantee.

Each theorem schedule is stated once, in ``psgd`` or ``scrn``, and one
dispatch on the spec's arm (``_schedule``) builds it for the spec check, the
cells and ``formula_total_calls`` (with the epsilon logs held at 1).

Constants-tuning protocol: the schedules' absolute constants are tuned once
on the coarsest accuracy of the grid (``tune_constants``), frozen, and then
the full grid is evaluated -- never tuned per epsilon, which would fake the
fitted slope.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import config as _cfg
from . import psgd as _psgd
from . import scrn as _scrn
# certify is unused here, but the benchmark's tracer patches it in this module
from .diagnostics import RunTrace, SospCertificate, TraceRow, certify, sosp_fraction  # noqa: F401
from .errors import ConfigurationError, EvaluationError, NumericalError
from .problems import _PROBLEM_KEYS, StochasticProblem, problem_from_config
from .psgd import FIRST_ORDER, PsgdConfig, ScheduleConstants
from .scrn import HIGHER_ORDER, ZEROTH_ORDER
from .seeds import SeedStream, fold_int_states

OUT_DIR_ENV = "SADDLESCAPE_OUT"

_PSGD_MODES = (FIRST_ORDER, ZEROTH_ORDER)
_SCRN_MODES = (HIGHER_ORDER, ZEROTH_ORDER)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment arm over an accuracy grid and a set of distinct seeds.

    Statistical summary fields (medians, success rates) are only meaningful
    with at least three seeds; single-seed specs are allowed for smoke runs.
    The whole spec is checked when it is built: its problem keys by building
    the problem once, its schedule constants by the checks of
    ``ScheduleConstants`` and ``check_mu``, and the schedule of every
    epsilon by building it, so a spec no cell could schedule (PSGD at
    epsilon >= 1/e, gap/(delta epsilon) <= 1, an arm that needs the growth
    constant ``rho_true`` on a problem without one) is rejected up front.
    """

    problem: dict
    algorithm: str  # "psgd" | "scrn"
    mode: str
    sgc_arm: bool
    epsilon_grid: Sequence[float]
    seeds: Sequence[int]
    out_dir: str = "runs"
    x0_offset: float = 0.0
    max_steps: int = 5000
    certify_every: int = 1
    burn_in: float = 0.2
    stop_after_certified: bool = False
    delta: float = 0.1
    a0: float = 1.0
    a1: float = 1.0
    c: float = 1.0
    kappa: Sequence[float] = (1.0,) * 10
    mu: Sequence[float] = (1.0,) * 5

    def __post_init__(self):
        if self.algorithm not in ("psgd", "scrn"):
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        modes = _PSGD_MODES if self.algorithm == "psgd" else _SCRN_MODES
        if self.mode not in modes:
            raise ConfigurationError(
                f"mode {self.mode!r} invalid for {self.algorithm}; expected one of {modes}"
            )
        eps = tuple(float(e) for e in self.epsilon_grid)
        if not eps:
            raise ConfigurationError("epsilon_grid must be nonempty")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigurationError("epsilon_grid must be strictly decreasing")
        # trace files and cells.txt name an epsilon by its :g label
        labels = [f"{e:g}" for e in eps]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ConfigurationError(f"epsilon_grid values must differ in their :g labels; "
                                     f"repeated: {', '.join(repeated)}")
        object.__setattr__(self, "epsilon_grid", eps)
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ConfigurationError("need at least one seed")
        # the seed tree takes a seed modulo 2^64: seeds equal there share one run stream
        residues = [s % 2**64 for s in seeds]
        repeated = sorted({s for s, r in zip(seeds, residues) if residues.count(r) > 1})
        if repeated:
            raise ConfigurationError(f"seeds must be distinct modulo 2^64; "
                                     f"repeated: {', '.join(map(str, repeated))}")
        object.__setattr__(self, "seeds", seeds)
        if not (math.isfinite(self.x0_offset) and self.x0_offset >= 0):
            raise ConfigurationError(f"x0_offset must be finite and >= 0, got {self.x0_offset}")
        for name in ("max_steps", "certify_every"):  # a fractional count fails every cell later
            object.__setattr__(self, name, _cfg.as_count(getattr(self, name), name))
        if self.max_steps < 1 or self.certify_every < 1:
            raise ConfigurationError("max_steps and certify_every must be >= 1")
        if not 0.0 <= self.burn_in <= 0.9:
            raise ConfigurationError("burn_in must be in [0, 0.9]")
        if self.stop_after_certified and self.algorithm == "scrn":
            raise ConfigurationError("stop_after_certified is for psgd only: scrn runs "
                                     "its full budget to certify the random iterate")
        object.__setattr__(self, "kappa", tuple(float(k) for k in self.kappa))
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        p = problem_from_config(dict(self.problem))
        ScheduleConstants(epsilon=eps[0], delta=self.delta, a0=self.a0, a1=self.a1, c=self.c,
                          kappa=self.kappa)
        _scrn.check_mu(self.mu)
        for epsilon in eps:
            try:
                _schedule(self, p, epsilon)
            except ConfigurationError as err:
                raise ConfigurationError(
                    f"{self.arm_label} at epsilon={epsilon:g} on {p.name}: {err}") from None

    @property
    def arm_label(self) -> str:
        return f"{self.algorithm}-{self.mode}-{'sgc' if self.sgc_arm else 'nosgc'}"


@dataclass
class SummaryRow:
    """Per-(arm, epsilon) aggregate over seeds."""

    epsilon: float
    algorithm: str
    mode: str
    sgc_arm: bool
    median_calls_to_first_certified: Optional[int]
    sosp_fraction: float
    success_rate: float
    median_calls_at_random_iterate: Optional[int] = None


def _schedule(spec: ExperimentSpec, p: StochasticProblem, epsilon: float,
              unit_logs: bool = False):
    """The theorem schedule of the spec's arm at ``epsilon``, from x0 = 0.

    ``unit_logs`` holds PSGD's two epsilon logs at 1 after their checks
    (``formula_total_calls``); SCRN's schedules have no epsilon log.
    """
    gap = p.exact_value(np.zeros(p.meta.dim)) - p.meta.f_star
    if spec.algorithm == "scrn":
        return _scrn.schedule_scrn(epsilon, p.meta, gap, mode=spec.mode, mu=spec.mu)
    consts = ScheduleConstants(epsilon=epsilon, delta=spec.delta, a0=spec.a0, a1=spec.a1,
                               c=spec.c, kappa=spec.kappa)
    logs = _psgd._epsilon_logs(consts, gap)
    body = _psgd._first_order if spec.mode == FIRST_ORDER else _psgd._zeroth_order
    return body(consts, p.meta, gap, spec.sgc_arm, *((1.0, 1.0) if unit_logs else logs))


def _x0(spec: ExperimentSpec, dim: int, run_seeds: Sequence[int]) -> list:
    """The start points of the runs of ``run_seeds``: the origin, or the point
    at distance ``x0_offset`` along a direction drawn from each run's "x0"
    stream."""
    if spec.x0_offset == 0:
        return list(np.zeros((len(run_seeds), dim)))
    directions = [s.rng().standard_normal(dim) for s in SeedStream(run_seeds, "x0").nodes()]
    return [spec.x0_offset * u / np.linalg.norm(u) for u in directions]


def run_cell(spec: ExperimentSpec, epsilon: float, seed: int, master_seed: int = 0) -> RunTrace:
    """Run one (epsilon, seed) cell of an experiment: the group of that cell alone."""
    (outcome,) = _run_group(spec, [(epsilon, seed)], master_seed)
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


def _run_group(spec: ExperimentSpec, cells: Sequence[tuple], master_seed: int = 0) -> list:
    """Run the (epsilon, seed) ``cells`` of the spec's arm in lockstep.

    Each cell runs its own epsilon's schedule, cut at ``max_steps``, from
    its seed's run stream (``psgd.run_steps``).  Returns one outcome per
    cell: its RunTrace, or the NumericalError that ended it.  Each outcome
    is the one the cell gives on its own.
    """
    p = problem_from_config(dict(spec.problem))
    schedules = {}  # epsilon -> (theorem T, the config that runs)
    for epsilon, _ in cells:
        if epsilon not in schedules:
            cfg = _schedule(spec, p, epsilon)
            run_T = max(min(cfg.T, spec.max_steps), 1)
            schedules[epsilon] = cfg.T, dataclasses.replace(cfg, T=run_T)
    cfgs = [schedules[epsilon][1] for epsilon, _ in cells]
    run_seeds = fold_int_states(SeedStream(master_seed, "cell").state,
                                [seed % 2**64 for _, seed in cells]).tolist()
    x0 = _x0(spec, p.meta.dim, run_seeds)
    if spec.algorithm == "scrn":
        outcomes = _scrn.run_scrn(p, x0, cfgs, certify_every=spec.certify_every, seed=run_seeds)
    elif spec.stop_after_certified:
        outcomes = _run_psgd_stopping(p, x0, cfgs, spec.certify_every, run_seeds)
    else:
        outcomes = _psgd.run_psgd(p, x0, cfgs, certify_every=spec.certify_every, seed=run_seeds)
    for (epsilon, seed), trace in zip(cells, outcomes):
        if isinstance(trace, RunTrace):
            trace.config_echo += (
                f"\ntheorem_T = {schedules[epsilon][0]}\nsgc_arm = {spec.sgc_arm}"
                f"\nuser_seed = {seed}\nmaster_seed = {master_seed}"
                f"\nburn_in = {float(spec.burn_in)!r}"
            )
    return outcomes


# _run_group could call run_psgd directly; this wrapper remains because the
# benchmark's tracer times the stopping run loop under its name
def _run_psgd_stopping(p, x0, cfgs: Sequence[PsgdConfig], certify_every: int, seeds) -> list:
    """run_psgd on a group of seeds with one config each, each run ending at
    its first certified checkpoint (complexity sweeps)."""
    return _psgd.run_psgd(p, x0, cfgs, certify_every=certify_every, seed=seeds,
                          stop_after_certified=True)


def _median_int(values: List[int]) -> Optional[int]:
    if not values:
        return None
    return int(round(float(np.median(values))))


def summarize_traces(traces: Iterable[RunTrace]) -> List[SummaryRow]:
    """Summary rows of finished runs, computed from their traces alone.

    Traces are grouped by the (algorithm, mode, sgc_arm, epsilon) that their
    config echo records, and each trace's stationarity fraction discards the
    burn-in fraction it echoes.  Rows are sorted by (arm, epsilon descending).
    """
    groups: dict[tuple, list[RunTrace]] = {}
    for t in traces:
        key = (t.echo("algorithm"), t.echo("mode"), t.echo("sgc_arm") == "True",
               float(t.echo("epsilon")))
        groups.setdefault(key, []).append(t)
    rows = []
    for (algorithm, mode, sgc_arm, epsilon), group in groups.items():
        hits = [t.first_certified_calls() for t in group]
        if algorithm == "scrn":
            successes = [t.r_certificate.certified for t in group if t.r_certificate is not None]
            success_rate = (sum(successes) / len(successes)) if successes else 0.0
            median_r = _median_int([t.r_oracle_calls for t in group if t.r_oracle_calls is not None])
        else:
            success_rate = sum(h is not None for h in hits) / len(hits)
            median_r = None
        fractions = [sosp_fraction(t, float(t.echo("burn_in"))) for t in group]
        rows.append(SummaryRow(
            epsilon, algorithm, mode, sgc_arm,
            median_calls_to_first_certified=_median_int([h for h in hits if h is not None]),
            sosp_fraction=float(np.median(fractions)),
            success_rate=float(success_rate),
            median_calls_at_random_iterate=median_r,
        ))
    rows.sort(key=lambda r: (r.algorithm, r.mode, not r.sgc_arm, -r.epsilon))
    return rows


TRACE_GLOB = "*_seed*.csv"  # the trace files of a run directory, as summarize reads them


def _trace_filename(spec: ExperimentSpec, epsilon: float, seed: int) -> str:
    arm = spec.arm_label.replace("-", "_")
    return f"{arm}_eps{epsilon:g}_seed{seed}.csv"


def run_experiment(
    spec: ExperimentSpec,
    out_dir=None,
    workers: int = 1,
    master_seed: int = 0,
) -> List[SummaryRow]:
    """Execute all (epsilon, seed) cells; write traces, summary, and plot.

    All cells of the arm, every epsilon and seed, run as one group in
    lockstep in this process (``psgd.run_steps``); every trace is the one
    its cell gives on its own (``run_cell``).  ``workers`` must be 1: the
    keyword remains for the benchmark worker, which passes it.  Cell
    failures are recorded in cells.txt and excluded from the summary; an
    error that escapes the group fails each of its cells.  Only I/O failures
    abort the whole experiment, and EvaluationError is raised when no cell
    succeeds.  Returns the summary rows sorted by (arm, epsilon descending).
    """
    if workers != 1:
        raise ConfigurationError(f"workers must be 1, got {workers}")
    out = Path(os.environ.get(OUT_DIR_ENV) or out_dir or spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells = [(eps, seed) for eps in spec.epsilon_grid for seed in spec.seeds]
    try:
        outcomes = _run_group(spec, cells, master_seed=master_seed)
    except (NumericalError, ConfigurationError) as err:
        outcomes = [err] * len(cells)

    # an earlier run's traces would join the summary, and its summary and
    # plot would outlive a run in which no cell succeeds
    for stale in [*out.glob(TRACE_GLOB), out / "summary.csv", out / "complexity.svg"]:
        stale.unlink(missing_ok=True)
    traces = []
    with open(out / "cells.txt", "w", encoding="utf-8") as fh:
        for (eps, seed), outcome in zip(cells, outcomes):
            ok = isinstance(outcome, RunTrace)
            fh.write(f"eps={eps:g} seed={seed} {'ok' if ok else f'failed: {outcome}'}\n")
            if ok:
                write_trace(outcome, out / _trace_filename(spec, eps, seed))
                traces.append(outcome)
    if not traces:
        raise EvaluationError(f"no cell succeeded; see {out / 'cells.txt'}")
    rows = summarize_traces(traces)
    write_summary_outputs(rows, out)
    return rows


# ---------------------------------------------------------------------------
# trace / summary serialization

def _columns(cls, algorithm: str = "") -> tuple:
    """CSV columns of a record class: its field names in declaration order.
    PSGD trace rows stop before the cubic step's h_norm and model_decrease."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    if cls is TraceRow and algorithm != "scrn":
        return names[:names.index("h_norm")]
    return names


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


# the parser of each field type of a CSV record; an Optional field reads "" as None
_PARSE = {int: int, float: float, bool: _flag, str: str,
          Optional[int]: lambda text: int(text) if text else None,
          Optional[float]: lambda text: float(text) if text else None}


@functools.cache
def _parsers(cls) -> tuple:
    """Parsers of a record class's fields in declaration order, by field type."""
    hints = typing.get_type_hints(cls)
    return tuple(_PARSE[hints[f.name]] for f in dataclasses.fields(cls))


def _format_row(record, columns: tuple) -> str:
    return ",".join([_fmt(getattr(record, name)) for name in columns])


def _trace_line(row: TraceRow, columns: tuple) -> str:
    """``_format_row(row, columns)`` of a trace row, from one f-string when
    each value has its column's exact type: ``float.__repr__`` for a float,
    the int as is, "1"/"0" for the flag and "" for None.  Any other value (a
    numpy scalar, an int in a float column) goes through ``_format_row``."""
    t, f, g, lam, calls, cert = (row.t, row.f, row.grad_norm, row.lambda_min,
                                 row.oracle_calls, row.certified)
    if not (type(t) is int and type(f) is float and type(g) is float
            and type(lam) is float and type(calls) is int and type(cert) is bool):
        return _format_row(row, columns)
    line = f"{t},{f!r},{g!r},{lam!r},{calls},{'1' if cert else '0'}"
    if columns[-1] == "certified":  # a PSGD row stops before the cubic step's columns
        return line
    h, dec = row.h_norm, row.model_decrease
    if not ((h is None or type(h) is float) and (dec is None or type(dec) is float)):
        return _format_row(row, columns)
    return f"{line},{'' if h is None else repr(h)},{'' if dec is None else repr(dec)}"


def _parse_row(cls, columns: tuple, line: str):
    """The record of one CSV line, its first len(columns) fields parsed."""
    parts = line.split(",")
    if len(parts) != len(columns):
        raise ValueError(f"expected {len(columns)} fields, got {len(parts)}")
    return cls(*[parse(text) for parse, text in zip(_parsers(cls), parts)])


# Header lines that write_trace adds after the config echo, in this order,
# with the parser read_trace applies to each.  The r_* lines exist for
# cubic-Newton runs only: the random iterate, the budget through it and the
# fields of its SospCertificate.
_TRACE_FIELDS = {
    "seed": int, "total_oracle_calls": int, "r_index": int, "r_oracle_calls": int,
    "r_certified": _flag, "r_grad_norm": float, "r_lambda_min": float,
    "r_epsilon": float, "r_score": float,
}
_CERT_FIELDS = tuple(f.name for f in dataclasses.fields(SospCertificate))


def write_trace(trace: RunTrace, path) -> None:
    """Trace CSV: config echo and run fields as '# key = value' header lines,
    then one row per certification checkpoint.  Output is byte-deterministic
    and ``read_trace`` inverts it exactly."""
    fields = {"seed": trace.seed, "total_oracle_calls": trace.total_oracle_calls}
    if trace.r_index is not None:
        fields.update(r_index=trace.r_index, r_oracle_calls=trace.r_oracle_calls)
        fields.update({f"r_{k}": getattr(trace.r_certificate, k) for k in _CERT_FIELDS})
    lines = [f"# {line}" for line in trace.config_echo.splitlines()]
    lines += [f"# {key} = {_fmt(fields[key])}" for key in _TRACE_FIELDS if key in fields]
    columns = _columns(TraceRow, trace.algorithm)
    lines.append(",".join(columns))
    lines += [_trace_line(row, columns) for row in trace.rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path) -> RunTrace:
    """Parse a trace CSV written by ``write_trace`` back into the RunTrace.

    Raises ConfigurationError naming the file and line on malformed content.
    """
    lines = _cfg.read_text(path).splitlines()
    n_head = next((i for i, line in enumerate(lines) if not line.startswith("# ")), len(lines))
    try:
        echo, fields = [], {}
        for lineno, line in enumerate(lines[:n_head], start=1):
            key, sep, value = line[2:].partition(" = ")
            if not sep:
                raise ValueError("expected '# key = value'")
            if key in _TRACE_FIELDS:
                fields[key] = _TRACE_FIELDS[key](value)
            else:
                echo.append(line[2:])
        lineno = n_head + 1
        trace = RunTrace(
            seed=fields["seed"], algorithm="", config_echo="\n".join(echo),
            total_oracle_calls=fields["total_oracle_calls"],
            r_index=fields.get("r_index"), r_oracle_calls=fields.get("r_oracle_calls"),
        )
        trace.algorithm = trace.echo("algorithm")
        if trace.r_index is not None:
            trace.r_certificate = SospCertificate(**{k: fields[f"r_{k}"] for k in _CERT_FIELDS})
        columns = _columns(TraceRow, trace.algorithm)
        if lines[n_head:n_head + 1] != [",".join(columns)]:
            raise ValueError(f"expected the column line {','.join(columns)!r}")
        for lineno, line in enumerate(lines[n_head + 1:], start=n_head + 2):
            trace.append(_parse_row(TraceRow, columns, line))
        if not trace.rows:
            raise ValueError("trace has no data rows")
    except KeyError as err:
        raise ConfigurationError(f"{path}, line {lineno}: header has no {err} line") from None
    except (ValueError, ConfigurationError, EvaluationError) as err:
        raise ConfigurationError(f"{path}, line {lineno}: {err}") from None
    return trace


def write_summary(rows: Sequence[SummaryRow], path) -> None:
    columns = _columns(SummaryRow)
    lines = [",".join(columns)] + [_format_row(r, columns) for r in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_outputs(rows: Sequence[SummaryRow], out: Path) -> None:
    """summary.csv, plus complexity.svg when some row has a median to plot."""
    write_summary(rows, out / "summary.csv")
    if any(r.median_calls_to_first_certified for r in rows):
        emit_plot(rows, out / "complexity.svg")
    else:
        (out / "complexity.svg").unlink(missing_ok=True)


def read_summary(path) -> List[SummaryRow]:
    """Parse a summary.csv written by ``write_summary``.

    Raises ConfigurationError naming the file and line on malformed content.
    """
    lines = _cfg.read_text(path).splitlines()
    columns = _columns(SummaryRow)
    if lines[:1] != [",".join(columns)]:
        raise ConfigurationError(f"{path}, line 1: unexpected summary header")
    rows: list[SummaryRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rows.append(_parse_row(SummaryRow, columns, line))
        except ValueError as err:
            raise ConfigurationError(f"{path}, line {lineno}: {err}") from None
    return rows


# ---------------------------------------------------------------------------
# complexity statistics

def fit_complexity_slope(
    summary: Sequence[SummaryRow],
    calls_field: str = "median_calls_to_first_certified",
):
    """Least-squares slope of log(median calls) against log(1/epsilon).

    Returns ``(slope, stderr)``; needs at least three epsilon points with a
    successful median.
    """
    points = sorted(
        (math.log(1.0 / r.epsilon), math.log(getattr(r, calls_field)))
        for r in summary
        if getattr(r, calls_field)
    )
    if len(points) < 3:
        raise EvaluationError(
            f"slope fit needs >= 3 epsilon points with successful medians, got {len(points)}"
        )
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean()) / (xc @ xc))
    resid = y - (y.mean() + slope * xc)
    dof = len(points) - 2
    stderr = float(np.sqrt((resid @ resid) / dof / (xc @ xc))) if dof > 0 else 0.0
    return slope, stderr


def formula_total_calls(spec: ExperimentSpec, epsilon: float) -> int:
    """Theorem budget ``T x calls_per_step`` of the spec's arm at ``epsilon``,
    with its epsilon logs held at 1.

    Builds the schedule that runs, with its checks, but with PSGD's
    ``log(1/eps)`` and ``log(gap/(delta eps))`` set to one: the power law
    the theory states up to logs.  SCRN's schedules have no epsilon log and
    dimension logs are kept.  Checks the exponents without running anything.
    """
    cfg = _schedule(spec, problem_from_config(dict(spec.problem)), epsilon, unit_logs=True)
    return cfg.T * cfg.calls_per_step


# ---------------------------------------------------------------------------
# plotting

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def emit_plot(summary: Sequence[SummaryRow], path) -> None:
    """Self-contained log-log SVG of the median calls to the first certified
    iterate: one polyline per arm, byte-deterministic."""
    arms: dict[tuple, list[tuple[float, float]]] = {}
    for r in summary:
        calls = r.median_calls_to_first_certified
        if not calls:
            continue
        key = (r.algorithm, r.mode, r.sgc_arm)
        arms.setdefault(key, []).append((1.0 / r.epsilon, float(calls)))
    if not arms:
        raise EvaluationError("summary holds no successful medians to plot")

    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    xs = [math.log10(x) for pts in arms.values() for x, _ in pts]
    ys = [math.log10(y) for pts in arms.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x):
        return left + (math.log10(x) - x_lo) / x_span * (width - left - right)

    def sy(y):
        return height - bottom - (math.log10(y) - y_lo) / y_span * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect x="0" y="0" width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{left:g}" y1="{height - bottom:g}" x2="{width - right:g}" '
        f'y2="{height - bottom:g}" stroke="black"/>',
        f'<line x1="{left:g}" y1="{top:g}" x2="{left:g}" y2="{height - bottom:g}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" '
        f'text-anchor="middle" font-size="14">1/epsilon</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" text-anchor="middle" '
        f'font-size="14" transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})">oracle calls</text>',
    ]
    for i, (key, pts) in enumerate(sorted(arms.items())):
        pts = sorted(pts)
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="3" fill="{color}"/>')
        label = f"{key[0]}-{key[1]}-{'sgc' if key[2] else 'nosgc'}"
        parts.append(
            f'<text x="{width - right - 4:.1f}" y="{top + 16 * (i + 1):.1f}" '
            f'text-anchor="end" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# constants tuning

def tune_constants(
    spec: ExperimentSpec,
    candidates: Sequence[dict],
    tune_seeds: Sequence[int] = (0, 1, 2),
) -> dict:
    """Tune-once protocol: evaluate candidate constant overrides on the
    coarsest epsilon of the grid and return the best override dict.

    A candidate wins by (certification success over the tuning seeds, then
    lower median first-hit budget).  The caller freezes the winner into the
    spec before evaluating the full grid.  No tuning seeds, tuning seeds
    that repeat modulo 2^64 (as a spec's seeds may not), or a candidate key
    that is no spec field, is rejected before any candidate runs.
    """
    if not candidates:
        raise ConfigurationError("need at least one candidate override")
    if not tune_seeds:
        raise ConfigurationError("need at least one tuning seed, got 0")
    spec = dataclasses.replace(spec, seeds=tuple(tune_seeds))
    unknown = {key for cand in candidates for key in cand} - {
        f.name for f in dataclasses.fields(ExperimentSpec)}
    if unknown:
        raise ConfigurationError(f"candidates set unknown spec keys: {', '.join(sorted(unknown))}")
    eps = spec.epsilon_grid[0]
    best = None
    for cand in candidates:
        try:
            # a candidate whose schedule is undefined fails when its spec is built
            outcomes = _run_group(dataclasses.replace(spec, **cand),
                                  [(eps, seed) for seed in spec.seeds])
        except (NumericalError, ConfigurationError):
            outcomes = [None] * len(spec.seeds)
        hits = [o.first_certified_calls() if isinstance(o, RunTrace) else None for o in outcomes]
        wins = sum(h is not None for h in hits)
        med = float(np.median([h for h in hits if h is not None])) if wins else math.inf
        score = (-wins, med)
        if best is None or score < best[0]:
            best = (score, cand)
    return best[1]


# ---------------------------------------------------------------------------
# spec parsing

def experiment_from_config(source) -> ExperimentSpec:
    """Build an ExperimentSpec from a key/value file or dict.

    Problem keys (``problems._PROBLEM_KEYS``) are forwarded to the problem
    constructor;
    the remaining keys configure the experiment (see README).  Any other
    key raises ``ConfigurationError``.
    """
    if isinstance(source, dict):
        raw = {k: str(v) for k, v in source.items()}
    else:
        raw = _cfg.parse_kv_file(source)
    optional = (
        ("out_dir", lambda value, _: value), ("x0_offset", _cfg.as_float),
        ("max_steps", _cfg.as_int), ("certify_every", _cfg.as_int),
        ("burn_in", _cfg.as_float), ("stop_after_certified", _cfg.as_bool),
        ("delta", _cfg.as_float), ("a0", _cfg.as_float), ("a1", _cfg.as_float),
        ("c", _cfg.as_float), ("kappa", _cfg.as_float_list), ("mu", _cfg.as_float_list),
    )
    known = {*_PROBLEM_KEYS, "algorithm", "mode", "sgc_arm", "epsilon_grid", "seeds", *dict(optional)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigurationError(f"unknown experiment keys: {', '.join(unknown)}")
    problem = {k: raw[k] for k in _PROBLEM_KEYS if k in raw}
    if "algorithm" not in raw or "epsilon_grid" not in raw or "seeds" not in raw:
        raise ConfigurationError("experiment config needs algorithm, epsilon_grid, seeds")
    kwargs = dict(
        problem=problem,
        algorithm=raw["algorithm"],
        mode=raw.get("mode", FIRST_ORDER if raw["algorithm"] == "psgd" else HIGHER_ORDER),
        sgc_arm=_cfg.as_bool(raw.get("sgc_arm", "true"), "sgc_arm"),
        epsilon_grid=_cfg.as_float_list(raw["epsilon_grid"], "epsilon_grid"),
        seeds=_cfg.as_int_list(raw["seeds"], "seeds"),
    )
    for key, conv in optional:
        if key in raw:
            kwargs[key] = conv(raw[key], key)
    return ExperimentSpec(**kwargs)
