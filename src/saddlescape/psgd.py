"""Perturbed stochastic gradient descent with isotropic Gaussian perturbation.

Each step estimates a gradient ``g`` (minibatch of sampled gradients, or the
Gaussian-smoothing zeroth-order estimator at the config's radius ``nu``),
draws ``theta ~ N(0, r^2 I)``, and updates ``x <- x - eta (g + theta)``,
clamped to the problem's declared ball so the box-restricted Lipschitz
constants stay valid.

The theta of step t is ``r * standard_normals(s_t, d)``, with ``s_t`` the
state of the step stream's ``child("theta")``; ``psgd_step`` draws the rows
of a block's ``_THETA_CHUNK`` steps of all its runs in one call, with the
same bits as one call a step and run.

``run_steps`` is the one run loop, of PSGD and of cubic Newton: it advances
the runs of a group in lockstep, each under its own config, and a single
seed is the group of one.  Both steps, ``psgd_step`` and
``scrn._estimate_step``, take ``(p, x, layout, i)``: the group's (k, d)
iterates, the ``StepLayout`` of a block of steps and the step's row of
its states.  They return ``(x_new, outcomes)``, one outcome per row, and
the loop charges each row its config's oracle calls.

The schedule constructors translate the convergence-theorem parameter
displays into runnable configurations.  The analysis leaves its absolute
constants uninstantiated, so they are exposed here as tunables (all default
1); the benchmark protocol tunes them once on the coarsest accuracy and then
freezes them (see ``harness``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from . import diagnostics
from .config import as_count, check_finite
from .diagnostics import RunTrace, TraceRow, certify
from .errors import ConfigurationError, NumericalError, ScheduleError
from .estimators import NU_FLOOR, fo_gradient, zo_gradient
from .problems import ProblemMetadata, StochasticProblem, as_point, clamp_to_box
from .seeds import SeedStream, fold_int_states, fold_label_states, standard_normals

FIRST_ORDER = "first_order"
ZEROTH_ORDER = "zeroth_order"


@dataclass(frozen=True)
class ScheduleConstants:
    """Tunable absolute constants of the convergence-theorem schedules.

    ``a0`` scales the inverse step size and ``a1`` the iteration budget of
    the first-order schedule; ``c`` scales gradient batch sizes;
    ``kappa[0..9]`` are the zeroth-order schedule constants; ``delta`` is the
    failure probability; ``epsilon`` the target accuracy.
    """

    epsilon: float
    delta: float = 0.1
    a0: float = 1.0
    a1: float = 1.0
    c: float = 1.0
    kappa: tuple = (1.0,) * 10

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")
        check_finite({"a0": self.a0, "a1": self.a1, "c": self.c,
                      **{f"kappa[{i}]": k for i, k in enumerate(self.kappa)}})
        if self.a0 <= 0 or self.a1 <= 0 or self.c <= 0:
            raise ConfigurationError("a0, a1, c must be positive")
        if len(self.kappa) != 10 or any(k <= 0 for k in self.kappa):
            raise ConfigurationError("kappa must hold 10 positive constants")


@dataclass(frozen=True)
class PsgdConfig:
    """Runnable step-size/perturbation/batch/budget configuration.

    ``epsilon`` is the certification target recorded with the trace; it is
    filled in by the schedule constructors.  ``T = 0`` is allowed and runs
    only the initial certification.  ``nu`` is the zeroth-order smoothing radius.
    """

    eta: float
    r: float
    n1: int
    T: int
    box_radius: float
    epsilon: float
    mode: str = FIRST_ORDER
    nu: Optional[float] = None
    algorithm = "psgd"  # unannotated: a class attribute, not a field

    def __post_init__(self):
        check_finite({"eta": self.eta, "r": self.r, "epsilon": self.epsilon, "nu": self.nu})
        if self.eta <= 0:
            raise ConfigurationError(f"eta must be positive, got {self.eta}")
        if self.r < 0:
            raise ConfigurationError(f"perturbation scale r must be >= 0, got {self.r}")
        for name in ("n1", "T"):  # a fractional count would be charged but not drawn
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.n1 < 1 or self.T < 0:
            raise ConfigurationError("need n1 >= 1 and T >= 0")
        _check_box(self.box_radius)
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.mode not in (FIRST_ORDER, ZEROTH_ORDER):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if (self.nu is not None) != (self.mode == ZEROTH_ORDER):
            raise ConfigurationError("nu must be set iff mode is zeroth_order")

    @property
    def calls_per_step(self) -> int:
        """Oracle calls of one step: n1 sampled gradients, or 2 n1 values."""
        return 2 * self.n1 if self.mode == ZEROTH_ORDER else self.n1


def _check_box(radius) -> None:
    """A run's clamp radius: positive, or inf for a run that is never clamped."""
    if not radius > 0:  # NaN fails the comparison
        raise ConfigurationError(f"box_radius must be positive or inf, got {radius}")


_THETA_CHUNK = 64  # steps of one step-stream fold and one theta draw; no value depends on it


def _fold_steps(run_states: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The (stop - start, k) states of the step streams ``child(t)``, for t =
    start .. stop - 1, of the k runs whose ``child("step")`` states are
    ``run_states``: one ``fold_int_states`` call for a chunk of steps."""
    return fold_int_states(run_states, np.arange(start, stop)[:, None])


def draw_perturbation(step_states, dim: int, r) -> np.ndarray:
    """(len(step_states), dim) isotropic N(0, r^2 I) perturbations.

    Row i belongs to the step whose stream state is ``step_states[i]``: it is
    ``r`` (or ``r[i]``, for one radius per row) times the standard normals
    of that stream's ``child("theta")``, so it does not depend on the other
    rows drawn with it.  A row of radius 0 is +0.0.
    """
    states = np.asarray(step_states, dtype=np.uint64)
    r = np.broadcast_to(np.asarray(r, dtype=np.float64), states.shape)
    theta = np.zeros((len(states), dim))
    live = r != 0.0
    if live.any():
        normals = standard_normals(fold_label_states(states[live], "theta"), dim)
        normals *= r[live, None]
        theta[live] = normals
    return theta


class StepLayout:
    """A block of steps of k rows: the rows' configs as per-row columns and
    the block's step-stream states, built once per block by ``run_steps``
    rather than once per step.

    ``cfgs`` holds each row's config and ``calls`` its oracle calls per
    step.  The rows of the sampled-oracle (first- and second-order) modes
    are ``sampled``, a slice of all rows when every row is one, with their
    batch sizes ``n1`` and, for cubic Newton, ``n2``: their estimators make
    one packed call for all of them.  ``zo_groups`` lists each zeroth-order
    config with its rows, for the zeroth-order estimators, which take one
    config's rows per call.  ``eta`` (a (k, 1) column) and ``r`` are PSGD's
    step sizes and perturbation radii, ``box`` every row's clamp radius.
    ``states`` is the (n, k) states of the rows' step streams for the n
    steps of the block, and ``theta`` PSGD's (n, k, d) perturbations once
    its step has drawn them.
    """

    def __init__(self, cfgs: list, states: np.ndarray):
        self.cfgs, self.states, self.theta = cfgs, states, None
        self.calls = [c.calls_per_step for c in cfgs]
        self.box = [c.box_radius for c in cfgs]
        sampled = [j for j, c in enumerate(cfgs) if c.mode != ZEROTH_ORDER]
        self.sampled = (slice(None) if len(sampled) == len(cfgs)
                        else np.array(sampled, dtype=np.intp))
        self.n1 = tuple(cfgs[j].n1 for j in sampled)
        self.n2 = tuple(cfgs[j].n2 for j in sampled) if hasattr(cfgs[0], "n2") else ()
        zo: dict = {}
        for j, c in enumerate(cfgs):
            if c.mode == ZEROTH_ORDER:
                zo.setdefault(c, []).append(j)
        self.zo_groups = [(c, slice(None) if len(js) == len(cfgs) else np.array(js))
                          for c, js in zo.items()]
        if hasattr(cfgs[0], "eta"):
            self.eta = np.array([[c.eta] for c in cfgs])
            self.r = np.array([c.r for c in cfgs])

    def narrow(self, keep: list) -> "StepLayout":
        """The layout of the rows at positions ``keep``, in order, with their
        columns of the block's states and of its drawn perturbations."""
        out = StepLayout([self.cfgs[j] for j in keep], self.states[:, keep])
        out.theta = None if self.theta is None else self.theta[:, keep]
        return out


def _check_rows(x_new: np.ndarray, message: str, outcomes: list) -> list:
    """``outcomes``, with ``NumericalError(message)`` set for each row j of
    the (k, d) ``x_new`` with a non-finite entry, unless the row has failed
    already."""
    if not np.isfinite(x_new).all():
        for j in np.flatnonzero(~np.isfinite(x_new).all(axis=-1)).tolist():
            if not isinstance(outcomes[j], NumericalError):
                outcomes[j] = NumericalError(message)
    return outcomes


def psgd_step(p: StochasticProblem, x: np.ndarray, layout: StepLayout, i: int):
    """Step i of the block ``layout`` for its k rows at the (k, d) iterates
    ``x`` (see ``run_steps``); returns (x_new, outcomes).

    The first-order rows make one ``fo_gradient`` call, each row with its
    own batch size (see ``estimators``), and the zeroth-order rows one
    ``zo_gradient`` call per distinct config.  The block's first step draws
    the perturbations of all its steps and rows with one
    ``draw_perturbation`` call, into ``layout.theta``.  The update and the
    finite check run once for all rows, then each finite row gets its own
    clamp to the box.  Every row is the one its run alone gives.
    ``outcomes[j]`` is None, or the ``NumericalError`` of row j's
    non-finite update, which is not clamped.
    """
    stream = SeedStream.block(layout.states[i])
    if isinstance(layout.sampled, slice):  # every row samples: no scatter
        g = fo_gradient(p, x, layout.n1, stream).g
    else:
        g = np.empty_like(x)
        if layout.n1:
            rows = layout.sampled
            g[rows] = fo_gradient(p, x[rows], layout.n1, SeedStream.block(stream.state[rows])).g
        for c, rows in layout.zo_groups:
            g[rows] = zo_gradient(p, x[rows], c.nu, c.n1, SeedStream.block(stream.state[rows])).g
    if layout.theta is None:  # one draw per block of steps, for all its rows
        n, k = layout.states.shape
        layout.theta = draw_perturbation(layout.states.reshape(-1), p.meta.dim,
                                         np.tile(layout.r, n)).reshape(n, k, -1)
    x_new = x - layout.eta * (g + layout.theta[i])
    outcomes = _check_rows(x_new, "update produced non-finite entries", [None] * len(x_new))
    for row, box, outcome in zip(x_new, layout.box, outcomes):
        # one clamp per finite row: the benchmark's tracer counts them
        if outcome is None:
            clamped = clamp_to_box(row, box)
            if clamped is not row:
                row[...] = clamped
    return x_new, outcomes


def _per_seed(run: Callable, x0, cfg, seed, cls: type):
    """``run(x0s, cfgs, seeds)`` on one seed or on a sequence of seeds, with
    configs of class ``cls``.

    For one seed, ``x0`` is its start point, ``cfg`` its config and the
    result its RunTrace; the NumericalError that ended the run is raised.
    For a sequence of S >= 1 seeds, ``x0`` holds their S start points,
    ``cfg`` is one config for all of them or a sequence of S configs, one
    per seed, and the result is the list of outcomes of ``run_steps``.
    """
    many = bool(np.ndim(seed))
    seeds = [int(s) for s in seed] if many else [int(seed)]
    cfgs = list(cfg) if many and isinstance(cfg, Sequence) else [cfg] * len(seeds)
    for c in cfgs:
        if not isinstance(c, cls):
            raise ConfigurationError(
                f"run_{cls.algorithm} takes {cls.__name__}, got {type(c).__name__}")
    if many:
        if not seeds or len(x0) != len(seeds) or len(cfgs) != len(seeds):
            raise ConfigurationError(
                f"need at least one seed, and one start point and one config per seed; got "
                f"{len(x0)} start points and {len(cfgs)} configs for {len(seeds)} seeds")
        return run(x0, cfgs, seeds)
    (outcome,) = run([x0], cfgs, seeds)
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


def run_psgd(
    p: StochasticProblem,
    x0,
    cfg: PsgdConfig,
    certify_every: int = 1,
    seed=0,
    stop_after_certified: bool = False,
):
    """Run T perturbed steps with certification rows (see ``run_steps``).

    ``seed`` is one run seed, or a sequence of seeds run in lockstep with
    their start points ``x0`` and one config ``cfg`` for all, or one per
    seed (see ``_per_seed``).
    """
    def run(x0s, cfgs, seeds):
        return run_steps(p, x0s, cfgs, psgd_step, seeds, certify_every=certify_every,
                         stop_after_certified=stop_after_certified)

    return _per_seed(run, x0, cfg, seed, PsgdConfig)


def _config_echo(cfg) -> str:
    """``key = value`` lines of a run config: algorithm, mode, then the other
    fields in declaration order, floats by repr, and nu only when set."""
    values = {"algorithm": cfg.algorithm, "mode": cfg.mode}
    values.update((f.name, getattr(cfg, f.name)) for f in fields(cfg))
    return "\n".join(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in values.items() if value is not None)


# lives here, with run_steps, rather than in diagnostics: the benchmark's
# tracer patches certify in psgd, scrn and harness, not in diagnostics
def _certify_points(p: StochasticProblem, xs: np.ndarray, epsilons: Sequence[float]) -> list:
    """One outcome per row of the (k, d) points ``xs``: its SospCertificate
    against its own entry of ``epsilons``, or the NumericalError that its own
    ``certify`` call raises.

    One call of each exact oracle and of ``min_eigenvalue`` (looked up in
    ``diagnostics`` at call time, where the benchmark's tracer times it)
    serve all rows, and one ``vecdot`` takes every row's gradient norm,
    each equal to the row's own ``math.sqrt(g @ g)`` bit for bit.  A row
    with a non-finite gradient entry gets a NaN norm, which its ``certify``
    call rejects; a finite row whose square overflows keeps its infinite
    norm and is not certified.  Each row then gets its certificate from its
    own ``certify`` call on these floats, which the tracer counts.  If the
    stacked pass fails, each row is certified on its own, so a failure ends
    only its row's run.
    """
    try:
        grads = p.exact_grad(xs)
        lams = diagnostics.min_eigenvalue(p.exact_hess(xs))[0].tolist()
    except NumericalError:
        squares = lams = [None] * len(xs)  # certify calls the exact oracles itself
    else:
        squares = np.vecdot(grads, grads).tolist()
        if not math.isfinite(sum(squares)):  # a non-finite entry, or an overflow
            finite = np.isfinite(grads).all(axis=-1).tolist()
            squares = [s if ok else math.nan for s, ok in zip(squares, finite)]
    outcomes = []
    for x, epsilon, square, lam in zip(xs, epsilons, squares, lams):
        try:
            outcomes.append(certify(p, x, epsilon, lambda_min=lam,
                                    grad_norm=None if square is None else math.sqrt(square)))
        except NumericalError as err:  # a non-finite gradient, or a row's own failed pass
            outcomes.append(err)
    return outcomes


def run_steps(
    p: StochasticProblem,
    x0s,
    cfgs: Sequence,
    step: Callable,
    seeds: Sequence[int],
    certify_every: int = 1,
    stop_after_certified: bool = False,
    r_indices: Optional[Sequence[int]] = None,
) -> list:
    """The run loop of PSGD and cubic Newton: S runs in lockstep, each of its
    own config's T steps, with certification rows.

    Run i starts at ``x0s[i]`` with config ``cfgs[i]`` and the run stream of
    ``seeds[i]``; the configs are of one class, so the runs share one
    algorithm.  At t = 1, 2, ... the loop calls ``step(p, x, layout, i)``
    once for all the runs still active, whatever their configs.  ``x`` is
    their (k, d) iterates, a finite float64 stack: its rows come from
    ``as_point``, and a failed row leaves the group.  ``layout`` is the
    ``StepLayout`` of a block of ``_THETA_CHUNK`` steps, whose step t is
    row ``i`` of ``layout.states``; when runs leave mid-block the loop
    narrows it to the remaining runs' columns, keeping what the step drew
    for the block.  The step samples, estimates and updates all k runs and
    returns ``(x_new, outcomes)``, one outcome per row: None, the row's
    ``CubicSolution``, whose radius and model decrease its trace rows
    record, or the ``NumericalError`` that ends its run.  The loop charges
    row j ``layout.calls[j]`` oracle calls.

    Rows are certified on exact oracles, never charged to the budget, at
    t = 0, every ``certify_every`` steps and at the run's own T, against the
    run's own epsilon.  All runs due at a step are certified together
    (``_certify_points``), whatever their configs: the exact oracles take
    their (k, d) stack of iterates, ``min_eigenvalue`` the (k, d, d)
    Hessians and one ``vecdot`` the gradients, once per step, and each
    trace row is built from these float columns.  The per-row ``certify``
    call, which scores a row's two floats, stays one call per run, like the
    cubic solve and the clamp to the box: the benchmark's tracer counts
    those calls by patching them, so they stay per run until the program
    counts them itself.
    ``stop_after_certified`` ends a run at its first certified row (a pure
    function of its trajectory, so traces stay byte-reproducible);
    ``r_indices[i]`` keeps that step's iterate and budget of run i, and the
    iterates of all finished runs are certified together at the end.  A run
    that ends, stops or fails leaves the active set and draws no more
    samples.

    Returns one outcome per run, in order: its RunTrace, or the
    NumericalError that ended it, carrying the step index and the partial
    trace, whose ``total_oracle_calls`` counts the samples drawn.  Each
    outcome is the one a group of that run alone gives.
    """
    certify_every = as_count(certify_every, "certify_every")
    if certify_every < 1:
        raise ConfigurationError(f"certify_every must be >= 1, got {certify_every}")
    x = np.stack([as_point(x0, p.meta.dim) for x0 in x0s])
    echoes = {cfg: _config_echo(cfg) for cfg in cfgs}
    traces = [RunTrace(seed=seed, algorithm=cfg.algorithm, config_echo=echoes[cfg])
              for seed, cfg in zip(seeds, cfgs)]
    outcomes: list = list(traces)
    calls = [0] * len(traces)
    ends = [cfg.T for cfg in cfgs]
    at_r: list = [None] * len(traces)
    step_states = SeedStream(seeds, cfgs[0].algorithm, "step").state

    def fail(i: int, t: int, err: NumericalError, charged: int) -> None:
        err.iterate, err.trace = t, traces[i]
        traces[i].total_oracle_calls = charged
        outcomes[i] = err

    def record(runs: list, t: int, sols: dict) -> set:
        """Certify row t of ``runs``, whose steps gave ``sols`` (by run);
        returns the runs that leave the group: those whose certification
        fails and, with ``stop_after_certified``, those certified."""
        left: set = set()
        if not runs:
            return left
        xs = x[runs]
        values = p.exact_value(xs)
        certs = _certify_points(p, xs, [cfgs[i].epsilon for i in runs])
        for i, f, cert in zip(runs, values.tolist(), certs):
            if isinstance(cert, NumericalError):
                fail(i, t, cert, calls[i])
                left.add(i)
                continue
            sol = sols.get(i)
            traces[i].append(TraceRow(
                t, f, cert.grad_norm, cert.lambda_min, calls[i], cert.certified,
                *((None, None) if sol is None else (sol.radius, sol.model_decrease)),
            ))
            if stop_after_certified and cert.certified:
                left.add(i)
        return left

    left = record(list(range(len(traces))), 0, {})
    active = [i for i in range(len(traces)) if i not in left and ends[i] > 0]
    block = None  # (its runs, their rows, its first step, its layout)
    for t in range(1, max(ends) + 1):
        if not active:
            break
        if block is None or t >= block[2] + len(block[3].states):
            rows = np.array(active)
            block = active, rows, t, StepLayout([cfgs[i] for i in active], _fold_steps(
                step_states[rows], t, min(t + _THETA_CHUNK, max(ends[i] for i in active) + 1)))
        elif block[0] != active:  # the active set only shrinks: narrow the block to it
            position = {i: j for j, i in enumerate(block[0])}
            block = active, np.array(active), block[2], block[3].narrow(
                [position[i] for i in active])
        _, rows, start, layout = block
        x[rows], step_outcomes = step(p, x[rows], layout, t - start)
        stepped: dict = {}  # run -> the outcome of its step t
        for i, run_calls, outcome in zip(active, layout.calls, step_outcomes):
            if isinstance(outcome, NumericalError):
                fail(i, t, outcome, calls[i] + run_calls)
                continue
            calls[i] += run_calls
            if r_indices is not None and t == r_indices[i]:
                at_r[i] = (x[i].copy(), calls[i])
            stepped[i] = outcome
        due = list(stepped) if t % certify_every == 0 else [i for i in stepped if ends[i] == t]
        left = record(due, t, stepped)
        active = [i for i in stepped if i not in left and ends[i] > t]
    finished = [i for i, trace in enumerate(traces) if outcomes[i] is trace]
    for i in finished:
        traces[i].total_oracle_calls = calls[i]
    if r_indices is not None and finished:
        certs = _certify_points(p, np.stack([at_r[i][0] for i in finished]),
                                [cfgs[i].epsilon for i in finished])
        for i, cert in zip(finished, certs):
            trace = traces[i]
            trace.r_index, trace.r_oracle_calls = r_indices[i], at_r[i][1]
            if isinstance(cert, NumericalError):
                fail(i, trace.r_index, cert, calls[i])
            else:
                trace.r_certificate = cert
    return outcomes


def _epsilon_logs(consts: ScheduleConstants, f0_gap: float) -> tuple:
    """The schedules' epsilon logs, log(1/eps) and log(gap/(delta eps)), if positive."""
    eps = consts.epsilon
    if not 0.0 < eps < 1.0 / math.e:
        raise ScheduleError(
            f"schedule undefined for epsilon={eps}; need epsilon in (0, 1/e) "
            "so its log factors are positive"
        )
    if f0_gap <= 0:
        raise ScheduleError(f"initial gap must be positive, got {f0_gap}")
    ratio = f0_gap / (consts.delta * eps)
    if ratio <= 1.0:
        raise ScheduleError(
            f"gap/(delta*epsilon) = {ratio} <= 1; the step-size log is nonpositive"
        )
    return math.log(1.0 / eps), math.log(ratio)


def _require_rho(meta: ProblemMetadata) -> float:
    if meta.rho_true is None:
        raise ScheduleError(
            "the schedule needs the growth constant rho_true; estimate it first "
            "(estimate_sgc_rho) or construct the problem with a known rho"
        )
    return meta.rho_true


def schedule_first_order(
    consts: ScheduleConstants,
    meta: ProblemMetadata,
    f0_gap: float,
    sgc: bool = True,
) -> PsgdConfig:
    """First-order schedule: eta, r, n1, T from the convergence theorem.

    Under strong growth the batch size is ``512 c (rho-1) log(1/eps)``
    (floored at 1, so the deterministic arm rho = 1 needs no averaging).
    With ``sgc=False`` the bounded-variance arm is scheduled instead: the
    per-step batch grows to ``512 c sigma^2 log(1/eps) / eps^2`` so the
    constant-variance noise is averaged down to the gradient scale -- the
    classical rate without interpolation.

    The step size is additionally capped at ``1/L_G`` (the descent argument
    assumes it implicitly).
    """
    return _first_order(consts, meta, f0_gap, sgc, *_epsilon_logs(consts, f0_gap))


def _first_order(consts, meta, f0_gap, sgc, loge, gap_log) -> PsgdConfig:
    eps = consts.epsilon
    eta = min(loge**-2 / (consts.a0 * gap_log), 1.0 / meta.L_G)
    r = eps**1.5 * loge**-3
    if sgc:
        rho = _require_rho(meta)
        n1 = max(1, math.ceil(512.0 * consts.c * (rho - 1.0) * loge))
    else:
        sigma = meta.noise_sigma
        n1 = max(1, math.ceil(512.0 * consts.c * sigma * sigma * loge / eps**2))
    escape_len = 0.5 * loge**3 / math.sqrt(eps)
    escape_drop = eps**1.5 / loge**7
    T = max(1, math.ceil(consts.a1 * max(f0_gap * escape_len / escape_drop, f0_gap / (eta * eps**2))))
    return PsgdConfig(
        eta=eta,
        r=r,
        n1=n1,
        T=T,
        box_radius=meta.box_radius,
        epsilon=eps,
        mode=FIRST_ORDER,
    )


def schedule_zeroth_order(
    consts: ScheduleConstants,
    meta: ProblemMetadata,
    f0_gap: float,
    sgc: bool = True,
) -> PsgdConfig:
    """Zeroth-order schedule; ``sgc=False`` selects the bounded-variance arm.

    The batch sizes differ by a factor ``(sigma / sqrt(rho-1)) / eps``: the
    strong-growth arm needs ``~ d^1.5 sqrt(rho-1) / eps^2.5`` directions per
    step versus ``~ d^1.5 sigma / eps^3.5`` without it.
    """
    return _zeroth_order(consts, meta, f0_gap, sgc, *_epsilon_logs(consts, f0_gap))


def _zeroth_order(consts, meta, f0_gap, sgc, loge, gap_log) -> PsgdConfig:
    eps = consts.epsilon
    k = consts.kappa
    d = meta.dim
    eta = min(k[0] / gap_log, 1.0 / meta.L_G)
    r = k[1] * eps
    nu = max(k[4] * eps / (d * loge), NU_FLOOR)
    if sgc:
        rho = _require_rho(meta)
        n1 = max(1, math.ceil(k[5] * loge**5 * d**1.5 * math.sqrt(rho - 1.0) / eps**2.5))
    else:
        n1 = max(1, math.ceil(k[5] * loge**5 * d**1.5 * meta.noise_sigma / eps**3.5))
    escape_len = k[3] * loge**2 * math.log(d) ** 2 / math.sqrt(eps)
    escape_drop = k[8] * eps**1.5
    T = max(1, math.ceil(k[9] * max(f0_gap * escape_len / escape_drop, f0_gap / (eta * eps**2))))
    return PsgdConfig(
        eta=eta,
        r=r,
        n1=n1,
        T=T,
        box_radius=meta.box_radius,
        epsilon=eps,
        mode=ZEROTH_ORDER,
        nu=nu,
    )
