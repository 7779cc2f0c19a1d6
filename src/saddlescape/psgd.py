"""Perturbed stochastic gradient descent with isotropic Gaussian perturbation.

Each step estimates a gradient ``g`` (minibatch of sampled gradients, or the
Gaussian-smoothing zeroth-order estimator at the config's radius ``nu``),
draws ``theta ~ N(0, r^2 I)``, and updates ``x <- x - eta (g + theta)``,
clamped to the problem's declared ball so the box-restricted Lipschitz
constants stay valid.

The theta of step t is ``r * standard_normals(s_t, d)``, with ``s_t`` the
state of the step stream's ``child("theta")``; ``run_psgd`` draws the rows
of ``_THETA_CHUNK`` steps per call, with the same bits as one call a step.

The schedule constructors translate the convergence-theorem parameter
displays into runnable configurations.  The analysis leaves its absolute
constants uninstantiated, so they are exposed here as tunables (all default
1); the benchmark protocol tunes them once on the coarsest accuracy and then
freezes them (see ``harness``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

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
        if self.eta <= 0:
            raise ConfigurationError(f"eta must be positive, got {self.eta}")
        if self.r < 0:
            raise ConfigurationError(f"perturbation scale r must be >= 0, got {self.r}")
        if self.n1 < 1 or self.T < 0:
            raise ConfigurationError("need n1 >= 1 and T >= 0")
        if self.box_radius <= 0 or self.epsilon <= 0:
            raise ConfigurationError("box_radius and epsilon must be positive")
        if self.mode not in (FIRST_ORDER, ZEROTH_ORDER):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if (self.nu is not None) != (self.mode == ZEROTH_ORDER):
            raise ConfigurationError("nu must be set iff mode is zeroth_order")


_THETA_CHUNK = 64  # steps whose theta rows run_psgd draws in one call; no value depends on it


def draw_perturbation(step_states, dim: int, r: float) -> np.ndarray:
    """(len(step_states), dim) isotropic N(0, r^2 I) perturbations.

    Row i belongs to the step whose stream state is ``step_states[i]``: it is
    ``r`` times the standard normals of that stream's ``child("theta")``, so
    it does not depend on the other rows drawn with it.
    """
    states = np.asarray(step_states, dtype=np.uint64)
    if r == 0.0:
        return np.zeros((len(states), dim))
    theta = standard_normals(fold_label_states(states, "theta"), dim)
    theta *= r
    return theta


def _perturbations(stream: SeedStream, dim: int, r: float, T: int):
    """The theta rows of steps 1..T of the run stream ``stream``, in order,
    drawn ``_THETA_CHUNK`` steps at a time."""
    step_state = stream.child("step").state
    for start in range(1, T + 1, _THETA_CHUNK):
        ks = np.arange(start, min(start + _THETA_CHUNK, T + 1))
        # a module-level name the benchmark's tracer patches to time the draws
        yield from draw_perturbation(fold_int_states(step_state, ks), dim, r)


def psgd_step(
    p: StochasticProblem,
    x: np.ndarray,
    cfg: PsgdConfig,
    stream: SeedStream,
    theta: Optional[np.ndarray] = None,
):
    """One perturbed gradient step; returns (new point, oracle calls).

    ``theta`` is the step's perturbation when the caller has drawn it; by
    default the step draws it from ``stream``, the same row.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NumericalError("iterate has non-finite entries")
    if cfg.mode == ZEROTH_ORDER:
        est = zo_gradient(p, x, cfg.nu, cfg.n1, stream)
    else:
        est = fo_gradient(p, x, cfg.n1, stream)
    if theta is None:
        theta = draw_perturbation([stream.state], p.meta.dim, cfg.r)[0]
    x_new = clamp_to_box(x - cfg.eta * (est.g + theta), cfg.box_radius)
    if not np.isfinite(x_new).all():
        raise NumericalError("update produced non-finite entries")
    return x_new, est.oracle_calls


def run_psgd(
    p: StochasticProblem,
    x0,
    cfg: PsgdConfig,
    certify_every: int = 1,
    seed: int = 0,
    stop_after_certified: bool = False,
) -> RunTrace:
    """Run T perturbed steps with certification rows (see ``run_steps``)."""
    thetas = _perturbations(SeedStream(seed, cfg.algorithm), p.meta.dim, cfg.r, cfg.T)
    return run_steps(
        p, x0, cfg, lambda x, stream: (*psgd_step(p, x, cfg, stream, next(thetas)), None),
        certify_every=certify_every, seed=seed, stop_after_certified=stop_after_certified,
    )


def _config_echo(cfg) -> str:
    """``key = value`` lines of a run config: algorithm, mode, then the other
    fields in declaration order, floats by repr, and nu only when set."""
    values = {"algorithm": cfg.algorithm, "mode": cfg.mode}
    values.update((f.name, getattr(cfg, f.name)) for f in fields(cfg))
    return "\n".join(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                     for key, value in values.items() if value is not None)


# lives here rather than in diagnostics: the benchmark's tracer patches
# certify in psgd, scrn and harness, not in diagnostics
def run_steps(
    p: StochasticProblem,
    x0,
    cfg,
    step: Callable,
    certify_every: int = 1,
    seed: int = 0,
    stop_after_certified: bool = False,
    r_index: Optional[int] = None,
) -> RunTrace:
    """The run loop of PSGD and cubic Newton: T steps with certification rows.

    ``step(x, stream)`` is called once per step, for t = 1, 2, ... in order,
    with the step stream ``child("step", t)`` of the run stream.  It returns
    ``(x_new, oracle_calls, sol)``, with ``sol`` the cubic step's
    ``CubicSolution``, whose radius and model decrease the rows record, or
    None.  Rows are certified on exact oracles, never charged to the budget,
    at t = 0, every ``certify_every`` steps and at step T.
    ``stop_after_certified`` ends the run at its first certified row (a pure
    function of the trajectory, so traces stay byte-reproducible); ``r_index``
    keeps that step's iterate and budget and certifies the iterate at the end.
    A ``NumericalError`` carries the step index and the partial trace.
    """
    if certify_every < 1:
        raise ConfigurationError(f"certify_every must be >= 1, got {certify_every}")
    x = as_point(x0, p.meta.dim)
    stream = SeedStream(seed, cfg.algorithm)
    trace = RunTrace(seed=seed, algorithm=cfg.algorithm, config_echo=_config_echo(cfg))

    def record(t: int, calls: int, sol) -> bool:
        cert = certify(p, x, cfg.epsilon)
        trace.append(TraceRow(
            t, p.exact_value(x), cert.grad_norm, cert.lambda_min, calls, cert.certified,
            *((None, None) if sol is None else (sol.radius, sol.model_decrease)),
        ))
        return stop_after_certified and cert.certified

    calls = 0
    done = record(0, calls, None)
    x_at_r = calls_at_r = None
    for t in range(1, cfg.T + 1):
        if done:
            break
        try:
            x, step_calls, sol = step(x, stream.child("step", t))
        except NumericalError as err:
            err.iterate = t
            err.trace = trace
            raise
        calls += step_calls
        if t == r_index:
            x_at_r, calls_at_r = x.copy(), calls
        if t % certify_every == 0 or t == cfg.T:
            done = record(t, calls, sol)
    trace.total_oracle_calls = calls
    if r_index is not None:
        trace.r_index, trace.r_oracle_calls = r_index, calls_at_r
        trace.r_certificate = certify(p, x_at_r, cfg.epsilon)
    return trace


def _check_epsilon_small(epsilon: float) -> float:
    if not 0.0 < epsilon < 1.0 / math.e:
        raise ScheduleError(
            f"schedule undefined for epsilon={epsilon}; need epsilon in (0, 1/e) "
            "so its log factors are positive"
        )
    return math.log(1.0 / epsilon)


def _gap_log(f0_gap: float, delta: float, epsilon: float) -> float:
    if f0_gap <= 0:
        raise ScheduleError(f"initial gap must be positive, got {f0_gap}")
    ratio = f0_gap / (delta * epsilon)
    if ratio <= 1.0:
        raise ScheduleError(
            f"gap/(delta*epsilon) = {ratio} <= 1; the step-size log is nonpositive"
        )
    return math.log(ratio)


def _require_rho(meta: ProblemMetadata) -> float:
    if meta.rho_true is None:
        raise ScheduleError(
            "strong-growth schedule needs meta.rho_true; estimate it first "
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
    eps = consts.epsilon
    loge = _check_epsilon_small(eps)
    gap_log = _gap_log(f0_gap, consts.delta, eps)
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
    eps = consts.epsilon
    loge = _check_epsilon_small(eps)
    gap_log = _gap_log(f0_gap, consts.delta, eps)
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
