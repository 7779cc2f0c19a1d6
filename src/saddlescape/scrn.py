"""Stochastic cubic-regularized Newton with an exact subproblem solver.

Each iteration builds gradient/Hessian estimates (sampled, or zeroth-order
at the config's radius ``nu``), minimizes the cubic model

    m(h) = g'h + 0.5 h'Hh + (M/6) ||h||^3

exactly, and steps to ``x + h*``.  The global minimizer is characterized by

    g + H h* + (M/2) ||h*|| h* = 0        (stationarity)
    H + (M/2) ||h*|| I  is PSD            (second-order condition)

so after a symmetric eigendecomposition ``H = Q diag(w) Q'`` the problem
reduces to one scalar root find: with ``b = Q'g`` and step radius ``s``,

    psi(s) = || b / (w + (M/2) s) ||

is strictly decreasing in ``s``, and the radius solves ``psi(s) = s`` on
``s >= s_min = max(0, -2 w_min / M)``.  When ``g`` has no component on the
minimum eigenspace and ``psi(s_min) < s_min`` (the hard case), the step is
completed with an explicit minimum-eigenvector component of the norm that
lands ``||h*||`` exactly on ``s_min``.

The root is found by Newton on the secular equation, safeguarded by Brent
to a relative tolerance of 4 machine epsilons (``_secular_root``).  The
safeguard is the only user of ``scipy.optimize``, so the module imports it
only when the safeguard runs (``brentq``).

Solving exactly (rather than with an iterative subsolver) is the right
trade at desk scale: the eigendecomposition is cheap for the dimensions we
run, and exactness is what makes the optimality conditions testable
invariants.  Every solve validates all three conditions before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# certify is unused here, but the benchmark's tracer patches it in this module
from .diagnostics import certify  # noqa: F401
from .errors import ConfigurationError, NumericalError, ScheduleError
from .estimators import NU_FLOOR, fo_gradient, so_hessian, zo_gradient, zo_hessian
from .problems import ProblemMetadata, StochasticProblem, clamp_to_box
from .psgd import _check_rows, _per_seed, _require_rho, run_steps
from .seeds import SeedStream

HIGHER_ORDER = "higher_order"
ZEROTH_ORDER = "zeroth_order"

_STATIONARITY_TOL = 1e-8
_PSD_TOL = 1e-8
_DECREASE_TOL = 1e-8
# Newton on the secular equation takes a few steps, more (under 50) when the
# eigenvalues span many decades; a solve that reaches this cap finishes with
# Brent's method on the bracket
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class CubicModel:
    """(g, H, M) triple defining the local cubic model."""

    g: np.ndarray
    H: np.ndarray
    M: float

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        H = np.asarray(self.H, dtype=np.float64)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "H", H)
        if g.ndim != 1 or H.shape != (g.size, g.size):
            raise ConfigurationError(
                f"model shapes incompatible: g {g.shape}, H {H.shape}"
            )
        if not self.M > 0:
            raise ConfigurationError(f"cubic penalty M must be positive, got {self.M}")
        scale = max(1.0, float(np.abs(H).max()) if H.size else 1.0)
        # H - H.T is exactly antisymmetric, so its largest entry is its largest magnitude
        if np.isfinite(H).all() and float((H - H.T).max()) > 1e-10 * scale:
            raise ConfigurationError("model Hessian must be symmetric")

    def value(self, h: np.ndarray) -> float:
        """Model decrease m(x + h) - m(x) at displacement h."""
        h = np.asarray(h, dtype=np.float64)
        return float(
            self.g @ h + 0.5 * h @ self.H @ h + (self.M / 6.0) * math.sqrt(h @ h) ** 3
        )


@dataclass(frozen=True)
class CubicSolution:
    h_star: np.ndarray
    model_decrease: float
    radius: float
    multiplier: float
    hard_case: bool


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the first nonzero coordinate is positive (reproducible ties)."""
    for entry in v:
        if entry != 0.0:
            return v if entry > 0 else -v
    return v


def _psi(a: np.ndarray, b: np.ndarray, t: float) -> float:
    """``||b / (a + t)||`` for nonzero ``b``; inf on or past a pole."""
    den = a + t
    if not (den > 0.0).all():
        return math.inf
    q = b / den
    return math.sqrt(q @ q)


def _product_root(p: float, q: float, c: float) -> float:
    """Root ``t >= 0`` of ``(t + p)(t + q) = c`` for ``p, q >= 0``; 0 if ``pq >= c``."""
    return max(0.0, 2.0 * (c - p * q) / (p + q + math.sqrt((p - q) ** 2 + 4.0 * c)))


def brentq(f, a, b, **kwargs):
    """``scipy.optimize.brentq``, imported when the safeguard first runs.

    Importing ``scipy.optimize`` costs about half a second and 48 MB, and
    the Newton solve almost never needs it, so only the safeguard loads it.
    ``_secular_root`` looks this name up as a module global on each call.
    """
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(f, a, b, **kwargs)


def _secular_root(a: np.ndarray, b: np.ndarray, M: float, lam0: float) -> float:
    """Root ``t >= 0`` of the secular equation ``psi(t) = 2 (lam0 + t) / M``.

    The multiplier is ``lam0 + t`` and ``a = w + lam0 >= 0`` ascending, with
    ``w`` and ``b != 0`` the components the solve keeps; a pole at ``t = 0``
    has ``a = 0`` exactly, so near it the denominators carry no cancellation.
    Newton runs on ``phi(t) = 1/psi(t) - M / (2 (lam0 + t))``, which is
    concave and increasing (Moré & Sorensen 1983; Cartis, Gould & Toint
    2011), so from a start below the root every iterate is a lower bound and
    the iterates climb to the root quadratically; the loop stops when an
    iterate no longer increases.  Since ``||b|| / (a_max + t) <= psi(t) <=
    ||b|| / (a_min + t)``, the root of ``(a_max + t)(lam0 + t) = M ||b|| / 2``
    is a valid start, and twice the root with ``a_min`` lies above the root.
    A loop that reaches ``_NEWTON_MAX_ITER`` finishes with Brent's method on
    that bracket, to a relative error of 4 machine epsilons in ``t``: near a
    pole the root is ``t`` itself, so only a relative tolerance keeps the
    step's stationarity.
    """
    c = 0.5 * M * math.sqrt(b @ b)
    if c == 0.0:
        return 0.0
    t = _product_root(float(a[-1]), lam0, c)
    for _ in range(_NEWTON_MAX_ITER):
        den = a + t
        pole = den == 0.0
        if pole.any():
            # at a pole 1/psi vanishes, with slope 1 / ||b on the pole||
            b_pole = b[pole]
            inv_psi, slope = 0.0, 1.0 / math.sqrt(b_pole @ b_pole)
        else:
            q = b / den
            inv_psi = 1.0 / math.sqrt(q @ q)
            slope = float(q @ (q / den)) * inv_psi**3
        lam = lam0 + t
        t_next = t + (0.5 * M / lam - inv_psi) / (slope + 0.5 * M / (lam * lam))
        if not t_next > t:
            return t
        t = t_next

    def phi(u: float) -> float:
        return 1.0 / _psi(a, b, u) - 0.5 * M / (lam0 + u)

    if phi(t) >= 0.0:
        return t
    return float(
        brentq(
            phi,
            t,
            2.0 * _product_root(float(a[0]), lam0, c),
            xtol=np.finfo(float).tiny,
            rtol=4 * np.finfo(float).eps,
            maxiter=200,
        )
    )


def solve_cubic(model: CubicModel) -> CubicSolution:
    """Global minimizer of the cubic model.

    Eigendecomposition plus Newton on the secular equation ``psi(s) = s``,
    safeguarded by Brent: the Newton iterates climb monotonically to the
    root, and a loop that reaches its iteration cap finishes with a Brent
    root find on the bracket, to a relative tolerance of 4 machine epsilons.
    The hard case is detected from the gradient's component on the minimum
    eigenspace and resolved by adding a null-direction component of the
    prescribed norm, with a deterministic sign convention.

    Raises ``NumericalError`` for non-finite model entries or if the
    optimality conditions fail to hold at the computed step.
    """
    g, H, M = model.g, model.H, model.M
    if not (np.isfinite(g).all() and np.isfinite(H).all()):
        raise NumericalError("cubic model has non-finite entries")

    w, Q = np.linalg.eigh(H)
    if not np.isfinite(w).all():
        raise NumericalError("eigendecomposition produced non-finite eigenvalues")
    b = Q.T @ g
    w_min = float(w[0])
    # math.sqrt(v @ v) is np.linalg.norm(v) for a contiguous vector
    g_norm = math.sqrt(g @ g)
    H_norm = max(-w_min, float(w[-1]))  # ||H||_2 from the ends of the ascending spectrum
    eig_scale = max(1.0, H_norm)
    # eigenvalues below eigh's resolution are zero curvature, not an escape
    # direction: without this, exactly-singular PSD Hessians trigger
    # ulp-sized hard-case steps
    psd_at_tol = w_min >= -1e-13 * eig_scale
    s_min = 0.0 if psd_at_tol else -2.0 * w_min / M
    active = w <= w_min + 1e-12 * eig_scale
    b_min = b[active]
    b_active = math.sqrt(b_min @ b_min)
    hard_candidate = b_active <= 1e-11 * max(1.0, g_norm)
    # psi runs over the components the solve keeps: zero ones add nothing,
    # and a hard candidate's negligible minimum-eigenspace part is dropped
    keep = b != 0.0
    if hard_candidate:
        keep &= ~active
    w_keep, b_keep = w[keep], b[keep]
    # multipliers are measured from lam0, the larger of the multiplier at
    # s_min and the pole of the smallest kept eigenvalue
    lam0 = 0.0 if psd_at_tol else -w_min
    if w_keep.size:
        lam0 = max(lam0, -float(w_keep[0]))
    a = w_keep + lam0

    hard_case = False
    if g_norm == 0.0 and psd_at_tol:
        h = np.zeros_like(g)
    elif hard_candidate and not psd_at_tol and _psi(a, b_keep, 0.0) < s_min:
        # Hard case: no pole at s_min and the interior solution is too short;
        # pad with a minimum-eigenvector component to land exactly on s_min.
        hard_case = True
        den = w + 0.5 * M * s_min
        coeff = np.where(active, 0.0, b / np.where(active, 1.0, den))
        interior = math.sqrt(coeff @ coeff)
        alpha = math.sqrt(max(s_min * s_min - interior * interior, 0.0))
        h = -Q @ coeff + alpha * _canonical_sign(Q[:, 0])
    else:
        den = a + _secular_root(a, b_keep, M, lam0)
        coeff = np.zeros_like(b)
        coeff[keep] = b_keep / np.where(den > 0.0, den, np.inf)
        h = -Q @ coeff

    radius = math.sqrt(h @ h)
    sol = CubicSolution(
        h_star=h,
        model_decrease=model.value(h),
        radius=radius,
        multiplier=0.5 * M * radius,
        hard_case=hard_case,
    )
    _validate_solution(model, sol, g_norm, w_min, H_norm)
    return sol


def _validate_solution(
    model: CubicModel, sol: CubicSolution, g_norm: float, w_min: float, H_norm: float
) -> None:
    # fixed tolerances at moderate model scales; for very large-magnitude
    # models the floating-point floor (~eps times the terms combined) takes
    # over, since no float64 step can do better.  H_norm is ||H||_2, the
    # largest |eigenvalue| from the solve's eigh.
    h = sol.h_star
    eps = np.finfo(float).eps
    h_scale = H_norm * sol.radius
    r = model.g + model.H @ h + sol.multiplier * h
    resid = math.sqrt(r @ r)
    resid_tol = max(
        _STATIONARITY_TOL * max(1.0, g_norm),
        64.0 * eps * (g_norm + h_scale + sol.multiplier * sol.radius),
    )
    if resid > resid_tol:
        raise NumericalError(
            f"cubic step stationarity residual {resid:.3e} exceeds tolerance"
        )
    psd_tol = max(_PSD_TOL, 64.0 * eps * (abs(w_min) + sol.multiplier))
    if w_min + sol.multiplier < -psd_tol:
        raise NumericalError(
            f"cubic step violates the second-order condition by {w_min + sol.multiplier:.3e}"
        )
    bound = -(model.M / 12.0) * sol.radius**3
    decrease_tol = max(_DECREASE_TOL, 64.0 * eps * (abs(sol.model_decrease) + abs(bound) + h_scale * sol.radius))
    if sol.model_decrease > bound + decrease_tol:
        raise NumericalError(
            f"cubic model decrease {sol.model_decrease:.3e} misses the M/12 bound {bound:.3e}"
        )


@dataclass(frozen=True)
class ScrnConfig:
    """Cubic penalty, batch sizes, budget and, in zeroth-order mode, the
    smoothing radius ``nu`` of both estimators for a cubic-Newton run."""

    M: float
    n1: int
    n2: int
    T: int
    box_radius: float
    epsilon: float
    mode: str = HIGHER_ORDER
    nu: Optional[float] = None
    algorithm = "scrn"  # unannotated: a class attribute, not a field

    def __post_init__(self):
        if self.M <= 0:
            raise ConfigurationError(f"M must be positive, got {self.M}")
        if self.n1 < 1 or self.n2 < 1 or self.T < 1:
            raise ConfigurationError("need n1, n2, T >= 1")
        if self.box_radius <= 0 or self.epsilon <= 0:
            raise ConfigurationError("box_radius and epsilon must be positive")
        if self.mode not in (HIGHER_ORDER, ZEROTH_ORDER):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if (self.nu is not None) != (self.mode == ZEROTH_ORDER):
            raise ConfigurationError("nu must be set iff mode is zeroth_order")

    @property
    def calls_per_step(self) -> int:
        """Oracle calls of one step: n1 + n2 samples, or 2 n1 + 3 n2 values."""
        return 2 * self.n1 + 3 * self.n2 if self.mode == ZEROTH_ORDER else self.n1 + self.n2


def _estimate_step(p: StochasticProblem, x: np.ndarray, cfg: ScrnConfig, stream: SeedStream):
    """One cubic-Newton step of k runs; returns (x_new, oracle calls, outcomes).

    As in ``psgd_step``, ``x`` is the (k, d) iterates of the runs and
    ``stream`` the block of their step streams, whose estimates come from
    one oracle call per estimator.  ``outcomes[j]`` is row j's
    ``CubicSolution``, or the ``NumericalError`` its cubic solve raised or
    its non-finite step gave.  The cubic solve and the clamp stay one call
    per run.
    """
    x = np.asarray(x, dtype=np.float64)
    if cfg.mode == ZEROTH_ORDER:
        grad = zo_gradient(p, x, cfg.nu, cfg.n1, stream)
        hess = zo_hessian(p, x, cfg.nu, cfg.n2, stream)
    else:
        grad = fo_gradient(p, x, cfg.n1, stream)
        hess = so_hessian(p, x, cfg.n2, stream)
    x_new = np.empty_like(x)
    outcomes = []
    for j, (g, H) in enumerate(zip(grad.g, hess.H)):
        try:
            sol = solve_cubic(CubicModel(g=g, H=H, M=cfg.M))
        except NumericalError as err:
            sol, x_new[j] = err, np.nan
        else:
            x_new[j] = clamp_to_box(x[j] + sol.h_star, cfg.box_radius)
        outcomes.append(sol)
    return x_new, grad.oracle_calls + hess.oracle_calls, _check_rows(
        x_new, "cubic step produced non-finite entries", outcomes)


def run_scrn(
    p: StochasticProblem,
    x1,
    cfg: ScrnConfig,
    certify_every: int = 1,
    seed=0,
):
    """Run T cubic-Newton steps with certification checkpoints.

    Besides the per-checkpoint diagnostics (which also record the step norm
    and model decrease), the trace reports the uniformly drawn iterate
    ``R ~ U{1..T}`` with its certificate and the budget consumed through it:
    that random iterate is the object of the method's in-expectation
    guarantee.  ``seed`` is one run seed, or a sequence of seeds run in
    lockstep with their start points ``x1`` and one config ``cfg`` for all,
    or one per seed, each run drawing R from its own T (see
    ``psgd._per_seed``).  See ``psgd.run_steps`` for the checkpoints and
    failures.
    """
    def run(x1s, cfgs, seeds):
        r_indices = [int(SeedStream(s, c.algorithm).child("random_iterate").rng()
                         .integers(1, c.T + 1)) for s, c in zip(seeds, cfgs)]
        return run_steps(
            p, x1s, cfgs,
            lambda c, t, rows, x, stream: _estimate_step(p, x, c, stream),
            seeds, certify_every=certify_every, r_indices=r_indices,
        )

    return _per_seed(run, x1, cfg, seed)


def check_mu(mu) -> None:
    """The schedule constants ``mu``: five positive numbers."""
    if len(mu) != 5 or any(m <= 0 for m in mu):
        raise ScheduleError("mu must hold 5 positive constants")


def schedule_scrn(
    epsilon: float,
    meta: ProblemMetadata,
    f0_gap: float,
    mode: str = HIGHER_ORDER,
    mu: tuple = (1.0,) * 5,
) -> ScrnConfig:
    """Theorem schedule for cubic Newton.

    Higher-order mode: ``T = 144 gap / (M eps^1.5)``, gradient batch
    ``mu0 (rho-1)/eps`` (floored at 1, so the deterministic arm needs no
    averaging), Hessian batch ``1/eps``, and the literal max-of-four cubic
    penalty ``M = max(L_H, 1/4, (0.004 L_G + sigma2) eps^0.25, 40 sigma2)``.
    The penalty is evaluated per epsilon as written; for small epsilon the
    max is typically attained at ``L_H`` or ``40 sigma2``, making it
    effectively constant.

    Zeroth-order mode replaces the penalty by the constant ``mu4`` and uses
    the dimension-dependent batch sizes and smoothing radius of the
    derivative-free analysis.
    """
    if not 0.0 < epsilon < 1.0:
        raise ScheduleError(f"schedule undefined for epsilon={epsilon}; need (0, 1)")
    if f0_gap <= 0:
        raise ScheduleError(f"initial gap must be positive, got {f0_gap}")
    check_mu(mu)
    d = meta.dim
    if mode == HIGHER_ORDER:
        rho = _require_rho(meta)
        M = max(
            meta.L_H,
            0.25,
            (0.004 * meta.L_G + meta.sigma2) * epsilon**0.25,
            40.0 * meta.sigma2,
        )
        T = max(1, math.ceil(144.0 * f0_gap / (M * epsilon**1.5)))
        n1 = max(1, math.ceil(mu[0] * (rho - 1.0) / epsilon))
        n2 = max(1, math.ceil(1.0 / epsilon))
        return ScrnConfig(
            M=M, n1=n1, n2=n2, T=T,
            box_radius=meta.box_radius, epsilon=epsilon, mode=HIGHER_ORDER,
        )
    if mode == ZEROTH_ORDER:
        M = mu[4]
        T = max(1, math.ceil(mu[0] * f0_gap / (M * epsilon**1.5)))
        n1 = max(1, math.ceil(mu[1] * (d + 5) / epsilon))
        n2 = max(1, math.ceil(mu[2] * (1.0 + 2.0 * math.log(2 * d)) * (d + 16) ** 4 / epsilon))
        nu = max(mu[3] * epsilon / (d + 16) ** 2.5, NU_FLOOR)
        return ScrnConfig(
            M=M, n1=n1, n2=n2, T=T,
            box_radius=meta.box_radius, epsilon=epsilon, mode=ZEROTH_ORDER, nu=nu,
        )
    raise ConfigurationError(f"unknown mode {mode!r}")
