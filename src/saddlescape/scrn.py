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

At d = 10 a model check plus a solve that decomposes H itself costs about
60 microseconds (one BLAS thread, 2-vCPU Linux host), of which
``np.linalg.eigh`` and ``Q'g`` take about 12.  ``_estimate_step`` samples
the gradients and the Hessians of all the rows of a step with one packed
oracle call each, whatever their batch sizes, and builds the models and
the update from the stacks: one finite screen, one byte compare for
symmetry, one stacked ``eigh``, one ``matmul`` for every ``Q'g`` and one
``x + h*``.  A row pays only for its solve and its clamp.  Timed in
process, a ``scrn_ho`` step of 6 rows took about 270 microseconds: 65 for
the two estimators, 30 for the screen, the decomposition and the six
models, and 140 for the six solves, each given its eigenpairs (timeit,
one BLAS thread, 2-vCPU Linux host).  The rest of a solve is some thirty
numpy calls on short arrays, each with a fixed cost.  So the solve
computes each quantity once and reuses it: ``g @ g`` gives ``||g||`` and
screens g's finiteness; the minimum eigenspace is counted as a prefix of
the ascending spectrum; the Newton loop tests for a pole on ``a[0] + t``
alone; and the radius, ``||g||``, ``w_min`` and ``||H||_2`` serve both the
model decrease and the checks.  Every value that reaches a
``CubicSolution`` is computed by numpy dots and ufuncs, never by a Python
sum, which rounds differently, so the traces keep their bytes.  A float
operation that overflows or divides by zero, an ``eigh`` that fails, or a
Brent bracket lost to overflow is a ``NumericalError`` of that solve alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import as_count, check_finite
# certify is unused here, but the benchmark's tracer patches it in this module
from .diagnostics import certify  # noqa: F401
from .errors import ConfigurationError, NumericalError, ScheduleError
from .estimators import NU_FLOOR, fo_gradient, so_hessian, zo_gradient, zo_hessian
from .problems import ProblemMetadata, StochasticProblem, clamp_to_box
from .psgd import (_check_box, _check_rows, _layout, _per_seed, _require_rho, _step_calls,
                   _sub_block, run_steps)
from .seeds import SeedStream

HIGHER_ORDER = "higher_order"
ZEROTH_ORDER = "zeroth_order"

_STATIONARITY_TOL = 1e-8
_PSD_TOL = 1e-8
_DECREASE_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
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
    # (w, Q, Q'g) of H = Q diag(w) Q' when the caller has decomposed H, as
    # _estimate_step does for all its rows at once (_row_models); the
    # solve decomposes H itself when it is None
    _eigen: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        H = np.asarray(self.H, dtype=np.float64)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "H", H)
        if g.ndim != 1 or not g.size or H.shape != (g.size, g.size):
            raise ConfigurationError(
                f"model shapes incompatible: g {g.shape}, H {H.shape}"
            )
        if not (self.M > 0 and math.isfinite(self.M)):
            raise ConfigurationError(f"cubic penalty M must be positive and finite, got {self.M}")
        # An H equal to its transpose bit for bit, as both Hessian estimators
        # make it, passes at once.  A non-finite H is left to the solve to
        # reject.  H - H.T is exactly antisymmetric, so its largest entry is
        # its largest magnitude; the tolerance 1e-10 max(1, max|H|) is never
        # below 1e-10, so H's scale is needed only above that.
        if H.tobytes() != H.T.tobytes() and np.isfinite(H).all():
            asym = float((H - H.T).max())
            if asym > 1e-10 and asym > 1e-10 * max(1.0, float(np.abs(H).max())):
                raise ConfigurationError("model Hessian must be symmetric")

    def value(self, h: np.ndarray) -> float:
        """Model decrease m(x + h) - m(x) at displacement h."""
        h = np.asarray(h, dtype=np.float64)
        return _model_value(self.g, self.H, self.M, h, math.sqrt(h @ h) ** 3)


def _model_value(g: np.ndarray, H: np.ndarray, M: float, h: np.ndarray, cube: float) -> float:
    """m(x + h) - m(x), given the cube of ``||h||``."""
    return float(g @ h + 0.5 * h @ H @ h + (M / 6.0) * cube)


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


def _solve_failed(M: float, err: Exception) -> NumericalError:
    """The one-line error of a solve that a float operation or LAPACK gave up on."""
    return NumericalError(f"cubic solve failed (M = {M!r}): {err}")


def _secular_root(a: np.ndarray, b: np.ndarray, M: float, lam0: float) -> float:
    """Root ``t >= 0`` of the secular equation ``psi(t) = 2 (lam0 + t) / M``.

    The multiplier is ``lam0 + t`` and ``a = w + lam0 >= 0`` ascending, with
    ``w`` and ``b != 0`` the components the solve keeps; a pole at ``t = 0``
    has ``a = 0`` exactly, so near it the denominators carry no cancellation,
    and since ``a`` ascends only ``a[0]`` and its ties can vanish.
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
        if den[0] == 0.0:
            # at a pole 1/psi vanishes, with slope 1 / ||b on the pole||
            b_pole = b[den == 0.0]
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
    try:
        root = brentq(
            phi,
            t,
            2.0 * _product_root(float(a[0]), lam0, c),
            xtol=_TINY,
            rtol=4 * _EPS,
            maxiter=200,
        )
    except ValueError as err:
        # a bracket computed past the float range no longer brackets the root
        raise _solve_failed(M, err) from None
    return float(root)


def solve_cubic(model: CubicModel) -> CubicSolution:
    """Global minimizer of the cubic model.

    Eigendecomposition plus Newton on the secular equation ``psi(s) = s``,
    safeguarded by Brent: the Newton iterates climb monotonically to the
    root, and a loop that reaches its iteration cap finishes with a Brent
    root find on the bracket, to a relative tolerance of 4 machine epsilons.
    The hard case is detected from the gradient's component on the minimum
    eigenspace and resolved by adding a null-direction component of the
    prescribed norm, with a deterministic sign convention.  A model that
    carries the eigenpairs its caller computed (``_estimate_step``, which
    also screened it finite) is not decomposed again.

    Raises ``NumericalError`` for non-finite model entries, for a solve
    that leaves the float range or whose ``eigh`` fails, or if the
    optimality conditions fail to hold at the computed step.
    """
    g, H, M = model.g, model.H, model.M
    gg = g @ g
    if model._eigen is not None:  # the caller screened the model finite before decomposing it
        w, Q, b = model._eigen
    # a finite sum of squares has finite terms: g's own check runs only when it is not
    elif not ((math.isfinite(gg) or np.isfinite(g).all()) and np.isfinite(H).all()):
        raise NumericalError("cubic model has non-finite entries")
    else:
        w, Q, b = _decompose(g, H, M)
    try:
        return _solve(g, H, M, math.sqrt(gg), w, Q, b)
    except (OverflowError, ZeroDivisionError) as err:
        # a Python float operation left the float range: only this model's solve fails
        raise _solve_failed(M, err) from None


def _decompose(g: np.ndarray, H: np.ndarray, M: float) -> tuple:
    """``(w, Q, Q'g)`` of ``H = Q diag(w) Q'``; a failed ``eigh`` is this solve's error."""
    try:
        w, Q = np.linalg.eigh(H)
    except np.linalg.LinAlgError as err:
        raise _solve_failed(M, err) from None
    return w, Q, Q.T @ g


def _decomposed_model(g: np.ndarray, H: np.ndarray, M: float, eigen,
                      checks: bool = True) -> CubicModel:
    """The model (g, H, M), carrying the caller's ``(w, Q, Q'g)`` of H, or
    None.  ``checks=False`` skips ``CubicModel``'s checks, for a float64
    (d,) g, a finite (d, d) H equal to its transpose bit for bit and a
    positive, finite M: such a triple passes them."""
    if checks:
        model = CubicModel(g=g, H=H, M=M)
    else:
        model = object.__new__(CubicModel)
        vars(model).update(g=g, H=H, M=M)
    object.__setattr__(model, "_eigen", eigen)
    return model


def _solve(g: np.ndarray, H: np.ndarray, M: float, g_norm: float,
           w: np.ndarray, Q: np.ndarray, b: np.ndarray) -> CubicSolution:
    """``solve_cubic`` of a finite model with ``||g|| = g_norm`` and
    ``(w, Q, b = Q'g)`` the eigendecomposition of H."""
    spectrum = w.tolist()
    if not (math.isfinite(sum(spectrum)) or np.isfinite(w).all()):
        raise NumericalError("eigendecomposition produced non-finite eigenvalues")
    w_min = spectrum[0]
    H_norm = max(-w_min, spectrum[-1])  # ||H||_2 from the ends of the ascending spectrum
    eig_scale = max(1.0, H_norm)
    # eigenvalues below eigh's resolution are zero curvature, not an escape
    # direction: without this, exactly-singular PSD Hessians trigger
    # ulp-sized hard-case steps
    psd_at_tol = w_min >= -1e-13 * eig_scale
    s_min = 0.0 if psd_at_tol else -2.0 * w_min / M
    # the minimum eigenspace is the leading n_min entries of the ascending spectrum
    top = w_min + 1e-12 * eig_scale
    n_min = 1
    while n_min < len(spectrum) and spectrum[n_min] <= top:
        n_min += 1
    b_min = b[:n_min]
    b_active = math.sqrt(b_min @ b_min)
    hard_candidate = b_active <= 1e-11 * max(1.0, g_norm)
    # psi runs over the components the solve keeps: zero ones add nothing,
    # and a hard candidate's negligible minimum-eigenspace part is dropped
    keep = b != 0.0
    if hard_candidate:
        keep[:n_min] = False
    w_keep, b_keep = w[keep], b[keep]
    # multipliers are measured from lam0, the larger of the multiplier at
    # s_min and the pole of the smallest kept eigenvalue
    lam0 = 0.0 if psd_at_tol else -w_min
    if w_keep.size:
        lam0 = max(lam0, -float(w_keep[0]))
    a = w_keep + lam0

    hard_case = False
    if g_norm == 0.0 and psd_at_tol:
        h = np.zeros(g.shape)
    elif hard_candidate and not psd_at_tol and _psi(a, b_keep, 0.0) < s_min:
        # Hard case: no pole at s_min and the interior solution is too short;
        # pad with a minimum-eigenvector component to land exactly on s_min.
        hard_case = True
        coeff = np.zeros(b.shape)
        coeff[n_min:] = b[n_min:] / (w[n_min:] + 0.5 * M * s_min)
        interior = math.sqrt(coeff @ coeff)
        alpha = math.sqrt(max(s_min * s_min - interior * interior, 0.0))
        h = -Q @ coeff + alpha * _canonical_sign(Q[:, 0])
    else:
        den = a + _secular_root(a, b_keep, M, lam0)
        if den.size and den[0] == 0.0:
            # den ascends from den[0] >= 0; a pole's components carry no step
            den = np.where(den > 0.0, den, np.inf)
        coeff = np.zeros(b.shape)
        coeff[keep] = b_keep / den
        h = -Q @ coeff

    radius = math.sqrt(h @ h)
    if not math.isfinite(radius):
        raise NumericalError(f"cubic step left the float range (M = {M!r})")
    cube = radius**3
    sol = CubicSolution(
        h_star=h,
        model_decrease=_model_value(g, H, M, h, cube),
        radius=radius,
        multiplier=0.5 * M * radius,
        hard_case=hard_case,
    )
    _validate_solution(g, H, M, sol, cube, g_norm, w_min, H_norm)
    return sol


def _validate_solution(
    g: np.ndarray, H: np.ndarray, M: float, sol: CubicSolution, cube: float,
    g_norm: float, w_min: float, H_norm: float,
) -> None:
    # fixed tolerances at moderate model scales; for very large-magnitude
    # models the floating-point floor (~eps times the terms combined) takes
    # over, since no float64 step can do better.  cube is ||h||^3, and H_norm
    # is ||H||_2, the largest |eigenvalue| from the solve's eigh.
    h, radius, multiplier = sol.h_star, sol.radius, sol.multiplier
    h_scale = H_norm * radius
    r = g + H @ h + multiplier * h
    resid = math.sqrt(r @ r)
    resid_tol = max(
        _STATIONARITY_TOL * max(1.0, g_norm),
        64.0 * _EPS * (g_norm + h_scale + multiplier * radius),
    )
    if resid > resid_tol:
        raise NumericalError(
            f"cubic step stationarity residual {resid:.3e} exceeds tolerance"
        )
    psd_tol = max(_PSD_TOL, 64.0 * _EPS * (abs(w_min) + multiplier))
    if w_min + multiplier < -psd_tol:
        raise NumericalError(
            f"cubic step violates the second-order condition by {w_min + multiplier:.3e}"
        )
    bound = -(M / 12.0) * cube
    decrease = sol.model_decrease
    decrease_tol = max(_DECREASE_TOL, 64.0 * _EPS * (abs(decrease) + abs(bound) + h_scale * radius))
    if decrease > bound + decrease_tol:
        raise NumericalError(
            f"cubic model decrease {decrease:.3e} misses the M/12 bound {bound:.3e}"
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
        if not (self.M > 0 and math.isfinite(self.M)):
            raise ConfigurationError(f"M must be positive and finite, got {self.M}")
        check_finite({"epsilon": self.epsilon, "nu": self.nu})
        for name in ("n1", "n2", "T"):  # a fractional count would be charged but not drawn
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        if self.n1 < 1 or self.n2 < 1 or self.T < 1:
            raise ConfigurationError("need n1, n2, T >= 1")
        _check_box(self.box_radius)
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.mode not in (HIGHER_ORDER, ZEROTH_ORDER):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if (self.nu is not None) != (self.mode == ZEROTH_ORDER):
            raise ConfigurationError("nu must be set iff mode is zeroth_order")

    @property
    def calls_per_step(self) -> int:
        """Oracle calls of one step: n1 + n2 samples, or 2 n1 + 3 n2 values."""
        return 2 * self.n1 + 3 * self.n2 if self.mode == ZEROTH_ORDER else self.n1 + self.n2


def _estimate_step(p: StochasticProblem, x: np.ndarray, cfg, stream: SeedStream):
    """One cubic-Newton step of k runs; returns (x_new, oracle calls, outcomes).

    As in ``psgd_step``, ``x`` is the (k, d) iterates of the runs, ``stream``
    the block of their step streams and ``cfg`` one config of all runs, one
    per run or their ``StepLayout``.  The higher-order rows make one
    ``fo_gradient`` and one ``so_hessian`` call, each row with its own
    batch sizes (one sampled-oracle call per estimator and block of rows),
    and the zeroth-order rows one call of each estimator per distinct
    config; when every row is higher-order, the step takes the (k, d) and
    (k, d, d) stacks as the estimators return them.  The stacks are screened
    for finite rows in one pass, and the finite Hessians decomposed by one
    stacked ``eigh``, with every ``Q'g`` from one ``matmul``: both give the
    bits of the one-row calls.  A stack that is finite and equal to its
    transpose bit for bit, as both Hessian estimators make it, passes every
    model check at once, so its rows' models skip ``CubicModel``'s checks;
    any other stack builds each row's ``CubicModel``.  Each row then gets
    its own ``solve_cubic`` call with its eigenpairs.  The update ``x + h*``
    is one operation for all rows, and each row whose solve succeeded gets
    its own clamp.  If the stacked ``eigh`` fails, each solve decomposes its
    own model, so the failure ends only its row's run.  ``outcomes[j]`` is
    row j's ``CubicSolution``, or the ``NumericalError`` its cubic solve
    raised or its non-finite step gave.
    """
    x = np.asarray(x, dtype=np.float64)
    layout = _layout(cfg, len(x))
    if isinstance(layout.sampled, slice):  # every row samples: no gather, no scatter
        g = fo_gradient(p, x, layout.n1, stream).g
        H = so_hessian(p, x, layout.n2, stream).H
    else:
        g = np.empty_like(x)
        H = np.empty(x.shape + x.shape[-1:])
        if layout.n1:
            rows = layout.sampled
            xs, sub = x[rows], _sub_block(stream, rows)
            g[rows] = fo_gradient(p, xs, layout.n1, sub).g
            H[rows] = so_hessian(p, xs, layout.n2, sub).H
        for c, rows in layout.zo_groups:
            xs, sub = x[rows], _sub_block(stream, rows)
            g[rows] = zo_gradient(p, xs, c.nu, c.n1, sub).g
            H[rows] = zo_hessian(p, xs, c.nu, c.n2, sub).H
    h = np.empty_like(x)
    outcomes = []
    for j, model in enumerate(_row_models(g, H, layout.cfgs)):
        try:
            sol = solve_cubic(model)
        except NumericalError as err:
            sol, h[j] = err, np.nan
        else:
            h[j] = sol.h_star
        outcomes.append(sol)
    x_new = x + h
    for row, box, sol in zip(x_new, layout.box, outcomes):
        # one clamp per solved row: the benchmark's tracer counts them
        if not isinstance(sol, NumericalError):
            clamped = clamp_to_box(row, box)
            if clamped is not row:
                row[...] = clamped
    return x_new, _step_calls(cfg, layout), _check_rows(
        x_new, "cubic step produced non-finite entries", outcomes)


def _row_models(g: np.ndarray, H: np.ndarray, cfgs: list) -> list:
    """The ``CubicModel`` of each row of the (k, d) gradients ``g`` and
    (k, d, d) Hessians ``H``, row j with the penalty of ``cfgs[j]``.

    The finite rows' Hessians are decomposed by one stacked ``eigh`` and
    the models carry their eigenpairs; a row that is not finite, or every
    row when the ``eigh`` fails, is left to its solve.  A finite stack
    equal to its transpose bit for bit needs no model checks (the configs
    checked each ``M``), so its models are built without them.
    """
    finite = np.isfinite(g).all(axis=1) & np.isfinite(H).all(axis=(1, 2))
    every = bool(finite.all())
    checks = not (every and H.tobytes() == np.swapaxes(H, 1, 2).tobytes())
    eigen = [None] * len(g)
    if finite.any():
        try:
            w, Q = np.linalg.eigh(H if every else H[finite])
        except np.linalg.LinAlgError:
            pass  # each solve decomposes its own model
        else:
            b = ((g if every else g[finite])[:, None, :] @ Q)[:, 0]
            for j, wj, Qj, bj in zip(np.flatnonzero(finite).tolist(), w, Q, b):
                eigen[j] = wj, Qj, bj
    return [_decomposed_model(gj, Hj, c.M, e, checks) for gj, Hj, c, e in zip(g, H, cfgs, eigen)]


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
        r_streams = SeedStream(seeds, cfgs[0].algorithm, "random_iterate").nodes()
        r_indices = [int(r.rng().integers(1, c.T + 1)) for r, c in zip(r_streams, cfgs)]
        return run_steps(
            p, x1s, cfgs,
            lambda layout, x, i: _estimate_step(p, x, layout, SeedStream.block(layout.states[i])),
            seeds, certify_every=certify_every, r_indices=r_indices,
        )

    return _per_seed(run, x1, cfg, seed)


def check_mu(mu) -> None:
    """The schedule constants ``mu``: five positive, finite numbers."""
    if len(mu) != 5:
        raise ScheduleError("mu must hold 5 positive constants")
    check_finite({f"mu[{i}]": m for i, m in enumerate(mu)})
    if any(m <= 0 for m in mu):
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
