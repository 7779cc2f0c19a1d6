"""Stochastic-oracle interface and synthetic nonconvex test problems.

A :class:`StochasticProblem` bundles a noisy oracle for ``F(x, xi)`` (values,
gradients, Hessians, each a pure function of ``(x, seed)``) with exact
references for ``f = E[F]`` and Lipschitz metadata.  Oracles come in batch
form -- ``(points, seeds) -> samples`` -- so Monte-Carlo diagnostics stay
vectorized; scalar accessors wrap the batch endpoints.

Two families are provided:

* ``make_multiplicative_saddle`` -- ``F(x, xi) = xi * f(x)`` with
  ``f(x) = 0.5 x'Ax + q ||x||^4`` and a two-point multiplier ``xi`` chosen so
  the strong growth condition ``E||grad F||^2 = rho ||grad f||^2`` holds with
  equality for every ``x``.  The literature states the strong growth
  condition abstractly without exhibiting a nonconvex instance; this family
  is our construction, chosen because its growth constant is exact and
  trivially verifiable.
* ``make_phase_retrieval`` -- a realizable finite-sum instance where every
  per-sample gradient vanishes at the planted signal (interpolation).

``make_additive_noise_variant`` wraps any problem with constant-variance
random-sign (+-sigma) noise on sampled values/gradients, deliberately breaking
strong growth; it serves as the control arm in benchmark comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import config as _cfg
from .errors import CapabilityError, ConfigurationError
from .seeds import SeedStream, mix64_array, random_signs, uniform01

_TAG_XI = 0x7C1EDB4A93E2F015
_TAG_INDEX = 0x3D90A1B7C44EE619
_TAG_VALUE_NOISE = 0x61C88646F8A2D30B
_TAG_GRAD_NOISE = 0xD6E8FEB86659FD93

MAX_FINITE_SUM = 10_000  # finite-sum families expose exact_* by full enumeration


@dataclass(frozen=True)
class ProblemMetadata:
    """Dimension, Lipschitz constants, and noise scales of a problem.

    ``L_G`` (gradient-Lipschitz) and ``L_H`` (Hessian-Lipschitz) are
    box-restricted constants of the *expected* function ``f`` (valid upper
    bounds over ``||x|| <= box_radius``); the local-minimizer certificate
    divides by ``L_H``, so ``L_H > 0`` is required.  ``rho_true`` is the
    exact strong-growth constant when analytically known, ``sigma2`` the
    Hessian-noise scale, ``noise_sigma`` the additive gradient-noise scale
    (zero unless wrapped).
    """

    dim: int
    L_G: float
    L_H: float
    f_star: float
    box_radius: float = 10.0
    rho_true: Optional[float] = None
    sigma2: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")
        if self.L_G <= 0 or self.L_H <= 0:
            raise ConfigurationError("need L_G > 0, L_H > 0")
        if self.rho_true is not None and self.rho_true < 1:
            raise ConfigurationError(f"rho_true must be >= 1, got {self.rho_true}")
        if self.sigma2 < 0 or self.noise_sigma < 0:
            raise ConfigurationError("noise scales must be nonnegative")
        if self.box_radius <= 0:
            raise ConfigurationError("box_radius must be positive")


@dataclass(frozen=True)
class StochasticProblem:
    """Oracle bundle: sampled F and exact f with metadata.

    Exact oracles take a ``(d,)`` point, returning a float, a ``(d,)``
    gradient and a ``(d, d)`` Hessian, or a ``(k, d)`` stack of points,
    returning ``(k,)``, ``(k, d)`` and ``(k, d, d)`` arrays whose row i
    equals the call on point i bit for bit; certification evaluates the
    iterates of a seed group in one call each.

    Batch oracles take ``seeds`` of shape ``(n,)`` and ``points`` of shape
    ``(k, d)`` with k dividing n, or a single ``(d,)`` point (k = 1): point
    j serves the n/k consecutive seeds from j n/k on, so one call serves k
    runs that each draw n/k samples at their own iterate.  They are pure:
    the same point and seed always reproduce the same sample.  Rounding may
    depend on the rest of the call: the saddle's values of n distinct
    points come from one matrix-vector product, so a row's last bit can
    change with its position.  A point that serves several seeds gives the
    values of its own call, and gradients and Hessians never depend on the
    other rows.
    """

    meta: ProblemMetadata
    name: str
    exact_value: Callable[[np.ndarray], float]
    exact_grad: Callable[[np.ndarray], np.ndarray]
    exact_hess: Callable[[np.ndarray], np.ndarray]
    sample_value_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sample_grad_batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    sample_hess_batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def has_grad_oracle(self) -> bool:
        return self.sample_grad_batch is not None

    @property
    def has_hess_oracle(self) -> bool:
        return self.sample_hess_batch is not None

    def sample_value(self, x, seed) -> float:
        return float(self.sample_value_batch(np.asarray(x, dtype=np.float64), _one_seed(seed))[0])

    def sample_grad(self, x, seed) -> np.ndarray:
        if not self.has_grad_oracle:
            raise CapabilityError(f"problem {self.name!r} exposes no gradient oracle")
        return self.sample_grad_batch(np.asarray(x, dtype=np.float64), _one_seed(seed))[0]

    def sample_hess(self, x, seed) -> np.ndarray:
        if not self.has_hess_oracle:
            raise CapabilityError(f"problem {self.name!r} exposes no Hessian oracle")
        return self.sample_hess_batch(np.asarray(x, dtype=np.float64), _one_seed(seed))[0]


def _one_seed(seed) -> np.ndarray:
    return np.asarray([int(seed)], dtype=np.uint64)


def as_point(x, dim: int) -> np.ndarray:
    """Validate and convert an input point: finite float vector of length ``dim``."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ConfigurationError(f"point must be a 1-d vector, got shape {arr.shape}")
    if arr.size != dim:
        raise ConfigurationError(f"point has dimension {arr.size}, problem expects {dim}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("point has non-finite entries")
    return arr


def clamp_to_box(x: np.ndarray, radius: float) -> np.ndarray:
    """Project onto the ball ||x|| <= radius (declared Lipschitz region)."""
    norm = math.sqrt(x @ x)
    if norm <= radius:
        return x
    return x * (radius / norm)


def _points(points, n: int, dim: int) -> np.ndarray:
    """The (k, dim) distinct points of an oracle call with n seeds."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ConfigurationError(f"points shape {np.shape(points)} incompatible with dimension {dim}")
    if not len(pts) or n % len(pts):
        raise ConfigurationError(f"{len(pts)} points cannot serve {n} seeds; "
                                 "the point count must divide the seed count")
    return pts


def _rows(points, n: int, dim: int) -> np.ndarray:
    """(n, dim): the point each of an oracle call's n seeds is evaluated at."""
    pts = _points(points, n, dim)
    return pts if len(pts) == n else np.repeat(pts, n // len(pts), axis=0)


def _row_by_row(one: Callable) -> Callable:
    """The exact oracle ``one`` of a (d,) point, extended to a (k, d) stack
    by calling it on each row."""
    def oracle(x):
        x = np.asarray(x, dtype=np.float64)
        return one(x) if x.ndim == 1 else np.array([one(row) for row in x])

    return oracle


def _check_box_radius(box_radius: float) -> float:
    """The families' box radius (config key ``r_box``), checked before any
    Lipschitz constant is computed from it."""
    if not box_radius > 0:
        raise ConfigurationError(f"r_box must be positive, got {box_radius}")
    return float(box_radius)


def two_point_multiplier(seeds: np.ndarray, rho: float) -> np.ndarray:
    """xi in {0, rho} with P(xi = rho) = 1/rho, so E xi = 1 and E xi^2 = rho."""
    if rho == 1.0:
        return np.ones(len(seeds), dtype=np.float64)
    u = uniform01(seeds, tag=_TAG_XI)
    return np.where(u <= 1.0 / rho, rho, 0.0)


def make_multiplicative_saddle(
    d: int,
    neg_count: int,
    rho: float,
    quartic_coeff: float,
    box_radius: float = 10.0,
) -> StochasticProblem:
    """Quartic-regularized quadratic saddle with exact strong-growth noise.

    ``f(x) = 0.5 x'Ax + quartic_coeff ||x||^4`` with
    ``A = diag(-1 x neg_count, +1 x rest)``; the origin is a strict saddle.
    Samples are ``F(x, xi) = xi f(x)`` with the two-point multiplier, so the
    growth constant equals ``rho`` exactly and ``meta.rho_true`` is exact.

    The quartic term bounds ``f`` below; since a quartic has no global
    Hessian-Lipschitz constant, ``L_H`` (and ``L_G``) are computed
    over the declared ``||x|| <= box_radius`` and optimizers clamp iterates
    to that ball.
    """
    if not 1 <= neg_count < d:
        raise ConfigurationError(f"need 1 <= neg_count < d, got neg_count={neg_count}, d={d}")
    if rho < 1:
        raise ConfigurationError(f"rho must be >= 1, got {rho}")
    if quartic_coeff < 0:
        raise ConfigurationError(f"quartic_coeff must be >= 0, got {quartic_coeff}")

    R = _check_box_radius(box_radius)
    a_diag = np.concatenate([-np.ones(neg_count), np.ones(d - neg_count)])
    q = float(quartic_coeff)

    def f_rows(pts: np.ndarray, each: bool = False) -> np.ndarray:
        """f at each row.  An (n, d) matrix-vector product rounds a row by
        its position in the batch; with ``each``, stacked 1 x d products
        round every row as a batch of that row alone does."""
        sq = pts * pts  # the one (n, d) temporary
        quartic = q * np.square(sq.sum(axis=1)) if q else None
        sq *= 0.5
        val = (sq[:, None, :] @ a_diag[:, None])[:, 0, 0] if each else sq @ a_diag
        if q:
            val += quartic
        return val

    def grad_rows(pts: np.ndarray) -> np.ndarray:
        g = pts * a_diag
        if q:
            g = g + (4.0 * q) * (pts * pts).sum(axis=1, keepdims=True) * pts
        return g

    a_mat = np.diag(a_diag)
    eye = np.eye(d)

    def hess_at(x: np.ndarray) -> np.ndarray:
        if not q:
            return a_mat.copy()
        nrm2 = float(x @ x)
        return a_mat + (4.0 * q * nrm2 * eye + 8.0 * q * np.outer(x, x))

    def hess_rows(pts: np.ndarray) -> np.ndarray:
        """``hess_at`` of each row, bit for bit, without a loop over rows."""
        if not q:
            return np.repeat(a_mat[None], len(pts), axis=0)
        # stacked 1 x d by d x 1 products: each is x @ x, bit for bit
        nrm2 = pts[:, None, :] @ pts[:, :, None]
        return a_mat + ((4.0 * q) * nrm2 * eye + (8.0 * q) * (pts[:, :, None] * pts[:, None, :]))

    # each distinct point is evaluated once and scaled by the xi of each of
    # its seeds: gradients and Hessians equal those of an (n, d) batch of
    # copies bit for bit, and values those of the point's own call
    def scaled(rows, seeds):
        xi = two_point_multiplier(seeds, rho).reshape((len(rows), -1) + (1,) * (rows.ndim - 1))
        return (xi * rows[:, None]).reshape((len(seeds),) + rows.shape[1:])

    def value_batch(points, seeds):
        pts = _points(points, len(seeds), d)
        # a point that serves several seeds is evaluated as a call of its own
        return scaled(f_rows(pts, each=len(pts) < len(seeds)), seeds)

    def grad_batch(points, seeds):
        return scaled(grad_rows(_points(points, len(seeds), d)), seeds)

    def hess_batch(points, seeds):
        return scaled(hess_rows(_points(points, len(seeds), d)), seeds)

    # each row of a (k, d) stack rounds as its one-point call does: values
    # through stacked 1 x d products, Hessians through hess_rows (= hess_at)
    def exact_value(x):
        x = np.asarray(x, dtype=np.float64)
        return float(f_rows(x[None, :])[0]) if x.ndim == 1 else f_rows(x, each=True)

    def exact_grad(x):
        x = np.asarray(x, dtype=np.float64)
        return grad_rows(x[None, :])[0] if x.ndim == 1 else grad_rows(x)

    def exact_hess(x):
        x = np.asarray(x, dtype=np.float64)
        return hess_at(x) if x.ndim == 1 else hess_rows(x)

    if q > 0:
        f_star = -1.0 / (16.0 * q)
        lip_hess = 24.0 * q * R
    else:
        f_star = -0.5 * R * R  # box-restricted minimum of the pure quadratic
        lip_hess = 1.0  # Hessian is constant; any positive constant is valid

    meta = ProblemMetadata(
        dim=d,
        L_G=1.0 + 12.0 * q * R * R,
        L_H=lip_hess,
        f_star=f_star,
        box_radius=R,
        rho_true=float(rho),
        sigma2=float(np.sqrt(max(rho - 1.0, 0.0) * d)),
    )
    return StochasticProblem(
        meta=meta,
        name=f"multiplicative_saddle(d={d}, neg={neg_count}, rho={rho}, q={q})",
        exact_value=exact_value,
        exact_grad=exact_grad,
        exact_hess=exact_hess,
        sample_value_batch=value_batch,
        sample_grad_batch=grad_batch,
        sample_hess_batch=hess_batch,
    )


def make_phase_retrieval(
    d: int,
    m: int,
    planted_seed: int,
    box_radius: float = 10.0,
) -> StochasticProblem:
    """Realizable phase retrieval: F(x, i) = (1/4)(b_i - (a_i'x)^2)^2.

    Measurements ``b_i = (a_i' x_star)^2`` come from a planted unit signal,
    so every sample loss is zero at ``x = +-x_star`` and all per-sample
    gradients vanish there (interpolation holds exactly, not statistically).
    ``xi`` is the index, uniform over the m sensing vectors; exact references
    average over the full sum.
    """
    if m < d:
        raise ConfigurationError(f"need m >= d, got m={m}, d={d}")
    if m > MAX_FINITE_SUM:
        raise ConfigurationError(f"m={m} exceeds the exact-enumeration limit {MAX_FINITE_SUM}")
    R = _check_box_radius(box_radius)

    root = SeedStream(planted_seed, "phase_retrieval")
    x_star = root.child("planted").rng().standard_normal(d)
    x_star /= np.linalg.norm(x_star)
    sensing = root.child("sensing").rng().standard_normal((m, d))
    # same reduction as the sampled oracles, so residuals at x_star are
    # exactly zero (interpolation holds bitwise, not just statistically)
    b = np.square(np.einsum("nd,nd->n", np.broadcast_to(x_star, sensing.shape), sensing))

    def indices(seeds: np.ndarray) -> np.ndarray:
        h = mix64_array(np.asarray(seeds, dtype=np.uint64) ^ np.uint64(_TAG_INDEX))
        return (h % np.uint64(m)).astype(np.int64)

    def value_batch(points, seeds):
        idx = indices(seeds)
        pts = _rows(points, len(seeds), d)
        r = np.einsum("nd,nd->n", pts, sensing[idx])
        return 0.25 * np.square(b[idx] - r * r)

    def grad_batch(points, seeds):
        idx = indices(seeds)
        pts = _rows(points, len(seeds), d)
        a = sensing[idx]
        r = np.einsum("nd,nd->n", pts, a)
        return ((r * r - b[idx]) * r)[:, None] * a

    def hess_batch(points, seeds):
        idx = indices(seeds)
        pts = _rows(points, len(seeds), d)
        a = sensing[idx]
        r = np.einsum("nd,nd->n", pts, a)
        return (3.0 * r * r - b[idx])[:, None, None] * a[:, :, None] * a[:, None, :]

    def _correlations(x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.einsum("nd,nd->n", np.broadcast_to(x, sensing.shape), sensing)

    def exact_value(x):
        r = _correlations(x)
        return float(np.mean(0.25 * np.square(b - r * r)))

    def exact_grad(x):
        r = _correlations(x)
        return ((r * r - b) * r) @ sensing / m

    def exact_hess(x):
        r = _correlations(x)
        h = (sensing.T * (3.0 * r * r - b)) @ sensing / m
        return 0.5 * (h + h.T)

    norms2 = np.einsum("md,md->m", sensing, sensing)
    hess_bound = (3.0 * norms2 * R * R + b) * norms2  # sup-norm of each sample Hessian
    meta = ProblemMetadata(
        dim=d,
        L_G=float(np.mean(hess_bound)),
        L_H=float(6.0 * R * np.mean(norms2 * norms2)),
        f_star=0.0,
        box_radius=R,
        rho_true=None,
        sigma2=float(np.max(hess_bound) + np.mean(hess_bound)),
    )
    return StochasticProblem(
        meta=meta,
        name=f"phase_retrieval(d={d}, m={m}, seed={planted_seed})",
        exact_value=_row_by_row(exact_value),
        exact_grad=_row_by_row(exact_grad),
        exact_hess=_row_by_row(exact_hess),
        sample_value_batch=value_batch,
        sample_grad_batch=grad_batch,
        sample_hess_batch=hess_batch,
    )


def make_additive_noise_variant(p: StochasticProblem, sigma: float) -> StochasticProblem:
    """Add i.i.d. +-sigma noise with random signs to sampled values and gradient entries.

    The sampled-gradient second moment then has a ``sigma^2 d`` floor that
    does not vanish with the true gradient, so strong growth fails; this is
    the bounded-variance control arm.  Its assumption bounds only the noise's
    second moment, which Rademacher entries meet exactly: each gradient noise
    vector has squared norm ``sigma^2 d``.  ``sigma = 0`` reproduces ``p``
    seed-for-seed.
    """
    if sigma < 0:
        raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
    base_meta = p.meta
    d = base_meta.dim

    def value_batch(points, seeds):
        vals = p.sample_value_batch(points, seeds)
        if sigma == 0:
            return vals
        noise = random_signs(seeds, 1, _TAG_VALUE_NOISE)[:, 0]
        noise *= sigma
        noise += vals
        return noise

    grad_batch = None
    if p.has_grad_oracle:

        def grad_batch(points, seeds):
            grads = p.sample_grad_batch(points, seeds)
            if sigma == 0:
                return grads
            noise = random_signs(seeds, d, _TAG_GRAD_NOISE)
            noise *= sigma
            noise += grads
            return noise

    meta = replace(
        base_meta,
        noise_sigma=float(sigma),
        rho_true=base_meta.rho_true if sigma == 0 else None,
    )
    return StochasticProblem(
        meta=meta,
        name=f"additive_noise(sigma={sigma}, base={p.name})",
        exact_value=p.exact_value,
        exact_grad=p.exact_grad,
        exact_hess=p.exact_hess,
        sample_value_batch=value_batch,
        sample_grad_batch=grad_batch,
        sample_hess_batch=p.sample_hess_batch,
    )


_FAMILY_KEYS = {  # the problem keys that only one family reads
    "multiplicative_saddle": ("neg_count", "rho", "quartic_coeff"),
    "phase_retrieval": ("m", "planted_seed"),
}
_PROBLEM_KEYS = ("family", "dim", *(k for keys in _FAMILY_KEYS.values() for k in keys),
                 "r_box", "sigma")  # experiment configs forward these to the problem


def problem_from_config(source) -> StochasticProblem:
    """Build a problem from a key/value config (path, text mapping, or dict).

    Keys: ``family`` (``multiplicative_saddle`` or ``phase_retrieval``),
    ``dim``, ``r_box``, optional ``sigma`` (>= 0; > 0 wraps the family in
    the additive-noise variant), and the family's own keys: ``neg_count``,
    ``rho`` and ``quartic_coeff`` for the saddle, ``m`` and ``planted_seed``
    for phase retrieval.  Any other key, or a key of the other family,
    raises ``ConfigurationError``.
    """
    if isinstance(source, dict):
        raw = {k: str(v) for k, v in source.items()}
    else:
        raw = _cfg.parse_kv_file(source)
    unknown = sorted(set(raw) - set(_PROBLEM_KEYS))
    if unknown:
        raise ConfigurationError(f"unknown problem keys: {', '.join(unknown)}")

    family = raw.get("family")
    if family is None:
        raise ConfigurationError("problem config needs a 'family' key")
    if family not in _FAMILY_KEYS:
        raise ConfigurationError(f"unknown problem family {family!r}")
    foreign = sorted(k for f, keys in _FAMILY_KEYS.items() if f != family
                     for k in keys if k in raw)
    if foreign:
        raise ConfigurationError(
            f"family {family} does not read problem keys: {', '.join(foreign)}")
    r_box = _cfg.as_float(raw["r_box"], "r_box") if "r_box" in raw else 10.0

    if family == "multiplicative_saddle":
        for key in ("dim",):
            if key not in raw:
                raise ConfigurationError(f"multiplicative_saddle config needs {key!r}")
        p = make_multiplicative_saddle(
            d=_cfg.as_int(raw["dim"], "dim"),
            neg_count=_cfg.as_int(raw.get("neg_count", "1"), "neg_count"),
            rho=_cfg.as_float(raw.get("rho", "1.0"), "rho"),
            quartic_coeff=_cfg.as_float(raw.get("quartic_coeff", "0.0"), "quartic_coeff"),
            box_radius=r_box,
        )
    else:
        for key in ("dim", "m"):
            if key not in raw:
                raise ConfigurationError(f"phase_retrieval config needs {key!r}")
        p = make_phase_retrieval(
            d=_cfg.as_int(raw["dim"], "dim"),
            m=_cfg.as_int(raw["m"], "m"),
            planted_seed=_cfg.as_int(raw.get("planted_seed", "0"), "planted_seed"),
            box_radius=r_box,
        )

    sigma = _cfg.as_float(raw.get("sigma", "0.0"), "sigma")
    if sigma != 0:  # the variant rejects sigma < 0
        p = make_additive_noise_variant(p, sigma)
    return p
