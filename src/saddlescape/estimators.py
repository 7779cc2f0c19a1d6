"""Minibatch first-order and Gaussian-smoothing zeroth-order estimators.

The zeroth-order gradient estimator averages forward differences along
standard-normal directions ``u_i``:

    g = (1/n1) sum_i  (F(x + nu u_i, xi_i) - F(x, xi_i)) / nu * u_i

and the zeroth-order Hessian estimator averages central second differences

    H = (1/n2) sum_i  h_i (u_i u_i' - I),
    h_i = (F(x + nu u_i, xi_i) + F(x - nu u_i, xi_i) - 2 F(x, xi_i)) / (2 nu^2)

with the same noise sample ``xi_i`` shared by the queries of one direction.
Oracle-call accounting is literal query counting: one value query is one
call, so a zeroth-order gradient costs 2 per direction and a zeroth-order
Hessian 3 per direction.

Both zeroth-order estimators take the smoothing radius ``nu`` as an argument
and stream their directions in blocks of a fixed number of bytes, so memory
does not grow with ``n1`` or ``n2``.

Noise seeds and direction vectors come from independently split seed
streams, so first-order and zeroth-order runs with the same master seed see
the same noise-seed sequence (paired comparisons across oracle modes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConfigurationError
from .problems import StochasticProblem
from .seeds import SeedStream, fold_int_states, fold_label_states, seed_blocks

NU_FLOOR = 1e-12  # below this, forward differences are cancellation noise
_BLOCK_BYTES = 1 << 18  # zeroth-order directions are streamed in blocks of this many bytes


@dataclass(frozen=True)
class GradEstimate:
    g: np.ndarray
    oracle_calls: int


@dataclass(frozen=True)
class HessEstimate:
    H: np.ndarray
    oracle_calls: int


def fo_gradient(p: StochasticProblem, x: np.ndarray, n1: int, stream: SeedStream) -> GradEstimate:
    """Average of n1 sampled gradients; costs n1 oracle calls."""
    if not p.has_grad_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no gradient oracle")
    if n1 < 1:
        raise ConfigurationError(f"n1 must be >= 1, got {n1}")
    seeds = stream.child("xi").seeds(n1)
    grads = p.sample_grad_batch(np.asarray(x, dtype=np.float64), seeds)
    # sum / n is what mean computes, without its dispatch cost
    return GradEstimate(g=grads.sum(axis=0) / n1, oracle_calls=n1)


def zo_gradient(p: StochasticProblem, x: np.ndarray, nu: float, n1: int, stream: SeedStream) -> GradEstimate:
    """Gaussian-smoothing forward-difference gradient; 2 calls per direction."""
    g = np.zeros(p.meta.dim)
    blocks = _direction_blocks(p, x, nu, n1, stream.child("xi"), stream.child("u").rng(),
                               central=False)
    for u, diff in blocks:
        g += (diff / nu) @ u
    return GradEstimate(g=g / n1, oracle_calls=2 * n1)


def so_hessian(p: StochasticProblem, x: np.ndarray, n2: int, stream: SeedStream) -> HessEstimate:
    """Average of n2 sampled Hessians, symmetrized; costs n2 calls."""
    if not p.has_hess_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no Hessian oracle")
    if n2 < 1:
        raise ConfigurationError(f"n2 must be >= 1, got {n2}")
    seeds = stream.child("xih").seeds(n2)
    h = p.sample_hess_batch(np.asarray(x, dtype=np.float64), seeds).sum(axis=0) / n2
    return HessEstimate(H=0.5 * (h + h.T), oracle_calls=n2)


def zo_hessian(p: StochasticProblem, x: np.ndarray, nu: float, n2: int, stream: SeedStream) -> HessEstimate:
    """Central-second-difference Hessian estimate; 3 calls per direction.

    The averaged ``h_i (u_i u_i' - I)`` is symmetric in exact arithmetic; we
    symmetrize explicitly because floating-point accumulation is not.
    """
    d = p.meta.dim
    outer = np.zeros((d, d))
    curv_sum = 0.0
    blocks = _direction_blocks(p, x, nu, n2, stream.child("xih"), stream.child("uh").rng(),
                               central=True)
    weighted = np.empty((min(n2, _block_rows(d)), d))  # h_i u_i of one block
    for u, diff in blocks:
        curv = diff / (2.0 * nu * nu)
        w = np.multiply(u, curv[:, None], out=weighted[:len(u)])
        outer += w.T @ u
        curv_sum += curv.sum()
    h = outer / n2 - (curv_sum / n2) * np.eye(d)
    return HessEstimate(H=0.5 * (h + h.T), oracle_calls=3 * n2)


def _block_rows(d: int) -> int:
    """Directions per block: as many ``(d,)`` float64 rows as fit in _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * d))


def _direction_blocks(p, x, nu, n, xi_stream, rng, central):
    """Stream n Gaussian directions and their value differences, block by block.

    Yields ``(u, diff)`` for consecutive blocks of at most ``_block_rows(d)``
    directions, with ``diff_i = F(x + nu u_i) - F(x)`` (forward) or
    ``F(x + nu u_i) + F(x - nu u_i) - 2 F(x)`` (central), every query of
    direction i at noise seed ``xi_i``.  Block seeds are taken from
    ``xi_stream`` by index and directions are drawn from ``rng`` in order, so
    the blocks concatenate to the one-shot ``xi_stream.seeds(n)`` and
    ``rng.standard_normal((n, d))``; no array grows with n.  Every block is
    drawn into the same buffers, so a yielded ``u`` is valid until the next
    block is drawn.  A bad ``nu`` or ``n`` raises ``ConfigurationError``
    before any oracle call.
    """
    if not nu > 0:
        raise ConfigurationError(f"smoothing radius nu must be positive, got {nu}")
    if nu < NU_FLOOR:
        raise ConfigurationError(f"nu={nu} is below the cancellation floor {NU_FLOOR}; "
                                 "differences this small lose all precision")
    if n < 1:
        raise ConfigurationError("batch sizes n1, n2 must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    d = p.meta.dim
    rows = _block_rows(d)
    u_buf, step_buf, pts_buf = np.empty((3, min(rows, n), d))
    for start in range(0, n, rows):
        seeds = xi_stream.seeds(min(rows, n - start), start)
        m = len(seeds)
        u = rng.standard_normal(out=u_buf[:m])
        step = np.multiply(u, nu, out=step_buf[:m])
        f_plus = p.sample_value_batch(np.add(x, step, out=pts_buf[:m]), seeds)
        f_base = p.sample_value_batch(x, seeds)
        if central:
            f_minus = p.sample_value_batch(np.subtract(x, step, out=pts_buf[:m]), seeds)
            yield u, f_plus + f_minus - 2.0 * f_base
        else:
            yield u, f_plus - f_base


@dataclass(frozen=True)
class RhoEstimate:
    """Empirical strong-growth ratio with its Monte-Carlo standard error."""

    rho_hat: float
    stderr: float


def estimate_sgc_rho(
    p: StochasticProblem,
    points,
    trials: int,
    stream: SeedStream,
) -> RhoEstimate:
    """max over points of  mean ||grad F(x, xi)||^2 / ||grad f(x)||^2.

    Requires every point to have a nonvanishing true gradient (the ratio is
    undefined otherwise) and enough trials for a meaningful mean.
    """
    if trials < 1_000:
        raise ConfigurationError(f"need trials >= 1000, got {trials}")
    if not p.has_grad_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no gradient oracle")
    best = RhoEstimate(-np.inf, 0.0)
    for k, x in enumerate(points):
        x = np.asarray(x, dtype=np.float64)
        eg = p.exact_grad(x)
        # same reduction as the per-sample norms so the deterministic arm
        # yields a ratio of exactly 1
        denom = float(np.einsum("d,d->", eg, eg))
        if denom <= 1e-16:  # ||grad f|| <= 1e-8
            raise ConfigurationError(
                f"point {k} has vanishing true gradient; growth ratio undefined"
            )
        seeds = stream.child("rho_point", k).seeds(trials)
        grads = p.sample_grad_batch(x, seeds)
        sq = np.einsum("nd,nd->n", grads, grads) / denom
        ratio = float(sq.mean())
        se = float(sq.std(ddof=1) / np.sqrt(trials))
        if ratio > best.rho_hat:
            best = RhoEstimate(ratio, se)
    return best


def grad_minibatch_trials(
    p: StochasticProblem,
    x: np.ndarray,
    n1: int,
    trials: int,
    stream: SeedStream,
) -> np.ndarray:
    """(trials, d) minibatch gradient means for Monte-Carlo moment checks.

    Trial ``k`` equals ``fo_gradient(p, x, n1, stream.child("trial", k)).g``
    but all trials share one vectorized oracle call.
    """
    if not p.has_grad_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no gradient oracle")
    x = np.asarray(x, dtype=np.float64)
    trial_states = fold_label_states(
        fold_int_states(stream.child("trial").state, np.arange(trials)), "xi"
    )
    seeds = seed_blocks(trial_states, n1).reshape(-1)
    grads = p.sample_grad_batch(x, seeds)
    return grads.reshape(trials, n1, -1).mean(axis=1)


def hess_minibatch_trials(
    p: StochasticProblem,
    x: np.ndarray,
    n2: int,
    trials: int,
    stream: SeedStream,
) -> np.ndarray:
    """(trials, d, d) minibatch Hessian means for Monte-Carlo moment checks.

    Trial ``k`` is ``so_hessian(p, x, n2, stream.child("trial", k)).H``.
    """
    return np.stack([so_hessian(p, x, n2, stream.child("trial", k)).H for k in range(trials)])
