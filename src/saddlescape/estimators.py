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
and stream their directions in blocks of a fixed number of bytes per run, so
memory does not grow with ``n1`` or ``n2``; a group of k runs holds two
blocks per run at a time.  When a batch spans several blocks, a second
thread draws the next block's directions while the current block's value
queries run.

Noise seeds and direction vectors come from independently split seed
streams, so first-order and zeroth-order runs with the same master seed see
the same noise-seed sequence (paired comparisons across oracle modes).
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ConfigurationError
from .problems import StochasticProblem
from .seeds import SeedStream, fold_int_states

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
    """Average of n1 sampled gradients; costs n1 oracle calls.

    With a block of k streams and a (k, d) ``x`` (or one (d,) point that
    all k runs share), row i of ``g`` is the estimate of run i at its
    point, from one oracle call for all k runs.

    Each entry of the sum adds the n1 samples in order, from +0.0, as
    ``sum(axis=-2)`` does on the C-ordered batches that every oracle here
    returns; at d = 1 it is ``sum``'s pairwise sum of the one column.
    """
    if not p.has_grad_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no gradient oracle")
    if n1 < 1:
        raise ConfigurationError(f"n1 must be >= 1, got {n1}")
    seeds = stream.child("xi").seeds(n1)
    grads = p.sample_grad_batch(np.asarray(x, dtype=np.float64), seeds.reshape(-1))
    batch = grads.reshape(seeds.shape + (-1,))
    # einsum runs one inner loop per column where sum runs one per sample row,
    # with the same additions in the same order.  A one-column batch is one
    # contiguous run that sum adds pairwise and einsum would not, so it keeps
    # sum.  sum / n is what mean computes, without its dispatch cost.
    total = np.einsum("...nd->...d", batch) if batch.shape[-1] > 1 else batch.sum(axis=-2)
    return GradEstimate(g=total / n1, oracle_calls=n1)


def zo_gradient(p: StochasticProblem, x: np.ndarray, nu: float, n1: int, stream: SeedStream) -> GradEstimate:
    """Gaussian-smoothing forward-difference gradient; 2 calls per direction.

    A (k, d) ``x`` with a block of k streams gives the k runs' estimates as
    the rows of ``g``; each run draws its own directions, and each value
    query serves all k runs (see ``_direction_blocks``).
    """
    _check_zo(nu, n1)
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros((x.size // p.meta.dim, p.meta.dim))
    blocks = _direction_blocks(p, x, nu, n1, stream.child("xi"), stream.child("u"), central=False)
    for u, diff in blocks:
        g += ((diff / nu)[:, None, :] @ u)[:, 0]
    return GradEstimate(g=(g / n1).reshape(x.shape), oracle_calls=2 * n1)


def so_hessian(p: StochasticProblem, x: np.ndarray, n2: int, stream: SeedStream) -> HessEstimate:
    """Average of n2 sampled Hessians, symmetrized; costs n2 calls.

    Takes a (k, d) ``x`` with a block of k streams as ``fo_gradient`` does.
    """
    if not p.has_hess_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no Hessian oracle")
    if n2 < 1:
        raise ConfigurationError(f"n2 must be >= 1, got {n2}")
    seeds = stream.child("xih").seeds(n2)
    hess = p.sample_hess_batch(np.asarray(x, dtype=np.float64), seeds.reshape(-1))
    h = hess.reshape(seeds.shape + hess.shape[1:]).sum(axis=-3) / n2
    return HessEstimate(H=0.5 * (h + np.swapaxes(h, -1, -2)), oracle_calls=n2)


def zo_hessian(p: StochasticProblem, x: np.ndarray, nu: float, n2: int, stream: SeedStream) -> HessEstimate:
    """Central-second-difference Hessian estimate; 3 calls per direction.

    The averaged ``h_i (u_i u_i' - I)`` is symmetric in exact arithmetic; we
    symmetrize explicitly because floating-point accumulation is not.  A
    (k, d) ``x`` with a block of k streams is run as in ``zo_gradient``.
    """
    _check_zo(nu, n2)
    x = np.asarray(x, dtype=np.float64)
    d = p.meta.dim
    k = x.size // d
    outer = np.zeros((k, d, d))
    curv_sum = np.zeros(k)
    blocks = _direction_blocks(p, x, nu, n2, stream.child("xih"), stream.child("uh"), central=True)
    weighted = np.empty(k * min(n2, _block_rows(d)) * d)  # h_i u_i of one block
    for u, diff in blocks:
        curv = diff / (2.0 * nu * nu)
        w = np.multiply(u, curv[:, :, None], out=weighted[:u.size].reshape(u.shape))
        outer += np.swapaxes(w, 1, 2) @ u
        curv_sum += curv.sum(axis=1)
    h = outer / n2 - (curv_sum / n2)[:, None, None] * np.eye(d)
    return HessEstimate(H=(0.5 * (h + np.swapaxes(h, 1, 2))).reshape(x.shape[:-1] + (d, d)),
                        oracle_calls=3 * n2)


def _block_rows(d: int) -> int:
    """Directions per block: as many ``(d,)`` float64 rows as fit in _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * d))


def _check_zo(nu, n) -> None:
    """Reject a bad smoothing radius or batch size before any allocation or oracle call."""
    if not nu > 0:
        raise ConfigurationError(f"smoothing radius nu must be positive, got {nu}")
    if nu < NU_FLOOR:
        raise ConfigurationError(f"nu={nu} is below the cancellation floor {NU_FLOOR}; "
                                 "differences this small lose all precision")
    if n < 1:
        raise ConfigurationError("batch sizes n1, n2 must be >= 1")


def _direction_blocks(p, x, nu, n, xi_stream, u_stream, central):
    """Stream n Gaussian directions per run and their value differences, block by block.

    ``x`` holds the (k, d) iterates of k runs (or one run's (d,) point) and
    ``xi_stream``, ``u_stream`` their noise-seed and direction streams.
    Yields ``(u, diff)`` of shapes (k, m, d) and (k, m) for consecutive
    blocks of m <= ``_block_rows(d)`` directions, with ``diff_i = F(x + nu
    u_i) - F(x)`` (forward) or ``F(x + nu u_i) + F(x - nu u_i) - 2 F(x)``
    (central), every query of direction i at noise seed ``xi_i``; each
    query is one oracle call for all k runs.  Block seeds are taken by
    index and each run draws its directions in order from its own
    ``u_stream`` generator (see ``_drawn_directions``), so a run's blocks
    concatenate to the one-shot ``seeds(n)`` and ``standard_normal((n,
    d))``; no array grows with n.  A yielded ``u`` stays valid until the
    generator resumes, and a run holds at most two direction blocks at a
    time.  The callers check ``nu`` and ``n`` with ``_check_zo`` first.
    The 2 or 3 queries of a block pass the same seeds array, which lets an
    oracle hash those seeds once.
    """
    rngs = [node.rng() for node in u_stream.nodes()]
    k, d = len(rngs), p.meta.dim
    x = np.asarray(x, dtype=np.float64).reshape(k, 1, d)
    rows = _block_rows(d)
    step_buf, pts_buf = np.empty((2, k * min(rows, n) * d))
    draws = _drawn_directions(rngs, d, n, rows)
    try:
        for start, u in zip(range(0, n, rows), draws):
            m = u.shape[1]
            seeds = xi_stream.seeds(m, start).reshape(-1)
            step = np.multiply(u, nu, out=step_buf[:u.size].reshape(u.shape))
            pts = pts_buf[:u.size].reshape(u.shape)
            f_plus = p.sample_value_batch(np.add(x, step, out=pts).reshape(-1, d), seeds)
            f_base = p.sample_value_batch(x[:, 0], seeds)
            if central:
                f_minus = p.sample_value_batch(np.subtract(x, step, out=pts).reshape(-1, d), seeds)
                diff = f_plus + f_minus - 2.0 * f_base
            else:
                diff = f_plus - f_base
            yield u, diff.reshape(k, m)
    finally:
        draws.close()


def _drawn_directions(rngs, d, n, rows):
    """Yield the (k, m, d) direction blocks of ``_direction_blocks``.

    Row block j of run i is the next m normals of ``rngs[i]``, drawn in
    order.  A single block is drawn inline.  With two or more, one producer
    thread draws block j + 1 into the second of two buffers while the
    caller works on block j, and a yielded block goes back to the producer
    when the generator resumes.  The producer touches nothing but the
    generators, which the caller made, and the buffers; its exception is
    raised in the caller, and closing the generator, exhausted or not,
    stops and joins it.  ``standard_normal`` releases the GIL while it
    fills a block, so the draws overlap the caller's value queries when
    the producer runs on another CPU.  It is placed on the process's CPUs
    other than the caller's (see ``_other_cpus``): a kernel need not move
    a new thread off its parent's CPU, and then the two take turns.
    """
    k, blocks = len(rngs), -(-n // rows)
    bufs = np.empty((min(blocks, 2), k * min(rows, n) * d))

    def block(j):
        m = min(rows, n - j * rows)
        return bufs[j % 2, :k * m * d].reshape(k, m, d)

    def draw(j):
        for rng, run_u in zip(rngs, block(j)):
            rng.standard_normal(out=run_u)

    if blocks == 1:
        draw(0)
        yield block(0)
        return
    free, drawn = threading.Semaphore(2), threading.Semaphore(0)
    stop, errors = threading.Event(), []
    cpus = _other_cpus()

    def produce():
        if cpus:
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:  # the draws then share the caller's CPUs
                pass
        try:
            for j in range(blocks):
                free.acquire()
                if stop.is_set():
                    return
                draw(j)
                drawn.release()
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)
            drawn.release()

    producer = threading.Thread(target=produce, name="zo-directions", daemon=True)
    producer.start()
    try:
        for j in range(blocks):
            drawn.acquire()
            if errors:
                raise errors[0]
            yield block(j)
            free.release()
    finally:
        stop.set()
        free.release()
        producer.join()


def _other_cpus() -> set:
    """The CPUs this process may run on, less the calling thread's; empty
    where the platform reports neither."""
    try:
        allowed = os.sched_getaffinity(0)
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):  # not Linux, or a C library without sched_getcpu
        return set()
    getcpu.argtypes, getcpu.restype = (), ctypes.c_int
    return allowed - {getcpu()}


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

    Requires at least one point, every point to have a nonvanishing true
    gradient (the ratio is undefined otherwise) and enough trials for a
    meaningful mean.
    """
    if trials < 1_000:
        raise ConfigurationError(f"need trials >= 1000, got {trials}")
    if not p.has_grad_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no gradient oracle")
    best = None
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
        if best is None or ratio > best.rho_hat:
            best = RhoEstimate(ratio, se)
    if best is None:
        raise ConfigurationError("estimate_sgc_rho needs at least one point")
    return best


def grad_minibatch_trials(
    p: StochasticProblem,
    x: np.ndarray,
    n1: int,
    trials: int,
    stream: SeedStream,
) -> np.ndarray:
    """(trials, d) minibatch gradient means for Monte-Carlo moment checks.

    Trial ``k`` is ``fo_gradient(p, x, n1, stream.child("trial", k)).g``;
    all trials share one oracle call, as the runs of a group do.
    """
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    trial_streams = SeedStream.block(fold_int_states(stream.child("trial").state, np.arange(trials)))
    return fo_gradient(p, x, n1, trial_streams).g


def hess_minibatch_trials(
    p: StochasticProblem,
    x: np.ndarray,
    n2: int,
    trials: int,
    stream: SeedStream,
) -> np.ndarray:
    """(trials, d, d) minibatch Hessian means for Monte-Carlo moment checks.

    Trial ``k`` is ``so_hessian(p, x, n2, stream.child("trial", k)).H``, one
    call per trial: a block of all trials would hold trials * n2 Hessians.
    """
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    return np.stack([so_hessian(p, x, n2, stream.child("trial", k)).H for k in range(trials)])
