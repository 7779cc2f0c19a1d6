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

The first- and second-order estimators take one batch size for all k runs
of a group or one per run.  They pack whole runs, in order, into sampled-
oracle calls of at most ``_BLOCK_BYTES`` of samples each (a run larger than
that has a call of its own), so their memory does not grow with k; the
runs of one call with unequal batch sizes go to the oracle as one ragged
batch, each run's point once with its seed count.  Both zeroth-order
estimators take the smoothing radius ``nu`` as an argument
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
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import CapabilityError, ConfigurationError
from .problems import RaggedBatch, StochasticProblem
from .seeds import SeedStream, fold_int_states, ragged_seeds

NU_FLOOR = 1e-12  # below this, forward differences are cancellation noise
_BLOCK_BYTES = 1 << 18  # bytes of directions, or of samples, per block or oracle call


@dataclass(frozen=True)
class GradEstimate:
    g: np.ndarray
    oracle_calls: Union[int, Sequence[int]]  # of each run: one count for all, or one per run


@dataclass(frozen=True)
class HessEstimate:
    H: np.ndarray
    oracle_calls: Union[int, Sequence[int]]


def fo_gradient(p: StochasticProblem, x: np.ndarray, n1, stream: SeedStream) -> GradEstimate:
    """Average of n1 sampled gradients; costs n1 oracle calls.

    With a block of k streams and a (k, d) ``x`` (or one (d,) point that
    all k runs share), row i of ``g`` is the estimate of run i at its
    point.  ``n1`` is one batch size for all k runs, or a sequence of k,
    one per run; ``oracle_calls`` is ``n1`` as given, the calls of each
    run.  The runs are packed whole into as few oracle calls as
    ``_BLOCK_BYTES`` allows (see ``_sampled_means``).

    Each entry of a run's sum adds its n1 samples in order, from +0.0, as
    ``sum(axis=-2)`` does on the C-ordered batches that every oracle here
    returns; at d = 1 it is ``sum``'s pairwise sum of the one column.
    """
    if not p.has_grad_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no gradient oracle")
    g = _sampled_means(p.sample_grad_batch, x, n1, stream.child("xi"), (p.meta.dim,), _grad_sums)
    return GradEstimate(g=g, oracle_calls=n1)


def _grad_sums(batch: np.ndarray) -> np.ndarray:
    """(m, d) column sums of an (m, n, d) batch of m runs' samples.

    einsum runs one inner loop per column where sum runs one per sample row,
    with the same additions in the same order.  A one-column batch is one
    contiguous run that sum adds pairwise and einsum would not, so it keeps
    sum.
    """
    return np.einsum("mnd->md", batch) if batch.shape[-1] > 1 else batch.sum(axis=1)


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


def so_hessian(p: StochasticProblem, x: np.ndarray, n2, stream: SeedStream) -> HessEstimate:
    """Average of n2 sampled Hessians, symmetrized; costs n2 calls.

    Takes a (k, d) ``x`` with a block of k streams, and one ``n2`` or one
    per run, as ``fo_gradient`` does.
    """
    if not p.has_hess_oracle:
        raise CapabilityError(f"problem {p.name!r} exposes no Hessian oracle")
    d = p.meta.dim
    h = _sampled_means(p.sample_hess_batch, x, n2, stream.child("xih"), (d, d),
                       lambda batch: batch.sum(axis=1))
    return HessEstimate(H=0.5 * (h + np.swapaxes(h, -1, -2)), oracle_calls=n2)


def _sampled_means(oracle, x, n, stream: SeedStream, shape: tuple, sums) -> np.ndarray:
    """Each run's mean of its n sampled-oracle samples, of ``shape`` each.

    ``stream`` is the node or the block of k streams whose seeds the runs
    draw, ``x`` the runs' (k, d) points or one (d,) point that all share,
    and ``n`` one batch size or k of them.  Run j's samples are
    ``oracle`` at its point with seeds ``0 .. n_j - 1`` of its stream,
    ``sums`` maps an (m, n, *shape) batch of m runs to their (m, *shape)
    sums, and the result holds ``sum / n_j`` for each run: of shape
    ``shape`` for one node, (k, *shape) for a block.  The runs go to the
    oracle in the calls of ``_packing``: runs of equal batch size take the
    (k, d) form, runs of unequal ones a ``RaggedBatch``.  A run's sum is
    never split across calls, so it keeps its order and its bits whatever
    else its call holds.
    """
    states = stream.state.reshape(-1)
    k = len(states)
    counts = (n,) * k if np.ndim(n) == 0 else tuple(n)
    if len(counts) != k:
        raise ConfigurationError(f"need one batch size per run, got {len(counts)} for {k} runs")
    if min(counts) < 1:
        raise ConfigurationError(f"batch sizes must be >= 1, got {min(counts)}")
    x = np.asarray(x, dtype=np.float64)
    means = np.empty((k,) + shape)
    for start, stop, runs, ragged in _packing(counts, 8 * math.prod(shape)):
        pts = x[start:stop] if x.ndim == 2 else x
        if ragged is not None:
            if x.ndim != 2:  # the shared point, once per run
                pts = np.broadcast_to(pts, (stop - start, x.shape[-1]))
            pts = RaggedBatch(pts, ragged)
        samples = oracle(pts, ragged_seeds(states[start:stop], runs))
        pos, row = 0, start
        for m, c in runs:
            batch = samples[pos:pos + m * c].reshape((m, c) + shape)
            np.divide(sums(batch), c, out=means[row:row + m])
            pos, row = pos + m * c, row + m
    return means.reshape(stream.state.shape + shape)


@functools.lru_cache(maxsize=64)
def _packing(counts: tuple, sample_bytes: int) -> tuple:
    """The oracle calls of runs with batch sizes ``counts``, in order.

    Whole runs are packed greedily into calls of at most ``_BLOCK_BYTES``
    of samples, and a run larger than that is a call of its own.  Each
    call is ``(start, stop, runs, ragged)``: its runs ``start .. stop - 1``,
    their ``(m, n)`` runs of equal batch size (see ``ragged_seeds``), and
    their read-only counts if they differ, else None.
    """
    limit = max(1, _BLOCK_BYTES // sample_bytes)
    bounds, start, total = [], 0, 0
    for j, c in enumerate(counts):
        if j > start and total + c > limit:
            bounds.append((start, j))
            start, total = j, 0
        total += c
    bounds.append((start, len(counts)))
    calls = []
    for start, stop in bounds:
        runs = tuple((len(list(group)), c) for c, group in itertools.groupby(counts[start:stop]))
        ragged = None
        if len(runs) > 1:
            ragged = np.array(counts[start:stop], dtype=np.int64)
            ragged.flags.writeable = False
        calls.append((start, stop, runs, ragged))
    return tuple(calls)


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
    the trials share as few oracle calls as ``fo_gradient``'s packing
    allows, as the runs of a group do.
    """
    return fo_gradient(p, x, n1, _trial_streams(stream, trials)).g


def hess_minibatch_trials(
    p: StochasticProblem,
    x: np.ndarray,
    n2: int,
    trials: int,
    stream: SeedStream,
) -> np.ndarray:
    """(trials, d, d) minibatch Hessian means for Monte-Carlo moment checks.

    Trial ``k`` is ``so_hessian(p, x, n2, stream.child("trial", k)).H``; the
    trials share as few oracle calls as ``so_hessian``'s packing allows.
    """
    return so_hessian(p, x, n2, _trial_streams(stream, trials)).H


def _trial_streams(stream: SeedStream, trials: int) -> SeedStream:
    """The block of the streams ``stream.child("trial", k)``, k < trials."""
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    return SeedStream.block(fold_int_states(stream.child("trial").state, np.arange(trials)))
