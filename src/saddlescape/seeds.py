"""Deterministic seed streams and counter-based sampling primitives.

Every stochastic oracle in this package is a pure function of ``(x, seed)``:
a 64-bit seed is hashed (splitmix64 finalizer) into uniforms, normals or signs, so
the same seed always yields the same sample, independent of call order or
process.  ``SeedStream`` organizes seeds hierarchically: a stream is an
immutable 64-bit state, ``child(*steps)`` derives an independent stream, and
``seeds(n)`` derives a block of oracle seeds.  A stream block holds the
states of several streams that advance together (the seeds of one run
group), and derives each one's children and seeds exactly as its own stream
would; a single stream is a block of shape ().  Every derivation runs on
uint64 arrays, for one stream and for a block alike.  Streams never mutate,
so batches may be evaluated in any order (or in parallel) with identical
results.

Splitting by label is what keeps paired experiments comparable: a first-order
and a zeroth-order run with the same master seed consume the same noise-seed
("xi") sequence, while Gaussian directions come from a separate "u" child.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# domain-separation tags for oracle randomness
TAG_SEQ = 0x5EED5EED5EED5EED
TAG_U01 = 0xA511E9B3D1C6A127
TAG_NORMAL = 0x8B72E0F355D1E3A9


# the array kernels' constants, built once as 0-d uint64 arrays: a cheaper
# ufunc operand than an np.uint64 scalar
_GAMMA_U64, _MIX1_U64, _MIX2_U64, _TAG_SEQ_U64, _SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = (
    np.array(v, dtype=np.uint64) for v in (_GAMMA, _MIX1, _MIX2, TAG_SEQ, 11, 27, 30, 31))


def _mix_inplace(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array the caller owns."""
    z += _GAMMA_U64
    z ^= z >> _SHIFT30
    z *= _MIX1_U64
    z ^= z >> _SHIFT27
    z *= _MIX2_U64
    z ^= z >> _SHIFT31
    return z


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; input is converted to uint64 and left unchanged."""
    return _mix_inplace(np.array(z, dtype=np.uint64))


@functools.lru_cache(maxsize=256)
def _label_hash(label: str) -> int:
    h = _FNV_OFFSET
    for b in label.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h


def fold_int_states(states, ks) -> np.ndarray:
    """Vectorized ``child(k).state``: the states and integer steps broadcast.

    Bit-identical to ``SeedStream(...).child(k)`` looped over both.
    """
    return mix64_array(np.asarray(states, dtype=np.uint64) ^ mix64_array(ks))


def fold_label_states(states: np.ndarray, label: str) -> np.ndarray:
    """Vectorized ``child(label).state`` applied to an array of states."""
    return mix64_array(np.asarray(states, dtype=np.uint64) ^ np.uint64(_label_hash(label)))


def _index_hashes(start: int, n: int) -> np.ndarray:
    """Stream-independent first hash of the seed indices ``start .. start + n - 1``."""
    z = np.arange(start, start + n, dtype=np.uint64)
    z ^= _TAG_SEQ_U64
    return _mix_inplace(z)


_CACHED_INDEX_MAX = 1 << 12  # longest cached hash block: 32 KiB, so the cache stays under 2 MiB


@functools.lru_cache(maxsize=64)
def _leading_index_hashes(n: int) -> np.ndarray:
    """Read-only ``_index_hashes(0, n)``; ``_first_hashes`` caches only n <= _CACHED_INDEX_MAX."""
    h = _index_hashes(0, n)
    h.flags.writeable = False
    return h


def _first_hashes(start: int, n: int) -> np.ndarray:
    """``_index_hashes(start, n)``, from the cache for short blocks from index 0.

    The result may be the cached array itself: read it, never write to it.
    """
    if start == 0 and n <= _CACHED_INDEX_MAX:
        return _leading_index_hashes(n)
    return _index_hashes(start, n)


def _fold(states, path):
    """The states of ``child(*path)`` of the streams whose states are
    ``states``: an ``np.uint64`` for one stream, a uint64 array for a block."""
    for token in path:
        if isinstance(token, str):
            states = fold_label_states(states, token)
        elif isinstance(token, (int, np.integer)):
            states = fold_int_states(states, int(token) & _MASK)
        else:
            raise TypeError(f"seed path steps must be int or str, got {type(token)!r}")
    return states[()]


class SeedStream:
    """Immutable node in a deterministic seed tree, or a block of nodes.

    A node's ``state`` is an ``np.uint64``: a block of shape ().  A block
    holds the (k,) uint64 states of k nodes: its ``child`` is the block of
    their children, its ``seeds(n)`` the (k, n) grid of their seeds, and
    ``nodes()`` gives the nodes back one by one.  ``SeedStream(entropy,
    *path)`` is the node of an int entropy; a sequence of entropies gives
    the block of their nodes, derived in one pass.  Int entropies and steps
    are taken modulo 2^64.
    """

    __slots__ = ("state",)

    def __init__(self, entropy, *path):
        ints = ([int(e) & _MASK for e in entropy] if np.ndim(entropy)
                else int(entropy) & _MASK)
        self.state = _fold(mix64_array(ints), path)

    @staticmethod
    def block(states) -> "SeedStream":
        """The block of the streams whose states are ``states``, in order."""
        return _stream(np.array(states, dtype=np.uint64).reshape(-1))

    def child(self, *path) -> "SeedStream":
        return _stream(_fold(self.state, path))

    def nodes(self) -> list:
        """The streams of a block in order; a node's is ``[self]``."""
        return [_stream(state) for state in self.state] if self.state.ndim else [self]

    def seeds(self, n: int, start: int = 0) -> np.ndarray:
        """Oracle seeds ``start .. start + n - 1`` (uint64) of this stream,
        or of each stream of a block as the rows of a (k, n) grid.

        Seed ``i`` is a pure function of (stream, i), so ``seeds(n)`` equals
        ``seeds(k)`` followed by ``seeds(n - k, k)``: a batch can be derived
        block by block.
        """
        return _mix_inplace(_first_hashes(start, n) ^ self.state[..., None])

    def rng(self) -> np.random.Generator:
        """PCG64 generator seeded with the state: the stream of ``default_rng(state)``.

        A block has no generator: take its ``nodes()`` one by one.
        """
        if self.state.ndim:
            raise TypeError("a SeedStream block has no rng(); call rng() on its nodes()")
        return np.random.Generator(np.random.PCG64(self.state))

    def __repr__(self):
        return f"SeedStream(state={self.state.tolist()})"


def ragged_seeds(states: np.ndarray, runs) -> np.ndarray:
    """The oracle seeds of a block's streams when each takes its own count,
    concatenated in stream order.

    ``states`` holds the streams' states and ``runs`` lists ``(m, n)``
    pairs: the next m streams take seeds ``0 .. n - 1`` each.  Equals the
    concatenated ``seeds(n)`` rows of each run of streams bit for bit, with
    one broadcast XOR per run into one buffer and one finalizer pass.
    """
    out = np.empty(sum(m * n for m, n in runs), dtype=np.uint64)
    pos = row = 0
    for m, n in runs:
        np.bitwise_xor(_first_hashes(0, n), states[row:row + m, None],
                       out=out[pos:pos + m * n].reshape(m, n))
        pos, row = pos + m * n, row + m
    return _mix_inplace(out)


def _stream(state) -> SeedStream:
    """The stream, or block of streams, whose state is ``state``."""
    s = SeedStream.__new__(SeedStream)
    s.state = state
    return s


def uniform01(seeds: np.ndarray, tag: int = TAG_U01) -> np.ndarray:
    """Uniforms in (0, 1], one per seed."""
    h = np.array(seeds, dtype=np.uint64)
    h ^= np.uint64(tag)
    return ((_mix_inplace(h) >> _SHIFT11).astype(np.float64) + 1.0) * 2.0**-53


@functools.lru_cache(maxsize=64)
def _column_hashes(dim: int) -> np.ndarray:
    """(2, 1, dim) read-only hashes of the column counters 2j (row 0) and 2j + 1 (row 1)."""
    j = np.arange(dim, dtype=np.uint64)
    h = _mix_inplace(np.stack([j + j, j + j + np.uint64(1)]))
    h.flags.writeable = False
    return h[:, None, :]


def standard_normals(seeds: np.ndarray, dim: int) -> np.ndarray:
    """(n, dim) standard normals, row i a pure function of seeds[i].

    Box-Muller on hashed uniforms; two hashes per normal.  Both uniforms of
    every entry are hashed in one ``(2, n, dim)`` pass: u1 = (h1 + 1) 2^-53
    in (0, 1] from counter 2j, u2 = h2 2^-53 in [0, 1) from counter 2j + 1,
    with h the top 53 bits of the hash.
    """
    s = np.array(seeds, dtype=np.uint64).reshape(1, -1, 1)
    s ^= np.uint64(TAG_NORMAL)
    h = _mix_inplace(s + _column_hashes(dim))
    h >>= _SHIFT11
    u = h.astype(np.float64)
    u1, u2 = u
    u1 += 1.0
    u *= 2.0**-53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def random_signs(seeds: np.ndarray, dim: int, tag: int) -> np.ndarray:
    """(n, dim) entries of exactly +1.0 or -1.0, row i a pure function of seeds[i].

    One hash gives 64 signs: seed s hashes counter words w = 0 .. ceil(dim/64) - 1
    into mix64((s ^ tag) + c_w), with c_w the cached index hash of w, and entry j
    is -1.0 where bit j mod 64 of word j // 64 is set.  The words are read as
    little-endian bytes, so the bit order does not depend on the host.
    """
    s = np.array(seeds, dtype=np.uint64).reshape(-1, 1)
    s ^= np.uint64(tag)
    h = _mix_inplace(s + _first_hashes(0, -(-dim // 64)))
    bits = np.unpackbits(h.astype("<u8", copy=False).view(np.uint8), axis=1, count=dim,
                         bitorder="little")
    signs = bits.astype(np.float64)
    signs *= -2.0
    signs += 1.0
    return signs
