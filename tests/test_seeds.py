import numpy as np
import pytest

from saddlescape import seeds as seeds_module
from saddlescape.seeds import (
    TAG_NORMAL,
    TAG_SEQ,
    TAG_U01,
    SeedStream,
    fold_int_states,
    fold_label_states,
    mix64_array,
    ragged_seeds,
    random_signs,
    standard_normals,
    uniform01,
)

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
NOISE_TAGS = (0x61C88646F8A2D30B, 0xD6E8FEB86659FD93)  # the additive-noise value and gradient tags


# Out-of-place reference of the counter-based streams, written from their
# defining formulas: every result below must match it bit for bit.

def _ref_mix(z):
    z = np.asarray(z, dtype=np.uint64)
    z = z + np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def _ref_seeds(state, n, start=0):
    idx = np.arange(start, start + n, dtype=np.uint64)
    return _ref_mix(_ref_mix(idx ^ np.uint64(TAG_SEQ)) ^ np.uint64(state))


def _ref_uniform01(seeds, tag=TAG_U01):
    h = _ref_mix(np.asarray(seeds, dtype=np.uint64) ^ np.uint64(tag))
    return ((h >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def _ref_standard_normals(seeds, dim):
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) ^ np.uint64(TAG_NORMAL)
    cols = np.arange(dim, dtype=np.uint64).reshape(1, -1)
    h1 = _ref_mix(s + _ref_mix(np.uint64(2) * cols))
    h2 = _ref_mix(s + _ref_mix(np.uint64(2) * cols + np.uint64(1)))
    u1 = ((h1 >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (h2 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _ref_random_signs(seeds, dim, tag):
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1) ^ np.uint64(tag)
    words = _ref_mix(np.arange((dim + 63) // 64, dtype=np.uint64) ^ np.uint64(TAG_SEQ))
    h = _ref_mix(s + words)
    cols = np.arange(dim)
    bits = (h[:, cols // 64] >> (cols % 64).astype(np.uint64)) & np.uint64(1)
    return np.where(bits == 1, -1.0, 1.0)


def test_splitmix64_reference_vectors():
    # first outputs of the reference splitmix64 generator seeded with 0
    assert mix64_array([0, GAMMA, (2 * GAMMA) & ((1 << 64) - 1)]).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stream_children_are_deterministic_and_distinct():
    s = SeedStream(42)
    assert s.child("xi").state == SeedStream(42).child("xi").state
    assert s.child("xi").state != s.child("u").state
    assert s.child("step", 1).state != s.child("step", 2).state
    assert s.child("a", "b").state == s.child("a").child("b").state


def test_seed_blocks_are_prefix_stable():
    s = SeedStream(7).child("xi")
    assert np.array_equal(s.seeds(10)[:4], s.seeds(4))
    # a block that starts at an offset continues the same sequence
    assert np.array_equal(np.concatenate([s.seeds(4), s.seeds(6, 4)]), s.seeds(10))
    # distinct streams give distinct seed blocks
    assert not np.array_equal(SeedStream(7).child("xi").seeds(4), SeedStream(8).child("xi").seeds(4))


def test_uniform01_range_and_mean():
    u = uniform01(SeedStream(3).seeds(200_000))
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert abs(u.mean() - 0.5) < 3 * 0.2887 / np.sqrt(len(u))


def test_standard_normals_moments():
    z = standard_normals(SeedStream(5).seeds(100_000), 3)
    assert z.shape == (100_000, 3)
    assert np.abs(z.mean(axis=0)).max() < 3.5 / np.sqrt(len(z))
    assert np.abs(z.var(axis=0) - 1.0).max() < 5 * np.sqrt(2.0 / len(z))
    # row i depends only on seeds[i]
    z2 = standard_normals(SeedStream(5).seeds(10), 3)
    assert np.array_equal(z[:10], z2)


def test_random_signs_moments():
    seeds = SeedStream(5).seeds(200_000)
    n = len(seeds)
    col_sums = np.zeros(65)
    cross = 0.0
    for block in np.split(seeds, 4):  # rows depend on their own seed alone
        z = random_signs(block, 65, NOISE_TAGS[1])
        col_sums += z.sum(axis=0)
        cross += z[:, 63] @ z[:, 64]  # the last bit of word 0 against the first of word 1
    assert np.abs(col_sums / n).max() < 3.5 / np.sqrt(n)
    assert abs(cross / n) < 4 / np.sqrt(n)
    # row i depends only on seeds[i]
    z = random_signs(seeds[:10], 65, NOISE_TAGS[1])
    assert np.array_equal(random_signs(seeds[:3], 65, NOISE_TAGS[1]), z[:3])
    assert np.array_equal(random_signs(seeds[9::-1], 65, NOISE_TAGS[1]), z[::-1])


def test_rng_reproducible():
    a = SeedStream(11, "theta").rng().standard_normal(5)
    b = SeedStream(11, "theta").rng().standard_normal(5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 7, 1534, 3277])
def test_streams_match_out_of_place_reference(n):
    stream = SeedStream(17).child("xi")
    for start in (0, 5):
        assert np.array_equal(stream.seeds(n, start), _ref_seeds(stream.state, n, start))
    seeds = stream.seeds(n)
    assert np.array_equal(uniform01(seeds), _ref_uniform01(seeds))
    assert np.array_equal(uniform01(seeds, tag=0x7C1EDB4A93E2F015),
                          _ref_uniform01(seeds, tag=0x7C1EDB4A93E2F015))
    for dim in (1, 10):
        z = standard_normals(seeds, dim)
        assert z.shape == (n, dim) and z.dtype == np.float64 and z.flags.c_contiguous
        assert np.array_equal(z, _ref_standard_normals(seeds, dim))
    for dim in (1, 10, 63, 64, 65, 130):  # d > 64 takes more than one hash per seed
        for tag in NOISE_TAGS:
            z = random_signs(seeds, dim, tag)
            assert z.shape == (n, dim) and z.dtype == np.float64 and z.flags.c_contiguous
            assert np.all(np.abs(z) == 1.0)
            assert np.array_equal(z, _ref_random_signs(seeds, dim, tag))
    states = fold_int_states(stream.state, np.arange(n))
    assert np.array_equal(states, _ref_mix(np.uint64(stream.state) ^ _ref_mix(np.arange(n))))
    assert fold_label_states(states[:3], "xi").tolist() == [
        stream.child(k, "xi").state for k in range(min(n, 3))]
    grid = SeedStream.block(states[:3]).seeds(4)
    assert np.array_equal(grid, [_ref_seeds(s, 4) for s in states[:3].tolist()])


def test_cached_index_hashes_give_the_uncached_seeds():
    stream = SeedStream(23).child("xi")
    for n in (1, 12, 4096, 4097):
        for start in (0, 3):
            for _ in range(2):  # the second call of a short block from 0 reads the cache
                got = stream.seeds(n, start)
                assert np.array_equal(got, _ref_seeds(stream.state, n, start))
                got[:] = 0  # the caller owns its seeds; the cache stays intact
        assert np.array_equal(SeedStream.block([stream.state, 5]).seeds(n),
                              [_ref_seeds(stream.state, n), _ref_seeds(5, n)])
    cached = seeds_module._first_hashes(0, 12)
    assert cached is seeds_module._first_hashes(0, 12)
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 1


def test_seeds_literal_values():
    # pins the seed derivation itself, not just its agreement with a reference
    assert SeedStream(0).seeds(4).tolist() == [
        0xE7871040690FB5F7, 0x30E2A3A534C1A7C3, 0xA1164AAA032CCC68, 0x75D66BBFFBB2A394,
    ]
    assert SeedStream(0).seeds(2, 5).tolist() == [0x6B83D8BDC53D871F, 0xD66D4265D454937F]


def test_rng_is_default_rng_of_the_state():
    stream = SeedStream(11, "theta")
    expected = np.random.default_rng(stream.state)
    got = stream.rng()
    assert np.array_equal(got.standard_normal(50), expected.standard_normal(50))
    assert np.array_equal(got.integers(1, 1000, 20), expected.integers(1, 1000, 20))


def test_kernels_leave_their_input_unchanged():
    seeds = SeedStream(3).seeds(64)
    kept = seeds.copy()
    mix64_array(seeds)
    uniform01(seeds)
    standard_normals(seeds, 10)
    random_signs(seeds, 70, NOISE_TAGS[0])
    fold_int_states(5, seeds)
    fold_label_states(seeds, "u")
    SeedStream.block(seeds).seeds(3)
    assert np.array_equal(seeds, kept)


def test_ragged_seeds_concatenate_each_streams_own_seeds():
    # runs of streams that take their own counts, the longest past the cached
    # index hashes: the one buffer holds each stream's seeds(n), in order
    block = SeedStream(list(range(7))).child("xi")
    runs = [(2, 3), (1, 1), (3, 5000), (1, 3)]
    sizes = [n for m, n in runs for _ in range(m)]
    expected = np.concatenate([node.seeds(n) for node, n in zip(block.nodes(), sizes)])
    assert np.array_equal(ragged_seeds(block.state, runs), expected)


def test_block_derives_each_node_as_its_own_stream():
    nodes = [SeedStream(s, "psgd").child("step") for s in (0, 7, 2**40)]
    block = SeedStream.block([node.state for node in nodes])
    assert block.state.ndim == 1 and nodes[0].state.ndim == 0
    for path in [(5,), ("xi",), (3, "theta"), (np.int64(9), "u")]:
        assert block.child(*path).state.tolist() == [node.child(*path).state for node in nodes]
    assert np.array_equal(block.child(4, "xi").seeds(6, 2),
                          [node.child(4, "xi").seeds(6, 2) for node in nodes])
    assert [n.state for n in block.child("u").nodes()] == [n.child("u").state for n in nodes]
    assert nodes[0].nodes() == [nodes[0]]
    # the integer steps of many nodes fold in one broadcast call
    states = fold_int_states(block.state[None, :], np.arange(1, 4)[:, None])
    assert states.tolist() == [[node.child(k).state for node in nodes] for k in (1, 2, 3)]
    with pytest.raises(TypeError, match="nodes"):
        block.rng()
    with pytest.raises(TypeError):
        block.child(1.5)


def test_entropy_sequence_derives_the_block_of_their_nodes():
    entropies = [0, 7, -1, 2**63, 2**64 + 5, 2**70 + 3]
    for path in [(), ("psgd",), ("psgd", "step"), ("cell", -2, 2**64 - 1)]:
        block = SeedStream(entropies, *path)
        nodes = [SeedStream(e, *path) for e in entropies]
        assert block.state.dtype == np.uint64 and block.state.shape == (len(entropies),)
        assert block.state.tolist() == [node.state for node in nodes]
        assert [node.state for node in block.nodes()] == [node.state for node in nodes]
    reduced = np.array([e % 2**64 for e in entropies], dtype=np.uint64)
    assert np.array_equal(SeedStream(entropies).state, _ref_mix(reduced))
    # entropies and steps are taken modulo 2^64
    assert SeedStream(-1).state == SeedStream(2**64 - 1).state
    assert SeedStream(5).state == SeedStream(2**64 + 5).state
    assert SeedStream(0, -1).state == SeedStream(0, 2**64 - 1).state


def test_node_state_is_a_hashable_uint64_equal_to_its_int():
    node = SeedStream(11, "theta")
    assert type(node.state) is np.uint64
    assert node.state == int(node.state) and hash(node.state) == hash(int(node.state))
    assert node.child(3).state == SeedStream(11, "theta", 3).state
