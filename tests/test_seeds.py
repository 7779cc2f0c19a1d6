import numpy as np

from saddlescape.seeds import SeedStream, mix64, mix64_array, standard_normals, uniform01

GAMMA = 0x9E3779B97F4A7C15


def test_splitmix64_reference_vectors():
    # first outputs of the reference splitmix64 generator seeded with 0
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(GAMMA) == 0x6E789E6AA1B965F4
    assert mix64((2 * GAMMA) & ((1 << 64) - 1)) == 0x06C45D188009454F


def test_vectorized_mix_matches_scalar():
    vals = np.array([0, 1, 2, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
    out = mix64_array(vals)
    for v, o in zip(vals.tolist(), out.tolist()):
        assert mix64(v) == o


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


def test_rng_reproducible():
    a = SeedStream(11, "theta").rng().standard_normal(5)
    b = SeedStream(11, "theta").rng().standard_normal(5)
    assert np.array_equal(a, b)
