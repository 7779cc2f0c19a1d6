import dataclasses
import math

import numpy as np
import pytest

from saddlescape.errors import ConfigurationError
from saddlescape.problems import (
    ProblemMetadata,
    RaggedBatch,
    clamp_to_box,
    make_additive_noise_variant,
    make_multiplicative_saddle,
    make_phase_retrieval,
    problem_from_config,
)
from saddlescape.seeds import SeedStream


def _central_diff_grad(f, x, h=1e-5):
    """Central differences of f at x: its gradient, or the Jacobian of a vector f."""
    return np.stack([(f(x + e) - f(x - e)) / (2 * h) for e in h * np.eye(x.size)], axis=-1)


# ---------------------------------------------------------------------------
# multiplicative family

def test_invalid_construction_rejected():
    with pytest.raises(ConfigurationError):
        make_multiplicative_saddle(d=3, neg_count=0, rho=2.0, quartic_coeff=0.0)
    with pytest.raises(ConfigurationError):
        make_multiplicative_saddle(d=3, neg_count=3, rho=2.0, quartic_coeff=0.0)
    with pytest.raises(ConfigurationError):
        make_multiplicative_saddle(d=3, neg_count=1, rho=0.5, quartic_coeff=0.0)


@pytest.mark.parametrize("field", ["L_G", "L_H", "f_star", "box_radius", "rho_true", "sigma2",
                                   "noise_sigma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_metadata_floats_must_be_finite(field, value):
    # NaN passes each comparison of the range checks: with L_H = NaN the
    # certificate's score kept sqrt(||g||) and certified a strict saddle
    meta = make_multiplicative_saddle(d=4, neg_count=1, rho=2.0, quartic_coeff=0.0).meta
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite, got "):
        dataclasses.replace(meta, **{field: value})


@pytest.mark.parametrize("key, value", [("rho", math.nan), ("rho", math.inf),
                                        ("quartic_coeff", math.nan), ("quartic_coeff", math.inf)])
def test_saddle_constants_must_be_finite(key, value):
    kwargs = {"d": 4, "neg_count": 1, "rho": 2.0, "quartic_coeff": 0.01, key: value}
    with pytest.raises(ConfigurationError, match=f"^{key} must be finite, got {value}$"):
        make_multiplicative_saddle(**kwargs)


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_noise_scale_must_be_finite(sigma):
    base = make_multiplicative_saddle(d=4, neg_count=1, rho=1.0, quartic_coeff=0.0)
    with pytest.raises(ConfigurationError, match=f"^sigma must be finite, got {sigma}$"):
        make_additive_noise_variant(base, sigma)


@pytest.mark.parametrize("q", [0.0, 0.01])
def test_unit_rho_samples_are_copies_of_the_rows(q):
    # at rho = 1 every multiplier is 1 and the samples are the rows of the
    # exact oracles, repeated, bit for bit: also at -0.0 and NaN entries
    p = make_multiplicative_saddle(d=5, neg_count=2, rho=1.0, quartic_coeff=q)
    pts = np.array([[-0.0, 0.0, -0.0, 1.5, -2.0],
                    [0.3, -0.0, np.nan, 0.0, -0.0],
                    [-0.0, -0.0, -0.0, -0.0, -0.0]])
    seeds = SeedStream(3).seeds(12)
    with np.errstate(invalid="ignore"):
        for sample, exact in ((p.sample_value_batch, p.exact_value),
                              (p.sample_grad_batch, p.exact_grad),
                              (p.sample_hess_batch, p.exact_hess)):
            want = np.repeat(exact(pts), 4, axis=0)
            got = sample(pts, seeds)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(got.view(np.uint64), (1.0 * want).view(np.uint64))


def test_deterministic_arm_matches_exact(quad_saddle_2d):
    p = quad_saddle_2d
    x = np.array([0.3, -1.2])
    for seed in (0, 1, 99, 2**40):
        assert np.array_equal(p.sample_grad(x, seed), p.exact_grad(x))
        assert p.sample_value(x, seed) == p.exact_value(x)
        assert np.array_equal(p.sample_hess(x, seed), p.exact_hess(x))


def test_analytic_quadratic_values(quad_saddle_2d):
    p = quad_saddle_2d
    x = np.array([1.0, 1.0])
    assert np.allclose(p.exact_grad(x), [-1.0, 1.0])
    assert np.allclose(p.exact_hess(x), np.diag([-1.0, 1.0]))
    assert p.exact_value(x) == 0.0


def test_sgc_holds_with_equality_analytically():
    # two-point law: E xi = 1, E xi^2 = rho, so E||xi grad f||^2 = rho ||grad f||^2
    for rho in (1.0, 2.0, 3.5):
        p = make_multiplicative_saddle(d=4, neg_count=2, rho=rho, quartic_coeff=0.0)
        x = np.array([0.5, -1.0, 2.0, 0.1])
        gf2 = np.linalg.norm(p.exact_grad(x)) ** 2
        if rho == 1.0:
            expected = gf2
        else:
            expected = (1.0 / rho) * rho**2 * gf2  # enumerate the two outcomes
        assert np.isclose(expected, rho * gf2)


def test_sgc_ratio_monte_carlo():
    p = make_multiplicative_saddle(d=2, neg_count=1, rho=2.0, quartic_coeff=0.0)
    x = np.array([1.0, 0.0])
    seeds = SeedStream(0).child("mc").seeds(100_000)
    g = p.sample_grad_batch(x, seeds)
    sq = (g * g).sum(axis=1) / np.linalg.norm(p.exact_grad(x)) ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - 2.0) <= 3 * se


def test_sample_mean_converges_to_exact():
    p = make_multiplicative_saddle(d=5, neg_count=1, rho=2.0, quartic_coeff=0.01)
    x = np.linspace(-1.0, 1.0, 5)
    seeds = SeedStream(1).child("unbias").seeds(100_000)
    g = p.sample_grad_batch(x, seeds)
    se = g.std(axis=0, ddof=1) / np.sqrt(len(seeds))
    assert np.all(np.abs(g.mean(axis=0) - p.exact_grad(x)) <= 3 * se + 1e-12)
    h = p.sample_hess_batch(x, seeds[:20_000]).mean(axis=0)
    assert np.abs(h - p.exact_hess(x)).max() < 0.05


def test_quartic_metadata_and_bounds():
    q, R = 0.01, 10.0
    p = make_multiplicative_saddle(d=10, neg_count=1, rho=2.0, quartic_coeff=q, box_radius=R)
    assert p.meta.f_star == -1.0 / (16 * q)
    # grid check of the lower bound along the escape axis
    xs = np.linspace(-R, R, 4001)
    vals = 0.5 * (-(xs**2)) + q * xs**4
    assert vals.min() >= p.meta.f_star - 1e-9
    # declared L_G / L_H are valid bounds over the box
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(10)
        x = x / np.linalg.norm(x) * R * rng.random()
        y = rng.standard_normal(10)
        y = y / np.linalg.norm(y) * R * rng.random()
        hx, hy = p.exact_hess(x), p.exact_hess(y)
        assert np.linalg.norm(hx, 2) <= p.meta.L_G + 1e-9
        assert np.linalg.norm(hx - hy, 2) <= p.meta.L_H * np.linalg.norm(x - y) + 1e-9


def test_exact_grad_matches_finite_differences():
    saddle = make_multiplicative_saddle(d=4, neg_count=2, rho=2.0, quartic_coeff=0.02)
    problems = [
        saddle,
        make_multiplicative_saddle(d=4, neg_count=1, rho=2.0, quartic_coeff=0.0),
        make_phase_retrieval(d=4, m=25, planted_seed=3),
        make_additive_noise_variant(saddle, sigma=0.5),
    ]
    rng = np.random.default_rng(7)
    for p in problems:
        for _ in range(10):
            x = rng.standard_normal(4)
            fd = _central_diff_grad(p.exact_value, x)
            assert np.abs(fd - p.exact_grad(x)).max() < 1e-5
            # certification reads exact_hess: it must be the derivative of exact_grad
            hess = p.exact_hess(x)
            scale = max(1.0, np.abs(hess).max())
            assert np.abs(_central_diff_grad(p.exact_grad, x) - hess).max() < 1e-6 * scale
            assert np.abs(hess - hess.T).max() <= 1e-14 * scale


def test_oracles_are_pure_functions_of_x_and_seed():
    p = make_multiplicative_saddle(d=3, neg_count=1, rho=2.0, quartic_coeff=0.01)
    x = np.array([0.7, -0.2, 1.4])
    seeds = SeedStream(9).seeds(64)
    direct = p.sample_grad_batch(x, seeds)
    shuffled = p.sample_grad_batch(x, seeds[::-1])[::-1]
    assert np.array_equal(direct, shuffled)
    again = np.stack([p.sample_grad(x, int(s)) for s in seeds])
    assert np.array_equal(direct, again)


@pytest.mark.parametrize("rho, sigma", [(2.0, 0.0), (1.0, 0.5)], ids=["saddle", "additive"])
def test_single_point_oracles_match_tiled_batch(rho, sigma):
    p = make_multiplicative_saddle(d=10, neg_count=1, rho=rho, quartic_coeff=0.008)
    if sigma:
        p = make_additive_noise_variant(p, sigma)
    rng = np.random.default_rng(3)
    for n in (1, 7, 1534):
        x = rng.uniform(-2.0, 2.0, 10)
        seeds = SeedStream(8).seeds(n)
        tiled = np.tile(x, (n, 1))
        grads = p.sample_grad_batch(tiled, seeds)
        hessians = p.sample_hess_batch(tiled, seeds)
        # a (d,) point, as an array or as any array-like, a tuple included
        for point in (x, list(x), tuple(x)):
            assert np.array_equal(p.sample_grad_batch(point, seeds), grads)
            assert np.array_equal(p.sample_hess_batch(point, seeds), hessians)
    with pytest.raises(ConfigurationError):
        p.sample_hess_batch(np.zeros(9), seeds)


# ---------------------------------------------------------------------------
# phase retrieval

def test_phase_retrieval_preconditions():
    with pytest.raises(ConfigurationError):
        make_phase_retrieval(d=5, m=4, planted_seed=0)
    with pytest.raises(ConfigurationError):
        make_phase_retrieval(d=5, m=20_000, planted_seed=0)


def _planted_signal(planted_seed, d):
    root = SeedStream(planted_seed, "phase_retrieval")
    xs = root.child("planted").rng().standard_normal(d)
    return xs / np.linalg.norm(xs)


def test_interpolation_is_exact():
    p = make_phase_retrieval(d=5, m=40, planted_seed=11)
    xs = _planted_signal(11, 5)
    for seed in range(100):
        assert np.all(p.sample_grad(xs, seed) == 0.0)
        assert np.all(p.sample_grad(-xs, seed) == 0.0)
    assert p.exact_value(xs) == 0.0


def test_phase_retrieval_closed_forms():
    d, m, planted_seed = 4, 30, 5
    p = make_phase_retrieval(d=d, m=m, planted_seed=planted_seed)
    # rebuild the measurement vector the way the constructor does
    root = SeedStream(planted_seed, "phase_retrieval")
    xs = _planted_signal(planted_seed, d)
    sensing = root.child("sensing").rng().standard_normal((m, d))
    b = np.square(np.einsum("nd,nd->n", np.broadcast_to(xs, sensing.shape), sensing))
    # closed forms at the two special points
    assert p.exact_value(xs) == 0.0
    assert p.exact_value(np.zeros(d)) == pytest.approx(np.mean(b**2) / 4.0, rel=1e-12)


def test_empirical_growth_ratio_finite_and_above_one():
    p = make_phase_retrieval(d=5, m=60, planted_seed=2)
    rng = np.random.default_rng(4)
    root = SeedStream(2, "phase_retrieval")
    sensing = root.child("sensing").rng().standard_normal((60, 5))
    xs = _planted_signal(2, 5)
    b = np.square(np.einsum("nd,nd->n", np.broadcast_to(xs, sensing.shape), sensing))
    for _ in range(20):
        x = rng.standard_normal(5)
        r = sensing @ x
        per_sample = ((r * r - b) * r)[:, None] * sensing  # full enumeration
        num = (per_sample**2).sum(axis=1).mean()
        den = np.linalg.norm(p.exact_grad(x)) ** 2
        ratio = num / den
        assert np.isfinite(ratio) and ratio >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# additive-noise variant

def test_sigma_zero_is_identity(sgc_saddle_10d):
    p = sgc_saddle_10d
    wrapped = make_additive_noise_variant(p, 0.0)
    x = np.linspace(-1, 1, 10)
    seeds = SeedStream(0).seeds(100)
    assert np.array_equal(wrapped.sample_grad_batch(x, seeds), p.sample_grad_batch(x, seeds))
    assert np.array_equal(wrapped.sample_value_batch(x, seeds), p.sample_value_batch(x, seeds))
    assert wrapped.meta.rho_true == p.meta.rho_true


def test_noise_floor_breaks_strong_growth():
    base = make_multiplicative_saddle(d=6, neg_count=1, rho=1.0, quartic_coeff=0.0)
    sigma = 0.7
    p = make_additive_noise_variant(base, sigma)
    assert p.meta.rho_true is None and p.meta.noise_sigma == sigma
    x = np.zeros(6)  # exact gradient vanishes here
    seeds = SeedStream(5).seeds(100_000)
    g = p.sample_grad_batch(x, seeds)
    # +-sigma entries: every sample, and so the mean, sits on the sigma^2 d floor
    second_moment = (g * g).sum(axis=1)
    assert np.allclose(second_moment, 6 * sigma**2, rtol=1e-12, atol=0)
    assert np.isclose(second_moment.mean(), 6 * sigma**2, rtol=1e-12, atol=0)


def test_additive_noise_is_unbiased():
    base = make_multiplicative_saddle(d=4, neg_count=1, rho=1.0, quartic_coeff=0.01)
    p = make_additive_noise_variant(base, 0.5)
    x = np.array([1.0, -0.5, 0.25, 1.5])
    seeds = SeedStream(8).seeds(100_000)
    g = p.sample_grad_batch(x, seeds)
    se = g.std(axis=0, ddof=1) / np.sqrt(len(seeds))
    assert np.all(np.abs(g.mean(axis=0) - p.exact_grad(x)) <= 3 * se)
    v = p.sample_value_batch(x, seeds)
    assert abs(v.mean() - p.exact_value(x)) <= 3 * v.std(ddof=1) / np.sqrt(len(seeds))


# ---------------------------------------------------------------------------
# config interface and utilities

def test_problem_from_config_roundtrip(tmp_path):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(
        "# benchmark saddle\n"
        "family = multiplicative_saddle\n"
        "dim = 10\n"
        "neg_count = 1\n"
        "rho = 2.0\n"
        "quartic_coeff = 0.008\n"
        "r_box = 10\n"
    )
    p = problem_from_config(cfg)
    assert p.meta.dim == 10 and p.meta.rho_true == 2.0
    p2 = problem_from_config({"family": "phase_retrieval", "dim": 4, "m": 16, "sigma": 0.3})
    assert p2.meta.noise_sigma == 0.3
    # a negative sigma would otherwise build the noiseless problem
    with pytest.raises(ConfigurationError, match="^sigma must be >= 0, got -0.5$"):
        problem_from_config({"family": "multiplicative_saddle", "dim": 4, "rho": 2.0,
                             "sigma": -0.5})

    with pytest.raises(ConfigurationError):
        problem_from_config({"family": "nope", "dim": 3})
    with pytest.raises(ConfigurationError):
        problem_from_config({"family": "phase_retrieval", "dim": 4})
    # a misspelt key would otherwise build the problem with that key's default
    with pytest.raises(ConfigurationError, match="unknown problem keys: quartic_coef, rh0$"):
        problem_from_config({"family": "multiplicative_saddle", "dim": 4,
                             "quartic_coef": 5.0, "rh0": 3})
    # a key of the other family would otherwise be ignored
    with pytest.raises(ConfigurationError,
                       match="^family phase_retrieval does not read problem keys: quartic_coeff, rho$"):
        problem_from_config({"family": "phase_retrieval", "dim": 4, "m": 20, "rho": 3.0,
                             "quartic_coeff": 5})


@pytest.mark.parametrize("key", ["rho", "quartic_coeff", "r_box", "sigma"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_problem_from_config_rejects_non_finite_numbers(key, value):
    raw = {"family": "multiplicative_saddle", "dim": 4, key: value}
    with pytest.raises(ConfigurationError, match=f"key '{key}'"):
        problem_from_config(raw)


def test_clamp_to_box():
    x = np.array([3.0, 4.0])
    assert np.allclose(clamp_to_box(x, 10.0), x)
    clamped = clamp_to_box(x, 1.0)
    assert np.isclose(np.linalg.norm(clamped), 1.0)
    assert np.allclose(clamped, x / 5.0)


# ---------------------------------------------------------------------------
# the batch-oracle contract: k points serve n seeds, n/k consecutive each,
# and the exact oracles of a (k, d) stack are the k one-point calls

_D = 4
_CONTRACT_PROBLEMS = {
    "saddle": make_multiplicative_saddle(d=_D, neg_count=1, rho=2.0, quartic_coeff=0.05),
    "saddle_quadratic": make_multiplicative_saddle(d=_D, neg_count=1, rho=2.0, quartic_coeff=0.0),
    "phase_retrieval": make_phase_retrieval(d=_D, m=32, planted_seed=1),
    "additive": make_additive_noise_variant(
        make_multiplicative_saddle(d=_D, neg_count=1, rho=1.0, quartic_coeff=0.05), 0.5),
    "saddle_rho1": make_multiplicative_saddle(d=_D, neg_count=1, rho=1.0, quartic_coeff=0.05),
}


@pytest.mark.parametrize("name", sorted(_CONTRACT_PROBLEMS))
def test_ragged_batch_is_the_per_row_calls(name):
    # a ragged batch (rows, counts) equals each row's own equal-split call on
    # its run of seeds, bit for bit: rows of -0.0 and NaN included, where
    # the rho = 1 saddle's samples are copies of their row
    p = _CONTRACT_PROBLEMS[name]
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.5, 1.5, (6, _D))
    pts[1] = -0.0
    pts[3, 2] = np.nan
    for counts in ([3, 1, 4, 0, 5, 2], [7, 7, 1, 1, 30, 2], np.array([1, 2, 3, 4, 5, 6], np.uint8)):
        seeds = SeedStream(len(counts)).seeds(int(np.sum(counts)))
        bounds = np.cumsum(np.concatenate([[0], counts])).tolist()
        with np.errstate(invalid="ignore"):
            for oracle in (p.sample_value_batch, p.sample_grad_batch, p.sample_hess_batch):
                ragged = oracle(RaggedBatch(pts, counts), seeds)
                own = np.concatenate([oracle(x, seeds[a:b])
                                      for x, a, b in zip(pts, bounds, bounds[1:]) if b > a])
                assert ragged.shape == own.shape and ragged.tobytes() == own.tobytes()


@pytest.mark.parametrize("name", sorted(_CONTRACT_PROBLEMS))
@pytest.mark.parametrize("counts, message", [
    ([2, 2], "a ragged batch needs one seed count per row: got counts of shape (2,) for 3 rows"),
    ([[2, 2, 2]], "a ragged batch needs one seed count per row: got counts of shape (1, 3) for 3 rows"),
    ([2, 2, 3], "seed counts add up to 7, not to the 6 seeds"),
    ([4, -1, 3], "seed counts must be >= 0, got -1"),
    ([2.0, 2.0, 2.0], "seed counts must be integers, got float64"),
    ([True, True, False], "seed counts must be integers, got bool"),
], ids=["short", "2d", "sum", "negative", "float", "bool"])
def test_ragged_batch_rejects_malformed_counts(name, counts, message):
    p = _CONTRACT_PROBLEMS[name]
    seeds = SeedStream(0).seeds(6)
    for oracle in (p.sample_value_batch, p.sample_grad_batch, p.sample_hess_batch):
        with pytest.raises(ConfigurationError) as raised:
            oracle(RaggedBatch(np.zeros((3, _D)), counts), seeds)
        assert str(raised.value) == message


@pytest.mark.parametrize("name", sorted(_CONTRACT_PROBLEMS))
def test_k_points_serve_consecutive_seeds(name):
    p = _CONTRACT_PROBLEMS[name]
    rng = np.random.default_rng(5)
    for k, n in [(1, 7), (3, 12), (4, 4), (5, 35)]:
        pts = rng.uniform(-1.5, 1.5, (k, _D))
        seeds = SeedStream(k).seeds(n)
        expanded = np.repeat(pts, n // k, axis=0)

        for exact, shape in ((p.exact_value, ()), (p.exact_grad, (_D,)), (p.exact_hess, (_D, _D))):
            stacked = exact(pts)
            assert stacked.shape == (k, *shape)
            assert np.array_equal(stacked, np.array([exact(x) for x in pts]))
        assert isinstance(p.exact_value(pts[0]), float)

        def own_calls(oracle):
            return np.concatenate([oracle(x, s) for x, s in zip(pts, seeds.reshape(k, -1))])

        for oracle in (p.sample_value_batch, p.sample_grad_batch, p.sample_hess_batch):
            assert np.array_equal(oracle(pts, seeds), oracle(expanded, seeds))
            assert np.array_equal(oracle(pts, seeds), own_calls(oracle))
        if name == "additive":  # xi = 1: the vectorised Hessians are the exact ones
            exact = np.repeat([p.exact_hess(x) for x in pts], n // k, axis=0)
            assert np.array_equal(p.sample_hess_batch(pts, seeds), exact)


_ROW_PROBLEMS = {  # d = 10, where a matrix-vector product over a batch rounds by position
    "saddle": make_multiplicative_saddle(d=10, neg_count=1, rho=2.0, quartic_coeff=0.008),
    "saddle_neg9": make_multiplicative_saddle(d=12, neg_count=9, rho=3.0, quartic_coeff=0.05),
    "phase_retrieval": make_phase_retrieval(d=10, m=64, planted_seed=3),
    "additive": make_additive_noise_variant(
        make_multiplicative_saddle(d=10, neg_count=1, rho=1.0, quartic_coeff=0.008), 0.5),
    # d >= 64, where a BLAS dot runs its unrolled kernel and not only its scalar tail
    "saddle_d67": make_multiplicative_saddle(d=67, neg_count=33, rho=2.0, quartic_coeff=0.004),
    "additive_d67": make_additive_noise_variant(
        make_multiplicative_saddle(d=67, neg_count=33, rho=2.0, quartic_coeff=0.004), 0.5),
}


@pytest.mark.parametrize("name", sorted(_ROW_PROBLEMS))
def test_every_row_equals_its_one_row_call(name):
    # the sampled oracles are pure in (x, seed): no row's bits depend on the
    # rest of the batch, including a single point that serves every seed
    p = _ROW_PROBLEMS[name]
    d = p.meta.dim
    rng = np.random.default_rng(11)
    batches = [(rng.uniform(-1.5, 1.5, (n, d)), SeedStream(n).seeds(n))
               for n in rng.integers(1, 40, 30).tolist()]
    batches.append((np.linspace(-0.3, 0.5, d), SeedStream(8).seeds(257)))
    for pts, seeds in batches:
        rows = np.broadcast_to(pts, (len(seeds), d))
        for oracle in (p.sample_value_batch, p.sample_grad_batch, p.sample_hess_batch):
            batch = oracle(pts, seeds)
            for i, x in enumerate(rows):
                assert np.array_equal(batch[i], oracle(x[None, :], seeds[i:i + 1])[0]), (
                    f"{oracle.__name__} row {i} of {len(seeds)}")


def test_value_oracle_reuse_of_multipliers_is_pure():
    # the saddle's value oracle reuses its last call's multipliers only for
    # seeds equal element for element; every call must match a fresh problem
    def make():
        return make_multiplicative_saddle(d=10, neg_count=2, rho=4.0, quartic_coeff=0.01)

    p = make()
    rng = np.random.default_rng(5)
    seeds, other = SeedStream(21).seeds(64), SeedStream(22).seeds(64)
    mutable = seeds.copy()
    calls = [seeds, seeds.copy(), other, mutable, "mutate", mutable, seeds.copy()]
    for call in calls:
        if isinstance(call, str):  # in place, after the oracle has seen this array
            mutable[::2] = other[::2]
            continue
        for points in (rng.uniform(-1, 1, (64, 10)), rng.uniform(-1, 1, (4, 10))):
            got = p.sample_value_batch(points, call)
            assert np.array_equal(got, make().sample_value_batch(points, call.copy()))
    # the mutated seeds changed some multiplier, so a stale reuse would show
    base = np.ones(10)
    assert not np.array_equal(make().sample_value_batch(base, seeds),
                              make().sample_value_batch(base, mutable))


@pytest.mark.parametrize("name", sorted(_CONTRACT_PROBLEMS))
def test_point_count_must_divide_seed_count(name):
    p = _CONTRACT_PROBLEMS[name]
    seeds = SeedStream(0).seeds(7)
    for oracle in (p.sample_value_batch, p.sample_grad_batch, p.sample_hess_batch):
        with pytest.raises(ConfigurationError, match="3 points cannot serve 7 seeds"):
            oracle(np.zeros((3, _D)), seeds)


@pytest.mark.parametrize("config", [
    {"family": "phase_retrieval", "dim": 4, "m": 16, "r_box": -2},
    {"family": "phase_retrieval", "dim": 4, "m": 16, "r_box": 0},
    {"family": "multiplicative_saddle", "dim": 4, "quartic_coeff": 0.1, "r_box": 0},
    {"family": "multiplicative_saddle", "dim": 4, "r_box": -1},
], ids=["phase_retrieval_negative", "phase_retrieval_zero", "saddle_quartic_zero",
        "saddle_quadratic_negative"])
def test_non_positive_r_box_is_named_with_its_value(config):
    message = f"r_box must be positive, got {float(config['r_box'])}"
    with pytest.raises(ConfigurationError) as excinfo:
        problem_from_config(config)
    assert str(excinfo.value) == message
