import dataclasses
import itertools
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import constant_problem, counting_problem, watched
from saddlescape.errors import CapabilityError, ConfigurationError
from saddlescape.estimators import (
    _BLOCK_BYTES,
    _block_rows,
    _direction_blocks,
    estimate_sgc_rho,
    fo_gradient,
    grad_minibatch_trials,
    hess_minibatch_trials,
    so_hessian,
    zo_gradient,
    zo_hessian,
)
from saddlescape.problems import (
    make_additive_noise_variant,
    make_multiplicative_saddle,
    make_phase_retrieval,
)
from saddlescape.seeds import SeedStream


def test_zo_config_validation():
    # both zeroth-order estimators reject a bad radius or batch before any oracle call
    p, counter = counting_problem(
        make_multiplicative_saddle(d=3, neg_count=1, rho=2.0, quartic_coeff=0.0))
    for estimator in (zo_gradient, zo_hessian):
        for nu, n, message in ((0.0, 4, "must be positive"), (-1e-3, 4, "must be positive"),
                               (1e-13, 4, "cancellation floor"), (0.1, 0, ">= 1")):
            with pytest.raises(ConfigurationError, match=message):
                estimator(p, np.zeros(3), nu, n, SeedStream(0))
    assert counter.total == 0


@pytest.mark.parametrize("n", [0, -1])
def test_zo_estimators_reject_no_directions(n):
    # zo_hessian sizes its block buffer from n2; the check must come first
    p, counter = counting_problem(
        make_multiplicative_saddle(d=3, neg_count=1, rho=2.0, quartic_coeff=0.0))
    for estimator in (zo_gradient, zo_hessian):
        with pytest.raises(ConfigurationError, match="must be >= 1"):
            estimator(p, np.zeros(3), 0.1, n, SeedStream(0))
    assert counter.total == 0


# ---------------------------------------------------------------------------
# first-order gradient

def test_fo_gradient_deterministic_arm(quad_saddle_2d):
    x = np.array([0.4, -0.9])
    est = fo_gradient(quad_saddle_2d, x, 1, SeedStream(0))
    assert np.array_equal(est.g, quad_saddle_2d.exact_grad(x))
    assert est.oracle_calls == 1


def test_fo_gradient_requires_oracle():
    with pytest.raises(CapabilityError):
        fo_gradient(constant_problem(3), np.zeros(3), 4, SeedStream(0))


def test_fo_gradient_zero_at_stationary_point():
    # strong growth: zero true gradient forces zero sample gradient a.s.
    p = make_multiplicative_saddle(d=4, neg_count=1, rho=2.0, quartic_coeff=0.0)
    for seed in range(32):
        est = fo_gradient(p, np.zeros(4), 3, SeedStream(seed))
        assert np.all(est.g == 0.0)


def test_variance_contraction_lemma():
    # E||mean of n1 sampled grads - grad f||^2 <= ((rho-1)/n1) ||grad f||^2,
    # with equality for the two-point multiplier law
    rho = 2.0
    p = make_multiplicative_saddle(d=10, neg_count=1, rho=rho, quartic_coeff=0.0)
    rng = np.random.default_rng(123)
    for k in range(10):
        x = rng.standard_normal(10)
        gf2 = np.linalg.norm(p.exact_grad(x)) ** 2
        for n1 in (1, 4, 16):
            trials = grad_minibatch_trials(p, x, n1, 20_000, SeedStream(1000 + k).child(n1))
            err2 = ((trials - p.exact_grad(x)) ** 2).sum(axis=1)
            se = err2.std(ddof=1) / np.sqrt(len(err2))
            bound = (rho - 1.0) / n1 * gf2
            # the two-point law attains the bound with equality; allow rounding
            assert err2.mean() <= bound * (1 + 1e-12) + 3 * se


def test_fo_variance_quarter_example():
    # rho=2, n1=4: relative minibatch variance is exactly 0.25
    p = make_multiplicative_saddle(d=3, neg_count=1, rho=2.0, quartic_coeff=0.0)
    x = np.array([1.0, 0.5, -0.5])
    gf2 = np.linalg.norm(p.exact_grad(x)) ** 2
    trials = grad_minibatch_trials(p, x, 4, 100_000, SeedStream(5))
    err2 = ((trials - p.exact_grad(x)) ** 2).sum(axis=1)
    se = err2.std(ddof=1) / np.sqrt(len(err2))
    assert abs(err2.mean() - 0.25 * gf2) <= 3 * se


def test_trials_helper_matches_estimator():
    p = make_multiplicative_saddle(d=3, neg_count=1, rho=2.0, quartic_coeff=0.01)
    x = np.array([0.2, 1.0, -0.7])
    stream = SeedStream(77)
    trials = grad_minibatch_trials(p, x, 8, 5, stream)
    hess_trials = hess_minibatch_trials(p, x, 6, 5, stream)
    for k in range(5):
        assert np.array_equal(fo_gradient(p, x, 8, stream.child("trial", k)).g, trials[k])
        assert np.array_equal(so_hessian(p, x, 6, stream.child("trial", k)).H, hess_trials[k])


# ---------------------------------------------------------------------------
# zeroth-order gradient

def test_zo_gradient_constant_function_is_zero():
    p = constant_problem(4)
    est = zo_gradient(p, np.ones(4), 0.05, 64, SeedStream(3))
    assert np.all(est.g == 0.0)
    assert est.oracle_calls == 128


def test_zo_gradient_unbiased_for_quadratics():
    # smoothing leaves quadratics' gradients untouched: grad f_nu == grad f
    p = make_multiplicative_saddle(d=5, neg_count=2, rho=1.0, quartic_coeff=0.0)
    x = np.linspace(-1, 1, 5)
    batches = np.stack([
        zo_gradient(p, x, 1e-3, 2_000, SeedStream(10).child(k)).g
        for k in range(50)
    ])
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
    assert np.all(np.abs(mean - p.exact_grad(x)) <= 3 * se + 1e-9)


def test_zo_gradient_smoothing_bias_bound():
    # || E g - grad f || <= (nu/2) L_G (d+3)^{3/2} on the quartic arm
    d, nu = 6, 0.05
    p = make_multiplicative_saddle(d=d, neg_count=1, rho=1.0, quartic_coeff=0.01)
    x = 0.4 * np.ones(d)
    batches = np.stack([
        zo_gradient(p, x, nu, 4_000, SeedStream(21).child(k)).g
        for k in range(40)
    ])
    mean = batches.mean(axis=0)
    se_norm = np.linalg.norm(batches.std(axis=0, ddof=1)) / np.sqrt(len(batches))
    bound = 0.5 * nu * p.meta.L_G * (d + 3) ** 1.5
    assert np.linalg.norm(mean - p.exact_grad(x)) <= bound + 3 * se_norm


def test_zo_gradient_second_moment_bound():
    # E||g - grad f||^2 <= ((rho'-1)/n1)||grad f||^2 + 1.5 nu^2 L_G(F)^2 (d+3)^3
    d, nu, rho, n1 = 4, 1e-3, 2.0, 8
    p = make_multiplicative_saddle(d=d, neg_count=1, rho=rho, quartic_coeff=0.0)
    x = np.array([0.8, -0.3, 0.5, 1.1])
    gf = p.exact_grad(x)
    sq = []
    for k in range(400):
        est = zo_gradient(p, x, nu, n1, SeedStream(31).child(k))
        sq.append(np.linalg.norm(est.g - gf) ** 2)
    sq = np.array(sq)
    rho_prime = 1.0 + 4.0 * (d + 5) * rho
    lip_sample = rho * p.meta.L_G  # a.s. gradient-Lipschitz constant of xi * f
    bound = (rho_prime - 1.0) / n1 * np.linalg.norm(gf) ** 2 + 1.5 * nu**2 * lip_sample**2 * (d + 3) ** 3
    assert sq.mean() + 3 * sq.std(ddof=1) / np.sqrt(len(sq)) <= bound


# ---------------------------------------------------------------------------
# Hessian estimators

def test_so_hessian_deterministic_arm(quad_saddle_2d):
    est = so_hessian(quad_saddle_2d, np.array([1.0, 2.0]), 3, SeedStream(0))
    assert np.array_equal(est.H, quad_saddle_2d.exact_hess([1.0, 2.0]))
    assert est.oracle_calls == 3


def test_so_hessian_requires_oracle():
    with pytest.raises(CapabilityError):
        so_hessian(constant_problem(2), np.zeros(2), 2, SeedStream(0))


def test_so_hessian_variance_bound():
    # E||H - hess f||_F^2 <= sigma2^2 / n2 with sigma2^2 = (rho-1)||A||_F^2
    rho, d, n2 = 2.0, 5, 10
    p = make_multiplicative_saddle(d=d, neg_count=2, rho=rho, quartic_coeff=0.0)
    x = np.linspace(0.1, 1.0, d)
    hf = p.exact_hess(x)
    trials = hess_minibatch_trials(p, x, n2, 4_000, SeedStream(12))
    err2 = ((trials - hf) ** 2).sum(axis=(1, 2))
    se = err2.std(ddof=1) / np.sqrt(len(err2))
    assert p.meta.sigma2**2 == pytest.approx((rho - 1.0) * d)
    assert err2.mean() <= p.meta.sigma2**2 / n2 + 3 * se


def test_so_hessian_error_scales_inverse_sqrt_n2():
    p = make_multiplicative_saddle(d=5, neg_count=1, rho=2.0, quartic_coeff=0.0)
    x = np.linspace(0.2, 1.2, 5)
    hf = p.exact_hess(x)
    sizes = (100, 1_000, 10_000)
    rms = []
    for n2 in sizes:
        trials = hess_minibatch_trials(p, x, n2, 80, SeedStream(40).child(n2))
        rms.append(np.sqrt(((trials - hf) ** 2).sum(axis=(1, 2)).mean()))
    slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
    assert abs(slope + 0.5) < 0.1


def test_zo_hessian_constant_function_is_zero():
    p = constant_problem(3)
    est = zo_hessian(p, np.zeros(3), 0.1, 32, SeedStream(1))
    assert np.all(est.H == 0.0)
    assert est.oracle_calls == 96


def test_zo_hessian_stein_identity_on_quadratic():
    # E[ (u'Au/2) (uu' - I) ] = A for symmetric A
    p = make_multiplicative_saddle(d=4, neg_count=2, rho=1.0, quartic_coeff=0.0)
    x = np.zeros(4)  # curvature term is exact at the origin for quadratics
    A = p.exact_hess(x)
    batches = np.stack([
        zo_hessian(p, x, 1e-2, 4_000, SeedStream(3).child(k)).H
        for k in range(40)
    ])
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
    assert np.all(np.abs(mean - A) <= 3 * se + 1e-9)
    assert np.array_equal(mean, mean.T)


def test_zo_hessian_operator_error_bound():
    # E||H - hess f||^2 <= 128(1+2log 2d)(d+16)^4 L_G^2/(3 n2) + 3 L_H^2 (d+16)^5 nu^2
    d, nu, n2 = 3, 1e-3, 50
    p = make_multiplicative_saddle(d=d, neg_count=1, rho=1.0, quartic_coeff=0.0)
    x = np.array([0.5, -0.2, 0.9])
    hf = p.exact_hess(x)
    sq = []
    for k in range(300):
        est = zo_hessian(p, x, nu, n2, SeedStream(8).child(k))
        sq.append(np.linalg.norm(est.H - hf, 2) ** 2)
    sq = np.array(sq)
    lip = p.meta.L_G
    bound = 128.0 * (1 + 2 * np.log(2 * d)) * (d + 16) ** 4 * lip**2 / (3 * n2)
    bound += 3.0 * p.meta.L_H**2 * (d + 16) ** 5 * nu**2
    assert sq.mean() + 3 * sq.std(ddof=1) / np.sqrt(len(sq)) <= bound


# ---------------------------------------------------------------------------
# growth-constant estimation

def test_rho_estimate_deterministic_arm_is_exactly_one(quad_saddle_2d):
    est = estimate_sgc_rho(quad_saddle_2d, [np.array([1.0, 1.0])], 1_000, SeedStream(0))
    assert est.rho_hat == 1.0 and est.stderr == 0.0


def test_rho_estimate_recovers_three():
    p = make_multiplicative_saddle(d=6, neg_count=2, rho=3.0, quartic_coeff=0.0)
    rng = np.random.default_rng(2)
    points = [rng.standard_normal(6) for _ in range(5)]
    est = estimate_sgc_rho(p, points, 100_000, SeedStream(17))
    assert 2.9 <= est.rho_hat <= 3.1


def test_rho_estimate_diverges_without_strong_growth():
    base = make_multiplicative_saddle(d=5, neg_count=1, rho=1.0, quartic_coeff=0.01)
    p = make_additive_noise_variant(base, 0.5)
    x = 1e-2 * np.ones(5)  # nearly stationary
    gf2 = np.linalg.norm(p.exact_grad(x)) ** 2
    est = estimate_sgc_rho(p, [x], 50_000, SeedStream(9))
    predicted = 1.0 + 0.25 * 5 / gf2  # sigma^2 d / ||grad f||^2
    assert est.rho_hat > 100.0
    assert est.rho_hat == pytest.approx(predicted, rel=0.1)


def test_rho_estimate_preconditions(quad_saddle_2d):
    with pytest.raises(ConfigurationError):
        estimate_sgc_rho(quad_saddle_2d, [np.zeros(2)], 1_000, SeedStream(0))
    with pytest.raises(ConfigurationError):
        estimate_sgc_rho(quad_saddle_2d, [np.ones(2)], 999, SeedStream(0))


def test_rho_estimate_rejects_no_points(quad_saddle_2d):
    with pytest.raises(ConfigurationError, match="at least one point"):
        estimate_sgc_rho(quad_saddle_2d, [], 1_000, SeedStream(0))


@pytest.mark.parametrize("trials", [0, -2])
def test_grad_trials_reject_no_trials(quad_saddle_2d, trials):
    with pytest.raises(ConfigurationError, match="trials >= 1"):
        grad_minibatch_trials(quad_saddle_2d, np.ones(2), 4, trials, SeedStream(0))


@pytest.mark.parametrize("trials", [0, -2])
def test_hess_trials_reject_no_trials(quad_saddle_2d, trials):
    with pytest.raises(ConfigurationError, match="trials >= 1"):
        hess_minibatch_trials(quad_saddle_2d, np.ones(2), 4, trials, SeedStream(0))


# ---------------------------------------------------------------------------
# oracle-call accounting and Gaussian moments

@watched
def test_oracle_call_accounting():
    base = make_multiplicative_saddle(d=4, neg_count=1, rho=2.0, quartic_coeff=0.01)
    x = 0.5 * np.ones(4)

    p, counter = counting_problem(base)
    est = fo_gradient(p, x, 7, SeedStream(0))
    assert est.oracle_calls == 7 == counter.grad

    p, counter = counting_problem(base)
    est = zo_gradient(p, x, 0.1, 5, SeedStream(0))
    assert est.oracle_calls == 10 == counter.value

    p, counter = counting_problem(base)
    est = so_hessian(p, x, 6, SeedStream(0))
    assert est.oracle_calls == 6 == counter.hess

    p, counter = counting_problem(base)
    est = zo_hessian(p, x, 0.1, 4, SeedStream(0))
    assert est.oracle_calls == 12 == counter.value

    # batches that span several streamed blocks
    n = 2 * _block_rows(4) + 5
    p, counter = counting_problem(base)
    est = zo_gradient(p, x, 0.1, n, SeedStream(0))
    assert est.oracle_calls == 2 * n == counter.value

    p, counter = counting_problem(base)
    est = zo_hessian(p, x, 0.1, n + 1, SeedStream(0))
    assert est.oracle_calls == 3 * (n + 1) == counter.value


def test_gaussian_norm_moment_bound():
    # E||u||^k <= (d+k)^{k/2} for standard normal u
    for d in (2, 10):
        u = SeedStream(99).child(d).rng().standard_normal((200_000, d))
        norms = np.linalg.norm(u, axis=1)
        for k in (1, 2, 3, 4):
            assert (norms**k).mean() <= (d + k) ** (k / 2.0)


def test_paired_noise_seeds_across_modes():
    # fo and zo consume the same xi-seed block from a shared stream
    stream = SeedStream(123).child("step", 4)
    assert np.array_equal(stream.child("xi").seeds(6), stream.child("xi").seeds(6))
    p = make_multiplicative_saddle(d=3, neg_count=1, rho=2.0, quartic_coeff=0.0)
    a = zo_gradient(p, np.ones(3), 0.01, 6, stream)
    b = zo_gradient(p, np.ones(3), 0.01, 6, stream)
    assert np.array_equal(a.g, b.g)


# ---------------------------------------------------------------------------
# streamed zeroth-order estimation

def _one_block_reference(p, x, nu, n, stream, label):
    """The zeroth-order estimators with every direction drawn at once."""
    seeds = stream.child("xi" + label).seeds(n)
    u = stream.child("u" + label).rng().standard_normal((n, p.meta.dim))
    f_plus = p.sample_value_batch(x + nu * u, seeds)
    f_base = p.sample_value_batch(x, seeds)
    if not label:
        return ((f_plus - f_base) / nu) @ u / n
    f_minus = p.sample_value_batch(x - nu * u, seeds)
    curv = (f_plus + f_minus - 2.0 * f_base) / (2.0 * nu * nu)
    h = np.einsum("n,ni,nj->ij", curv, u, u) / n - curv.mean() * np.eye(p.meta.dim)
    return 0.5 * (h + h.T)


@pytest.mark.parametrize("offset", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                         ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+7"])
@watched
def test_streamed_estimators_match_one_block(offset):
    d = 4
    p = make_multiplicative_saddle(d=d, neg_count=1, rho=2.0, quartic_coeff=0.01)
    n = offset[0] * _block_rows(d) + offset[1]
    x = np.array([0.3, -0.8, 0.5, 0.1])
    stream = SeedStream(61).child(n)
    nu = 0.05
    for est, label in ((zo_gradient(p, x, nu, n, stream).g, ""),
                       (zo_hessian(p, x, nu, n, stream).H, "h")):
        ref = _one_block_reference(p, x, nu, n, stream, label)
        np.testing.assert_allclose(est, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@watched
def test_zo_hessian_memory_does_not_grow_with_n2(sgc_saddle_10d):
    # the (n2, d) direction array of one run alone would take 84 MB; a run
    # holds two direction blocks and one block of each other buffer, and a
    # group of k runs holds those of each run, so its bound is k times one's
    for point, stream in ((0.1 * np.ones(10), SeedStream(4)),
                          (0.1 * np.ones((3, 10)), SeedStream.block([4, 5, 6]))):
        tracemalloc.start()
        try:
            zo_hessian(sgc_saddle_10d, point, 1e-3, 2**20, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(stream.nodes()) * 32e6


@pytest.mark.parametrize("blocks", [(1, 0), (2, 0), (3, 7)], ids=["1block", "2blocks", "3blocks+7"])
@pytest.mark.parametrize("k", [1, 3])
@watched
def test_direction_blocks_concatenate_to_one_shot_draws(blocks, k):
    # every yielded block, copied before the generator resumes, is the next
    # slice of each run's one-shot directions and differences, bit for bit
    d = 4
    p = make_multiplicative_saddle(d=d, neg_count=1, rho=2.0, quartic_coeff=0.01)
    n = blocks[0] * _block_rows(d) + blocks[1]
    runs = [SeedStream(71).child("run", i) for i in range(k)]
    stream = runs[0] if k == 1 else SeedStream.block([run.state for run in runs])
    points = np.array([0.3, -0.8, 0.5, 0.1]) + 0.1 * np.arange(k)[:, None]
    x = points[0] if k == 1 else points
    nu = 0.05
    for central in (False, True):
        copies = [(u.copy(), diff.copy()) for u, diff in _direction_blocks(
            p, x, nu, n, stream.child("xi"), stream.child("u"), central)]
        assert len(copies) == -(-n // _block_rows(d))
        u_all = np.concatenate([u for u, _ in copies], axis=1)
        diff_all = np.concatenate([diff for _, diff in copies], axis=1)
        for run, point, run_u, run_diff in zip(runs, points, u_all, diff_all):
            u = run.child("u").rng().standard_normal((n, d))
            seeds = run.child("xi").seeds(n)
            f_plus = p.sample_value_batch(point + nu * u, seeds)
            f_base = p.sample_value_batch(point, seeds)
            if central:
                diff = f_plus + p.sample_value_batch(point - nu * u, seeds) - 2.0 * f_base
            else:
                diff = f_plus - f_base
            assert np.array_equal(run_u, u)
            assert np.array_equal(run_diff, diff)


# ---------------------------------------------------------------------------
# the direction producer thread never outlives a call

def _multi_block_case():
    d = 4
    p = make_multiplicative_saddle(d=d, neg_count=1, rho=2.0, quartic_coeff=0.01)
    return p, np.array([0.3, -0.8, 0.5, 0.1]), 2 * _block_rows(d) + 3


@watched
def test_multi_block_zo_hessian_joins_its_producer():
    p, x, n = _multi_block_case()
    before = threading.active_count()
    during = []

    def value_batch(points, seeds):
        during.append(threading.active_count())
        return p.sample_value_batch(points, seeds)

    est = zo_hessian(dataclasses.replace(p, sample_value_batch=value_batch), x, 0.05, n, SeedStream(5))
    assert max(during) == before + 1  # the draws ran on one thread of their own
    assert threading.active_count() == before
    assert np.array_equal(est.H, zo_hessian(p, x, 0.05, n, SeedStream(5)).H)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs a process that may run on two CPUs")
@watched
def test_producer_runs_off_the_callers_cpu():
    # a kernel need not move a new thread off its parent's CPU; the producer
    # places itself on every CPU of the process but the caller's
    p, x, n = _multi_block_case()
    allowed = os.sched_getaffinity(0)
    placed = []

    def value_batch(points, seeds):
        # the producer has returned once it has drawn the last block
        placed.extend(os.sched_getaffinity(t.native_id) for t in threading.enumerate()
                      if t.name == "zo-directions")
        return p.sample_value_batch(points, seeds)

    zo_hessian(dataclasses.replace(p, sample_value_batch=value_batch), x, 0.05, n, SeedStream(5))
    assert placed
    assert all(cpus < allowed and len(cpus) == len(allowed) - 1 for cpus in placed)


@watched
def test_concurrent_callers_get_their_serial_estimates():
    # three callers and their producers on two CPUs, switching as often as
    # the interpreter allows: a block handed back to its producer before the
    # caller is done with it would change that caller's estimate
    p, x, n = _multi_block_case()
    streams = [SeedStream(s) for s in range(3)]
    serial = [zo_hessian(p, x, 0.05, n, stream).H for stream in streams]
    before = threading.active_count()
    results = [None] * len(streams)

    def call(i):
        results[i] = zo_hessian(p, x, 0.05, n, streams[i]).H

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(streams))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert all(np.array_equal(r, h) for r, h in zip(results, serial))
    assert threading.active_count() == before


@watched
def test_oracle_error_on_a_later_block_joins_the_producer():
    p, x, n = _multi_block_case()
    before = threading.active_count()
    error = RuntimeError("value oracle failed")
    calls = []

    def value_batch(points, seeds):
        calls.append(len(seeds))
        if len(calls) == 4:  # the first query of the second block
            raise error
        return p.sample_value_batch(points, seeds)

    with pytest.raises(RuntimeError) as raised:
        zo_hessian(dataclasses.replace(p, sample_value_batch=value_batch), x, 0.05, n, SeedStream(5))
    assert raised.value is error
    assert threading.active_count() == before


@watched
def test_closed_direction_blocks_join_the_producer():
    p, x, n = _multi_block_case()
    before = threading.active_count()
    stream = SeedStream(5)
    blocks = _direction_blocks(p, x, 0.05, n, stream.child("xih"), stream.child("uh"), True)
    next(blocks)
    assert threading.active_count() == before + 1
    blocks.close()
    assert threading.active_count() == before


@watched
def test_producer_error_is_raised_in_the_caller(monkeypatch):
    p, x, n = _multi_block_case()
    before = threading.active_count()
    error = FloatingPointError("draw failed")

    class FailingGenerator:
        def __init__(self):
            self.draws = 0

        def standard_normal(self, out):
            self.draws += 1
            if self.draws == 2:
                raise error
            out[...] = 0.5

    monkeypatch.setattr(SeedStream, "rng", lambda self: FailingGenerator())
    with pytest.raises(FloatingPointError) as raised:
        zo_hessian(p, x, 0.05, n, SeedStream(5))
    assert raised.value is error
    assert threading.active_count() == before


def _batch_problem(batch: np.ndarray, seeds: np.ndarray):
    """A problem whose sampled gradient at ``seeds[i]`` is row i of ``batch``,
    whichever oracle call of the estimator draws it."""
    base = make_multiplicative_saddle(d=2, neg_count=1, rho=1.0, quartic_coeff=0.0)
    order = np.argsort(seeds)
    return dataclasses.replace(
        base, meta=dataclasses.replace(base.meta, dim=batch.shape[1]),
        sample_grad_batch=lambda points, drawn: batch[order[np.searchsorted(seeds[order], drawn)]])


def _row_fold(batch: np.ndarray) -> np.ndarray:
    """Rows (..., n, d) added one at a time, in order, from +0.0."""
    total = np.zeros(batch.shape[:-2] + batch.shape[-1:])
    for i in range(batch.shape[-2]):
        total = total + batch[..., i, :]
    return total


def _same_bits(a: np.ndarray, b: np.ndarray, nan_sign: bool = True) -> bool:
    """Equal bit for bit; with ``nan_sign=False`` a NaN matches any NaN."""
    if not nan_sign:
        nan = np.isnan(a)
        if not np.array_equal(nan, np.isnan(b)):
            return False
        a, b = np.where(nan, 0.0, a), np.where(nan, 0.0, b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("k", [1, 2, 15])
@pytest.mark.parametrize("n1", [1, 2, 1534])
def test_fo_gradient_adds_the_rows_in_order(k, n1):
    # the column-loop sum keeps the bits of sum(axis=-2): the row fold for
    # d >= 2, and the pairwise sum of the one column at d = 1.  With -inf
    # beside inf, inf - inf makes a NaN of the other sign, and which of two
    # NaNs an add keeps depends on its operand order, which the two numpy
    # kernels do not share: there only the NaN positions are pinned.
    rng = np.random.default_rng(1000 * k + n1)
    with np.errstate(invalid="ignore"):  # inf - inf
        for d, entries in itertools.product((1, 2, 3, 10), ("finite", "inf_nan", "signed_inf")):
            minus_inf = entries == "signed_inf"
            batch = rng.standard_normal((k * n1, d)) * 10.0 ** rng.integers(-20, 21, (k * n1, d))
            specials = rng.random(batch.shape)
            batch[specials < 0.01] = -0.0
            if entries != "finite":
                batch[specials > 0.999] = np.inf
                batch[(specials > 0.998) & (specials <= 0.999)] = np.nan
                if minus_inf:
                    batch[(specials > 0.997) & (specials <= 0.998)] = -np.inf
            stream = SeedStream(list(range(k))) if k > 1 else SeedStream(0)
            seeds = stream.child("xi").seeds(n1).reshape(-1)
            g = fo_gradient(_batch_problem(batch, seeds),
                            np.zeros((k, d)) if k > 1 else np.zeros(d), n1, stream).g
            rows = batch.reshape((k, n1, d) if k > 1 else (n1, d))
            summed = rows.sum(axis=-2) / n1
            assert _same_bits(g, summed, nan_sign=not minus_inf), (d, k, n1)
            if d > 1:
                assert _same_bits(g, _row_fold(rows) / n1, nan_sign=not minus_inf), (d, k, n1)


@pytest.mark.parametrize("d", [1, 10])
def test_a_step_of_three_batch_sizes_gives_each_row_its_own_call(d):
    # ten runs of three batch sizes, one of them larger than a block: every
    # row is its run's own call, bit for bit, and each oracle call holds
    # whole runs, at most a block of samples unless it holds one run alone
    p = make_phase_retrieval(d=1, m=16, planted_seed=2) if d == 1 else make_multiplicative_saddle(
        d=10, neg_count=1, rho=2.0, quartic_coeff=0.008)
    big = _BLOCK_BYTES // (8 * d) + 1
    sizes = [5, 37, 5, 5, big, 37, 37, 5, 37, 5]
    x = np.random.default_rng(d).uniform(-1.5, 1.5, (10, d))
    runs = SeedStream(list(range(10)))
    for estimator, oracle, field, sample_bytes in (
            (fo_gradient, "sample_grad_batch", "g", 8 * d),
            (so_hessian, "sample_hess_batch", "H", 8 * d * d)):
        calls = []

        def batch(points, seeds, oracle=getattr(p, oracle)):
            calls.append(len(seeds))
            return oracle(points, seeds)

        est = estimator(dataclasses.replace(p, **{oracle: batch}), x, sizes, runs)
        assert est.oracle_calls == sizes and sum(calls) == sum(sizes)
        assert all(n * sample_bytes <= _BLOCK_BYTES or n in sizes for n in calls)
        assert len(calls) < len(set(sizes)) + 2  # a packed call, not one per config
        for j, (row, n, node) in enumerate(zip(x, sizes, runs.nodes())):
            own = getattr(estimator(p, row, n, node), field)
            assert getattr(est, field)[j].tobytes() == own.tobytes(), (estimator.__name__, j)


@pytest.mark.parametrize("estimator, oracle, n", [(fo_gradient, "sample_grad_batch", 1534),
                                                 (so_hessian, "sample_hess_batch", 300)])
def test_sampled_estimator_memory_does_not_grow_with_k(estimator, oracle, n):
    # 20 runs of a 1534-sample additive-noise gradient batch, or of a
    # 300-sample Hessian batch, would take 2.5 or 4.8 MB in one call; packed
    # into calls of whole runs the peak stays a few blocks whatever k
    p = make_additive_noise_variant(
        make_multiplicative_saddle(d=10, neg_count=1, rho=2.0, quartic_coeff=0.008), 0.5)
    sample_bytes = 80 if oracle == "sample_grad_batch" else 800
    bound = 6 * max(_BLOCK_BYTES, n * sample_bytes)
    for k in (1, 2, 5, 20):
        x = np.full((k, 10), 0.1)
        runs = SeedStream(list(range(k)))
        tracemalloc.start()
        try:
            estimator(p, x, n, runs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (k, peak, bound)


# ---------------------------------------------------------------------------
# both Hessian estimators return stacks equal to their transpose bit for bit:
# the cubic step skips the model checks of such a stack (scrn._row_models)

def _bit_symmetric(H: np.ndarray) -> bool:
    return H.tobytes() == np.swapaxes(H, -1, -2).tobytes()


@pytest.mark.parametrize("sizes, oracle_calls", [
    ([4] * 6, 1),  # equal batch sizes: one (k, d) call
    ([3, 5, 3, 7, 5, 3], 1),  # unequal ones: one ragged call
    ([200, 100, 200], 2),  # 500 samples of 800 bytes span two calls
], ids=["equal", "ragged", "two_calls"])
def test_so_hessian_stacks_are_bit_symmetric(sizes, oracle_calls):
    p = make_multiplicative_saddle(d=10, neg_count=1, rho=2.0, quartic_coeff=0.008)
    calls = []

    def skewed_batch(points, seeds):
        # sampled Hessians that are not symmetric: the estimate still is
        calls.append(len(seeds))
        hess = p.sample_hess_batch(points, seeds)
        return hess + 1e-3 * np.triu(np.ones((10, 10)), 1) * np.arange(len(seeds))[:, None, None]

    x = np.random.default_rng(3).uniform(-1.5, 1.5, (len(sizes), 10))
    H = so_hessian(dataclasses.replace(p, sample_hess_batch=skewed_batch), x, sizes,
                   SeedStream(list(range(len(sizes))))).H
    assert len(calls) == oracle_calls
    assert H.shape == (len(sizes), 10, 10) and np.isfinite(H).all()
    assert not _bit_symmetric(skewed_batch(x[:1], np.arange(2, dtype=np.uint64)))
    assert _bit_symmetric(H)


@pytest.mark.parametrize("blocks", [1, 3])
def test_zo_hessian_stacks_are_bit_symmetric(blocks):
    p, x, n = _multi_block_case()
    n = n if blocks == 3 else 50
    xs = np.stack([x, -0.5 * x, x + 0.25])
    H = zo_hessian(p, xs, 0.05, n, SeedStream([1, 2, 3])).H
    assert -(-n // _block_rows(4)) == blocks
    assert H.shape == (3, 4, 4) and np.isfinite(H).all() and _bit_symmetric(H)


def test_a_shared_point_serves_runs_of_unequal_batch_sizes():
    # one (d,) point for all runs goes to the oracle once per run, read-only;
    # a (k, d) stack goes as it is
    p = make_multiplicative_saddle(d=10, neg_count=1, rho=2.0, quartic_coeff=0.008)
    x = np.linspace(-0.5, 0.5, 10)
    sizes = [3, 5, 3, 7]
    runs = SeedStream(list(range(4)))
    points = []

    def hess_batch(pts, seeds):
        points.append(pts.rows)
        return p.sample_hess_batch(pts, seeds)

    shared = so_hessian(dataclasses.replace(p, sample_hess_batch=hess_batch), x, sizes, runs).H
    stacked = so_hessian(dataclasses.replace(p, sample_hess_batch=hess_batch),
                         np.tile(x, (4, 1)), sizes, runs).H
    assert points[0].shape == (4, 10) and not points[0].flags.writeable
    assert points[1].shape == (4, 10)
    assert shared.tobytes() == stacked.tobytes()
    for j, (n, node) in enumerate(zip(sizes, runs.nodes())):
        assert shared[j].tobytes() == so_hessian(p, x, n, node).H.tobytes()
