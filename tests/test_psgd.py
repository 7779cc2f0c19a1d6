import dataclasses
import math
import re

import numpy as np
import pytest

from saddlescape.diagnostics import TraceRow, certify
from saddlescape.errors import ConfigurationError, NumericalError, ScheduleError
from saddlescape.problems import (
    ProblemMetadata,
    make_additive_noise_variant,
    make_multiplicative_saddle,
    make_phase_retrieval,
)
from saddlescape.psgd import (
    _THETA_CHUNK,
    FIRST_ORDER,
    ZEROTH_ORDER,
    PsgdConfig,
    ScheduleConstants,
    _certify_points,
    draw_perturbation,
    psgd_step,
    run_psgd,
    schedule_first_order,
    schedule_zeroth_order,
)
from saddlescape.scrn import ScrnConfig, run_scrn
from saddlescape.seeds import SeedStream, fold_int_states, standard_normals


def _fo_config(eta=0.01, r=0.0, n1=1, T=10, box=10.0, eps=0.05):
    return PsgdConfig(eta=eta, r=r, n1=n1, T=T, box_radius=box, epsilon=eps)


def _one_step(p, x, cfg, stream):
    """``psgd_step`` on the group of one run at ``x`` with step stream
    ``stream``: its new point and oracle calls."""
    x_new, calls, (outcome,) = psgd_step(p, np.asarray(x)[None], cfg,
                                         SeedStream.block([stream.state]))
    assert outcome is None
    return x_new[0], calls


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _fo_config(eta=0.0)
    with pytest.raises(ConfigurationError):
        _fo_config(r=-1.0)
    with pytest.raises(ConfigurationError, match="nu must be set iff"):
        PsgdConfig(eta=0.1, r=0.0, n1=1, T=1, box_radius=10, epsilon=0.1,
                   mode=ZEROTH_ORDER)  # nu missing
    with pytest.raises(ConfigurationError, match="nu must be set iff"):
        PsgdConfig(eta=0.1, r=0.0, n1=2, T=1, box_radius=10, epsilon=0.1,
                   mode=FIRST_ORDER, nu=0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["eta", "r", "epsilon", "nu"])
def test_psgd_constants_must_be_finite(field, value):
    # NaN passed every range check: a NaN eta or r ran every step to a
    # non-finite iterate, and an infinite eta was accepted
    base = dict(eta=0.1, r=0.1, n1=2, T=3, box_radius=10.0, epsilon=0.1)
    if field == "nu":
        base.update(mode=ZEROTH_ORDER, nu=0.01)
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite, got {value}$"):
        PsgdConfig(**dict(base, **{field: value}))


@pytest.mark.parametrize("value", [math.nan, -math.inf, 0.0])
def test_box_radius_is_positive_or_infinite(value):
    base = dict(eta=0.1, r=0.1, n1=2, T=3, epsilon=0.1)
    with pytest.raises(ConfigurationError, match="^box_radius must be positive or inf, got "):
        PsgdConfig(box_radius=value, **base)
    assert PsgdConfig(box_radius=math.inf, **base).box_radius == math.inf  # never clamped


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["a0", "a1", "c", "kappa"])
def test_schedule_constants_must_be_finite(field, value):
    # a NaN c raised a bare ValueError from the batch size's ceil, an
    # infinite a1 an OverflowError from the budget's, and a NaN a0 or kappa
    # scheduled a NaN step size
    if field == "kappa":
        overrides, name = {"kappa": (1.0,) * 4 + (value,) + (1.0,) * 5}, "kappa[4]"
    else:
        overrides, name = {field: value}, field
    message = rf"^{re.escape(name)} must be finite, got {value}$"
    with pytest.raises(ConfigurationError, match=message):
        ScheduleConstants(epsilon=0.1, **overrides)


@pytest.mark.parametrize("field", ["n1", "n2", "T"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_batch_sizes_and_budgets_are_integers(field, value):
    # a fractional n1 drew ceil(n1) samples a step, charged n1 and wrote a
    # total_oracle_calls that read_trace could not parse; True ran as 1
    base = {"n1": 3, "n2": 3, "T": 4}
    made = [lambda counts: ScrnConfig(M=5.0, box_radius=10.0, epsilon=0.1, **counts)]
    if field != "n2":
        made.append(lambda counts: PsgdConfig(eta=0.1, r=0.0, box_radius=10.0, epsilon=0.1,
                                              **{k: counts[k] for k in ("n1", "T")}))
    for make in made:
        with pytest.raises(ConfigurationError, match=f"^{field} must be an integer, got "):
            make(dict(base, **{field: value}))
        cfg = make(dict(base, **{field: np.int64(5)}))  # numpy integers are stored as int
        assert getattr(cfg, field) == 5 and type(getattr(cfg, field)) is int


def test_a_non_finite_exact_gradient_fails_only_its_row(sgc_saddle_10d):
    # certify rejects a NaN gradient, whose score would have been NaN; in the
    # stacked pass that error is the row's outcome, and the other rows keep
    # their certificates.  An infinite entry fails its row too, while a finite
    # row whose squared norm overflows keeps an infinite norm and is not
    # certified, as certify scores it on its own
    xs = np.random.default_rng(4).uniform(-1, 1, (3, 10))
    every = slice(None)
    for corrupt in ({1: (3, math.nan)}, {1: (3, math.inf)}, {1: (3, -math.inf)},
                    {1: ([3, 5], [math.inf, -math.inf])}, {1: (every, 1e200)},
                    {0: (3, math.inf), 1: (every, 1e200)}):
        def exact_grad(x, corrupt=corrupt):
            g = sgc_saddle_10d.exact_grad(x)
            if np.ndim(x) == 2:
                for row, (cols, value) in corrupt.items():
                    g[row, cols] = value
            return g

        p = dataclasses.replace(sgc_saddle_10d, exact_grad=exact_grad)
        with np.errstate(over="ignore"):
            outcomes = _certify_points(p, xs, [0.1, 0.1, 0.1])
        for i, outcome in enumerate(outcomes):
            if i not in corrupt:
                assert outcome == certify(sgc_saddle_10d, xs[i], 0.1)
            elif corrupt[i] == (every, 1e200):
                assert outcome.grad_norm == math.inf and not outcome.certified
            else:
                assert isinstance(outcome, NumericalError)
                assert str(outcome) == "certify got a non-finite gradient"


@pytest.mark.parametrize("family, d", [("saddle", d) for d in (2, 10, 33)]
                         + [("phase_retrieval", d) for d in (1, 2, 10, 33)])
def test_stacked_gradient_norms_match_each_rows_own_bit_for_bit(family, d):
    # one vecdot over the (k, d) gradients in place of each row's g @ g: the
    # norms keep their bits.  ddot's vector kernel starts at 32 entries, so
    # d = 33 sums in another order than d <= 31 (the saddle needs d >= 2)
    if family == "saddle":
        p = make_multiplicative_saddle(d=d, neg_count=1, rho=2.0, quartic_coeff=0.008)
    else:
        p = make_phase_retrieval(d=d, m=4 * d, planted_seed=1)
    xs = np.random.default_rng(d).uniform(-2, 2, (40, d))
    certs = _certify_points(p, xs, [0.1] * len(xs))
    for g, cert in zip(p.exact_grad(xs), certs):
        g = np.ascontiguousarray(g)
        assert cert.grad_norm == math.sqrt(g @ g)


def test_step_is_exact_gradient_descent_when_unperturbed(quad_saddle_2d):
    x = np.array([0.0, 1.0])
    cfg = _fo_config(eta=0.05)
    x1, calls = _one_step(quad_saddle_2d, x, cfg, SeedStream(0))
    assert np.allclose(x1, [0.0, 1.0 - 0.05])
    assert calls == 1


def test_step_fixed_point_at_interpolation():
    p = make_phase_retrieval(d=4, m=20, planted_seed=7)
    root = SeedStream(7, "phase_retrieval")
    xs = root.child("planted").rng().standard_normal(4)
    xs /= np.linalg.norm(xs)
    cfg = _fo_config(eta=0.1, r=0.0)
    for seed in range(20):
        x1, _ = _one_step(p, xs, cfg, SeedStream(seed))
        assert np.array_equal(x1, xs)


def test_step_bitwise_deterministic(sgc_saddle_10d):
    cfg = _fo_config(eta=0.02, r=0.3, n1=4)
    x = 0.1 * np.ones(10)
    a, _ = _one_step(sgc_saddle_10d, x, cfg, SeedStream(5, "step", 3))
    b, _ = _one_step(sgc_saddle_10d, x, cfg, SeedStream(5, "step", 3))
    assert np.array_equal(a, b)


def test_step_rejects_nonfinite_iterate(quad_saddle_2d):
    cfg = _fo_config()
    with pytest.raises(NumericalError):
        psgd_step(quad_saddle_2d, np.array([[np.nan, 0.0]]), cfg,
                  SeedStream.block([SeedStream(0).state]))


def test_step_rejects_a_single_iterate(quad_saddle_2d):
    # a single run is a group of one: a (1, d) iterate, not a (d,) one
    with pytest.raises(ConfigurationError, match=r"\(k, d\) iterates of a group, got \(2,\)"):
        psgd_step(quad_saddle_2d, np.zeros(2), _fo_config(),
                  SeedStream.block([SeedStream(0).state]))


def test_run_zero_steps_records_initial_row(quad_saddle_2d):
    cfg = _fo_config(T=0)
    trace = run_psgd(quad_saddle_2d, np.array([1.0, 1.0]), cfg, certify_every=1, seed=0)
    assert len(trace.rows) == 1 and trace.rows[0].t == 0
    assert trace.total_oracle_calls == 0


def test_run_matches_plain_gradient_descent(quad_saddle_2d):
    # r = 0 on the deterministic arm is exact gradient descent
    cfg = _fo_config(eta=0.03, T=50)
    trace = run_psgd(quad_saddle_2d, np.array([0.5, 0.8]), cfg, certify_every=50, seed=9)
    x = np.array([0.5, 0.8])
    for _ in range(50):
        x = x - 0.03 * quad_saddle_2d.exact_grad(x)
    assert trace.rows[-1].grad_norm == pytest.approx(np.linalg.norm(quad_saddle_2d.exact_grad(x)), abs=1e-12)


def test_deterministic_escape_along_negative_curvature():
    # gradient descent seeded just off the saddle escapes along e1 and
    # settles at a second-order stationary point
    q = 0.01
    p = make_multiplicative_saddle(d=2, neg_count=1, rho=1.0, quartic_coeff=q)
    x0 = np.array([1e-3, 0.0])
    cfg = _fo_config(eta=0.01, r=0.0, T=3_000, eps=1e-2)
    trace = run_psgd(p, x0, cfg, certify_every=100, seed=0)
    final = trace.rows[-1]
    assert final.grad_norm < 1e-3
    assert final.lambda_min >= -np.sqrt(p.meta.L_H * 1e-2)
    assert final.certified


def test_budget_audit_first_and_zeroth_order(sgc_saddle_10d):
    cfg = _fo_config(eta=0.01, r=0.1, n1=3, T=17)
    trace = run_psgd(sgc_saddle_10d, np.zeros(10), cfg, certify_every=5, seed=2)
    assert trace.rows[-1].t == 17
    assert trace.total_oracle_calls == 17 * 3 == trace.rows[-1].oracle_calls
    czo = PsgdConfig(eta=0.01, r=0.1, n1=4, T=9, box_radius=10, epsilon=0.05,
                     mode=ZEROTH_ORDER, nu=0.01)
    trace = run_psgd(sgc_saddle_10d, np.zeros(10), czo, certify_every=2, seed=2)
    assert trace.total_oracle_calls == 9 * 8
    calls = [row.oracle_calls for row in trace.rows]
    assert calls == sorted(calls)


def test_run_is_reproducible(sgc_saddle_10d):
    cfg = _fo_config(eta=0.02, r=0.05, n1=2, T=40)
    t1 = run_psgd(sgc_saddle_10d, np.zeros(10), cfg, certify_every=1, seed=11)
    t2 = run_psgd(sgc_saddle_10d, np.zeros(10), cfg, certify_every=1, seed=11)
    assert [(r.t, r.f, r.grad_norm) for r in t1.rows] == [(r.t, r.f, r.grad_norm) for r in t2.rows]


def test_perturbation_isotropy():
    r = 0.7
    draws = draw_perturbation(fold_int_states(SeedStream(0, "iso").state, np.arange(100_000)), 4, r)
    cov = np.cov(draws.T)
    assert np.abs(cov - r**2 * np.eye(4)).max() < 0.05 * r**2


def test_statistical_descent_in_large_gradient_regime(sgc_saddle_10d):
    # over iterates with ||grad f|| >= eps, one-step decreases dominate
    p = sgc_saddle_10d
    eps = 0.1
    gap = p.exact_value(np.zeros(10)) - p.meta.f_star
    cfg = schedule_first_order(ScheduleConstants(epsilon=eps, c=0.01), p.meta, gap)
    cfg = dataclasses.replace(cfg, T=400)
    x0 = np.zeros(10)
    x0[0] = 0.5  # inside the descent region
    trace = run_psgd(p, x0, cfg, certify_every=1, seed=3)
    decreases = 0
    n = 0
    for prev, cur in zip(trace.rows, trace.rows[1:]):
        if prev.grad_norm >= eps:
            n += 1
            decreases += cur.f < prev.f
    assert n >= 100
    # one-sided sign test at 95%
    assert decreases >= n / 2 + 1.645 * np.sqrt(n / 4.0)


def test_numerical_failure_carries_partial_trace(quad_saddle_2d):
    # on the unbounded quadratic, an absurd step size (PSGD) or a vanishing
    # cubic penalty (SCRN) drives the iterates to non-finite values
    runs = (
        (run_psgd, PsgdConfig(eta=1e300, r=1e300, n1=1, T=5, box_radius=np.inf, epsilon=0.1)),
        (run_scrn, ScrnConfig(M=1e-300, n1=1, n2=1, T=5, box_radius=np.inf, epsilon=0.1)),
    )
    for run, bad in runs:
        with pytest.raises(NumericalError) as excinfo, np.errstate(over="ignore", invalid="ignore"):
            run(quad_saddle_2d, np.array([1.0, 1.0]), bad, certify_every=1, seed=0)
        err = excinfo.value
        assert err.iterate is not None
        assert err.trace is not None and err.trace.rows[0].t == 0
        assert [row.t for row in err.trace.rows] == list(range(err.iterate))


def test_stop_after_certified_ends_at_first_certified_row(sgc_saddle_10d):
    cfg = _fo_config(eta=0.5, r=0.05, n1=4, T=60, eps=0.2)
    full = run_psgd(sgc_saddle_10d, np.zeros(10), cfg, certify_every=10, seed=1)
    stopped = run_psgd(sgc_saddle_10d, np.zeros(10), cfg, certify_every=10, seed=1,
                       stop_after_certified=True)
    first = next(i for i, row in enumerate(full.rows) if row.certified)
    assert 0 < first < len(full.rows) - 1
    assert stopped.rows == full.rows[:first + 1]
    assert stopped.total_oracle_calls == stopped.rows[-1].oracle_calls < full.total_oracle_calls


def _stepwise_rows(p, x0, cfg, seed, certify_every=1, stop_after_certified=False):
    """The rows of ``run_psgd``, from one ``psgd_step`` call per step on the
    group of one run that draws its own theta: the run loop without chunked
    draws."""
    run = SeedStream(seed, cfg.algorithm)
    x, calls, rows = np.asarray(x0, dtype=np.float64), 0, []

    def record(t):
        cert = certify(p, x, cfg.epsilon)
        rows.append(TraceRow(t, p.exact_value(x), cert.grad_norm, cert.lambda_min, calls,
                             cert.certified))
        return stop_after_certified and cert.certified

    done = record(0)
    for t in range(1, cfg.T + 1):
        if done:
            break
        x, step_calls = _one_step(p, x, cfg, run.child("step", t))
        calls += step_calls
        if t % certify_every == 0 or t == cfg.T:
            done = record(t)
    return rows


def test_theta_of_a_step_is_its_own_counter_draw():
    stream = SeedStream(4, "psgd").child("step", 9)
    row = draw_perturbation([stream.state], 10, 0.3)
    expected = 0.3 * standard_normals([stream.child("theta").state], 10)
    assert row.shape == (1, 10) and np.array_equal(row, expected)
    assert np.array_equal(draw_perturbation([stream.state], 10, 0.0), np.zeros((1, 10)))


def test_theta_rows_take_their_own_radius():
    states = [SeedStream(4, "psgd").child("step", t).state for t in (1, 2, 3)]
    radii = (0.3, 0.0, 2.0)
    rows = draw_perturbation(states, 10, radii)
    for state, r, row in zip(states, radii, rows):
        assert np.array_equal(row, draw_perturbation([state], 10, r)[0])
    assert not rows[1].any() and not np.signbit(rows[1]).any()  # +0.0, not -0.0
    assert np.array_equal(draw_perturbation(states, 10, [0.0] * 3), np.zeros((3, 10)))


def test_chunked_run_matches_stepwise_steps(sgc_saddle_10d):
    # T spans three theta chunks, the last one partial
    cfg = _fo_config(eta=0.02, r=0.3, n1=4, T=2 * _THETA_CHUNK + 21)
    x0 = np.full(10, 0.1)
    trace = run_psgd(sgc_saddle_10d, x0, cfg, certify_every=1, seed=5)
    assert trace.rows == _stepwise_rows(sgc_saddle_10d, x0, cfg, seed=5)
    czo = PsgdConfig(eta=0.02, r=0.3, n1=3, T=_THETA_CHUNK + 7, box_radius=10, epsilon=0.05,
                     mode=ZEROTH_ORDER, nu=0.01)
    trace = run_psgd(sgc_saddle_10d, x0, czo, certify_every=5, seed=6)
    assert trace.rows == _stepwise_rows(sgc_saddle_10d, x0, czo, seed=6, certify_every=5)


def test_one_config_per_seed_matches_stepwise_steps(sgc_saddle_10d):
    # one seed under two configs, and runs that end inside and after a chunk
    cfgs = [_fo_config(eta=0.02, r=0.3, n1=4, T=_THETA_CHUNK + 9, eps=0.2),
            _fo_config(eta=0.05, r=0.1, n1=2, T=20, eps=0.1),
            _fo_config(eta=0.02, r=0.3, n1=4, T=_THETA_CHUNK + 9, eps=0.2)]
    seeds = [5, 5, 6]
    x0 = np.full(10, 0.1)
    traces = run_psgd(sgc_saddle_10d, [x0] * 3, cfgs, certify_every=4, seed=seeds)
    for trace, cfg, seed in zip(traces, cfgs, seeds):
        assert trace.rows == _stepwise_rows(sgc_saddle_10d, x0, cfg, seed=seed, certify_every=4)
        assert trace.rows[-1].t == cfg.T and trace.echo("epsilon") == repr(cfg.epsilon)
    with pytest.raises(ConfigurationError, match="one config per seed"):
        run_psgd(sgc_saddle_10d, [x0] * 3, cfgs[:2], seed=seeds)


@pytest.mark.parametrize("run, cfg", [
    (run_psgd, _fo_config()),
    (run_scrn, ScrnConfig(M=5.0, n1=1, n2=1, T=5, box_radius=10.0, epsilon=0.05)),
], ids=["psgd", "scrn"])
def test_group_needs_one_start_point_per_seed(run, cfg):
    p = make_multiplicative_saddle(d=4, neg_count=1, rho=2.0, quartic_coeff=0.008)
    x0 = np.full(4, 0.1)
    with pytest.raises(ConfigurationError, match="got 3 start points and 2 configs for 2 seeds"):
        run(p, [x0] * 3, cfg, seed=[0, 1])
    with pytest.raises(ConfigurationError, match="got 1 start points and 2 configs for 2 seeds"):
        run(p, [x0], cfg, seed=[0, 1])
    with pytest.raises(ConfigurationError, match="at least one seed.* for 0 seeds"):
        run(p, [], cfg, seed=[])


def test_stop_mid_chunk_matches_stepwise_steps(sgc_saddle_10d):
    cfg = _fo_config(eta=0.1, r=0.05, n1=4, T=300, eps=0.2)
    stopped = run_psgd(sgc_saddle_10d, np.zeros(10), cfg, certify_every=1, seed=0,
                       stop_after_certified=True)
    stop = stopped.rows[-1].t
    assert stopped.rows[-1].certified and stop > _THETA_CHUNK and stop % _THETA_CHUNK
    assert stopped.rows == _stepwise_rows(sgc_saddle_10d, np.zeros(10), cfg, seed=0,
                                          stop_after_certified=True)


# ---------------------------------------------------------------------------
# schedules

def _meta(rho=2.0, L_G=0.2, sigma=0.0):
    return ProblemMetadata(dim=10, L_G=L_G, L_H=1.0, f_star=0.0,
                           box_radius=10.0, rho_true=rho, noise_sigma=sigma)


def test_first_order_schedule_deterministic_arm_needs_no_batch():
    cfg = schedule_first_order(ScheduleConstants(epsilon=0.1), _meta(rho=1.0), 1.0)
    assert cfg.n1 == 1


def test_first_order_schedule_frozen_example():
    # eps=0.1, a0=a1=1, delta=0.1, gap=1: recompute both budget branches
    eps, gap = 0.1, 1.0
    cfg = schedule_first_order(ScheduleConstants(epsilon=eps), _meta(), gap)
    loge = math.log(1.0 / eps)
    eta = loge**-2 / math.log(gap / (0.1 * eps))
    assert cfg.eta == pytest.approx(eta)
    assert cfg.r == pytest.approx(eps**1.5 / loge**3)
    escape_len = 0.5 * loge**3 / math.sqrt(eps)
    escape_drop = eps**1.5 / loge**7
    expected_T = math.ceil(max(gap * escape_len / escape_drop, gap / (eta * eps**2)))
    assert cfg.T == expected_T
    assert cfg.n1 == math.ceil(512 * 1.0 * loge)


def test_first_order_step_size_capped_by_smoothness():
    meta = ProblemMetadata(dim=4, L_G=100.0, L_H=1.0, f_star=0.0, rho_true=1.0)
    cfg = schedule_first_order(ScheduleConstants(epsilon=0.1), meta, 1.0)
    assert cfg.eta == pytest.approx(1.0 / 100.0)


def test_budget_branch_quadruples_when_epsilon_halves():
    # the gap/(eta eps^2) branch grows by exactly 4x times its log factors
    gap = 1.0
    for eps in (0.2, 0.1):
        c1 = schedule_first_order(ScheduleConstants(epsilon=eps), _meta(), gap)
        c2 = schedule_first_order(ScheduleConstants(epsilon=eps / 2), _meta(), gap)
        branch = lambda cfg, e: gap / (cfg.eta * e**2)
        ratio = branch(c2, eps / 2) / branch(c1, eps)
        log_growth = (math.log(2 / eps) / math.log(1 / eps)) ** 2 * (
            math.log(gap / (0.1 * eps / 2)) / math.log(gap / (0.1 * eps))
        )
        assert ratio >= 4.0
        assert ratio == pytest.approx(4.0 * log_growth, rel=1e-9)


def test_schedule_rejects_large_epsilon():
    with pytest.raises(ScheduleError):
        schedule_first_order(ScheduleConstants(epsilon=0.5), _meta(), 1.0)
    with pytest.raises(ScheduleError):
        # gap below delta * eps makes the step-size log nonpositive
        schedule_first_order(ScheduleConstants(epsilon=0.1), _meta(), 0.001)


def test_schedule_requires_growth_constant():
    meta = ProblemMetadata(dim=4, L_G=1.0, L_H=1.0, f_star=0.0, rho_true=None)
    with pytest.raises(ScheduleError):
        schedule_first_order(ScheduleConstants(epsilon=0.1), meta, 1.0)


def test_no_sgc_first_order_batch_grows_like_inverse_eps_squared():
    meta = _meta(rho=None, sigma=0.5)
    n1 = {}
    for eps in (0.2, 0.1, 0.05):
        cfg = schedule_first_order(ScheduleConstants(epsilon=eps, c=0.01), meta, 7.8, sgc=False)
        n1[eps] = cfg.n1
    assert n1[0.05] > n1[0.1] > n1[0.2]
    expected = 512 * 0.01 * 0.25 * math.log(20.0) / 0.05**2
    assert n1[0.05] == math.ceil(expected)


def test_zeroth_order_schedule_smoothing_radius():
    # eps=0.1, d=2, all kappa = 1, rho = 2: nu = 0.1 / (2 log 10)
    meta = ProblemMetadata(dim=2, L_G=0.2, L_H=1.0, f_star=0.0, rho_true=2.0)
    cfg = schedule_zeroth_order(ScheduleConstants(epsilon=0.1), meta, 1.0)
    assert cfg.nu == pytest.approx(0.1 / (2 * math.log(10.0)))
    assert cfg.mode == ZEROTH_ORDER


def test_zeroth_order_batch_ratio_between_arms():
    # n1(no-SGC)/n1(SGC) = (sigma/sqrt(rho-1))/eps up to rounding
    for eps in (0.1, 0.05):
        sgc_meta = _meta(rho=2.0)
        noise_meta = _meta(rho=None, sigma=0.5)
        a = schedule_zeroth_order(ScheduleConstants(epsilon=eps), sgc_meta, 1.0, sgc=True)
        b = schedule_zeroth_order(ScheduleConstants(epsilon=eps), noise_meta, 1.0, sgc=False)
        expected = (0.5 / math.sqrt(1.0)) / eps
        assert b.n1 / a.n1 == pytest.approx(expected, rel=0.01)
