import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cubic_reference import grid_min, reference_min
from saddlescape import scrn
from saddlescape.errors import ConfigurationError, NumericalError, ScheduleError
from saddlescape.problems import (
    ProblemMetadata,
    make_multiplicative_saddle,
    make_phase_retrieval,
)
from saddlescape.scrn import (
    HIGHER_ORDER,
    ZEROTH_ORDER,
    CubicModel,
    ScrnConfig,
    _estimate_step,
    run_scrn,
    schedule_scrn,
    solve_cubic,
)
from saddlescape.seeds import SeedStream


def test_cubic_model_validation():
    with pytest.raises(ConfigurationError):
        CubicModel(g=np.zeros(2), H=np.zeros((2, 2)), M=0.0)
    with pytest.raises(ConfigurationError):
        CubicModel(g=np.zeros(2), H=np.array([[0.0, 1.0], [0.0, 0.0]]), M=1.0)
    with pytest.raises(NumericalError):
        solve_cubic(CubicModel(g=np.array([np.nan, 0.0]), H=np.eye(2), M=1.0))


def test_zero_gradient_psd_hessian_gives_zero_step():
    sol = solve_cubic(CubicModel(g=np.zeros(3), H=np.diag([0.5, 1.0, 2.0]), M=1.0))
    assert np.all(sol.h_star == 0.0)
    assert sol.model_decrease == 0.0 and sol.radius == 0.0


def test_one_dimensional_example_matches_fine_grid():
    # minimize h + |h|^3: minimizer -1/sqrt(3), value -2/(3 sqrt 3)
    model = CubicModel(g=np.array([1.0]), H=np.array([[0.0]]), M=6.0)
    sol = solve_cubic(model)
    assert sol.h_star[0] == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-10)
    assert sol.model_decrease == pytest.approx(-2.0 / (3.0 * math.sqrt(3.0)), abs=1e-10)
    grid = grid_min(model, radius=3.0, resolution=1e-6)
    assert abs(sol.model_decrease - grid) < 1e-10


def test_hard_case_example_matches_plane_grid():
    model = CubicModel(g=np.zeros(2), H=np.diag([-2.0, 1.0]), M=2.0)
    sol = solve_cubic(model)
    assert sol.hard_case
    assert sol.radius == pytest.approx(2.0, abs=1e-12)  # -2 lambda_min / M
    assert abs(sol.h_star[0]) == pytest.approx(2.0, abs=1e-12)
    assert sol.h_star[1] == pytest.approx(0.0, abs=1e-12)
    assert sol.model_decrease == pytest.approx(-4.0 / 3.0, abs=1e-12)
    grid = grid_min(model, radius=3.0, resolution=1e-3)
    assert sol.model_decrease <= grid + 1e-4


def test_solution_invariants_and_oracle_on_random_models():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        d = int(rng.integers(1, 4))
        M = (0.5, 2.0, 8.0)[trial % 3]
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        eigs = rng.uniform(-2.0, 2.0, d)
        H = basis @ np.diag(eigs) @ basis.T
        g = rng.standard_normal(d)
        norm = np.linalg.norm(g)
        if norm > 0:
            g = g / norm * rng.uniform(0.0, 2.0)
        if trial % 7 == 0:
            g = np.zeros(d)  # exercise the hard case
        model = CubicModel(g=g, H=0.5 * (H + H.T), M=M)
        sol = solve_cubic(model)

        # optimality conditions at the solver's advertised tolerances
        resid = np.linalg.norm(model.g + model.H @ sol.h_star + sol.multiplier * sol.h_star)
        assert resid <= 1e-8 * max(1.0, np.linalg.norm(model.g))
        assert np.linalg.eigvalsh(model.H)[0] + sol.multiplier >= -1e-8
        assert sol.model_decrease <= -(M / 12.0) * sol.radius**3 + 1e-8

        # never worse than an independent search: grids for d <= 2 and a
        # 41-start local polish
        assert sol.model_decrease <= reference_min(model, seed=trial) + 1e-4


def test_scale_covariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    H = 0.5 * (a + a.T)
    g = rng.standard_normal(3)
    base = solve_cubic(CubicModel(g=g, H=H, M=2.0))
    for c in (1e-3, 1e3):
        scaled = solve_cubic(CubicModel(g=c * g, H=c * H, M=c * 2.0))
        assert np.allclose(scaled.h_star, base.h_star, rtol=1e-8, atol=1e-10)


def _brentq_radius(model):
    """Reference secular root by bracketing plus Brent on psi(s) - s; None in the hard case.

    Same hard-case rule as the solver: a minimum-eigenspace gradient part
    below 1e-11 max(1, ||g||) is dropped.
    """
    w, Q = np.linalg.eigh(model.H)
    b = Q.T @ model.g
    M = model.M
    scale = max(1.0, float(np.abs(w).max()))
    s_min = 0.0 if w[0] >= -1e-13 * scale else -2.0 * w[0] / M
    active = w <= w[0] + 1e-12 * scale
    if np.linalg.norm(b[active]) <= 1e-11 * max(1.0, np.linalg.norm(model.g)):
        b = np.where(active, 0.0, b)
    live = b != 0.0

    def secular(s):
        den = w[live] + 0.5 * M * s
        return math.inf if np.any(den <= 0.0) else np.linalg.norm(b[live] / den) - s

    lo = s_min
    if secular(lo) < 0.0:
        return None
    if secular(lo) == 0.0:
        return lo
    if secular(lo) == math.inf:  # pole at s_min: approach it from above
        delta = max(s_min, 1.0)
        while not 0.0 < secular(s_min + delta) < math.inf:
            delta /= 16.0
        lo = s_min + delta
    hi = max(2.0 * lo, 1.0)
    while secular(hi) > 0.0:
        hi *= 2.0
    return brentq(secular, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


def _secular_models():
    rng = np.random.default_rng(77)
    models = {}
    for d in (1, 3, 10):
        for k in range(8):
            basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
            H = basis @ np.diag(rng.uniform(-2.0, 2.0, d)) @ basis.T
            models[f"random-d{d}-{k}"] = CubicModel(
                g=rng.standard_normal(d), H=0.5 * (H + H.T), M=(0.5, 2.0, 8.0)[k % 3])
        models[f"zero-eigenvalue-psd-d{d}"] = CubicModel(
            g=rng.standard_normal(d), H=np.diag(np.linspace(0.0, 2.0, d)), M=1.5)
        models[f"zero-hessian-d{d}"] = CubicModel(g=rng.standard_normal(d), H=np.zeros((d, d)), M=3.0)
        # negative curvature with ||b|| about 1e-9 on the minimum eigenspace:
        # the root sits about 1e-9 above the pole at s_min
        eigs = np.linspace(-1.5, 1.0, d) if d > 1 else np.array([-1.5])
        g = np.concatenate([[1e-9], 0.1 * rng.standard_normal(d - 1)])
        models[f"near-hard-d{d}"] = CubicModel(g=basis @ g, H=basis @ np.diag(eigs) @ basis.T, M=2.0)
        tiny = rng.standard_normal(d)
        tiny *= 1e-12 / np.linalg.norm(tiny)
        models[f"gradient-1e-12-indefinite-d{d}"] = CubicModel(
            g=tiny, H=models[f"random-d{d}-0"].H, M=2.0)
        models[f"gradient-1e-12-psd-d{d}"] = CubicModel(
            g=tiny, H=np.diag(np.linspace(0.5, 2.0, d)), M=2.0)
        base = models[f"random-d{d}-1"]
        models[f"scaled-1e3-d{d}"] = CubicModel(g=1e3 * base.g, H=1e3 * base.H, M=1e3 * base.M)
    return models


SECULAR_MODELS = _secular_models()


@pytest.mark.parametrize("name", sorted(SECULAR_MODELS))
def test_radius_matches_brentq_reference(name):
    model = SECULAR_MODELS[name]
    sol = solve_cubic(model)
    reference = _brentq_radius(model)
    assert sol.hard_case == (reference is None)
    if reference is not None:
        assert sol.radius == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_brentq_safeguard_returns_the_same_radius(monkeypatch):
    radii = {name: solve_cubic(model).radius for name, model in SECULAR_MODELS.items()}
    calls = []
    safeguard = scrn.brentq  # imports scipy.optimize on its first call

    def counting_brentq(*args, **kwargs):
        calls.append(args)
        return safeguard(*args, **kwargs)

    monkeypatch.setattr(scrn, "_NEWTON_MAX_ITER", 0)
    monkeypatch.setattr(scrn, "brentq", counting_brentq)
    for name, model in SECULAR_MODELS.items():
        assert solve_cubic(model).radius == pytest.approx(radii[name], rel=1e-12, abs=0.0), name
    assert calls


# ---------------------------------------------------------------------------
# steps and runs

def _ho_config(M=10.0, n1=1, n2=1, T=5, eps=0.05, box=10.0):
    return ScrnConfig(M=M, n1=n1, n2=n2, T=T, box_radius=box, epsilon=eps)


def _one_step(p, x, cfg, stream):
    """``_estimate_step`` on the group of one run at ``x`` with step stream
    ``stream``: its new point, oracle calls and cubic solution."""
    x_new, calls, (sol,) = _estimate_step(p, np.asarray(x)[None], cfg,
                                          SeedStream.block([stream.state]))
    return x_new[0], calls, sol


def test_config_validation():
    with pytest.raises(ConfigurationError):
        _ho_config(M=0.0)
    with pytest.raises(ConfigurationError, match="nu must be set iff"):
        ScrnConfig(M=1.0, n1=1, n2=1, T=1, box_radius=10, epsilon=0.1, mode=ZEROTH_ORDER)
    with pytest.raises(ConfigurationError, match="nu must be set iff"):
        ScrnConfig(M=1.0, n1=2, n2=3, T=1, box_radius=10, epsilon=0.1,
                   mode=HIGHER_ORDER, nu=0.1)


def test_step_fixed_at_second_order_stationary_point():
    # planted phase-retrieval signal: exact interpolation, PSD sample Hessians
    p = make_phase_retrieval(d=4, m=24, planted_seed=3)
    xs = SeedStream(3, "phase_retrieval").child("planted").rng().standard_normal(4)
    xs /= np.linalg.norm(xs)
    x1, calls, _ = _one_step(p, xs, _ho_config(M=5.0, n1=3, n2=3), SeedStream(0))
    assert np.array_equal(x1, xs)
    assert calls == 6


def test_step_escapes_saddle_with_closed_form_radius():
    # deterministic quadratic saddle at the origin: step radius is 2|lambda_min|/M
    p = make_multiplicative_saddle(d=3, neg_count=1, rho=1.0, quartic_coeff=0.0)
    M = 4.0
    x1, _, sol = _one_step(p, np.zeros(3), _ho_config(M=M), SeedStream(1))
    assert sol.hard_case
    assert np.linalg.norm(x1) == pytest.approx(2.0 / M, abs=1e-10)
    assert abs(x1[0]) == pytest.approx(2.0 / M, abs=1e-10)


def test_step_bitwise_deterministic(sgc_saddle_10d):
    cfg = _ho_config(M=50.0, n1=4, n2=4)
    x = 0.2 * np.ones(10)
    a, _, _ = _one_step(sgc_saddle_10d, x, cfg, SeedStream(8, "s", 1))
    b, _, _ = _one_step(sgc_saddle_10d, x, cfg, SeedStream(8, "s", 1))
    assert np.all(np.isfinite(a)) and np.array_equal(a, b)


def test_run_single_step_matches_step():
    p = make_multiplicative_saddle(d=3, neg_count=1, rho=1.0, quartic_coeff=0.01)
    cfg = _ho_config(M=5.0, T=1)
    trace = run_scrn(p, np.array([0.5, 0.5, 0.5]), cfg, certify_every=1, seed=4)
    assert len(trace.rows) == 2
    assert trace.r_index == 1
    assert trace.rows[-1].h_norm is not None


def test_deterministic_run_descends_with_cubic_rate():
    # with exact oracles and M >= L_H, each accepted step decreases f by at
    # least (M/12) ||h||^3 until steps become negligible
    p = make_multiplicative_saddle(d=6, neg_count=2, rho=1.0, quartic_coeff=0.01)
    M = max(p.meta.L_H, 2.0)
    cfg = _ho_config(M=M, T=40, eps=0.01)
    x0 = 1e-3 * np.ones(6)
    trace = run_scrn(p, x0, cfg, certify_every=1, seed=0)
    for prev, cur in zip(trace.rows, trace.rows[1:]):
        if cur.h_norm is not None and cur.h_norm >= 1e-6:
            assert cur.f < prev.f
            assert prev.f - cur.f >= (M / 12.0) * cur.h_norm**3 - 1e-10
    assert trace.rows[-1].certified


def test_budget_audit_across_modes(sgc_saddle_10d):
    cfg = _ho_config(M=50.0, n1=3, n2=5, T=7)
    trace = run_scrn(sgc_saddle_10d, np.zeros(10), cfg, certify_every=3, seed=1)
    assert trace.total_oracle_calls == 7 * (3 + 5)
    zo = ScrnConfig(M=50.0, n1=4, n2=2, T=3, box_radius=10.0, epsilon=0.05,
                    mode=ZEROTH_ORDER, nu=0.01)
    trace = run_scrn(sgc_saddle_10d, np.zeros(10), zo, certify_every=1, seed=1)
    assert trace.total_oracle_calls == 3 * (2 * 4 + 3 * 2)


def test_random_iterate_statistic_recorded(sgc_saddle_10d):
    cfg = _ho_config(M=126.0, n1=5, n2=5, T=60)
    trace = run_scrn(sgc_saddle_10d, np.zeros(10), cfg, certify_every=1, seed=3)
    assert 1 <= trace.r_index <= 60
    assert trace.r_oracle_calls == trace.r_index * 10
    assert trace.r_certificate is not None


# ---------------------------------------------------------------------------
# schedules

def _meta(rho=2.0, sigma2=3.0, L_H=2.0, L_G=10.0):
    return ProblemMetadata(dim=10, L_G=L_G, L_H=L_H, f_star=0.0,
                           box_radius=10.0, rho_true=rho, sigma2=sigma2)


def test_schedule_deterministic_arm_single_sample():
    cfg = schedule_scrn(0.1, _meta(rho=1.0), 1.0)
    assert cfg.n1 == 1


def test_schedule_penalty_dominates_hessian_lipschitz():
    for eps in (0.3, 0.1, 0.01):
        for sigma2 in (0.0001, 0.1, 3.0):
            cfg = schedule_scrn(eps, _meta(sigma2=sigma2), 1.0)
            assert cfg.M >= _meta(sigma2=sigma2).L_H


def test_schedule_total_calls_scale():
    # T (n1 + n2) grows by ~2^2.5 per halving, up to batch-size rounding
    meta = _meta()
    for eps in (0.02, 0.01):
        c1 = schedule_scrn(eps, meta, 1.0)
        c2 = schedule_scrn(eps / 2, meta, 1.0)
        ratio = (c2.T * (c2.n1 + c2.n2)) / (c1.T * (c1.n1 + c1.n2))
        assert ratio == pytest.approx(2**2.5, rel=0.05)


def test_schedule_zeroth_order_fields():
    meta = _meta()
    cfg = schedule_scrn(0.1, meta, 1.0, mode=ZEROTH_ORDER)
    d = meta.dim
    assert cfg.M == 1.0
    assert cfg.n1 == math.ceil((d + 5) / 0.1)
    assert cfg.n2 == math.ceil((1 + 2 * math.log(2 * d)) * (d + 16) ** 4 / 0.1)
    assert cfg.nu == pytest.approx(0.1 / (d + 16) ** 2.5)


def test_schedule_rejects_bad_epsilon():
    with pytest.raises(ScheduleError):
        schedule_scrn(1.0, _meta(), 1.0)
    with pytest.raises(ScheduleError):
        schedule_scrn(0.1, _meta(), -1.0)
