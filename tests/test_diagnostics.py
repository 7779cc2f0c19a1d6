import dataclasses
import math

import numpy as np
import pytest

from saddlescape.diagnostics import (
    RunTrace,
    TraceRow,
    certify,
    min_eigenvalue,
    sosp_fraction,
)
from saddlescape.errors import ConfigurationError, EvaluationError, NumericalError
from saddlescape.problems import make_multiplicative_saddle, make_phase_retrieval


def _power_iteration_min_eig(H, iters=5_000):
    """Shifted power iteration on cI - H; independent of any eigh call."""
    d = H.shape[0]
    shift = np.abs(H).sum(axis=1).max() + 1.0  # Gershgorin bound
    B = shift * np.eye(d) - H
    v = np.ones(d) / np.sqrt(d)
    for _ in range(iters):
        v = B @ v
        v /= np.linalg.norm(v)
    return shift - v @ B @ v, v


def test_min_eigenvalue_identity():
    lam, vec = min_eigenvalue(np.eye(3))
    assert lam == pytest.approx(1.0)
    assert np.isclose(np.linalg.norm(vec), 1.0)


def test_min_eigenvalue_diagonal():
    lam, vec = min_eigenvalue(np.diag([-2.0, 1.0]))
    assert lam == pytest.approx(-2.0)
    assert abs(abs(vec[0]) - 1.0) < 1e-12 and abs(vec[1]) < 1e-12


def test_min_eigenvalue_matches_power_iteration():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    H = 0.5 * (a + a.T)
    lam, _ = min_eigenvalue(H)
    lam_pi, _ = _power_iteration_min_eig(H)
    assert abs(lam - lam_pi) < 1e-8


def test_min_eigenvalue_residual_bound_on_random_matrices():
    rng = np.random.default_rng(42)
    by_dim = {}
    for _ in range(1_000):
        d = int(rng.integers(1, 51))
        a = rng.standard_normal((d, d))
        H = 0.5 * (a + a.T)
        lam, vec = min_eigenvalue(H)
        norm = np.linalg.norm(H, 2)
        assert np.linalg.norm(H @ vec - lam * vec) <= 1e-8 * max(norm, 1e-12)
        w, v = np.linalg.eigh(H)  # the reference pair: eigh's first, renormalised
        assert lam == w[0] and np.array_equal(vec, v[:, 0] / np.linalg.norm(v[:, 0]))
        by_dim.setdefault(d, []).append((H, lam, vec))
    # a stack of the matrices of one dimension gives each its own call's pair
    for pairs in by_dim.values():
        lams, vecs = min_eigenvalue(np.stack([H for H, _, _ in pairs]))
        assert lams.shape == (len(pairs),) and vecs.shape == (len(pairs), len(pairs[0][2]))
        assert np.array_equal(lams, [lam for _, lam, _ in pairs])
        assert np.array_equal(vecs, [vec for _, _, vec in pairs])


def test_min_eigenvalue_rejects_asymmetry():
    H = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigurationError):
        min_eigenvalue(H)
    with pytest.raises(ConfigurationError, match="not symmetric"):
        min_eigenvalue(np.stack([np.eye(2), H, np.eye(2)]))


def test_min_eigenvalue_symmetrises_a_matrix_asymmetric_within_tolerance():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    S = 0.5 * (a + a.T)
    H = S.copy()
    H[1, 4] += 1e-14  # asymmetric, but far inside the 1e-10 tolerance
    w, v = np.linalg.eigh(0.5 * (H + H.T))
    ref = v[:, 0] / np.linalg.norm(v[:, 0])
    lam, vec = min_eigenvalue(H)
    assert lam == w[0] and np.array_equal(vec, ref)
    # inside a stack with exactly symmetric matrices, each keeps its own call's pair
    lams, vecs = min_eigenvalue(np.stack([S, H, np.eye(6)]))
    for i, M in enumerate((S, H, np.eye(6))):
        lam_i, vec_i = min_eigenvalue(M)
        assert lams[i] == lam_i and np.array_equal(vecs[i], vec_i)
    assert lams[1] == w[0] and np.array_equal(vecs[1], ref)


def test_min_eigenvalue_rejects_non_finite_entries():
    H = np.diag([1.0, np.nan])
    for matrices in (H, np.stack([np.eye(2), H])):
        with pytest.raises(NumericalError, match="non-finite"):
            min_eigenvalue(matrices)


def _two_pass_min_eigenvalue(stack):
    """min_eigenvalue of a (k, d, d) stack by the scale and asymmetry passes
    alone, which every stack took before the bitwise-symmetric fast path."""
    k = len(stack)
    scale = np.abs(stack).reshape(k, -1).max(axis=1)
    if not math.isfinite(scale.max()):
        raise NumericalError("matrix has non-finite entries")
    asym = (stack - stack.transpose(0, 2, 1)).reshape(k, -1).max(axis=1)
    if (asym > 1e-10 * np.maximum(scale, 1.0)).any():
        raise ConfigurationError("matrix is not symmetric within tolerance")
    sym = 0.5 * (stack + stack.transpose(0, 2, 1)) if asym.any() else stack
    w, v = np.linalg.eigh(sym)
    lam, vec = w[:, 0], v[:, :, 0].copy()
    norm = np.maximum(-lam, w[:, -1])
    vec /= np.sqrt(np.vecdot(vec, vec))[:, None]
    r = (stack @ vec[:, :, None])[:, :, 0]
    r -= lam[:, None] * vec
    resid = np.sqrt(np.vecdot(r, r))
    over = resid > 1e-8 * np.maximum(norm, 1e-300)
    if over.any():
        raise NumericalError(f"eigenpair residual {resid[over.argmax()]:.3e} exceeds 1e-8 * ||H||")
    return lam, vec


def _outcome(fn, stack):
    """The bits of fn's eigenpairs, or the type and message of its error."""
    try:
        with np.errstate(all="ignore"):
            lam, vec = fn(stack)
    except (ConfigurationError, NumericalError, np.linalg.LinAlgError) as err:
        return type(err), str(err)
    return lam.view(np.uint64).tolist(), vec.view(np.uint64).tolist()


def _eigen_check_stacks():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 6, 6))
    sym = 0.5 * (a + a.transpose(0, 2, 1))
    zero_pair = sym.copy()
    zero_pair[1, 2, 3], zero_pair[1, 3, 2] = 0.0, -0.0  # equal, but not bit for bit
    within = sym.copy()
    within[2, 1, 4] += 1e-14
    beyond = sym.copy()
    beyond[3, 0, 5] += 1e-3
    huge = np.where(rng.random((6, 6)) < 0.5, 1e308, -1e308)
    huge = np.triu(huge) + np.triu(huge, 1).T  # finite, but its sum overflows
    stacks = {"symmetric": sym, "zero_pair": zero_pair, "within_tolerance": within,
              "beyond_tolerance": beyond, "huge": np.stack([huge, sym[0]]),
              "huge_diagonal": np.diag([1e308, -1e308, 1e308])[None]}
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("minus_inf", -np.inf)):
        for where in ((0, 0), (1, 2)):
            m = sym.copy()
            m[2][where] = m[2][where[::-1]] = bad  # symmetric bit for bit
            stacks[f"{name}_{where}"] = m
            m = sym.copy()
            m[3][where] = bad
            stacks[f"{name}_{where}_one_side"] = m
    return stacks


def _one_matrix(stack):
    """min_eigenvalue of the (d, d) matrix of a one-matrix stack, as a stack's pairs."""
    lam, vec = min_eigenvalue(stack[0])
    return np.array([lam]), vec[None]


@pytest.mark.parametrize("name", sorted(_eigen_check_stacks()))
def test_eigen_check_fast_path_keeps_the_two_pass_outcome(name):
    # a stack equal to its transpose bit for bit skips the scale and asymmetry
    # passes; the eigenpairs, and the error and its order, stay those of the passes
    stack = _eigen_check_stacks()[name]
    assert _outcome(min_eigenvalue, stack) == _outcome(_two_pass_min_eigenvalue, stack)
    for i in range(len(stack)):  # and each matrix on its own
        assert (_outcome(_one_matrix, stack[i:i + 1])
                == _outcome(_two_pass_min_eigenvalue, stack[i:i + 1]))


def test_min_eigenvalue_of_empty_input():
    lam, vec = min_eigenvalue(np.zeros((0, 3, 3)))
    assert lam.shape == (0,) and vec.shape == (0, 3)
    for H in (np.zeros((0, 0)), np.zeros((2, 0, 0)), np.zeros((0, 0, 0))):
        with pytest.raises(ConfigurationError, match="0 x 0 matrix"):
            min_eigenvalue(H)


def test_min_eigenvalue_iterative_path_above_dense_limit():
    # d > 512 switches to the Lanczos branch with a deterministic start
    rng = np.random.default_rng(1)
    d = 600
    diag = rng.uniform(0.5, 3.0, d)
    diag[37] = -1.5  # well-separated minimum eigenvalue
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    H = basis @ np.diag(diag) @ basis.T
    H = 0.5 * (H + H.T)
    lam, vec = min_eigenvalue(H)
    assert lam == pytest.approx(-1.5, abs=1e-8)
    assert np.linalg.norm(H @ vec - lam * vec) <= 1e-8 * np.abs(diag).max()
    lam2, _ = min_eigenvalue(H)
    assert lam == lam2  # deterministic start vector


def test_certify_strict_minimum_for_every_epsilon():
    q = 0.008
    p = make_multiplicative_saddle(d=10, neg_count=1, rho=2.0, quartic_coeff=q)
    x_min = np.zeros(10)
    x_min[0] = 1.0 / (2.0 * np.sqrt(q))
    for eps in (1e-4, 1e-2, 0.5):
        cert = certify(p, x_min, eps)
        assert cert.certified
        assert cert.lambda_min > 0


def test_certify_saddle_threshold():
    # at the origin: grad = 0, lambda_min = -1, so certified iff 1/L_H <= sqrt(eps)
    p = make_multiplicative_saddle(d=4, neg_count=1, rho=1.0, quartic_coeff=0.05, box_radius=2.5)
    L_H = p.meta.L_H
    assert L_H == pytest.approx(24 * 0.05 * 2.5)  # == 3
    threshold = 1.0 / L_H**2  # certified iff eps >= 1/L_H^2
    above = certify(p, np.zeros(4), threshold * 1.05)
    below = certify(p, np.zeros(4), threshold * 0.95)
    assert above.certified and not below.certified
    assert above.score == pytest.approx(1.0 / L_H)


def test_certificate_matches_independent_recomputation():
    p = make_phase_retrieval(d=5, m=40, planted_seed=1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(5)
        cert = certify(p, x, 0.1)
        lam, _ = min_eigenvalue(p.exact_hess(x))
        assert certify(p, x, 0.1, grad=p.exact_grad(x), lambda_min=lam) == cert
        # finite-difference gradient norm
        h = 1e-6
        fd = np.array([
            (p.exact_value(x + h * e) - p.exact_value(x - h * e)) / (2 * h)
            for e in np.eye(5)
        ])
        lam_pi, _ = _power_iteration_min_eig(p.exact_hess(x))
        score = max(np.sqrt(np.linalg.norm(fd)), -lam_pi / p.meta.L_H)
        assert abs(score - cert.score) < 1e-4


def test_score_invariant_under_value_offset():
    p = make_multiplicative_saddle(d=3, neg_count=1, rho=1.0, quartic_coeff=0.01)
    shifted = dataclasses.replace(p, exact_value=lambda x, _f=p.exact_value: _f(x) + 17.5)
    x = np.array([0.4, -0.2, 0.9])
    assert certify(p, x, 0.05).score == certify(shifted, x, 0.05).score


def test_certify_preconditions(quad_saddle_2d):
    with pytest.raises(ConfigurationError):
        certify(quad_saddle_2d, np.zeros(2), 0.0)
    for epsilon in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="finite"):
            certify(quad_saddle_2d, np.zeros(2), epsilon)
    with pytest.raises(ConfigurationError, match="both grad and lambda_min"):
        certify(quad_saddle_2d, np.zeros(2), 0.1, grad=np.zeros(2))


def test_certify_rejects_non_finite_inputs():
    # at the origin of the d = 4 saddle lambda_min = -1: never certified.
    # max(sqrt(||g||), nan) keeps its first argument, so a NaN L_H, gradient
    # or eigenvalue used to certify it with score 0
    p = make_multiplicative_saddle(d=4, neg_count=1, rho=2.0, quartic_coeff=0.01)
    cert = certify(p, np.zeros(4), 0.05)
    assert not cert.certified and cert.lambda_min == -1.0
    nan_meta = dataclasses.replace(p.meta)
    object.__setattr__(nan_meta, "L_H", math.nan)  # past ProblemMetadata's own check
    with pytest.raises(ConfigurationError, match="L_H > 0"):
        certify(dataclasses.replace(p, meta=nan_meta), np.zeros(4), 0.05)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericalError, match="non-finite gradient"):
            certify(p, np.zeros(4), 0.05, grad=np.array([0.0, bad, 0.0, 0.0]), lambda_min=-1.0)
        with pytest.raises(NumericalError, match="non-finite lambda_min"):
            certify(p, np.zeros(4), 0.05, grad=np.zeros(4), lambda_min=bad)
    # a finite gradient whose squared norm overflows is not certified, as before
    with np.errstate(over="ignore"):
        cert = certify(p, np.zeros(4), 0.05, grad=np.full(4, 1e200), lambda_min=1.0)
    assert cert.grad_norm == math.inf and not cert.certified


def _trace_with_flags(flags):
    trace = RunTrace(seed=0, algorithm="psgd", config_echo="")
    for t, flag in enumerate(flags):
        trace.append(TraceRow(t=t, f=0.0, grad_norm=0.0, lambda_min=0.0,
                              oracle_calls=t, certified=flag))
    return trace


def test_sosp_fraction_all_certified():
    assert sosp_fraction(_trace_with_flags([True] * 10), 0.2) == 1.0


def test_sosp_fraction_alternating():
    assert sosp_fraction(_trace_with_flags([True, False] * 50), 0.0) == 0.5


def test_sosp_fraction_errors():
    with pytest.raises(ConfigurationError):
        sosp_fraction(_trace_with_flags([True]), 0.95)
    with pytest.raises(EvaluationError):
        sosp_fraction(RunTrace(seed=0, algorithm="psgd", config_echo=""), 0.2)


def test_trace_append_enforces_order():
    trace = _trace_with_flags([True, False])
    with pytest.raises(EvaluationError):
        trace.append(TraceRow(t=1, f=0.0, grad_norm=0.0, lambda_min=0.0,
                              oracle_calls=5, certified=True))
    with pytest.raises(EvaluationError):
        trace.append(TraceRow(t=5, f=0.0, grad_norm=0.0, lambda_min=0.0,
                              oracle_calls=0, certified=True))


def test_first_certified_calls():
    trace = _trace_with_flags([False, False, True, True])
    assert trace.first_certified_calls() == 2
    assert _trace_with_flags([False]).first_certified_calls() is None
