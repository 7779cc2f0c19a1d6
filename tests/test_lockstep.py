"""The cells of an arm run in lockstep and give their own runs.

``run_experiment`` advances every (epsilon, seed) cell of an arm as one
group through ``psgd.run_steps``, each under its own epsilon's config;
``run_cell`` is the group of one cell.  Every trace of a group must be
byte-identical to the cell's own run, and a cell that ends, stops or fails
must leave the group without touching the others.  Within one step, both
step functions return one outcome per row, and a failed row's error stays
in its own outcome.
"""

import dataclasses

import numpy as np
import pytest
from conftest import counting_problem, step_rows, watched

from saddlescape import harness, psgd, scrn
from saddlescape.errors import NumericalError
from saddlescape.harness import ExperimentSpec, read_trace, run_cell, run_experiment, write_trace
from saddlescape.problems import RaggedBatch, problem_from_config
from saddlescape.psgd import PsgdConfig, psgd_step
from saddlescape.scrn import CubicSolution, ScrnConfig, _estimate_step
from saddlescape.seeds import SeedStream

SADDLE = dict(family="multiplicative_saddle", dim=10, neg_count=1, rho=2.0, quartic_coeff=0.008)
SMALL_SADDLE = dict(SADDLE, dim=4)

ARMS = {
    # seeds stop at their first certified row, at different steps
    "psgd_sgc_stopping": dict(
        problem=SADDLE, algorithm="psgd", mode="first_order", sgc_arm=True,
        epsilon_grid=(0.2, 0.1), seeds=range(5), max_steps=2000, c=0.01,
        stop_after_certified=True),
    "psgd_additive": dict(
        problem=dict(SADDLE, rho=1.0, sigma=0.5), algorithm="psgd", mode="first_order",
        sgc_arm=False, epsilon_grid=(0.2,), seeds=range(3), max_steps=80, c=0.01,
        certify_every=7),
    "psgd_zeroth_order": dict(
        problem=SADDLE, algorithm="psgd", mode="zeroth_order", sgc_arm=True,
        epsilon_grid=(0.2,), seeds=range(3), max_steps=30, certify_every=4,
        kappa=(1.0,) * 5 + (0.01,) + (1.0,) * 4),
    "scrn_higher_order": dict(
        problem=SADDLE, algorithm="scrn", mode="higher_order", sgc_arm=True,
        epsilon_grid=(0.2, 0.1), seeds=range(3), max_steps=60, x0_offset=0.3),
    # the cells run their own theorem_T, 100 and 282 steps
    "scrn_run_lengths": dict(
        problem=SADDLE, algorithm="scrn", mode="higher_order", sgc_arm=True,
        epsilon_grid=(0.2, 0.1), seeds=range(2), max_steps=300),
    "scrn_zeroth_order": dict(
        problem=SMALL_SADDLE, algorithm="scrn", mode="zeroth_order", sgc_arm=True,
        epsilon_grid=(0.2,), seeds=range(3), max_steps=3, mu=(1.0, 1.0, 1e-4, 1.0, 1.0)),
    # n2 = 20,636 directions, three blocks of at most 8,192 at d = 4: the
    # next block is drawn on a second thread
    "scrn_zeroth_order_blocks": dict(
        problem=SMALL_SADDLE, algorithm="scrn", mode="zeroth_order", sgc_arm=True,
        epsilon_grid=(0.2,), seeds=range(2), max_steps=2, mu=(1.0, 1.0, 5e-3, 1.0, 1.0)),
    "phase_retrieval": dict(
        problem=dict(family="phase_retrieval", dim=4, m=32, planted_seed=2, sigma=0.1),
        algorithm="psgd", mode="first_order", sgc_arm=False, epsilon_grid=(0.2,),
        seeds=range(3), max_steps=50, c=0.01, x0_offset=0.5),
}


@pytest.mark.parametrize("arm", sorted(ARMS))
@watched  # scrn_zeroth_order_blocks runs multi-block batches
def test_group_traces_are_the_one_seed_traces(tmp_path, arm):
    spec = ExperimentSpec(**ARMS[arm])
    run_experiment(spec, out_dir=tmp_path, master_seed=3)
    assert (tmp_path / "cells.txt").read_text().count(" ok\n") == len(spec.epsilon_grid) * len(spec.seeds)
    last_rows, run_lengths = set(), set()
    for eps in spec.epsilon_grid:
        for seed in spec.seeds:
            name = harness._trace_filename(spec, eps, seed)
            own = run_cell(spec, eps, seed, master_seed=3)
            write_trace(own, tmp_path / f"own_{name}")
            assert (tmp_path / name).read_bytes() == (tmp_path / f"own_{name}").read_bytes()
            grouped = read_trace(tmp_path / name)
            assert grouped.total_oracle_calls == own.total_oracle_calls
            assert (grouped.r_index, grouped.r_oracle_calls, grouped.r_certificate) == (
                own.r_index, own.r_oracle_calls, own.r_certificate)
            last_rows.add(own.rows[-1].t)
            run_T = int(own.echo("T"))
            run_lengths.add(run_T)
            if own.r_index is not None:
                assert 1 <= own.r_index <= run_T
    if spec.stop_after_certified:
        assert len(last_rows) > 1  # the seeds left the group at different steps
    if arm == "scrn_run_lengths":
        assert run_lengths == {100, 282} and last_rows == run_lengths


def _call_rows(points, n):
    """The (k, d) distinct points of an oracle call with n seeds and the
    seed count of each, for the equal-split and the ragged form."""
    if isinstance(points, RaggedBatch):
        rows, counts = points
        return np.asarray(rows), np.asarray(counts)
    rows = np.atleast_2d(points)
    return rows, np.full(len(rows), n // len(rows))


def _beyond(points, n, limit):
    """Whether each of an oracle call's n samples is at a point with x[0] > limit."""
    rows, counts = _call_rows(points, n)
    return np.repeat(rows[:, 0] > limit, counts)


def _nan_gradients_beyond(p, limit):
    """``p`` whose sampled gradients are NaN at points with x[0] > limit."""
    def grad_batch(points, seeds):
        grads = p.sample_grad_batch(points, seeds)
        grads[_beyond(points, len(seeds), limit)] = np.nan
        return grads

    return dataclasses.replace(p, sample_grad_batch=grad_batch)


def _nan_sampled_hessians_beyond(p, limit):
    """``p`` whose sampled Hessians are NaN at points with x[0] > limit."""
    def hess_batch(points, seeds):
        hess = p.sample_hess_batch(points, seeds)
        hess[_beyond(points, len(seeds), limit)] = np.nan
        return hess

    return dataclasses.replace(p, sample_hess_batch=hess_batch)


def _nan_hessians_beyond(p, limit):
    """``p`` whose exact Hessians are NaN at points with x[0] > limit, of a
    (d,) point or of each row of a (k, d) stack."""
    def exact_hess(x):
        hess = p.exact_hess(x)
        hess[np.asarray(x)[..., 0] > limit] = np.nan
        return hess

    return dataclasses.replace(p, exact_hess=exact_hess)


# a step fails on NaN sampled gradients, a certification on NaN exact Hessians
FAULTS = pytest.mark.parametrize("fault, message", [
    (_nan_gradients_beyond, "update produced non-finite entries"),
    (_nan_hessians_beyond, "matrix has non-finite entries"),
], ids=["sampled_gradients", "exact_hessians"])


@FAULTS
def test_failed_seed_leaves_the_group_alone(tmp_path, monkeypatch, fault, message):
    _check_failed_cell_leaves_the_group_alone(tmp_path, monkeypatch, fault, message, (0.2,))


@FAULTS
def test_failed_cell_leaves_a_mixed_epsilon_group_alone(tmp_path, monkeypatch, fault, message):
    _check_failed_cell_leaves_the_group_alone(tmp_path, monkeypatch, fault, message, (0.2, 0.1))


def _check_failed_cell_leaves_the_group_alone(tmp_path, monkeypatch, fault, message, grid):
    """One cell of the grid's group fails; every other cell, of every
    epsilon, gives its own run's trace."""
    counters = []

    def faulty(config):
        p, counter = counting_problem(fault(build(config), 0.5))
        counters.append(counter)
        return p

    build = harness.problem_from_config
    monkeypatch.setattr(harness, "problem_from_config", faulty)
    spec = ExperimentSpec(problem=SADDLE, algorithm="psgd", mode="first_order", sgc_arm=True,
                          epsilon_grid=grid, seeds=(0, 1, 2), max_steps=150, c=0.01)
    run_experiment(spec, out_dir=tmp_path)
    group_drawn = counters[-1].total
    group_lines = (tmp_path / "cells.txt").read_text().splitlines()
    cells = [(eps, seed) for eps in grid for seed in spec.seeds]
    outcomes = harness._run_group(spec, cells)
    assert counters[-1].total == group_drawn
    failed = [o for o in outcomes if isinstance(o, NumericalError)]
    assert len(failed) == 1 and 1 < failed[0].iterate < 150
    assert str(failed[0]) == message

    own_drawn = 0
    for (eps, seed), outcome, line in zip(cells, outcomes, group_lines):
        try:
            own = run_cell(spec, eps, seed)
        except NumericalError as err:
            assert line == f"eps={eps:g} seed={seed} failed: {err}"
            assert isinstance(outcome, NumericalError) and str(outcome) == str(err)
            assert outcome.iterate == err.iterate and outcome.trace.rows == err.trace.rows
            assert outcome.trace.total_oracle_calls == err.trace.total_oracle_calls
        else:
            assert line == f"eps={eps:g} seed={seed} ok"
            name = harness._trace_filename(spec, eps, seed)
            write_trace(own, tmp_path / f"own_{name}")
            assert (tmp_path / name).read_bytes() == (tmp_path / f"own_{name}").read_bytes()
        own_drawn += counters[-1].total
    # samples drawn = calls charged, the failed seed's through its failing step
    charged = sum((o.trace if isinstance(o, NumericalError) else o).total_oracle_calls
                  for o in outcomes)
    assert group_drawn == own_drawn == charged


def _psgd_step(p, x, stream):
    return step_rows(psgd_step, p, x, PsgdConfig(eta=0.02, r=0.3, n1=4, T=10, box_radius=10.0,
                                                 epsilon=0.1), stream)


def _scrn_step(p, x, stream):
    return step_rows(_estimate_step, p, x, ScrnConfig(M=5.0, n1=3, n2=3, T=10, box_radius=10.0,
                                                      epsilon=0.1), stream)


def _same_outcome(a, b) -> bool:
    if isinstance(a, CubicSolution) and isinstance(b, CubicSolution):
        return np.array_equal(a.h_star, b.h_star) and (
            a.model_decrease, a.radius, a.multiplier, a.hard_case) == (
            b.model_decrease, b.radius, b.multiplier, b.hard_case)
    return a is None and b is None


@pytest.mark.parametrize("step, fault, message", [
    (_psgd_step, _nan_gradients_beyond, "update produced non-finite entries"),
    (_scrn_step, _nan_gradients_beyond, "cubic model has non-finite entries"),
    (_scrn_step, _nan_sampled_hessians_beyond, "cubic model has non-finite entries"),
], ids=["psgd_sampled_gradients", "scrn_sampled_gradients", "scrn_sampled_hessians"])
def test_failed_row_of_a_step_leaves_the_other_rows_alone(step, fault, message):
    """A step returns one outcome per row: the failed row's own
    NumericalError, and for every other row what its group of one gives."""
    p = fault(problem_from_config(dict(SADDLE)), 0.5)
    x = np.full((3, 10), 0.1)
    x[1, 0] = 0.9
    x[2] *= -2.0
    streams = SeedStream.block([SeedStream(seed, "psgd").child("step", 4).state
                                for seed in range(3)])
    x_new, outcomes = step(p, x, streams)
    assert len(outcomes) == 3
    assert isinstance(outcomes[1], NumericalError) and str(outcomes[1]) == message
    for j in (0, 2):
        own_x, (own,) = step(p, x[j:j + 1], SeedStream.block([streams.state[j]]))
        assert np.isfinite(own_x).all()
        assert np.array_equal(x_new[j], own_x[0])
        assert _same_outcome(outcomes[j], own)


def _large_sampled_hessians_beyond(p, limit):
    """``p`` whose sampled Hessians are 1e6 times larger at points with x[0] > limit."""
    def hess_batch(points, seeds):
        hess = p.sample_hess_batch(points, seeds)
        hess[_beyond(points, len(seeds), limit)] *= 1e6
        return hess

    return dataclasses.replace(p, sample_hess_batch=hess_batch)


# the rows of one step under two configs: rows 0 and 2 under the first, 1 and 3 under the second
TWO_CONFIGS = {
    "psgd": [PsgdConfig(eta=0.02, r=0.3, n1=4, T=10, box_radius=10.0, epsilon=0.1),
             PsgdConfig(eta=0.01, r=0.0, n1=2, T=20, box_radius=1.2, epsilon=0.05)],
    "scrn": [ScrnConfig(M=5.0, n1=3, n2=3, T=10, box_radius=10.0, epsilon=0.1),
             ScrnConfig(M=7.0, n1=2, n2=5, T=20, box_radius=1.2, epsilon=0.05)],
}


@pytest.mark.parametrize("algorithm, fault, message", [
    ("psgd", _nan_gradients_beyond, "update produced non-finite entries"),
    ("scrn", _nan_sampled_hessians_beyond, "cubic model has non-finite entries"),
    ("scrn", _large_sampled_hessians_beyond, r"cubic solve failed (M = 7.0): no convergence"),
], ids=["psgd_sampled_gradients", "scrn_sampled_hessians", "scrn_failed_eigh"])
def test_failed_row_of_a_two_config_step_leaves_the_other_rows_alone(monkeypatch, algorithm,
                                                                      fault, message):
    """A step over rows of two configs makes one ragged oracle call per
    estimator for all its rows, each row with its own config's batch size,
    and a fault fails only its own row: every other row is the one its
    config gives the row alone, bit for bit.  A step clamps each finite row
    once and never the failed one, which stays NaN (a NaN row through
    ``clamp_to_box`` is a new array: the benchmark's tracer would count it
    as a clamped step)."""
    eigh = np.linalg.eigh

    def failing_eigh(H):
        # LAPACK gives up on any stack that holds one of the large Hessians
        if np.abs(H).max() > 1e5:
            raise np.linalg.LinAlgError("no convergence")
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    clamped = []  # the rows the step clamps
    module = psgd if algorithm == "psgd" else scrn
    clamp = module.clamp_to_box

    def counted_clamp(row, radius):
        clamped.append(row.copy())
        return clamp(row, radius)

    monkeypatch.setattr(module, "clamp_to_box", counted_clamp)
    p = fault(problem_from_config(dict(SADDLE)), 0.5)
    oracle_calls = []  # (oracle, each point's seed count) of each sampled-oracle call

    def counted(name):
        oracle = getattr(p, name)

        def batch(points, seeds):
            oracle_calls.append((name, _call_rows(points, len(seeds))[1].tolist()))
            return oracle(points, seeds)
        return batch

    p = dataclasses.replace(p, **{name: counted(name)
                                  for name in ("sample_grad_batch", "sample_hess_batch")})
    step = psgd_step if algorithm == "psgd" else _estimate_step
    first, second = TWO_CONFIGS[algorithm]
    cfgs = [first, second, first, second]
    x = np.full((4, 10), 0.1)
    x[1, 0] = 0.9
    x[2] *= -2.0
    x[3, 1] = 0.3
    streams = SeedStream.block([SeedStream(seed, algorithm).child("step", 4).state
                                for seed in range(4)])
    x_new, outcomes = step_rows(step, p, x, cfgs, streams)
    # one call per estimator and block (the four rows fit in one), each row
    # drawing its own config's batch
    batches = [("sample_grad_batch", "n1")] + (
        [("sample_hess_batch", "n2")] if algorithm == "scrn" else [])
    assert oracle_calls == [(name, [getattr(cfg, n) for cfg in cfgs]) for name, n in batches]
    assert len(outcomes) == 4
    assert isinstance(outcomes[1], NumericalError) and str(outcomes[1]) == message
    assert np.isnan(x_new[1]).all()
    assert len(clamped) == 3 and np.isfinite(clamped).all()
    for j in (0, 2, 3):
        own_x, (own,) = step_rows(step, p, x[j:j + 1], cfgs[j],
                                  SeedStream.block([streams.state[j]]))
        assert np.isfinite(own_x).all()
        assert np.array_equal(x_new[j], own_x[0])
        assert _same_outcome(outcomes[j], own)
        if algorithm == "psgd" and cfgs[j].r == 0.0:
            assert np.array_equal(np.signbit(x_new[j]), np.signbit(own_x[0]))


MIXED_MODES = {  # first- or higher-order rows 0 and 2, zeroth-order rows 1 and 3
    "psgd": [PsgdConfig(eta=0.02, r=0.3, n1=4, T=10, box_radius=10.0, epsilon=0.1),
             PsgdConfig(eta=0.01, r=0.1, n1=3, T=10, box_radius=10.0, epsilon=0.1,
                        mode="zeroth_order", nu=0.01),
             PsgdConfig(eta=0.02, r=0.0, n1=7, T=10, box_radius=1.2, epsilon=0.1)],
    "scrn": [ScrnConfig(M=5.0, n1=3, n2=3, T=10, box_radius=10.0, epsilon=0.1),
             ScrnConfig(M=5.0, n1=3, n2=4, T=10, box_radius=10.0, epsilon=0.1,
                        mode="zeroth_order", nu=0.01),
             ScrnConfig(M=7.0, n1=2, n2=5, T=10, box_radius=1.2, epsilon=0.1)],
}


@pytest.mark.parametrize("algorithm", sorted(MIXED_MODES))
def test_a_step_of_mixed_modes_gives_each_row_its_own_step(algorithm):
    # the sampled-oracle rows share one packed call per estimator, the
    # zeroth-order rows one call of their config; every row is its own step
    sampled, zeroth, other = MIXED_MODES[algorithm]
    cfgs = [sampled, zeroth, other, zeroth]
    step = psgd_step if algorithm == "psgd" else _estimate_step
    p = problem_from_config(dict(SADDLE))
    x = np.full((4, 10), 0.1) + 0.05 * np.arange(4)[:, None]
    streams = SeedStream.block([SeedStream(seed, algorithm).child("step", 2).state
                                for seed in range(4)])
    x_new, outcomes = step_rows(step, p, x, cfgs, streams)
    for j, cfg in enumerate(cfgs):
        own_x, (own,) = step_rows(step, p, x[j:j + 1], cfg, SeedStream.block([streams.state[j]]))
        assert np.array_equal(x_new[j], own_x[0])
        assert _same_outcome(outcomes[j], own)
