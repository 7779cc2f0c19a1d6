"""The benchmark's tracer patches saddlescape attributes by name.

``perfbench/tracing.py`` swaps module attributes (``scrn.brentq``,
``scrn.solve_cubic``, ``harness.write_trace``, ...) for traced wrappers.
A refactor that removes or renames one of them breaks the traced benchmark
run; this test catches it with the ordinary test suite.
"""

from pathlib import Path

from conftest import watched
from saddlescape import diagnostics, harness, psgd, scrn
from saddlescape.seeds import SeedStream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    owners = (diagnostics, harness, psgd, scrn, SeedStream)
    before = [dict(vars(owner)) for owner in owners]
    brentq, solve_cubic = scrn.brentq, scrn.solve_cubic
    with tracing.Tracer().installed():
        assert scrn.brentq is not brentq and scrn.solve_cubic is not solve_cubic
    assert [dict(vars(owner)) for owner in owners] == before


def test_tracer_sees_the_run_loop(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import WORKLOADS

    # the PSGD cell stops at its first certified row, long before max_steps
    psgd_spec = harness.ExperimentSpec(**dict(
        WORKLOADS["psgd_sgc"], epsilon_grid=(0.2,), seeds=(0,), max_steps=2000))
    scrn_spec = harness.ExperimentSpec(**dict(
        WORKLOADS["scrn_ho"], epsilon_grid=(0.2,), seeds=(0,), max_steps=20))
    tracer = tracing.Tracer()
    with tracer.installed():
        psgd_trace = harness.run_cell(psgd_spec, 0.2, 0)
        psgd_certify = tracer.calls["diagnostics.certify"]
        psgd_samples = tracer.counts["problems.samples"]
        scrn_trace = harness.run_cell(scrn_spec, 0.2, 0)
    assert psgd_trace.rows[-1].certified and psgd_trace.rows[-1].t < 2000
    # the theta rows are drawn in chunks, through the traced draw_perturbation
    assert tracer.calls["psgd.draw_perturbation"] >= 1
    assert psgd_samples == psgd_trace.total_oracle_calls
    assert tracer.calls["harness._run_psgd_stopping"] == tracer.calls["scrn.run_scrn"] == 1
    assert tracer.calls["psgd.psgd_step"] == psgd_trace.rows[-1].t
    assert tracer.calls["scrn._estimate_step"] == scrn_trace.rows[-1].t == 20
    assert psgd_certify == len(psgd_trace.rows)
    # SCRN also certifies its random iterate
    assert tracer.calls["diagnostics.certify"] - psgd_certify == len(scrn_trace.rows) + 1


@watched
def test_tracer_wraps_the_zeroth_order_estimators(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import WORKLOADS

    spec = harness.ExperimentSpec(**dict(WORKLOADS["scrn_zo"], max_steps=1))
    tracer = tracing.Tracer()
    with tracer.installed():
        trace = harness.run_cell(spec, 0.2, 0)
    assert trace.rows[-1].t == 1
    assert tracer.calls["estimators.zo_gradient"] == tracer.calls["estimators.zo_hessian"] == 1
    assert tracer.counts["problems.samples"] == trace.total_oracle_calls
    # the random iterate's generator and one per estimator call, each made in
    # the caller's thread, never in the zeroth-order direction producer
    assert tracer.calls["seeds.rng"] == 3
    # 146 blocks of 3,276 directions: two 256 KiB direction buffers, the
    # step, point and weighted buffers and one block's queries, never a
    # (n2, d) array (38 MB)
    assert 0 < tracer.zo_hess_peak_bytes < 4 * 2**20


def test_tracer_sees_a_group_certified_together(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import WORKLOADS

    seeds = (0, 1, 2)
    psgd_spec = harness.ExperimentSpec(**dict(
        WORKLOADS["psgd_sgc"], epsilon_grid=(0.2,), seeds=seeds, max_steps=2000))
    scrn_spec = harness.ExperimentSpec(**dict(
        WORKLOADS["scrn_ho"], epsilon_grid=(0.2,), seeds=seeds, max_steps=20))
    for spec, r_certificates in ((psgd_spec, 0), (scrn_spec, len(seeds))):
        tracer = tracing.Tracer()
        with tracer.installed():
            traces = harness._run_group(spec, [(0.2, seed) for seed in seeds])
        rows = [row.t for trace in traces for row in trace.rows]
        assert sum(trace.r_certificate is not None for trace in traces) == r_certificates
        # one certify call per seed and row, and per random iterate
        assert tracer.calls["diagnostics.certify"] == len(rows) + r_certificates
        # one stacked min_eigenvalue call per checkpoint of the group, and one
        # for the random iterates
        checkpoints = len(set(rows)) + (r_certificates > 0)
        assert tracer.calls["diagnostics.min_eigenvalue"] == checkpoints < len(rows)
        assert tracer.calls["problems.exact_hess"] == checkpoints


def test_tracer_sees_an_arm_stepped_and_certified_together(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import EPS_GRID, WORKLOADS

    # PSGD cells stop at their first certified rows, SCRN cells run their own
    # theorem_T (100 and 282) or max_steps (300)
    for name, max_steps, step_span, r_certificates in (
            ("psgd_sgc", 2000, "psgd.psgd_step", 0), ("scrn_ho", 300, "scrn._estimate_step", 1)):
        spec = harness.ExperimentSpec(**dict(WORKLOADS[name], seeds=(0, 1), max_steps=max_steps))
        assert spec.epsilon_grid == EPS_GRID
        tracer = tracing.Tracer()
        with tracer.installed():
            harness.run_experiment(spec, out_dir=tmp_path / name)
        traces = [harness.read_trace(f) for f in (tmp_path / name).glob(harness.TRACE_GLOB)]
        assert len(traces) == len(EPS_GRID) * 2
        last_step = {}  # epsilon -> last step of its config's runs
        checkpoints_by_eps = {}
        for trace in traces:
            eps = trace.echo("epsilon")
            last_step[eps] = max(last_step.get(eps, 0), trace.rows[-1].t)
            checkpoints_by_eps.setdefault(eps, set()).update(row.t for row in trace.rows)
        # one step call per step of the arm, for all its active runs, with
        # one call of each sampled estimator for all of them
        arm_steps = max(last_step.values())
        algorithm = step_span.split(".")[0]
        assert tracer.calls[step_span] == arm_steps
        assert tracer.calls["estimators.fo_gradient"] == arm_steps
        assert tracer.calls["estimators.so_hessian"] == (arm_steps if algorithm == "scrn" else 0)
        # a run that leaves mid-block narrows it, keeping its drawn
        # perturbations: one draw per block of steps
        blocks = -(-arm_steps // psgd._THETA_CHUNK) if algorithm == "psgd" else 0
        assert tracer.calls["psgd.draw_perturbation"] == blocks
        # and one clamp, and one cubic solve, per run and step
        run_steps = sum(trace.rows[-1].t for trace in traces)
        assert tracer.calls[f"{algorithm}.clamp_to_box"] == run_steps
        assert tracer.calls["scrn.solve_cubic"] == (run_steps if algorithm == "scrn" else 0)
        # one stacked exact-Hessian pass and min_eigenvalue call per distinct
        # checkpoint step of the arm, and one for the random iterates
        checkpoints = len(set().union(*checkpoints_by_eps.values())) + r_certificates
        assert tracer.calls["diagnostics.min_eigenvalue"] == checkpoints
        assert tracer.calls["problems.exact_hess"] == checkpoints
        assert checkpoints < sum(map(len, checkpoints_by_eps.values()))
