"""The benchmark's tracer patches saddlescape attributes by name.

``perfbench/tracing.py`` swaps module attributes (``scrn.brentq``,
``scrn.solve_cubic``, ``harness.write_trace``, ...) for traced wrappers.
A refactor that removes or renames one of them breaks the traced benchmark
run; this test catches it with the ordinary test suite.
"""

from pathlib import Path

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
    assert tracer.zo_hess_peak_bytes > 0
