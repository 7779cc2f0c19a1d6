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
