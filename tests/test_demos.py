"""Smoke test of the demo scripts: each runs to completion and prints.

``demos/05_complexity_sweep.py`` is left out: it takes several seconds and
runs the same PSGD sweep arms as the acceptance tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import watched

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "01_problem_zoo.py",
    "02_estimator_moments.py",
    "03_cubic_subproblem.py",
    "04_saddle_escape.py",
])
@watched  # 02 runs multi-block zeroth-order batches
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
