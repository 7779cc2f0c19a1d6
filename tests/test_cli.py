import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from saddlescape.cli import main

SPEC_TEXT = """
family = multiplicative_saddle
dim = 6
neg_count = 1
rho = 2.0
quartic_coeff = 0.008
algorithm = psgd
mode = first_order
sgc_arm = true
epsilon_grid = 0.2
seeds = 0, 1
c = 0.01
max_steps = 1500
stop_after_certified = true
"""

PROBLEM_TEXT = """
family = multiplicative_saddle
dim = 4
neg_count = 1
rho = 1.0
quartic_coeff = 0.05
r_box = 2.5
"""


def test_run_and_summarize_and_plot(tmp_path, capsys):
    spec = tmp_path / "exp.cfg"
    spec.write_text(SPEC_TEXT)
    out = tmp_path / "runs"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "complexity.svg").exists()
    assert len(list(out.glob("psgd_*.csv"))) == 2
    assert "median_calls" in capsys.readouterr().out

    assert main(["summarize", "--dir", str(out)]) == 0
    assert "psgd-first_order-sgc" in capsys.readouterr().out

    svg = tmp_path / "curve.svg"
    assert main(["plot", "--summary", str(out / "summary.csv"), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


SADDLE_TEXT = """
family = multiplicative_saddle
dim = 10
neg_count = 1
rho = 2.0
quartic_coeff = 0.008
epsilon_grid = 0.2, 0.1
seeds = 0, 1, 2
burn_in = 0.5
"""


@pytest.mark.parametrize("arm", [
    "algorithm = psgd\nc = 0.01\nmax_steps = 1500\nstop_after_certified = true\n",
    "algorithm = scrn\nmode = higher_order\nmax_steps = 100\n",
], ids=["psgd", "scrn"])
def test_summarize_reproduces_run_outputs(tmp_path, capsys, arm):
    spec = tmp_path / "exp.cfg"
    spec.write_text(SADDLE_TEXT + arm)
    out = tmp_path / "runs"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    outputs = {name: (out / name).read_bytes() for name in ("summary.csv", "complexity.svg")}
    (out / "notes.csv").write_text("not,a,trace\n")  # only *_seed*.csv files are traces
    assert main(["summarize", "--dir", str(out)]) == 0
    assert capsys.readouterr().out == printed
    for name, data in outputs.items():
        assert (out / name).read_bytes() == data


def test_run_replaces_earlier_traces(tmp_path, capsys):
    spec = tmp_path / "exp.cfg"
    out = tmp_path / "runs"
    arm = "algorithm = scrn\nmode = higher_order\nmax_steps = 100\n"
    spec.write_text(SADDLE_TEXT + arm)
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    spec.write_text(SADDLE_TEXT.replace("seeds = 0, 1, 2", "seeds = 0") + arm)
    capsys.readouterr()
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert sorted(p.name for p in out.glob("*_seed*.csv")) == [
        "scrn_higher_order_sgc_eps0.1_seed0.csv", "scrn_higher_order_sgc_eps0.2_seed0.csv",
    ]
    assert main(["summarize", "--dir", str(out)]) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("row, message", [
    ("0.2,psgd,first_order,1,1500", "line 2: expected 8 fields, got 5"),
    ("0.2,psgd,first_order,1,many,0.75,1.0,", "line 2: invalid literal"),
], ids=["cut", "unparsable"])
def test_plot_rejects_malformed_summary(tmp_path, capsys, row, message):
    summary = tmp_path / "summary.csv"
    summary.write_text(
        "epsilon,algorithm,mode,sgc_arm,median_calls_to_first_certified,"
        "sosp_fraction,success_rate,median_calls_at_random_iterate\n"
        f"{row}\n0.1,psgd,first_order,1,4200,0.75,1.0,\n"
    )
    svg = tmp_path / "curve.svg"
    assert main(["plot", "--summary", str(summary), "--out", str(svg)]) == 1
    err = capsys.readouterr().err
    assert f"summary.csv, {message}" in err and len(err.splitlines()) == 1
    assert not svg.exists()


def test_summarize_rejects_malformed_trace(tmp_path, capsys):
    (tmp_path / "psgd_eps0.2_seed0.csv").write_text("t,f\n0,1.0\n")
    assert main(["summarize", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "psgd_eps0.2_seed0.csv, line 1" in err and len(err.splitlines()) == 1


# a valid spec whose every cell fails: at t = 0 the start's Hessian overflows
NO_CELL_SUCCEEDS = SPEC_TEXT + "x0_offset = 1e300\n"


def test_run_fails_when_no_cell_succeeds(tmp_path, capsys):
    spec = tmp_path / "exp.cfg"
    spec.write_text(NO_CELL_SUCCEEDS)
    out = tmp_path / "runs"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "cells.txt" in err and len(err.splitlines()) == 1
    assert "matrix has non-finite entries" in (out / "cells.txt").read_text()
    assert not (out / "summary.csv").exists()


# a zeroth-order cubic-Newton spec whose penalty M = mu[4] = 1e308 takes the
# cubic solve out of the float range
HUGE_PENALTY = """
family = multiplicative_saddle
dim = 2
neg_count = 1
rho = 2.0
quartic_coeff = 0.008
algorithm = scrn
mode = zeroth_order
sgc_arm = true
epsilon_grid = 0.2
seeds = 0
max_steps = 2
mu = 1.0, 1.0, 0.001, 1.0, 1e308
"""


def test_huge_cubic_penalty_fails_its_run_in_one_line(tmp_path, capsys):
    spec = tmp_path / "exp.cfg"
    spec.write_text(HUGE_PENALTY)
    out = tmp_path / "runs"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no cell succeeded") and len(err.splitlines()) == 1
    assert "cubic solve failed (M = 1e+308)" in (out / "cells.txt").read_text()


@pytest.mark.parametrize("problem", [
    "family = phase_retrieval\ndim = 4\nm = 16\nr_box = -2\n",
    "family = multiplicative_saddle\ndim = 4\nquartic_coeff = 0.1\nr_box = 0\n",
], ids=["phase_retrieval", "saddle"])
def test_run_names_a_non_positive_r_box(tmp_path, capsys, problem):
    spec = tmp_path / "exp.cfg"
    spec.write_text(problem + "algorithm = psgd\nsgc_arm = false\nepsilon_grid = 0.2\nseeds = 0\n")
    out = tmp_path / "runs"
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    value = problem.split("r_box = ")[1].strip()
    assert captured.err == f"error: r_box must be positive, got {float(value)}\n"


def test_failed_run_removes_earlier_summary(tmp_path, capsys):
    spec = tmp_path / "exp.cfg"
    out = tmp_path / "runs"
    spec.write_text(SPEC_TEXT.replace("seeds = 0, 1", "seeds = 0"))
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    assert (out / "summary.csv").exists() and (out / "complexity.svg").exists()
    spec.write_text(NO_CELL_SUCCEEDS.replace("seeds = 0, 1", "seeds = 0"))
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    assert not list(out.glob("*_seed*.csv"))
    assert not (out / "summary.csv").exists() and not (out / "complexity.svg").exists()
    capsys.readouterr()
    svg = tmp_path / "curve.svg"
    assert main(["plot", "--summary", str(out / "summary.csv"), "--out", str(svg)]) == 1
    assert "summary.csv" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("change, key", [
    (("", "delta = 2\n"), "delta"),
    (("", "mu = 1, 2\n"), "mu"),
    (("dim = 6", "dim = abc"), "'dim'"),
    (("seeds = 0, 1", "seeds = 0, 0, 1"), "repeated: 0"),
    # epsilons of one :g label would share trace files
    (("epsilon_grid = 0.2", "epsilon_grid = 0.2000001, 0.2"), "repeated: 0.2"),
    (("", "sigma = -0.5\n"), "sigma must be >= 0"),
    # phase retrieval has no growth constant for the strong-growth schedule
    (("family = multiplicative_saddle\ndim = 6\nneg_count = 1\nrho = 2.0\nquartic_coeff = 0.008",
      "family = phase_retrieval\ndim = 6\nm = 20"), "rho_true"),
    # the PSGD schedules need epsilon < 1/e
    (("epsilon_grid = 0.2", "epsilon_grid = 0.5, 0.2"), "schedule undefined for epsilon=0.5"),
], ids=["delta", "mu", "dim", "repeated_seeds", "repeated_epsilon_labels", "negative_sigma",
        "no_growth_constant", "epsilon_not_below_1_over_e"])
def test_bad_spec_leaves_earlier_outputs(tmp_path, capsys, change, key):
    spec = tmp_path / "exp.cfg"
    out = tmp_path / "runs"
    spec.write_text(SPEC_TEXT)
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    old, new = change
    spec.write_text(SPEC_TEXT.replace(old, new) if old else SPEC_TEXT + new)
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert key in err and len(err.splitlines()) == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_certify_command(tmp_path, capsys):
    prob = tmp_path / "prob.cfg"
    prob.write_text(PROBLEM_TEXT)
    points = tmp_path / "points.csv"
    # first row: the origin saddle; second: near the minimum along e1
    x_min = 1.0 / (2.0 * np.sqrt(0.05))
    points.write_text(f"0.0,0.0,0.0,0.0\n{x_min},0.0,0.0,0.0\n")
    assert main(["certify", "--problem", str(prob), "--point", str(points),
                 "--epsilon", "0.05"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("point 0: certified=0")
    assert lines[1].startswith("point 1: certified=1")


def test_certify_rejects_unknown_problem_key(tmp_path, capsys):
    prob = tmp_path / "prob.cfg"
    points = tmp_path / "points.csv"
    points.write_text("0.0,0.0,0.0,0.0\n")
    for text, message in [
        (PROBLEM_TEXT.replace("quartic_coeff", "quartic_coef"), "unknown problem keys: quartic_coef"),
        # a phase-retrieval key the saddle would otherwise ignore
        (PROBLEM_TEXT + "m = 20\n", "family multiplicative_saddle does not read problem keys: m"),
        (PROBLEM_TEXT + "sigma = -0.5\n", "sigma must be >= 0, got -0.5"),
    ]:
        prob.write_text(text)
        assert main(["certify", "--problem", str(prob), "--point", str(points),
                     "--epsilon", "0.05"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


@pytest.mark.parametrize("command, code, message", [
    ("certify", 2, "numerical failure: matrix has non-finite entries"),
    ("run", 1, "error: no cell succeeded"),
], ids=["certify", "run"])
def test_overflow_is_one_failure_line(tmp_path, capsys, recwarn, command, code, message):
    # the oracles overflow at a point of norm 1e300: the non-finite checks
    # report it, and numpy's overflow warnings stay silent
    prob, points, spec = tmp_path / "prob.cfg", tmp_path / "points.csv", tmp_path / "exp.cfg"
    prob.write_text(PROBLEM_TEXT)
    points.write_text("1e300,0.0,0.0,0.0\n")
    spec.write_text(NO_CELL_SUCCEEDS)
    argv = {
        "certify": ["certify", "--problem", str(prob), "--point", str(points), "--epsilon", "0.05"],
        "run": ["run", "--spec", str(spec), "--out", str(tmp_path / "runs")],
    }[command]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.splitlines()) == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("text, message", [
    ("0.0,0.0,0.0\n", "dimension 3"),
    ("nan,0.0,0.0,0.0\n", "non-finite"),
    ("0.0,zero,0.0,0.0\n", "points.csv"),
    ("", "no points"),
])
def test_certify_rejects_bad_points(tmp_path, capsys, recwarn, text, message):
    prob = tmp_path / "prob.cfg"
    prob.write_text(PROBLEM_TEXT)
    points = tmp_path / "points.csv"
    points.write_text(text)
    assert main(["certify", "--problem", str(prob), "--point", str(points),
                 "--epsilon", "0.05"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and len(captured.err.splitlines()) == 1
    assert len(recwarn) == 0


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_certify_rejects_non_finite_epsilon(tmp_path, capsys, epsilon):
    prob = tmp_path / "prob.cfg"
    prob.write_text(PROBLEM_TEXT)
    points = tmp_path / "points.csv"
    points.write_text("0.0,0.0,0.0,0.0\n")  # a saddle: certified for no finite epsilon
    assert main(["certify", "--problem", str(prob), "--point", str(points),
                 "--epsilon", epsilon]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon" in captured.err and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", ["summarize", "run", "plot", "certify"])
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, command):
    bad = b"\xff\xfe" + "family = multiplicative_saddle\n".encode("utf-16-le")
    prob, points = tmp_path / "prob.cfg", tmp_path / "points.csv"
    prob.write_text(PROBLEM_TEXT)
    points.write_text("0.0,0.0,0.0,0.0\n")
    named, argv = {
        "summarize": ("psgd_eps0.2_seed0.csv", ["summarize", "--dir", str(tmp_path)]),
        "run": ("exp.cfg", ["run", "--spec", str(tmp_path / "exp.cfg"),
                            "--out", str(tmp_path / "runs")]),
        "plot": ("summary.csv", ["plot", "--summary", str(tmp_path / "summary.csv"),
                                 "--out", str(tmp_path / "curve.svg")]),
        "certify": ("prob.cfg", ["certify", "--problem", str(prob), "--point", str(points),
                                 "--epsilon", "0.05"]),
    }[command]
    (tmp_path / named).write_bytes(bad)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / named}: not UTF-8 text")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (["run", "--spec", "s.cfg", "--out", "o", "--workers", "2"], "unrecognized arguments"),
    ([], "required: command"),
    (["certify", "--problem", "p.cfg", "--point", "x.csv", "--epsilon", "abc"],
     "invalid float value"),
], ids=["unknown_flag", "no_command", "bad_epsilon"])
def test_usage_errors_exit_one_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0
    assert "--epsilon" in capsys.readouterr().out


COLD_START = textwrap.dedent("""
    import sys

    import saddlescape
    from saddlescape import cli
    from saddlescape.harness import ExperimentSpec, run_cell

    problem = dict(family="multiplicative_saddle", dim=10, neg_count=1,
                   rho=2.0, quartic_coeff=0.008)
    for algorithm, mode, extra in (
        ("psgd", "first_order", dict(c=0.01)),
        ("scrn", "higher_order", {}),
        ("scrn", "zeroth_order", dict(mu=(1.0, 0.01, 1e-6, 1.0, 1.0))),
    ):
        spec = ExperimentSpec(problem=problem, algorithm=algorithm, mode=mode, sgc_arm=True,
                              epsilon_grid=[0.2], seeds=[0], max_steps=3, **extra)
        assert len(run_cell(spec, 0.2, 0).rows) == 4
    assert cli.main(["certify", "--problem", sys.argv[1], "--point", sys.argv[2],
                     "--epsilon", "0.05"]) == 0
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, loaded
""")


def test_cold_start_loads_no_scipy(tmp_path):
    """Runs at d <= 512 never reach the Brent safeguard or eigsh, so scipy stays unloaded."""
    prob = tmp_path / "prob.cfg"
    prob.write_text(PROBLEM_TEXT)
    points = tmp_path / "points.csv"
    points.write_text("0.0,0.0,0.0,0.0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", COLD_START, str(prob), str(points)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "point 0: certified=0" in done.stdout


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("algorithm = psgd\n")  # missing epsilon_grid and seeds
    assert main(["run", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    bad.write_text(SPEC_TEXT.replace("max_steps = 1500", "max_steps = abc"))
    assert main(["run", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "'max_steps'" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["run", "--spec", str(tmp_path / "nope.cfg")]) == 1
    assert main(["summarize", "--dir", str(tmp_path / "empty")]) == 1


@pytest.mark.parametrize("case", ["out_is_a_file", "spec_is_a_directory"])
def test_os_errors_exit_one_with_one_line(tmp_path, capsys, case):
    spec = tmp_path / "exp.cfg"
    spec.write_text(SPEC_TEXT)
    out = tmp_path / "runs"
    if case == "out_is_a_file":
        out.write_text("not a directory\n")
    else:
        spec = tmp_path / "specs"
        spec.mkdir()
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
