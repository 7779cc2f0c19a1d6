import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import watched
from saddlescape import harness
from saddlescape.diagnostics import RunTrace, TraceRow, sosp_fraction
from saddlescape.errors import ConfigurationError, EvaluationError
from saddlescape.harness import (
    ExperimentSpec,
    SummaryRow,
    _schedule,
    emit_plot,
    experiment_from_config,
    fit_complexity_slope,
    formula_total_calls,
    read_summary,
    read_trace,
    run_cell,
    run_experiment,
    summarize_traces,
    tune_constants,
    write_summary,
    write_trace,
)
from saddlescape.problems import problem_from_config

PROBLEM = dict(family="multiplicative_saddle", dim=10, neg_count=1,
               rho=2.0, quartic_coeff=0.008)

DATA = Path(__file__).parent / "data"


def _spec(**overrides):
    base = dict(
        problem=PROBLEM, algorithm="psgd", mode="first_order", sgc_arm=True,
        epsilon_grid=[0.2], seeds=[0], max_steps=2000, c=0.01,
        stop_after_certified=True,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        _spec(epsilon_grid=[])
    with pytest.raises(ConfigurationError):
        _spec(epsilon_grid=[0.1, 0.2])  # must be strictly decreasing
    with pytest.raises(ConfigurationError):
        _spec(epsilon_grid=[0.2, 0.2])
    with pytest.raises(ConfigurationError):
        _spec(seeds=[])
    with pytest.raises(ConfigurationError):
        _spec(algorithm="bfgs")
    with pytest.raises(ConfigurationError):
        _spec(algorithm="scrn", mode="first_order")
    with pytest.raises(ConfigurationError, match="stop_after_certified"):
        _spec(algorithm="scrn", mode="higher_order", stop_after_certified=True)
    for offset in (-1.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="x0_offset"):
            _spec(x0_offset=offset)
    # two cells of one seed would write one trace file
    with pytest.raises(ConfigurationError, match="repeated: 0, 2"):
        _spec(seeds=[0, 2, 0, 1, 2])
    # and so would two seeds equal modulo 2^64: the seed tree gives them one run stream
    with pytest.raises(ConfigurationError, match=r"distinct modulo 2\^64; "
                       r"repeated: -1, 0, 18446744073709551615, 18446744073709551616$"):
        _spec(seeds=[0, 2**64, -1, 2**64 - 1])
    assert _spec(seeds=[-1, 0, 2**63]).seeds == (-1, 0, 2**63)
    # and so would two epsilons of one :g label
    with pytest.raises(ConfigurationError, match="epsilon_grid .*repeated: 0.2$"):
        _spec(epsilon_grid=[0.2000001, 0.2, 0.1])
    # problem keys and schedule constants are checked when the spec is built
    with pytest.raises(ConfigurationError, match="'dim'"):
        _spec(problem=dict(PROBLEM, dim="abc"))
    for key, value in (("delta", 2.0), ("a0", 0.0), ("c", -1.0), ("kappa", (1.0,) * 9),
                       ("mu", (1.0, 2.0))):
        with pytest.raises(ConfigurationError, match=key):
            _spec(**{key: value})
    # so is the schedule of every epsilon: PSGD's needs epsilon < 1/e, SCRN's only < 1
    with pytest.raises(ConfigurationError, match=r"psgd-first_order-sgc at epsilon=0\.5 on "
                       r".*schedule undefined for epsilon=0\.5"):
        _spec(epsilon_grid=[0.5, 0.2])
    _spec(algorithm="scrn", mode="higher_order", epsilon_grid=[0.5, 0.2],
          stop_after_certified=False)
    # gap = 1/(16 * 0.5) = 0.125 on this saddle, and 0.125 / (0.9 * 0.2) <= 1
    small_gap = dict(PROBLEM, quartic_coeff=0.5)
    _spec(problem=small_gap)
    with pytest.raises(ConfigurationError, match=r"gap/\(delta\*epsilon\) = .* <= 1"):
        _spec(problem=small_gap, delta=0.9)


def test_step_counts_are_integers():
    # a fractional max_steps failed every cell with "T must be an integer"; a
    # fractional certify_every certified at t = 0, 3, 6, ... for 1.5
    for key, value in (("max_steps", 2.5), ("max_steps", True), ("max_steps", "100"),
                       ("certify_every", 1.5), ("certify_every", False)):
        with pytest.raises(ConfigurationError, match=f"^{key} must be an integer, got {value!r}$"):
            _spec(**{key: value})
    spec = _spec(max_steps=np.int64(300), certify_every=np.int32(3))
    assert (spec.max_steps, spec.certify_every) == (300, 3)
    assert type(spec.max_steps) is int and type(spec.certify_every) is int


def test_spec_needs_growth_constant_for_its_schedule():
    # phase retrieval, and any additive-noise variant, has rho_true = None
    for problem in (dict(family="phase_retrieval", dim=4, m=20), dict(PROBLEM, sigma=0.5)):
        for arm in (dict(), dict(mode="zeroth_order"),
                    dict(algorithm="scrn", mode="higher_order", sgc_arm=False,
                         stop_after_certified=False)):
            with pytest.raises(ConfigurationError, match="needs the growth constant rho_true"):
                _spec(problem=problem, **arm)
        # the bounded-variance PSGD arm and zeroth-order SCRN need no rho
        _spec(problem=problem, sgc_arm=False)
        _spec(problem=problem, algorithm="scrn", mode="zeroth_order", stop_after_certified=False)


def test_single_cell_produces_one_trace_and_one_row(tmp_path):
    spec = _spec(out_dir=str(tmp_path))
    rows = run_experiment(spec)
    traces = [p for p in tmp_path.iterdir() if p.name.startswith("psgd")]
    assert len(traces) == 1
    assert len(rows) == 1
    assert rows[0].epsilon == 0.2 and rows[0].success_rate == 1.0
    assert (tmp_path / "summary.csv").exists()


def test_experiment_is_byte_reproducible(tmp_path):
    spec = _spec(seeds=[0, 1])
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(spec, out_dir=a)
    run_experiment(spec, out_dir=b)
    for path in sorted(a.iterdir()):
        assert (b / path.name).read_bytes() == path.read_bytes()


def test_trace_roundtrip(tmp_path):
    scrn = _spec(algorithm="scrn", mode="higher_order", max_steps=100, stop_after_certified=False)
    for spec in (_spec(), scrn):
        trace = run_cell(spec, 0.2, 0)
        path, again = tmp_path / "t.csv", tmp_path / "again.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert back == trace  # every field, the random-iterate certificate included
        write_trace(back, again)
        assert again.read_bytes() == path.read_bytes()
    assert back.r_certificate is not None


_ODD_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
               math.inf, math.nan, np.float64(-0.0), np.float64(2.5), np.float32(0.1), 3)


@pytest.mark.parametrize("algorithm", ["psgd", "scrn"])
def test_trace_lines_are_the_generic_format(tmp_path, algorithm):
    # write_trace formats a row of exactly typed values with one f-string and
    # any other row field by field; both give _format_row's bytes
    columns = harness._columns(TraceRow, algorithm)
    assert columns[:6] == ("t", "f", "grad_norm", "lambda_min", "oracle_calls", "certified")
    assert columns[6:] == (() if algorithm == "psgd" else ("h_norm", "model_decrease"))
    trace = RunTrace(seed=0, algorithm=algorithm, config_echo=f"algorithm = {algorithm}")
    rng = np.random.default_rng(0)
    ints = (0, 7, 2**70, np.int64(9), np.uint64(11), True)
    rows = []
    for t in range(200):
        typed = t % 2 == 0  # even rows draw only Python floats, ints and bools
        floats = _ODD_FLOATS[:7] if typed else _ODD_FLOATS
        f, g, lam, h, dec = (floats[i] for i in rng.integers(len(floats), size=5))
        calls = ints[rng.integers(3 if typed else len(ints))]
        certified = (True, False, np.True_)[rng.integers(2 if typed else 3)]
        optional = (None, h)[rng.integers(2)], (None, dec)[rng.integers(2)]
        step = t if typed or t % 3 else np.int64(t)
        rows.append(TraceRow(step, f, g, lam, calls, certified, *optional))
    rows[0] = TraceRow(0, 1.5, 0.25, -1.0, 3, True)  # every value of its column's type
    rows[1] = TraceRow(1, 0, 0.25, -1.0, 3, False, 0.5, 0)  # an int in float columns
    assert all(type(row.f) is float for row in rows[::2])
    trace.rows = rows
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[-len(rows):] == [harness._format_row(row, columns) for row in rows]
    assert lines[-len(rows) + 1].startswith("1,0,0.25,-1.0,3,0")


def test_read_trace_rejects_malformed_files(tmp_path):
    good = tmp_path / "good.csv"
    write_trace(run_cell(_spec(), 0.2, 0), good)
    lines = good.read_text().splitlines()
    n_head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cases = {
        "notes.csv": (["a,b", "1,2"], 1),
        "no_seed.csv": ([l for l in lines if not l.startswith("# seed =")], n_head),
        "bad_header.csv": (["# just a comment"] + lines, 1),
        "bad_number.csv": (lines[:-1] + [lines[-1].replace(",", ",x", 1)], len(lines)),
        "short_row.csv": (lines + ["1,2"], len(lines) + 1),
        "no_rows.csv": (lines[:n_head + 1], n_head + 1),
    }
    for name, (content, lineno) in cases.items():
        path = tmp_path / name
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(ConfigurationError, match=rf"{name}, line {lineno}:"):
            read_trace(path)


_PSGD_TAIL = """\
# theorem_T = {theorem_T}
# sgc_arm = True
# user_seed = 0
# master_seed = 0
# burn_in = 0.2
# seed = 8323032773134656822
# total_oracle_calls = {calls}
t,f,grad_norm,lambda_min,oracle_calls,certified
0,0.0,0.0,-1.0,0,0
"""

_SCRN_TAIL = """\
# theorem_T = {theorem_T}
# sgc_arm = True
# user_seed = 0
# master_seed = 0
# burn_in = 0.2
# seed = 8323032773134656822
# total_oracle_calls = {calls}
# r_index = 1
# r_oracle_calls = {calls}
# r_certified = 0
{r_lines}
t,f,grad_norm,lambda_min,oracle_calls,certified,h_norm,model_decrease
0,0.0,0.0,-1.0,0,0,,
"""

# the head of a 1-step d=10 trace of each arm (header lines, column line and
# the t = 0 row) and its summary.csv, byte for byte
FORMATS = {
    "psgd-first_order": ({}, """\
# algorithm = psgd
# mode = first_order
# eta = 0.06469058337896373
# r = 0.021454693322408656
# n1 = 9
# T = 1
# box_radius = 10.0
# epsilon = 0.2
""" + _PSGD_TAIL.format(theorem_T=11388, calls=9), "0.2,psgd,first_order,1,,0.0,0.0,"),
    "psgd-zeroth_order": (dict(kappa=(1.0,) * 5 + (1e-3,) + (1.0,) * 4), """\
# algorithm = psgd
# mode = zeroth_order
# eta = 0.09433962264150944
# r = 0.2
# n1 = 20
# T = 1
# box_radius = 10.0
# epsilon = 0.2
# nu = 0.012426698691192237
""" + _PSGD_TAIL.format(theorem_T=2683, calls=40), "0.2,psgd,zeroth_order,1,,0.0,0.0,"),
    "scrn-higher_order": ({}, """\
# algorithm = scrn
# mode = higher_order
# M = 126.49110640673518
# n1 = 5
# n2 = 5
# T = 1
# box_radius = 10.0
# epsilon = 0.2
""" + _SCRN_TAIL.format(theorem_T=100, calls=10, r_lines="""\
# r_grad_norm = 0.025297703173775193
# r_lambda_min = -0.99993856
# r_epsilon = 0.2
# r_score = 0.5208013333333333"""), "0.2,scrn,higher_order,1,,0.0,0.0,10"),
    "scrn-zeroth_order": (dict(mu=(1.0, 0.01, 1e-6, 1.0, 1.0)), """\
# algorithm = scrn
# mode = zeroth_order
# M = 1.0
# n1 = 1
# n2 = 16
# T = 1
# box_radius = 10.0
# epsilon = 0.2
# nu = 5.802252518881185e-05
""" + _SCRN_TAIL.format(theorem_T=88, calls=50, r_lines="""\
# r_grad_norm = 21.573528009506834
# r_lambda_min = 1.051591322840035
# r_epsilon = 0.2
# r_score = 4.644731209608025"""), "0.2,scrn,zeroth_order,1,,0.0,0.0,50"),
}


@pytest.mark.parametrize("arm", FORMATS)
def test_output_format_is_pinned(tmp_path, arm):
    extra, head, summary_row = FORMATS[arm]
    algorithm, mode = arm.split("-")
    spec = _spec(algorithm=algorithm, mode=mode, max_steps=1, stop_after_certified=False, **extra)
    run_experiment(spec, out_dir=tmp_path)
    trace = (tmp_path / f"{algorithm}_{mode}_sgc_eps0.2_seed0.csv").read_text()
    assert trace.startswith(head)
    assert trace[len(head):].startswith("1,")
    assert (tmp_path / "summary.csv").read_text() == (
        "epsilon,algorithm,mode,sgc_arm,median_calls_to_first_certified,"
        "sosp_fraction,success_rate,median_calls_at_random_iterate\n" + summary_row + "\n"
    )


def test_summary_is_computed_from_traces_alone():
    spec = _spec(algorithm="scrn", mode="higher_order", epsilon_grid=[0.2, 0.1],
                 seeds=[0, 1, 2], max_steps=100, stop_after_certified=False, burn_in=0.5)
    traces = [run_cell(spec, eps, s) for s in spec.seeds for eps in spec.epsilon_grid]
    rows = summarize_traces(traces)
    assert [r.epsilon for r in rows] == [0.2, 0.1]
    for row in rows:
        group = [t for t in traces if float(t.echo("epsilon")) == row.epsilon]
        certified = [t.r_certificate.certified for t in group]
        assert row.success_rate == sum(certified) / 3
        assert row.sosp_fraction == np.median([sosp_fraction(t, 0.5) for t in group])
    assert summarize_traces(reversed(traces)) == rows


def test_summary_roundtrip(tmp_path):
    rows = [
        SummaryRow(0.2, "psgd", "first_order", True, 1500, 0.8125, 1.0),
        SummaryRow(0.1, "scrn", "higher_order", False, None, 0.5, 0.9, 4200),
    ]
    path = tmp_path / "summary.csv"
    write_summary(rows, path)
    assert read_summary(path) == rows


@pytest.mark.parametrize("flag", [np.True_, np.False_])
def test_numpy_bools_round_trip(tmp_path, flag):
    # a numpy bool was written as 1.0, which read_trace rejected
    trace = RunTrace(seed=0, algorithm="psgd", config_echo="algorithm = psgd")
    trace.append(TraceRow(0, 0.5, 0.25, -1.0, 0, flag))
    trace.total_oracle_calls = 0
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    assert path.read_text().splitlines()[-1].endswith(",1" if flag else ",0")
    assert read_trace(path).rows == [TraceRow(0, 0.5, 0.25, -1.0, 0, bool(flag))]
    rows = [SummaryRow(0.2, "psgd", "first_order", flag, 1500, 0.8125, 1.0)]
    write_summary(rows, tmp_path / "summary.csv")
    (back,) = read_summary(tmp_path / "summary.csv")
    assert back.sgc_arm is bool(flag) and back == rows[0]


def test_summary_audit_against_traces(tmp_path):
    spec = _spec(seeds=[0, 1, 2])
    rows = run_experiment(spec, out_dir=tmp_path)
    hits = []
    for path in tmp_path.glob("psgd_*.csv"):
        hits.append(read_trace(path).first_certified_calls())
    assert rows[0].median_calls_to_first_certified == int(round(np.median(hits)))


def test_fit_complexity_slope_exact_power_laws():
    rows = [
        SummaryRow(eps, "psgd", "first_order", True, int(1000 * eps**-2), 1.0, 1.0)
        for eps in (0.4, 0.2, 0.1, 0.05)
    ]
    slope, stderr = fit_complexity_slope(rows)
    assert abs(slope - 2.0) < 1e-2  # integer rounding only
    rows = [
        SummaryRow(eps, "psgd", "first_order", True, int(50000 * eps**-2.5), 1.0, 1.0)
        for eps in (0.4, 0.2, 0.1)
    ]
    slope, _ = fit_complexity_slope(rows)
    assert abs(slope - 2.5) < 1e-2


def test_fit_complexity_slope_requires_three_points():
    rows = [SummaryRow(0.2, "psgd", "first_order", True, 100, 1.0, 1.0),
            SummaryRow(0.1, "psgd", "first_order", True, 400, 1.0, 1.0)]
    with pytest.raises(EvaluationError):
        fit_complexity_slope(rows)


def test_formula_slopes_match_theory():
    # each arm's exact budgets at epsilon = 0.2, 0.1, 0.05, which show any
    # change to a schedule that the 0.1 slope band would hide, and the
    # exponent the theory states
    scrn = dict(algorithm="scrn", stop_after_certified=False)
    cases = [
        (dict(), 2.0, [12426, 49692, 198750]),
        (dict(mode="zeroth_order"), 4.5, [7323056, 165640000, 3747696250]),
        (dict(problem=dict(PROBLEM, sigma=0.5), mode="zeroth_order", sgc_arm=False), 5.5,
         [18307640, 828200000, 37476697500]),
        (dict(scrn, mode="higher_order"), 2.5, [1000, 5640, 31840]),
        (dict(scrn, mode="zeroth_order"), 2.5, [4217322912, 23770365504, 133995848607]),
    ]
    for arm, expected, pinned in cases:
        spec = _spec(**arm)
        calls = [formula_total_calls(spec, eps) for eps in (0.2, 0.1, 0.05)]
        assert calls == pinned
        rows = [SummaryRow(eps, spec.algorithm, spec.mode, spec.sgc_arm, n, 1.0, 1.0)
                for eps, n in zip((0.2, 0.1, 0.05), calls)]
        slope, _ = fit_complexity_slope(rows)
        assert abs(slope - expected) <= 0.1


@pytest.mark.parametrize("arm", [
    dict(),
    dict(mode="zeroth_order"),
    dict(algorithm="scrn", mode="higher_order"),
    dict(algorithm="scrn", mode="zeroth_order", mu=(1.0, 1.0, 0.03, 1.0, 1.0)),
], ids=["psgd-first_order", "psgd-zeroth_order", "scrn-higher_order", "scrn-zeroth_order"])
@watched  # the zeroth-order arms run multi-block batches
def test_calls_per_step_matches_the_run_loop(arm):
    # ties formula_total_calls's per-step count to the estimators' accounting
    spec = _spec(max_steps=1, stop_after_certified=False, **arm)
    cfg = dataclasses.replace(_schedule(spec, problem_from_config(PROBLEM), 0.2), T=1)
    trace = run_cell(spec, 0.2, 0)
    assert trace.echo("T") == "1"
    assert trace.total_oracle_calls == cfg.calls_per_step * cfg.T


# ---------------------------------------------------------------------------
# plots

def test_plot_single_arm_two_points(tmp_path):
    rows = [
        SummaryRow(0.2, "psgd", "first_order", True, 100, 1.0, 1.0),
        SummaryRow(0.1, "psgd", "first_order", True, 400, 1.0, 1.0),
    ]
    path = tmp_path / "p.svg"
    emit_plot(rows, path)
    svg = path.read_text()
    polylines = re.findall(r"<polyline points=\"([^\"]+)\"", svg)
    assert len(polylines) == 1
    assert len(polylines[0].split()) == 2
    assert "1/epsilon" in svg and "oracle calls" in svg


def test_plot_rejects_empty_summary(tmp_path):
    with pytest.raises(EvaluationError):
        emit_plot([], tmp_path / "p.svg")
    with pytest.raises(EvaluationError):
        emit_plot([SummaryRow(0.2, "psgd", "first_order", True, None, 1.0, 0.0)],
                  tmp_path / "p.svg")


def test_plot_golden_bytes(tmp_path):
    rows = [
        SummaryRow(0.2, "psgd", "first_order", True, 1500, 0.8, 1.0),
        SummaryRow(0.1, "psgd", "first_order", True, 5500, 0.8, 1.0),
        SummaryRow(0.05, "psgd", "first_order", True, 16000, 0.9, 1.0),
        SummaryRow(0.2, "psgd", "first_order", False, 8000, 0.7, 1.0),
        SummaryRow(0.1, "psgd", "first_order", False, 100000, 0.7, 1.0),
        SummaryRow(0.05, "psgd", "first_order", False, 1100000, 0.8, 1.0),
    ]
    path = tmp_path / "golden.svg"
    emit_plot(rows, path)
    assert path.read_bytes() == (DATA / "golden_complexity.svg").read_bytes()


# ---------------------------------------------------------------------------
# config file and environment

def test_experiment_from_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "family = multiplicative_saddle\n"
        "dim = 10\n"
        "neg_count = 1\n"
        "rho = 2.0\n"
        "quartic_coeff = 0.008\n"
        "algorithm = psgd\n"
        "mode = first_order\n"
        "sgc_arm = true\n"
        "epsilon_grid = 0.2, 0.1\n"
        "seeds = 0, 1, 2\n"
        "c = 0.01\n"
        "max_steps = 1500\n"
        "stop_after_certified = true\n"
    )
    spec = experiment_from_config(cfg)
    assert spec.epsilon_grid == (0.2, 0.1)
    assert spec.seeds == (0, 1, 2)
    assert spec.c == 0.01 and spec.max_steps == 1500

    with pytest.raises(ConfigurationError):
        experiment_from_config({"algorithm": "psgd"})
    # misspelt keys are not run with the defaults
    cfg.write_text(cfg.read_text() + "max_step = 3\nquartic_coef = 0.5\n")
    with pytest.raises(ConfigurationError, match="max_step, quartic_coef"):
        experiment_from_config(cfg)


@pytest.mark.parametrize("key, value", [
    ("c", "nan"), ("burn_in", "inf"), ("epsilon_grid", "0.2, nan"), ("mu", "1, 1, -inf, 1, 1"),
])
def test_experiment_from_config_rejects_non_finite_numbers(key, value):
    raw = dict(PROBLEM, algorithm="scrn", epsilon_grid="0.2", seeds="0")
    raw[key] = value
    with pytest.raises(ConfigurationError, match=f"key '{key}'"):
        experiment_from_config(raw)


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "env_target"
    monkeypatch.setenv("SADDLESCAPE_OUT", str(target))
    run_experiment(_spec(out_dir=str(tmp_path / "ignored")))
    assert target.exists() and any(target.iterdir())
    assert not (tmp_path / "ignored").exists()


def test_tune_constants_prefers_working_candidate():
    spec = _spec(max_steps=1200)
    # c = 10 makes batches huge and budgets tiny; c = 0.01 is the sane one
    best = tune_constants(spec, [{"c": 10.0}, {"c": 0.01}], tune_seeds=(0,))
    assert best == {"c": 0.01}


def test_tune_constants_scores_an_undefined_schedule_as_a_loss():
    spec = _spec(problem=dict(PROBLEM, quartic_coeff=0.5), max_steps=1200)
    # delta = 0.9 leaves gap/(delta*epsilon) <= 1, so its spec cannot be built
    best = tune_constants(spec, [{"delta": 0.9}, {"delta": 0.1}], tune_seeds=(0,))
    assert best == {"delta": 0.1}


@pytest.mark.parametrize("overrides, message", [
    ({"c": math.nan}, "c must be finite, got nan"),  # was a bare ValueError
    ({"a1": math.inf}, "a1 must be finite, got inf"),  # was an OverflowError
    ({"a0": math.nan}, "a0 must be finite, got nan"),  # was a spec whose every cell failed
    ({"kappa": (1.0,) * 9 + (math.nan,)}, r"kappa\[9\] must be finite, got nan"),
    ({"algorithm": "scrn", "mode": "higher_order", "stop_after_certified": False,
      "mu": (1.0, 1.0, math.nan, 1.0, 1.0)}, r"mu\[2\] must be finite, got nan"),
], ids=["c_nan", "a1_inf", "a0_nan", "kappa_nan", "mu_nan"])
def test_spec_constants_must_be_finite(overrides, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        _spec(**overrides)


def test_tune_constants_scores_a_non_finite_candidate_as_a_loss():
    spec = _spec(max_steps=1200)
    best = tune_constants(spec, [{"c": math.nan}, {"a1": math.inf}, {"c": 0.01}],
                          tune_seeds=(0,))
    assert best == {"c": 0.01}


def test_tune_constants_rejects_bad_input_before_any_run(monkeypatch):
    spec = _spec(max_steps=1200)
    monkeypatch.setattr(harness, "_run_group", None)  # any run would fail with a TypeError
    with pytest.raises(ConfigurationError, match="at least one tuning seed"):
        tune_constants(spec, [{"c": 0.01}], tune_seeds=())
    # a misspelt key is an error, not a losing candidate
    with pytest.raises(ConfigurationError, match="unknown spec keys: nope"):
        tune_constants(spec, [{"c": 0.01}, {"nope": 1}], tune_seeds=(0,))
    # seeds equal modulo 2^64 share one run stream: counting them twice is an error
    with pytest.raises(ConfigurationError,
                       match=r"distinct modulo 2\^64; repeated: 0, 18446744073709551616$"):
        tune_constants(spec, [{"c": 0.01}], tune_seeds=(0, 0, 2**64))


def test_master_seed_changes_trajectories(tmp_path):
    spec = _spec()
    t0 = run_cell(spec, 0.2, 0, master_seed=0)
    t1 = run_cell(spec, 0.2, 0, master_seed=1)
    assert t0.rows[-1].f != t1.rows[-1].f


def test_workers_other_than_one_rejected(tmp_path):
    out = tmp_path / "runs"
    with pytest.raises(ConfigurationError, match="workers"):
        run_experiment(_spec(), out_dir=out, workers=3)
    assert not out.exists()
