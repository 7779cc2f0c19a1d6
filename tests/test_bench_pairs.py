"""The statistics of ``tools/bench_pairs.py``, which every speed claim cites:
pairs won, quartiles, the nine-in-ten rule, the gap against the parent's
quartile distance, and the host contention recorded around each run."""

import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_ties_count_for_neither_side():
    stats = bench_pairs.compare([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0], "lower")
    assert stats["change_better_pairs"] == "1/4"  # the tied pairs 1 and 3 are nobody's
    stats = bench_pairs.compare([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0], "higher")
    assert stats["change_better_pairs"] == "1/4"
    assert bench_pairs.compare([2.0] * 3, [2.0] * 3, "lower")["change_better_pairs"] == "0/3"


def test_quartiles_and_medians():
    stats = bench_pairs.compare([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 2.0, 2.0, 2.0, 2.0], "lower")
    assert stats["parent_median"] == 3.0 and stats["change_median"] == 2.0
    assert stats["parent_q1_q3"] == [2.0, 4.0]  # inclusive quartiles
    assert stats["change_q1_q3"] == [2.0, 2.0]
    assert stats["median_change_pct"] == -33.3


def test_quartiles_of_a_single_pair():
    stats = bench_pairs.compare([0.25], [0.2], "lower")
    assert stats["parent_q1_q3"] == [0.25, 0.25] and stats["change_q1_q3"] == [0.2, 0.2]
    assert stats["change_better_pairs"] == "1/1" and stats["median_change_pct"] == -20.0


def test_a_parent_median_of_zero_gives_no_percentage():
    stats = bench_pairs.compare([0.0, 0.0, 0.0], [0.0, 1.0, 0.0], "lower")
    assert stats["parent_median"] == 0.0 and stats["median_change_pct"] == 0.0
    assert stats["change_better_pairs"] == "0/3"


def _claim(parent, change, better="lower"):
    summary = {"w": {"wall_s": bench_pairs.compare(parent, change, better)}}
    return bench_pairs.claim_entry(summary, "w.wall_s")


def test_nine_pairs_in_ten_pass_and_eight_fail():
    parent = [1.0] * 10
    nine = _claim(parent, [0.9] * 9 + [1.1])
    assert nine["change_better_pairs"] == "9/10" and nine["won_nine_tenths"]
    eight = _claim(parent, [0.9] * 8 + [1.1] * 2)
    assert eight["change_better_pairs"] == "8/10" and not eight["won_nine_tenths"]
    # a tie is not a win
    tied = _claim(parent, [0.9] * 8 + [1.0] * 2)
    assert tied["change_better_pairs"] == "8/10" and not tied["won_nine_tenths"]
    assert _claim(parent, [1.1] * 9 + [0.9], "higher")["won_nine_tenths"]
    assert (nine["workload"], nine["metric"], nine["target"]) == ("w", "wall_s", "")


def test_gap_is_measured_against_the_parent_quartile_distance():
    parent = [1.0, 1.0, 1.1, 1.2, 1.2]  # q1 1.0, q3 1.2: a distance of 0.2
    wide = _claim(parent, [0.85] * 5)  # the medians differ by 0.25
    assert wide["parent_q1_q3"] == [1.0, 1.2] and wide["gap_exceeds_parent_iqr"]
    narrow = _claim(parent, [0.95] * 5)  # by 0.15
    assert narrow["won_nine_tenths"] and not narrow["gap_exceeds_parent_iqr"]
    # the gap is a distance: a slower change's counts too, and the pairs won give the direction
    assert _claim(parent, [1.35] * 5)["gap_exceeds_parent_iqr"]


def _run(value, steal=None, others=None):
    return {"metrics": {"w.wall_s": {"value": value}},
            "contention": {"steal_share": steal, "others_busy_share": others}}


def test_holdout_entry_reports_the_claimed_metric_and_contention():
    pairs = [{"pair": i + 1, "first": ("parent", "change")[i % 2],
              "parent": _run(p, steal=s), "change": _run(c, others=o)}
             for i, (p, c, s, o) in enumerate([(1.0, 0.9, 0.01, None), (1.2, 1.3, None, 0.25),
                                               (1.1, 1.0, 0.03, 0.5)])]
    entry = bench_pairs.holdout_entry(pairs, "w.wall_s", 7, "lower")
    assert entry["command"].endswith("--seed 7 --seconds 25 --trace 0")
    assert entry["parent_median"] == 1.1 and entry["change_median"] == 1.0
    assert entry["change_better_pairs"] == "2/3" and entry["median_change_pct"] == -9.1
    assert [p["first"] for p in entry["pairs"]] == ["parent", "change", "parent"]
    assert entry["pairs"][1] == {"pair": 2, "first": "change", "parent": 1.2, "change": 1.3}
    assert entry["host_contention"] == {"max_steal_share": 0.03, "max_others_busy_share": 0.5}
    none = [{side: _run(1.0) for side in ("parent", "change")}]
    assert bench_pairs.largest_contention(none) == {"max_steal_share": None,
                                                    "max_others_busy_share": None}


def test_contention_between_two_readings():
    tick = os.sysconf("SC_CLK_TCK")
    # user nice system idle iowait irq softirq steal, over 10 s of 2 CPUs
    before = [1000, 0, 200, 5000, 10, 0, 5, 100]
    after = [1000 + 12 * tick, 0, 200 + 2 * tick, 5000 + 4 * tick, 10, 0, 5, 100 + 2 * tick]
    load = bench_pairs.contention(before, after, own_cpu_s=9.0)
    assert load == {"steal_share": 0.1, "others_busy_share": 0.25}  # 2 of 20, (14 - 9) of 20
    # the run's own tree may account for more than the host's busy ticks
    assert bench_pairs.contention(before, after, own_cpu_s=30.0)["others_busy_share"] == 0.0
    for missing in ((None, after), (before, None), (before, before)):
        assert bench_pairs.contention(*missing, own_cpu_s=1.0) == {
            "steal_share": None, "others_busy_share": None}


def test_cpu_ticks_read_the_aggregate_line(tmp_path, monkeypatch):
    stat = tmp_path / "stat"
    stat.write_text("cpu  10 1 2 300 4 5 6 7 0 0\ncpu0 5 0 1 150 2 2 3 3 0 0\n")
    monkeypatch.setattr(bench_pairs, "PROC_STAT", stat)
    assert bench_pairs.cpu_ticks() == [10, 1, 2, 300, 4, 5, 6, 7]
    stat.write_text("intr 1 2 3\n")
    assert bench_pairs.cpu_ticks() is None
    monkeypatch.setattr(bench_pairs, "PROC_STAT", tmp_path / "missing")
    assert bench_pairs.cpu_ticks() is None


@pytest.mark.parametrize("argv, message", [
    (["--pairs", "0"], "--pairs must be >= 1"),
    (["--holdout-seed", "7"], "--holdout-seed needs --claim"),
])
def test_bad_arguments_are_rejected(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.parse_args(["--parent", str(tmp_path), "--change", str(tmp_path),
                                "--out", str(tmp_path / "out.json"), *argv])
    assert exit_info.value.code == 2 and message in capsys.readouterr().err


@pytest.mark.parametrize("environ, caches", [
    ({}, True),
    ({"PYTHONDONTWRITEBYTECODE": ""}, True),  # an empty value leaves caching on
    ({"PYTHONDONTWRITEBYTECODE": "1"}, False),
])
def test_host_line_says_whether_bytecode_is_cached(environ, caches):
    note = bench_pairs.bytecode_note(environ)
    assert ("compiles src/ afresh" not in note) == caches
    assert ("PYTHONDONTWRITEBYTECODE" in note) != caches
