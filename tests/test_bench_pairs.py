"""scripts/bench_pairs.py: the pure summary of paired benchmark runs, on
synthetic values, and its refusal of a failed run; no benchmark process is
started."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ties_count_for_neither_side(better):
    s = bench_pairs.summarize([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], better)
    assert s["wins"] == 0 and s["pairs"] == 3 and s["relative"] == 0.0 and not s["gain_holds"]


def test_the_direction_comes_from_better():
    parent, change = [10.0] * 10, [8.0] * 10
    lower = bench_pairs.summarize(parent, change, "lower")
    higher = bench_pairs.summarize(parent, change, "higher")
    assert lower["wins"] == 10 and lower["gain_holds"]
    assert higher["wins"] == 0 and not higher["gain_holds"]
    assert lower["relative"] == higher["relative"] == pytest.approx(-0.2)


def test_nine_of_ten_pairs_suffice_and_eight_do_not():
    parent = [10.0] * 10
    assert bench_pairs.summarize(parent, [9.0] * 9 + [11.0], "lower")["gain_holds"]
    s = bench_pairs.summarize(parent, [9.0] * 8 + [10.0, 11.0], "lower")
    assert s["wins"] == 8 and not s["gain_holds"]


def test_the_median_gap_must_exceed_the_parent_iqr():
    # the change wins every pair; the parent's IQR is 13.75 - 10.25, so a
    # median gap of 3.5 is not enough and one of 3.6 is
    parent = [9.0, 10.0, 10.0, 11.0, 12.0, 12.0, 13.0, 14.0, 14.0, 15.0]
    assert bench_pairs.quartiles(parent) == (10.25, 12.0, 13.75)
    near = bench_pairs.summarize(parent, [v - 3.5 for v in parent], "lower")
    far = bench_pairs.summarize(parent, [v - 3.6 for v in parent], "lower")
    assert near["wins"] == far["wins"] == 10
    assert not near["gain_holds"] and far["gain_holds"]


def test_unpaired_values_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "lower")


def test_a_run_that_is_not_correct_stops_the_pairs(monkeypatch, capsys):
    # pair 2 runs the change first; its failed run ends the script with status 1
    runs = []
    run_seconds = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]

    def fake(checkout, workload, seed, seconds):
        assert seconds == run_seconds  # the run length is the benchmark's own
        runs.append(checkout.name)
        good = len(runs) != 3
        metrics = {m: {"value": 1.0} for m in ("setup_s", "wall_s", "task_p50_s", "task_tail_s", "work_per_s", "peak_rss_mb")}
        return {"correct": good, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_benchmark", fake)
    code = bench_pairs.main(["old", "new", "--workload", "curve", "--seed", "1", "--pairs", "3"])
    assert code == 1 and runs == ["old", "new", "new"]
    assert "the change run of pair 2" in capsys.readouterr().err


_REPORT = """residue-lab benchmark  workload=oracle seed=7007
  wall_s                            0.169 s
  task_tail_s is the p95.0 of 80 tasks; work_per_s counts quadrature points
  fiber_2_fubini_study      8 tasks, median 0.0011 s, total 0.01 s
  fiber_3_perturbed        48 tasks, median 0.0023 s, total 0.11 s
  flat_gaussian            16 tasks, median 0.0008 s, total 0.01 s
info {"tasks": 80}
{"correct": true}
"""


def test_label_medians_read_the_per_label_lines_only():
    assert bench_pairs.label_medians(_REPORT) == {
        "fiber_2_fubini_study": 0.0011, "fiber_3_perturbed": 0.0023, "flat_gaussian": 0.0008,
    }
    assert bench_pairs.label_medians("no report here\n") == {}


def test_label_lines_take_the_median_of_medians_and_count_pairs_won():
    parent = [{"a": 0.004, "b": 0.001}, {"a": 0.006, "b": 0.001}, {"a": 0.005, "b": 0.002}]
    change = [{"a": 0.002, "c": 0.3}, {"a": 0.007}, {"a": 0.004, "b": 0.002}]
    a, b, c = bench_pairs.label_lines(parent, change)
    assert a.split() == ["a", "parent", "0.0050", "s", "change", "0.0040", "s", "-20.0%", "won", "2/3"]
    # b ran in every parent run but one change run, c only in one change run
    assert b.split() == ["b", "parent", "0.0010", "s", "change", "0.0020", "s", "+100.0%", "won", "0/1"]
    assert c.split() == ["c", "parent", "n/a", "change", "0.3000", "s", "n/a", "won", "0/0"]


def test_the_summary_ends_with_the_per_label_medians(monkeypatch, capsys):
    def fake(checkout, workload, seed, seconds):
        medians = {"old": "0.0020", "new": "0.0015"}[checkout.name]
        metrics = {m: {"value": 1.0} for m in ("setup_s", "wall_s", "task_p50_s", "task_tail_s", "work_per_s", "peak_rss_mb")}
        stdout = f"  fiber_3_perturbed        48 tasks, median {medians} s, total 0.10 s\n"
        return {"correct": True, "failed": 0, "metrics": metrics, "stdout": stdout}

    monkeypatch.setattr(bench_pairs, "run_benchmark", fake)
    assert bench_pairs.main(["old", "new", "--workload", "oracle", "--seed", "1", "--pairs", "2"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split() == ["fiber_3_perturbed", "parent", "0.0020", "s", "change", "0.0015", "s", "-25.0%", "won", "2/2"]
