"""Scenario loading, task dispatch, report emission, CLI exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from residue_lab.cli import main
from residue_lab.harness import (
    Scenario,
    ScenarioError,
    emit_report,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_P1 = {
    "n": 1,
    "degrees": [2],
    "section": ["z1^2 - z0^2"],
    "psi": "1",
    "metric": {"kind": "fubini_study"},
    "backend": "float",
    "tasks": [{"kind": "euler_jacobi", "tol": 1e-8}],
}


def test_bundled_p1_scenario_all_pass():
    report = run_scenario(str(SCENARIOS / "p1_o2.json"), samples=20000)
    assert report.all_ok()
    kinds = [t.kind for t in report.tasks]
    assert kinds == ["euler_jacobi", "virtual_residue", "local_mass"]


def test_degree_constraint_violation_is_schema_error(tmp_path):
    doc = dict(BASE_P1)
    doc["psi"] = "z0"  # degree 1; required degree is 0
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as exc:
        run_scenario(path)
    assert "sum(degrees)-n-1" in str(exc.value)


def test_cli_exit_codes(tmp_path):
    doc = dict(BASE_P1)
    good = write_scenario(tmp_path, doc, "good.json")
    assert main(["verify", good]) == 0
    bad = dict(BASE_P1)
    bad["psi"] = "z0"
    bad_path = write_scenario(tmp_path, bad, "bad.json")
    assert main(["verify", bad_path]) == 2


def test_zero_at_infinity_gives_precondition_failed(tmp_path):
    doc = dict(BASE_P1)
    doc["section"] = ["z0*z1"]
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path)
    assert report.tasks[0].verdict == "precondition-failed"
    assert not report.all_ok()
    assert main(["verify", path]) == 1


def test_solver_failure_is_fail_not_precondition(tmp_path, monkeypatch):
    from residue_lab import residue
    from residue_lab.syszero import SolveError

    def exhausted(*args, **kwargs):
        raise SolveError("path failures persisted across 3 retries")

    monkeypatch.setattr(residue, "solve_square_system", exhausted)
    path = write_scenario(tmp_path, BASE_P1)
    task = run_scenario(path).tasks[0]
    assert task.kind == "euler_jacobi" and task.verdict == "fail"
    assert task.results == {"error": "path failures persisted across 3 retries"}
    assert main(["verify", path]) == 1


def test_emit_deterministic_bytes(tmp_path):
    path = write_scenario(tmp_path, BASE_P1)
    r1 = run_scenario(path, seed=5)
    r2 = run_scenario(path, seed=5)
    assert emit_report(r1, "json") == emit_report(r2, "json")


def test_json_excludes_timings_text_includes_ledger(tmp_path):
    path = write_scenario(tmp_path, BASE_P1)
    report = run_scenario(path)
    payload = emit_report(report, "json").decode()
    assert "wall_time" not in payload
    text = emit_report(report, "text").decode()
    assert "ledger" in text
    # every ledger entry of the report appears in the text rendering
    assert text.count("->") == len(report.tasks[0].results["ledger"])


def test_thread_count_byte_identical(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "virtual_residue", "t": [1.0], "samples": 40000}]
    path = write_scenario(tmp_path, doc)
    r1 = run_scenario(path, seed=3, threads=1)
    r4 = run_scenario(path, seed=3, threads=4)
    assert emit_report(r1, "json") == emit_report(r4, "json")


def test_empty_task_list_valid(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = []
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path)
    assert report.all_ok() and report.tasks == []
    assert emit_report(report, "json")


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert "tasks" in doc and "metric" in doc


def test_unknown_task_kind_rejected(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "warp_drive"}]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError):
        run_scenario(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tolerance", 1e-30),  # misspelled
        ("radius", 0.5),  # a local_mass key on another kind
    ],
)
def test_misspelled_task_key_rejected(tmp_path, key, value):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "euler_jacobi", key: value}]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=key):
        run_scenario(path)
    assert main(["verify", path]) == 2


def test_bundled_task_keys_accepted_by_their_kind():
    for path in sorted(SCENARIOS.glob("*.json")):
        Scenario.from_dict(json.loads(path.read_text()))


@pytest.mark.parametrize("samples", [0, -5])
def test_nonpositive_samples_override_rejected(tmp_path, samples):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "virtual_residue", "t": [1.0], "samples": 5000}]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="samples"):
        run_scenario(path, samples=samples)
    assert main(["verify", path, "--samples", str(samples)]) == 2


@pytest.mark.parametrize("samples", [0, -5, 2.5, True, "5000"])
def test_invalid_task_samples_rejected(tmp_path, samples):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "virtual_residue", "t": [1.0], "samples": samples}]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="samples"):
        run_scenario(path)
    assert main(["verify", path]) == 2


def test_malformed_json_is_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2


def test_samples_override_applies(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "virtual_residue", "t": [1.0], "samples": 999999}]
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path, samples=5000)
    assert report.tasks[0].results["samples"] == 5000


def test_bundled_cb_scenarios():
    rep = run_scenario(str(SCENARIOS / "p2_cb33.json"))
    assert rep.all_ok()
    assert rep.tasks[0].results["space_dimension"] == 2
    rep = run_scenario(str(SCENARIOS / "p2_cb_exact.json"))
    assert rep.all_ok()
    assert rep.tasks[0].results["exact"] is True
    assert rep.tasks[0].results["nonzero_held_out_evaluations"] == 0


def test_bundled_generalized_cb_scenario():
    rep = run_scenario(str(SCENARIOS / "p2_generalized_cb.json"))
    assert rep.tasks[0].verdict == "assumed-hypotheses"
    assert rep.all_ok()
    res = rep.tasks[0].results
    assert res["curve_entry_max"] <= 1e-8
    assert res["isolated_relative_vanishing"] <= 1e-8


def test_bundled_curve_scenario_fs():
    rep = run_scenario(str(SCENARIOS / "p2_example22_fs.json"), samples=5000)
    assert rep.all_ok()
    assert rep.tasks[0].results["pointwise_max"] <= 1e-12


def test_json_out_written(tmp_path):
    doc = dict(BASE_P1)
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["verify", path, "--json-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_ok"] is True


def test_singular_curve_precondition_failed(tmp_path):
    doc = {
        "n": 2,
        "degrees": [2, 2],
        "section": ["z1*z2", "0"],
        "psi": "z0",
        "metric": {"kind": "fubini_study"},
        "backend": "float",
        "tasks": [{"kind": "curve_localization", "samples": 2000}],
    }
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path)
    assert report.tasks[0].verdict == "precondition-failed"
    assert "singular" in report.tasks[0].results["error"]


def test_overlapping_balls_precondition(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "local_mass", "t": 0.01, "radius": 1.5, "samples": 2000}]
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path)
    assert report.tasks[0].verdict == "precondition-failed"
    assert "overlapping" in report.tasks[0].results["error"]


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_unless_preset(tmp_path, preset, expected):
    # the CLI pins BLAS to one thread before numpy is imported, keeps a count
    # the environment already sets, and names it in the text report only
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = write_scenario(tmp_path, BASE_P1)
    json_out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "residue_lab.cli", "verify", path, "--threads", "1", "--json-out", str(json_out)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[0].endswith(f"blas_threads={expected}")
    assert "blas" not in json_out.read_text()
