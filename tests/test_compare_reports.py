"""Smoke test of scripts/compare_reports.py, the gate that compares canonical
JSON reports before and after a change, on synthetic reports."""

import copy
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"

REPORT = {
    "tool_version": "0.1.0",
    "seed": 0,
    "tasks": [
        {
            "kind": "curve_localization",
            "verdict": "pass",
            "results": {"value": [5.1e-4, 1.8e-5], "std_error": 3.9e-4, "residual": 2.7e-16, "floor": 1.0e-16},
        }
    ],
}


def compare(tmp_path, new, old=REPORT, names=("case.json", "case.json")):
    for side, doc, name in (("old", old, names[0]), ("new", new, names[1])):
        (tmp_path / side).mkdir()
        (tmp_path / side / name).write_text(json.dumps(doc))
    return run_script(tmp_path)


def run_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "old"), str(tmp_path / "new")],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def changed(path, value):
    doc = copy.deepcopy(REPORT)
    doc["tasks"][0]["results"][path] = value
    return doc


def test_identical_reports_are_ok(tmp_path):
    code, out = compare(tmp_path, REPORT)
    assert code == 0 and out.splitlines()[-1] == "OK"


def test_number_off_by_1e_10_differs(tmp_path):
    code, out = compare(tmp_path, changed("std_error", 3.9e-4 * (1 + 1e-10)))
    assert code == 1 and out.splitlines()[-1] == "DIFFER"
    assert "at tasks[0].results.std_error" in out


def test_numbers_below_the_floor_are_listed_not_counted(tmp_path):
    doc = changed("residual", 3.3e-16)
    doc["tasks"][0]["results"]["floor"] = 9.0e-15
    code, out = compare(tmp_path, doc)
    assert code == 0 and out.splitlines()[-1] == "OK"
    assert "differ below 1e-14 on both sides: tasks[0].results.residual, tasks[0].results.floor" in out


def test_verdict_flip_differs(tmp_path):
    doc = copy.deepcopy(REPORT)
    doc["tasks"][0]["verdict"] = "fail"
    code, out = compare(tmp_path, doc)
    assert code == 1 and "pass -> fail" in out and out.splitlines()[-1] == "DIFFER"


def test_missing_report_differs(tmp_path):
    code, out = compare(tmp_path, REPORT, names=("case.json", "other.json"))
    assert code == 1 and "missing on one side" in out and out.splitlines()[-1] == "DIFFER"


def test_byte_identity_is_reported_and_counted(tmp_path):
    # two identical reports and one whose residual differs in one digit, a
    # number under the floor: the exit code is still 0
    for side in ("old", "new"):
        (tmp_path / side).mkdir()
        for name in ("a.json", "b.json"):
            (tmp_path / side / name).write_text(json.dumps(REPORT))
    (tmp_path / "old" / "c.json").write_text(json.dumps(REPORT))
    (tmp_path / "new" / "c.json").write_text(json.dumps(changed("residual", 2.8e-16)))
    code, out = run_script(tmp_path)
    lines = out.splitlines()
    assert code == 0 and lines[-2:] == ["2 of 3 reports byte-identical", "OK"]
    reports = [line for line in lines if " report max rel dev " in line]
    assert [line.split(", ")[-1] for line in reports] == ["byte-identical", "byte-identical", "bytes differ"]
