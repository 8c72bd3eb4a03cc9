"""scripts/mutants.py: the applier on a toy file and the summary parser; no
mutant is run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

TOY = "TOL = 1e-8\n\n\ndef gate(x):\n    return abs(x) <= 3 * TOL\n"


def test_apply_replaces_the_one_occurrence(tmp_path):
    (tmp_path / "pkg").mkdir()
    path = tmp_path / "pkg" / "toy.py"
    path.write_text(TOY)
    mutants.apply(tmp_path, "pkg/toy.py", "3 * TOL", "30 * TOL")
    assert path.read_text() == TOY.replace("3 * TOL", "30 * TOL")


@pytest.mark.parametrize("old, count", [("6 * TOL", 0), ("TOL", 2)])
def test_apply_refuses_a_text_that_is_not_there_once(tmp_path, old, count):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    with pytest.raises(ValueError, match=f"occurs {count} times"):
        mutants.apply(tmp_path, "toy.py", old, "0")
    assert path.read_text() == TOY


def test_first_failure_reads_the_summary():
    out = "..F\n=== short test summary info ===\nFAILED tests/test_a.py::test_b[x-1] - assert 0\n1 failed\n"
    assert mutants.first_failure(out) == "tests/test_a.py::test_b[x-1]"
    assert mutants.first_failure("ERROR tests/test_c.py - SyntaxError\n") == "tests/test_c.py"
    assert mutants.first_failure("3 passed\n") is None
