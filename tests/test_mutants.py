"""scripts/mutants.py: the applier on a toy file, the summary parser and the
anchor of every mutant; no mutant is run."""

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


def test_every_mutant_text_occurs_once_in_its_file():
    # a refactor that moves or duplicates a mutant's text fails here, not
    # only in --list, and so does a mutant whose change hides another's text
    # (scripts/mutants.py deselects this test in a mutant's own run)
    texts = {file: (ROOT / file).read_text(encoding="utf-8") for _, file, _, _, _ in mutants.MUTANTS}
    counts = {name: texts[file].count(old) for name, file, old, _, _ in mutants.MUTANTS}
    assert {name: count for name, count in counts.items() if count != 1} == {}
    for name, file, old, new, _ in mutants.MUTANTS:
        mutated = {**texts, file: texts[file].replace(old, new)}
        hidden = [other for other, f, o, _, _ in mutants.MUTANTS if other != name and mutated[f].count(o) != 1]
        assert hidden == [], f"mutant {name} changes the text of {hidden}"
