"""scripts/unentered.py: the tracer and the statement census, on a toy
module with an untaken branch; no run of the package is started."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unentered.py"
_spec = importlib.util.spec_from_file_location("unentered", SCRIPT)
unentered = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unentered)

TOY = '''def toy(x):
    """A docstring, which is no statement."""
    y = x + 1
    if x > 0:
        y = 2 * y
    else:
        y = 0
        y += 1
    try:
        y -= 1
    except ValueError:
        y = None
        raise
    return y


def never(x):
    return x
'''


def _toy(tmp_path):
    """The path of TOY written under ``tmp_path``, and the module it loads."""
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    spec = importlib.util.spec_from_file_location("toy", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    return path, toy


def test_the_census_lists_each_statement_of_the_untaken_branch(tmp_path):
    path, toy = _toy(tmp_path)
    entered, executed = unentered.trace(lambda: toy.toy(2), lines_under=tmp_path)
    assert (str(path), 1) in entered and (str(path), 17) not in entered
    assert {(str(path), line) for line in (3, 4, 5, 10, 14)} <= executed
    # both statements of the else branch, and the except clause as one
    assert unentered.unrun(path, entered, executed) == [(7, "toy"), (8, "toy"), (11, "toy")]


def test_without_a_directory_no_line_is_recorded(tmp_path):
    path, toy = _toy(tmp_path)
    entered, executed = unentered.trace(lambda: toy.toy(-1))
    assert (str(path), 1) in entered and not executed
