#!/usr/bin/env python3
"""List the functions of ``src/residue_lab`` that no run ever enters.

Usage: python3 scripts/unentered.py [--lines]

Under ``sys.settrace`` and ``threading.settrace`` this runs:

* every bundled scenario through ``residue-lab verify`` at ``--threads`` 1
  and 2, writing both report formats (text and ``--json-out``);
* ``residue-lab schema``;
* one unit of every benchmark workload at seed 7007, set up and run through
  ``perfbench/run.py``'s own ``set_up``, ``Prepared`` operations and
  determinism check.

It then prints every function or method (nested ones included) that was
never entered, with its line count, and the total per module.  A function
inside a never-entered one is counted with it, not again on its own.  The
tests' own calls do not count: a function only they call is listed.  The
last two lines are the line counts of the tests and of the package, as
``cat tests/*.py | wc -l`` and ``cat src/residue_lab/*.py | wc -l`` give
them; ``src lines`` is the last line.

With ``--lines`` the same runs also record every line of the package that
runs, and after the functions it lists, as ``module.py:line  function  text``,
each statement of an entered function that never ran: a branch no run takes.
A statement inside one that never ran is not listed again; docstrings, and
the bodies of defs and classes inside the function, are not its statements.
"""

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "residue_lab"
SCENARIOS = ROOT / "scenarios"
BENCH_SEED = 7007


def functions(path: Path):
    """(first line, last line, qualified name, node) of every def in one
    source file, outermost first; the first line is that of its first
    decorator."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.end_lineno, prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def unrun(path: Path, entered: set, executed: set):
    """(line, function name) of every statement of a function entered in
    ``path`` none of whose lines ran, in line order: ``entered`` holds
    (file, first line) of entered functions, ``executed`` (file, line) of
    lines run.  An except clause counts as one statement."""
    ran = {line for file, line in executed if file == str(path)}
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                if ran.isdisjoint(range(child.lineno, child.end_lineno + 1)):
                    found.append((child.lineno, name))
                elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, name)

    for first, _, name, node in functions(path):
        if (str(path), first) in entered:
            docstring = ast.get_docstring(node, clean=False) is not None
            visit(ast.Module(node.body[docstring:], []), name)
    return sorted(found)


def trace(run, lines_under=None):
    """Call ``run()`` under ``sys.settrace`` and ``threading.settrace`` and
    return (entered, executed): the (file, first line) of every function
    entered, and the (file, line) of every line run in a file under the
    directory ``lines_under`` (none if it is None)."""
    entered, executed = set(), set()
    prefix = None if lines_under is None else os.path.join(lines_under, "")

    def line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        if prefix is not None and code.co_filename.startswith(prefix):
            return line

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return entered, executed


def run_everything():
    """Every run the module docstring names, with stdout swallowed."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from residue_lab import cli

    import run as bench
    import workloads

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        for path in sorted(SCENARIOS.glob("*.json")):
            for threads in ("1", "2"):
                cli.main(["verify", str(path), "--threads", threads, "--json-out", str(tmp / "report.json")])
        cli.main(["schema"])
        for workload in workloads.WORKLOADS:
            args = SimpleNamespace(workload=workload, seed=BENCH_SEED, seconds=1)
            lib, prepared, _ = bench.set_up(args, tmp / workload)
            for p in prepared:
                p.run()
            bench.determinism_check(lib, prepared, tmp / workload)


def line_count(directory: Path) -> int:
    """The lines of the directory's ``*.py`` files, as ``cat *.py | wc -l`` counts them."""
    return sum(path.read_text(encoding="utf-8").count("\n") for path in directory.glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="List what no run of the package enters.")
    parser.add_argument("--lines", action="store_true", help="also list the statements of entered functions that never ran")
    args = parser.parse_args(argv)
    entered, executed = trace(run_everything, PACKAGE if args.lines else None)

    totals = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        covered_to = 0  # last line of the never-entered function being counted
        for first, last, name, _ in functions(path):
            if first <= covered_to or (str(path), first) in entered:
                continue
            lines = last - first + 1
            covered_to = last
            totals[module] = totals.get(module, 0) + lines
            print(f"{module}.{name}  {lines}")
    if args.lines:
        print()
        for path in sorted(PACKAGE.glob("*.py")):
            text = path.read_text(encoding="utf-8").splitlines()
            for line, name in unrun(path, entered, executed):
                print(f"{path.name}:{line}  {name}  {text[line - 1].strip()}")
    print()
    for module, lines in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"{module:10s} {lines:5d}")
    print(f"{'total':10s} {sum(totals.values()):5d}")
    print(f"{'tests lines':10s} {line_count(ROOT / 'tests'):5d}")
    print(f"{'src lines':10s} {line_count(PACKAGE):5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
