#!/usr/bin/env python3
"""List the functions of ``src/residue_lab`` that no run ever enters.

Usage: python3 scripts/unentered.py

Under ``sys.setprofile`` and ``threading.setprofile`` this runs:

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
last line is the package's whole line count, as
``cat src/residue_lab/*.py | wc -l`` gives it.
"""

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "residue_lab"
SCENARIOS = ROOT / "scenarios"
BENCH_SEED = 7007

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def functions(path: Path):
    """(first line, last line, qualified name) of every def in one source
    file, outermost first; the first line is that of its first decorator."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((first, child.end_lineno, prefix + child.name))
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def run_everything():
    """Every run the module docstring names, with stdout swallowed."""
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


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_everything()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    totals = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        covered_to = 0  # last line of the never-entered function being counted
        for first, last, name in functions(path):
            if first <= covered_to or (str(path), first) in entered:
                continue
            lines = last - first + 1
            covered_to = last
            totals[module] = totals.get(module, 0) + lines
            print(f"{module}.{name}  {lines}")
    print()
    for module, lines in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"{module:10s} {lines:5d}")
    print(f"{'total':10s} {sum(totals.values()):5d}")
    src_lines = sum(path.read_text(encoding="utf-8").count("\n") for path in PACKAGE.glob("*.py"))
    print(f"{'src lines':10s} {src_lines:5d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
