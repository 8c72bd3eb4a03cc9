#!/usr/bin/env python3
"""Run every bundled scenario and print a one-line verdict summary.

Usage: python3 scripts/run_scenarios.py [--samples N] [--seed N] [--json-dir DIR]

Scenarios run single-threaded.  With ``--json-dir`` each scenario's canonical
JSON report is also written to ``DIR/<scenario>.json``, ready for
``scripts/compare_reports.py``.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from residue_lab.harness import ScenarioError, emit_report, run_scenario  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--json-dir", type=Path, default=None, help="write canonical JSON reports here")
    args = parser.parse_args()
    if args.json_dir is not None:
        args.json_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        try:
            report = run_scenario(str(path), seed=args.seed, samples=args.samples, threads=1)
        except ScenarioError as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 2
        if args.json_dir is not None:
            (args.json_dir / path.name).write_bytes(emit_report(report, "json"))
        verdicts = ", ".join(f"{t.kind}={t.verdict}" for t in report.tasks)
        status = "ok " if report.all_ok() else "FAIL"
        print(f"[{status}] {path.name:32s} {verdicts}")
        failures += 0 if report.all_ok() else 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
