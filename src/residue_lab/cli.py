"""Command line entry point.

    residue-lab verify <scenario.json> [--seed N] [--samples N] [--threads N]
                                       [--json-out PATH]
    residue-lab schema

Exit codes: 0 all tasks pass, 1 any task failed or hit a precondition,
2 input/schema error.

BLAS and OpenMP run on one thread unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS say otherwise; the text report's header
names the count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Parallelism comes from --threads alone: BLAS and OpenMP are pinned to one
# thread before numpy is first imported (through the harness), unless the
# environment already sets a count.  Multi-threaded BLAS stalls some runs on
# the small matrix products of the Monte Carlo chunks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .harness import SCENARIO_SCHEMA, ScenarioError, emit_report, run_scenario  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="residue-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the tasks of a scenario file")
    verify.add_argument("scenario", help="path to the scenario JSON document")
    verify.add_argument("--seed", type=int, default=None, help="override every task seed")
    verify.add_argument("--samples", type=int, default=None, help="override Monte Carlo sample counts")
    verify.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="worker threads, default all cores (results identical for any value)",
    )
    verify.add_argument("--json-out", default=None, help="write the canonical JSON report here ('-' for stdout)")

    sub.add_parser("schema", help="print the scenario schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        print(json.dumps(SCENARIO_SCHEMA, indent=2, sort_keys=True))
        return 0

    try:
        report = run_scenario(args.scenario, seed=args.seed, samples=args.samples, threads=args.threads)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(emit_report(report, "text").decode())
    if args.json_out:
        payload = emit_report(report, "json")
        if args.json_out == "-":
            sys.stdout.write(payload.decode())
        else:
            with open(args.json_out, "wb") as fh:
                fh.write(payload)
    return 0 if report.all_ok() else 1


if __name__ == "__main__":
    raise SystemExit(main())
