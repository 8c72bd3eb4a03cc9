#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent checkout and a changed one.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
           --seed S [--pairs 10]

Each pair runs ``perfbench/run.py --workload W --seed S --seconds SEC
--trace 0``, with SEC the ``run_seconds`` of ``BENCHMARK.json``, under this
interpreter once in each checkout, one process at a time; odd pairs run the parent first and even pairs the change.  A run that
is not ``correct`` or has a failed operation stops the script with exit
status 1, naming the side and the pair.

At the end, for each end-to-end metric of ``BENCHMARK.json`` it prints both
sides' median [Q1, Q3], the change's median relative to the parent's, the
pairs the change won (ties count for neither side; the direction is the
metric's ``better``), and whether the gain rule holds: the change wins at
least 9 of every 10 pairs and its median is better than the parent's by more
than the parent's interquartile range.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(Q1, median, Q3) of the values, by the inclusive method: each quartile
    lies within the range of the values, and one value is its own quartiles."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent, change, better):
    """Pure summary of one metric over paired runs: parent[k] and change[k]
    are pair k's values, ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change values")
    sign = {"lower": -1.0, "higher": 1.0}[better]
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gap = sign * (c[1] - p[1])
    return {
        "parent": p,
        "change": c,
        "relative": c[1] / p[1] - 1.0 if p[1] else float("nan"),
        "wins": wins,
        "pairs": len(parent),
        "gain_holds": 10 * wins >= 9 * len(parent) and gap > p[2] - p[0],
    }


def summary_line(name, s):
    p, c = s["parent"], s["change"]
    return (
        f"{name:<12} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
        f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  {100 * s['relative']:+.1f}%  "
        f"won {s['wins']}/{s['pairs']}  gain rule {'holds' if s['gain_holds'] else 'fails'}"
    )


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout: the JSON object of its last output
    line, or None when the process failed or printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    values = {"parent": {m["name"]: [] for m in metrics}, "change": {m["name"]: [] for m in metrics}}
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    for k in range(1, args.pairs + 1):
        for side in ("parent", "change") if k % 2 else ("change", "parent"):
            result = run_benchmark(dirs[side], args.workload, args.seed, seconds)
            if result is None or not result["correct"] or result["failed"] > 0:
                print(f"bench_pairs: the {side} run of pair {k} is not correct or has failed operations: "
                      f"{json.dumps(result)}", file=sys.stderr)
                return 1
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            shown = " ".join(f"{m['name']}={values[side][m['name']][-1]:.6g}" for m in metrics)
            print(f"pair {k} {side:<6} {shown}", flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s: median [Q1, Q3]")
    for m in metrics:
        s = summarize(values["parent"][m["name"]], values["change"][m["name"]], m["better"])
        print(summary_line(m["name"], s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
