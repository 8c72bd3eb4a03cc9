#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent checkout and a changed one.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
           --seed S [--pairs 10] [--json PATH]

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
than the parent's interquartile range.  Then, from each run's own
``<label> N tasks, median X s, total Y s`` lines, it prints per operation
label both sides' median of the runs' medians, the change's relative to the
parent's and the pairs the change won (lower is better): the view that shows
which operations a shift of ``task_p50_s`` comes from.

With ``--json PATH`` the same summary is also written to PATH as one JSON
object (``bench_record``): the workload, seed, pairs and run length; the
machine's ``nproc`` and the Python and numpy versions; per metric its unit,
direction, both sides' quartiles and per-pair values, the relative change,
the pairs won and the gain rule; and per label both sides' medians, the
relative change and the pairs won.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
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


_LABEL_LINE = re.compile(r"^\s*(\S+)\s+\d+ tasks, median (\S+) s, total \S+ s$", re.MULTILINE)


def label_medians(stdout: str) -> dict:
    """{label: median task seconds} from one run's printed report."""
    return {m[1]: float(m[2]) for m in _LABEL_LINE.finditer(stdout)}


def label_summary(parent_runs, change_runs):
    """Pure per-label summary of paired runs: parent_runs[k] and
    change_runs[k] are pair k's ``label_medians``.  {label: summary}, in
    label order: each side's median of its runs' medians (None on a side that
    never ran the label), the relative change (None unless both sides ran it)
    and the pairs won by the change among the pairs where both sides ran it."""
    out = {}
    for label in sorted({label for run in parent_runs + change_runs for label in run}):
        p = [run[label] for run in parent_runs if label in run]
        c = [run[label] for run in change_runs if label in run]
        both = [(a[label], b[label]) for a, b in zip(parent_runs, change_runs) if label in a and label in b]
        pm = statistics.median(p) if p else None
        cm = statistics.median(c) if c else None
        out[label] = {
            "parent": pm,
            "change": cm,
            "relative": cm / pm - 1 if p and c else None,
            "wins": sum(b < a for a, b in both),
            "pairs": len(both),
        }
    return out


def label_lines(parent_runs, change_runs):
    """``label_summary`` as one printed line per label (n/a where it has None)."""
    lines = []
    for label, s in label_summary(parent_runs, change_runs).items():
        pm = "n/a" if s["parent"] is None else f"{s['parent']:.4f} s"
        cm = "n/a" if s["change"] is None else f"{s['change']:.4f} s"
        rel = "n/a" if s["relative"] is None else f"{100 * s['relative']:+.1f}%"
        lines.append(f"{label:<22} parent {pm:>10}  change {cm:>10}  {rel:>7}  won {s['wins']}/{s['pairs']}")
    return lines


def bench_record(workload, seed, seconds, metrics, values, labels, environment):
    """Pure JSON record of a finished set of pairs: ``metrics`` are
    BENCHMARK.json's end-to-end entries, ``values[side][name]`` the per-pair
    values, ``labels[side]`` the per-pair ``label_medians`` and
    ``environment`` the machine and versions it ran on.  A relative change
    that is not a number (a parent median of 0) is written as null."""
    summaries = {}
    for m in metrics:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        s = summarize(parent, change, m["better"])
        summaries[m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": {"quartiles": list(s["parent"]), "values": list(parent)},
            "change": {"quartiles": list(s["change"]), "values": list(change)},
            "relative": None if math.isnan(s["relative"]) else s["relative"],
            "wins": s["wins"],
            "pairs": s["pairs"],
            "gain_holds": s["gain_holds"],
        }
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len(labels["parent"]),
        "run_seconds": seconds,
        **environment,
        "metrics": summaries,
        "labels": label_summary(labels["parent"], labels["change"]),
    }


def environment():
    """The processors this process may run on (``nproc``) and the Python and
    numpy versions."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout: the JSON object of its last output
    line with the run's whole output under "stdout", or None when the process
    failed or printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return dict(json.loads(lines[-1]), stdout=proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="also write the summary to this JSON file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    values = {"parent": {m["name"]: [] for m in metrics}, "change": {m["name"]: [] for m in metrics}}
    labels = {"parent": [], "change": []}
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
            labels[side].append(label_medians(result.get("stdout", "")))
            shown = " ".join(f"{m['name']}={values[side][m['name']][-1]:.6g}" for m in metrics)
            print(f"pair {k} {side:<6} {shown}", flush=True)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s: median [Q1, Q3]")
    for m in metrics:
        s = summarize(values["parent"][m["name"]], values["change"][m["name"]], m["better"])
        print(summary_line(m["name"], s))
    print("per label: median of the runs' task medians")
    for line in label_lines(labels["parent"], labels["change"]):
        print(line)
    if args.json:
        record = bench_record(args.workload, args.seed, seconds, metrics, values, labels, environment())
        args.json.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
