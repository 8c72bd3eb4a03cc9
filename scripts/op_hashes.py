#!/usr/bin/env python3
"""Hash the output of every prepared benchmark operation.

Usage: python3 scripts/op_hashes.py WORKLOAD SEED [SEED ...] [--seconds S]

For each seed this sets up the workload through ``perfbench/run.py``'s own
``set_up`` and ``Prepared`` operations (``--seconds`` as in a benchmark run,
default 15), runs every operation once at threads=1, and prints one line per
operation:

    SEED INDEX LABEL SHA-256

The hashed bytes are the canonical JSON report of a scenario, and ``repr`` of
the returned value of a direct call (a solve, a flat mass or a fiber
quadrature).  A last line per seed, ``SEED digest SHA-256``, hashes that
seed's lines.  Two checkouts whose outputs agree bit for bit print the same
lines, so comparing them is one ``diff``.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (pins BLAS to one thread before numpy loads)
import workloads  # noqa: E402


def output_bytes(value) -> bytes:
    """A scenario's canonical JSON as it is; any other output as its repr."""
    return (value if isinstance(value, str) else repr(value)).encode("utf-8")


def seed_lines(workload: str, seed: int, seconds: float):
    """One line per prepared operation of the workload at this seed, then the
    seed's digest line."""
    args = SimpleNamespace(workload=workload, seed=seed, seconds=seconds)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        _, prepared, _ = bench.set_up(args, Path(tmp))
        for index, p in enumerate(prepared):
            digest = hashlib.sha256(output_bytes(p.run())).hexdigest()
            lines.append(f"{seed} {index} {p.op.label} {digest}")
    whole = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return lines + [f"{seed} digest {whole}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for line in seed_lines(args.workload, seed, args.seconds):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
