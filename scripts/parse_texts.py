#!/usr/bin/env python3
"""Digest every polynomial text the benchmark workloads and bundled scenarios parse.

Usage: python3 scripts/parse_texts.py SEED [SEED ...] [--workload W ...]
                                      [--seconds S] [--time]

For each workload (default: all) and seed this wraps ``parse_poly`` in
every ``residue_lab`` module that imported it, sets the workload up through
``perfbench/run.py``'s own ``set_up`` (``--seconds`` as in a benchmark run,
default 15), runs every prepared operation once at threads=1, and keeps each
(text, variable count, backend) that ``parse_poly`` received.  The
polynomial texts of the bundled scenarios, at each scenario's variable count
and backend, form one more group, ``scenarios``.  One line per group:

    GROUP SEED texts N exact K sha256 DIGEST [parse_ms T]

N counts the calls and K those on the exact backend.  DIGEST hashes, call by
call, the term map of the text on both backends (exponents in key order,
each float part by ``float.hex``) or the error it raises (type and message).
Two checkouts that parse every text to the same bits print the same digests,
so comparing them is one ``diff``.  With ``--time`` each line ends with the
median, over 15 repetitions, of the milliseconds that parsing the group's
calls as received takes.
"""

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (pins BLAS to one thread before numpy loads)
import workloads  # noqa: E402

REPEATS = 15
POLY_KEYS = ("section", "psi", "q", "lines_f", "lines_g", "curve_factor", "cofactor", "psi_cofactor")


def recording(lib, calls):
    """Wrap ``parse_poly`` wherever the package holds it; returns the undo."""
    original = lib.polycore.parse_poly

    def parse_poly(text, num_vars, backend="float"):
        calls.append((text, num_vars, backend))
        return original(text, num_vars, backend)

    owners = [m for name, m in sorted(sys.modules.items())
              if name.startswith("residue_lab") and getattr(m, "parse_poly", None) is original]
    for owner in owners:
        owner.parse_poly = parse_poly

    def undo():
        for owner in owners:
            owner.parse_poly = original
    return undo


def workload_calls(lib, workload, seed, seconds):
    calls = []
    undo = recording(lib, calls)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            args = SimpleNamespace(workload=workload, seed=seed, seconds=seconds)
            _, prepared, _ = bench.set_up(args, Path(tmp))
            for p in prepared:
                p.run()
    finally:
        undo()
    return calls


def scenario_calls():
    """Every polynomial text of every bundled scenario, in file order, with
    the scenario's variable count and backend."""
    def texts(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in POLY_KEYS:
                    yield from [value] if isinstance(value, str) else value
                else:
                    yield from texts(value)
        elif isinstance(node, list):
            for value in node:
                yield from texts(value)

    calls = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text())
        calls += [(text, doc["n"] + 1, doc.get("backend", "float")) for text in texts(doc)]
    return calls


def outcome(parse, text, num_vars, backend):
    try:
        terms = parse(text, num_vars, backend).terms
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    if backend == "exact":
        return " ".join(f"{e}:{c.re}:{c.im}" for e, c in terms.items())
    return " ".join(f"{e}:{c.real.hex()}:{c.imag.hex()}" for e, c in terms.items())


def digest(parse, calls):
    h = hashlib.sha256()
    for text, num_vars, _ in calls:
        for backend in ("float", "exact"):
            h.update(f"{text!r} {num_vars} {backend} {outcome(parse, text, num_vars, backend)}\n".encode("utf-8"))
    return h.hexdigest()


def parse_ms(parse, calls):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for text, num_vars, backend in calls:
            parse(text, num_vars, backend)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def line(group, seed, calls, parse, timed):
    exact = sum(backend == "exact" for _, _, backend in calls)
    out = f"{group} {seed} texts {len(calls)} exact {exact} sha256 {digest(parse, calls)}"
    return out + (f" parse_ms {parse_ms(parse, calls):.2f}" if timed else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--time", action="store_true")
    args = parser.parse_args(argv)
    lib = bench.load_library()
    parse = lib.polycore.parse_poly
    for workload in args.workload or workloads.WORKLOADS:
        for seed in args.seeds:
            calls = workload_calls(lib, workload, seed, args.seconds)
            print(line(workload, seed, calls, parse, args.time), flush=True)
    print(line("scenarios", "-", scenario_calls(), parse, args.time), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
