#!/usr/bin/env python3
"""Count the homotopy solver's work on a benchmark workload, seed by seed.

Usage: python3 scripts/solver_steps.py WORKLOAD SEED [SEED ...]

For each seed this builds the workload's suite with ``perfbench/run.py``'s
own ``set_up`` (run length ``run_seconds`` of ``BENCHMARK.json``), runs every
operation once, single-threaded, checks each output with ``gate.check`` and
prints one row:

    solves        calls of solve_square_system (infinity checks make none)
    systems       systems compiled (syszero._System builds), by any caller
    tracks        batches of paths tracked (_track calls; retries included)
    paths         paths tracked, retries included
    batch steps   steps of a batch (_correct calls): one predictor and one
                  corrector pass for every active path of the batch
    all accepted  batch steps in which every active path was accepted
    path steps    steps of single paths, summed over the batch steps
    escaped       paths that ended as escaped to infinity
    failed        paths that failed to track (each forces a full retry)
    gate fails    operations the benchmark's correctness gate rejects
    small blocks  PolyKernel blocks of at most SMALL_BATCH points (one-step
                  gather), over the whole workload, not only the solver
    table blocks  larger PolyKernel blocks (workspace power tables)

and a total row over the seeds.  Nothing under ``perfbench/`` is modified;
the library's functions are wrapped only for the duration of the run.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gate  # noqa: E402
import run as bench  # noqa: E402  (pins BLAS to one thread before numpy loads)
import workloads  # noqa: E402

COLUMNS = (
    "solves", "systems", "tracks", "paths", "batch steps", "all accepted", "path steps", "escaped", "failed", "gate fails",
    "small blocks", "table blocks",
)


@contextlib.contextmanager
def counted(lib, counts):
    """Wrap solve_square_system and syszero._System (in every module that
    imported them), _track, _correct, PolyKernel._monomials and its small
    route PolyKernel._gathered so that they add to ``counts``."""
    syszero, kernel = lib.syszero, lib.polycore.PolyKernel
    solve, system, track, correct = syszero.solve_square_system, syszero._System, syszero._track, syszero._correct
    monomials, gathered = kernel._monomials, kernel._gathered

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    class CountedSystem(system):
        def __init__(self, polys):
            counts["systems"] += 1
            super().__init__(polys)

    def counted_track(system, gamma, starts):
        Z, status = track(system, gamma, starts)
        counts["tracks"] += 1
        counts["paths"] += len(starts)
        counts["escaped"] += int((status == syszero._ESCAPED).sum())
        counts["failed"] += int((status == syszero._FAILED).sum())
        return Z, status

    def counted_correct(system, gamma, tau, Z):
        counts["batch steps"] += 1
        counts["path steps"] += len(Z)
        out = correct(system, gamma, tau, Z)
        rows, z_corr, res = out[:3]
        counts["all accepted"] += rows.size == len(Z) and bool(syszero._accepted(Z, z_corr, res)[0].all())
        return out

    def counted_monomials(self, W):
        counts["table blocks"] += 1  # taken back below if the block is small
        return monomials(self, W)

    def counted_gathered(self, W):
        counts["small blocks"] += 1
        counts["table blocks"] -= 1
        return gathered(self, W)

    holders = [m for name, m in sorted(sys.modules.items()) if name.startswith("residue_lab") and m is not None]
    patched = [(m, "solve_square_system", counted_solve) for m in holders if getattr(m, "solve_square_system", None) is solve]
    patched += [(m, "_System", CountedSystem) for m in holders if getattr(m, "_System", None) is system]
    patched += [(syszero, "_track", counted_track), (syszero, "_correct", counted_correct)]
    patched += [(kernel, "_monomials", counted_monomials), (kernel, "_gathered", counted_gathered)]
    originals = [(m, attr, getattr(m, attr)) for m, attr, _ in patched]
    try:
        for m, attr, fn in patched:
            setattr(m, attr, fn)
        yield
    finally:
        for m, attr, fn in originals:
            setattr(m, attr, fn)


def count_seed(workload: str, seed: int, seconds: float, tmp: Path):
    counts = dict.fromkeys(COLUMNS, 0)
    args = SimpleNamespace(workload=workload, seed=seed, seconds=seconds)
    with contextlib.redirect_stdout(io.StringIO()):
        lib, prepared, _ = bench.set_up(args, tmp / f"{workload}-{seed}")
        with counted(lib, counts):
            for p in prepared:
                try:
                    out, err = p.run(), None
                except Exception as exc:  # a raising operation is a gate failure
                    out, err = None, exc
                counts["gate fails"] += bool(gate.check(p.op, out, err))
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seeds", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    print(f"{'seed':>8} " + " ".join(f"{c:>13}" for c in COLUMNS))
    total = dict.fromkeys(COLUMNS, 0)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            counts = count_seed(args.workload, seed, seconds, Path(tmp))
            print(f"{seed:>8} " + " ".join(f"{counts[c]:>13}" for c in COLUMNS), flush=True)
            for c in COLUMNS:
                total[c] += counts[c]
    print(f"{'total':>8} " + " ".join(f"{total[c]:>13}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
