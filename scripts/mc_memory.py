#!/usr/bin/env python3
"""Peak memory and wall time of the Monte Carlo estimators against the sample count.

Usage: python3 scripts/mc_memory.py [--samples N [N ...]]

For each estimator and each sample count (default 10^4, 10^5 and 10^6) this
starts a fresh interpreter, builds the estimator's GeometryContext from a
bundled scenario, runs the estimator once on two chunks of samples to warm
its caches, reads ``ru_maxrss``, runs it at the sample count (seed 1,
single-threaded) and reads ``ru_maxrss`` again.  The warm-up takes two
chunks, not one: glibc raises its mmap threshold when the first chunk frees
its large arrays, so only from the second chunk on are they taken from the
heap as in every later chunk, and the growth measures the working set
rather than where the heap happened to fragment.  It prints one row per run:

    estimator   the estimator and its scenario
    samples     the sample count
    growth MB   peak RSS after the run minus peak RSS before it
    wall s      wall time of the run, to three significant digits

The estimators are ``virtual_residue_sweep`` on ``p2_22`` at the five t of
the benchmark's sweep, ``local_mass`` on ``p1_o2`` (the ball of radius 0.5
around its zero w = 1, t = 0.01) and the curve's line sampler
``_sampled_term`` on ``PERTURBED_CUBIC``, the bundled perturbed scenario with
a cubic in place of its conic (the bundled curve scenarios are conics, whose
product rule draws no samples).  On P^2 the sweep is a product rule that
draws no samples either: its row measures the rule at the order whose two
rules fit in the sample count, built and reduced chunk by chunk, and must
stay flat as the samplers' do: its chunks hold at most _CHUNK // 2 nodes
up to about 1.9e7 samples (m = 45), above which a chunk is one simplex
node's 4m^2 phase tuples.  An estimator whose working set does not grow
with the sample count shows a growth that stays flat down the column.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread unless the environment sets a count, as residue-lab verify does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from residue_lab import localize  # noqa: E402
from residue_lab.harness import Scenario  # noqa: E402
from residue_lab.projgeom import Example22Geometry  # noqa: E402

ESTIMATORS = ("virtual_residue p2_22", "local_mass p1_o2", "curve perturbed_cubic")
SWEEP_T = (0.05, 0.1, 0.5, 1.0, 2.0)
PERTURBED_CUBIC = {
    "n": 2,
    "degrees": [3, 2],
    "section": ["z1^3 + (2-1i)*z1*z2^2 + z2^3 - (1/2)*z0^3 + (1+1i)*z0^2*z1 + (1/5)*z0*z2^2", "0"],
    "psi": "z0^2 - (1/3+1i)*z1*z2",
    "metric": {"kind": "perturbed", "epsilon": 0.05, "pair": [0, 1], "q": "z0^2 + 2*z1*z2 - z2^2", "f_index": 0},
    "backend": "float",
    "tasks": [{"kind": "curve_localization", "samples": 20000}],
}


def measure(estimator: str, samples: int) -> None:
    """One row, in this process: print the growth in MB and the wall time."""
    kind, scenario = estimator.split()
    if scenario == "perturbed_cubic":
        doc = PERTURBED_CUBIC
    else:
        doc = json.loads((ROOT / "scenarios" / f"{scenario}.json").read_text())
    ctx = Scenario.from_dict(doc).geometry()
    if kind == "virtual_residue":
        run = lambda count: localize.virtual_residue_sweep(ctx, SWEEP_T, count, seed=1)  # noqa: E731
    elif kind == "local_mass":
        run = lambda count: localize.local_mass(ctx, [1.0], 0.01, 0.5, count, seed=1)  # noqa: E731
    else:
        geo = Example22Geometry(ctx)
        run = lambda count: localize._sampled_term(geo, count, seed=1)  # noqa: E731
    run(2 * localize._CHUNK)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    run(samples)
    wall = time.perf_counter() - start
    growth = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024  # kB on Linux
    print(f"{growth:.1f} {wall!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description="Peak-RSS growth and wall time of the Monte Carlo estimators")
    parser.add_argument("--samples", type=int, nargs="+", default=[10**4, 10**5, 10**6])
    parser.add_argument("--row", nargs=2, help=argparse.SUPPRESS)  # estimator, samples: one row, in this process
    args = parser.parse_args()
    if args.row:
        measure(args.row[0], int(args.row[1]))
        return 0
    if min(args.samples) < localize.SWEEP_MIN_SAMPLES:
        parser.error(f"every sample count must be at least {localize.SWEEP_MIN_SAMPLES}")
    print(f"{'estimator':<30}  {'samples':>9}  {'growth MB':>9}  {'wall s':>7}")
    for estimator in ESTIMATORS:
        for samples in args.samples:
            proc = subprocess.run(
                [sys.executable, __file__, "--row", estimator, str(samples)],
                capture_output=True,
                text=True,
            )
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return 1
            growth, wall = proc.stdout.split()
            print(f"{estimator:<30}  {samples:>9}  {float(growth):>9.1f}  {float(wall):>7.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
