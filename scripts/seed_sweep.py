#!/usr/bin/env python3
"""Seed-sweep calibration of a scenario's Monte Carlo verdicts.

A 3-sigma verdict is only as good as its sigma, and one seed shows nothing of
that.  This runs one scenario at every seed of a range and prints, for each
Monte Carlo estimate, with z = |value| / sigma:

    pass       seeds at which the estimate's task passed
    mean z^2   1 when sigma is right
    max z      the largest z
    z>3        seeds with z > 3 (a 3-sigma miss; nominally 0.27% of seeds)
    cv(sigma)  coefficient of variation of sigma across the seeds
    sigma/L1   mean and largest std_error / L1 mass (curve task only)

The estimates are those a task gates at 3 sigma: each t of a virtual
residue sweep, the cancelling total of a local-mass task and the curve term.
Where sigma is 0 (the Fubini-Study curve term, which vanishes pointwise) z is
not defined and is printed as "-".

Usage: python3 scripts/seed_sweep.py SCENARIO --seeds A:B

SCENARIO is a scenario file or the name of a bundled one
(p2_example22_perturbed).  Seeds A to B-1 replace every task's own seed;
sample counts and gates are the scenario's own.  Scenarios run single-threaded.
"""

import argparse
import os
import statistics
import sys
from pathlib import Path

# one BLAS thread unless the environment sets a count, as residue-lab verify does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from residue_lab.harness import ScenarioError, run_scenario  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def estimates(task):
    """(label, value, sigma, sigma / L1 or None) of each 3-sigma-gated
    estimate in one task's results."""
    res = task.results
    if task.kind == "virtual_residue":
        for est in res.get("estimates", []):
            yield f"virtual_residue t={est['t']:g}", est["value"], est["std_error"], None
    elif task.kind == "local_mass" and len(res.get("masses", [])) >= 2:
        yield "local_mass total", res["mass_total"], res["mass_total_3sigma"] / 3, None
    elif task.kind == "curve_localization" and "value" in res:
        l1 = res["l1_mass"]
        yield "curve", res["value"], res["std_error"], (res["std_error"] / l1 if l1 > 0 else None)


def summarize(runs):
    """One printed row from the per-seed (passed, value, sigma, sigma/L1)."""
    zs = [abs(v) / s for _, v, s, _ in runs if s > 0]
    sigmas = [s for _, _, s, _ in runs]
    ratios = [r for *_, r in runs if r is not None]
    mean_s = statistics.fmean(sigmas)
    cv = statistics.pstdev(sigmas) / mean_s if mean_s > 0 else 0.0
    cols = [f"{sum(p for p, *_ in runs)}/{len(runs)}"]
    if zs:
        cols += [f"{statistics.fmean(z * z for z in zs):.3f}", f"{max(zs):.2f}", str(sum(z > 3 for z in zs))]
    else:
        cols += ["-", "-", "-"]
    cols.append(f"{cv:.3f}")
    cols.append(f"{statistics.fmean(ratios):.4f} / {max(ratios):.4f}" if ratios else "-")
    return cols


def main() -> int:
    parser = argparse.ArgumentParser(description="Seed-sweep calibration of Monte Carlo verdicts")
    parser.add_argument("scenario", help="scenario file, or the name of a bundled scenario")
    parser.add_argument("--seeds", required=True, help="A:B, the seeds A to B-1")
    args = parser.parse_args()
    try:
        first, stop = (int(v) for v in args.seeds.split(":"))
    except ValueError:
        parser.error("--seeds must be A:B with integers A < B")
    if first >= stop:
        parser.error("--seeds must be A:B with integers A < B")
    path = Path(args.scenario)
    if not path.exists():
        path = SCENARIOS / f"{args.scenario.removesuffix('.json')}.json"

    runs = {}  # label -> per-seed (passed, value, sigma, sigma / L1)
    for seed in range(first, stop):
        try:
            report = run_scenario(str(path), seed=seed)
        except ScenarioError as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 2
        for k, task in enumerate(report.tasks):
            for label, value, sigma, ratio in estimates(task):
                runs.setdefault(f"[{k}] {label}", []).append((task.ok(), value, sigma, ratio))

    print(f"{path.name}, seeds {first}:{stop}")
    header = ["estimate", "pass", "mean z^2", "max z", "z>3", "cv(sigma)", "sigma/L1 mean / max"]
    rows = [[label] + summarize(r) for label, r in runs.items()]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) if i == 0 else cell.rjust(w) for i, (cell, w) in enumerate(zip(row, widths))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
