#!/usr/bin/env python3
"""Rescaling-family experiment: the global estimate across a decade of t.

The estimate of the prefactored global integral must be statistically zero
for every t; this sweep prints value, standard error and the z-score so the
independence is visible at a glance.

Usage: python3 scripts/t_sweep.py [--samples N] [--scenario p1|p2]
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from residue_lab.harness import Scenario  # noqa: E402
from residue_lab.localize import SWEEP_MIN_SAMPLES, virtual_residue_sweep  # noqa: E402

# the instance of each --scenario choice: its degrees, section and psi
SCENARIO_FILES = {"p1": "p1_o2.json", "p2": "p2_22.json"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scenario", choices=tuple(SCENARIO_FILES), default="p1")
    args = parser.parse_args()
    if args.samples < SWEEP_MIN_SAMPLES:
        parser.error(f"--samples must be at least {SWEEP_MIN_SAMPLES}")

    with open(ROOT / "scenarios" / SCENARIO_FILES[args.scenario], encoding="utf-8") as fh:
        ctx = Scenario.from_dict(json.load(fh)).geometry()
    ts = [0.2, 0.5, 1.0, 2.0, 5.0]
    print(f"scenario {args.scenario}, {args.samples} samples, seed {args.seed}")
    print(f"{'t':>6} {'Re value':>13} {'Im value':>13} {'sigma':>11} {'|z|':>6}")
    for est in virtual_residue_sweep(ctx, ts, args.samples, args.seed):
        z = abs(est.value) / est.std_error
        print(
            f"{est.t:6.2f} {est.value.real:13.3e} {est.value.imag:13.3e} "
            f"{est.std_error:11.3e} {z:6.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
