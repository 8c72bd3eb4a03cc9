"""Correctness gate: decides whether each benchmark operation failed.

An operation fails when

* it raised an exception outside the harness's verdict mapping;
* its output holds a non-finite number;
* its verdict differs from the one its construction implies -- for checks
  decided without sampling (Euler-Jacobi, Cayley-Bacharach, generalized
  Cayley-Bacharach, the Fubini-Study curve term);
* a Monte Carlo estimate lies more than 5 sigma from its reference value
  (zero, or the local residue);
* a flat Gaussian mass is off 1 by more than 1e-10;
* a solver call disagrees with the known finite-zero or escaped-path count.

Monte Carlo verdicts are statistical: the harness applies a 3 sigma rule,
which rejects a true identity in a fraction of a percent of sweeps, and for a
perturbed curve term a sigma/L1 precision target, whose sigma comes from a
heavy-tailed sample (the integrand grows near branch points).  The gate
applies the 5 sigma rule to the numbers instead, and the harness's Monte
Carlo fail verdicts are counted apart, as ``mc_verdict_misses``.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional

SIGMAS = 5.0
FLAT_TOL = 1e-10
ZERO_TOL = 1e-8

MC_KINDS = ("virtual_residue", "local_mass")


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _within(value: complex, ref: complex, sigma: float) -> bool:
    return abs(value - ref) <= SIGMAS * sigma


def check_scenario(op, payload: bytes) -> List[str]:
    """Failure reasons for one harness run (canonical JSON report)."""
    report = json.loads(payload)
    task = report["tasks"][0]
    kind, res, verdict = task["kind"], task["results"], task["verdict"]
    why = []
    if not _finite(res):
        why.append("non-finite number in results")
    if kind == "virtual_residue":
        for est in res["estimates"]:
            if not _within(_c(est["value"]), 0, est["std_error"]):
                why.append(f"t={est['t']}: estimate beyond {SIGMAS:g} sigma of 0")
    elif kind == "local_mass":
        n = report["scenario"]["n"]
        orient = (-1.0) ** (n * (n - 1) // 2)
        for m in res["masses"]:
            if not _within(_c(m["mass"]), orient * _c(m["local_residue"]), m["std_error"]):
                why.append("local mass beyond 5 sigma of the local residue")
        if not _within(_c(res["mass_total"]), 0, res["mass_total_3sigma"] / 3.0):
            why.append("mass total beyond 5 sigma of 0")
        if len(res["masses"]) != op.expect["zeros"]:
            why.append(f"{len(res['masses'])} local masses, expected {op.expect['zeros']}")
    elif kind == "curve_localization" and res["metric"] == "perturbed":
        if not _within(_c(res["value"]), 0, res["std_error"]):
            why.append("curve term beyond 5 sigma of 0")
    elif verdict != op.expect["verdict"]:
        why.append(f"verdict {verdict}, expected {op.expect['verdict']}: {res.get('error', '')}")
    else:
        for key in ("zeros", "points", "curve_points", "isolated_points"):
            want = op.expect.get(key)
            if want is not None and res.get(key) != want:
                why.append(f"{key} = {res.get(key)}, expected {want}")
    return why


def mc_verdict_miss(payload: bytes) -> bool:
    """True when the harness failed a Monte Carlo task by its own rules."""
    task = json.loads(payload)["tasks"][0]
    stochastic = task["kind"] in MC_KINDS or task["results"].get("metric") == "perturbed"
    return stochastic and task["verdict"] == "fail"


def check_solve(op, zs) -> List[str]:
    why = []
    found = (len(zs.points), zs.missing_paths)
    want = (op.expect["points"], op.expect["escaped"])
    if found != want:
        why.append(
            f"(points, escaped, defective) = ({found[0]}, {found[1]}, {zs.defective}), "
            f"expected ({want[0]}, {want[1]}, 0)"
        )
    for zp in zs.points:
        if not all(math.isfinite(abs(c)) for c in zp.point):
            why.append("non-finite zero")
        elif max(abs(a - b) for a, b in zip(zp.point, op.expect["zero"])) > ZERO_TOL:
            why.append(f"zero {zp.point} is not the known zero {op.expect['zero']}")
    return why


def check_flat(op, value: float) -> List[str]:
    if not math.isfinite(value) or abs(value - 1.0) > FLAT_TOL:
        return [f"flat Gaussian mass {value!r} off 1 by more than {FLAT_TOL:g}"]
    return []


def check_fiber(op, value: complex) -> List[str]:
    return [] if math.isfinite(abs(value)) else ["non-finite fiber mass"]


CHECKS = {"scenario": check_scenario, "solve": check_solve, "flat": check_flat, "fiber": check_fiber}


def check(op, output, error: Optional[BaseException]) -> List[str]:
    """All failure reasons for one execution; empty when it passed."""
    if error is not None:
        return [f"raised {type(error).__name__}: {error}"]
    return CHECKS[op.kind](op, output)
