#!/usr/bin/env python3
"""Compare two sets of canonical JSON reports task by task.

Usage: python3 scripts/compare_reports.py OLD NEW

OLD and NEW are report files or directories of ``*.json`` reports (as written
by ``residue-lab verify --json-out`` or ``scripts/run_scenarios.py
--json-dir``); directories are matched by file name.  For every report the
script first prints the largest relative deviation over the numbers of its
header (every field but ``tasks``), |a - b| / max(|a|, |b|), the JSON
path where it occurs and whether the two files are byte-identical; then,
for every task, the verdict pair and the same deviation over the task's
numbers (e.g. at ``tasks[0].results.max_residual``).  Complex
numbers are stored as [re, im] pairs and compared as complex numbers, so the
rounding noise of an imaginary part that is zero in exact arithmetic is
measured against the modulus, not against itself.

Two differing numbers that are both at most ABS_FLOOR in modulus are
rounding noise of quantities that are zero in exact arithmetic (residuals,
vanishing ratios, ledger values of a cancelling sum): any reordering of the
arithmetic moves them by an O(1) relative amount.  They are not counted in
the deviation; the header and each task list their JSON paths on a line of
their own.  A line before the verdict counts the byte-identical reports.
It exits 0 only when every verdict is identical, every non-numeric field agrees
and every number above the floor agrees within 1e-12 relative.
"""

import argparse
import json
from pathlib import Path

RTOL = 1e-12
ABS_FLOOR = 1e-14


def _pairs(old: Path, new: Path):
    if old.is_dir() != new.is_dir():
        raise SystemExit("OLD and NEW must both be files or both be directories")
    if not old.is_dir():
        return [(old.name, old, new)]
    names = sorted({p.name for p in old.glob("*.json")} | {p.name for p in new.glob("*.json")})
    return [(name, old / name, new / name) for name in names]


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_number(x):
    """A JSON number, or an [re, im] pair, as a complex number; else None."""
    if _is_real(x):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(map(_is_real, x)):
        return complex(x[0], x[1])
    return None


def _deviation(a, b, where: str, mismatches: list, floored: list):
    """(largest relative deviation between the numbers of two JSON values,
    JSON path of that number); the paths of differing numbers under the
    floor are recorded in ``floored``, any other difference in
    ``mismatches``."""
    za, zb = _as_number(a), _as_number(b)
    if za is not None and zb is not None:
        if za == zb:
            return 0.0, where
        if max(abs(za), abs(zb)) <= ABS_FLOOR:
            floored.append(where)
            return 0.0, where
        return abs(za - zb) / max(abs(za), abs(zb)), where
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = [_deviation(a[k], b[k], f"{where}.{k}", mismatches, floored) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = [
            _deviation(x, y, f"{where}[{i}]", mismatches, floored) for i, (x, y) in enumerate(zip(a, b))
        ]
    else:
        if a != b:
            mismatches.append(f"{where}: {a!r} != {b!r}")
        parts = []
    return max(parts, key=lambda part: part[0], default=(0.0, where))


def _print_floored(paths: list):
    if paths:
        print(f"    differ below {ABS_FLOOR:g} on both sides: {', '.join(paths)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()

    ok, pairs, identical = True, _pairs(args.old, args.new), 0
    for name, old_path, new_path in pairs:
        if not (old_path.exists() and new_path.exists()):
            print(f"{name}: missing on one side")
            ok = False
            continue
        same_bytes = old_path.read_bytes() == new_path.read_bytes()
        identical += same_bytes
        old = json.loads(old_path.read_text())
        new = json.loads(new_path.read_text())
        if len(old["tasks"]) != len(new["tasks"]):
            print(f"{name}: task counts differ")
            ok = False
            continue
        mismatches: list = []
        header_old, header_new = ({k: v for k, v in doc.items() if k != "tasks"} for doc in (old, new))
        floored: list = []
        dev, at = _deviation(header_old, header_new, "report", mismatches, floored)
        at = f" at {at}" if dev > 0 else ""
        print(f"{name} report max rel dev {dev:.2e}{at}, {'byte-identical' if same_bytes else 'bytes differ'}")
        _print_floored(floored)
        ok = ok and dev <= RTOL
        for i, (a, b) in enumerate(zip(old["tasks"], new["tasks"])):
            floored = []
            dev, at = _deviation(a, b, f"tasks[{i}]", mismatches, floored)
            same = a["verdict"] == b["verdict"]
            at = f" at {at}" if dev > 0 else ""
            print(f"{name} [{i}] {a['kind']:18s} {a['verdict']} -> {b['verdict']}  max rel dev {dev:.2e}{at}")
            _print_floored(floored)
            ok = ok and same and dev <= RTOL
        for m in mismatches:
            print(f"    {m}")
        ok = ok and not mismatches
    print(f"{identical} of {len(pairs)} reports byte-identical")
    print("OK" if ok else "DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
