#!/usr/bin/env python3
"""Mutation check: does tier-1 catch each of a fixed list of faults?

Usage: python3 scripts/mutants.py [--list] [NAME ...]

Each entry of ``MUTANTS`` is (name, file, old text, new text, reason): a
constant or a gate of the program changed the way a slip would change it.
For each one (or each NAME given), the repository is copied to a temporary
directory without ``.git`` and caches, the old text, which must occur exactly
once, is replaced by the new, and tier-1 runs in the copy with ``-x``:

    PYTHONPATH=src python -m pytest -q -x -p no:cacheprovider \
        --deselect tests/test_mutants.py::test_every_mutant_text_occurs_once_in_its_file

The deselected test asserts that every mutant's old text occurs once, which
the copy no longer holds for the mutant applied; at the parent it has already
shown that no mutant's change removes another's text.

A mutant is CAUGHT when the run fails or runs longer than ``TIMEOUT``
seconds, and SURVIVED when it passes; a caught one is printed with its first
failing test.  The exit status is 1 when any mutant survived.  The repository
itself is never written.  ``--list`` prints the names and reasons without
running anything, and marks a mutant whose text no longer occurs exactly once
in the sources.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS, LOCALIZE = "src/residue_lab/harness.py", "src/residue_lab/localize.py"
PROJGEOM, SUPERALG = "src/residue_lab/projgeom.py", "src/residue_lab/superalg.py"
POLYCORE, CHARTFUN = "src/residue_lab/polycore.py", "src/residue_lab/chartfun.py"
SYSZERO = "src/residue_lab/syszero.py"
TIMEOUT = 600  # seconds per tier-1 run
ANCHOR_TEST = "tests/test_mutants.py::test_every_mutant_text_occurs_once_in_its_file"

MUTANTS = [
    ("sigma-mult-3", LOCALIZE, "_SIGMA_MULT = 12.0", "_SIGMA_MULT = 3.0",
     "a fiber disc of 3 widths misses about e^-9 of the mass"),
    ("ball-volume-no-factorial", LOCALIZE, "np.full(count, math.factorial(n) / (", "np.full(count, 1 / (",
     "the ball's sampling density without n!, invisible on P^1"),
    ("ball-density-radius-power", LOCALIZE, "radius ** (2 * n)", "radius ** n",
     "the ball's sampling density with radius^n in place of radius^2n"),
    ("orientation-dropped", HARNESS, "orient = (-1.0) ** (scenario.n * (scenario.n - 1) // 2)", "orient = 1.0",
     "the local mass's orientation factor, invisible on P^1"),
    ("curve-term-tangent-unconjugated", PROJGEOM, "dK1 + dK2 * np.conj(kappa)", "dK1 + dK2 * kappa",
     "the curve term's sheet tangent entering unconjugated"),
    ("curve-phi-base-slope", PROJGEOM, "return psi / f2,", "return psi / f1,",
     "phi_c divided by df/dw_1 in place of df/dw_2"),
    ("curve-split-shortcut-dropped", LOCALIZE, "return not geo.coupling(0).terms", "return False",
     "the curve density evaluated where r_c is zero by structure"),
    ("conic-jacobian-dropped", LOCALIZE, "return Z.T, weights * area", "return Z.T, weights",
     "the conic's summand read against the sphere's measure without the curve's FS area factor"),
    ("conic-sigma-floor-only", LOCALIZE, "max(abs(value - coarse), _RULE_FLOOR * l1)", "_RULE_FLOOR * l1",
     "the conic rule's sigma taken from its rounding floor alone"),
    ("all-finite-ignored", SYSZERO, "if not all_finite and abs(z[0])", "if abs(z[0])",
     "a far finite zero counted at infinity although the resultant shows none there"),
    ("curve-term-weight-unshifted", PROJGEOM, "weight=t.weight - g.weight", "weight=t.weight",
     "K / G_ff keeping the weight of G_fv"),
    ("fs-density-scaled", PROJGEOM, "return math.factorial(n) / (np.pi**n",
     "return 1.05 * math.factorial(n) / (np.pi**n", "the Fubini-Study sampling density's scale"),
    ("vr-6-sigma", HARNESS, "hit = abs(est.value) <= 3 * est.std_error", "hit = abs(est.value) <= 6 * est.std_error",
     "the virtual-residue 3 sigma gate widened"),
    ("t-consistency-dropped", HARNESS, "ok = ok and abs(a.value - b.value)", "ok = ok and 0 * abs(a.value - b.value)",
     "the virtual-residue t-consistency gate"),
    ("cancellation-dropped", HARNESS, "ok = ok and cancel", "ok = ok", "the local-mass cancellation gate"),
    ("cb-tol-1e6", HARNESS, '("pass" if rep.max_residual <= tol else "fail")',
     '("pass" if rep.max_residual <= tol * 1e6 else "fail")', "the float Cayley-Bacharach tol"),
    ("gcb-curve-dropped", HARNESS, "rep.curve_entry_max <= tol\n", "True\n",
     "the generalized_cb gate on the curve's ledger entries"),
    ("gcb-isolated-dropped", HARNESS, "and rep.isolated_relative_vanishing <= tol\n        ", "",
     "the generalized_cb gate on the isolated points' sum"),
    ("gcb-first-forcing-only", HARNESS, "all(r <= tol for r in rep.forcing_residuals)",
     "rep.forcing_residuals[0] <= tol", "the generalized_cb forcing gate reads one residual"),
    ("fs-curve-gate-dropped", HARNESS, "ok = term.pointwise_max <= 1e-12 and abs(term.value) <= 1e-12", "ok = True",
     "the Fubini-Study curve gate"),
    ("unknown-keys-accepted", HARNESS, "unknown = sorted(set(doc) - set(table))", "unknown = []",
     "a misspelled key read as its default"),
    ("missing-keys-accepted", HARNESS, "if key not in doc and key in required:", "if False:",
     "a required key that is missing"),
    ("zero-poly-complex", POLYCORE, "return 0 if total is None else total",
     "return 0j if total is None else total", "a polynomial with no terms evaluates to a float zero"),
    ("curve-tol-1e-1", "src/residue_lab/residue.py", "_CURVE_TOL = 1e-6", "_CURVE_TOL = 1e-1",
     "isolated zeros near the curve counted on it"),
    ("shuffle-sign-ignored", SUPERALG, "return tuple(merged), sign", "return tuple(merged), 1",
     "the shuffle helper's product of merge signs"),
    ("wedge-cross-sign-dropped", SUPERALG, "sign * (-1) ** cross * ca * cb", "sign * ca * cb",
     "wedge's sign for b's families passing a's later ones"),
    ("dual-pair-cross-sign-dropped", SUPERALG, "sign * (-1) ** cross * cu * ct", "sign * cu * ct",
     "dual_pair's sign for It passing Ju"),
    ("contract-l-sign-dropped", SUPERALG, " + l * (l - 1) // 2", "",
     "the l(l-1)/2 term of the adjunction sign"),
    ("line-summand-fs-area-dropped", LOCALIZE, "fs = (norm * nu2 - (dot.real**2 + dot.imag**2)) / (norm * norm)",
     "fs = nu2", "the line summand over the normal's Euclidean norm in place of its FS norm"),
    ("line-normal-unconjugated", LOCALIZE, "psi * (np.conj(f2) * dK1", "psi * (f2 * dK1",
     "the line summand's d_2 f entering unconjugated"),
    ("cube-root-as-sqrt", LOCALIZE, "np.cbrt(", "np.sqrt(", "Cardano's cube root taken as a square root"),
    ("json-keys-unsorted", HARNESS, "for key in sorted(obj):", "for key in obj:",
     "the canonical JSON's keys in insertion order"),
    ("json-non-ascii-unescaped", HARNESS, "json.encoder.encode_basestring_ascii", "json.encoder.encode_basestring",
     "non-ASCII characters of the canonical JSON written unescaped"),
    ("cache-key-chartless", PROJGEOM, "key = (chart, what)", "key = what",
     "a geometry context's cached chart data and groups read on every chart"),
    ("dbar-weight-sign-flipped", CHARTFUN, "_Term(t.coef * t.weight,", "_Term(-t.coef * t.weight,",
     "the weight term of dbar, and through it of d, with the wrong sign"),
    ("disc-ray-weight-halved", LOCALIZE, "wth = 2.0 * math.pi / angular_nodes", "wth = math.pi / angular_nodes",
     "each ray of a quadrature disc weighted pi / angular_nodes"),
    ("descent-unary-minus-dropped", POLYCORE, "return {e: -c for e, c in self.unary().items()}",
     "return self.unary()", "the parser's unary minus read as no sign"),
    ("descent-power-once-more", POLYCORE, "for _ in range(int(value[0])):", "for _ in range(int(value[0]) + 1):",
     "a power of a parenthesised sum taken once more than its exponent"),
    ("disc-half-turn", LOCALIZE, "thetas = 2.0 * math.pi * np.arange", "thetas = math.pi * np.arange",
     "a quadrature disc's rays spread over half a turn"),
    ("flat-disc-3-widths", LOCALIZE, "10.0 * math.sqrt(2.0 * t)", "3.0 * math.sqrt(2.0 * t)",
     "the flat mass over a disc of 3 Gaussian widths, missing e^-9 of it"),
    ("fiber-sheets-not-summed", LOCALIZE, "radial_nodes, angular_nodes, total)", "radial_nodes, angular_nodes, 0j)",
     "a fiber's mass read off its last sheet alone"),
    ("fiber-row-unreversed", LOCALIZE, "[::-1, 0][: sheets + 1]", "[:, 0][: sheets + 1]",
     "the fiber's row in w_2 read from the line kernel without reversing it"),
    ("sweep-charts-read-as-0", LOCALIZE, "s2[rows], psi_det[rows] = _density_parts(src, chart, W)",
     "s2[rows], psi_det[rows] = _density_parts(src, 0, W)", "the sweep reading every chart's points on chart 0"),
    ("sweep-rule-unrotated", LOCALIZE, "U = _rotation(_philox(seed, 0), n + 1, unitary=True)", "U = np.eye(n + 1)",
     "the sweep's product rule left unrotated, the same nodes at every seed"),
    ("sweep-sigma-floor-only", LOCALIZE, "np.maximum(np.abs(value - coarse), _RULE_FLOOR * l1.real)",
     "_RULE_FLOOR * l1.real", "the sweep rule's sigma taken from its rounding floor alone, the coarse rule dropped"),
    ("group-anti-unconjugated", CHARTFUN, "np.conjugate(V[self.antis], out=V[self.antis])", "V[self.antis]",
     "a chart group's anti factors entering unconjugated"),
    ("tensor-scalar-over-t", LOCALIZE, "SForm(n, -s2 / (2.0 * t), one)", "SForm(n, -s2 / t, one)",
     "the tensor route's scalar datum -|s|^2/t in place of -|s|^2/2t"),
    ("pd-certificate-off", PROJGEOM, "if worst <= 0:", "if worst <= -math.inf:",
     "a perturbed metric that is not positive definite certified as one"),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "out", ".work")


def apply(root: Path, file: str, old: str, new: str) -> None:
    """Replace ``old`` by ``new`` in ``root / file``; ``old`` must occur
    there exactly once, so a mutant whose text has moved is an error, not a
    silent survivor."""
    path = root / file
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{file}: the mutant's text occurs {count} times, not once: {old!r}")
    path.write_text(text.replace(old, new), encoding="utf-8")


def first_failure(output: str):
    """The first failing or erroring test named in pytest's summary, or None."""
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else None


def run(mutant):
    """(caught, detail) for one mutant, run on a copy of the repository."""
    name, file, old, new, _ = mutant
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        apply(copy, file, old, new)
        env = dict(os.environ, PYTHONPATH="src")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--deselect", ANCHOR_TEST]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT} s"
    if proc.returncode == 0:
        return False, ""
    return True, first_failure(proc.stdout) or f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    known = {m[0]: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant(s) {unknown}; known: {sorted(known)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    if args.list:
        for name, file, old, _, reason in chosen:
            count = (ROOT / file).read_text(encoding="utf-8").count(old)
            moved = "" if count == 1 else f"  [text occurs {count} times, not once]"
            print(f"{name:32} {file:32} {reason}{moved}")
        return 0
    survived = 0
    for mutant in chosen:
        caught, detail = run(mutant)
        survived += not caught
        print(f"{'CAUGHT' if caught else 'SURVIVED':9} {mutant[0]:32} {detail}", flush=True)
    print(f"{len(chosen) - survived} caught, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main())
