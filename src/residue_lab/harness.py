"""Scenario files, task dispatch, verification reports.

A scenario is a JSON document (see :data:`SCENARIO_SCHEMA`) naming the
instance (dimension, summand degrees, section and twist polynomials, metric)
and a list of verification tasks.  Tasks run in file order; each produces a
:class:`TaskResult` with a verdict derived solely from its stated tolerances:

* ``pass`` / ``fail`` -- the check ran and met / missed its tolerance;
  a zero solve that runs out of retries (``SolveError``) is also ``fail``,
  with the error in the results;
* ``precondition-failed`` -- a geometric hypothesis did not hold
  (zeros at infinity, non-simple zeros, singular curve);
* ``assumed-hypotheses`` -- the check passed but rests on splitting
  hypotheses that are assumed rather than certified (mixed-family runs).

Reports serialize deterministically: the canonical JSON rendering excludes
wall-clock timings (they appear in the text rendering only), complex numbers
are [re, im] pairs, and keys are sorted.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .polycore import GaussianRational, HomogeneousPoly, PolyError, parse_poly
from .projgeom import (
    BundleSpec,
    Example22Geometry,
    GeometryContext,
    GeometryError,
    MetricSpec,
    PsiSpec,
    SectionSpec,
)
from .localize import curve_localized_term, local_mass, virtual_residue_sweep
from .residue import (
    ResidueError,
    cayley_bacharach_verify,
    cb_vanishing_space_exact,
    exact_monomial_rows,
    generalized_cb_check,
    global_residue_sum,
)
from .syszero import SolveError, solve_square_system

__all__ = [
    "ScenarioError",
    "Scenario",
    "TaskResult",
    "VerificationReport",
    "run_scenario",
    "emit_report",
    "SCENARIO_SCHEMA",
]

TASK_KINDS = (
    "euler_jacobi",
    "cayley_bacharach",
    "generalized_cb",
    "virtual_residue",
    "local_mass",
    "curve_localization",
)

SCENARIO_SCHEMA = {
    "n": "int, dimension of the projective space (1..4)",
    "degrees": "list of int >= 1, one per bundle summand; length n",
    "section": "list of n polynomial strings (variables z0..zn)",
    "psi": "polynomial string of degree sum(degrees)-n-1; required by tasks that integrate or sum residues",
    "metric": {
        "kind": "'fubini_study' | 'perturbed'",
        "epsilon": "float > 0 (perturbed only)",
        "pair": "[a, b] distinct 0-based summand indices (perturbed only)",
        "q": "polynomial string of degree degrees[b] (perturbed only)",
        "f_index": "0-based summand whose section cuts the curve (perturbed only)",
    },
    "backend": "'float' | 'exact' (exact affects cayley_bacharach tasks with line factorizations)",
    "tasks": [
        {
            "kind": "one of %s" % (TASK_KINDS,),
            "tol": "float tolerance (euler_jacobi, cayley_bacharach, generalized_cb)",
            "t": "list of floats > 0 (virtual_residue), float (local_mass)",
            "samples": "int >= 1 (Monte Carlo tasks)",
            "seed": "int",
            "radius": "float (local_mass)",
            "rtol": "float, relative tolerance of each ball mass against its local residue (local_mass)",
            "sigma_l1_frac": "float, largest std_error / L1 mass accepted (curve_localization, perturbed metric)",
            "curve_factor": "polynomial string (generalized_cb)",
            "cofactor": "polynomial string (generalized_cb)",
            "psi_cofactor": "polynomial string (generalized_cb)",
            "lines_f": "list of linear strings (exact-backend cayley_bacharach)",
            "lines_g": "list of linear strings (exact-backend cayley_bacharach)",
        }
    ],
}
# the task kinds whose runner reads each task key (the kinds named in
# SCENARIO_SCHEMA); a key that no runner of its task's kind reads is a schema error
TASK_KEY_KINDS = {
    "kind": TASK_KINDS,
    "seed": TASK_KINDS,
    "tol": ("euler_jacobi", "cayley_bacharach", "generalized_cb"),
    "t": ("virtual_residue", "local_mass"),
    "samples": ("virtual_residue", "local_mass", "curve_localization"),
    "radius": ("local_mass",),
    "rtol": ("local_mass",),
    "sigma_l1_frac": ("curve_localization",),
    "curve_factor": ("generalized_cb",),
    "cofactor": ("generalized_cb",),
    "psi_cofactor": ("generalized_cb",),
    "lines_f": ("cayley_bacharach",),
    "lines_g": ("cayley_bacharach",),
}
KIND_KEYS = {
    kind: frozenset(key for key, kinds in TASK_KEY_KINDS.items() if kind in kinds)
    for kind in TASK_KINDS
}


class ScenarioError(ValueError):
    """Scenario file violates the schema or its degree constraints."""


def _check_samples(value, what: str) -> None:
    """A sample count must be an int >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ScenarioError(f"{what} must be an integer >= 1, got {value!r}")


@dataclass
class Scenario:
    n: int
    degrees: List[int]
    section_text: List[str]
    psi_text: Optional[str]
    metric_cfg: Dict
    tasks: List[Dict]
    backend: str = "float"

    @staticmethod
    def from_dict(doc: Dict) -> "Scenario":
        def need(key, typ):
            if key not in doc:
                raise ScenarioError(f"missing required key {key!r}")
            val = doc[key]
            if not isinstance(val, typ):
                raise ScenarioError(f"key {key!r} must be {typ.__name__}")
            return val

        n = need("n", int)
        if not 1 <= n <= 4:
            raise ScenarioError("n must be between 1 and 4")
        degrees = need("degrees", list)
        if len(degrees) != n or not all(isinstance(d, int) and d >= 1 for d in degrees):
            raise ScenarioError("degrees must be a list of n integers >= 1")
        section = need("section", list)
        if len(section) != n or not all(isinstance(s, str) for s in section):
            raise ScenarioError("section must be a list of n polynomial strings")
        psi = doc.get("psi")
        if psi is not None and not isinstance(psi, str):
            raise ScenarioError("psi must be a polynomial string")
        metric = doc.get("metric", {"kind": "fubini_study"})
        if not isinstance(metric, dict) or metric.get("kind") not in ("fubini_study", "perturbed"):
            raise ScenarioError("metric.kind must be 'fubini_study' or 'perturbed'")
        backend = doc.get("backend", "float")
        if backend not in ("float", "exact"):
            raise ScenarioError("backend must be 'float' or 'exact'")
        tasks = need("tasks", list)
        for task in tasks:
            if not isinstance(task, dict) or task.get("kind") not in TASK_KINDS:
                raise ScenarioError(
                    f"every task needs a kind from {TASK_KINDS}; got {task!r}"
                )
            known = KIND_KEYS[task["kind"]]
            unknown = sorted(set(task) - known)
            if unknown:
                raise ScenarioError(
                    f"unknown key(s) {unknown} in {task['kind']} task; known keys: {sorted(known)}"
                )
            if "samples" in task:
                _check_samples(task["samples"], f"{task['kind']} task key 'samples'")
        return Scenario(n, list(degrees), list(section), psi, dict(metric), list(tasks), backend)

    # ---------------------------------------------------------------- build

    def parse_polys(self):
        nv = self.n + 1
        try:
            section = [parse_poly(s, nv) for s in self.section_text]
            psi = parse_poly(self.psi_text, nv) if self.psi_text is not None else None
        except PolyError as exc:
            raise ScenarioError(f"polynomial parse error: {exc}") from exc
        for s, d in zip(section, self.degrees):
            if not s.is_zero() and s.degree != d:
                raise ScenarioError(
                    f"section component degree {s.degree} does not match bundle degree {d}"
                )
        D = sum(self.degrees) - self.n - 1
        if psi is not None:
            if D < 0:
                raise ScenarioError(
                    f"degrees {self.degrees} on P^{self.n} admit no psi (required degree {D} < 0)"
                )
            if not psi.is_zero() and psi.degree != D:
                raise ScenarioError(
                    f"psi degree must be sum(degrees)-n-1 = {D}, got {psi.degree}"
                )
        return section, psi

    def geometry(self) -> GeometryContext:
        section, psi = self.parse_polys()
        bundle = BundleSpec(self.n, tuple(self.degrees))
        m = self.metric_cfg
        if m.get("kind") == "perturbed":
            try:
                q = parse_poly(m["q"], self.n + 1)
            except (KeyError, PolyError) as exc:
                raise ScenarioError(f"perturbed metric needs a valid q: {exc}") from exc
            pair = m.get("pair")
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ScenarioError("perturbed metric needs pair [a, b]")
            ms = MetricSpec(
                "perturbed",
                epsilon=float(m.get("epsilon", 0.05)),
                pair=(int(pair[0]), int(pair[1])),
                q=q,
                f_index=int(m.get("f_index", 0)),
            )
        else:
            ms = MetricSpec()
        try:
            return GeometryContext(
                bundle,
                SectionSpec(tuple(section)),
                ms,
                PsiSpec(psi) if psi is not None else None,
            )
        except GeometryError as exc:
            raise ScenarioError(str(exc)) from exc


@dataclass
class TaskResult:
    kind: str
    inputs: Dict
    results: Dict
    verdict: str
    wall_time_s: float

    def ok(self) -> bool:
        return self.verdict in ("pass", "assumed-hypotheses")


@dataclass
class VerificationReport:
    tool_version: str
    seed: int
    backend: str
    threads: int
    scenario: Dict
    tasks: List[TaskResult] = field(default_factory=list)

    def all_ok(self) -> bool:
        return all(t.ok() for t in self.tasks)


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.complexfloating,)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emit_report(report: VerificationReport, fmt: str) -> bytes:
    """Deterministic serialization; 'json' is canonical (no timings),
    'text' is the human rendering including wall times."""
    if fmt == "json":
        # thread count and wall times are execution details, not results;
        # the canonical JSON must be byte-identical across both
        doc = {
            "tool_version": report.tool_version,
            "seed": report.seed,
            "backend": report.backend,
            "scenario": _jsonable(report.scenario),
            "tasks": [
                {
                    "kind": t.kind,
                    "inputs": _jsonable(t.inputs),
                    "results": _jsonable(t.results),
                    "verdict": t.verdict,
                }
                for t in report.tasks
            ],
            "all_ok": report.all_ok(),
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    if fmt == "text":
        lines = [
            f"residue-lab {report.tool_version}  backend={report.backend} "
            f"seed={report.seed} threads={report.threads} "
            f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'default')}",
            "",
        ]
        for t in report.tasks:
            lines.append(f"[{t.verdict.upper():>19}] {t.kind}  ({t.wall_time_s:.2f} s)")
            for key, val in t.results.items():
                if key == "ledger":
                    lines.append("    ledger:")
                    for entry in val:
                        pt = ", ".join(f"{c[0]:+.6f}{c[1]:+.6f}i" for c in entry["point"])
                        lines.append(
                            f"      ({pt})  ->  {entry['value'][0]:+.3e}{entry['value'][1]:+.3e}i"
                        )
                else:
                    lines.append(f"    {key}: {_fmt(val)}")
        lines.append("")
        lines.append("ALL PASS" if report.all_ok() else "FAILURES PRESENT")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def _fmt(val):
    if isinstance(val, float):
        return f"{val:.6g}"
    if isinstance(val, list) and len(val) == 2 and all(isinstance(x, float) for x in val):
        return f"{val[0]:.6g}{val[1]:+.6g}i"
    return str(val)


# ---------------------------------------------------------------- dispatch


def run_scenario(
    path: str,
    seed: Optional[int] = None,
    samples: Optional[int] = None,
    threads: int = 1,
) -> VerificationReport:
    """Execute every task of a scenario file, in order."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    if samples is not None:
        _check_samples(samples, "the samples override")
    scenario = Scenario.from_dict(doc)
    scenario.parse_polys()  # fail fast on degree violations (exit 2)
    global_seed = seed if seed is not None else 0
    report = VerificationReport(
        tool_version=__version__,
        seed=global_seed,
        backend=scenario.backend,
        threads=threads,
        scenario=doc,
    )
    for task in scenario.tasks:
        kind = task["kind"]
        t0 = time.perf_counter()
        runner = _RUNNERS[kind]
        task_seed = int(task.get("seed", global_seed)) if seed is None else global_seed
        task_samples = samples if samples is not None else task.get("samples")
        try:
            results, verdict = runner(scenario, task, task_seed, task_samples, threads)
        except (ResidueError, GeometryError) as exc:
            results, verdict = {"error": str(exc)}, "precondition-failed"
        except SolveError as exc:  # a numerical failure, not a broken hypothesis
            results, verdict = {"error": str(exc)}, "fail"
        report.tasks.append(
            TaskResult(
                kind=kind,
                inputs={
                    k: v for k, v in task.items() if k != "kind"
                },
                results=results,
                verdict=verdict,
                wall_time_s=time.perf_counter() - t0,
            )
        )
    return report


def _ledger_json(ledger):
    return [
        {"point": [[c.real, c.imag] for c in pt], "value": [v.real, v.imag]}
        for pt, v in ledger.entries
    ]


def _run_euler_jacobi(scenario, task, seed, samples, threads):
    section, psi = scenario.parse_polys()
    if psi is None:
        raise ScenarioError("euler_jacobi requires psi")
    tol = float(task.get("tol", 1e-8))
    ledger = global_residue_sum(section, psi, seed=seed)
    results = {
        "zeros": len(ledger.entries),
        "total": complex(ledger.total),
        "relative_vanishing": ledger.relative_vanishing,
        "tol": tol,
        "ledger": _ledger_json(ledger),
    }
    return results, ("pass" if ledger.relative_vanishing <= tol else "fail")


def _run_cayley_bacharach(scenario, task, seed, samples, threads):
    if scenario.n != 2 or len(scenario.section_text) != 2:
        raise ScenarioError("cayley_bacharach runs on P^2 with two curve sections")
    tol = float(task.get("tol", 1e-8))
    if scenario.backend == "exact":
        return _run_cb_exact(scenario, task, tol)
    f = parse_poly(scenario.section_text[0], 3)
    g = parse_poly(scenario.section_text[1], 3)
    rep = cayley_bacharach_verify(f, g, seed=seed)
    results = {
        "degrees": list(rep.degree_pair),
        "points": rep.num_points,
        "space_dimension": rep.space_dimension,
        "max_residual": rep.max_residual,
        "vacuous": rep.vacuous,
        "tol": tol,
    }
    return results, ("pass" if rep.max_residual <= tol else "fail")


def _run_cb_exact(scenario, task, tol):
    """Exact-backend route: the curves arrive as explicit line factorizations
    with Gaussian-rational coefficients, so the intersection points and the
    held-out evaluations are exact."""
    lines_f = task.get("lines_f")
    lines_g = task.get("lines_g")
    if not lines_f or not lines_g:
        raise ScenarioError("exact cayley_bacharach needs lines_f and lines_g")
    lf = [parse_poly(s, 3, backend="exact") for s in lines_f]
    lg = [parse_poly(s, 3, backend="exact") for s in lines_g]
    f = parse_poly(scenario.section_text[0], 3, backend="exact")
    g = parse_poly(scenario.section_text[1], 3, backend="exact")
    pf, pg = lf[0], lg[0]
    for l in lf[1:]:
        pf = pf * l
    for l in lg[1:]:
        pg = pg * l
    if pf.terms != f.terms or pg.terms != g.terms:
        raise ScenarioError("line factorizations do not multiply to the section curves")

    def coeffs(line):
        out = []
        for k in range(3):
            e = [0, 0, 0]
            e[k] = 1
            out.append(line.terms.get(tuple(e), GaussianRational.of(0)))
        return out

    pts = []
    for a in map(coeffs, lf):
        for b in map(coeffs, lg):
            pts.append(
                (
                    a[1] * b[2] - a[2] * b[1],
                    a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0],
                )
            )
    if any(not any(c for c in p) for p in pts):
        raise ResidueError("parallel lines: intersection escapes the plane")
    if len({tuple(str(c) for c in p) for p in pts}) != len(pts):
        raise ResidueError("non-transversal intersection: repeated points")
    m = f.degree + g.degree - 3
    worst_nonzero = 0
    dims = []
    rows = exact_monomial_rows(pts, m)
    for hold in range(len(pts)):
        others = [i for i in range(len(pts)) if i != hold]
        basis = cb_vanishing_space_exact([pts[i] for i in others], m, rows=[rows[i] for i in others])
        dims.append(len(basis))
        for form in basis:
            if form.eval(list(pts[hold])):
                worst_nonzero += 1
    results = {
        "degrees": [f.degree, g.degree],
        "points": len(pts),
        "space_dimension": dims[0] if dims else 0,
        "nonzero_held_out_evaluations": worst_nonzero,
        "exact": True,
        "tol": tol,
    }
    return results, ("pass" if worst_nonzero == 0 else "fail")


def _run_generalized_cb(scenario, task, seed, samples, threads):
    section, psi = scenario.parse_polys()
    for key in ("curve_factor", "cofactor"):
        if key not in task:
            raise ScenarioError(f"generalized_cb requires {key!r}")
    f = parse_poly(task["curve_factor"], 3)
    u = parse_poly(task["cofactor"], 3)
    if not _poly_close(f * u, section[0]):
        raise ScenarioError("curve_factor * cofactor does not reproduce section[0]")
    phi = None
    if "psi_cofactor" in task:
        phi = parse_poly(task["psi_cofactor"], 3)
        if psi is not None and not _poly_close(f * phi, psi):
            raise ScenarioError("curve_factor * psi_cofactor does not reproduce psi")
    tol = float(task.get("tol", 1e-8))
    rep = generalized_cb_check(f, u, section[1], psi_cofactor=phi, seed=seed)
    ok = (
        rep.curve_entry_max <= tol
        and rep.isolated_relative_vanishing <= tol
        and all(r <= tol for r in rep.forcing_residuals)
    )
    results = {
        "curve_points": rep.curve_points,
        "isolated_points": rep.isolated_points,
        "curve_entry_max": rep.curve_entry_max,
        "isolated_relative_vanishing": rep.isolated_relative_vanishing,
        "forcing_residual_max": max(rep.forcing_residuals, default=0.0),
        "hypotheses": rep.hypotheses,
        "tol": tol,
        "ledger": _ledger_json(rep.ledger),
    }
    return results, ("assumed-hypotheses" if ok else "fail")


def _poly_close(a: HomogeneousPoly, b: HomogeneousPoly, tol: float = 1e-12) -> bool:
    keys = set(a.terms) | set(b.terms)
    scale = max((abs(complex(c)) for c in a.terms.values()), default=1.0)
    return all(
        abs(complex(a.terms.get(k, 0)) - complex(b.terms.get(k, 0))) <= tol * max(scale, 1.0)
        for k in keys
    )


def _run_virtual_residue(scenario, task, seed, samples, threads):
    ctx = scenario.geometry()
    ts = [float(x) for x in task.get("t", [1.0])]
    n_samples = 50000 if samples is None else samples
    ests = virtual_residue_sweep(ctx, ts, n_samples, seed, threads)
    entries = []
    ok = True
    for est in ests:
        hit = abs(est.value) <= 3 * est.std_error
        ok = ok and hit
        entries.append(
            {
                "t": est.t,
                "value": complex(est.value),
                "std_error": est.std_error,
                "within_3_sigma": hit,
            }
        )
    for a, b in zip(ests, ests[1:]):
        tol = 3 * float(np.hypot(a.std_error, b.std_error))
        if abs(a.value - b.value) > tol:
            ok = False
    results = {"samples": n_samples, "estimates": entries}
    return results, ("pass" if ok else "fail")


def _run_local_mass(scenario, task, seed, samples, threads):
    ctx = scenario.geometry()
    if ctx.psi is None:
        raise ScenarioError("local_mass requires psi")
    section, psi = ctx.section.components, ctx.psi.H
    t = float(task.get("t", 0.01))
    radius = float(task.get("radius", 0.5))
    rtol = float(task.get("rtol", 0.05))
    n_samples = 50000 if samples is None else samples
    ledger = global_residue_sum(section, psi, seed=seed)
    pts = [np.array(p) for p, _ in ledger.entries]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(pts[i] - pts[j]) <= 2 * radius:
                raise ResidueError("overlapping balls: zeros closer than twice the radius")
    masses = []
    ok = True
    # the ball mass reproduces the local residue up to the orientation factor
    # of the pairing convention (trivial for n = 1)
    orient = (-1.0) ** (scenario.n * (scenario.n - 1) // 2)
    for i, ((point, res_val)) in enumerate(ledger.entries):
        est = local_mass(ctx, list(point), t, radius, n_samples, seed=seed + i, threads=threads)
        close = abs(est.value - orient * res_val) <= rtol * max(abs(res_val), 1e-12)
        ok = ok and close
        masses.append(
            {
                "center": [complex(c) for c in point],
                "mass": complex(est.value),
                "std_error": est.std_error,
                "local_residue": complex(res_val),
                "matches": close,
            }
        )
    if len(masses) >= 2:
        total = sum(np.complex128(m["mass"]) for m in masses)
        err = float(np.sqrt(sum(m["std_error"] ** 2 for m in masses)))
        cancel = abs(total) <= 3 * err
        ok = ok and cancel
    else:
        total, err, cancel = 0j, 0.0, True
    results = {
        "t": t,
        "radius": radius,
        "samples": n_samples,
        "masses": masses,
        "mass_total": complex(total),
        "mass_total_3sigma": 3 * err,
        "cancellation": cancel,
    }
    return results, ("pass" if ok else "fail")


def _run_curve_localization(scenario, task, seed, samples, threads):
    ctx = scenario.geometry()
    geo = Example22Geometry(ctx)
    if not geo.certify_smooth_curve(lambda polys: [list(p.point) for p in solve_square_system(polys, seed=seed).points]):
        raise GeometryError("singular curve: the section zero locus is not smooth")
    n_samples = 30000 if samples is None else samples
    term = curve_localized_term(geo, n_samples, seed, threads=threads)
    sigma_l1 = float(task.get("sigma_l1_frac", 0.02))
    results = {
        "samples": n_samples,
        "value": complex(term.value),
        "std_error": term.std_error,
        "rejected_samples": term.rejected,
        "pointwise_max": term.pointwise_max,
        "l1_mass": term.l1_mass,
        "metric": scenario.metric_cfg.get("kind"),
    }
    if scenario.metric_cfg.get("kind") == "fubini_study":
        ok = term.pointwise_max <= 1e-12 and abs(term.value) <= 1e-12
        results["pointwise_tol"] = 1e-12
    else:
        ok = abs(term.value) <= 3 * term.std_error
        precision_ok = term.std_error <= sigma_l1 * term.l1_mass if term.l1_mass > 0 else True
        results["sigma_vs_l1_ok"] = precision_ok
        ok = ok and precision_ok
    return results, ("pass" if ok else "fail")


_RUNNERS = {
    "euler_jacobi": _run_euler_jacobi,
    "cayley_bacharach": _run_cayley_bacharach,
    "generalized_cb": _run_generalized_cb,
    "virtual_residue": _run_virtual_residue,
    "local_mass": _run_local_mass,
    "curve_localization": _run_curve_localization,
}
