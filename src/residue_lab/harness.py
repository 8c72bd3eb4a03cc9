"""Scenario files, task dispatch, verification reports.

A scenario is a JSON document (see :data:`SCENARIO_SCHEMA`) naming the
instance (dimension, summand degrees, section and twist polynomials, metric)
and a list of tasks, each of a kind in :data:`KINDS`.  Every input is checked
before the first task runs; tasks run in file order, each producing a
:class:`TaskResult` with a verdict derived solely from its stated tolerances:

* ``pass`` / ``fail`` -- the check ran and met / missed its tolerance;
  a zero solve that finds no finite zero set of the right size
  (``SolveError``, a numerical failure) is also ``fail``, with the error in
  the results;
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
import math
import operator
import os
import time
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .polycore import GaussianRational, HomogeneousPoly, PolyError, parse_poly
from .projgeom import Example22Geometry, GeometryContext, GeometryError, MetricSpec, check_instance
from .localize import SWEEP_MIN_SAMPLES, curve_localized_term, local_mass, virtual_residue_sweep
from .residue import (
    ResidueError,
    cayley_bacharach_verify,
    cb_failures_exact,
    generalized_cb_check,
    global_residue_sum,
)
from .syszero import SolveError

__all__ = [
    "ScenarioError",
    "Scenario",
    "TaskResult",
    "VerificationReport",
    "run_scenario",
    "emit_report",
    "SCENARIO_SCHEMA",
]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_float(v) -> bool:
    """A JSON number (an int or a float, not a bool) that is a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _seed_ok(v) -> bool:
    return _is_int(v) and 0 <= v < 2**64


def _positive(v) -> bool:
    return _is_float(v) and v > 0


def _nonnegative(v) -> bool:
    return _is_float(v) and v >= 0


def _strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


# per task key: its SCENARIO_SCHEMA text and check(value, kind), true when the
# value has the type and range that text states; the kinds that accept a key
# are those whose KINDS record lists it
TASK_KEYS = {
    "tol": (
        "float >= 0, tolerance (euler_jacobi, cayley_bacharach, generalized_cb)",
        lambda v, kind: _nonnegative(v),
    ),
    "t": (
        "non-empty list of floats > 0 (virtual_residue), float > 0 (local_mass)",
        lambda v, kind: _positive(v)
        if kind == "local_mass"
        else isinstance(v, list) and len(v) > 0 and all(map(_positive, v)),
    ),
    "samples": (
        f"int >= 1 (Monte Carlo tasks), >= {SWEEP_MIN_SAMPLES} for virtual_residue",
        lambda v, kind: _is_int(v) and v >= (SWEEP_MIN_SAMPLES if kind == "virtual_residue" else 1),
    ),
    "seed": ("int, 0 <= seed < 2^64", lambda v, kind: _seed_ok(v)),
    "radius": ("float > 0 (local_mass)", lambda v, kind: _positive(v)),
    "rtol": (
        "float >= 0, relative tolerance of each ball mass against its local residue (local_mass)",
        lambda v, kind: _nonnegative(v),
    ),
    "sigma_l1_frac": (
        "float >= 0, largest std_error / L1 mass accepted (curve_localization, perturbed metric)",
        lambda v, kind: _nonnegative(v),
    ),
    **dict.fromkeys(
        ("curve_factor", "cofactor"),
        ("polynomial string (generalized_cb, required)", lambda v, kind: isinstance(v, str)),
    ),
    "psi_cofactor": ("polynomial string (generalized_cb)", lambda v, kind: isinstance(v, str)),
    **dict.fromkeys(
        ("lines_f", "lines_g"),
        ("non-empty list of linear strings (exact-backend cayley_bacharach, required)", lambda v, kind: _strings(v)),
    ),
}


class ScenarioError(ValueError):
    """Scenario file violates the schema or its degree constraints."""


def _check_count(value, what: str) -> None:
    """A sample or thread count must be an int >= 1."""
    if not _is_int(value) or value < 1:
        raise ScenarioError(f"{what} must be an integer >= 1, got {value!r}")


def _check_perturbation(metric: Dict) -> None:
    """The JSON types of a perturbed metric's fields; their ranges are the
    instance's hypotheses, checked by ``check_instance``."""
    pair = metric.get("pair")
    checks = {
        "epsilon": _is_float(metric.get("epsilon")),
        "pair": isinstance(pair, list) and all(map(_is_int, pair)),
        "q": isinstance(metric.get("q"), str),
        "f_index": _is_int(metric.get("f_index", 0)),
    }
    for key, ok in checks.items():
        if not ok:
            got = f"got {metric[key]!r}" if key in metric else "it is missing"
            raise ScenarioError(f"metric.{key} must be {SCENARIO_SCHEMA['metric'][key]}; {got}")


@dataclass
class Scenario:
    n: int
    degrees: List[int]
    section_text: List[str]
    psi_text: Optional[str]
    metric_cfg: Dict
    tasks: List[Dict]
    backend: str = "float"
    _parsed: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    exact_section: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _geometry: Optional[GeometryContext] = field(default=None, init=False, repr=False, compare=False)

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
        if not _is_int(n) or not 1 <= n <= 4:
            raise ScenarioError("n must be between 1 and 4")
        degrees = need("degrees", list)
        if len(degrees) != n or not all(_is_int(d) and d >= 1 for d in degrees):
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
        unknown = sorted(set(metric) - set(SCENARIO_SCHEMA["metric"]))
        if unknown:
            raise ScenarioError(f"unknown key(s) {unknown} in metric; known keys: {sorted(SCENARIO_SCHEMA['metric'])}")
        if metric["kind"] == "perturbed":
            _check_perturbation(metric)
        elif len(metric) > 1:
            raise ScenarioError(f"metric key(s) {sorted(set(metric) - {'kind'})} apply to a perturbed metric only")
        backend = doc.get("backend", "float")
        if backend not in ("float", "exact"):
            raise ScenarioError("backend must be 'float' or 'exact'")
        tasks = need("tasks", list)
        for task in tasks:
            kind = task.get("kind") if isinstance(task, dict) else None
            if not isinstance(kind, str) or kind not in KINDS:
                raise ScenarioError(f"every task needs a kind from {tuple(KINDS)}; got {task!r}")
            spec = KINDS[kind]
            known = {"kind", "seed", *spec.keys}
            unknown = sorted(set(task) - known)
            if unknown:
                raise ScenarioError(f"unknown key(s) {unknown} in {kind} task; known keys: {sorted(known)}")
            for key, value in task.items():
                if key != "kind" and not TASK_KEYS[key][1](value, kind):
                    raise ScenarioError(f"{kind} task key {key!r} must be {TASK_KEYS[key][0]}; got {value!r}")
            # what the kind needs of its scenario, checked before any task runs
            if spec.psi and psi is None:
                raise ScenarioError(f"{kind} requires psi")
            if spec.p2 and n != 2:
                raise ScenarioError(f"{kind} runs on P^2 with two curve sections, got n = {n}")
            for key in spec.required + (spec.exact_required if backend == "exact" else ()):
                if not task.get(key):
                    raise ScenarioError(f"{kind} task key {key!r} is required: {TASK_KEYS[key][0]}")
        return Scenario(n, list(degrees), list(section), psi, dict(metric), list(tasks), backend)

    # ---------------------------------------------------------------- build

    def _parse(self, key: str, text: str, backend: str = "float") -> HomogeneousPoly:
        """The polynomial string of the scenario at ``key`` in z0..zn; a text
        that does not parse is a ScenarioError naming the key and the text."""
        try:
            return parse_poly(text, self.n + 1, backend=backend)
        except PolyError as exc:
            raise ScenarioError(f'polynomial parse error in {key} "{text}": {exc}') from exc

    def _section(self, backend: str) -> tuple:
        return tuple(self._parse(f"section[{k}]", text, backend) for k, text in enumerate(self.section_text))

    def parse_polys(self):
        """The section, psi and metric, parsed and put through
        ``check_instance`` on the first call and kept for the later ones.  On
        the exact backend the check sees the section parsed exactly, kept as
        ``exact_section``, and the float section returned is parsed only when
        some task takes a float route (None otherwise)."""
        if self._parsed is not None:
            return self._parsed
        section = self._section(self.backend)
        psi = self._parse("psi", self.psi_text) if self.psi_text is not None else None
        m = self.metric_cfg
        metric = MetricSpec()
        if m["kind"] == "perturbed":
            q = self._parse("metric.q", m["q"])
            metric = MetricSpec("perturbed", float(m["epsilon"]), tuple(m["pair"]), q, m.get("f_index", 0))
        try:
            check_instance(self.degrees, section, psi, metric)
        except GeometryError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.backend == "exact":
            self.exact_section = section
            floats = any(not KINDS[task["kind"]].exact_required for task in self.tasks)
            section = self._section("float") if floats else None
        self._parsed = section, psi, metric
        return self._parsed

    def geometry(self) -> GeometryContext:
        """The instance's GeometryContext, built on the first call and kept
        for the later ones, so every task shares its chart data."""
        if self._geometry is None:
            section, psi, metric = self.parse_polys()
            try:
                self._geometry = GeometryContext(self.degrees, section or self._section("float"), metric, psi)
            except GeometryError as exc:
                raise ScenarioError(str(exc)) from exc
        return self._geometry


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
    """Execute every task of a scenario file, in order.  Every input is
    checked before the first task runs: the overrides, the schema, the
    instance with its metric, and each task's own polynomials."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    _check_count(threads, "the thread count")
    if samples is not None:
        _check_count(samples, "the samples override")
    if seed is not None and not _seed_ok(seed):
        raise ScenarioError(f"the seed override must be {TASK_KEYS['seed'][0]}, got {seed!r}")
    scenario = Scenario.from_dict(doc)
    sweeps = any(task["kind"] == "virtual_residue" for task in scenario.tasks)
    if sweeps and samples is not None and samples < SWEEP_MIN_SAMPLES:
        raise ScenarioError(
            f"the samples override must be at least {SWEEP_MIN_SAMPLES} with a virtual_residue task, got {samples}"
        )
    scenario.parse_polys()
    specs = [KINDS[task["kind"]] for task in scenario.tasks]
    own = [spec.parse(scenario, task) if spec.parse else {} for spec, task in zip(specs, scenario.tasks)]
    overrides = {key: v for key, v in (("seed", seed), ("samples", samples)) if v is not None}
    report = VerificationReport(
        tool_version=__version__,
        seed=0 if seed is None else seed,
        backend=scenario.backend,
        threads=threads,
        scenario=doc,
    )
    for spec, task, polys in zip(specs, scenario.tasks, own):
        t0 = time.perf_counter()
        opts = {"seed": 0, **spec.keys, **task, **overrides, **polys}
        try:
            results, verdict = spec.run(scenario, opts, threads)
        except (ResidueError, GeometryError) as exc:
            results, verdict = {"error": str(exc)}, "precondition-failed"
        except SolveError as exc:  # a numerical failure, not a broken hypothesis
            results, verdict = {"error": str(exc)}, "fail"
        report.tasks.append(
            TaskResult(
                kind=task["kind"],
                inputs={k: v for k, v in task.items() if k != "kind"},
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


def _run_euler_jacobi(scenario, opts, threads):
    section, psi, _ = scenario.parse_polys()
    tol = float(opts["tol"])
    ledger = global_residue_sum(section, psi, seed=opts["seed"])
    results = {
        "zeros": len(ledger.entries),
        "total": complex(ledger.total),
        "relative_vanishing": ledger.relative_vanishing,
        "tol": tol,
        "ledger": _ledger_json(ledger),
    }
    return results, ("pass" if ledger.relative_vanishing <= tol else "fail")


def _run_cayley_bacharach(scenario, opts, threads):
    tol = float(opts["tol"])
    if scenario.backend == "exact":
        return _run_cb_exact(opts["lines_f"], opts["lines_g"], tol)
    (f, g), _, _ = scenario.parse_polys()
    rep = cayley_bacharach_verify(f, g, seed=opts["seed"])
    results = {
        "degrees": list(rep.degree_pair),
        "points": rep.num_points,
        "space_dimension": rep.space_dimension,
        "max_residual": rep.max_residual,
        "vacuous": rep.vacuous,
        "tol": tol,
    }
    return results, ("pass" if rep.max_residual <= tol else "fail")


def _parse_lines(scenario, task):
    """On the exact backend, lines_f and lines_g over the Gaussian rationals:
    nonzero linear forms whose products are the two section curves."""
    if scenario.backend != "exact":
        return {}
    lines = {
        key: [scenario._parse(f"{key}[{i}]", s, backend="exact") for i, s in enumerate(task[key])]
        for key in ("lines_f", "lines_g")
    }
    if any(line.is_zero() or line.degree != 1 for line in lines["lines_f"] + lines["lines_g"]):
        raise ScenarioError("lines_f and lines_g must be nonzero linear forms")
    for factors, curve in zip(lines.values(), scenario.exact_section):
        if reduce(operator.mul, factors).terms != curve.terms:
            raise ScenarioError("line factorizations do not multiply to the section curves")
    return lines


def _run_cb_exact(lf, lg, tol):
    """Exact-backend route: the curves arrive as explicit line factorizations
    with Gaussian-rational coefficients, so the points are exact, and one
    elimination counts those where Cayley-Bacharach fails (held out, a form
    through the others is nonzero there): ``nonzero_held_out_evaluations``."""

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
    for k, p in enumerate(pts):
        if not any(p):
            i, j = divmod(k, len(lg))
            raise ResidueError(
                f"lines_f[{i}] and lines_g[{j}] are the same line: the curves share a component"
            )
    if len(set(map(_projective_key, pts))) != len(pts):
        raise ResidueError("non-transversal intersection: repeated points")
    # the curves' degrees are their numbers of lines
    failed, dim = cb_failures_exact(pts, len(lf) + len(lg) - 3)
    results = {
        "degrees": [len(lf), len(lg)],
        "points": len(pts),
        "space_dimension": dim,
        "nonzero_held_out_evaluations": len(failed),
        "exact": True,
        "tol": tol,
    }
    return results, ("pass" if not failed else "fail")


def _projective_key(p):
    """The point p of P^2 scaled to first nonzero coordinate 1, as a key that
    is the same for every multiple of p."""
    lead = next(c for c in p if c)
    return tuple(c / lead for c in p)


def _parse_factors(scenario, task):
    """curve_factor f, cofactor u and psi_cofactor phi, with f u = section[0]
    and, where both are given, f phi = psi."""
    section, psi, _ = scenario.parse_polys()
    f = scenario._parse("curve_factor", task["curve_factor"])
    u = scenario._parse("cofactor", task["cofactor"])
    if not _poly_close(f * u, section[0]):
        raise ScenarioError("curve_factor * cofactor does not reproduce section[0]")
    phi = None
    if "psi_cofactor" in task:
        phi = scenario._parse("psi_cofactor", task["psi_cofactor"])
        if psi is not None and not _poly_close(f * phi, psi):
            raise ScenarioError("curve_factor * psi_cofactor does not reproduce psi")
    return {"curve_factor": f, "cofactor": u, "psi_cofactor": phi}


def _run_generalized_cb(scenario, opts, threads):
    section, _, _ = scenario.parse_polys()
    tol = float(opts["tol"])
    rep = generalized_cb_check(
        opts["curve_factor"], opts["cofactor"], section[1], psi_cofactor=opts["psi_cofactor"], seed=opts["seed"]
    )
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


def _run_virtual_residue(scenario, opts, threads):
    ts = [float(x) for x in opts["t"]]
    n_samples = opts["samples"]
    ests = virtual_residue_sweep(scenario.geometry(), ts, n_samples, opts["seed"], threads)
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


def _run_local_mass(scenario, opts, threads):
    ctx = scenario.geometry()
    section, psi = ctx.section, ctx.psi
    t, radius, rtol = float(opts["t"]), float(opts["radius"]), float(opts["rtol"])
    n_samples, seed = opts["samples"], opts["seed"]
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


def _run_curve_localization(scenario, opts, threads):
    geo = Example22Geometry(scenario.geometry())
    defect = geo.smoothness_defect()
    if defect is not None:
        raise GeometryError(f"curve not certified smooth: {defect}")
    n_samples = opts["samples"]
    term = curve_localized_term(geo, n_samples, opts["seed"], threads=threads)
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
        sigma_l1 = float(opts["sigma_l1_frac"])
        precision_ok = term.std_error <= sigma_l1 * term.l1_mass if term.l1_mass > 0 else True
        results["sigma_vs_l1_ok"] = precision_ok
        ok = ok and precision_ok
    return results, ("pass" if ok else "fail")


@dataclass(frozen=True)
class TaskKind:
    """One task kind: ``run(scenario, opts, threads)`` gives (results,
    verdict), ``opts`` being ``keys`` (each key the kind reads besides ``kind``
    and ``seed``, with its default; None: none) under the task, the seed and
    samples overrides, and what ``parse(scenario, task)`` returns: the task's
    own polynomials, parsed and checked before the first task runs.  ``psi``,
    ``p2``, ``required`` and, on the exact backend, ``exact_required`` are what
    a task needs of its scenario and its file; a kind with ``exact_required``
    keys takes its exact route there, and no float section."""

    run: Callable
    keys: Dict[str, object]
    psi: bool = False
    p2: bool = False
    required: Tuple[str, ...] = ()
    exact_required: Tuple[str, ...] = ()
    parse: Optional[Callable] = None


KINDS = {
    "euler_jacobi": TaskKind(_run_euler_jacobi, {"tol": 1e-8}, psi=True),
    "cayley_bacharach": TaskKind(
        _run_cayley_bacharach, {"tol": 1e-8, "lines_f": None, "lines_g": None}, p2=True,
        exact_required=("lines_f", "lines_g"), parse=_parse_lines,
    ),
    "generalized_cb": TaskKind(
        _run_generalized_cb, {"tol": 1e-8, "curve_factor": None, "cofactor": None, "psi_cofactor": None}, p2=True,
        required=("curve_factor", "cofactor"), parse=_parse_factors,
    ),
    "virtual_residue": TaskKind(_run_virtual_residue, {"t": [1.0], "samples": 50000}, psi=True),
    "local_mass": TaskKind(_run_local_mass, {"t": 0.01, "radius": 0.5, "rtol": 0.05, "samples": 50000}, psi=True),
    "curve_localization": TaskKind(_run_curve_localization, {"samples": 30000, "sigma_l1_frac": 0.02}, psi=True),
}

SCENARIO_SCHEMA = {
    "n": "int, dimension of the projective space (1..4)",
    "degrees": "list of int >= 1, one per bundle summand; length n",
    "section": "list of n polynomial strings (variables z0..zn)",
    "psi": "polynomial string of degree sum(degrees)-n-1; required by %s tasks"
    % (tuple(kind for kind, spec in KINDS.items() if spec.psi),),
    "metric": {
        "kind": "'fubini_study' | 'perturbed'",
        "epsilon": "float > 0 (perturbed only, required)",
        "pair": "[a, b] distinct 0-based summand indices (perturbed only)",
        "q": "polynomial string of degree degrees[b] (perturbed only)",
        "f_index": "0-based summand index whose section cuts the curve (perturbed only, default 0)",
    },
    "backend": "'float' | 'exact' (exact runs cayley_bacharach tasks on their line factorizations)",
    "tasks": [{"kind": "one of %s" % (tuple(KINDS),), **{key: text for key, (text, _) in TASK_KEYS.items()}}],
}
