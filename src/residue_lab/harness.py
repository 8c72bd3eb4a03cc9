"""Scenario files, task dispatch, verification reports.

A scenario is a JSON document naming the instance (dimension, summand
degrees, section and twist polynomials, metric) and a list of tasks, each of
a kind in :data:`KINDS`.  Each level has one key table, whose texts make
:data:`SCENARIO_SCHEMA` and whose checks refuse a bad value, in the file or in
a seed or samples override; an unknown key is refused.  Every input, with a
perturbed metric's positivity, is checked before the first task runs; tasks
run in file order, each producing a :class:`TaskResult` with a verdict
derived solely from its stated tolerances:

* ``pass`` / ``fail`` -- the check ran and met / missed its tolerance;
  a zero solve that finds no finite zero set of the right size
  (``SolveError``, a numerical failure) is also ``fail``, with the error in
  the results;
* ``precondition-failed`` -- a geometric hypothesis did not hold
  (zeros at infinity, non-simple zeros, singular curve);
* ``assumed-hypotheses`` -- the check passed but rests on splitting
  hypotheses that are assumed rather than certified (mixed-family runs).

Reports serialize deterministically.  ``_write_json`` writes the canonical
JSON in one walk, byte for byte as ``json.dumps(doc, sort_keys=True,
indent=2)``, the tests' reference: keys sorted, complex numbers as [re, im]
pairs, and no wall-clock timings (the text rendering has them).
"""

from __future__ import annotations

import itertools
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
    psi_cofactor_degree,
)
from .syszero import SolveError, check_desk_scale

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


def _positive(v) -> bool:
    return _is_float(v) and v > 0


def _nonnegative(v) -> bool:
    return _is_float(v) and v >= 0


def _strings(v) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(isinstance(s, str) for s in v)


class ScenarioError(ValueError):
    """Scenario file violates the schema or its degree constraints."""


def _check_keys(doc: Dict, table: Dict, where: str, required: Tuple[str, ...] = ()) -> None:
    """Check ``doc`` against ``table`` (key -> (schema text, check(value,
    doc)), in checking order): a key the table lacks is refused, then, key by
    key, a ``required`` key that is missing and a value its check refuses.
    ``where`` names ``doc`` in the messages."""
    unknown = sorted(set(doc) - set(table))
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {where}; known keys: {sorted(table)}")
    for key, (text, check) in table.items():
        if key in doc and not check(doc[key], doc):
            raise ScenarioError(f"{where} key {key!r} must be {text}; got {doc[key]!r}")
        if key not in doc and key in required:
            raise ScenarioError(f"{where} key {key!r} must be {text}; it is missing")


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
        if not isinstance(doc, dict):
            raise ScenarioError(f"a scenario must be a JSON object; got {doc!r}")
        _check_keys(doc, DOC_KEYS, "scenario", ("n", "degrees", "section", "tasks"))
        metric = doc.get("metric", {"kind": "fubini_study"})
        fs = metric.get("kind") == "fubini_study"
        table = {"kind": METRIC_KEYS["kind"]} if fs else METRIC_KEYS
        where = "a fubini_study metric (the other metric keys apply to a perturbed metric only)" if fs else "metric"
        _check_keys(metric, table, where, ("kind", "epsilon", "pair", "q"))
        psi = doc.get("psi")
        backend = doc.get("backend", "float")
        for task in doc["tasks"]:
            kind = task.get("kind") if isinstance(task, dict) else None
            if not isinstance(kind, str) or kind not in KINDS:
                raise ScenarioError(f"every task needs a kind from {tuple(KINDS)}; got {task!r}")
            spec = KINDS[kind]
            exact_keys = spec.exact_required if backend == "exact" else ()
            keys = ("kind", "seed", *(key for key in spec.keys if key in exact_keys or key not in spec.exact_required))
            _check_keys(task, {key: TASK_KEYS[key] for key in keys}, f"{kind} task", spec.required + exact_keys)
            # what the kind needs of its scenario, checked before any task runs
            if spec.psi and psi is None:
                raise ScenarioError(f"{kind} requires psi")
            if spec.p2 and doc["n"] != 2:
                raise ScenarioError(f"{kind} runs on P^2 with two curve sections, got n = {doc['n']}")
        degrees, section, tasks = (list(doc[key]) for key in ("degrees", "section", "tasks"))
        return Scenario(doc["n"], degrees, section, psi, dict(metric), tasks, backend)

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
        """The section, psi and metric, parsed and put through the
        GeometryContext (which runs ``check_instance`` and certifies a
        perturbed metric positive) and ``check_desk_scale`` when a task solves
        the section, on the first call and kept for the later ones; a refused
        scenario keeps nothing.  On the exact backend ``check_instance`` sees
        the section parsed exactly, kept as ``exact_section``, and the float
        section and the context are built only for a float route (else None)."""
        if self._parsed is not None:
            return self._parsed
        section = self._section(self.backend)
        psi = self._parse("psi", self.psi_text) if self.psi_text is not None else None
        m = self.metric_cfg
        metric = MetricSpec()
        if m["kind"] == "perturbed":
            q = self._parse("metric.q", m["q"])
            metric = MetricSpec("perturbed", float(m["epsilon"]), tuple(m["pair"]), q, m.get("f_index", 0))
        kinds = [KINDS[task["kind"]] for task in self.tasks]
        exact = section if self.backend == "exact" else None
        try:
            if exact is not None:
                check_instance(self.degrees, exact, psi, metric)
                section = self._section("float") if any(not k.exact_required for k in kinds) else None
            geometry = None if section is None else GeometryContext(self.degrees, section, metric, psi)
            if any(k.solves and not (self.backend == "exact" and k.exact_required) for k in kinds):
                check_desk_scale(self.degrees)  # before any Macaulay matrix, the infinity check's too
        except (GeometryError, ValueError) as exc:
            raise ScenarioError(str(exc)) from exc
        self.exact_section, self._geometry, self._parsed = exact, geometry, (section, psi, metric)
        return self._parsed

    def geometry(self) -> Optional[GeometryContext]:
        """The GeometryContext every task shares (None with no float section)."""
        self.parse_polys()
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


_quote = json.encoder.encode_basestring_ascii  # json's own string escaper, in C
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(obj, out: List[str], pad: str) -> None:
    """Append the canonical JSON of ``obj``, its line indented by ``pad``, to
    ``out``: a complex value (Python or numpy) as [re, im], any other numpy
    scalar as its ``.item()``; a dict key that is not a str is a TypeError."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_NONFINITE.get(text, text))
    elif isinstance(obj, dict):
        inner, sep = pad + "  ", "{\n" + pad + "  "
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            sep = ",\n" + inner
            _write_json(obj[key], out, inner)
        out.append("\n" + pad + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = pad + "  ", "[\n" + pad + "  "
        for item in obj:
            out.append(sep)
            sep = ",\n" + inner
            _write_json(item, out, inner)
        out.append("\n" + pad + "]" if obj else "[]")
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _write_json([float(obj.real), float(obj.imag)], out, pad)
    elif isinstance(obj, np.generic) and not isinstance(item := obj.item(), np.generic):
        _write_json(item, out, pad)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


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
            "scenario": report.scenario,
            "tasks": [
                {"kind": t.kind, "inputs": t.inputs, "results": t.results, "verdict": t.verdict}
                for t in report.tasks
            ],
            "all_ok": report.all_ok(),
        }
        out: List[str] = []
        _write_json(doc, out, "")
        return ("".join(out) + "\n").encode()
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
                elif isinstance(val, list) and val and all(isinstance(entry, dict) for entry in val):
                    lines.append(f"    {key}:")
                    lines.extend(f"      {_fmt(entry)}" for entry in val)
                else:
                    lines.append(f"    {key}: {_fmt(val)}")
        lines.append("")
        lines.append("ALL PASS" if report.all_ok() else "FAILURES PRESENT")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def _fmt(val):
    """A result value in the text report; complex values and [re, im] as re+imi."""
    if isinstance(val, list) and len(val) == 2 and all(isinstance(x, float) for x in val):
        val = complex(*val)
    if isinstance(val, (complex, np.complexfloating)):
        return f"{val.real:.6g}{val.imag:+.6g}i"
    if isinstance(val, float):
        return f"{val:.6g}"
    if isinstance(val, dict):
        return ", ".join(f"{key}: {_fmt(v)}" for key, v in val.items())
    return "[" + ", ".join(map(_fmt, val)) + "]" if isinstance(val, list) else str(val)


# ---------------------------------------------------------------- dispatch


def run_scenario(
    path: str,
    seed: Optional[int] = None,
    samples: Optional[int] = None,
    threads: int = 1,
) -> VerificationReport:
    """Execute every task of a scenario file, in order.  Every input is
    checked before the first task runs: the schema, the overrides by their
    key's check on every task and on a task of no kind, the instance with its
    metric's positivity certificate, and each task's own polynomials."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    if not _is_int(threads) or threads < 1:
        raise ScenarioError(f"the thread count must be an integer >= 1, got {threads!r}")
    scenario = Scenario.from_dict(doc)
    overrides = {key: v for key, v in (("seed", seed), ("samples", samples)) if v is not None}
    for key, value in overrides.items():
        text, check = TASK_KEYS[key]
        if not all(check(value, task) for task in (*scenario.tasks, {"kind": None})):
            raise ScenarioError(f"the {key} override must be {text}, got {value!r}")
    scenario.parse_polys()
    specs = [KINDS[task["kind"]] for task in scenario.tasks]
    own = [spec.parse(scenario, task) if spec.parse else {} for spec, task in zip(specs, scenario.tasks)]
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
        return [line.terms.get(e, GaussianRational.of(0)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]

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
    """curve_factor f, cofactor u and psi_cofactor phi, with f u = section[0], phi of
    the degree ``psi_cofactor_degree`` gives and, where both are given, f phi = psi."""
    section, psi, _ = scenario.parse_polys()
    f = scenario._parse("curve_factor", task["curve_factor"])
    u = scenario._parse("cofactor", task["cofactor"])
    if not _poly_close(f * u, section[0]):
        raise ScenarioError("curve_factor * cofactor does not reproduce section[0]")
    phi = scenario._parse("psi_cofactor", task["psi_cofactor"]) if "psi_cofactor" in task else None
    try:
        psi_cofactor_degree(f, u, section[1], phi)
    except ResidueError as exc:
        raise ScenarioError(str(exc)) from exc
    if phi is not None and psi is not None and not _poly_close(f * phi, psi):
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
        ok = ok and abs(a.value - b.value) <= 3 * float(np.hypot(a.std_error, b.std_error))
    results = {"samples": n_samples, "estimates": entries}
    if ests and ests[0].nodes:  # the product rule on P^1 and P^2, which draws none of the samples
        results["nodes"] = ests[0].nodes
    return results, ("pass" if ok else "fail")


def _run_local_mass(scenario, opts, threads):
    ctx = scenario.geometry()
    section, psi = ctx.section, ctx.psi
    t, radius, rtol = float(opts["t"]), float(opts["radius"]), float(opts["rtol"])
    n_samples, seed = opts["samples"], opts["seed"]
    ledger = global_residue_sum(section, psi, seed=seed)
    pts = [np.array(p) for p, _ in ledger.entries]
    if any(np.linalg.norm(p - q) <= 2 * radius for p, q in itertools.combinations(pts, 2)):
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
        "pointwise_max": term.pointwise_max,
        "l1_mass": term.l1_mass,
        "metric": scenario.metric_cfg.get("kind"),
    }
    if term.nodes:  # a conic's rule, which draws none of the samples
        results["nodes"] = term.nodes
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
    keys takes its exact route there, and no float section; off the exact
    backend those keys are unknown.  A kind that ``solves`` the section, off
    its exact route, needs the solver's Macaulay matrix at desk scale."""

    run: Callable
    keys: Dict[str, object]
    psi: bool = False
    p2: bool = False
    required: Tuple[str, ...] = ()
    exact_required: Tuple[str, ...] = ()
    parse: Optional[Callable] = None
    solves: bool = False


KINDS = {
    "euler_jacobi": TaskKind(_run_euler_jacobi, {"tol": 1e-8}, psi=True, solves=True),
    "cayley_bacharach": TaskKind(
        _run_cayley_bacharach, {"tol": 1e-8, "lines_f": None, "lines_g": None}, p2=True,
        exact_required=("lines_f", "lines_g"), parse=_parse_lines, solves=True,
    ),
    "generalized_cb": TaskKind(
        _run_generalized_cb, {"tol": 1e-8, "curve_factor": None, "cofactor": None, "psi_cofactor": None}, p2=True,
        required=("curve_factor", "cofactor"), parse=_parse_factors, solves=True,
    ),
    "virtual_residue": TaskKind(_run_virtual_residue, {"t": [1.0], "samples": 50000}, psi=True),
    "local_mass": TaskKind(
        _run_local_mass, {"t": 0.01, "radius": 0.5, "rtol": 0.05, "samples": 50000}, psi=True, solves=True
    ),
    "curve_localization": TaskKind(
        _run_curve_localization, {"samples": 30000, "sigma_l1_frac": 0.02}, psi=True, p2=True
    ),
}


def _texts(table: Dict) -> Dict:
    return {key: text for key, (text, _) in table.items()}


# each table maps a key to its SCENARIO_SCHEMA text and check(value, doc), doc
# being the object that holds the key; a check is true when the value has the
# type and range the text states (the instance's ranges are check_instance's)
TASK_KEYS = {
    "kind": ("one of %s" % (tuple(KINDS),), lambda v, task: v in KINDS),
    "tol": (
        "float >= 0, tolerance (euler_jacobi, cayley_bacharach, generalized_cb)",
        lambda v, task: _nonnegative(v),
    ),
    "t": (
        "non-empty list of floats > 0 (virtual_residue), float > 0 (local_mass)",
        lambda v, task: _positive(v)
        if task["kind"] == "local_mass"
        else isinstance(v, list) and len(v) > 0 and all(map(_positive, v)),
    ),
    "samples": (
        f"int >= 1 (Monte Carlo tasks), >= {SWEEP_MIN_SAMPLES} for virtual_residue",
        lambda v, task: _is_int(v) and v >= (SWEEP_MIN_SAMPLES if task["kind"] == "virtual_residue" else 1),
    ),
    "seed": ("int, 0 <= seed < 2^64", lambda v, task: _is_int(v) and 0 <= v < 2**64),
    "radius": ("float > 0 (local_mass)", lambda v, task: _positive(v)),
    "rtol": (
        "float >= 0, relative tolerance of each ball mass against its local residue (local_mass)",
        lambda v, task: _nonnegative(v),
    ),
    "sigma_l1_frac": (
        "float >= 0, largest std_error / L1 mass accepted (curve_localization, perturbed metric)",
        lambda v, task: _nonnegative(v),
    ),
    **dict.fromkeys(
        ("curve_factor", "cofactor"),
        ("polynomial string (generalized_cb, required)", lambda v, task: isinstance(v, str) and len(v) > 0),
    ),
    "psi_cofactor": ("polynomial string (generalized_cb)", lambda v, task: isinstance(v, str)),
    **dict.fromkeys(
        ("lines_f", "lines_g"),
        ("non-empty list of linear strings (exact-backend cayley_bacharach, required)", lambda v, task: _strings(v)),
    ),
}

# a Fubini-Study metric takes "kind" alone
METRIC_KEYS = {
    "kind": ("'fubini_study' | 'perturbed'", lambda v, metric: v in ("fubini_study", "perturbed")),
    "epsilon": ("float > 0 (perturbed only, required)", lambda v, metric: _is_float(v)),
    "pair": (
        "[a, b] distinct 0-based summand indices (perturbed only)",
        lambda v, metric: isinstance(v, list) and all(map(_is_int, v)),
    ),
    "q": ("polynomial string of degree degrees[b] (perturbed only)", lambda v, metric: isinstance(v, str)),
    "f_index": (
        "0-based summand index whose section cuts the curve (perturbed only, default 0)",
        lambda v, metric: _is_int(v),
    ),
}

DOC_KEYS = {
    "n": ("int, dimension of the projective space (1..4)", lambda v, doc: _is_int(v) and 1 <= v <= 4),
    "degrees": (
        "list of int >= 1, one per bundle summand; length n",
        lambda v, doc: isinstance(v, list) and len(v) == doc["n"] and all(_is_int(d) and d >= 1 for d in v),
    ),
    "section": ("list of n polynomial strings (variables z0..zn)", lambda v, doc: _strings(v) and len(v) == doc["n"]),
    "psi": (
        "polynomial string of degree sum(degrees)-n-1; required by %s tasks"
        % (tuple(kind for kind, spec in KINDS.items() if spec.psi),),
        lambda v, doc: v is None or isinstance(v, str),
    ),
    "metric": ("object of the metric keys", lambda v, doc: isinstance(v, dict)),
    "backend": (
        "'float' | 'exact' (exact runs cayley_bacharach tasks on their line factorizations)",
        lambda v, doc: v in ("float", "exact"),
    ),
    "tasks": ("list of task objects", lambda v, doc: isinstance(v, list)),
}

# the metric and tasks entries show the keys of their own tables
SCENARIO_SCHEMA = {**_texts(DOC_KEYS), "metric": _texts(METRIC_KEYS), "tasks": [_texts(TASK_KEYS)]}
