"""In-memory span tracing of the library's public functions.

The tracer wraps public functions and methods of each residue_lab module from
outside (the library itself is unchanged) and records one span per call:
name, start, end, parent span and task (benchmark operation).  Spans live in
compact arrays and are written out once, at the end of the run.

A span's self time is its duration minus the part covered by its child spans.
Calls run on one thread, so children are disjoint and nested inside their
parent, and the covered part is the sum of the children's durations; it is
accumulated while the spans close.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

Counter = Callable[[tuple, dict, object], Dict[str, float]]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task = array("q")
        self.current_task = -1
        self._stack: List[List] = []  # [span id, start, covered by children]
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.task.append(self.current_task)
        self.end.append(0.0)
        now = time.perf_counter()
        self.start.append(now)
        self._stack.append([sid, now, 0.0])

    def _close(self, name: str) -> None:
        now = time.perf_counter()
        sid, start, covered = self._stack.pop()
        self.end[sid] = now
        dur = now - start
        if self._stack:
            self._stack[-1][2] += dur
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - covered

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of its own."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name)

    def wrap(self, name: str, fn: Callable, counter: Optional[Counter] = None) -> Callable:
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    self.counts[key] += val
            return result

        return traced

    # ------------------------------------------------------------ patching

    def patch(self, package: str, owner, attr: str, name: str, counter: Optional[Counter] = None):
        """Replace owner.attr by a traced wrapper.  A module-level function is
        also replaced wherever another module of the package imported it by
        name, so calls between modules are traced too."""
        original = getattr(owner, attr)
        traced = self.wrap(name, original, counter)
        targets = [owner]
        if inspect.ismodule(owner):
            targets = [
                mod
                for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == package or key.startswith(package + "."))
                and getattr(mod, attr, None) is original
            ]
        for target in targets:
            self._patches.append((target, attr, original, attr in vars(target)))
            setattr(target, attr, traced)

    def unpatch(self) -> None:
        for target, attr, original, own in reversed(self._patches):
            if own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._patches.clear()

    # ------------------------------------------------------------ output

    def write(self, path: str) -> None:
        """All spans as parallel arrays (name ids index ``names``)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            task=np.frombuffer(self.task, dtype=np.int64),
        )


# ---------------------------------------------------------------- library


def _rows(args, kwargs, result):
    return {"polycore.eval_batch.rows": len(args[1])}


def _chartfun(args, kwargs, result):
    return {"chartfun.eval_batch.term_rows": len(args[0].terms) * len(args[1])}


def _curvature(args, kwargs, result):
    return {"projgeom.curvature.points": len(args[2])}


def _solve(args, kwargs, result):
    return {
        "syszero.paths": result.bezout_count,
        "syszero.escaped": result.missing_paths,
        "syszero.defective": result.defective,
        "syszero.zeros": len(result.points),
    }


def _samples(args, kwargs, result):
    if isinstance(result, list):  # virtual_residue_sweep: one estimate per t
        result = result[0]
    return {"localize.samples": result.samples, "localize.rejected": getattr(result, "rejected", 0)}


def instrument(tracer: Tracer, lib) -> None:
    """Wrap the public functions each per-layer metric is measured at."""
    pkg = "residue_lab"
    p = tracer.patch
    for cls in (lib.polycore.AffinePoly, lib.polycore.HomogeneousPoly):
        p(pkg, cls, "eval", "polycore.eval")
    p(pkg, lib.polycore.AffinePoly, "eval_batch", "polycore.eval_batch", _rows)
    p(pkg, lib.polycore, "parse_poly", "polycore.parse")
    p(pkg, lib.chartfun.ChartFunction, "eval_batch", "chartfun.eval_batch", _chartfun)
    ctx = lib.projgeom.GeometryContext
    p(pkg, ctx, "chern_curvature_batch", "projgeom.curvature", _curvature)
    p(pkg, ctx, "__init__", "projgeom.context")
    p(pkg, ctx, "chart_data", "projgeom.context")
    p(pkg, lib.projgeom, "fs_uniform_points", "projgeom.fs_sample")
    p(pkg, lib.syszero, "solve_square_system", "syszero.solve", _solve)
    p(pkg, lib.residue, "global_residue_sum", "residue.ledger")
    p(pkg, lib.residue, "cayley_bacharach_verify", "residue.cb_float")
    p(pkg, lib.residue, "cb_vanishing_space_exact", "residue.cb_exact")
    p(pkg, lib.residue, "cb_vanishing_space", "residue.nullspace")
    p(pkg, lib.residue, "generalized_cb_check", "residue.generalized_cb")
    for fn in ("virtual_residue_sweep", "local_mass", "curve_localized_term"):
        p(pkg, lib.localize, fn, "localize", _samples)
    for fn in ("flat_gaussian_mass", "fiber_mass_quadrature"):
        p(pkg, lib.localize, fn, "localize.quadrature")
    p(pkg, lib.superalg, "exp_S", "superalg.exp_S")
    p(pkg, lib.superalg, "top_pairing", "superalg.top_pairing")
    p(pkg, lib.harness, "run_scenario", "harness.run_scenario")
    p(pkg, lib.harness.Scenario, "parse_polys", "harness.parse_polys")
    p(pkg, lib.harness, "emit_report", "harness.emit")


def per_layer(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from one traced pass.  Each tensor-route integrand
    point makes one top_pairing call."""
    t, s, c, k = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    paths = k["syszero.paths"]
    samples, rejected = k["localize.samples"], k["localize.rejected"]
    superalg = [n for n in t if n.startswith("superalg.")]
    return {
        "polycore.eval.calls": c["polycore.eval"],
        "polycore.eval.self_s": s["polycore.eval"],
        "polycore.eval_batch.rows": k["polycore.eval_batch.rows"],
        "polycore.eval_batch.self_s": s["polycore.eval_batch"],
        "polycore.parse.self_s": s["polycore.parse"],
        "chartfun.eval_batch.calls": c["chartfun.eval_batch"],
        "chartfun.eval_batch.term_rows": k["chartfun.eval_batch.term_rows"],
        "chartfun.eval_batch.self_s": s["chartfun.eval_batch"],
        "projgeom.curvature.points": k["projgeom.curvature.points"],
        "projgeom.curvature.self_s": s["projgeom.curvature"],
        "projgeom.curvature.total_s": t["projgeom.curvature"],
        "projgeom.curvature.us_per_point": ratio(t["projgeom.curvature"], k["projgeom.curvature.points"], 1e6),
        "projgeom.context.self_s": s["projgeom.context"],
        "projgeom.fs_sample.self_s": s["projgeom.fs_sample"],
        "syszero.solve.calls": c["syszero.solve"],
        "syszero.paths": paths,
        "syszero.escaped": k["syszero.escaped"],
        "syszero.defective": k["syszero.defective"],
        "syszero.solve.self_s": s["syszero.solve"],
        "syszero.solve.total_s": t["syszero.solve"],
        "syszero.ms_per_path": ratio(t["syszero.solve"], paths, 1e3),
        "syszero.useful_ratio": ratio(k["syszero.zeros"], paths),
        "residue.ledger.self_s": s["residue.ledger"],
        "residue.cb_float.self_s": s["residue.cb_float"],
        "residue.cb_exact.self_s": s["residue.cb_exact"],
        "residue.nullspace.calls": c["residue.nullspace"],
        "localize.samples": samples,
        "localize.self_s": s["localize"],
        "localize.rejected": rejected,
        "localize.accept_ratio": ratio(samples, samples + rejected),
        "localize.quadrature.self_s": s["localize.quadrature"],
        "superalg.top_pairing.calls": c["superalg.top_pairing"],
        "superalg.self_s": sum(s[n] for n in superalg),
        "superalg.us_per_point": ratio(sum(t[n] for n in superalg), c["superalg.top_pairing"], 1e6),
        "harness.run_scenario.self_s": s["harness.run_scenario"],
        "harness.parse_polys.calls": c["harness.parse_polys"],
        "harness.emit.self_s": s["harness.emit"],
    }
