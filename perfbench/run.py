#!/usr/bin/env python3
"""residue-lab benchmark: seeded workloads, correctness gate, metrics.

    python3 perfbench/run.py --workload {algebraic,global_mc,curve,oracle}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  One run:

1. set-up (timed as ``setup_s``, the median of several cold set-ups, each in
   a fresh interpreter): import numpy and residue_lab, parse every generated
   scenario, build each GeometryContext (with its positivity certificate),
   the chart data the oracles reuse, and numpy's first linear-algebra calls;
2. the timed phase: a closed loop with one caller runs the seeded suite once,
   in order, single-threaded, each scenario through ``harness.run_scenario``
   and ``emit_report(..., "json")`` as ``residue-lab verify`` does;
3. a determinism check after the timed phase (and after ``peak_rss_mb`` is
   read): one instance of the workload must give byte-identical canonical
   JSON at threads=1 and at threads=nproc;
4. the correctness gate (``gate.py``) over every output;
5. with ``--trace 1``, the suite again with every public library function
   wrapped in a span (``spans.py``); its per-layer metrics are printed with
   the tracing overhead, and the spans are written to
   ``perfbench/out/spans-<workload>.npz``.

Times are reported in seconds on the reference machine: each measured time
is scaled by the host's speed, measured alongside the work by a fixed
reference kernel (see ``HostClock``); the measured values are kept in the
``info`` line.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The suite holds
about ``--seconds`` of measured work at the build host's typical speed (see
``workloads.UNIT_SECONDS``).
"""

import argparse
import importlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# BLAS and OpenMP are pinned to one thread before numpy is first imported
# (in load_library); child processes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3  # cold set-ups per run: this process and two children
REF_SHARE = 0.1  # reference work timed after each operation, as a share of its time
REF_NOMINAL_S = 7.5e-5  # one reference_kernel call on the reference machine (see HostClock)
REF_MIN_S = 0.005  # least reference work per sample
REF_WINDOW = 2  # reference samples on each side of an operation that scale it
SETUP_REF_S = 0.1  # reference work timed after each set-up
DET_SAMPLES = 20000  # more than one 16384-sample chunk, so threads split the work
MODULES = ("polycore", "chartfun", "projgeom", "syszero", "residue", "localize", "superalg", "harness")
WORK_UNIT = {"algebraic": "systems", "global_mc": "samples", "curve": "samples", "oracle": "points"}


def load_library():
    sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(np=importlib.import_module("numpy"))
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"residue_lab.{name}"))
    return lib


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


class Prepared:
    """An operation with its inputs parsed; ``run`` looks the library function
    up at call time, so the tracer's wrappers take effect."""

    def __init__(self, op, index, lib, workdir, geos):
        self.op = op
        self.work = 1.0
        kind = op.kind
        if kind == "scenario":
            self.path = str(workdir / f"{index:04d}-{op.label}.json")
            scenario = lib.harness.Scenario.from_dict(op.doc)
            scenario.parse_polys()
            scenario.geometry()
            task = op.doc["tasks"][0]
            if "samples" in task:
                self.work = task["samples"] * op.expect.get("zeros", 1)
            self.run = lambda: lib.harness.emit_report(lib.harness.run_scenario(self.path, threads=1), "json")
        elif kind == "solve":
            nv = op.args["n"] + 1
            polys = [lib.polycore.parse_poly(s, nv).dehomogenize(0) for s in op.args["section"]]
            seed = op.args["seed"]
            self.run = lambda: lib.syszero.solve_square_system(polys, seed=seed)
        elif kind == "flat":
            fn = lib.localize.flat_gaussian_mass
            self.work = _default(fn, "radial_nodes") * _default(fn, "angular_nodes")
            t = op.args["t"]
            self.run = lambda: lib.localize.flat_gaussian_mass(t)
        elif kind == "fiber":
            key = id(op.doc)
            if key not in geos:
                ctx = lib.harness.Scenario.from_dict(op.doc).geometry()
                ctx.chart_data(0)
                geos[key] = lib.projgeom.Example22Geometry(ctx)
            geo = geos[key]
            fn = lib.localize.fiber_mass_quadrature
            self.work = _default(fn, "radial_nodes") * _default(fn, "angular_nodes") * op.args["sheets"]
            u, t = op.args["u"], op.args["t"]
            self.run = lambda: lib.localize.fiber_mass_quadrature(geo, u, t)
        else:
            raise ValueError(f"unknown operation kind {kind!r}")


def warm_up(lib):
    """numpy's first calls of the linear algebra and quadrature routines."""
    np = lib.np
    a = np.eye(2, dtype=complex) + 0.5
    np.linalg.solve(a, np.ones(2))
    np.linalg.det(a)
    np.linalg.inv(a[None])
    np.linalg.eigvals(a[None])
    np.linalg.eigvalsh(a)
    np.linalg.svd(a)
    np.linalg.qr(a)
    np.linalg.cond(a)
    np.roots([1.0, 0.0, -1.0])
    np.polynomial.legendre.leggauss(4)


def set_up(args, workdir):
    """Import, generate, parse and build; returns (lib, prepared ops, set-up
    seconds on the reference machine).  Generating and writing the documents
    is not timed: it is the benchmark's work, not the program's."""
    t0 = time.perf_counter()
    lib = load_library()
    import_s = time.perf_counter() - t0
    ops = workloads.generate(args.workload, args.seed, args.seconds)
    workdir.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        if op.kind == "scenario":
            (workdir / f"{i:04d}-{op.label}.json").write_text(json.dumps(op.doc))
    t1 = time.perf_counter()
    geos = {}
    prepared = [Prepared(op, i, lib, workdir, geos) for i, op in enumerate(ops)]
    warm_up(lib)
    measured = import_s + time.perf_counter() - t1
    clock = HostClock(lib.np)
    clock.sample(SETUP_REF_S)
    return lib, prepared, measured * clock.factor


def child_set_up(args):
    cmd = [
        sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def determinism_check(lib, prepared, workdir):
    """Canonical JSON of one instance at threads=1 and threads=nproc.  The
    instance is the first of the alphabetically first unperturbed family, so
    every seed checks the same kind of document."""
    nproc = len(os.sched_getaffinity(0))
    docs = [p.op for p in prepared if p.op.doc is not None and "perturbed" not in p.op.label]
    if not docs:
        return True, nproc
    doc = min(docs, key=lambda op: op.label).doc
    path = workdir / "determinism.json"
    path.write_text(json.dumps(doc))
    samples = DET_SAMPLES if "samples" in doc["tasks"][0] else None
    runs = [
        lib.harness.emit_report(lib.harness.run_scenario(str(path), samples=samples, threads=k), "json")
        for k in (1, nproc)
    ]
    return runs[0] == runs[1], nproc


def reference_kernel(z):
    """Fixed work in the program's two styles: scalar complex arithmetic in
    the interpreter (as polycore.eval) and batched complex arithmetic in numpy
    (as eval_batch)."""
    acc, w = 0j, 0.3 + 0.4j
    for _ in range(500):
        acc = acc * w + 1.0
    return acc + complex((z**3 * z.conj()).sum())


class HostClock:
    """The host's speed relative to the reference machine.

    The shared host this benchmark was built on runs the same fixed CPU work
    up to 25% slower or faster from one 15-second window to the next, and
    within a window too.  ``reference_kernel`` is timed right before and
    right after each operation (for about a tenth of the operation's time);
    its speed there against ``REF_NOMINAL_S`` gives the host's speed during
    the operation, and each measured time is reported as the seconds it would
    have taken on the reference machine: this 2-vCPU x86-64 host in its fast
    state, where one ``reference_kernel`` call takes ``REF_NOMINAL_S``.
    """

    def __init__(self, np):
        self.z = np.linspace(0.0, 1.0, 4096) * (1 + 1j)
        self.calls = 0
        self.seconds = 0.0

    def sample(self, seconds: float):
        """Time about ``seconds`` of reference work; returns (calls, seconds)."""
        n = max(1, round(max(seconds, REF_MIN_S) / REF_NOMINAL_S))
        t0 = time.perf_counter()
        for _ in range(n):
            reference_kernel(self.z)
        took = time.perf_counter() - t0
        self.calls += n
        self.seconds += took
        return n, took

    @property
    def factor(self) -> float:
        """Nominal over measured reference time; below 1 on a slow host."""
        return self.calls * REF_NOMINAL_S / self.seconds


def run_suite(prepared, clock, around=None):
    """Run every operation once, in order; returns (outputs, errors, seconds
    per operation on the reference machine, measured seconds).  Operation i
    is scaled by the host speed over the reference samples nearest to it:
    ``REF_WINDOW`` before it and as many after it."""
    outputs, errors, measured = [], [], []
    samples = [clock.sample(REF_MIN_S)]
    for i, p in enumerate(prepared):
        t0 = time.perf_counter()
        try:
            out, err = (p.run() if around is None else around(i, p.run)), None
        except Exception as exc:  # an operation that raises is a counted failure
            out, err = None, exc
        measured.append(time.perf_counter() - t0)
        samples.append(clock.sample(REF_SHARE * measured[-1]))
        outputs.append(out)
        errors.append(err)
    seconds = []
    for i, took in enumerate(measured):
        near = samples[max(0, i + 1 - REF_WINDOW) : i + 1 + REF_WINDOW]
        seconds.append(took * sum(n for n, _ in near) * REF_NOMINAL_S / sum(s for _, s in near))
    return outputs, errors, seconds, measured


# ---------------------------------------------------------------- metrics


def tail(seconds):
    """Highest percentile with at least ten tasks beyond it: the (N-10)-th
    smallest time; returns (value, percentile, task count)."""
    ordered = sorted(seconds)
    n = len(ordered)
    k = max(n - 10, 1)
    return ordered[k - 1], 100.0 * k / n, n


def geomean(values):
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def estimator_merit(prepared, outputs, seconds):
    """std_error^2 x task seconds per estimate (global_mc), and
    (std_error / L1)^2 x seconds per perturbed curve term (curve)."""
    small, large, curve = [], [], []
    for p, out, sec in zip(prepared, outputs, seconds):
        if p.op.kind != "scenario" or out is None:
            continue
        task = json.loads(out)["tasks"][0]
        res = task["results"]
        if task["kind"] == "virtual_residue":
            for est in res["estimates"]:
                (small if est["t"] <= 0.1 else large).append(est["std_error"] ** 2 * sec)
        elif task["kind"] == "local_mass":
            small.extend(m["std_error"] ** 2 * sec for m in res["masses"])
        elif task["kind"] == "curve_localization" and res["l1_mass"] > 0:
            curve.append((res["std_error"] / res["l1_mass"]) ** 2 * sec)
    return {
        "var_x_s.small_t": geomean(small),
        "var_x_s.large_t": geomean(large),
        "rel_var_x_s.curve": geomean(curve),
    }


def machine_info(lib, args, nproc):
    np = lib.np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "threads": 1,
        "machine": platform.machine(),
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("us_per_point", "us"), ("ms_per_path", "ms"), ("_ratio", "1"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "s" if "var_x_s" in name else "count"


def traced_pass(lib, prepared, wall, outputs, errors):
    """The suite again under the tracer; returns (per-layer metrics, whether
    every output equals the untraced one, tracer).  Times are scaled to the
    reference machine like the untraced ones."""
    import spans

    tracer = spans.Tracer()
    spans.instrument(tracer, lib)

    def around(i, run):
        tracer.current_task = i
        return tracer.span("op", run)

    clock = HostClock(lib.np)
    try:
        traced, traced_errors, seconds, _ = run_suite(prepared, clock, around)
    finally:
        tracer.unpatch()
    identical = traced == outputs and [e is None for e in traced_errors] == [e is None for e in errors]
    scale = {"s": clock.factor, "ms": clock.factor, "us": clock.factor}
    metrics = {name: val * scale.get(layer_unit(name), 1.0) for name, val in spans.per_layer(tracer).items()}
    traced_wall = sum(seconds)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - wall
    metrics["trace.overhead_ratio"] = (traced_wall - wall) / wall
    metrics["trace.spans"] = len(tracer.start)
    return metrics, identical, tracer


def report_rows(workload, e2e, merit, fail_ratio):
    """Every end-to-end metric of the report, with its unit; None where the
    metric does not apply to the workload.  The workload's own work rate is
    ``work_per_s`` under its specific name."""
    rate = e2e["work_per_s"][0]
    only = lambda *names: workload in names  # noqa: E731
    rows = [(name, e2e[name][0], e2e[name][1]) for name in ("setup_s", "wall_s", "task_p50_s", "task_tail_s")]
    rows += [
        ("systems_per_s", rate if only("algebraic") else None, "1/s"),
        ("samples_per_s", rate if only("global_mc", "curve") else None, "1/s"),
        ("var_x_s.small_t", merit["var_x_s.small_t"] if only("global_mc") else None, "s"),
        ("var_x_s.large_t", merit["var_x_s.large_t"] if only("global_mc") else None, "s"),
        ("rel_var_x_s.curve", merit["rel_var_x_s.curve"] if only("curve") else None, "s"),
        ("oracle_points_per_s", rate if only("oracle") else None, "1/s"),
        ("fail_ratio", fail_ratio, "1"),
        ("peak_rss_mb", e2e["peak_rss_mb"][0], "MB"),
    ]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "residue_lab" / "__init__.py").is_file():
        print(f"residue_lab sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / str(os.getpid())
    try:
        lib, prepared, own_setup = set_up(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        setups = [own_setup] + [child_set_up(args) for _ in range(SETUP_REPEATS - 1)]

        clock = HostClock(lib.np)
        outputs, errors, seconds, measured = run_suite(prepared, clock)
        wall = sum(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        deterministic, nproc = determinism_check(lib, prepared, workdir)

        reasons = [gate.check(p.op, out, err) for p, out, err in zip(prepared, outputs, errors)]
        attempted, failed = len(prepared), sum(1 for r in reasons if r)
        tail_s, tail_pct, tasks = tail(seconds)
        merit = estimator_merit(prepared, outputs, seconds)
        e2e = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "task_p50_s": (statistics.median(seconds), "s"),
            "task_tail_s": (tail_s, "s"),
            "work_per_s": (sum(p.work for p in prepared) / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        info = machine_info(lib, args, nproc)
        info.update(
            host_factor=clock.factor,
            wall_measured_s=sum(measured),
            setup_samples_s=setups,
            task_tail_percentile=tail_pct,
            tasks=tasks,
            work_unit=WORK_UNIT[args.workload],
            mc_verdict_misses=sum(
                1 for p, out in zip(prepared, outputs)
                if p.op.kind == "scenario" and out is not None and gate.mc_verdict_miss(out)
            ),
            deterministic_across_threads=deterministic,
        )
        correct = deterministic
        if args.trace:
            metrics, identical, tracer = traced_pass(lib, prepared, wall, outputs, errors)
            metrics.update({f"localize.{k}": v for k, v in merit.items()})
            metrics = {name: (val, layer_unit(name)) for name, val in metrics.items()}
            correct = correct and identical
            info["traced_outputs_identical"] = identical
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(str(out_dir / f"spans-{args.workload}.npz"))
        else:
            metrics = e2e

        print(f"residue-lab benchmark  workload={args.workload} seed={args.seed}")
        for name, val, unit in report_rows(args.workload, e2e, merit, failed / attempted):
            shown = "n/a" if val is None else f"{val:.6g}"
            print(f"  {name:<22} {shown:>14} {unit}")
        print(f"  task_tail_s is the p{tail_pct:.1f} of {tasks} tasks; work_per_s counts {WORK_UNIT[args.workload]}")
        by_label = {}
        for p, sec in zip(prepared, seconds):
            by_label.setdefault(p.op.label, []).append(sec)
        for label, secs in sorted(by_label.items()):
            print(f"  {label:<22} {len(secs):>4} tasks, median {statistics.median(secs):.4f} s, total {sum(secs):.2f} s")
        for p, r in zip(prepared, reasons):
            if r:
                print(f"  FAILED {p.op.label}: {'; '.join(r)}")
        if args.trace:
            for name, (val, unit) in metrics.items():
                print(f"  {name:<32} {val:>14.6g} {unit}")
        print("info " + json.dumps(info, sort_keys=True))
        result = {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(val), "unit": unit} for name, (val, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
