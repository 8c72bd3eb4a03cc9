"""Seeded generators for the benchmark workloads.

Each workload turns ``(workload, seed)`` into a suite of operations.  An
operation is either a scenario document that goes through the harness, or a
direct call into one library function (the solver, or an oracle).  Every
operation carries the outcome its construction implies, which the correctness
gate in ``gate.py`` compares against.

Instances are drawn from fixed families with a seeded ``random.Random``, so no
instance is hand-picked and inputs do not depend on the numpy version.
Polynomials are built here from Gaussian-integer coefficients with a small
exact arithmetic of their own, so generating inputs uses no code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# Why each workload exists; the same text is recorded in BENCHMARK.json.
WHY = {
    "algebraic": "only workload on the scalar polycore.eval and exact paths: homotopy zeros for "
    "Euler-Jacobi, Cayley-Bacharach and deficient systems; syszero with scalar eval takes most time",
    "global_mc": "the Monte Carlo estimator itself (samples/s against the error bar) for t in "
    "0.05..2 and local masses; batched eval_batch through few-term chart functions",
    "curve": "curve-localized integral on random conics and cubics; Chern curvature through "
    "many-term d/dbar chart functions takes most of the time",
    "oracle": "flat Gaussian mass through the superalg tensor route, and fiber quadrature; "
    "without it superalg goes unmeasured",
}

WORKLOADS = tuple(WHY)

Poly = Dict[Tuple[int, ...], complex]


@dataclass
class Op:
    """One benchmark operation and the outcome its construction implies."""

    kind: str  # "scenario" | "solve" | "flat" | "fiber"
    label: str
    doc: Optional[dict] = None  # scenario document (scenario, fiber)
    expect: Dict = field(default_factory=dict)
    args: Dict = field(default_factory=dict)  # solve: texts, seed; flat/fiber: t, u


# ---------------------------------------------------------------- polynomials


def monomials(nv: int, d: int) -> List[Tuple[int, ...]]:
    if nv == 1:
        return [(d,)]
    return [(k,) + rest for k in range(d, -1, -1) for rest in monomials(nv - 1, d - k)]


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def product(factors: List[Poly]) -> Poly:
    acc = factors[0]
    for f in factors[1:]:
        acc = mul(acc, f)
    return acc


def evaluate(p: Poly, z) -> complex:
    total = 0j
    for e, c in p.items():
        term = complex(c)
        for zi, k in zip(z, e):
            term *= zi**k
        total += term
    return total


def _ratio(p: int, q: int) -> str:
    g = math.gcd(p, q)
    return f"{p // g}" if q == g else f"{p // g}/{q // g}"


def _coeff(c: complex, q: int) -> str:
    re, im = int(c.real), int(c.imag)
    if im == 0:
        return f"({_ratio(re, q)})"
    if re == 0:
        return f"({_ratio(im, q)}i)"
    return f"({_ratio(re, q)}{'+' if im > 0 else '-'}{_ratio(abs(im), q)}i)"


def text(p: Poly, denom: int = 1) -> str:
    """Render p / denom in the scenario grammar; p has Gaussian-integer
    coefficients, so the text is exact."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        mono = "*".join(f"z{k}" + (f"^{m}" if m > 1 else "") for k, m in enumerate(e) if m)
        parts.append(_coeff(p[e], denom) + ("*" + mono if mono else ""))
    return " + ".join(parts)


def gauss_int(rng: random.Random, span: int) -> complex:
    while True:
        c = complex(rng.randint(-span, span), rng.randint(-span, span))
        if c:
            return c


def dense(rng: random.Random, nv: int, d: int, span: int = 4) -> Poly:
    """Dense form: every monomial of degree d with a nonzero coefficient."""
    return {e: gauss_int(rng, span) for e in monomials(nv, d)}


def linear(coeffs) -> Poly:
    nv = len(coeffs)
    return {tuple(int(i == k) for i in range(nv)): complex(c) for k, c in enumerate(coeffs) if c}


def _separated_tenths(rng: random.Random, count: int, radius: int, gap: int) -> List[complex]:
    """Gaussian integers m (standing for the points m/10) with |Re m|, |Im m|
    at most ``radius``, pairwise at least ``gap`` apart."""
    while True:
        pts = [complex(rng.randint(-radius, radius), rng.randint(-radius, radius)) for _ in range(count)]
        if all(abs(p - q) >= gap for i, p in enumerate(pts) for q in pts[i + 1 :]):
            return pts


# ---------------------------------------------------------------- algebraic


def _with_zero_at_infinity(rng: random.Random, forms: List[Poly]) -> List[Poly]:
    """Shift each form's z1^d coefficient so all vanish at one point (0:1:b)."""
    b = complex(rng.randint(-3, 3), rng.randint(-3, 3))
    pt = (0, 1, b) + (0,) * (len(next(iter(forms[0]))) - 3)
    out = []
    for f in forms:
        d = sum(next(iter(f)))
        lead = (0, d) + (0,) * (len(pt) - 2)
        g = dict(f)
        g[lead] = g.get(lead, 0) - evaluate(f, pt)
        out.append({e: c for e, c in g.items() if c})
    return out


def _euler_jacobi(rng, n, degrees, at_infinity=False) -> Op:
    forms = [dense(rng, n + 1, d) for d in degrees]
    if at_infinity:
        forms = _with_zero_at_infinity(rng, forms)
    psi = dense(rng, n + 1, sum(degrees) - n - 1)
    doc = {
        "n": n,
        "degrees": list(degrees),
        "section": [text(f) for f in forms],
        "psi": text(psi),
        "tasks": [{"kind": "euler_jacobi", "tol": 1e-8, "seed": rng.randrange(1 << 16)}],
    }
    verdict = "precondition-failed" if at_infinity else "pass"
    label = f"ej_p{n}_" + "".join(map(str, degrees)) + ("_inf" if at_infinity else "")
    return Op("scenario", label, doc, {"verdict": verdict, "zeros": None if at_infinity else math.prod(degrees)})


def _cb_float(rng, d, e) -> Op:
    doc = {
        "n": 2,
        "degrees": [d, e],
        "section": [text(dense(rng, 3, d)), text(dense(rng, 3, e))],
        "tasks": [{"kind": "cayley_bacharach", "tol": 1e-8, "seed": rng.randrange(1 << 16)}],
    }
    return Op("scenario", f"cb_{d}{e}", doc, {"verdict": "pass", "points": d * e})


def _cb_exact(rng, nf, ng) -> Op:
    """Split-line curves with integer lines; points are the pairwise crossings."""
    while True:
        lf = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(nf)]
        lg = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(ng)]
        pts = []
        for a in lf:
            for b in lg:
                p = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
                g = math.gcd(*p)
                if g:
                    p = tuple(x // g for x in p)
                    if next(x for x in p if x) < 0:
                        p = tuple(-x for x in p)
                pts.append(p)
        if any(not any(p) for p in pts) or len(set(pts)) != len(pts):
            continue  # identical lines or three concurrent lines: not transversal
        if any(not any(line) for line in lf + lg):
            continue
        break
    f = product([linear(a) for a in lf])
    g = product([linear(b) for b in lg])
    doc = {
        "n": 2,
        "degrees": [nf, ng],
        "section": [text(f), text(g)],
        "backend": "exact",
        "tasks": [
            {
                "kind": "cayley_bacharach",
                "lines_f": [text(linear(a)) for a in lf],
                "lines_g": [text(linear(b)) for b in lg],
            }
        ],
    }
    return Op("scenario", f"cbx_{nf}{ng}", doc, {"verdict": "pass", "points": nf * ng})


def _generalized_cb(rng) -> Op:
    f, u, g, phi = dense(rng, 3, 2), dense(rng, 3, 2), dense(rng, 3, 3), dense(rng, 3, 2)
    doc = {
        "n": 2,
        "degrees": [4, 3],
        "section": [text(mul(f, u)), text(g)],
        "psi": text(mul(f, phi)),
        "tasks": [
            {
                "kind": "generalized_cb",
                "tol": 1e-8,
                "seed": rng.randrange(1 << 16),
                "curve_factor": text(f),
                "cofactor": text(u),
                "psi_cofactor": text(phi),
            }
        ],
    }
    return Op("scenario", "gcb_43", doc, {"verdict": "assumed-hypotheses", "curve_points": 6, "isolated_points": 6})


def _deficient(rng, n: int) -> Op:
    """(w0 w1 - c, w0 - a) [and w2 - b on P^3]: one finite zero, the other
    Bezout path escapes to infinity."""
    a = complex(rng.randint(1, 4), rng.randint(-3, 3)) * rng.choice((1, -1))
    c = gauss_int(rng, 4)
    b = gauss_int(rng, 4)
    z = lambda k: linear([int(i == k) for i in range(n + 1)])  # noqa: E731
    forms = [
        {**mul(z(1), z(2)), (2,) + (0,) * n: -c},
        {**z(1), tuple(int(i == 0) for i in range(n + 1)): -a},
    ]
    zero = [a, c / a]
    if n == 3:
        forms.append({**z(3), (1, 0, 0, 0): -b})
        zero.append(b)
    args = {"section": [text(f) for f in forms], "n": n, "seed": rng.randrange(1 << 16)}
    return Op("solve", f"deficient_p{n}", None, {"points": 1, "escaped": 1, "zero": zero}, args)


def algebraic(rng: random.Random, units: int) -> List[Op]:
    """Every unit has the same mix; two Euler-Jacobi (2, 3) systems put the
    median task inside the block of similar ~65 ms tasks."""
    ops: List[Op] = []
    for _ in range(units):
        for n, degs in ((2, (2, 2)), (2, (2, 3)), (2, (2, 3)), (2, (3, 3)), (3, (2, 2, 2))):
            ops.append(_euler_jacobi(rng, n, degs))
        ops.append(_euler_jacobi(rng, 2, (2, 3), at_infinity=True))
        for d, e in ((2, 2), (2, 3), (3, 3)):
            ops.append(_cb_float(rng, d, e))
        ops.append(_cb_exact(rng, 2, 3))
        ops.append(_cb_exact(rng, 3, 3))
        ops.append(_generalized_cb(rng))
        ops.append(_deficient(rng, 2))
        ops.append(_deficient(rng, 3))
    return ops


# ---------------------------------------------------------------- global_mc

SWEEP_T = [0.05, 0.1, 0.5, 1.0, 2.0]


def _split_section(rng: random.Random, n: int, degrees) -> List[Tuple[Poly, int]]:
    """Products of monic lines z_k - (m/10) z_0, m a Gaussian integer, as
    (numerator, denominator) pairs; the zeros are separated by construction."""
    comps = []
    for k, d in enumerate(degrees):
        lines = [linear([-m] + [10 * int(i == k) for i in range(n)]) for m in _separated_tenths(rng, d, 15, 12)]
        comps.append((product(lines), 10**d))
    return comps


def _perturbation(rng, f_l1: float, degrees):
    """Metric perturbation on the pair (0, 1).  eps |f| |q| stays below
    (1 + |w|^2)^((d0 + d1) / 2) when eps < 1 / (|f|_1 |q|_1), so the metric
    stays positive."""
    q = dense(rng, 3, degrees[1], span=2)
    eps = round(rng.uniform(0.15, 0.3) / (f_l1 * sum(abs(c) for c in q.values())), 6)
    return {"kind": "perturbed", "epsilon": eps, "pair": [0, 1], "q": text(q), "f_index": 0}


def _local_mass(rng: random.Random) -> Op:
    """P^1, degree 2, constant psi.  Both zeros satisfy
    |ds|_FS = |a1 - a2| / (1 + |a|^2) >= 0.9, so at t = 0.01 the Gaussian peak
    (width sqrt(2t) / |ds|_FS) sits well inside the radius-0.5 ball and the
    ball mass equals the local residue far below the Monte Carlo error."""
    while True:
        ms = _separated_tenths(rng, 2, 12, 10)
        gap = abs(ms[0] - ms[1]) / 10
        if all(gap / (1 + abs(m / 10) ** 2) >= 0.9 for m in ms):
            break
    lines = [linear([-m, 10]) for m in ms]
    doc = {
        "n": 1,
        "degrees": [2],
        "section": [text(product(lines), 100)],
        "psi": text({(0, 0): gauss_int(rng, 2)}),
        "tasks": [
            {"kind": "local_mass", "t": 0.01, "radius": 0.5, "rtol": 0.05, "samples": 120000,
             "seed": rng.randrange(1 << 16)}
        ],
    }
    return Op("scenario", "lm_p1", doc, {"verdict": "pass", "zeros": 2})


def _virtual_residue(rng: random.Random, degrees, perturbed: bool) -> Op:
    n = len(degrees)
    comps = _split_section(rng, n, degrees)
    metric = {"kind": "fubini_study"}
    if perturbed:
        f, denom = comps[0]
        metric = _perturbation(rng, sum(abs(c) for c in f.values()) / denom, degrees)
    doc = {
        "n": n,
        "degrees": degrees,
        "section": [text(c, denom) for c, denom in comps],
        "psi": text(dense(rng, n + 1, sum(degrees) - n - 1, span=2)),
        "metric": metric,
        "tasks": [{"kind": "virtual_residue", "t": SWEEP_T, "samples": 40000, "seed": rng.randrange(1 << 16)}],
    }
    return Op("scenario", f"vr_p{n}_{metric['kind']}", doc, {"verdict": "pass"})


def global_mc(rng: random.Random, units: int) -> List[Op]:
    """Every unit has the same mix; the median task falls among the P^2
    Fubini-Study sweeps, the tail among the perturbed ones."""
    ops: List[Op] = []
    for _ in range(units):
        ops.append(_virtual_residue(rng, [3], False))
        ops += [_virtual_residue(rng, [2, 3], False) for _ in range(3)]
        ops += [_virtual_residue(rng, [2, 2], True) for _ in range(2)]
        ops.append(_local_mass(rng))
    return ops


# ---------------------------------------------------------------- curve


def _curve_doc(rng: random.Random, d: int, perturbed: bool, samples: int) -> dict:
    """Section (f, 0) of O(d) + O(2) on P^2."""
    f = dense(rng, 3, d, span=3)  # smooth with probability one; the harness certifies it
    psi = dense(rng, 3, d + 2 - 3, span=2)
    metric = {"kind": "fubini_study"}
    if perturbed:
        metric = _perturbation(rng, sum(abs(c) for c in f.values()), [d, 2])
    return {
        "n": 2,
        "degrees": [d, 2],
        "section": [text(f), "0"],
        "psi": text(psi),
        "metric": metric,
        "tasks": [{"kind": "curve_localization", "samples": samples, "sigma_l1_frac": 0.02,
                   "seed": rng.randrange(1 << 16)}],
    }


def curve(rng: random.Random, units: int) -> List[Op]:
    """Perturbed metrics carry most of the time; conics need more samples than
    cubics to meet sigma/L1 <= 0.02.  The Fubini-Study term vanishes pointwise,
    so those operations need few samples; there are enough of them for the
    per-task statistics, and the median and the tail both fall among the
    Fubini-Study cubics.  Units alternate a perturbed conic and cubic."""
    ops = []
    for k in range(units):
        mix = ((2, True, 40000, 1 - k % 2), (3, True, 20000, k % 2), (2, False, 2000, 4), (3, False, 2000, 10))
        for d, perturbed, samples, count in mix:
            for _ in range(count):
                doc = _curve_doc(rng, d, perturbed, samples)
                ops.append(Op("scenario", f"curve_{d}_{doc['metric']['kind']}", doc, {"verdict": "pass"}))
    return ops


# ---------------------------------------------------------------- oracle


def oracle(rng: random.Random, units: int) -> List[Op]:
    """The cost of a flat Gaussian mass depends on t, so t is stratified over
    [0.05, 2] across the units (log scale) rather than drawn freely.  The
    median task falls among the perturbed cubic fibers, the tail among the
    flat masses."""
    ops = []
    for k in range(units):
        for j in range(2):
            t = round(0.05 * 40 ** ((2 * k + j + rng.random()) / (2 * units)), 4)
            ops.append(Op("flat", "flat_gaussian", None, {}, {"t": t}))
        for d, perturbed, count in ((2, False, 1), (3, False, 1), (2, True, 1), (3, True, 6)):
            doc = _curve_doc(rng, d, perturbed, 5000)
            for _ in range(count):
                u = complex(rng.randint(-100, 100), rng.randint(-100, 100)) / 100
                ops.append(Op("fiber", f"fiber_{d}_{doc['metric']['kind']}", doc, {}, {"u": u, "t": 1e-3, "sheets": d}))
    return ops


GENERATORS = {"algebraic": algebraic, "global_mc": global_mc, "curve": curve, "oracle": oracle}

# Measured seconds one unit of each workload's mix takes on the 2-vCPU x86-64
# host the benchmark was built on (Python 3.11, numpy 2.4, one BLAS thread), at
# its typical speed; a run of --seconds S holds round(S / UNIT_SECONDS) units,
# at least one.
UNIT_SECONDS = {"algebraic": 1.4, "global_mc": 1.95, "curve": 7.0, "oracle": 2.0}


def generate(workload: str, seed: int, seconds: float) -> List[Op]:
    """The workload's operation suite for one seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](rng, max(1, round(seconds / UNIT_SECONDS[workload])))
    rng.shuffle(ops)
    return ops
