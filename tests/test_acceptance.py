"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Tolerances and runtime budgets are pinned here; nothing is
deferred to later calibration.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np

from residue_lab.harness import emit_report, run_scenario
from residue_lab.localize import (
    curve_localized_term,
    flat_gaussian_mass,
    global_density,
    local_mass,
    virtual_residue_sweep,
)
from residue_lab.polycore import GaussianRational, HomogeneousPoly, monomials_of_degree, parse_poly
from residue_lab.projgeom import (
    Example22Geometry,
    GeometryContext,
    MetricSpec,
    chart_coords,
    transition_jacobian,
)
from residue_lab.residue import (
    _normalized_eval,
    cayley_bacharach_verify,
    cb_vanishing_space,
    cb_vanishing_space_exact,
    global_residue_sum,
)
from residue_lab.superalg import SForm, SuperTensor, contract, dual_pair, exp_S, wedge
from residue_lab.syszero import solve_square_system

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  {detail}  [{elapsed:.1f} s / budget {budget:.0f} s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def random_form(nv, deg, rng):
    terms = {
        e: complex(rng.standard_normal(), rng.standard_normal())
        for e in monomials_of_degree(nv, deg)
    }
    return HomogeneousPoly(nv, deg, terms)


def p1_o2_context():
    return GeometryContext(
        (2,),
        (parse_poly("z1^2 - z0^2", 2),),
        MetricSpec(),
        parse_poly("1", 2),
    )


def p2_22_context():
    return GeometryContext(
        (2, 2),
        (parse_poly("z1^2 - z0^2", 3), parse_poly("z2^2 - z0^2", 3)),
        MetricSpec(),
        parse_poly("z0", 3),
    )


def example22_context(eps):
    f = parse_poly("z1^2 + z2^2 - z0^2", 3)
    section = (f, HomogeneousPoly(3, 2, {}))
    psi = parse_poly("z0 + 1/2*z1", 3)
    if eps == 0:
        ms = MetricSpec()
    else:
        ms = MetricSpec(
            "perturbed", epsilon=eps, pair=(0, 1),
            q=parse_poly("z0^2 + 2*z1*z2 - z2^2", 3), f_index=0,
        )
    return GeometryContext((2, 2), section, ms, psi)


# -------------------------------------------------------------- criterion 1


def test_criterion_1_normalization_oracle():
    t0 = time.perf_counter()
    errs = [abs(flat_gaussian_mass(t) - 1.0) for t in (0.1, 1.0)]
    elapsed = time.perf_counter() - t0
    ok = all(e <= 0.01 for e in errs)
    report(1, "normalization oracle", ok, f"flat Gaussian mass errors {[f'{e:.2e}' for e in errs]}", elapsed, 1.0)


# -------------------------------------------------------------- criterion 2


def test_criterion_2_euler_jacobi():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    degree_choices = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = 0.0
    neg_hits = 0
    trials = 0
    for k in range(20):
        if k < 14:
            n = 2
            degs = degree_choices[k % 4]
        else:
            n = 3
            degs = (2, 2, 2)
        nv = n + 1
        section = [random_form(nv, d, rng) for d in degs]
        psi = random_form(nv, sum(degs) - n - 1, rng)
        ledger = global_residue_sum(section, psi, seed=1000 + k)
        worst = max(worst, ledger.relative_vanishing)
        # negative control: numerator degree one above the critical line
        psi_bad = random_form(nv, sum(degs) - n, rng)
        bad = global_residue_sum(section, psi_bad, seed=1000 + k)
        if bad.relative_vanishing > 1e-3:
            neg_hits += 1
        trials += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and neg_hits >= 18
    report(
        2,
        "Euler-Jacobi vanishing",
        ok,
        f"worst relative vanishing {worst:.2e}; negative control {neg_hits}/{trials} above 1e-3",
        elapsed,
        120.0,
    )


# -------------------------------------------------------------- criterion 3


def rational_lines_instance(rng, d, e):
    def line():
        coeffs = [GaussianRational.of(int(rng.integers(-9, 10)), int(rng.integers(-9, 10))) for _ in range(3)]
        if not any(coeffs):
            coeffs[0] = GaussianRational.of(1)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                ee = [0, 0, 0]
                ee[i] = 1
                terms[tuple(ee)] = c
        return HomogeneousPoly(3, 1, terms)

    while True:
        lf = [line() for _ in range(d)]
        lg = [line() for _ in range(e)]
        pts = []
        for a in lf:
            for b in lg:
                ca = [a.terms.get(tuple(int(i == k) for i in range(3)), GaussianRational.of(0)) for k in range(3)]
                cb = [b.terms.get(tuple(int(i == k) for i in range(3)), GaussianRational.of(0)) for k in range(3)]
                pts.append(
                    (
                        ca[1] * cb[2] - ca[2] * cb[1],
                        ca[2] * cb[0] - ca[0] * cb[2],
                        ca[0] * cb[1] - ca[1] * cb[0],
                    )
                )
        if all(any(c for c in p) for p in pts) and len({tuple(str(c) for c in p) for p in pts}) == d * e:
            return pts


def test_criterion_3_cayley_bacharach():
    t0 = time.perf_counter()
    rng = np.random.default_rng(333)
    pairs = [(2, 2), (2, 3), (3, 3)]
    worst = 0.0
    for k in range(50):
        d, e = pairs[k % 3]
        rep = cayley_bacharach_verify(random_form(3, d, rng), random_form(3, e, rng), seed=3000 + k)
        worst = max(worst, rep.max_residual)
    # exact path on rational split-line instances: identically zero
    exact_ok = True
    for k in range(6):
        d, e = [(2, 3), (3, 3)][k % 2]
        pts = rational_lines_instance(rng, d, e)
        basis = cb_vanishing_space_exact(pts[:-1], d + e - 3)
        exact_ok = exact_ok and len(basis) >= 1
        for form in basis:
            if form.eval(list(pts[-1])):
                exact_ok = False
    # negative control on pairs with a nonvacuous interpolation space
    neg_hits = 0
    for k in range(50):
        d, e = [(2, 3), (3, 3)][k % 2]
        f, g = random_form(3, d, rng), random_form(3, e, rng)
        zs = solve_square_system([f.dehomogenize(0), g.dehomogenize(0)], seed=4000 + k)
        if len(zs.points) != d * e:
            continue
        pts = [np.concatenate(([1.0 + 0j], np.array(p.point))) for p in zs.points]
        pts[0] = np.array([1.0, complex(rng.standard_normal()), complex(rng.standard_normal())])
        basis = cb_vanishing_space(pts[:-1], d + e - 3)
        if basis and max(_normalized_eval(b, pts[-1]) for b in basis) > 1e-3:
            neg_hits += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and exact_ok and neg_hits >= 45
    report(
        3,
        "classical Cayley-Bacharach",
        ok,
        f"worst float residual {worst:.2e}; exact path zero: {exact_ok}; negative {neg_hits}/50",
        elapsed,
        120.0,
    )


# -------------------------------------------------------------- criterion 4


def test_criterion_4_global_vanishing_and_t_independence():
    t0 = time.perf_counter()
    ok = True
    details = []
    for label, ctx, section, psi in (
        ("P1 O(2)", p1_o2_context(), [parse_poly("z1^2 - z0^2", 2)], parse_poly("1", 2)),
        ("P2 (2,2)", p2_22_context(), [parse_poly("z1^2 - z0^2", 3), parse_poly("z2^2 - z0^2", 3)], parse_poly("z0", 3)),
    ):
        ledger = global_residue_sum(section, psi, seed=9)
        scale = sum(abs(v) for _, v in ledger.entries)
        ests = virtual_residue_sweep(ctx, [0.5, 1.0, 2.0], samples=200000, seed=777)
        for est in ests:
            ok = ok and abs(est.value) <= 3 * est.std_error
            ok = ok and est.std_error <= 0.05 * scale
        for a, b in itertools.combinations(ests, 2):
            ok = ok and abs(a.value - b.value) <= 3 * float(np.hypot(a.std_error, b.std_error))
        zmax = max(abs(e.value) / e.std_error for e in ests)
        smax = max(e.std_error for e in ests)
        details.append(f"{label}: max|z| {zmax:.2f}, max sigma {smax:.1e} vs bound {0.05 * scale:.1e}")
    elapsed = time.perf_counter() - t0
    report(4, "global vanishing + t-independence", ok, "; ".join(details), elapsed, 300.0)


# -------------------------------------------------------------- criterion 5


def test_criterion_5_local_masses():
    t0 = time.perf_counter()
    ctx = p1_o2_context()
    m_plus = local_mass(ctx, [1.0], t=0.01, radius=0.5, samples=120000, seed=51)
    m_minus = local_mass(ctx, [-1.0], t=0.01, radius=0.5, samples=120000, seed=52)
    ok = abs(m_plus.value - 0.5) <= 0.05 * 0.5 and abs(m_minus.value + 0.5) <= 0.05 * 0.5
    cancel = abs(m_plus.value + m_minus.value)
    budget3s = 3 * float(np.hypot(m_plus.std_error, m_minus.std_error))
    ok = ok and cancel <= budget3s
    elapsed = time.perf_counter() - t0
    report(
        5,
        "local-mass localization",
        ok,
        f"masses {m_plus.value.real:+.4f}/{m_minus.value.real:+.4f}, cancellation {cancel:.2e} <= {budget3s:.2e}",
        elapsed,
        60.0,
    )


# -------------------------------------------------------------- criterion 6


def test_criterion_6_curve_localization():
    t0 = time.perf_counter()
    geo_fs = Example22Geometry(example22_context(0))
    fs_term = curve_localized_term(geo_fs, samples=10000, seed=61)
    ok = fs_term.pointwise_max <= 1e-12
    geo = Example22Geometry(example22_context(0.05))
    term = curve_localized_term(geo, samples=100000, seed=62)
    ok = ok and term.pointwise_max > 1e-4
    ok = ok and abs(term.value) <= 3 * term.std_error
    ok = ok and term.std_error <= 0.02 * term.l1_mass
    elapsed = time.perf_counter() - t0
    report(
        6,
        "curve localization",
        ok,
        f"FS pointwise {fs_term.pointwise_max:.1e}; perturbed max {term.pointwise_max:.2f}, "
        f"|integral| {abs(term.value):.2e} <= {3 * term.std_error:.2e}, sigma/L1 {term.std_error / term.l1_mass:.3f}",
        elapsed,
        300.0,
    )


# -------------------------------------------------------------- criterion 7


def increasing_tuples(n, k):
    return list(itertools.combinations(range(1, n + 1), k))


def random_tensor(n, block, rng):
    i, j, k, l = block
    data = {}
    for I in increasing_tuples(n, i):
        for J in increasing_tuples(n, j):
            for K in increasing_tuples(n, k):
                for L in increasing_tuples(n, l):
                    data[(I, J, K, L)] = complex(rng.standard_normal(), rng.standard_normal())
    return SuperTensor(n, data)


def test_criterion_7_algebra_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7007)
    ok = True
    # contraction adjunction on 1000 random tensors
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        l = int(rng.integers(0, k + 1))
        i, j, p, q = (int(rng.integers(0, n + 1)) for _ in range(4))
        u = random_tensor(n, (i, j, k, 0), rng)
        th = random_tensor(n, (p, q, 0, l), rng)
        if not u.data or not th.data:
            continue
        res = contract(u, th)
        sgn = -1 if ((i + j) * l + (p + q) * (i + j + k) + l * (l - 1) // 2) % 2 else 1
        M = increasing_tuples(n, k - l)[int(rng.integers(0, len(increasing_tuples(n, k - l))))]
        nu = SuperTensor.monomial(n, L=M)
        lhs = dual_pair(res, nu)
        rhs = dual_pair(u, wedge(th, nu)).scale(sgn)
        if lhs.add(rhs.scale(-1)).norm() > 1e-12 * max(1.0, rhs.norm(), u.norm() * th.norm()):
            ok = False
    # nilpotency / truncation of the exponential
    for n in range(1, 5):
        one = {(b, p): complex(rng.standard_normal(), rng.standard_normal())
               for b in range(1, n + 1) for p in range(1, n + 1)}
        S1 = SForm(n, 0.0, one).one_form_tensor()
        power = SuperTensor.scalar(n, 1.0)
        for _ in range(n + 1):
            power = wedge(power, S1)
        ok = ok and power.data == {}
        E = exp_S(SForm(n, -0.3, one))
        ok = ok and all(blk[1] == blk[3] and blk[0] == 0 and blk[2] == 0 for blk in E.blocks())
    # chart-invariance spot checks at 1e-9
    ctx = p2_22_context()
    worst = 0.0
    for _ in range(40):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        if min(abs(z[0]), abs(z[1])) < 0.3:
            continue
        w0, w1 = chart_coords(z, 0), chart_coords(z, 1)
        g0 = global_density(ctx, 0, w0.reshape(1, -1), 0.8)[0]
        g1 = global_density(ctx, 1, w1.reshape(1, -1), 0.8)[0]
        det2 = abs(np.linalg.det(transition_jacobian(w0, 0, 1, 2))) ** 2
        worst = max(worst, abs(g0 - g1 * det2) / max(1.0, abs(g0)))
        a = ctx.s_norm2_batch(0, w0[None])[0]
        b = ctx.s_norm2_batch(1, w1[None])[0]
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = ok and worst <= 1e-9
    elapsed = time.perf_counter() - t0
    report(7, "algebra suite", ok, f"chart-invariance worst {worst:.1e}", elapsed, 30.0)


# -------------------------------------------------------------- criterion 8


def test_criterion_8_determinism():
    t0 = time.perf_counter()
    path = str(SCENARIOS / "p1_o2.json")
    blobs = []
    for threads in (1, 4, 1):
        rep = run_scenario(path, seed=88, samples=30000, threads=threads)
        blobs.append(emit_report(rep, "json"))
    ok = blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - t0
    report(8, "byte-identical reports", ok, f"{len(blobs[0])} bytes, threads {{1,4}}", elapsed, 120.0)
