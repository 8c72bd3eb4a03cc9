"""Residue ledger, Euler-Jacobi vanishing, Cayley-Bacharach on both backends."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from residue_lab import residue
from residue_lab.harness import run_scenario
from residue_lab.polycore import (
    GaussianRational,
    HomogeneousPoly,
    monomials_of_degree,
    parse_poly,
)
from residue_lab.residue import (
    ResidueError,
    ResidueLedger,
    _integer_monomial_rows,
    _normalized_eval,
    cayley_bacharach_verify,
    cb_failures_exact,
    cb_held_out,
    cb_vanishing_space,
    cb_vanishing_space_exact,
    generalized_cb_check,
    global_residue_sum,
    local_residue,
)
from residue_lab.syszero import random_unitary, solve_square_system, zeros_at_infinity_check

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def random_form(nv, deg, rng, scale=1.0):
    terms = {
        e: scale * complex(rng.standard_normal(), rng.standard_normal())
        for e in monomials_of_degree(nv, deg)
    }
    return HomogeneousPoly(nv, deg, terms)


# ---------------------------------------------------------------- local


def test_local_residue_linear():
    s = [parse_poly("z1", 2).dehomogenize(0)]
    psi = parse_poly("1", 2).dehomogenize(0)
    assert local_residue([0.0], s, psi) == 1.0


def test_local_residue_half():
    s = [parse_poly("z1^2 - z0^2", 2).dehomogenize(0)]
    psi = parse_poly("1", 2).dehomogenize(0)
    assert abs(local_residue([1.0], s, psi) - 0.5) < 1e-14


def test_local_residue_chart_invariance():
    # zero of s at (1 : 1), visible in charts 0 and 1
    from residue_lab.projgeom import psi_chart_rep

    s = parse_poly("z1^2 - z0^2", 2)
    psi = parse_poly("2", 2)
    v0 = local_residue([1.0], [s.dehomogenize(0)], psi_chart_rep(psi, 0))
    v1 = local_residue([1.0], [s.dehomogenize(1)], psi_chart_rep(psi, 1))
    assert abs(v0 - v1) < 1e-10


def test_local_residue_rejects_singular():
    s = [parse_poly("z1^2", 2).dehomogenize(0)]
    psi = parse_poly("1", 2).dehomogenize(0)
    with pytest.raises(ResidueError):
        local_residue([0.0], s, psi)


# ---------------------------------------------------------------- global


def test_global_sum_p1_by_hand():
    section = [parse_poly("z1^2 - z0^2", 2)]
    psi = parse_poly("3", 2)
    ledger = global_residue_sum(section, psi, seed=2)
    vals = sorted(v.real for _, v in ledger.entries)
    assert np.allclose(vals, [-1.5, 1.5])
    assert abs(ledger.total) < 1e-12
    assert ledger.relative_vanishing < 1e-12


def test_global_sum_random_n2_with_mp_oracle():
    """Random (3,3) instances vanish; entries cross-checked at 40 digits."""
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(123)
    section = [random_form(3, 3, rng) for _ in range(2)]
    psi = random_form(3, 3, rng)
    ledger = global_residue_sum(section, psi, seed=3)
    assert ledger.relative_vanishing < 1e-8

    mp.mp.dps = 40
    s_aff = [s.dehomogenize(0) for s in section]
    psi_aff = psi.dehomogenize(0)

    def mp_eval(poly, z):
        tot = mp.mpc(0)
        for e, c in poly.terms.items():
            term = mp.mpc(complex(c))
            for zi, k in zip(z, e):
                term *= zi**k
            tot += term
        return tot

    def mp_partial(poly, z, k):
        # derivative taken in mp arithmetic: float coefficients times integer
        # exponents must not round through float64
        tot = mp.mpc(0)
        for e, c in poly.terms.items():
            if e[k] == 0:
                continue
            term = mp.mpc(complex(c)) * e[k]
            for i, (zi, ki) in enumerate(zip(z, e)):
                term *= zi ** (ki - 1 if i == k else ki)
            tot += term
        return tot

    def refine(z):
        z = [mp.mpc(v) for v in z]
        for _ in range(50):
            F = mp.matrix([mp_eval(p, z) for p in s_aff])
            J = mp.matrix([[mp_partial(p, z, k) for k in range(2)] for p in s_aff])
            dz = mp.lu_solve(J, F)
            z = [zi - di for zi, di in zip(z, dz)]
            if mp.norm(F) < mp.mpf(10) ** -35:
                break
        return z

    total = mp.mpc(0)
    for point, float_val in ledger.entries:
        z = refine(list(point))
        J = mp.matrix([[mp_partial(p, z, k) for k in range(2)] for p in s_aff])
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        val = mp_eval(psi_aff, z) / det
        assert abs(complex(val) - float_val) < 1e-10 * max(1.0, abs(float_val))
        total += val
    assert abs(total) < mp.mpf(10) ** -25


def test_global_sum_negative_control_degree_too_high():
    rng = np.random.default_rng(77)
    section = [random_form(3, 2, rng) for _ in range(2)]
    psi = random_form(3, 2, rng)  # degree sum - n = 2, one above the critical 1
    ledger = global_residue_sum(section, psi, seed=4)
    assert ledger.relative_vanishing > 1e-3


def test_global_sum_n3():
    rng = np.random.default_rng(31)
    section = [random_form(4, 2, rng) for _ in range(3)]
    psi = random_form(4, 2, rng)  # D = 6 - 3 - 1 = 2
    ledger = global_residue_sum(section, psi, seed=5)
    assert len(ledger.entries) == 8
    assert ledger.relative_vanishing < 1e-8


def test_global_sum_rejects_zeros_at_infinity():
    section = [parse_poly("z0*z1", 2)]
    psi = parse_poly("1", 2)
    with pytest.raises(ResidueError):
        global_residue_sum(section, psi)


def test_global_sum_rejects_double_root():
    # w2 = w1^2, w2 = 0: a double root at the origin, none at infinity
    section = [parse_poly("z0*z2 - z1^2", 3), parse_poly("z2", 3)]
    psi = parse_poly("1", 3)
    with pytest.raises(ResidueError, match="defective"):
        global_residue_sum(section, psi, seed=1)


@pytest.mark.parametrize(
    "texts, named",
    [
        (("z0*z2 - z1^2", "z2"), "zero of multiplicity 2 at (0+0j, 0+0j)"),
        (("z1^2", "z2^2"), "zero of multiplicity 4 at (0+0j, 0+0j)"),
        (("(z1 - z0)^2", "z2 - z0"), "zero of multiplicity 2 at (1+0j, 1+0j)"),
    ],
)
def test_global_sum_names_a_multiple_zero(texts, named):
    # the solver counts a multiple zero as defective; the ledger names it
    section = [parse_poly(t, 3) for t in texts]
    psi = random_form(3, sum(s.degree for s in section) - 3, np.random.default_rng(3))
    with pytest.raises(ResidueError) as err:
        global_residue_sum(section, psi, seed=4)
    assert str(err.value).endswith(named)


def test_ledger_compiles_the_section_once(monkeypatch):
    from residue_lab import residue, syszero

    built = []

    class Counted(syszero._System):
        def __init__(self, polys):
            built.append(1)
            super().__init__(polys)

    monkeypatch.setattr(syszero, "_System", Counted)
    rng = np.random.default_rng(41)
    section = [random_form(3, 2, rng), random_form(3, 3, rng)]
    psi = random_form(3, 2, rng)
    ledger = global_residue_sum(section, psi, seed=2)
    assert len(ledger.entries) == 6 and len(built) == 1
    # each entry is the single-point local residue; the ledger's det J comes
    # from the solver's batched certification, which rounds differently
    section_aff = [s.dehomogenize(0) for s in section]
    for p, v in ledger.entries:
        ref = local_residue(p, section_aff, psi.dehomogenize(0))
        assert abs(v - ref) <= 1e-14 * abs(ref)


def test_ledger_scaling_covariance():
    section = [parse_poly("z1^2 - z0^2", 2)]
    lam = 2.5 - 1.5j
    l1 = global_residue_sum(section, parse_poly("1", 2), seed=6)
    l2 = global_residue_sum(section, parse_poly("1", 2).scale(lam), seed=6)
    for (_, a), (_, b) in zip(l1.entries, l2.entries):
        assert abs(b - lam * a) < 1e-14


def test_ledger_cross_seed_total_stability():
    rng = np.random.default_rng(8)
    section = [random_form(3, 2, rng) for _ in range(2)]
    psi = random_form(3, 1, rng)
    t1 = global_residue_sum(section, psi, seed=11).total
    t2 = global_residue_sum(section, psi, seed=99).total
    assert abs(t1 - t2) <= 1e-12


# ---------------------------------------------------------------- CB spaces


def test_vanishing_space_lines_through_point():
    basis = cb_vanishing_space([[1.0, 0.3, -0.7]], 1)
    assert len(basis) == 2
    for form in basis:
        assert abs(form.eval([1.0, 0.3, -0.7])) < 1e-12


def test_vanishing_space_three_general_points():
    pts = [[1.0, 0.0, 0.0], [1.0, 1.0, 0.5], [1.0, -0.5, 2.0]]
    assert cb_vanishing_space(pts, 1) == []


def test_vanishing_space_cubic_pencil():
    rng = np.random.default_rng(15)
    f = random_form(3, 3, rng)
    g = random_form(3, 3, rng)
    from residue_lab.syszero import solve_square_system

    zs = solve_square_system([f.dehomogenize(0), g.dehomogenize(0)], seed=7)
    assert len(zs.points) == 9
    pts = [np.concatenate(([1.0 + 0j], np.array(p.point))) for p in zs.points]
    basis = cb_vanishing_space(pts[:8], 3)
    assert len(basis) == 2


# ---------------------------------------------------------------- CB checks


def test_cb_conics_vacuous_but_passes():
    rng = np.random.default_rng(20)
    rep = cayley_bacharach_verify(random_form(3, 2, rng), random_form(3, 2, rng), seed=8)
    assert rep.num_points == 4
    assert rep.vacuous and rep.max_residual == 0.0


def test_cb_cubics_float_path():
    rng = np.random.default_rng(21)
    rep = cayley_bacharach_verify(random_form(3, 3, rng), random_form(3, 3, rng), seed=9)
    assert rep.num_points == 9
    assert rep.space_dimension == 2
    assert rep.max_residual <= 1e-8


@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e9])
def test_cb_is_scale_free(scale):
    # the solver's thresholds are absolute: the verifier must solve unit-norm forms
    rng = np.random.default_rng(24)
    for k in range(10):
        f, g = random_form(3, 3, rng), random_form(3, 3, rng)
        rep = cayley_bacharach_verify(f.scale(scale), g.scale(scale), seed=k)
        assert (rep.num_points, rep.space_dimension) == (9, 2), k
        assert rep.max_residual <= 1e-8, k


@pytest.mark.parametrize("d, e", [(2, 3), (3, 3)])
def test_cb_rotates_common_point_at_infinity_into_chart(d, e):
    # both curves pass through (0:1:0), so chart 0 misses an intersection
    # point and the verifier must rotate coordinates before solving
    rng = np.random.default_rng(23 + d + e)
    f, g = random_form(3, d, rng), random_form(3, e, rng)
    f = HomogeneousPoly(3, d, {k: c for k, c in f.terms.items() if k != (0, d, 0)})
    g = HomogeneousPoly(3, e, {k: c for k, c in g.terms.items() if k != (0, e, 0)})
    assert not zeros_at_infinity_check([f, g])
    rep = cayley_bacharach_verify(f, g, seed=4)
    assert rep.num_points == d * e
    assert rep.space_dimension == d + e - 4
    assert rep.max_residual <= 1e-8


def test_cb_negative_control():
    rng = np.random.default_rng(22)
    f, g = random_form(3, 3, rng), random_form(3, 3, rng)
    from residue_lab.syszero import solve_square_system

    zs = solve_square_system([f.dehomogenize(0), g.dehomogenize(0)], seed=10)
    pts = [np.concatenate(([1.0 + 0j], np.array(p.point))) for p in zs.points]
    # replace one constraint point by a random one
    pts[3] = np.array([1.0, rng.standard_normal() + 0j, rng.standard_normal() + 0j])
    basis = cb_vanishing_space(pts[:8], 3)
    worst = max(_normalized_eval(b, [pts[8]])[0] for b in basis)
    assert worst > 1e-3
    # the nine points are no complete intersection of cubics any more: at
    # each, a cubic through the other eight is far from zero
    assert min(cb_held_out(pts, 3)[0]) > 1e-3


def _per_point_cb_float(points, degree):
    """Reference: one null space per held-out point, its largest normalized
    value there over the SVD's orthonormal basis, and its dimension."""
    residuals, dims = [], []
    for i, held in enumerate(points):
        basis = cb_vanishing_space(points[:i] + points[i + 1 :], degree)
        dims.append(len(basis))
        residuals.append(max((_normalized_eval(form, [held])[0] for form in basis), default=0.0))
    return residuals, dims


def _seeded_cb_point_sets(rounds=3):
    """(points, d + e - 3) for the d e intersection points of seeded random
    curves of degrees (1,2) to (3,5), as solved and again with one point moved
    by 0.3(1+i) in both affine coordinates."""
    pairs = [(d, e) for d in (1, 2, 3) for e in range(max(d, 2), 6)]
    sets = []
    for k in range(rounds * len(pairs)):
        rng = np.random.default_rng(700 + k)
        d, e = pairs[k % len(pairs)]
        f, g = random_form(3, d, rng), random_form(3, e, rng)
        zs = solve_square_system([f.dehomogenize(0), g.dehomogenize(0)], seed=k)
        assert len(zs.points) == d * e
        pts = [np.concatenate(([1.0 + 0j], np.array(p.point))) for p in zs.points]
        moved = list(pts)
        j = int(rng.integers(len(pts)))
        moved[j] = moved[j] + np.array([0, 0.3 + 0.3j, 0.3 + 0.3j])
        sets += [(pts, d + e - 3), (moved, d + e - 3)]
    return sets


def test_cb_held_out_matches_per_point_null_spaces():
    # the reference's max over one orthonormal basis of the null space lies
    # between |P r| / sqrt(dim) and |P r|, the largest value of a unit form,
    # P the projection onto the null space and r the held-out row.  The slack
    # is roundoff: 1e-14 absolute (the floor of quantities zero in exact
    # arithmetic) and 1e-12 relative
    failures = 0
    for pts, m in _seeded_cb_point_sets():
        residuals, dims = cb_held_out(pts, m)
        want, want_dims = _per_point_cb_float(pts, m)
        assert dims == want_dims
        for r, w, dim in zip(residuals, want, dims):
            assert (r <= 1e-8) == (w <= 1e-8)
            slack = 1e-14 + 1e-12 * w
            assert w - slack <= r <= math.sqrt(dim) * w + slack
            failures += r > 1e-8
    assert failures > 0


def test_cb_held_out_follows_a_permutation_of_the_points():
    rng = np.random.default_rng(64)
    for pts, m in _seeded_cb_point_sets():
        residuals, dims = cb_held_out(pts, m)
        order = rng.permutation(len(pts))
        permuted, permuted_dims = cb_held_out([pts[i] for i in order], m)
        assert permuted_dims == [dims[i] for i in order]
        for a, b in zip([residuals[i] for i in order], permuted):
            if max(a, b) > 1e-14:
                assert abs(a - b) <= 1e-12 * max(a, b)


def test_cb_held_out_negative_control():
    # the exact control's points: the lines through (1:0:0), (0:1:0), (1:1:0)
    # are multiples of z2, at distance 1 from (0:0:1).  In their own frame the
    # left null vector in U and its padded zero of S are both zero at the last
    # point (0 / 0); a rotated frame leaves roundoff in U there instead
    pts = np.array([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], dtype=complex)
    for k in range(6):
        frame = pts if k == 0 else pts @ random_unitary(np.random.default_rng(k), 3).T
        residuals, dims = cb_held_out(list(frame), 1)
        assert all(math.isfinite(r) for r in residuals)
        assert [r > 1e-8 for r in residuals] == [False, False, False, True]
        assert abs(residuals[3] - 1.0) <= 1e-12
        assert dims == [0, 0, 0, 1]


def test_no_production_path_builds_a_per_point_null_space(monkeypatch):
    def refuse(points, degree):
        raise AssertionError("a per-point null space was built")

    monkeypatch.setattr(residue, "cb_vanishing_space", refuse)
    rng = np.random.default_rng(21)
    rep = cayley_bacharach_verify(random_form(3, 3, rng), random_form(3, 3, rng), seed=9)
    assert rep.space_dimension == 2 and rep.max_residual <= 1e-8
    report = run_scenario(str(SCENARIOS / "p2_generalized_cb.json"))
    assert report.tasks[0].verdict == "assumed-hypotheses" and report.all_ok()


def test_shared_component_test_on_a_line():
    # a shared component meets the line z_0 = 0 in the one rotated frame too
    rng = np.random.default_rng(23)
    for k in range(12):
        f, g, c = random_form(3, 1 + k % 3, rng), random_form(3, 1 + k % 2, rng), random_form(3, 1 + k % 2, rng)
        if f.degree + g.degree >= 3:
            assert cayley_bacharach_verify(f, g, seed=k).num_points == f.degree * g.degree
        with pytest.raises(ResidueError, match="^the curves share a component: their intersection is not finite$"):
            cayley_bacharach_verify(f * c, g * c, seed=k)


@pytest.mark.parametrize(
    "f, g, named",
    [
        ("z0*z2 - z1^2", "z2", "0 of 2 points found: zero of multiplicity 2 at (1+0j, 0+0j, 0+0j)"),
        ("z1^2*z0 - z2^3", "z1", "0 of 3 points found: zero of multiplicity 3 at (1+0j, 0+0j, 0+0j)"),
        # tangent at (0:0:1), on the line z_0 = 0: named after the rotation back
        ("z0*z2 - z1^2", "z0", "0 of 2 points found: zero of multiplicity 2 at (0+0j, 0+0j, 1+0j)"),
    ],
)
def test_float_cb_names_its_tangency(f, g, named):
    with pytest.raises(ResidueError) as err:
        cayley_bacharach_verify(parse_poly(f, 3), parse_poly(g, 3), seed=3)
    assert str(err.value) == f"non-transversal intersection: {named}"


def _split_line_instance(rng, d, e):
    """Products of rational lines: all intersection points are rational."""

    def rational_line():
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

    def product(lines):
        acc = lines[0]
        for l in lines[1:]:
            acc = acc * l
        return acc

    f_lines = [rational_line() for _ in range(d)]
    g_lines = [rational_line() for _ in range(e)]
    # exact pairwise intersections by 2x2 elimination
    pts = []
    for lf in f_lines:
        for lg in g_lines:
            a = [lf.terms.get((1, 0, 0), GaussianRational.of(0)), lf.terms.get((0, 1, 0), GaussianRational.of(0)), lf.terms.get((0, 0, 1), GaussianRational.of(0))]
            b = [lg.terms.get((1, 0, 0), GaussianRational.of(0)), lg.terms.get((0, 1, 0), GaussianRational.of(0)), lg.terms.get((0, 0, 1), GaussianRational.of(0))]
            # cross product of the two coefficient vectors
            pts.append(
                (
                    a[1] * b[2] - a[2] * b[1],
                    a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0],
                )
            )
    return product(f_lines), product(g_lines), pts


def test_cb_exact_path_identically_zero():
    rng = np.random.default_rng(23)
    for d, e in [(2, 3), (3, 3)]:
        while True:
            f, g, pts = _split_line_instance(rng, d, e)
            distinct = len({tuple(str(c) for c in p) for p in pts}) == d * e
            if distinct and all(any(c for c in p) for p in pts):
                break
        m = d + e - 3
        held = pts[-1]
        basis = cb_vanishing_space_exact(pts[:-1], m)
        assert len(basis) >= 1
        for form in basis:
            val = form.eval(list(held))
            assert not val  # exactly zero in the Gaussian rationals


def test_cb_exact_vs_float_agreement():
    rng = np.random.default_rng(24)
    f, g, pts = _split_line_instance(rng, 2, 3)
    m = 2
    held = pts[-1]
    basis_e = cb_vanishing_space_exact(pts[:-1], m)
    cpts = [[c.to_complex() for c in p] for p in pts]
    basis_f = cb_vanishing_space(cpts[:-1], m)
    assert len(basis_e) == len(basis_f)
    from residue_lab.residue import _normalized_eval

    for form in basis_f:
        assert _normalized_eval(form, [cpts[-1]])[0] <= 1e-10


def _gaussian_rational_monomial_rows(points, degree):
    """Reference: the degree-``degree`` monomials at each point, unscaled."""
    rows = []
    for p in points:
        row = []
        for e in monomials_of_degree(3, degree):
            v = GaussianRational.of(1)
            for coord, k in zip(p, e):
                for _ in range(k):
                    v = v * coord
            row.append(v)
        rows.append(row)
    return rows


def _fraction_gauss_jordan_null_space(points, degree):
    """Reference: the exact null space by Gauss-Jordan elimination with
    GaussianRational (Fraction) arithmetic, pivots normalized to 1."""
    monos = monomials_of_degree(3, degree)
    rows = _gaussian_rational_monomial_rows(points, degree)
    ncols = len(monos)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((rr for rr in range(r, len(rows)) if rows[rr][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c]:
                fac = rows[rr][c]
                rows[rr] = [x - fac * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [GaussianRational.of(0)] * ncols
        vec[fc] = GaussianRational.of(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = -rows[rr][fc]
        basis.append(HomogeneousPoly(3, degree, {monos[c]: vec[c] for c in range(ncols) if vec[c]}))
    return basis


def _gaussian_rational(rng):
    def part():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))

    return GaussianRational(part(), part())


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_cb_exact_null_space_equals_fraction_gauss_jordan(degree):
    # Gaussian-rational points with non-integer coordinates, some repeated,
    # some multiples of others (dependent rows) and some on a common line, so
    # the rows are dependent: the fraction-free basis equals the reference
    # term for term
    rng = np.random.default_rng(50 + degree)
    for trial in range(6):
        pts = [tuple(_gaussian_rational(rng) for _ in range(3)) for _ in range(int(rng.integers(2, 9)))]
        pts.append(pts[0])
        lam = _gaussian_rational(rng) or GaussianRational.of(3, 1)
        pts.append(tuple(lam * c for c in pts[1]))
        a, b = pts[0], pts[1]
        pts.append(tuple(x + lam * y for x, y in zip(a, b)))
        order = rng.permutation(len(pts))
        pts = [pts[i] for i in order]
        got = cb_vanishing_space_exact(pts, degree)
        want = _fraction_gauss_jordan_null_space(pts, degree)
        assert got == want
        assert [list(f.terms) for f in got] == [list(f.terms) for f in want]
        for form in got:
            assert all(not form.eval(list(p)) for p in pts)


def _coefficient(rng, kind):
    """A random coefficient, possibly zero: an integer, a rational or a
    Gaussian rational."""

    def part():
        return Fraction(int(rng.integers(-4, 5)), 1 if kind == "integer" else int(rng.integers(1, 4)))

    return GaussianRational(part(), part() if kind == "gaussian" else Fraction(0))


def _line_crossings(rng, d, e, kind):
    """The d e crossings of d and e random lines, distinct in P^2."""
    while True:
        f_lines = [[_coefficient(rng, kind) for _ in range(3)] for _ in range(d)]
        g_lines = [[_coefficient(rng, kind) for _ in range(3)] for _ in range(e)]
        pts = [
            (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
            for a in f_lines
            for b in g_lines
        ]
        if all(any(p) for p in pts):
            keys = {tuple(c / next(x for x in p if x) for c in p) for p in pts}
            if len(keys) == len(pts):
                return pts


def _per_point_cb(points, degree):
    """Reference: one null space per held-out point, evaluated there."""
    failed, dims = [], []
    for i, held in enumerate(points):
        basis = cb_vanishing_space_exact(points[:i] + points[i + 1 :], degree)
        dims.append(len(basis))
        if any(form.eval(list(held)) for form in basis):
            failed.append(i)
    return failed, dims[0]


@pytest.mark.parametrize("kind", ["integer", "rational", "gaussian"])
def test_cb_failures_exact_equals_per_point_null_spaces(kind):
    # every crossing set passes; with one crossing moved off its lines the
    # set is no complete intersection, and the verdicts must still agree.  At
    # (5,5) the per-point reference takes seconds beyond integer lines, so the
    # dimension there is the theorem's: the 36 degree-7 monomials less the 24
    # independent conditions of the other points
    rng = np.random.default_rng({"integer": 60, "rational": 61, "gaussian": 62}[kind])
    moved_failures = 0
    for d, e in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5)]:
        pts = _line_crossings(rng, d, e, kind)
        m = d + e - 3
        want = ([], 36 - 24) if d == 5 and kind != "integer" else _per_point_cb(pts, m)
        assert want[0] == []
        assert cb_failures_exact(pts, m) == want
        if d * e < 10:
            moved = list(pts)
            point = tuple(_coefficient(rng, kind) for _ in range(3))
            moved[int(rng.integers(len(pts)))] = point if any(point) else (GaussianRational.of(1),) * 3
            want = _per_point_cb(moved, m)
            moved_failures += len(want[0])
            assert cb_failures_exact(moved, m) == want
    assert moved_failures > 0


def test_cb_failures_exact_negative_control():
    # the lines through (1:0:0), (0:1:0), (1:1:0) are multiples of z2, which
    # is 1 at (0:0:1); through any other three of the four there is none
    pts = [tuple(map(GaussianRational.of, p)) for p in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]]
    assert cb_failures_exact(pts, 1) == ([3], 0)
    assert _per_point_cb(pts, 1) == ([3], 0)


# ---------------------------------------------------------------- mixed


def _mixed_instance(rng):
    f = random_form(3, 2, rng)  # curve factor
    u = random_form(3, 2, rng)  # cofactor: isolated points u = g = 0
    g = random_form(3, 3, rng)
    return f, u, g


def test_generalized_cb_positive():
    rng = np.random.default_rng(25)
    f, u, g = _mixed_instance(rng)
    rep = generalized_cb_check(f, u, g, seed=12)
    assert rep.curve_points == 6 and rep.isolated_points == 6
    assert rep.curve_entry_max <= 1e-8  # suppressed identically by divisibility
    assert rep.isolated_relative_vanishing <= 1e-8
    assert rep.hypotheses == "assumed"
    assert rep.forcing_residuals and max(rep.forcing_residuals) <= 1e-8


def test_generalized_cb_negative_control():
    """psi not divisible by the curve factor: the isolated ledger keeps mass."""
    rng = np.random.default_rng(26)
    f, u, g = _mixed_instance(rng)
    s1 = f * u
    psi = random_form(3, s1.degree + g.degree - 3, rng)
    ledger = global_residue_sum([s1, g], psi, seed=13)
    f_aff = f.dehomogenize(0)
    iso = [(p, v) for p, v in ledger.entries if abs(f_aff.eval(list(p))) > 1e-6]
    sub = ResidueLedger.from_entries(iso)
    assert sub.relative_vanishing > 1e-3


def test_ledger_total_permutation_invariance():
    rng = np.random.default_rng(41)
    section = [random_form(3, 3, rng) for _ in range(2)]
    psi = random_form(3, 3, rng)
    ledger = global_residue_sum(section, psi, seed=17)
    shuffled = list(ledger.entries)
    rng.shuffle(shuffled)
    re_total = ResidueLedger.from_entries(shuffled).total
    assert abs(re_total - ledger.total) <= 1e-12


def test_exact_monomial_row_against_coefficients_is_eval():
    # a point's integer monomial row, against a form's coefficients, is the
    # form at the point scaled to Gaussian-integer coordinates
    rng = np.random.default_rng(31)

    def gauss():
        return GaussianRational(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))), Fraction(int(rng.integers(-9, 10))))

    for m in (1, 2, 3):
        monos = monomials_of_degree(3, m)
        form = HomogeneousPoly(3, m, {e: gauss() for e in monos if rng.random() < 0.7})
        p = [gauss() for _ in range(3)]
        (row,) = _integer_monomial_rows([p], m)
        assert all(isinstance(v, int) for v in row)
        at = {e: GaussianRational.of(row[2 * k], row[2 * k + 1]) for k, e in enumerate(monos)}
        scale = math.lcm(*(x.denominator for c in p for x in (c.re, c.im)))
        assert sum(c * at[e] for e, c in form.terms.items()) == form.eval(p) * scale**m
