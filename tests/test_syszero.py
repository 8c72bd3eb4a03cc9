"""Macaulay-eigenvalue solver: correctness, multiplicities, certification,
determinism, infinity checks."""

import math

import numpy as np
import pytest

from residue_lab import syszero
from residue_lab.polycore import monomials_of_degree, parse_poly, HomogeneousPoly, AffinePoly, _parse_terms
from residue_lab.syszero import (
    _certify,
    _System,
    solve_square_system,
    zeros_at_infinity_check,
)


def aff(text, nv):
    """Affine polynomial from a string in the parser's grammar, z0.. as the chart variables."""
    return AffinePoly(nv, _parse_terms(text, nv, exact=False))


def test_single_quadratic():
    zs = solve_square_system([aff("z0^2 - 1", 1)], seed=1)
    got = sorted(np.round(np.array([p.point for p in zs.points]).flatten().real, 8))
    assert got == [-1.0, 1.0]
    assert zs.bezout_count == 2 and zs.missing_paths == 0


def test_two_decoupled_quadrics():
    zs = solve_square_system([aff("z0^2 - 1", 2), aff("z1^2 - 4", 2)], seed=1)
    pts = {(round(p.point[0].real), round(p.point[1].real)) for p in zs.points}
    assert pts == {(1, 2), (1, -2), (-1, 2), (-1, -2)}


def test_random_cubics_bezout_and_residuals():
    rng = np.random.default_rng(99)
    polys = []
    for _ in range(2):
        terms = {}
        for e in monomials_of_degree(2, 3):
            terms[e] = complex(rng.normal(), rng.normal())
        for deg in (0, 1, 2):
            for e in monomials_of_degree(2, deg):
                terms[e] = complex(rng.normal(), rng.normal())
        polys.append(AffinePoly(2, terms))
    zs = solve_square_system(polys, seed=5)
    assert zs.bezout_count == 9
    assert len(zs.points) + zs.missing_paths == 9
    assert len(zs.points) == 9  # generic dense systems have all zeros affine
    for p in zs.points:
        assert p.residual <= 1e-10


def test_determinism_bitwise():
    polys = [aff("z0^2 + z1 - 1", 2), aff("z1^2 - z0 - 2", 2)]
    a = solve_square_system(polys, seed=42)
    b = solve_square_system(polys, seed=42)
    assert np.array([p.point for p in a.points]).tobytes() == np.array([p.point for p in b.points]).tobytes()
    assert [p.residual for p in a.points] == [p.residual for p in b.points]


def test_certify_exact_zero():
    res, det, regular = (x[0] for x in _certify(_System([aff("z0^2 - 1", 1)]), np.array([[1.0 + 0j]])))
    assert res == 0.0 and abs(det - 2.0) < 1e-14 and regular


def test_certify_singular():
    res, det, regular = (x[0] for x in _certify(_System([aff("z0^2", 1)]), np.array([[0j]])))
    assert det == 0.0 and not regular


# ------------------------------------------------------- zeros at infinity


def h(text, nv):
    return parse_poly(text, nv)


def test_infinity_component_vanishing_at_hyperplane():
    # restriction of z0*z1 to z0 = 0 is identically zero: zero at infinity
    assert zeros_at_infinity_check([h("z0*z1", 2)]) is False


def test_infinity_generic_p1():
    assert zeros_at_infinity_check([h("z0^2 + z1^2 + z0*z1", 2)]) is True


def test_infinity_generic_p2():
    rng = np.random.default_rng(17)
    polys = []
    for d in (2, 3):
        terms = {e: complex(rng.normal(), rng.normal()) for e in monomials_of_degree(3, d)}
        polys.append(HomogeneousPoly(3, d, terms))
    assert zeros_at_infinity_check(polys) is True


def test_infinity_shared_leading_root():
    # both leading forms vanish at (0:0:1)
    s1 = h("z1*z2", 3)
    s2 = h("z1^2 + z0*z2", 3)
    assert zeros_at_infinity_check([s1, s2]) is False


def test_constant_equation_gives_empty_set():
    zs = solve_square_system([aff("1", 1)], seed=0)
    assert zs.points == [] and zs.bezout_count == 0


def test_path_to_infinity_accounting():
    # w1*w2 = 1, w1 = 2: one finite zero, one path escapes; Bezout is 2
    zs = solve_square_system([aff("z0*z1 - 1", 2), aff("z0 - 2", 2)], seed=4)
    assert zs.bezout_count == 2
    assert len(zs.points) == 1 and zs.missing_paths == 1
    w = zs.points[0].point
    assert abs(w[0] - 2.0) < 1e-10 and abs(w[1] - 0.5) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_escaping_path_counted_as_escaped_at_every_seed(seed):
    zs = solve_square_system([aff("z0*z1 - 1", 2), aff("z0 - 2", 2)], seed=seed)
    assert (len(zs.points), zs.missing_paths, zs.defective) == (1, 1, 0)


@pytest.mark.parametrize("seed", range(20))
def test_double_root_is_defective_not_a_solve_error(seed):
    # (w1 - w0^2, w1) has one zero, a double root at the origin, and both
    # paths end there.  The repeat persists with every gamma, so it is counted
    # as defective instead of failing the solve as a path jump.
    zs = solve_square_system([aff("z1 - z0^2", 2), aff("z1", 2)], seed=seed)
    assert zs.bezout_count == 2 and zs.missing_paths == 0
    assert zs.defective >= 1 and len(zs.points) + zs.defective == 2
    assert all(np.linalg.norm(p.point) < 1e-6 for p in zs.points)


# ------------------------------------------------------- dense systems


def _dense_system(rng, degrees, gaussian_integers=False):
    """Random dense affine polynomials of the given degrees: complex normal
    coefficients, or Gaussian integers in [-4, 4] + [-4, 4]i."""
    n = len(degrees)
    polys = []
    for d in degrees:
        terms = {}
        for k in range(d + 1):
            for e in monomials_of_degree(n, k):
                if gaussian_integers:
                    terms[e] = complex(rng.integers(-4, 5), rng.integers(-4, 5))
                else:
                    terms[e] = complex(rng.normal(), rng.normal())
        polys.append(AffinePoly(n, terms))
    return polys


def test_singular_matrix_fails_only_its_row():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    A[2, :, 1] = 0  # a zero column: exactly singular
    b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    x, ok = syszero._solve_rows(A, b)
    assert ok.tolist() == [True, True, False, True]
    for p in (0, 1, 3):
        assert np.array_equal(x[p], np.linalg.solve(A[p], b[p]))


@pytest.mark.parametrize("seed", range(3))
def test_random_dense_systems_account_for_every_path(seed):
    # 40 random dense systems: every path is a simple zero or escaped, and
    # none is defective
    rng = np.random.default_rng(100 + seed)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        degrees = [int(d) for d in rng.integers(1, 4 if n < 3 else 3, size=n)]
        zs = solve_square_system(_dense_system(rng, degrees), seed=seed)
        assert len(zs.points) + zs.missing_paths + zs.defective == math.prod(degrees)
        assert zs.defective == 0


@pytest.mark.parametrize(
    "degrees, gaussian_integers",
    [((8, 8), False), ((10, 10), False), ((9, 9), True), ((5, 5, 4), False)],
    ids=["8-8", "10-10", "9-9-gaussian", "5-5-4"],
)
def test_large_random_dense_systems_certify_every_zero(degrees, gaussian_integers):
    # every zero found and certified, with no SolveError, though some zeros
    # have norm 16-41: the residual bound is relative to max(1, |w|)^d
    for seed in range(5):
        polys = _dense_system(np.random.default_rng(seed), degrees, gaussian_integers)
        zs = solve_square_system(polys, seed=seed)
        assert (len(zs.points), zs.missing_paths, zs.defective) == (math.prod(degrees), 0, 0), (degrees, seed)
        assert max(p.residual for p in zs.points) <= 1e-12


def test_desk_scale_bound_is_on_the_macaulay_columns():
    # P^4 (4, 3, 3, 3): degree rho = 10 in 5 variables, C(14, 4) = 1001 columns
    with pytest.raises(ValueError, match="1001 columns exceeds the desk-scale bound 1000"):
        solve_square_system(_dense_system(np.random.default_rng(0), (4, 3, 3, 3)))


def test_positive_dimensional_zero_set_raises_solve_error():
    # w0 w1 = w0 (w1 - 1) = 0 holds on the whole line w0 = 0: in degree 3 the
    # null space has one dimension more than the Bezout number
    with pytest.raises(syszero.SolveError, match="dimension 5, not the Bezout number 4"):
        solve_square_system([aff("z0*z1", 2), aff("z0*z1 - z0", 2)], seed=0)


@pytest.mark.parametrize("seed", range(20))
def test_multiple_zeros_report_their_multiplicity(seed):
    # (points, zeros at infinity, defective) and the multiple zeros found
    cases = [
        (("z1 - z0^2", "z1"), (0, 0, 2), [((0, 0), 2)]),
        (("(z0 - 1)^2", "z1 - 1"), (0, 0, 2), [((1, 1), 2)]),
        (("z0*z1", "z0 - z1"), (0, 0, 2), [((0, 0), 2)]),
        (("z0^2", "z1^2"), (0, 0, 4), [((0, 0), 4)]),
        (("z0*z1 - 1", "z0 - 2"), (1, 1, 0), []),
    ]
    for texts, counts, multiple in cases:
        zs = solve_square_system([aff(t, 2) for t in texts], seed=seed)
        assert (len(zs.points), zs.missing_paths, zs.defective) == counts, texts
        assert [m for _, m in zs.multiple] == [m for _, m in multiple]
        for (point, _), (want, _) in zip(zs.multiple, multiple):
            assert np.linalg.norm(np.subtract(point, want)) <= 1e-6


@pytest.mark.parametrize("scale", [1e-9, 1e9])
def test_solve_is_scale_free(scale):
    # the residual bound and the Jacobian test are relative, so a system and
    # its multiple by any scale have the same certified zeros
    for seed in range(5):
        polys = _dense_system(np.random.default_rng(400 + seed), (3, 2))
        ref = solve_square_system(polys, seed=seed)
        zs = solve_square_system([p.scale(scale) for p in polys], seed=seed)
        assert (len(zs.points), zs.missing_paths, zs.defective) == (6, 0, 0)
        for a, b in zip(zs.points, ref.points):
            assert np.linalg.norm(np.subtract(a.point, b.point)) <= 1e-12 * max(1.0, np.linalg.norm(b.point))
            assert abs(a.det_j - scale**2 * b.det_j) <= 1e-12 * abs(scale**2 * b.det_j)


# ------------------------------------------- path accounting and det J


@pytest.mark.parametrize("case", ["dense", "escaping", "double_root"])
@pytest.mark.parametrize("seed", range(5))
def test_points_missing_and_defective_add_up_to_the_bezout_count(case, seed):
    if case == "dense":
        polys = _dense_system(np.random.default_rng(300 + seed), (2, 3))
    elif case == "escaping":
        polys = [aff("z0*z1 - 1", 2), aff("z0 - 2", 2)]
    else:
        polys = [aff("z1 - z0^2", 2), aff("z1", 2)]
    zs = solve_square_system(polys, seed=seed)
    assert len(zs.points) + zs.missing_paths + zs.defective == zs.bezout_count


def test_zero_points_keep_the_signed_jacobian_determinant():
    # w0^2 - 1: det J = 2 w0 at w0 = +-1; (w0 - w1^2, w0 + w1 - 2) at (1, 1)
    # and (4, -2): det J = 1 + 2 w1, i.e. 3 and -3
    for polys, det_j in (
        ([aff("z0^2 - 1", 1)], lambda w: 2 * w[0]),
        ([aff("z0 - z1^2", 2), aff("z0 + z1 - 2", 2)], lambda w: 1 + 2 * w[1]),
    ):
        zs = solve_square_system(polys, seed=3)
        assert len(zs.points) == 2
        for zp in zs.points:
            assert abs(zp.det_j - det_j(zp.point)) < 1e-12


# --------------------------------------------- infinity checks, scale-free


def _form(rng, nv, d):
    return HomogeneousPoly(nv, d, {e: complex(rng.normal(), rng.normal()) for e in monomials_of_degree(nv, d)})


def _p2_pair(rng, d, e, plant):
    """Two forms on P^2 of degrees d and e whose restrictions to z0 = 0 share
    the root (0:1:b) ("line", b random), the root (0:0:1) ("corner"), or
    neither ("none")."""
    if plant == "none":
        return [_form(rng, 3, d), _form(rng, 3, e)]
    b = complex(rng.normal(), rng.normal())
    through = {"line": {(0, 0, 1): 1.0, (0, 1, 0): -b}, "corner": {(0, 1, 0): 1.0}}[plant]
    lin, z0 = HomogeneousPoly(3, 1, through), HomogeneousPoly(3, 1, {(1, 0, 0): 1.0})
    return [lin * _form(rng, 3, k - 1) + z0 * _form(rng, 3, k - 1) for k in (d, e)]


@pytest.mark.parametrize("plant", ["line", "corner", "none"])
def test_p2_infinity_check_finds_planted_zeros_at_every_scale(plant):
    rng = np.random.default_rng({"line": 11, "corner": 12, "none": 13}[plant])
    for d in range(1, 5):
        for e in range(1, 5):
            for _ in range(5):
                pair = _p2_pair(rng, d, e, plant)
                for scale in (1.0, 1e-9, 1e9):
                    scaled = [f.scale(scale) for f in pair]
                    assert zeros_at_infinity_check(scaled) is (plant == "none"), (d, e, scale)


def test_an_identically_zero_form_is_a_common_root():
    # z1 z2 misses z0, so its first partial is the zero form
    f = parse_poly("z1*z2", 3)
    assert syszero._common_root([f.partial(k) for k in range(3)]) is True
    assert syszero._common_root([HomogeneousPoly(2, 2, {}), h("z0^2 + z1^2", 2)]) is True


def _planted_forms(rng, degrees, planted):
    """Forms on P^n of the given n degrees; with ``planted`` their
    restrictions to z0 = 0 share a random point (0:p1:...:pn)."""
    nv = len(degrees) + 1
    forms = [_form(rng, nv, d) for d in degrees]
    if not planted:
        return forms
    p = [0j] + [complex(rng.normal(), rng.normal()) for _ in range(nv - 1)]
    return [
        f - HomogeneousPoly(nv, f.degree, {(0, f.degree) + (0,) * (nv - 2): f.eval(p) / p[1] ** f.degree})
        for f in forms
    ]


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("scale", [1.0, 1e-9, 1e9])
def test_p3_infinity_check_is_scale_free(planted, scale, monkeypatch):
    """On P^3 and P^4 the check finds a planted common zero at infinity at
    every scale, by the resultant test alone: it makes no homotopy solve."""

    def no_solve(*args, **kwargs):
        raise AssertionError("the infinity check made a homotopy solve")

    monkeypatch.setattr(syszero, "solve_square_system", no_solve)
    for degrees, count in (((2, 2, 3), 20), ((2, 2, 2, 2), 5), ((3, 2, 2, 2), 5)):
        rng = np.random.default_rng(500 + planted + 10 * (len(degrees) - 3))
        for k in range(count):
            forms = [f.scale(scale) for f in _planted_forms(rng, degrees, planted)]
            assert zeros_at_infinity_check(forms) is not planted, (degrees, k)


# ------------------------------------------------------- Newton polish


def _ten_step_polish(system, Z):
    """The reference polish: ten Newton steps on every row, stopping a row only
    where its Jacobian is singular or its next iterate is not finite."""
    live = np.arange(len(Z))
    for _ in range(10):
        if not live.size:
            break
        f, J = system.rows(Z[live])
        dz, ok = syszero._solve_rows(J, f)
        z_new = Z[live] - dz
        ok &= np.isfinite(z_new).all(axis=1)
        live = live[ok]
        Z[live] = z_new[ok]
    return Z


@pytest.mark.parametrize("degrees", [(2, 3), (3, 3), (2, 2, 2)])
def test_polish_makes_one_batch_call_on_generic_systems(degrees, monkeypatch):
    # eigenvalue zeros of a generic system are at the rounding floor, so the
    # first Newton step is tiny and retires every row: one batch call for the
    # polish and one for the certification
    calls = []
    rows = _System.rows
    monkeypatch.setattr(_System, "rows", lambda self, Z: calls.append(len(Z)) or rows(self, Z))
    for seed in range(5):
        calls.clear()
        zs = solve_square_system(_dense_system(np.random.default_rng(600 + seed), degrees), seed=seed)
        assert len(zs.points) == math.prod(degrees)
        assert calls == [math.prod(degrees)] * 2, (degrees, seed)


def _powers_of_lines(rng):
    """(l1^4, l2) for two random affine lines in two variables, and their zero."""
    c = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    l1, l2 = (AffinePoly(2, {(0, 0): a, (1, 0): b, (0, 1): e}) for a, b, e in c)
    return [l1 * l1 * l1 * l1, l2], np.linalg.solve(c[:, 1:], -c[:, 0])


@pytest.mark.parametrize(
    "family",
    ["z0^5; z1", "z0^3; z1^3", "(z0 - 1)^3; (z1 + 2)^3", "lines", "z0^2 - 1/1000000000; z1", "z0^2 - 10000000*z0; z1"],
)
def test_polish_stop_rule_matches_ten_steps(family, monkeypatch):
    # multiple zeros (whose eigenvalues pass as simple zeros and converge only
    # linearly), a close pair 6.3e-5 apart and a zero at 1e7: the same counts
    # as ten fixed steps, and points within 1e-9.  Inside the rounding ball of
    # the 4-fold zero of (l1^4, l2) f rounds to about zero, and the iterates
    # follow the last bits of each evaluation (a step can round to 1e-17 and
    # end the polish there), so those points are only checked to lie in it.
    rng = np.random.default_rng(700)
    for seed in range(20):
        polys, zero = _powers_of_lines(rng) if family == "lines" else ([aff(t, 2) for t in family.split("; ")], None)
        zs = solve_square_system(polys, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(syszero, "_refine_endpoints", _ten_step_polish)
            ref = solve_square_system(polys, seed=seed)
        counts = (len(zs.points), zs.missing_paths, zs.defective, [k for _, k in zs.multiple])
        assert counts == (len(ref.points), ref.missing_paths, ref.defective, [k for _, k in ref.multiple]), seed
        for a, b in zip(zs.points, ref.points):
            if zero is None:
                assert np.linalg.norm(np.subtract(a.point, b.point)) <= 1e-9 * max(1.0, np.linalg.norm(b.point))
            else:
                assert max(np.linalg.norm(a.point - zero), np.linalg.norm(b.point - zero)) <= 0.05, seed
