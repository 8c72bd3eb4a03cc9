"""Homotopy solver: correctness, certification, determinism, infinity checks."""

import math

import numpy as np
import pytest

from residue_lab import syszero
from residue_lab.polycore import monomials_of_degree, parse_poly, HomogeneousPoly, AffinePoly
from residue_lab.syszero import (
    certify_zero,
    solve_square_system,
    zeros_at_infinity_check,
)


def aff(text, nv):
    """Affine polynomial from a homogeneous-style string with z0.. as chart vars."""
    # reuse the homogeneous parser by padding with a slack variable of the
    # complementary degree; simpler: parse monomial-wise
    from residue_lab.polycore import _tokenize, _Parser  # test-local shortcut

    toks = _tokenize(text)
    terms = _Parser(toks, nv, exact=False).parse()
    return AffinePoly(nv, terms)


def test_single_quadratic():
    zs = solve_square_system([aff("z0^2 - 1", 1)], seed=1)
    got = sorted(np.round(zs.coordinates().flatten().real, 8))
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
    assert a.coordinates().tobytes() == b.coordinates().tobytes()
    assert [p.residual for p in a.points] == [p.residual for p in b.points]


def test_certify_exact_zero():
    res, det, flag = certify_zero([aff("z0^2 - 1", 1)], [1.0])
    assert res == 0.0 and abs(det - 2.0) < 1e-14


def test_certify_contraction_near_simple_zero():
    res, det, flag = certify_zero([aff("z0^2 - 1", 1)], [1.0 + 1e-8])
    assert flag


def test_certify_singular():
    res, det, flag = certify_zero([aff("z0^2", 1)], [0.0])
    assert det == 0.0 and not flag


def test_newton_contraction_on_solver_output():
    polys = [aff("z0^2 + z1^2 - 5", 2), aff("z0*z1 - 2", 2)]
    zs = solve_square_system(polys, seed=3)
    assert len(zs.points) == 4
    for p in zs.points:
        _, det, flag = certify_zero(polys, list(p.point))
        assert det > 1e-6 and flag


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


def test_path_jump_is_retried_with_a_fresh_gamma(monkeypatch):
    # an unlimited corrector reach lets the escaping path jump onto the finite
    # root (2, 0.5); the repeated endpoint must send the solve to a fresh
    # gamma, not be counted as a defective (non-simple) zero
    reach = syszero._CORRECTOR_REACH
    passes = []
    track_all = syszero._track_all

    def first_pass_jumps(*args):
        passes.append(None)
        monkeypatch.setattr(syszero, "_CORRECTOR_REACH", math.inf if len(passes) == 1 else reach)
        return track_all(*args)

    monkeypatch.setattr(syszero, "_track_all", first_pass_jumps)
    polys = [aff("z0*z1 - 1", 2), aff("z0 - 2", 2)]
    zs = solve_square_system(polys, seed=4)
    assert len(passes) == 2
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


# ------------------------------------------------------- kernel row layout


def _random_system(rng, n, kind):
    """n random affine polynomials: dense of degrees 1-3, all linear, with
    variable 0 missing from the last equation, or with no constant terms."""
    polys = []
    for i in range(n):
        degree = 1 if kind == "linear" else int(rng.integers(1, 4))
        terms = {}
        for d in range(0 if kind != "constant_free" else 1, degree + 1):
            for e in monomials_of_degree(n, d):
                if kind == "missing_variable" and i == n - 1 and e[0]:
                    continue
                terms[e] = complex(rng.normal(), rng.normal())
        polys.append(AffinePoly(n, terms))
    return polys


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


_LAYOUT_CASES = [
    (n, kind)
    for n in range(1, 5)
    for kind in ("dense", "linear", "missing_variable", "constant_free")
    if n > 1 or kind != "missing_variable"  # a lone equation keeps its variable
]


@pytest.mark.parametrize("n, kind", _LAYOUT_CASES)
def test_homotopy_rows_match_scalar_evaluation(n, kind):
    rng = np.random.default_rng(1000 * n + len(kind))
    polys = _random_system(rng, n, kind)
    if kind == "missing_variable":
        assert all(e[0] == 0 for e in polys[-1].terms)
    system = syszero._System(polys)
    degrees = [p.degree() for p in polys]
    for _ in range(5):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        zl = list(z)
        gamma = complex(np.exp(2j * np.pi * rng.uniform()))
        f = np.array([p.eval(zl) for p in polys])
        g = np.array([z[i] ** d - 1 for i, d in enumerate(degrees)])
        df = np.array([[p.partial(k).eval(zl) for k in range(n)] for p in polys])
        dg = np.diag([d * z[i] ** (d - 1) for i, d in enumerate(degrees)])
        for tau in (0.0, 0.37, 1.0):
            H, J, rhs = syszero._homotopy(system, z, tau, gamma)
            assert _close(H, (1 - tau) * gamma * g + tau * f)
            assert _close(J, (1 - tau) * gamma * dg + tau * df)
            assert _close(rhs, f - gamma * g)
