"""Homotopy solver: correctness, certification, determinism, infinity checks."""

import math

import numpy as np
import pytest

from residue_lab import syszero
from residue_lab.polycore import monomials_of_degree, parse_poly, HomogeneousPoly, AffinePoly, PolyKernel
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


# ------------------------------------------------------- batched tracking


def _dense_system(rng, degrees):
    """Random dense affine polynomials of the given degrees."""
    n = len(degrees)
    polys = []
    for d in degrees:
        terms = {}
        for k in range(d + 1):
            for e in monomials_of_degree(n, k):
                terms[e] = complex(rng.normal(), rng.normal())
        polys.append(AffinePoly(n, terms))
    return polys


_BATCH_CASES = [
    ("dense", (2, 2), 0),
    ("dense", (3, 3), 1),
    ("dense", (3, 3), 2),
    ("dense", (2, 2, 2), 3),
    ("escaping", None, 4),
]


@pytest.mark.parametrize("kind, degrees, seed", _BATCH_CASES)
def test_path_is_independent_of_its_batch(kind, degrees, seed):
    # a path tracked alone (a batch of one) and inside the full batch gets the
    # same status and, polished, the same endpoint to within 1e-12 relative;
    # bitwise equality is not expected, since a kernel evaluation at one point
    # and inside a matrix product over many points round differently
    rng = np.random.default_rng(seed)
    if kind == "dense":
        polys = _dense_system(rng, degrees)
    else:
        polys = [aff("z0*z1 - 1", 2), aff("z0 - 2", 2)]
    system = syszero._System(polys)
    gamma = complex(np.exp(2j * np.pi * rng.uniform()))
    starts = syszero._start_roots(system.degrees)
    Z, status = syszero._track(system, gamma, starts)
    polished = syszero._refine_endpoints(system, Z)
    if kind == "escaping":
        assert sorted(status.tolist()) == [syszero._OK, syszero._ESCAPED]
    for i in range(len(starts)):
        z1, status1 = syszero._track(system, gamma, starts[i : i + 1])
        assert status1[0] == status[i]
        if status[i] == syszero._OK:
            alone = syszero._refine_endpoints(system, z1)[0]
            assert np.linalg.norm(alone - polished[i]) <= 1e-12 * np.linalg.norm(polished[i])


def test_singular_matrix_fails_only_its_row():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    A[2, :, 1] = 0  # a zero column: exactly singular
    b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    x, ok = syszero._solve_rows(A, b)
    assert ok.tolist() == [True, True, False, True]
    for p in (0, 1, 3):
        assert np.array_equal(x[p], np.linalg.solve(A[p], b[p]))


def test_singular_jacobian_fails_or_rejects_only_its_path():
    # g = z^2 - 1 has a singular Jacobian at z = 0, so a path started there
    # fails in the predictor and a corrector started there is rejected, while
    # the other paths of the batch go on as if it were absent
    polys = [aff("z0^2 + z1 - 1", 2), aff("z1^2 - z0 - 2", 2)]
    system = syszero._System(polys)
    gamma = complex(np.exp(0.7j))
    starts = syszero._start_roots(system.degrees)
    with_singular = np.vstack([starts[:2], np.zeros((1, 2)), starts[2:]])
    Z, status = syszero._track(system, gamma, with_singular)
    Z_ref, status_ref = syszero._track(system, gamma, starts)
    assert status[2] == syszero._FAILED
    assert np.array_equal(np.delete(status, 2), status_ref)
    kept = np.delete(Z, 2, axis=0)
    assert np.max(np.abs(kept - Z_ref)) <= 1e-12 * np.max(np.abs(Z_ref))

    rows, *_ = syszero._correct(system, gamma, np.zeros(3), with_singular[1:4])
    assert rows.tolist() == [0, 2]


@pytest.mark.parametrize("n, kind", _LAYOUT_CASES)
def test_batched_homotopy_matches_single_points(n, kind):
    # H, dH/dz and f - gamma g at (P, n) points, one tau per row, equal the
    # single-point values row by row
    rng = np.random.default_rng(2000 * n + len(kind))
    system = syszero._System(_random_system(rng, n, kind))
    gamma = complex(np.exp(2j * np.pi * rng.uniform()))
    Z = rng.normal(size=(6, n)) + 1j * rng.normal(size=(6, n))
    tau = np.array([0.0, 0.2, 0.37, 0.5, 0.91, 1.0])
    H, J, rhs = syszero._homotopy(system, Z, tau, gamma)
    assert H.shape == (6, n) and J.shape == (6, n, n) and rhs.shape == (6, n)
    for p in range(6):
        H1, J1, rhs1 = syszero._homotopy(system, Z[p], tau[p], gamma)
        assert _close(H[p], H1) and _close(J[p], J1) and _close(rhs[p], rhs1)


def test_each_step_after_the_first_costs_newton_iters_plus_one_kernel_calls(monkeypatch):
    # the predictor reuses the evaluation that ended the previous step
    # (accepted) or that the step started from (rejected), so only the first
    # step evaluates the homotopy for its predictor
    rng = np.random.default_rng(0)
    system = syszero._System(_dense_system(rng, (3, 3)))
    gamma = complex(np.exp(0.6j * np.pi))
    calls = []
    steps = []
    eval_batch = PolyKernel.eval_batch
    correct = syszero._correct

    def counted_eval(self, W):
        calls.append(len(W))
        return eval_batch(self, W)

    def recorded_correct(system, gamma, tau, Z):
        out = correct(system, gamma, tau, Z)
        steps.append((float(tau[0]), len(out[0]) == len(Z)))
        return out

    monkeypatch.setattr(PolyKernel, "eval_batch", counted_eval)
    monkeypatch.setattr(syszero, "_correct", recorded_correct)
    starts = syszero._start_roots(system.degrees)
    _, status = syszero._track(system, gamma, starts[:1])
    assert status[0] == syszero._OK
    assert all(survived for _, survived in steps)  # no corrector broke down
    taus = [t for t, _ in steps]
    rejected = sum(later < earlier for earlier, later in zip(taus, taus[1:]))
    assert rejected >= 1  # a retry after a rejected step also reuses the evaluation
    accepted = len(steps) - rejected
    assert accepted >= 10
    assert len(calls) == 1 + (syszero._NEWTON_ITERS + 1) * len(steps)
