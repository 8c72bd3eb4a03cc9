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
    reach = syszero._CORRECTOR_REACH

    def counted_eval(self, W):
        calls.append(len(W))
        return eval_batch(self, W)

    def recorded_correct(system, gamma, tau, Z):
        out = correct(system, gamma, tau, Z)
        steps.append((float(tau[0]), len(out[0]) == len(Z)))
        # a zero reach on the third corrector pass forces one rejection
        monkeypatch.setattr(syszero, "_CORRECTOR_REACH", 0.0 if len(steps) == 3 else reach)
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


@pytest.mark.parametrize("texts", [("z0 - 3", "z1 + 2"), ("z0^2 - 1", "z1^2 - 4")])
@pytest.mark.parametrize("degrees_of_gamma", [-90, -60, -30, 0, 30, 60, 90])
def test_easy_paths_finish_in_fewer_than_ten_batch_steps(monkeypatch, texts, degrees_of_gamma):
    # a path the predictor follows closely takes steps up to _MAX_STEP, not
    # ten steps of at most 0.1; a gamma near -1 would steer the paths close
    # to a pole of the homotopy, where many short steps are needed
    system = syszero._System([aff(t, 2) for t in texts])
    gamma = complex(np.exp(1j * np.radians(degrees_of_gamma)))
    batch_steps = []
    correct = syszero._correct

    def counted_correct(*args):
        batch_steps.append(None)
        return correct(*args)

    monkeypatch.setattr(syszero, "_correct", counted_correct)
    _, status = syszero._track(system, gamma, syszero._start_roots(system.degrees))
    assert (status == syszero._OK).all()
    assert len(batch_steps) < 10


def test_step_after_a_rejection_is_half_and_after_an_acceptance_follows_the_error(monkeypatch):
    # a zero reach rejects the third step, which is retried at half its size
    # from the same tau; an accepted step of size h is followed by one of at
    # least h / 2 and at most min(2 h, _MAX_STEP)
    rng = np.random.default_rng(0)
    system = syszero._System(_dense_system(rng, (3, 3)))
    gamma = complex(np.exp(0.6j * np.pi))
    targets = []
    correct = syszero._correct
    reach = syszero._CORRECTOR_REACH

    def recorded_correct(system, gamma, tau, Z):
        targets.append(float(tau[0]))
        monkeypatch.setattr(syszero, "_CORRECTOR_REACH", 0.0 if len(targets) == 3 else reach)
        return correct(system, gamma, tau, Z)

    monkeypatch.setattr(syszero, "_correct", recorded_correct)
    _, status = syszero._track(system, gamma, syszero._start_roots(system.degrees)[:1])
    assert status[0] == syszero._OK
    start, rejected = targets[1], targets[2]
    assert targets[3] == pytest.approx(start + (rejected - start) / 2, abs=1e-15)
    # every other step is accepted: the two before the rejection, the retry
    # and all after it, the last ending at tau = 1
    before, after = [0.0] + targets[:2], [start] + targets[3:]
    assert all(np.diff(before) > 0) and all(np.diff(after) > 0) and after[-1] == 1.0
    sb, sa = np.diff(before), np.diff(after)
    for h, h_next in [*zip(sb, sb[1:]), *zip(sa, sa[1:])]:
        assert h_next <= min(2 * h, syszero._MAX_STEP) * (1 + 1e-12)
    # tau = 1 may cut the last step short
    for h, h_next in [*zip(sb, sb[1:]), *zip(sa, sa[1:-1])]:
        assert h_next >= h / 2 * (1 - 1e-12)


def test_a_step_that_accepts_some_paths_moves_only_those(monkeypatch):
    # an infinite residual reported for one path on the third batch step
    # rejects that path alone: it retries from its own tau at half its step
    # while the others advance, and every path ends as in the untouched run
    rng = np.random.default_rng(0)
    system = syszero._System(_dense_system(rng, (3, 3)))
    gamma = complex(np.exp(0.6j * np.pi))
    starts = syszero._start_roots(system.degrees)
    Z_ref, status_ref = syszero._track(system, gamma, starts)
    forced = 4
    targets = []
    correct = syszero._correct

    def forcing_correct(system, gamma, tau, Z):
        targets.append(tau.copy())
        rows, Z, res, J, rhs, first = correct(system, gamma, tau, Z)
        if len(targets) == 3:
            assert rows.tolist() == list(range(len(starts)))
            res = res.copy()
            res[forced] = np.inf
        return rows, Z, res, J, rhs, first

    monkeypatch.setattr(syszero, "_correct", forcing_correct)
    Z, status = syszero._track(system, gamma, starts)
    before, rejected, retry = targets[1:4]
    assert len(retry) == len(starts)  # no path has left the batch yet
    assert (rejected > before).all()  # every path accepted the step before
    others = np.arange(len(starts)) != forced
    assert (retry[others] > rejected[others]).all()
    half = before[forced] + (rejected[forced] - before[forced]) / 2
    assert retry[forced] == pytest.approx(half, abs=1e-15)

    assert status.tolist() == status_ref.tolist()
    done = status == syszero._OK
    assert done.sum() == len(starts)
    polished, polished_ref = (syszero._refine_endpoints(system, z[done]) for z in (Z, Z_ref))
    for z, ref in zip(polished, polished_ref):
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


# ------------------------------------------------------- predictor and counts


def test_hermite_predictor_reproduces_a_cubic_path():
    # from two points of a cubic path and its tangents there, the predictor
    # extrapolates the path exactly; a path on its first step (no previous
    # point) takes the Euler step along its tangent
    rng = np.random.default_rng(11)
    P, n = 6, 3
    coef = rng.normal(size=(4, P, n)) + 1j * rng.normal(size=(4, P, n))

    def path(t):
        t = t[:, None]
        return coef[0] + t * (coef[1] + t * (coef[2] + t * coef[3]))

    def tangent(t):
        t = t[:, None]
        return coef[1] + t * (2 * coef[2] + t * 3 * coef[3])

    t0 = rng.uniform(0.0, 0.8, size=P)
    s0 = rng.uniform(0.01, 0.1, size=P)
    h = rng.uniform(0.01, 0.1, size=P)
    t1 = t0 + s0
    Z, dz = path(t1), tangent(t1)
    pred = syszero._predict(Z, dz, h, path(t0), tangent(t0), s0)
    want = path(t1 + h)
    assert np.max(np.abs(pred - want) / np.abs(want)) <= 1e-13

    first = s0.copy()
    first[2] = 0.0
    euler = syszero._predict(Z, dz, h, path(t0), tangent(t0), first)
    assert np.array_equal(euler[2], Z[2] + h[2] * dz[2])
    assert np.array_equal(np.delete(euler, 2, axis=0), np.delete(pred, 2, axis=0))


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


def test_homotopy_kernel_is_kept_for_its_gamma():
    # one compiled homotopy per gamma: the same gamma reuses it, another
    # gamma (a retry) builds a new one, and the system's own kernel holds
    # only f and its partials
    rng = np.random.default_rng(7)
    system = syszero._System(_dense_system(rng, (2, 3)))
    assert system.kernel.coeffs.shape[0] == 2 + 2 * 2
    k1 = system.homotopy_kernel(0.6 + 0.8j)
    assert system.homotopy_kernel(0.6 + 0.8j) is k1
    assert system.homotopy_kernel(0.8 + 0.6j) is not k1


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
            assert abs(abs(zp.det_j) - certify_zero(polys, zp.point)[1]) < 1e-12


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
