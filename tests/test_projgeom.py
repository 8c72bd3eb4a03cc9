"""Geometry layer: metrics, superconnection data, curvature, curve fixtures.

The finite-difference routines in this file are independent oracles for the
exact chart-function derivatives used by the implementation.
"""

import itertools
import threading

import numpy as np
import pytest

from residue_lab import projgeom
from residue_lab.chartfun import ChartFunction
from residue_lab.polycore import HomogeneousPoly, monomials_of_degree, parse_poly
from residue_lab.projgeom import (
    Example22Geometry,
    GeometryContext,
    GeometryError,
    MetricSpec,
    _min_eigenvalue,
    by_chart,
    chart_coords,
    fs_uniform_points,
    point_from_chart,
    transition_jacobian,
)
from residue_lab.syszero import _normalized_eval, _point_text


def full_curvature(ctx, chart, W):
    """The whole Chern curvature, (N, rank, rank, n, n) with [:, i, j, a, b]
    along dw_a ^ dwbar_b, stacked from its entries."""
    n = ctx.n
    R = np.zeros((len(W), n, n, n, n), dtype=complex)
    for i, j, a in itertools.product(range(n), repeat=3):
        R[:, i, j, a, :] = ctx.chern_curvature_batch(chart, W, entry=(i, j, a))
    return R


def p1_o2_context(metric=None):
    bundle = (2,)
    s = (parse_poly("z1^2 - z0^2", 2),)
    psi = parse_poly("1", 2)
    return GeometryContext(bundle, s, metric or MetricSpec(), psi)


def example22_context(eps=0.05, q_text="z0^2 + 2*z1*z2", f_text="z0*z2 - z1^2"):
    bundle = (2, 2)
    f = parse_poly(f_text, 3)
    s = (f, HomogeneousPoly(3, 2, {}))
    psi = parse_poly("z0 + 1/2*z1", 3)
    if eps == 0:
        ms = MetricSpec()
    else:
        ms = MetricSpec("perturbed", epsilon=eps, pair=(0, 1), q=parse_poly(q_text, 3), f_index=0)
    return GeometryContext(bundle, s, ms, psi)


# ---------------------------------------------------------------- metric


def test_fs_metric_p1_origin():
    ctx = p1_o2_context()
    H = ctx.metric_matrix_batch(0, np.array([[0.0j]]))[0]
    assert np.allclose(H, [[1.0]])


def test_fs_metric_p2_mixed_degrees():
    bundle = (1, 2)
    s = (parse_poly("z1", 3), parse_poly("z2^2", 3))
    ctx = GeometryContext(bundle, s, MetricSpec())
    w = [1.0 / np.sqrt(2), 1.0 / np.sqrt(2) * 1j]  # |w|^2 = 1
    H = ctx.metric_matrix_batch(0, np.array([w]))[0]
    assert np.allclose(H, np.diag([0.5, 0.25]))


def test_perturbed_offdiagonal_vanishes_on_curve():
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    # point of Z = {z0 z2 = z1^2} in chart 0: w = (w1, w1^2)
    w = [0.73 - 0.21j, (0.73 - 0.21j) ** 2]
    H = ctx.metric_matrix_batch(0, np.array([w]))[0]
    assert abs(H[0, 1]) < 1e-14 and abs(H[1, 0]) < 1e-14
    off = ctx.metric_matrix_batch(0, np.array([[0.3 + 0j, 0.4]]))[0, 0, 1]
    assert abs(off) > 1e-6  # but not off the curve


def test_perturbed_metric_hermitian_and_pd():
    ctx = example22_context()
    rng = np.random.default_rng(1)
    W = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    H = ctx.metric_matrix_batch(0, W)
    assert np.allclose(H, np.conj(np.swapaxes(H, 1, 2)))
    assert np.linalg.eigvalsh(H).min() > 0
    assert ctx.pd_margin > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_min_eigenvalue_closed_form_matches_eigvalsh(n):
    # seeded Hermitian stacks, half of them made near-singular by moving the
    # spectrum so that its smallest eigenvalue is 1e-13 of its largest
    rng = np.random.default_rng(20 + n)
    A = rng.normal(size=(400, n, n)) + 1j * rng.normal(size=(400, n, n))
    H = A @ np.conj(np.swapaxes(A, 1, 2))
    eigs = np.linalg.eigvalsh(H)
    H[::2] -= (eigs[::2, 0] - 1e-13 * eigs[::2, -1])[:, None, None] * np.eye(n)
    H += 0.3j * (A - np.conj(np.swapaxes(A, 1, 2)))  # an anti-Hermitian part, which the form ignores
    reference = np.linalg.eigvalsh(0.5 * (H + np.conj(np.swapaxes(H, 1, 2))))
    got = _min_eigenvalue(H)
    assert np.all(np.abs(got - reference[:, 0]) <= 1e-12 * np.abs(reference).max(axis=1))


def test_certificate_compiles_the_metric_alone(monkeypatch):
    # the certificate evaluates H on every chart without assembling the
    # density functions (xi, |s|^2, Abar, G) of any chart, and a later H
    # evaluation reuses the group it compiled
    assembled, compiled = [], []
    assemble, group = projgeom._assemble_chart, projgeom.ChartGroup

    def counted_assembly(*args):
        assembled.append(args[0])
        return assemble(*args)

    def counted_group(*args):
        compiled.append(len(args[1]))
        return group(*args)

    monkeypatch.setattr(projgeom, "_assemble_chart", counted_assembly)
    monkeypatch.setattr(projgeom, "ChartGroup", counted_group)
    ctx = example22_context()
    assert ctx.pd_margin > 0 and assembled == [] and compiled == [4, 4, 4]
    ctx.metric_matrix_batch(0, np.array([[0.3 + 0j, 0.4]]))
    assert assembled == [] and compiled == [4, 4, 4]
    ctx.chart_data(0)
    assert assembled == [0]


def test_oversized_perturbation_rejected():
    with pytest.raises(GeometryError):
        example22_context(eps=500.0)


def test_psi_degree_validation():
    bundle = (1,)  # D = 1 - 1 - 1 < 0
    s = (parse_poly("z1", 2),)
    with pytest.raises(GeometryError):
        GeometryContext(bundle, s, MetricSpec(), HomogeneousPoly(2, 0, {}))


# ---------------------------------------------------------------- section


def test_s_norm_vanishes_on_zero():
    ctx = p1_o2_context()
    n2 = ctx.s_norm2_batch(0, np.array([[1.0 + 0j]]))[0]
    assert abs(n2) < 1e-15


def test_s_norm_p1_o2_closed_form():
    # V = O(2), s = z0 z1: |s|^2 = |w|^2 / (1+|w|^2)^2 on chart 0
    bundle = (2,)
    s = (parse_poly("z0*z1", 2),)
    ctx = GeometryContext(bundle, s, MetricSpec())
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = complex(rng.normal(), rng.normal())
        n2 = ctx.s_norm2_batch(0, np.array([[w]]))[0]
        expected = abs(w) ** 2 / (1 + abs(w) ** 2) ** 2
        assert abs(n2 - expected) < 1e-13


def test_s_norm_chart_invariant():
    ctx = example22_context()
    rng = np.random.default_rng(3)
    Z = fs_uniform_points(2, 500, rng)
    for z in Z:
        if min(abs(z[0]), abs(z[1])) < 0.2:
            continue
        a = ctx.s_norm2_batch(0, chart_coords(z, 0)[None])[0]
        b = ctx.s_norm2_batch(1, chart_coords(z, 1)[None])[0]
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


# ---------------------------------------------------------------- S form


def test_sform_at_zero_fs_metric():
    # at a zero of s only h_i conj(df_i) survives in the one-form part
    ctx = p1_o2_context()
    t = 0.7
    S = ctx.S_form(0, [1.0], t)
    assert abs(S.scalar_part) < 1e-14
    h = (1 + 1.0) ** -2
    expected = -h * np.conj(2.0) / (2 * t)  # f = w^2 - 1, df = 2w at w=1
    assert abs(S.one_form[(1, 1)] - expected) < 1e-13


def test_sform_t_validation():
    ctx = p1_o2_context()
    with pytest.raises(GeometryError):
        ctx.S_form(0, [0.5], 0.0)


def test_sform_dbar_finite_difference_crosscheck():
    """Central differences of xi in wbar against the exact one-form."""
    ctx = example22_context()
    data = ctx.chart_data(0)
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(200):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        for b in range(2):
            for p in range(2):
                exact = data.Abar[b][p].eval_batch(w[None])[0]
                ex = np.zeros(2, complex)
                ex[b] = h
                xi = data.xi[p].eval_batch(np.array([w + ex, w - ex, w + 1j * ex, w - 1j * ex]))
                fd_x = (xi[0] - xi[1]) / (2 * h)
                fd_y = (xi[2] - xi[3]) / (2 * h)
                fd = 0.5 * (fd_x + 1j * fd_y)  # d/dwbar
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@pytest.mark.parametrize("chart", [0, 1, 2])
def test_batched_sform_data_match_pointwise_eval(chart):
    """s_norm2_batch and sbar_matrix_batch (the reference values the density
    group is tested against) against the chart functions evaluated one point
    at a time."""
    ctx = example22_context()
    data = ctx.chart_data(chart)
    rng = np.random.default_rng(60 + chart)
    W = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    s2 = ctx.s_norm2_batch(chart, W)
    A = ctx.sbar_matrix_batch(chart, W)
    assert s2.shape == (50,) and A.shape == (50, 2, 2)
    for m, w in enumerate(W):
        ref = data.s_norm2.eval_batch(w[None])[0]
        assert abs(ref.imag) <= 1e-12 * max(1.0, abs(ref))
        assert abs(s2[m] - ref.real) <= 1e-13 * max(1.0, abs(ref))
        for b in range(2):
            for p in range(2):
                ref = data.Abar[b][p].eval_batch(w[None])[0]
                assert abs(A[m, b, p] - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("chart", [0, 1, 2])
def test_density_group_matches_batched_data(chart):
    """The density group's rows against s_norm2_batch, sbar_matrix_batch and
    psi_batch, entry by entry, the chart functions' rows bit for bit."""
    ctx = example22_context()
    rng = np.random.default_rng(70 + chart)
    W = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    V = ctx.density_group(chart).eval_batch(W)
    assert V.shape == (6, 50)
    assert np.array_equal(V[0].real, ctx.s_norm2_batch(chart, W))
    A = ctx.sbar_matrix_batch(chart, W)
    for b in range(2):
        for p in range(2):
            assert np.array_equal(V[1 + 2 * b + p], A[:, b, p])
    # P alone is one polynomial, which the BLAS may sum in another order
    psi = ctx.psi_batch(chart, W)
    assert np.all(np.abs(V[5] - psi) <= 1e-14 * np.abs(psi))


# ---------------------------------------------------------------- curvature


def test_curvature_first_call_from_two_threads(monkeypatch):
    """A thread that calls while another is halfway through building an
    entry's curvature functions (paused in its first dbar) gets the entry."""
    ctx = example22_context()
    ctx.chart_data(0)  # built here, so the first dbar is the curvature build's
    W = np.array([[0.3 + 0.1j, 0.2 - 0.4j]] * 4)
    paused, resumed = threading.Event(), threading.Event()
    dbar = ChartFunction.dbar

    def pausing_dbar(self, b):
        if threading.current_thread().name == "first" and not paused.is_set():
            paused.set()
            resumed.wait(timeout=30)
        return dbar(self, b)

    monkeypatch.setattr(ChartFunction, "dbar", pausing_dbar)
    results = {}

    def call():
        try:
            results[threading.current_thread().name] = ctx.chern_curvature_batch(0, W, entry=(0, 1, 1))
        except Exception as exc:  # reported by the assertion below
            results[threading.current_thread().name] = exc
        finally:
            resumed.set()

    first = threading.Thread(target=call, name="first")
    first.start()
    assert paused.wait(timeout=30)
    second = threading.Thread(target=call, name="second")
    second.start()
    second.join(timeout=60)
    first.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()
    assert isinstance(results["second"], np.ndarray), results["second"]
    assert np.array_equal(results["first"], results["second"])


def test_fs_curvature_p1_closed_form():
    ctx = p1_o2_context()
    for w in [0.0, 0.35 - 0.8j, 1.2 + 0.4j]:
        R = ctx.chern_curvature_batch(0, np.array([[w]], dtype=complex), entry=(0, 0, 0))[0]
        expected = 2.0 / (1 + abs(w) ** 2) ** 2  # degree d = 2
        assert abs(R[0] - expected) < 1e-12


def test_fs_curvature_off_diagonal_zero():
    ctx = example22_context(eps=0)
    rng = np.random.default_rng(5)
    W = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    R = full_curvature(ctx, 0, W)
    assert np.abs(R[:, 0, 1]).max() < 1e-14
    assert np.abs(R[:, 1, 0]).max() < 1e-14


@pytest.mark.parametrize("chart", [0, 1, 2])
@pytest.mark.parametrize("base", [0, 1])
def test_curvature_entry_matches_full_tensor(chart, base):
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    normal = 1 - base
    rng = np.random.default_rng(10 + chart)
    W = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    full = reference_curvature(ctx, chart, W)[:, geo.f_index, geo.v_index, normal, :]
    entry = ctx.chern_curvature_batch(chart, W, entry=(geo.f_index, geo.v_index, normal))
    assert entry.shape == full.shape
    assert np.all(np.abs(entry - full) <= 1e-13 * np.abs(full))


def _fd_curvature(ctx, chart, w, h=1e-4):
    """Nested Richardson central differences of G^{-1} dG; independent oracle."""

    def G(pt):
        return ctx.metric_matrix_batch(chart, np.asarray(pt, dtype=complex)[None])[0].T

    def dG(pt, a, step):
        ex = np.zeros(ctx.n, complex)
        ex[a] = step
        dx = (G(pt + ex) - G(pt - ex)) / (2 * step)
        dy = (G(pt + 1j * ex) - G(pt - 1j * ex)) / (2 * step)
        return 0.5 * (dx - 1j * dy)  # d/dw_a

    def K(pt, a, step):
        return np.linalg.inv(G(pt)) @ dG(pt, a, step)

    def dbarK(pt, a, b, step):
        ex = np.zeros(ctx.n, complex)
        ex[b] = step
        dx = (K(pt + ex, a, step) - K(pt - ex, a, step)) / (2 * step)
        dy = (K(pt + 1j * ex, a, step) - K(pt - 1j * ex, a, step)) / (2 * step)
        return 0.5 * (dx + 1j * dy)  # d/dwbar_b

    n = ctx.n
    out = np.zeros((n, n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            c1 = -dbarK(np.asarray(w, complex), a, b, h)
            c2 = -dbarK(np.asarray(w, complex), a, b, h / 2)
            out[:, :, a, b] = (4 * c2 - c1) / 3.0
    return out


def test_perturbed_curvature_matches_fd_oracle():
    ctx = example22_context()
    rng = np.random.default_rng(6)
    for _ in range(5):
        w = rng.normal(size=2) * 0.7 + 1j * rng.normal(size=2) * 0.7
        exact = full_curvature(ctx, 0, w[None])[0]
        fd = _fd_curvature(ctx, 0, w)
        assert np.abs(exact - fd).max() <= 1e-6 * max(1.0, np.abs(exact).max())


def test_perturbed_curvature_continuous_at_zero_eps():
    fs = example22_context(eps=0)
    tiny = example22_context(eps=1e-9)
    rng = np.random.default_rng(7)
    W = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    Rf = full_curvature(fs, 0, W)
    Rt = full_curvature(tiny, 0, W)
    assert np.abs(Rf - Rt).max() < 1e-7


def test_curvature_metric_compatibility_pairing():
    """G R[a][b] = (G R[b][a])^H : compatibility of the Chern connection."""
    ctx = example22_context()
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        G = ctx.metric_matrix_batch(0, w[None])[0].T
        R = full_curvature(ctx, 0, w[None])[0]
        for a in range(2):
            for b in range(2):
                M_ab = G @ R[:, :, a, b]
                M_ba = G @ R[:, :, b, a]
                assert np.abs(M_ab - M_ba.conj().T).max() <= 1e-8 * max(1.0, np.abs(M_ab).max())


def test_curvature_offdiag_on_curve_closed_form():
    """On Z the off-diagonal block collapses to eps dbar(Qt/H11) ^ df with
    Qt = conj(q) (1+|w|^2)^{-(d+k)}; derived by hand, pins the analytic path."""
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    d_sum = sum(ctx.degrees)
    q = ctx.metric.q.dehomogenize(0)
    f = geo.f_aff(0)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(10):
        w1 = complex(rng.normal(), rng.normal()) * 0.8
        # place the point on the curve: w2 = w1^2 for f = z0 z2 - z1^2
        w = np.array([w1, w1 * w1])
        assert abs(f.eval(list(w))) < 1e-12
        R = full_curvature(ctx, 0, w[None])[0, 0, 1]  # output L, input V_1

        def Qt_over_H11(pt):
            qv = np.conj(q.eval(list(pt)))
            wt = (1 + np.abs(pt[0]) ** 2 + np.abs(pt[1]) ** 2)
            return qv * wt ** (-(d_sum)) / wt ** (-2.0)

        eps = ctx.metric.epsilon
        for a in range(2):
            dfa = f.partial(a).eval(list(w))
            for b in range(2):
                ex = np.zeros(2, complex)
                ex[b] = h
                gx = (Qt_over_H11(w + ex) - Qt_over_H11(w - ex)) / (2 * h)
                gy = (Qt_over_H11(w + 1j * ex) - Qt_over_H11(w - 1j * ex)) / (2 * h)
                dbar_b = 0.5 * (gx + 1j * gy)
                # dbar(X) ^ df carries -X_b df_a along dw_a ^ dwbar_b
                expected = -eps * dbar_b * dfa
                assert abs(R[a, b] - expected) <= 1e-5 * max(1.0, abs(expected))


# ---------------------------------------------------------------- ds and psi


def _ds(ctx, chart, w):
    """Jacobian d(s_aff)/dw at one point: rows components, columns chart variables."""
    s_aff = ctx.chart_data(chart).s_aff
    return np.array([[s_aff[i].partial(k).eval(w) for k in range(ctx.n)] for i in range(ctx.n)])


def test_ds_identity_section():
    bundle = (1, 1)
    s = (parse_poly("z1", 3), parse_poly("z2", 3))
    ctx = GeometryContext(bundle, s, MetricSpec())
    J = _ds(ctx, 0, [0.0, 0.0])
    assert np.allclose(J, np.eye(2))


def test_ds_diag_section():
    bundle = (2, 1)
    s = (parse_poly("z1^2 - z0^2", 3), parse_poly("z2", 3))
    ctx = GeometryContext(bundle, s, MetricSpec())
    J = _ds(ctx, 0, [1.0, 0.0])
    assert np.allclose(J, np.diag([2.0, 1.0]))


def test_ds_split_section_rank_one():
    ctx = example22_context()
    J = _ds(ctx, 0, [0.5, 0.25])
    assert np.allclose(J[1], 0)
    assert np.linalg.matrix_rank(J) == 1


def test_psi_over_det_ds_axis_curve():
    # f = z2 (chart 0: w_2), Z is the w_1 axis; psi/df = psi(w1, 0) dw_1 (x) e_2
    bundle = (1, 3)
    f = parse_poly("z2", 3)
    s = (f, HomogeneousPoly(3, 3, {}))
    psi = parse_poly("z0 - z1", 3)
    ctx = GeometryContext(bundle, s, MetricSpec(), psi)
    geo = Example22Geometry(ctx)
    for w1 in [0.3, -1.2 + 0.5j]:
        val = geo.psi_over_det_ds_batch(0, np.array([[w1, 0.0]], dtype=complex))[0]
        assert abs(val - (1.0 - w1)) < 1e-13


def test_psi_over_det_ds_linearity():
    ctx1 = example22_context()
    bundle = ctx1.degrees
    s = ctx1.section
    psi2 = parse_poly("z2 - 2*z1", 3)
    ctx2 = GeometryContext(bundle, s, ctx1.metric, psi2)
    psi_sum = ctx1.psi + psi2
    ctx3 = GeometryContext(bundle, s, ctx1.metric, psi_sum)
    g1, g2, g3 = (Example22Geometry(c) for c in (ctx1, ctx2, ctx3))
    w1 = 0.4 - 0.7j
    W = np.array([[w1, w1 * w1]])
    v1, v2, v3 = (g.psi_over_det_ds_batch(0, W)[0] for g in (g1, g2, g3))
    assert abs(v1 + v2 - v3) < 1e-13


# ---------------------------------------------------------------- R^{V_1}_s


def test_curvature_term_zero_for_fs():
    ctx = example22_context(eps=0)
    geo = Example22Geometry(ctx)
    w1 = 0.6 + 0.2j
    assert abs(geo.curvature_term_batch(0, np.array([[w1, w1 * w1]]))[0]) < 1e-14


def test_curvature_term_nonzero_for_perturbed():
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    w1 = 0.6 + 0.2j
    assert abs(geo.curvature_term_batch(0, np.array([[w1, w1 * w1]]))[0]) > 1e-5


def test_curvature_term_well_definedness():
    """Feeding tangents in both slots contributes nothing on Z."""
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    f1, f2 = geo.df(0)
    rng = np.random.default_rng(10)
    for _ in range(10):
        w1 = complex(rng.normal(), rng.normal()) * 0.7
        w = [w1, w1 * w1]
        tau = np.array([1.0, -f1.eval(w) / f2.eval(w)])
        R = full_curvature(ctx, 0, np.array([w]))[0, geo.f_index, geo.v_index]
        val = tau @ R @ np.conj(tau)
        assert abs(val) < 1e-8


def test_curvature_term_matches_on_curve_closed_form():
    """r = eps dbar_taubar(Qt/H11) along the sheet, by the hand derivation."""
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    d_sum = sum(ctx.degrees)
    q = ctx.metric.q.dehomogenize(0)
    h = 1e-6

    def Qt_over_H11(pt):
        qv = np.conj(q.eval(list(pt)))
        wt = 1 + np.abs(pt[0]) ** 2 + np.abs(pt[1]) ** 2
        return qv * wt ** (-(d_sum - 2.0))

    rng = np.random.default_rng(11)
    for _ in range(8):
        w1 = complex(rng.normal(), rng.normal()) * 0.6
        w = np.array([w1, w1 * w1])
        # dbar along the conjugated tangent: FD along the sheet parameter
        up = np.array([w1 + h, (w1 + h) ** 2])
        dn = np.array([w1 - h, (w1 - h) ** 2])
        upi = np.array([w1 + 1j * h, (w1 + 1j * h) ** 2])
        dni = np.array([w1 - 1j * h, (w1 - 1j * h) ** 2])
        gx = (Qt_over_H11(up) - Qt_over_H11(dn)) / (2 * h)
        gy = (Qt_over_H11(upi) - Qt_over_H11(dni)) / (2 * h)
        dbar_tau = 0.5 * (gx + 1j * gy)
        expected = ctx.metric.epsilon * dbar_tau
        got = geo.curvature_term_batch(0, w[None])[0]
        assert abs(got - expected) <= 1e-4 * max(1e-6, abs(expected))


# ---------------------------------------------------------------- charts


def test_transition_jacobian_inverse_pair():
    rng = np.random.default_rng(12)
    for _ in range(10):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        w0 = chart_coords(z, 0)
        J01 = transition_jacobian(w0, 0, 1, 2)
        w1 = chart_coords(z, 1)
        J10 = transition_jacobian(w1, 1, 0, 2)
        assert np.allclose(J01 @ J10, np.eye(2), atol=1e-12)


def test_metric_pairing_transition():
    """H^(a) = H^(0) (z_a/z_0)^{d_i} conj(z_a/z_0)^{d_j} entrywise."""
    ctx = example22_context()
    degs = ctx.degrees
    rng = np.random.default_rng(13)
    for _ in range(20):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        H0 = ctx.metric_matrix_batch(0, chart_coords(z, 0)[None])[0]
        H1 = ctx.metric_matrix_batch(1, chart_coords(z, 1)[None])[0]
        r = z[1] / z[0]
        for i in range(2):
            for j in range(2):
                factor = r ** degs[i] * np.conj(r) ** degs[j]
                assert abs(H1[i, j] - H0[i, j] * factor) <= 1e-12 * max(1.0, abs(H0[i, j] * factor))


def test_smooth_curve_certification():
    smooth = Example22Geometry(example22_context(eps=0))
    assert smooth.smoothness_defect() is None
    # two crossing lines: singular at the node
    bundle = (2, 2)
    s = (parse_poly("z1*z2", 3), HomogeneousPoly(3, 2, {}))
    nodal = Example22Geometry(GeometryContext(bundle, s, MetricSpec()))
    assert nodal.smoothness_defect() is not None


def plane_curve(F):
    """The split-section geometry of the plane curve {F = 0}."""
    if isinstance(F, str):
        F = parse_poly(F, 3)
    s = (F, HomogeneousPoly(3, 1, {}))
    return Example22Geometry(GeometryContext((F.degree, 1), s, MetricSpec()))


def counted(monkeypatch, name):
    """The results of each call of syszero's function ``name``, wherever the
    curve check looks it up."""
    from residue_lab import projgeom, syszero

    calls = []
    original = getattr(syszero, name)

    def wrapped(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    for module in (syszero, projgeom):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, wrapped)
    return calls


def counted_solves(monkeypatch):
    return counted(monkeypatch, "solve_square_system")


@pytest.mark.parametrize(
    "text, smooth",
    [
        ("z0*z1^2 - z2^3", False),  # cusp, tau = 2
        ("z0^3 + z1^3 + z2^3", True),  # Fermat
        ("z0^2*z2^2 - z1^4", False),  # two tacnodes
        ("z0*z2^2 - z1^2*(z1 + z0)", False),  # nodal cubic
        ("z1 + 2*z2", True),  # a line
        ("(z1 + 2*z2)^2", False),  # non-reduced: the singular locus is a line
        ("z0*z1^2 + z1^3", False),
        ("(z0 + z1 + z2)^3", False),
        ("z0*z1*z2", False),  # three nodes
        ("(z0^2 + z1^2 + z2^2)*(z0 + z1 - z2)", False),  # two nodes
        ("z2*z0^3 - z1^4", False),  # an E6 point, tau = 6
        ("z1^2*(z0^2 + z1^2 + z2^2)", False),  # a double line: null dimension 10 at D = 7, 11 at 8
    ],
)
def test_certificate_verdicts(monkeypatch, text, smooth):
    solves, eigen = counted_solves(monkeypatch), counted(monkeypatch, "_eigen_zeros")
    F = parse_poly(text, 3)
    defect = plane_curve(F).smoothness_defect()
    assert (defect is None) is smooth
    assert len(solves) == 0
    reduced = text not in ("(z1 + 2*z2)^2", "z0*z1^2 + z1^3", "(z0 + z1 + z2)^3", "z1^2*(z0^2 + z1^2 + z2^2)")
    assert len(eigen) == int(reduced and not smooth)
    if not reduced:
        assert defect == "the singular locus is not finite: the curve has a multiple component"
    elif not smooth:
        # the named point is the first eigenvalue zero, and every partial vanishes there
        z = eigen[0][0][0]
        z = z / z[np.argmax(np.abs(z))]
        assert defect == f"singular point at {_point_text(z)}"
        assert max(_normalized_eval(F.partial(k), z) for k in range(3)) <= 1e-8


def test_random_dense_curves_are_certified_with_no_solve(monkeypatch):
    calls = counted_solves(monkeypatch)
    rng = np.random.default_rng(2024)
    for k in range(12):
        d = 2 + k % 2
        F = HomogeneousPoly(
            3, d, {e: complex(rng.standard_normal(), rng.standard_normal()) for e in monomials_of_degree(3, d)}
        )
        assert plane_curve(F).smoothness_defect() is None
    assert len(calls) == 0


@pytest.mark.parametrize("scale", [1e-9, 1e9])
@pytest.mark.parametrize("text", ["z1^2 + z2^2 - z0^2", "z1*z2", "z0*z1^2 - z2^3"])
def test_certificate_is_scale_free(text, scale):
    F = parse_poly(text, 3)
    assert (plane_curve(F.scale(scale)).smoothness_defect() is None) is (plane_curve(F).smoothness_defect() is None)


def test_refusal_names_the_singular_point_or_the_path_count():
    # the node of z1*z2 at (1:0:0), given in the section's own frame
    assert plane_curve("z1*z2").smoothness_defect() == "singular point at (1+0j, 0+0j, 0+0j)"
    # the cusp of z0 z1^2 = z2^3 at (1:0:0)
    assert plane_curve("z0*z1^2 - z2^3").smoothness_defect() == "singular point at (1+0j, 0+0j, 0+0j)"
    assert plane_curve("z0^3 + z1^3 + z2^3").smoothness_defect() is None


# ---------------------------------------------------- one curvature group


@pytest.mark.parametrize("entry", [(1, 0, 0), (0, 1, 1)])
def test_curvature_matrices_come_from_one_group(entry):
    # one call builds one group, and each matrix it holds equals its chart
    # functions evaluated on their own: G, dbar_b G, column j of d_a G and
    # column j of d_a dbar_b G
    from residue_lab.projgeom import _eval_matrices

    ctx = example22_context()
    data = ctx.chart_data(0)
    before = set(data.groups)
    rng = np.random.default_rng(21)
    W = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
    ctx.chern_curvature_batch(0, W, entry=entry)
    (key,) = set(data.groups) - before
    _, j, a = entry
    dGa = [[row[j].d(a)] for row in data.G]
    want = [data.G] + [[[g.dbar(b) for g in row] for row in data.G] for b in range(2)] + [dGa]
    want += [[[f.dbar(b) for f in row] for row in dGa] for b in range(2)]
    got = _eval_matrices(data.groups[key], W)
    assert [m.shape for m in got] == [(300, 2, 2)] * 3 + [(300, 2, 1)] * 3
    for mat, fns in zip(got, want):
        ref = _function_matrix(fns, W)
        assert np.abs(mat - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


def test_an_entry_builds_only_its_own_derivatives(monkeypatch):
    # the curve's entry on P^2 builds column j of d_a G (2 d), dbar_b G and
    # dbar_b of that column (8 + 4 dbar), and a second call builds none
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    ctx.chart_data(0)
    counts = {"d": 0, "dbar": 0}
    for name in counts:

        def counted(self, a, name=name, derivative=getattr(ChartFunction, name)):
            counts[name] += 1
            return derivative(self, a)

        monkeypatch.setattr(ChartFunction, name, counted)
    W = np.array([[0.3 + 0.1j, 0.09 + 0.06j]])
    geo.curvature_term_batch(0, W)
    assert counts == {"d": 2, "dbar": 12}
    geo.curvature_term_batch(0, W)
    assert counts == {"d": 2, "dbar": 12}


@pytest.mark.parametrize("entry", [(1, 0, 0), (0, 1, 1)])
def test_curvature_blocks_are_independent(entry):
    # ROW_BLOCK + 37 points give, bit for bit, the two blocks evaluated apart
    from residue_lab.polycore import ROW_BLOCK

    ctx = example22_context()
    rng = np.random.default_rng(22)
    W = rng.normal(size=(ROW_BLOCK + 37, 2)) + 1j * rng.normal(size=(ROW_BLOCK + 37, 2))
    whole = ctx.chern_curvature_batch(0, W, entry=entry)
    parts = [ctx.chern_curvature_batch(0, W[s], entry=entry) for s in (slice(0, ROW_BLOCK), slice(ROW_BLOCK, None))]
    assert np.array_equal(whole, np.concatenate(parts))
    assert np.all(whole[-37:] != 0)


# ------------------------------------- closed-form inverse and curvature


def well_conditioned(n, count=500, seed=23):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return A + 3.0 * n * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_inverse_matches_lapack(n):
    from residue_lab.projgeom import _inv

    A = well_conditioned(n)
    ref = np.linalg.inv(A)
    scale = np.abs(ref).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(_inv(A) - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_of_a_singular_matrix_raises(n):
    from residue_lab.projgeom import _inv

    A = well_conditioned(n, count=4)
    A[2, -1] = 0.0  # a zero row: one exactly singular matrix in the stack
    with pytest.raises(np.linalg.LinAlgError):
        _inv(A)


def _function_matrix(fns, W):
    """The (N, n, n) matrix of a nested list of chart functions, entry by entry."""
    return np.stack([np.stack([f.eval_batch(W) for f in row], axis=-1) for row in fns], axis=1)


def reference_curvature(ctx, chart, W):
    """R[a][b] = G^{-1}(dbar_b G) G^{-1}(d_a G) - G^{-1}(d_a dbar_b G) with
    LAPACK's inverse and stacked @, every matrix evaluated entry by entry from
    derivatives of G taken here."""
    G = ctx.chart_data(chart).G
    n = ctx.n
    Ginv = np.linalg.inv(_function_matrix(G, W))
    R = np.zeros((len(W), n, n, n, n), dtype=complex)
    for a in range(n):
        dGa = [[g.d(a) for g in row] for row in G]
        for b in range(n):
            left = Ginv @ _function_matrix([[g.dbar(b) for g in row] for row in G], W) @ Ginv
            d2G = _function_matrix([[f.dbar(b) for f in row] for row in dGa], W)
            R[:, :, :, a, b] = left @ _function_matrix(dGa, W) - Ginv @ d2G
    return R


CURVATURE_CONTEXTS = {
    "p2_fs": (lambda: example22_context(eps=0), (0, 1, 1)),
    "p2_perturbed": (example22_context, (0, 1, 1)),
    "p1": (p1_o2_context, (0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(CURVATURE_CONTEXTS))
def test_curvature_matches_the_lapack_reference(name):
    build, (i, j, a) = CURVATURE_CONTEXTS[name]
    ctx = build()
    rng = np.random.default_rng(24)
    W = rng.normal(size=(400, ctx.n)) + 1j * rng.normal(size=(400, ctx.n))
    ref = reference_curvature(ctx, 0, W)
    scale = np.abs(ref).reshape(len(W), -1).max(axis=1)
    full = full_curvature(ctx, 0, W)
    assert np.all(np.abs(full - ref) <= 1e-12 * scale[:, None, None, None, None])
    entry = ctx.chern_curvature_batch(0, W, entry=(i, j, a))
    assert np.all(np.abs(entry - ref[:, i, j, a, :]) <= 1e-12 * scale[:, None])


@pytest.mark.parametrize("chart", [0, 1])
def test_curvature_blocks_are_independent_on_p1(chart):
    # ROW_BLOCK + 37 points give, bit for bit, the two blocks evaluated apart;
    # test_curvature_blocks_are_independent covers the rank-2 case on P^2
    from residue_lab.polycore import ROW_BLOCK

    build, entry = CURVATURE_CONTEXTS["p1"]
    ctx = build()
    rng = np.random.default_rng(25)
    W = rng.normal(size=(ROW_BLOCK + 37, ctx.n)) + 1j * rng.normal(size=(ROW_BLOCK + 37, ctx.n))
    whole = ctx.chern_curvature_batch(chart, W, entry=entry)
    parts = [ctx.chern_curvature_batch(chart, W[s], entry=entry) for s in (slice(0, ROW_BLOCK), slice(ROW_BLOCK, None))]
    assert whole.tobytes() == np.concatenate(parts).tobytes()


# ------------------------------------------ structural zeros of a split metric


@pytest.mark.parametrize("entry", [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)])
def test_fs_off_diagonal_entry_is_zero_with_nothing_compiled(monkeypatch, entry):
    # G is diagonal under Fubini-Study: the entry is exact zeros, with no
    # group compiled, no derivative taken and no inverse or product formed
    ctx = example22_context(eps=0)
    data = ctx.chart_data(0)
    before = set(data.groups)
    counts = {"d": 0, "dbar": 0}
    for name in counts:

        def counted(self, a, name=name, derivative=getattr(ChartFunction, name)):
            counts[name] += 1
            return derivative(self, a)

        monkeypatch.setattr(ChartFunction, name, counted)

    def refused(*args):
        raise AssertionError("a structural zero needs no matrix algebra")

    monkeypatch.setattr(projgeom, "_inv", refused)
    monkeypatch.setattr(projgeom, "_mm", refused)
    rng = np.random.default_rng(27)
    W = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
    R = ctx.chern_curvature_batch(0, W, entry=entry)
    assert R.shape == (300, 2) and R.dtype == complex and not R.any()
    assert counts == {"d": 0, "dbar": 0}
    assert set(data.groups) == before


@pytest.mark.parametrize("cancelling", [None, (0, 1), (1, 0)], ids=["perturbed", "fs_cancel_01", "fs_cancel_10"])
def test_off_diagonal_terms_keep_the_generic_route(cancelling):
    # the rule reads whether any off-diagonal function of G has terms, not the
    # metric's label: an FS context with one off-diagonal entry of terms that
    # cancel, like a perturbed one, compiles its group and matches the reference
    ctx = example22_context(eps=0.05 if cancelling is None else 0)
    data = ctx.chart_data(0)
    if cancelling is not None:
        r, c = cancelling
        data.G[r][c] = data.G[0][0] - data.G[0][0]
    before = set(data.groups)
    rng = np.random.default_rng(29)
    W = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    R = ctx.chern_curvature_batch(0, W, entry=(0, 1, 1))
    assert set(data.groups) - before == {("curvature", (0, 1, 1))}
    ref = reference_curvature(ctx, 0, W)
    scale = np.abs(ref).reshape(len(W), -1).max(axis=1)
    assert np.all(np.abs(R - ref[:, 0, 1, 1, :]) <= 1e-12 * scale[:, None])


def test_fs_uniform_points_are_the_complex_sum_bit_for_bit():
    Z = fs_uniform_points(2, 16384, np.random.default_rng(np.random.Philox(26)))
    rng = np.random.default_rng(np.random.Philox(26))
    re = rng.standard_normal((16384, 3))
    im = rng.standard_normal((16384, 3))
    assert Z.tobytes() == (re + 1j * im).tobytes()


def _by_chart_reference(Z):
    """by_chart as it read before: every column divided by the chart's, then
    the chart's own column deleted."""
    charts = np.argmax(np.abs(Z), axis=1)
    for chart in range(Z.shape[1]):
        rows = np.flatnonzero(charts == chart)
        if rows.size:
            yield chart, rows, np.delete(Z[rows] / Z[rows, chart][:, None], chart, axis=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_by_chart_divides_only_the_other_columns_bitwise(n):
    rng = np.random.default_rng(np.random.Philox(60 + n))
    Z = fs_uniform_points(n, 500, rng)
    # exact magnitude ties (the first largest coordinate wins), zero and
    # signed-zero coordinates, and a point on a coordinate axis
    Z[0] = [1.0, -1.0j, 0.6 + 0.8j, 1.0j][: n + 1]
    Z[1, 1:] = 0.0
    Z[2, :n] = complex(-0.0, 0.0)
    Z[3] = [0.5, -0.3 + 0.4j, 0.5j, -0.5][: n + 1]
    Z[4, 0] = complex(0.0, -0.0)
    got, want = list(by_chart(Z)), list(_by_chart_reference(Z))
    assert len(got) == len(want) == n + 1
    for (chart, rows, W), (chart_ref, rows_ref, W_ref) in zip(got, want):
        assert chart == chart_ref and np.array_equal(rows, rows_ref)
        assert W.shape == (rows.size, n) and W.flags.c_contiguous  # the layout the charts read
        a, b = W.view(np.float64), W_ref.view(np.float64)
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
