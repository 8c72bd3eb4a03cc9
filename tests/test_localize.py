"""Monte Carlo / quadrature layer: normalization oracle, vanishing estimates,
local masses, curve localization, and determinism.

The two deepest oracles here:

* ``flat_gaussian_mass``: closed-form unit mass for the flat model, pinning
  every sign and constant at once.
* ``fiber_mass_quadrature``: the small-t fiber integral of the global
  integrand against the curve-localized density, pinning the localization
  formula pointwise (not just its vanishing total).
"""

import cmath
import math
from itertools import permutations

import numpy as np
import pytest

from residue_lab import localize
from residue_lab.polycore import ROW_BLOCK, AffinePoly, HomogeneousPoly, monomials_of_degree, parse_poly, row_blocks
from residue_lab.projgeom import (
    Example22Geometry,
    GeometryContext,
    MetricSpec,
    by_chart,
    chart_coords,
    fs_density,
    fs_uniform_points,
    transition_jacobian,
)
from residue_lab.localize import (
    FlatModel,
    _density,
    _density_parts,
    _det,
    _solve_sheets,
    curve_integrand_tensor,
    curve_localized_term,
    det_N_inverse_term,
    fiber_mass_quadrature,
    flat_gaussian_mass,
    global_density,
    global_density_tensor,
    local_mass,
    virtual_residue_sweep,
)
from residue_lab.residue import global_residue_sum
from residue_lab.superalg import SuperTensor, wedge


def p1_o2_context():
    bundle = (2,)
    s = (parse_poly("z1^2 - z0^2", 2),)
    psi = parse_poly("1", 2)
    return GeometryContext(bundle, s, MetricSpec(), psi)


def p2_22_context():
    bundle = (2, 2)
    s = (parse_poly("z1^2 - z0^2", 3), parse_poly("z2^2 - z0^2", 3))
    psi = parse_poly("z0", 3)
    return GeometryContext(bundle, s, MetricSpec(), psi)


def example22_context(eps=0.05, f_text="z1^2 + z2^2 - z0^2"):
    bundle = (2, 2)
    f = parse_poly(f_text, 3)
    s = (f, HomogeneousPoly(3, 2, {}))
    psi = parse_poly("z0 + 1/2*z1", 3)
    if eps == 0:
        ms = MetricSpec()
    else:
        ms = MetricSpec(
            "perturbed",
            epsilon=eps,
            pair=(0, 1),
            q=parse_poly("z0^2 + 2*z1*z2 - z2^2", 3),
            f_index=0,
        )
    return GeometryContext(bundle, s, ms, psi)


# ------------------------------------------------------------------ oracle


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_flat_gaussian_mass_is_one(t):
    val = flat_gaussian_mass(t)
    assert abs(val - 1.0) < 0.01


def test_flat_ball_monte_carlo_mass():
    model = FlatModel([AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j))
    for t in (0.05, 0.2):
        est = local_mass(model, [0.0], t, radius=8 * np.sqrt(2 * t), samples=60000, seed=3)
        assert abs(est.value - 1.0) <= max(3 * est.std_error, 0.02)


def test_flat_model_s_form_coefficients():
    # s = w with flat metric: scalar -|w|^2/2t, one-form -(1/2t) dwbar (x) e*_1
    model = FlatModel([AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j))
    t = 0.4
    S = model.S_form(0, [0.3 + 0.5j], t)
    assert abs(S.scalar_part + abs(0.3 + 0.5j) ** 2 / (2 * t)) < 1e-15
    assert abs(S.one_form[(1, 1)] + 1.0 / (2 * t)) < 1e-15


def test_fast_density_matches_tensor_route():
    ctx = p2_22_context()
    rng = np.random.default_rng(1)
    for _ in range(40):
        chart = int(rng.integers(0, 3))
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = float(rng.uniform(0.3, 2.0))
        fast = global_density(ctx, chart, w.reshape(1, -1), t)[0]
        slow = global_density_tensor(ctx, chart, w, t)
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


@pytest.mark.parametrize("chart", [0, 1, 2])
def test_batched_tensor_route_matches_fast_density_at_every_point(chart):
    ctx = example22_context()
    rng = np.random.default_rng(40 + chart)
    W = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
    t = 0.6
    slow = global_density_tensor(ctx, chart, W, t)
    fast = global_density(ctx, chart, W, t)
    assert slow.shape == (300,)
    assert np.all(np.abs(fast - slow) <= 1e-12 * np.maximum(1.0, np.abs(slow)))
    for m in range(0, 300, 60):
        single = global_density_tensor(ctx, chart, W[m], t)
        assert abs(single - slow[m]) <= 1e-13 * max(1.0, abs(single))


def test_flat_model_density_group_matches_batched_data():
    model = FlatModel(
        [AffinePoly(2, {(2, 0): 1.0, (0, 0): -1.0, (0, 1): 2j}), AffinePoly(2, {(1, 1): 0.5 - 1j, (0, 2): 1.0})],
        AffinePoly(2, {(1, 0): 1.0, (0, 0): 0.25}),
    )
    rng = np.random.default_rng(80)
    W = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    V = model.density_group(0).eval_batch(W)
    s2 = model.s_norm2_batch(0, W)
    assert np.all(np.abs(V[0] - s2) <= 1e-13 * s2)
    A = model.sbar_matrix_batch(0, W)
    for b in range(2):
        for p in range(2):
            assert np.all(np.abs(V[1 + 2 * b + p] - A[:, b, p]) <= 1e-14 * np.abs(A[:, b, p]))
    psi = model.psi_batch(0, W)
    assert np.all(np.abs(V[5] - psi) <= 1e-14 * np.abs(psi))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_det_matches_lapack(n):
    rng = np.random.default_rng(90 + n)
    A = rng.normal(size=(200, n, n)) + 1j * rng.normal(size=(200, n, n))
    ref = np.linalg.det(A)
    assert np.all(np.abs(_det(A) - ref) <= 1e-13 * np.abs(ref))
    # singular: a zero row, or a zero column as for a section (f, 0)
    A[:100, n - 1] = 0
    A[100:, :, n - 1] = 0
    if n <= 3:
        assert np.all(_det(A) == 0)


def test_sweep_equals_single_t_estimates():
    ctx = p2_22_context()
    ts = [0.05, 0.3, 0.5, 1.0, 2.0]
    sweep = virtual_residue_sweep(ctx, ts, samples=20000, seed=5)
    for t, est in zip(ts, sweep):
        single = virtual_residue_sweep(ctx, [t], samples=20000, seed=5)[0]
        assert (est.value, est.std_error, est.t) == (single.value, single.std_error, single.t)


def _sweep_draw_reference(ctx, ts):
    """virtual_residue_sweep's draw as it read before the t-free scatter:
    every chart's (len(ts), rows) density block divided and scattered."""
    n = ctx.n

    def draw(rng, count):
        out = np.zeros((len(ts), count), dtype=complex)
        for chart, rows, W in by_chart(fs_uniform_points(n, count, rng)):
            out[:, rows] = _density(n, *_density_parts(ctx, chart, W), ts) / fs_density(W, n)
        return out

    return draw


@pytest.mark.parametrize(
    "context", [p1_o2_context, p2_22_context, lambda: example22_context(eps=0), example22_context],
    ids=["p1_fs", "p2_fs", "p2_curve_fs", "p2_curve_perturbed"],
)
def test_sweep_draws_match_the_per_chart_scatter_bitwise(context, monkeypatch):
    # chunks of a length no multiple of ROW_BLOCK, the last one shorter
    ctx, ts, samples = context(), [0.05, 0.3, 1.0, 2.0], 2 * (ROW_BLOCK + 37) + 500
    monkeypatch.setattr(localize, "_CHUNK", ROW_BLOCK + 37)
    chunks, summarize = [], localize._summarize

    def record(rows, top):
        chunks.append(rows.copy())
        return summarize(rows, top)

    monkeypatch.setattr(localize, "_summarize", record)
    virtual_residue_sweep(ctx, ts, samples, seed=31)
    got, chunks[:] = chunks[:], []
    localize._run_chunks(_sweep_draw_reference(ctx, ts), samples, 31, 1)
    assert [c.shape for c in got] == [c.shape for c in chunks] == [(4, ROW_BLOCK + 37)] * 2 + [(4, 500)]
    for a, b in zip(got, chunks):
        a, b = a.view(np.float64), b.view(np.float64)
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_global_density_chart_invariance():
    """The prefactored (n,n) density transforms with |det J|^2 across charts."""
    ctx = p2_22_context()
    rng = np.random.default_rng(2)
    t = 0.8
    for _ in range(25):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        if min(abs(z[0]), abs(z[1])) < 0.3:
            continue
        w0 = chart_coords(z, 0)
        w1 = chart_coords(z, 1)
        g0 = global_density(ctx, 0, w0.reshape(1, -1), t)[0]
        g1 = global_density(ctx, 1, w1.reshape(1, -1), t)[0]
        J = transition_jacobian(w0, 0, 1, 2)
        det2 = abs(np.linalg.det(J)) ** 2
        assert abs(g0 - g1 * det2) <= 1e-9 * max(1.0, abs(g0))


# ------------------------------------------------------------------ global MC


def test_virtual_residue_p1_vanishes():
    ctx = p1_o2_context()
    est = virtual_residue_sweep(ctx, [1.0], samples=40000, seed=11)[0]
    assert abs(est.value) <= 3 * est.std_error


def test_virtual_residue_t_family_consistency():
    ctx = p1_o2_context()
    ests = virtual_residue_sweep(ctx, [0.5, 1.0, 2.0], samples=40000, seed=12)
    for a in ests:
        assert abs(a.value) <= 3 * a.std_error
    for a, b in zip(ests, ests[1:]):
        tol = 3 * np.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= tol


def test_virtual_residue_p2_vanishes():
    ctx = p2_22_context()
    est = virtual_residue_sweep(ctx, [1.0], samples=60000, seed=13)[0]
    assert abs(est.value) <= 3 * est.std_error


def test_virtual_residue_seed_determinism():
    ctx = p1_o2_context()
    a = virtual_residue_sweep(ctx, [1.0], samples=5000, seed=7)[0]
    b = virtual_residue_sweep(ctx, [1.0], samples=5000, seed=7)[0]
    assert a.value == b.value and a.std_error == b.std_error


def test_virtual_residue_thread_count_invariance():
    ctx = p1_o2_context()
    a = virtual_residue_sweep(ctx, [1.0], samples=40000, seed=7, threads=1)[0]
    b = virtual_residue_sweep(ctx, [1.0], samples=40000, seed=7, threads=4)[0]
    assert a.value == b.value and a.std_error == b.std_error


def test_three_sigma_coverage_binomial():
    """Over 20 seeds of a true-zero quantity at most one estimate may leave
    its own 3-sigma band."""
    ctx = p1_o2_context()
    misses = 0
    for seed in range(20):
        est = virtual_residue_sweep(ctx, [1.0], samples=8000, seed=seed)[0]
        if abs(est.value) > 3 * est.std_error:
            misses += 1
    assert misses <= 1


def test_minimum_sample_count_enforced():
    from residue_lab.projgeom import GeometryError

    ctx = p1_o2_context()
    with pytest.raises(GeometryError):
        virtual_residue_sweep(ctx, [1.0], samples=10, seed=1)[0]


# ------------------------------------------------------------------ local mass


def test_local_masses_p1_match_residues_and_cancel():
    ctx = p1_o2_context()
    t, radius, N = 0.01, 0.5, 40000
    m_plus = local_mass(ctx, [1.0], t, radius, N, seed=21)
    m_minus = local_mass(ctx, [-1.0], t, radius, N, seed=22)
    assert abs(m_plus.value - 0.5) <= 0.05 * 0.5
    assert abs(m_minus.value + 0.5) <= 0.05 * 0.5
    cancel_tol = 3 * np.hypot(m_plus.std_error, m_minus.std_error)
    assert abs(m_plus.value + m_minus.value) <= cancel_tol


# ------------------------------------------------------------------ curve term


def test_det_n_inverse_term_values():
    E = det_N_inverse_term(0.0)
    assert E.coeff() == -2j * np.pi
    assert len(E.data) == 1
    E = det_N_inverse_term(0.7 - 0.2j)
    assert abs(E.coeff(J=(1,), L=(1,)) - 2j * np.pi * (0.7 - 0.2j)) < 1e-14


def test_det_n_inverse_truncation_on_curve():
    r = SuperTensor.monomial(1, J=(1,), L=(1,), c=0.3 + 0.9j)
    assert wedge(r, r).data == {}


def test_det_n_inverse_linearity():
    a, b = 0.4 + 0.1j, -1.2 + 0.8j
    Ea, Eb = det_N_inverse_term(a), det_N_inverse_term(b)
    Eab = det_N_inverse_term(a + b)
    lin = Ea.add(Eb).add(SuperTensor.scalar(1, 2j * np.pi))  # constants add once
    diff = Eab.add(lin.scale(-1))
    assert diff.norm() < 1e-12


def test_curve_integrand_tensor_matches_fast_formula():
    rng = np.random.default_rng(31)
    for _ in range(50):
        phi = complex(rng.normal(), rng.normal())
        r = complex(rng.normal(), rng.normal())
        slow = curve_integrand_tensor(phi, r)
        fast = phi * r / np.pi
        assert abs(slow - fast) <= 1e-12 * max(1.0, abs(fast))


def test_curve_term_fs_pointwise_zero():
    ctx = example22_context(eps=0)
    geo = Example22Geometry(ctx)
    term = curve_localized_term(geo, samples=10000, seed=41)
    assert term.pointwise_max <= 1e-12
    assert abs(term.value) <= 1e-12


def test_curve_term_perturbed_vanishes_but_not_pointwise():
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    term = curve_localized_term(geo, samples=30000, seed=42)
    assert term.pointwise_max > 1e-4
    assert term.l1_mass > 0
    assert abs(term.value) <= 3 * term.std_error


def test_curve_term_epsilon_scaling_matched_seeds():
    g5 = Example22Geometry(example22_context(eps=0.05))
    g1 = Example22Geometry(example22_context(eps=0.01))
    t5 = curve_localized_term(g5, samples=4000, seed=43)
    t1 = curve_localized_term(g1, samples=4000, seed=43)
    assert abs(t1.value) < abs(t5.value)
    # the curvature term is exactly linear in eps on the curve
    assert abs(5 * t1.value - t5.value) <= 1e-8 * max(1.0, abs(t5.value))


def test_curve_term_seed_determinism():
    geo = Example22Geometry(example22_context())
    a = curve_localized_term(geo, samples=3000, seed=44)
    b = curve_localized_term(geo, samples=3000, seed=44)
    assert a.value == b.value and a.std_error == b.std_error and a.rejected == b.rejected


def test_curve_term_thread_invariance():
    geo = Example22Geometry(example22_context())
    a = curve_localized_term(geo, samples=40000, seed=45, threads=1)
    b = curve_localized_term(geo, samples=40000, seed=45, threads=4)
    assert a.value == b.value and a.std_error == b.std_error


# ---------------------------------------------------- localization oracle


def test_fiber_quadrature_matches_curve_density():
    """Small-t fiber mass against the localized density: the decisive check
    of every constant in the curve formula."""
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    f = geo.f_aff(0)
    for u in (0.4 + 0.3j, -0.8 + 0.2j):
        # curve density summed over the sheets above u
        from residue_lab.localize import _sheet_coefficients, _solve_sheets

        coeffs = np.array([[cp.eval(np.array([u])) for cp in _sheet_coefficients(f)]])
        roots = _solve_sheets(coeffs)[0]
        dens = 0j
        for r in roots:
            w = np.array([u, r])
            phi = geo.psi_over_det_ds_batch(0, w[None])[0]
            rc = geo.curvature_term_batch(0, w[None])[0]
            dens += phi * rc / np.pi
        fiber = fiber_mass_quadrature(geo, u, t=5e-4)
        assert abs(fiber - dens) <= 3e-2 * max(abs(dens), 1e-6)


def test_curve_density_chart_invariance():
    """Pointwise integrand density transported between charts <= 1e-9."""
    ctx = example22_context()
    geo = Example22Geometry(ctx)
    rng = np.random.default_rng(46)
    checked = 0
    for _ in range(40):
        u = complex(rng.normal(), rng.normal())
        w2 = np.sqrt(1.0 - u * u + 0j)  # point on z1^2 + z2^2 = z0^2, chart 0
        w = np.array([u, w2])
        z = np.array([1.0, u, w2])
        if min(abs(z[0]), abs(z[1])) < 0.4 or abs(w2) < 0.3:
            continue
        rho0 = geo.psi_over_det_ds_batch(0, w[None])[0] * geo.curvature_term_batch(0, w[None])[0] / np.pi
        # chart 1 coordinates (z0/z1, z2/z1), base coordinate v0 = 1/u
        v = chart_coords(z, 1)
        rho1 = geo.psi_over_det_ds_batch(1, v[None])[0] * geo.curvature_term_batch(1, v[None])[0] / np.pi
        dv_du = -1.0 / u**2
        assert abs(rho0 - rho1 * abs(dv_du) ** 2) <= 1e-9 * max(1.0, abs(rho0))
        checked += 1
    assert checked >= 10


# ---------------------------------------------------- mass vs ledger


def test_local_masses_sum_to_global_estimate_p1():
    ctx = p1_o2_context()
    ledger = global_residue_sum([parse_poly("z1^2 - z0^2", 2)], parse_poly("1", 2), seed=5)
    t, radius, N = 0.01, 0.5, 30000
    masses = [local_mass(ctx, list(p), t, radius, N, seed=60 + i) for i, (p, _) in enumerate(ledger.entries)]
    total = sum(m.value for m in masses)
    err = np.sqrt(sum(m.std_error**2 for m in masses))
    glob = virtual_residue_sweep(ctx, [1.0], samples=30000, seed=61)[0]
    combined = 3 * np.hypot(err, glob.std_error)
    assert abs(total - glob.value) <= combined


def test_global_vanishing_metric_independent():
    """The vanishing holds for any Hermitian metric, not just Fubini-Study:
    run the global estimator on perturbed-metric instances."""
    # points instance with a perturbation vanishing on {s_1 = 0}
    bundle = (2, 2)
    s = (parse_poly("z1^2 - z0^2", 3), parse_poly("z2^2 - z0^2", 3))
    ms = MetricSpec(
        "perturbed", epsilon=0.05, pair=(0, 1),
        q=parse_poly("z0^2 - z1*z2", 3), f_index=0,
    )
    ctx = GeometryContext(bundle, s, ms, parse_poly("z0", 3))
    est = virtual_residue_sweep(ctx, [1.0], samples=60000, seed=71)[0]
    assert abs(est.value) <= 3 * est.std_error
    # curve instance: the same global integrand, zero locus of dimension one
    ctx22 = example22_context()
    est22 = virtual_residue_sweep(ctx22, [1.0], samples=60000, seed=72)[0]
    assert abs(est22.value) <= 3 * est22.std_error


# ---------------------------------------------------- closed-form sheet roots


def _companion_roots(coeffs):
    """Reference: eigenvalues of each row's companion matrix."""
    m = coeffs.shape[1] - 1
    C = np.zeros((len(coeffs), m, m), dtype=complex)
    C[:, 1:, :-1] = np.eye(m - 1)
    C[:, :, -1] = -coeffs[:, :-1] / coeffs[:, -1:]
    return np.linalg.eigvals(C)


def _backward_error(coeffs, roots):
    """Largest |p(r)| / sum_k |a_k| |r|^k over the roots of every row."""
    powers = roots[:, :, None] ** np.arange(coeffs.shape[1])
    value = np.abs((coeffs[:, None, :] * powers).sum(axis=-1))
    scale = (np.abs(coeffs)[:, None, :] * np.abs(powers)).sum(axis=-1)
    return float((value / scale).max())


@pytest.mark.parametrize("spread", [0, 6])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_solve_sheets_backward_error_against_companion(m, spread):
    # coefficients with magnitudes spread over 10^(+-spread); the closed forms
    # (m <= 3) stay at rounding level where the companion matrix does not
    rng = np.random.default_rng(200 + 10 * m + spread)
    N = 20000
    size = (N, m + 1)
    coeffs = (rng.normal(size=size) + 1j * rng.normal(size=size)) * 10.0 ** rng.uniform(-spread, spread, size)
    roots = _solve_sheets(coeffs)
    assert roots.shape == (N, m)
    ref = _companion_roots(coeffs)
    eps = np.finfo(float).eps
    if m == 4:
        assert np.array_equal(roots, ref)
    else:
        # the cubic's final Newton step takes it from about 3.3 eps to 1.8 eps
        assert _backward_error(coeffs, roots) <= (2.5 if m == 3 else 4) * eps
        assert _backward_error(coeffs, roots) <= max(_backward_error(coeffs, ref), eps)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_solve_sheets_finds_the_companion_roots(m):
    rng = np.random.default_rng(300 + m)
    coeffs = rng.normal(size=(2000, m + 1)) + 1j * rng.normal(size=(2000, m + 1))
    roots, ref = _solve_sheets(coeffs), _companion_roots(coeffs)
    gap = np.min([np.abs(roots[:, list(p)] - ref).max(axis=1) for p in permutations(range(m))], axis=0)
    assert np.max(gap / np.maximum(1.0, np.abs(ref).max(axis=1))) <= 1e-9


@pytest.mark.parametrize(
    "want",
    [[-3], [0], [2, 2], [0, 0], [0, 5], [1, 1, 2], [1, 1, 1], [1 + 2j] * 3, [0, 0, 0], [0, 0, 3], [0, 1j, 3]],
)
def test_solve_sheets_multiple_and_zero_roots(want):
    coeffs = (0.5 - 2j) * np.poly(want)[::-1].astype(complex)[None, :]
    got = _solve_sheets(coeffs)[0]
    want = np.array(want, dtype=complex)
    gap = min(np.abs(got[list(p)] - want).max() for p in permutations(range(len(want))))
    # a root of multiplicity k is determined to about eps^(1/k)
    k = max(int(np.sum(want == w)) for w in want)
    assert gap <= 10 * (1e-16 ** (1 / k)) * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_solve_sheets_empty_and_single_batches(m):
    assert _solve_sheets(np.zeros((0, m + 1), dtype=complex)).shape == (0, m)
    coeffs = np.poly(np.arange(1, m + 1))[::-1].astype(complex)[None, :]
    assert np.allclose(np.sort_complex(_solve_sheets(coeffs)[0]), np.arange(1, m + 1), atol=1e-12)


# ---------------------------------------------------- curvature per row block


def test_curvature_entered_once_per_row_block(monkeypatch):
    # a chunk's accepted sheet points reach chern_curvature_batch one
    # ROW_BLOCK at a time, in order, so a tracer wrapping the public name
    # counts every point once: the calls sum to the chunks' sheet points
    from residue_lab import chartfun, localize, polycore

    monkeypatch.setattr(localize, "_CHUNK", 1500)
    monkeypatch.setattr(polycore, "ROW_BLOCK", 512)
    calls, group_rows = [], []
    curvature = GeometryContext.chern_curvature_batch
    group_eval = chartfun.ChartGroup.eval_batch

    def counted(self, chart, W, **kwargs):
        calls.append(len(W))
        return curvature(self, chart, W, **kwargs)

    def rows_seen(self, W):
        group_rows.append(len(W))
        return group_eval(self, W)

    monkeypatch.setattr(GeometryContext, "chern_curvature_batch", counted)
    monkeypatch.setattr(chartfun.ChartGroup, "eval_batch", rows_seen)
    term = curve_localized_term(Example22Geometry(example22_context()), samples=4000, seed=3)
    assert term.rejected == 0
    # two sheets per sample: chunks of 3000, 3000 and 2000 points
    assert calls == [512] * 5 + [440] + [512] * 5 + [440] + [512] * 3 + [464]
    assert max(group_rows) <= 512


# ---------------------------------------------------- rejected curve samples


def test_branch_rejections_are_thread_invariant(monkeypatch):
    from residue_lab import localize

    monkeypatch.setattr(localize, "_BRANCH_TOL", 0.2)
    geo = Example22Geometry(example22_context())
    a = curve_localized_term(geo, samples=40000, seed=45, threads=1)
    b = curve_localized_term(geo, samples=40000, seed=45, threads=4)
    assert a.rejected == 8
    assert (a.value, a.std_error, a.rejected, a.pointwise_max) == (b.value, b.std_error, b.rejected, b.pointwise_max)


def test_rejected_sample_weighs_zero_and_the_others_are_unchanged(monkeypatch):
    # each chunk is drawn once: a rejected sample keeps its place in the
    # stream with columns (0, 0, 0, 1), and every other sample is the sample
    # drawn at the default tolerance
    from residue_lab import localize

    summarize, chunks = localize._summarize, []

    def kept(rows, top):
        chunks.append(rows)
        return summarize(rows, top)

    monkeypatch.setattr(localize, "_summarize", kept)
    geo = Example22Geometry(example22_context())
    curve_localized_term(geo, samples=20000, seed=45)
    first = len(chunks)
    monkeypatch.setattr(localize, "_BRANCH_TOL", 0.2)
    term = curve_localized_term(geo, samples=20000, seed=45)
    base, cut = (np.concatenate(part, axis=1).T for part in (chunks[:first], chunks[first:]))
    rejected = cut[:, 3] == 1
    assert base[:, 3].sum() == 0 and term.rejected == rejected.sum() > 0
    assert np.all(cut[rejected] == [0, 0, 0, 1])
    assert np.array_equal(cut[~rejected], base[~rejected])
    # the chunk-order merge of the value rows: their sums, added in order
    assert term.value == sum(rows[0].sum() for rows in chunks[first:]) / 20000


def test_every_sample_rejected(monkeypatch):
    from residue_lab import localize

    monkeypatch.setattr(localize, "_BRANCH_TOL", 1e9)
    term = curve_localized_term(Example22Geometry(example22_context()), samples=3000, seed=45)
    assert term.rejected == term.samples == 3000
    assert term.value == 0 and term.l1_mass == 0 and term.pointwise_max == 0


def _traced_peak(run, samples):
    """The tracemalloc peak of run(samples), counting only what it allocates."""
    import tracemalloc

    tracemalloc.start()
    try:
        run(samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimator_memory_does_not_grow_with_the_sample_count():
    # each chunk is reduced to a summary as soon as it is drawn, so ten (or
    # five) times the samples peak within 1 MB of the smaller run; a warm-up
    # run first builds the caches that both runs share
    vr, lm = p2_22_context(), p1_o2_context()
    geo = Example22Geometry(example22_context())
    cases = [
        (lambda count: virtual_residue_sweep(vr, [0.05, 0.1, 0.5, 1.0, 2.0], count, seed=1), 200000),
        (lambda count: local_mass(lm, [1.0], 0.01, 0.5, count, seed=1), 200000),
        (lambda count: curve_localized_term(geo, count, seed=1), 100000),
    ]
    for run, large in cases:
        run(1000)
        small_peak, large_peak = (_traced_peak(run, count) for count in (20000, large))
        assert large_peak - small_peak < 2**20


def test_one_seeded_stream_for_every_estimator():
    import inspect

    from residue_lab import localize

    assert inspect.getsource(localize).count("np.random.Philox(") == 1
    assert "np.random.Philox(key=seed, counter=start << 64)" in inspect.getsource(localize._run_chunks)


def test_curve_without_sheets_is_a_geometry_error():
    from residue_lab.projgeom import GeometryError

    bundle = (1, 2)
    s = (parse_poly("z1 - z0", 3), HomogeneousPoly(3, 2, {}))
    geo = Example22Geometry(GeometryContext(bundle, s, MetricSpec(), parse_poly("1", 3)))
    with pytest.raises(GeometryError, match="no sheets over w_1"):
        curve_localized_term(geo, samples=2000, seed=1)
    with pytest.raises(GeometryError, match="no sheets over w_1"):
        fiber_mass_quadrature(geo, 0.3 + 0.1j, t=0.01)


# ------------------------------------------------------------------ quadrature bits


def _parent_polar_disc(R, radial_nodes, angular_nodes):
    """The disc as built before the broadcast: one cmath.exp product per ray."""
    nodes, weights = np.polynomial.legendre.leggauss(radial_nodes)
    r = 0.5 * R * (nodes + 1.0)
    wr = 0.5 * R * weights
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    return r, wr, np.concatenate([r * cmath.exp(1j * theta) for theta in thetas])


def _parent_flat_mass(t, radial_nodes, angular_nodes):
    """flat_gaussian_mass with one np.sum per ray."""
    model = FlatModel([AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j))
    r, wr, zeta = _parent_polar_disc(10.0 * math.sqrt(2.0 * t), radial_nodes, angular_nodes)
    wth = 2.0 * math.pi / angular_nodes
    dens = global_density_tensor(model, 0, zeta[:, None], t).reshape(angular_nodes, radial_nodes)
    total = 0.0
    for ray in dens:
        total += float(np.sum(ray.real * r * wr)) * wth
    return total


def _parent_fiber_mass(geo, u, t, radial_nodes=80, angular_nodes=24):
    """fiber_mass_quadrature with one np.sum per ray."""
    ctx = geo.ctx
    coeffs = np.array([[cp.eval(np.array([u])) for cp in localize._sheet_coefficients(geo.f_aff(0))]])
    roots = _solve_sheets(coeffs)[0]
    fn_poly = geo.df(0)[1]
    wth = 2.0 * math.pi / angular_nodes
    total = 0j
    for root in roots:
        w0 = np.array([u, root])
        fn = fn_poly.eval(list(w0))
        Hm = ctx.metric_matrix_batch(0, w0[None])[0]
        h11 = float(Hm[geo.f_index, geo.f_index].real)
        width = math.sqrt(2.0 * t / (h11 * abs(fn) ** 2))
        r, wr, zeta = _parent_polar_disc(localize._SIGMA_MULT * width, radial_nodes, angular_nodes)
        W = np.stack([np.full_like(zeta, u), root + zeta], axis=1)
        g = global_density(ctx, 0, W, t).reshape(angular_nodes, radial_nodes)
        for ray in g:
            total += np.sum(ray * r * wr) * wth
    return complex(total)


def _bits(z):
    """Both parts of a number as float.hex, sign bits included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _fiber_family(d, perturbed):
    """A section (f, 0) of O(d) + O(2) on P^2 with complex coefficients, as
    in the oracle workload: Fubini-Study or perturbed metric, conic or cubic.
    Under Fubini-Study the density vanishes identically (the metric is
    diagonal and s_2 = 0, so det(Abar) = 0), and those fibers give 0j."""
    f_text = {
        2: "z1^2 + (1+2i)*z1*z2 + (3/4)*z2^2 - z0^2 + (1/3-1/2i)*z0*z2",
        3: "z1^3 + (2-1i)*z1*z2^2 + z2^3 - (1/2)*z0^3 + (1+1i)*z0^2*z1 + (1/5)*z0*z2^2",
    }[d]
    psi = parse_poly({2: "z0 + (1/2)*z1", 3: "z0^2 - (1/3+1i)*z1*z2"}[d], 3)
    ms = MetricSpec()
    if perturbed:
        q = parse_poly("z0^2 + 2*z1*z2 - z2^2", 3)
        ms = MetricSpec("perturbed", epsilon=0.05, pair=(0, 1), q=q, f_index=0)
    s = (parse_poly(f_text, 3), HomogeneousPoly(3, 2, {}))
    return Example22Geometry(GeometryContext((d, 2), s, ms, psi))


def test_polar_disc_is_the_parent_disc_bit_for_bit():
    for R, radial, angular in ((1.0, 80, 24), (0.0173, 120, 32), (28.3, 7, 5)):
        new, old = localize._polar_disc(R, radial, angular), _parent_polar_disc(R, radial, angular)
        for a, b in zip(new, old):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("nodes", [(120, 32), (41, 7)])
@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 2.0])
def test_flat_mass_row_reduction_is_the_per_ray_sum_bit_for_bit(t, nodes):
    assert _bits(flat_gaussian_mass(t, *nodes)) == _bits(_parent_flat_mass(t, *nodes))


@pytest.mark.parametrize("perturbed", [False, True], ids=["fs", "perturbed"])
@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_fiber_mass_row_reduction_is_the_per_ray_sum_bit_for_bit(d, perturbed):
    geo = _fiber_family(d, perturbed)
    for u in (0.3 + 0.2j, -0.71 + 0.55j, 0.05 - 0.9j):
        assert _bits(fiber_mass_quadrature(geo, u, 1e-3)) == _bits(_parent_fiber_mass(geo, u, 1e-3))


# ------------------------------------------------------------------ refusals


@pytest.mark.parametrize("t", [-0.5, 0.0, float("nan"), float("inf")])
def test_every_entry_point_refuses_a_t_that_is_not_positive(t):
    from residue_lab.projgeom import GeometryError

    with pytest.raises(GeometryError, match="t must be positive"):
        flat_gaussian_mass(t)
    with pytest.raises(GeometryError, match="t must be positive"):
        fiber_mass_quadrature(Example22Geometry(example22_context()), 0.4 + 0.3j, t)
    with pytest.raises(GeometryError, match="t must be positive"):
        virtual_residue_sweep(p1_o2_context(), [0.5, t], samples=1000, seed=1)
    with pytest.raises(GeometryError, match="t must be positive"):
        local_mass(p1_o2_context(), [1.0], t, radius=0.5, samples=1000, seed=1)
    # S_form shares the rule: a NaN t once gave nan and an infinite one 0j
    model = FlatModel([AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j))
    with np.errstate(all="raise"):  # refused before any arithmetic
        with pytest.raises(GeometryError, match="t must be positive"):
            model.S_form(0, [0.3 + 0.1j], t)
        with pytest.raises(GeometryError, match="t must be positive"):
            global_density_tensor(model, 0, [0.3 + 0.1j], t)


@pytest.mark.parametrize(
    "f_text, u, match",
    [
        ("z1*z2 + z2^2 - z0^2", 2j, "branch point"),  # the two sheets meet at w_2 = -i
        ("z1*z2 + z1^2 - z0^2", 0j, "leading coefficient"),  # the w_2 coefficient w_1 vanishes
    ],
    ids=["branch-point", "sheet-at-infinity"],
)
def test_fiber_quadrature_refuses_an_unintegrable_fiber(f_text, u, match):
    from residue_lab.projgeom import GeometryError

    s = (parse_poly(f_text, 3), HomogeneousPoly(3, 2, {}))
    geo = Example22Geometry(GeometryContext((2, 2), s, MetricSpec(), parse_poly("z0", 3)))
    with np.errstate(all="raise"):  # refused before any arithmetic on the bad fiber
        with pytest.raises(GeometryError, match=match):
            fiber_mass_quadrature(geo, u, 1e-3)


# ------------------------------------------ structural zeros of a split metric


def test_flat_model_curvature_is_zero_by_structure():
    # FlatModel has no metric label: its G is the identity, whose off-diagonal
    # functions have no terms, so an off-diagonal entry compiles nothing; a
    # diagonal one still takes the generic route to the flat connection's 0
    model = FlatModel(
        [AffinePoly.coordinate(2, 0), AffinePoly.coordinate(2, 1)], AffinePoly.constant(2, 1.0 + 0j)
    )
    data = model.chart_data(0)
    rng = np.random.default_rng(30)
    W = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    for entry in [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]:
        assert not model.chern_curvature_batch(0, W, entry=entry).any()
    assert not any(key[0] == "curvature" for key in data.groups)
    assert not model.chern_curvature_batch(0, W, entry=(0, 0, 1)).any()
    assert ("curvature", (0, 0, 1)) in data.groups


def _generic_chern_curvature_batch(self, chart, W, *, entry):
    """GeometryContext.chern_curvature_batch with every entry computed through
    G^{-1} and the derivatives of G, structural zeros included."""
    from residue_lab.projgeom import _eval_matrices, _inv, _mm

    data = self.chart_data(chart)
    n = self.n
    i, j, a = entry

    def build():
        dGa = [[row[j].d(a)] for row in data.G]
        dbarG = [[[g.dbar(b) for g in row] for row in data.G] for b in range(n)]
        return [data.G, *dbarG, dGa] + [[[f.dbar(b) for f in row] for row in dGa] for b in range(n)]

    group = data.group(("curvature", entry), build)
    out = np.zeros((W.shape[0], n), dtype=complex)
    for block in row_blocks(W.shape[0]):
        G, *mats = _eval_matrices(group, W[block])
        dbarG, dGa, d2G = mats[:n], mats[n], mats[n + 1 :]
        Ginv = _inv(G)
        X = _mm(Ginv, dGa)
        for b in range(n):
            out[block, b] = _mm(Ginv[:, i : i + 1, :], _mm(dbarG[b], X) - d2G[b])[:, 0, 0]
    return out


def _random_fs_curve(d, seed):
    """Example 2.2 on a smooth curve f = 0 of degree d with random complex
    coefficients, under Fubini-Study."""
    rng = np.random.default_rng(seed)

    def poly(degree):
        monomials = monomials_of_degree(3, degree)
        values = rng.normal(size=len(monomials)) + 1j * rng.normal(size=len(monomials))
        return HomogeneousPoly(3, degree, dict(zip(monomials, values)))

    f, psi = poly(d), poly(d - 1)
    geo = Example22Geometry(GeometryContext((d, 2), (f, HomogeneousPoly(3, 2, {})), MetricSpec(), psi))
    assert geo.smoothness_defect() is None
    return geo


@pytest.mark.parametrize("seed", [31, 32, 33])
@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_fs_curve_term_is_the_generic_route_bit_for_bit(monkeypatch, d, seed):
    def fields(term):
        return (_bits(term.value), term.std_error.hex(), term.pointwise_max.hex(), term.l1_mass.hex(), term.rejected)

    got = fields(curve_localized_term(_random_fs_curve(d, seed), samples=3000, seed=seed))
    monkeypatch.setattr(GeometryContext, "chern_curvature_batch", _generic_chern_curvature_batch)
    assert got == fields(curve_localized_term(_random_fs_curve(d, seed), samples=3000, seed=seed))


# ------------------------------------------ structurally zero densities

_ZERO = ("0x0.0p+0", "0x0.0p+0")
_FIBERS = (0.3 + 0.2j, -0.71 + 0.55j, 0.05 - 0.9j, 1.7)


def _evaluating(*args, **kwargs):
    raise AssertionError("a chart group or the metric was evaluated")


def _forbid_evaluation(monkeypatch):
    from residue_lab.chartfun import ChartGroup

    monkeypatch.setattr(ChartGroup, "eval_batch", _evaluating)
    monkeypatch.setattr(GeometryContext, "metric_matrix_batch", _evaluating)


class _CoupledUnderFSLabel(GeometryContext):
    """Labelled Fubini-Study, with the coupling of ``_fiber_family``'s
    perturbed metric added to its entries: xi of the zero summand has terms."""

    def _metric(self, chart):
        from residue_lab.chartfun import ChartFunction

        H = super()._metric(chart)
        q = parse_poly("z0^2 + 2*z1*z2 - z2^2", 3).dehomogenize(chart)
        f = self.section[0].dehomogenize(chart)
        off = ChartFunction.from_parts(2, hol=q, anti=f, weight=-(self.degrees[0] + 2), coef=0.05)
        H[0][1] = H[0][1] + off
        H[1][0] = H[1][0] + off.conjugate()
        return H


# labelled perturbed, but with q = 0 the metric is split by structure
_Q0 = MetricSpec("perturbed", epsilon=0.05, pair=(0, 1), q=HomogeneousPoly(3, 2, {}), f_index=0)


def _relabelled(geo, cls=GeometryContext, metric=MetricSpec()):
    ctx = geo.ctx
    return Example22Geometry(cls(ctx.degrees, ctx.section, metric, ctx.psi))


@pytest.mark.parametrize("t", [1e-3, 0.1, 1.0])
@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_zero_density_fiber_is_the_per_sheet_loop_bit_for_bit(d, t):
    # under Fubini-Study xi of the zero summand has no terms, so a column of
    # Abar is empty; the per-sheet loop adds signed zeros to +0 and gives +0
    for geo in (_fiber_family(d, False), _random_fs_curve(d, 31)):
        for u in _FIBERS:
            assert _bits(fiber_mass_quadrature(geo, u, t)) == _bits(_parent_fiber_mass(geo, u, t)) == _ZERO


@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_zero_density_fiber_evaluates_nothing(monkeypatch, d):
    geos = [_fiber_family(d, False), _relabelled(_fiber_family(d, False), metric=_Q0)]
    _forbid_evaluation(monkeypatch)
    for geo in geos:
        for u in _FIBERS:
            assert _bits(fiber_mass_quadrature(geo, u, 1e-3)) == _ZERO


@pytest.mark.parametrize(
    "f_text, u, t, match",
    [
        ("z1^2 + z2^2 - z0^2", 0.4 + 0.3j, 0.0, "t must be positive"),
        ("z1^2 + z2^2 - z0^2", complex(0.0, math.inf), 1e-3, "u must be finite"),
        ("z1*z2 + z1^2 - z0^2", 0j, 1e-3, "vanishing leading coefficient: a sheet over u is at infinity"),
        ("z1*z2 + z2^2 - z0^2", 2j, 1e-3, r"vanishing normal derivative \(branch point\)"),
    ],
    ids=["t", "u", "sheet-at-infinity", "branch-point"],
)
def test_a_zero_density_fiber_is_refused_before_it_is_zero(monkeypatch, f_text, u, t, match):
    from residue_lab.projgeom import GeometryError

    s = (parse_poly(f_text, 3), HomogeneousPoly(3, 2, {}))
    geo = Example22Geometry(GeometryContext((2, 2), s, MetricSpec(), parse_poly("z0", 3)))
    _forbid_evaluation(monkeypatch)
    with pytest.raises(GeometryError, match=match):
        fiber_mass_quadrature(geo, u, t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u", [math.nan, math.inf, complex(0.0, math.inf), complex(math.nan, 1.0)])
def test_fiber_quadrature_refuses_a_u_that_is_not_finite(u):
    from residue_lab.projgeom import GeometryError

    for geo in (_fiber_family(2, False), _fiber_family(3, True)):
        with pytest.raises(GeometryError, match="u must be finite"):
            fiber_mass_quadrature(geo, u, 1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u", [1e200, complex(-1e200, 3e180)])
def test_a_huge_finite_u_is_a_sheet_at_infinity_without_a_warning(u):
    from residue_lab.projgeom import GeometryError

    for geo in (_fiber_family(2, False), _fiber_family(3, True)):
        with pytest.raises(GeometryError, match="vanishing leading coefficient"):
            fiber_mass_quadrature(geo, u, 1e-3)


@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_a_perturbed_fiber_makes_one_metric_call(monkeypatch, d):
    geo = _fiber_family(d, True)
    calls = []
    metric = GeometryContext.metric_matrix_batch

    def counted(self, chart, W):
        calls.append(len(W))
        return metric(self, chart, W)

    monkeypatch.setattr(GeometryContext, "metric_matrix_batch", counted)
    for u in _FIBERS:
        calls.clear()
        got = fiber_mass_quadrature(geo, u, 1e-3)
        assert calls == [d]
        calls.clear()
        assert _bits(got) == _bits(_parent_fiber_mass(geo, u, 1e-3)) != _ZERO
        assert calls == [1] * d  # the reference makes one call per sheet


@pytest.mark.parametrize("perturbed", [False, True], ids=["fs", "perturbed"])
def test_the_metric_diagonal_does_not_depend_on_the_batch(perturbed):
    # h_11 is a constant kernel row times (1 + |w|^2)^(-d): its bits are the
    # same in a batch of sheet centres as in a call of its own
    ctx = _fiber_family(3, perturbed).ctx
    rng = np.random.default_rng(35)
    W = (rng.normal(size=(60, 2)) + 1j * rng.normal(size=(60, 2))) * np.logspace(-3, 2, 60)[:, None]
    alone = np.concatenate([ctx.metric_matrix_batch(0, w[None]) for w in W])
    for size in (2, 3, 60):
        batched = np.concatenate([ctx.metric_matrix_batch(0, W[k : k + size]) for k in range(0, 60, size)])
        for i in range(2):
            assert [z.hex() for z in batched[:, i, i].real] == [z.hex() for z in alone[:, i, i].real]
            assert not batched[:, i, i].imag.any() and not alone[:, i, i].imag.any()


@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_zero_density_is_read_from_structure_not_from_the_label(d):
    # labelled Fubini-Study, coupled as the perturbed family is: the quadrature runs
    coupled = _relabelled(_fiber_family(d, False), cls=_CoupledUnderFSLabel)
    assert coupled.ctx.metric.kind == "fubini_study"
    perturbed = _fiber_family(d, True)
    for u in _FIBERS:
        got = fiber_mass_quadrature(coupled, u, 1e-3)
        assert _bits(got) == _bits(fiber_mass_quadrature(perturbed, u, 1e-3)) != _ZERO


def _parent_sheet_density(geo, u, roots):
    """The curve term's density as evaluated before the split-metric rule:
    phi_c r_c / pi at every sheet point, ROW_BLOCK points at a time."""
    m = roots.shape[1]
    dens = np.empty(roots.size, dtype=complex)
    for block in row_blocks(roots.size):
        W = np.stack([u[np.arange(block.start, block.stop) // m], roots.reshape(-1)[block]], axis=1)
        dens[block] = geo.psi_over_det_ds_batch(0, W) * geo.curvature_term_batch(0, W) / math.pi
    return dens.reshape(-1, m)


def _curve_fields(term):
    return (_bits(term.value), term.std_error.hex(), term.pointwise_max.hex(), term.l1_mass.hex(), term.rejected)


@pytest.mark.parametrize("branch_tol", [localize._BRANCH_TOL, 0.2, 0.5], ids=["default", "0.2", "0.5"])
@pytest.mark.parametrize("seed", [31, 32, 33])
@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_split_curve_term_is_the_evaluated_density_bit_for_bit(monkeypatch, d, seed, branch_tol):
    monkeypatch.setattr(localize, "_BRANCH_TOL", branch_tol)
    got = _curve_fields(curve_localized_term(_random_fs_curve(d, seed), samples=3000, seed=seed))
    monkeypatch.setattr(localize, "_sheet_density", _parent_sheet_density)
    assert got == _curve_fields(curve_localized_term(_random_fs_curve(d, seed), samples=3000, seed=seed))
    # a raised tolerance rejects samples: 0.2 at 5 of these 6 curves, 0.5 at all
    assert got[-1] > 0 or branch_tol < 0.5


def test_split_curve_term_evaluates_no_density(monkeypatch):
    fs = _random_fs_curve(3, 31)
    geos = [fs, _relabelled(fs, metric=_Q0)]
    _forbid_evaluation(monkeypatch)
    monkeypatch.setattr(GeometryContext, "chern_curvature_batch", _evaluating)
    for geo in geos:
        term = curve_localized_term(geo, samples=3000, seed=31)
        assert term.value == 0 and term.pointwise_max == term.l1_mass == 0.0


def test_curve_term_is_read_from_structure_not_from_the_label():
    coupled = _relabelled(_fiber_family(2, False), cls=_CoupledUnderFSLabel)
    got = _curve_fields(curve_localized_term(coupled, samples=2000, seed=35))
    assert got == _curve_fields(curve_localized_term(_fiber_family(2, True), samples=2000, seed=35))
    assert got[0] != _ZERO


def test_a_split_fiber_without_psi_is_still_refused():
    from residue_lab.projgeom import GeometryError

    ctx = _fiber_family(2, False).ctx
    geo = Example22Geometry(GeometryContext(ctx.degrees, ctx.section, MetricSpec()))
    with pytest.raises(GeometryError, match="carries no psi"):
        fiber_mass_quadrature(geo, 0.3 + 0.2j, 1e-3)
