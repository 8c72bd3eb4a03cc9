"""Monte Carlo / quadrature layer: normalization oracle, vanishing estimates,
local masses, curve localization, and determinism.

The two deepest oracles here:

* ``flat_gaussian_mass``: closed-form unit mass for the flat model, pinning
  every sign and constant at once.
* ``fiber_mass_quadrature``: the small-t fiber integral of the global
  integrand against the curve-localized density, pinning the localization
  formula pointwise (not just its vanishing total).
"""

import math
from functools import partial
from itertools import permutations
from pathlib import Path

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
    _density_rows,
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

from bundled import scenario_context


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
    # the exact value is 1 for every t > 0; measured within 7.1e-15 here
    assert abs(flat_gaussian_mass(t) - 1.0) <= 1e-13


@pytest.mark.parametrize("nodes", [(120, 32), (41, 7)])
@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 2.0])
def test_flat_mass_is_one_at_each_node_count(t, nodes):
    # measured within 7.1e-15 of the exact 1 at both node counts
    assert abs(flat_gaussian_mass(t, *nodes) - 1.0) <= 1e-13


def test_flat_ball_monte_carlo_mass():
    model = FlatModel([AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j))
    for t in (0.05, 0.2):
        est = local_mass(model, [0.0], t, radius=8 * np.sqrt(2 * t), samples=60000, seed=3)
        assert abs(est.value - 1.0) <= max(3 * est.std_error, 0.02)


def test_flat_model_s_form_coefficients():
    # s = w with flat metric: scalar -|w|^2/2t, one-form -(1/2t) dwbar (x) e*_1,
    # the tensor route's datum -rows/2t from the density group's rows
    model = FlatModel([AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j))
    t = 0.4
    s2, Abar, _ = _density_rows(model, 0, np.array([[0.3 + 0.5j]]))
    assert abs(-s2[0] / (2 * t) + abs(0.3 + 0.5j) ** 2 / (2 * t)) < 1e-15
    assert abs(-Abar[0, 0, 0] / (2 * t) + 1.0 / (2 * t)) < 1e-15


def test_flat_model_is_a_density_source_on_chart_0_only():
    # no GeometryContext: chart 0's density rows are those of s = w under the
    # identity metric, |w|^2 and Abar = I; any other chart is refused, where
    # the context it once subclassed raised AttributeError
    from residue_lab.projgeom import GeometryError

    model = FlatModel([AffinePoly.coordinate(2, 0), AffinePoly.coordinate(2, 1)], AffinePoly.constant(2, 1.0 + 0j))
    W = np.array([[0.3 + 0.1j, -0.2 + 0.4j], [1.5 - 0.7j, 0.05j]])
    assert not isinstance(model, GeometryContext) and model.density_group(0).size == 6
    s2, Abar, P = _density_rows(model, 0, W)
    assert np.abs(s2 - np.sum(np.abs(W) ** 2, axis=1)).max() <= 1e-15 and np.array_equal(P, [1, 1])
    assert np.array_equal(Abar, np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)))
    for query in (lambda: model.density_group(1), lambda: global_density_tensor(model, 2, W, 0.5)):
        with pytest.raises(GeometryError, match="chart 0 only"):
            query()


def test_fast_density_matches_tensor_route():
    ctx = scenario_context("p2_22")
    rng = np.random.default_rng(1)
    for _ in range(40):
        chart = int(rng.integers(0, 3))
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        t = float(rng.uniform(0.3, 2.0))
        fast = global_density(ctx, chart, w.reshape(1, -1), t)[0]
        slow = global_density_tensor(ctx, chart, w.reshape(1, -1), t)[0]
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
    ctx = scenario_context("p2_22")
    ts = [0.05, 0.3, 0.5, 1.0, 2.0]
    sweep = virtual_residue_sweep(ctx, ts, samples=20000, seed=5)
    for t, est in zip(ts, sweep):
        single = virtual_residue_sweep(ctx, [t], samples=20000, seed=5)[0]
        assert (est.value, est.std_error, est.t) == (single.value, single.std_error, single.t)


def _random_sweep_context(seed, degrees, perturbed=False):
    """A split section on P^n, n = len(degrees), as the global_mc workload
    builds its sweeps: component k a product of lines z_{k+1} - a z_0 at
    distinct random a, psi dense with random complex coefficients, and the
    Fubini-Study metric or a perturbation on the pair (0, 1) with eps |s_0|_1
    |q|_1 between 0.15 and 0.3, which keeps the metric positive.  Random,
    not symmetric: symmetric instances flatter a product rule."""
    rng = np.random.default_rng(seed)
    n = len(degrees)

    def dense(degree):
        monomials = monomials_of_degree(n + 1, degree)
        values = rng.integers(-2, 3, len(monomials)) + 1j * rng.integers(-2, 3, len(monomials))
        return HomogeneousPoly(n + 1, degree, {e: c or 1.0 for e, c in zip(monomials, values)})

    section = []
    for k, d in enumerate(degrees):
        roots = rng.permutation(25)[:d] / 10 - 1.2 + 1j * (rng.permutation(25)[:d] / 10 - 1.2)
        poly = HomogeneousPoly(n + 1, 0, {(0,) * (n + 1): 1.0})
        for a in roots:
            line = {tuple(int(i == k + 1) for i in range(n + 1)): 1.0, (1,) + (0,) * n: -a}
            poly = poly * HomogeneousPoly(n + 1, 1, line)
        section.append(poly)
    ms = MetricSpec()
    if perturbed:
        q = dense(degrees[1])
        eps = rng.uniform(0.15, 0.3) / (sum(map(abs, section[0].terms.values())) * sum(map(abs, q.terms.values())))
        ms = MetricSpec("perturbed", epsilon=eps, pair=(0, 1), q=q, f_index=0)
    return GeometryContext(tuple(degrees), tuple(section), ms, dense(sum(degrees) - n - 1))


_SWEEP_CONTEXTS = [
    partial(scenario_context, "p1_o2"),
    partial(scenario_context, "p2_22"),
    lambda: example22_context(eps=0),
    example22_context,
    partial(_random_sweep_context, 1, [3]),
    partial(_random_sweep_context, 2, [2, 3]),
    partial(_random_sweep_context, 3, [2, 2], True),
]
_SWEEP_IDS = ["p1_fs", "p2_fs", "p2_curve_fs", "p2_curve_perturbed", "p1_random", "p2_random", "p2_random_perturbed"]


@pytest.mark.parametrize("context", _SWEEP_CONTEXTS, ids=_SWEEP_IDS)
def test_sweep_rows_are_the_tensor_density_over_the_fs_density(context, monkeypatch):
    # chunks of whole simplex nodes, at most half a length no multiple of
    # ROW_BLOCK, the last one shorter: every row of every t within 1e-12 of
    # the tensor route over the FS density times the node weight, at the
    # rule's nodes rotated by the Haar unitary of the seed, computed here
    # (measured at most 2.9e-14 relative), and zero exactly where it is zero;
    # each rule's chunks take its simplex nodes once
    ctx, ts, samples = context(), [0.05, 0.3, 1.0, 2.0], 6000
    monkeypatch.setattr(localize, "_CHUNK", ROW_BLOCK + 37)
    chunks, laws = [], []
    rows_of, law = localize._global_rows, localize._rule_law
    monkeypatch.setattr(localize, "_global_rows", lambda *a: chunks.append(rows_of(*a).copy()) or chunks[-1])
    monkeypatch.setattr(localize, "_rule_law", lambda n, m, U, which: laws.append((m, which)) or law(n, m, U, which))
    virtual_residue_sweep(ctx, ts, samples, seed=31)
    n, m = ctx.n, localize._sweep_order(ctx.n, samples)
    U = localize._rotation(np.random.default_rng(np.random.Philox(key=31, counter=0)), n + 1, unitary=True)
    for order in (m, m // 2):
        per = localize._rule_size(n, order) // order**n
        step = max((ROW_BLOCK + 37) // 2 // per, 1)
        taken = [which for k, which in laws if k == order]
        assert [len(which) for which in taken] == [min(step, order**n - start) for start in range(0, order**n, step)]
        assert np.array_equal(np.sort(np.concatenate(taken)), np.arange(order**n))
    assert len(chunks) == len(laws) and len([k for k, _ in laws if k == m]) > 1
    for rows, (order, which) in zip(chunks, laws):
        Z, w = localize._product_rule(n, order, which, np.eye(n + 1))
        Z = Z @ U.T
        assert np.abs(localize._product_rule(n, order, which, U)[0] - Z).max() <= 1e-15
        assert rows.shape == (4, len(w))
        want = np.empty_like(rows)
        for chart, where, W in by_chart(Z):
            want[:, where] = [global_density_tensor(ctx, chart, W, t) / fs_density(W, n) * w[where] for t in ts]
        assert np.all(np.abs(rows - want) <= 1e-12 * np.abs(want))


def test_sweep_on_p3_is_monte_carlo_over_fs_points(monkeypatch):
    # above P^2 the sweep samples: every sample of every t within 1e-12 of
    # the tensor route at the chunk's own FS-uniform points over the FS density
    n, ts, samples = 3, [0.3, 1.0], 2 * (ROW_BLOCK + 37) + 500
    section = tuple(parse_poly(text, n + 1) for text in ("z1^2 - z0^2", "z2 - (1/2+1i)*z0", "z3 + (1/3)*z0"))
    ctx = GeometryContext((2, 1, 1), section, MetricSpec(), parse_poly("1", n + 1))
    monkeypatch.setattr(localize, "_CHUNK", ROW_BLOCK + 37)
    chunks, points = [], []
    summarize, uniform = localize._summarize, localize.fs_uniform_points
    monkeypatch.setattr(localize, "_summarize", lambda rows, top: chunks.append(rows.copy()) or summarize(rows, top))
    monkeypatch.setattr(localize, "fs_uniform_points", lambda *a: points.append(uniform(*a)) or points[-1])
    ests = virtual_residue_sweep(ctx, ts, samples, seed=31)
    assert [(e.samples, e.nodes) for e in ests] == [(samples, 0)] * 2
    assert all(abs(e.value) <= 3 * e.std_error for e in ests)
    assert [c.shape for c in chunks] == [(2, ROW_BLOCK + 37)] * 2 + [(2, 500)]
    for rows, Z in zip(chunks, points):
        want = np.empty_like(rows)
        for chart, where, W in by_chart(Z):
            want[:, where] = [global_density_tensor(ctx, chart, W, t) / fs_density(W, n) for t in ts]
        assert np.all(np.abs(rows - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("m", [1, 2, 5, 9, 14])
def test_simplex_rule_is_exact_to_its_degree(m):
    # x0^a x1^b x2^c against the uniform probability measure on the simplex,
    # 2 a! b! c! / (a + b + c + 2)!, for a + b + c <= 2m - 2: measured within
    # 4.5e-16, as is the sum of the whole rule's weights
    moduli, weights, phase = localize._rule_factors(2, m)
    x, w = moduli**2, weights * len(phase) ** 2
    assert len(phase) == 2 * m and moduli.shape == (m * m, 3) and np.all(w > 0)
    assert np.abs(x.sum(axis=1) - 1).max() <= 1e-15
    assert abs(localize._product_rule(2, m, np.arange(m * m), np.eye(3))[1].sum() - 1) <= 1e-15
    for a in range(2 * m - 1):
        for b in range(2 * m - 1 - a):
            for c in range(2 * m - 1 - a - b):
                exact = 2 * math.factorial(a) * math.factorial(b) * math.factorial(c) / math.factorial(a + b + c + 2)
                assert abs(w @ (x[:, 0] ** a * x[:, 1] ** b * x[:, 2] ** c) - exact) <= 1e-15


@pytest.mark.parametrize("m", [2, 5, 9])
def test_p2_rule_integrates_phase_modes_to_zero(m):
    # e^{i (k1 phi1 + k2 phi2)} for 0 < max |k| < 2m: measured within 1.7e-15
    # at m = 9; its nodes are unit vectors whose |Z_i|^2 are the simplex's
    Z, w = localize._product_rule(2, m, np.arange(m * m), np.eye(3))
    moduli = localize._rule_factors(2, m)[0]
    assert Z.shape == (4 * m**4, 3) and localize._rule_size(2, m) == len(w)
    assert np.abs(np.abs(Z) - np.repeat(moduli, 4 * m * m, axis=0)).max() <= 1e-15
    phi = np.angle(Z[:, 1:])
    k = np.arange(-2 * m + 1, 2 * m)
    modes = np.exp(1j * (k[:, None, None] * phi[:, 0] + k[None, :, None] * phi[:, 1])) @ w
    modes[2 * m - 1, 2 * m - 1] -= 1  # the constant mode integrates to 1
    assert np.abs(modes).max() <= 1e-14


def test_sweep_order_fits_both_rules_in_the_samples():
    # the workload's 40,000 samples: m = 9 on P^2 (26,244 + 1,024 nodes) and
    # m = 126 on P^1 (31,878 + 8,001); one more order would not fit
    assert (localize._sweep_order(2, 40000), localize._sweep_order(1, 40000)) == (9, 126)
    for n in (1, 2):
        for samples in (1000, 5507, 40000, 10**6):
            m = localize._sweep_order(n, samples)
            assert localize._rule_size(n, m) + localize._rule_size(n, m // 2) <= samples
            assert localize._rule_size(n, m + 1) + localize._rule_size(n, (m + 1) // 2) > samples
    est = virtual_residue_sweep(scenario_context("p2_22"), [1.0], samples=40000, seed=3)[0]
    assert (est.samples, est.nodes) == (0, 26244 + 1024)


@pytest.mark.parametrize("context", _SWEEP_CONTEXTS[4:], ids=_SWEEP_IDS[4:])
def test_sweep_rule_reads_a_non_vanishing_control(context):
    # the sweep's rows times |Z_1|^2 / |Z|^2 do not integrate to 0: at two
    # orders the control reads the same to 4 digits (measured within 1.2e-5
    # of its value), 2.5-11% of the L1 mass, while the sweep itself vanishes
    # (measured at most 2.9e-7 of L1)
    ctx, ts = context(), [0.5, 1.0, 2.0]
    U = localize._rotation(np.random.default_rng(5), ctx.n + 1, unitary=True)
    controls = []
    for m in ((60, 90) if ctx.n == 1 else (9, 12)):
        rows = localize._global_rows(ctx, ts, *localize._rule_law(ctx.n, m, U, np.arange(m**ctx.n)))
        Z = localize._product_rule(ctx.n, m, np.arange(m**ctx.n), U)[0]
        weight = np.abs(Z[:, 1]) ** 2 / (np.abs(Z) ** 2).sum(axis=1)
        assert np.all(np.abs(rows.sum(axis=1)) <= 1e-6 * np.abs(rows).sum(axis=1))
        controls.append(rows @ weight)
        assert np.all(np.abs(controls[-1]) >= 1e-2 * np.abs(rows).sum(axis=1))
    assert np.all(np.abs(controls[0] - controls[1]) <= 1e-4 * np.abs(controls[1]))


def test_global_density_chart_invariance():
    """The prefactored (n,n) density transforms with |det J|^2 across charts."""
    ctx = scenario_context("p2_22")
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
    ctx = scenario_context("p1_o2")
    est = virtual_residue_sweep(ctx, [1.0], samples=40000, seed=11)[0]
    assert abs(est.value) <= 3 * est.std_error


def test_virtual_residue_t_family_consistency():
    ctx = scenario_context("p1_o2")
    ests = virtual_residue_sweep(ctx, [0.5, 1.0, 2.0], samples=40000, seed=12)
    for a in ests:
        assert abs(a.value) <= 3 * a.std_error
    for a, b in zip(ests, ests[1:]):
        tol = 3 * np.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= tol


def test_virtual_residue_p2_vanishes():
    ctx = scenario_context("p2_22")
    est = virtual_residue_sweep(ctx, [1.0], samples=60000, seed=13)[0]
    assert abs(est.value) <= 3 * est.std_error


def test_virtual_residue_seed_determinism():
    ctx = scenario_context("p1_o2")
    a = virtual_residue_sweep(ctx, [1.0], samples=5000, seed=7)[0]
    b = virtual_residue_sweep(ctx, [1.0], samples=5000, seed=7)[0]
    assert a.value == b.value and a.std_error == b.std_error


@pytest.mark.parametrize("context", _SWEEP_CONTEXTS[4:], ids=_SWEEP_IDS[4:])
def test_sweep_rule_seeds_differ_within_sigma(context):
    # two rotations are two rules: their values differ, and agree within the
    # sum of their error bounds at every t (measured within 0.0025 of it)
    ctx, ts = context(), [0.05, 0.1, 0.5, 1.0, 2.0]
    a, b = (virtual_residue_sweep(ctx, ts, samples=40000, seed=seed) for seed in (7007, 4242))
    for x, y in zip(a, b):
        assert x.value != y.value and abs(x.value - y.value) <= x.std_error + y.std_error


def test_sweep_sigma_covers_a_rule_too_coarse_to_converge():
    # at 1,000 samples (m = 3 on P^2) the value is off by up to 22% of L1;
    # |Q_3 - Q_1| covers it (|value| / sigma measured at most 0.34), where
    # the rounding floor alone would not
    for seed in range(3):
        for est in virtual_residue_sweep(_random_sweep_context(seed, [2, 3]), [0.05, 0.1], samples=1000, seed=seed):
            assert abs(est.value) <= est.std_error and est.nodes == 324 + 4


def test_virtual_residue_thread_count_invariance(monkeypatch):
    # the sweep's rule on P^1 and P^2 and the ball local mass, each over
    # several chunks
    monkeypatch.setattr(localize, "_CHUNK", 5000)
    p1, p2 = scenario_context("p1_o2"), _random_sweep_context(3, [2, 2], True)
    for run in (
        lambda threads: virtual_residue_sweep(p1, [0.1, 1.0], samples=40000, seed=7, threads=threads),
        lambda threads: virtual_residue_sweep(p2, [0.1, 1.0], samples=40000, seed=7, threads=threads),
        lambda threads: [local_mass(p1, [1.0], 0.05, 0.5, samples=40000, seed=7, threads=threads)],
    ):
        a, b = run(1), run(4)
        assert [(e.value, e.std_error, e.nodes) for e in a] == [(e.value, e.std_error, e.nodes) for e in b]


def test_point_laws_draw_points_and_evaluate_nothing(monkeypatch):
    """A point law draws a chunk's points and their sampling density p; no
    chart group is evaluated.  The FS law's parts cover every index once,
    each W the affine coordinates of its point in the chart of its largest
    coordinate, with p = fs_density(W, n) bit for bit; the ball's points lie
    in the ball; the line law's points lie on the curve and on their line."""
    from residue_lab.chartfun import ChartGroup

    geo = _fiber_family(3, True)  # its metric certified before the patch
    monkeypatch.setattr(ChartGroup, "eval_batch", None)
    n, count = 2, 3000
    parts, p = localize._fs_law(n, np.random.default_rng(np.random.Philox(1)), count)
    Z = fs_uniform_points(n, count, np.random.default_rng(np.random.Philox(1)))
    assert np.array_equal(np.sort(np.concatenate([rows for _, rows, _ in parts])), np.arange(count))
    for chart, rows, W in parts:
        assert np.all(np.argmax(np.abs(Z[rows]), axis=1) == chart) and np.abs(W).max() <= 1
        assert np.array_equal(W, Z[rows][:, np.arange(n + 1) != chart] / Z[rows, chart, None])
        assert p[rows].tobytes() == fs_density(W, n).tobytes()

    center = np.array([0.3 - 0.2j, 1.1j])
    [(chart, rows, W)], p = localize._ball_law(center, 0.5, np.random.default_rng(2), count)
    assert chart == 0 and W[rows].shape == (count, n)
    assert np.linalg.norm(W - center, axis=1).max() <= 0.5 + 1e-15
    assert np.all(p == 2 / (math.pi**2 * 0.5**4))

    kernels = [localize._line_kernel(geo, chart) for chart in range(3)]
    (Z,) = localize._line_law(kernels, np.random.default_rng(3), count)
    # the law's lines {a.z = 0}, a drawn first from the same stream
    A = fs_uniform_points(n, count, np.random.default_rng(3))
    assert Z.shape == (count, 3, 3) and np.all(np.isfinite(Z))
    # a line's points in the order of the law's parts: a's largest coordinate, then the draw
    order = np.argsort(np.argmax(np.abs(A), axis=1), kind="stable")
    unit = Z / np.linalg.norm(Z, axis=2)[:, :, None]
    on_line = np.abs(np.einsum("nk,ndk->nd", A[order] / np.linalg.norm(A[order], axis=1)[:, None], unit))
    on_curve = np.abs([geo.f.eval(z) for z in unit.reshape(-1, 3)]) / geo.f.coeff_norm()
    # measured at most 2.4e-16 on the line and 1.7e-16 on the curve
    assert on_line.max() <= 1e-13 and on_curve.max() <= 1e-13


def test_three_sigma_coverage_binomial():
    """Over 20 seeds of a true-zero quantity at most one estimate may leave
    its own 3-sigma band: the sweep's rule, rotated by each seed, on a random
    P^2 instance at 8,000 samples."""
    ctx = _random_sweep_context(4, [2, 3])
    misses = 0
    for seed in range(20):
        est = virtual_residue_sweep(ctx, [0.1], samples=8000, seed=seed)[0]
        if abs(est.value) > 3 * est.std_error:
            misses += 1
    assert misses <= 1


def test_minimum_sample_count_enforced():
    from residue_lab.projgeom import GeometryError

    ctx = scenario_context("p1_o2")
    with pytest.raises(GeometryError):
        virtual_residue_sweep(ctx, [1.0], samples=10, seed=1)[0]


# ------------------------------------------------------------------ local mass


def test_local_masses_p1_match_residues_and_cancel():
    ctx = scenario_context("p1_o2")
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
    # on the sampler's cubic: the conic's rule reads 0 to rounding at either eps
    g5, g1 = _fiber_family(3, True, eps=0.05), _fiber_family(3, True, eps=0.01)
    t5 = curve_localized_term(g5, samples=4000, seed=43)
    t1 = curve_localized_term(g1, samples=4000, seed=43)
    assert abs(t1.value) < abs(t5.value)
    # the curvature term is exactly linear in eps on the curve
    assert abs(5 * t1.value - t5.value) <= 1e-8 * max(1.0, abs(t5.value))


def test_curve_term_seed_determinism():
    geo = _fiber_family(3, True)
    a = curve_localized_term(geo, samples=3000, seed=44)
    b = curve_localized_term(geo, samples=3000, seed=44)
    assert _curve_fields(a) == _curve_fields(b)


def test_curve_term_thread_invariance():
    geo = _fiber_family(3, True)
    a = curve_localized_term(geo, samples=40000, seed=45, threads=1)
    b = curve_localized_term(geo, samples=40000, seed=45, threads=4)
    assert a.value == b.value and a.std_error == b.std_error


# ---------------------------------------------------- the conic's sphere rule


def _random_perturbed_curve(seed, d=2):
    """Example 2.2 on a random smooth curve of degree d under a perturbed
    metric, built as the curve workload builds its curves: Gaussian-integer
    coefficients, and eps |f|_1 |q|_1 between 0.15 and 0.3, which keeps the
    metric positive."""
    rng = np.random.default_rng(seed)

    def poly(degree, span):
        monomials = monomials_of_degree(3, degree)
        values = rng.integers(-span, span + 1, len(monomials)) + 1j * rng.integers(-span, span + 1, len(monomials))
        return HomogeneousPoly(3, degree, {e: c or 1.0 for e, c in zip(monomials, values)})

    f, psi, q = poly(d, 3), poly(d - 1, 2), poly(2, 2)
    eps = rng.uniform(0.15, 0.3) / (sum(map(abs, f.terms.values())) * sum(map(abs, q.terms.values())))
    ms = MetricSpec("perturbed", epsilon=eps, pair=(0, 1), q=q, f_index=0)
    geo = Example22Geometry(GeometryContext((d, 2), (f, HomogeneousPoly(3, 2, {})), ms, psi))
    assert geo.smoothness_defect() is None
    return geo


@pytest.mark.parametrize("m", [3, 8, 32])
def test_sphere_rule_is_exact_to_its_degree(m):
    # c^j e^{i k phi} against the FS probability measure, (1 + (-1)^j) / (2 (j + 1))
    # at k = 0 and 0 otherwise: measured within 3.9e-15 for j <= 2m - 1 and |k| <= 2m
    sig, weights = localize._sphere_rule(m)
    assert sig.shape == (m * (2 * m + 1), 2) and abs(weights.sum() - 1) <= 1e-15
    assert np.abs(np.linalg.norm(sig, axis=1) - 1).max() <= 1e-15
    c, phase = np.abs(sig[:, 0]) ** 2 - np.abs(sig[:, 1]) ** 2, np.angle(sig[:, 1])
    j, k = np.arange(2 * m + 1), np.arange(-2 * m - 1, 2 * m + 2)
    got = (c[None, :] ** j[:, None] * weights) @ np.exp(1j * k[None, :] * phase[:, None])
    want = np.outer((1 + (-1.0) ** j) / (2 * (j + 1)), k == 0)
    err = np.abs(got - want)
    assert err[: 2 * m, 1:-1].max() <= 1e-14
    # and no further: the modes +-(2m + 1) alias to the constant
    assert np.all(err[0, [0, -1]] > 0.5)


def test_conic_frame_is_a_takagi_frame():
    # T^T B T = I, B the symmetric matrix of f, for random complex conics and
    # for the bundled z1^2 + z2^2 - z0^2, whose singular values are all 1
    rng = np.random.default_rng(52)
    conics = [parse_poly("z1^2 + z2^2 - z0^2", 3)]
    for _ in range(30):
        values = rng.normal(size=6) + 1j * rng.normal(size=6)
        conics.append(HomogeneousPoly(3, 2, dict(zip(monomials_of_degree(3, 2), values))))
    for f in conics:
        B = np.array([[f.terms.get(tuple(int(k == i) + int(k == j) for k in range(3)), 0) for j in range(3)]
                      for i in range(3)], dtype=complex)
        B = (B + np.diag(np.diag(B))) / 2
        T = localize._conic_frame(f)
        assert np.abs(T.T @ B @ T - np.eye(3)).max() <= 1e-13
    # a pair of lines has no Takagi frame of full rank
    from residue_lab.projgeom import GeometryError

    with pytest.raises(GeometryError, match="the conic is singular"):
        localize._conic_frame(parse_poly("z1^2 - z0^2", 3))


@pytest.mark.parametrize("seed", range(4))
def test_conic_rule_integrates_the_fs_area_to_the_degree(seed):
    # the node weights, sphere weight times the curve's FS area over pi, sum
    # to the conic's degree 2: measured within 1.2e-15 at m = 32 and 3.3e-8
    # at m = 16
    geo = Example22Geometry(example22_context()) if seed == 0 else _random_perturbed_curve(seed)
    M = localize._conic_frame(geo.f) @ localize._rotation(np.random.default_rng(seed))
    for m, tol in ((16, 1e-6), (32, 1e-13)):
        Z, weights = localize._conic_rule(M, m)
        assert Z.shape == (m * (2 * m + 1), 3) and np.all(weights >= 0)
        assert abs(weights.sum() - 2) <= tol


def _old_conic_density(geo, M, m):
    """The reference density of the curve form at the order-m nodes of the
    conic rule, and the nodes: phi_c r_c / pi (sheet_terms_batch) against the
    Lebesgue measure of the chart's base coordinate w_1 = z_b / z_c, times
    the Jacobian to the sphere's probability measure, pi |det d(z_b, z_c) /
    d(s0, s1)|^2 / (4 |z_c|^4) at a unit sigma."""
    s0, s1 = localize._sphere_rule(m)[0].T
    x = np.stack([s0 * s0 - s1 * s1, 1j * (s0 * s0 + s1 * s1), 2 * s0 * s1], axis=1)
    d0, d1 = 2 * np.stack([s0, 1j * s0, s1], axis=1), 2 * np.stack([-s1, 1j * s1, s0], axis=1)  # d/ds0, d/ds1
    Z, dZ0, dZ1 = (v @ M.T for v in (x, d0, d1))
    dens = np.empty(len(Z), dtype=complex)
    for chart, rows, W in by_chart(Z):
        b = int(chart == 0)
        det = dZ0[rows, b] * dZ1[rows, chart] - dZ1[rows, b] * dZ0[rows, chart]
        phi, r = geo.sheet_terms_batch(chart, W)
        dens[rows] = phi * r / math.pi * (math.pi * np.abs(det) ** 2 / (4 * np.abs(Z[rows, chart]) ** 4))
    return Z, dens


@pytest.mark.parametrize("seed", range(6))
def test_conic_summand_times_area_is_the_sheet_terms_density(seed):
    # the bridge from production's summand to the Chern-curvature reference
    # (sheet_terms_batch): at every node, summand times the area factor is
    # phi_c r_c / pi times the chart-base Jacobian: measured within 2.1e-14
    # of the largest |density| on these six conics (1.2e-13 over 40)
    geo = Example22Geometry(example22_context()) if seed == 0 else _random_perturbed_curve(seed)
    M = localize._conic_frame(geo.f) @ localize._rotation(np.random.default_rng(seed))
    for m in (24, 48):
        Z, weights = localize._conic_rule(M, m)
        got = localize._curve_summands(geo, Z) * (weights / localize._sphere_rule(m)[1])
        nodes, want = _old_conic_density(geo, M, m)
        assert np.abs(nodes - Z).max() <= 1e-14 * np.abs(Z).max()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_conic_pointwise_max_does_not_depend_on_the_seed():
    # the largest |summand| is a property of the form, not of where a node
    # lands: over seeds 0-19 it read 0.04151-0.04158 (1.002x) on the bundled
    # perturbed conic, where phi_c r_c / pi read 5.85-847 (145x)
    geo = Example22Geometry(example22_context())
    tops = [curve_localized_term(geo, samples=1000, seed=seed).pointwise_max for seed in range(20)]
    assert max(tops) <= 1.01 * min(tops)


@pytest.mark.parametrize("seed", range(10))
def test_conic_rule_vanishes_within_its_sigma(seed):
    # workload-style perturbed conics: sigma / L1 measured at most 7.3e-12 on
    # these (at most 2.8e-7 over 120 conics of the curve workload), and
    # |value| / sigma at most 0.0044
    geo = _random_perturbed_curve(seed)
    term = curve_localized_term(geo, samples=40000, seed=seed)
    assert term.samples == 0 and term.nodes == 24 * 49 + 48 * 97
    assert term.std_error <= 1e-3 * term.l1_mass and abs(term.value) <= term.std_error
    assert term.pointwise_max > 0


def test_conic_sigma_covers_a_rule_too_coarse_to_converge(monkeypatch):
    # at order 4 the finer sum is off by up to 7.7e-4 of L1 on these conics;
    # |fine - coarse| covers it (|value| / sigma at most 0.015), where the
    # rounding floor alone would not
    monkeypatch.setattr(localize, "_CONIC_ORDER", 4)
    for seed in range(10):
        term = curve_localized_term(_random_perturbed_curve(seed), samples=1000, seed=seed)
        assert abs(term.value) <= term.std_error and term.std_error > 1e3 * localize._RULE_FLOOR * term.l1_mass


@pytest.mark.parametrize("geo", [lambda: Example22Geometry(example22_context()), lambda: _random_perturbed_curve(7)],
                         ids=["bundled", "random"])
def test_conic_rule_l1_is_the_samplers(geo):
    # the line sampler's value and L1 mass against the rule's, within 3 of
    # the sampler's sigma each: a pin of the Crofton constant and of the
    # normal's FS norm that does not depend on the degree (measured z 0.83
    # and 1.40 on the value, 2.14 and 1.45 on L1; sigma / L1 0.27% and 0.23%)
    geo = geo()
    kernels = [localize._line_kernel(geo, chart) for chart in range(3)]
    rows = partial(localize._line_rows, geo)
    summary = localize._run_chunks(partial(localize._line_law, kernels), rows, 100000, 5, 1, top=True)
    (value, sigma), (l1, l1_sigma) = localize._estimate(summary, 0), localize._estimate(summary, 1)
    rule = curve_localized_term(geo, samples=100000, seed=5)
    assert abs(value - rule.value) <= 3 * sigma and sigma <= 0.01 * rule.l1_mass
    assert abs(l1.real - rule.l1_mass) <= 3 * l1_sigma
    assert summary.top[2] <= 10 * rule.l1_mass  # bounded summands
    # one summand on both routes: the rule's largest at its nodes is the
    # sampler's largest at its line points (measured within 0.15%)
    assert abs(rule.pointwise_max - summary.top[2]) <= 0.01 * summary.top[2]


@pytest.mark.parametrize("seed", [1003, 1019])
def test_bundled_perturbed_conic_passes_where_the_sampler_failed(seed):
    # the base-point sampler failed p2_example22_perturbed at these seeds of
    # 1000-1049 (sigma / L1 up to 0.0207 against the 2% gate)
    from residue_lab.harness import run_scenario

    path = Path(__file__).resolve().parent.parent / "scenarios" / "p2_example22_perturbed.json"
    (task,) = run_scenario(str(path), seed=seed).tasks
    assert task.verdict == "pass"
    assert task.results["std_error"] <= 1e-10 * task.results["l1_mass"]


# ---------------------------------------------------- localization oracle


def _fiber_row(f, u):
    """f(1, u, w_2) as a polynomial in w_2, constant term first, from f's term map."""
    row = np.zeros(max(e[2] for e in f.terms) + 1, dtype=complex)
    for (_, e1, e2), c in f.terms.items():
        row[e2] += c * u**e1
    return row


def _curve_density(geo, u):
    """The curve form phi_c r_c / pi (sheet_terms_batch) summed over the sheets above u in chart 0."""
    roots = _solve_sheets(_fiber_row(geo.f, u)[None])[0]
    phi, r = geo.sheet_terms_batch(0, np.stack([np.full(len(roots), u), roots], axis=1))
    return (phi * r / np.pi).sum()


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
        phi0, r0 = geo.sheet_terms_batch(0, w[None])
        rho0 = phi0[0] * r0[0] / np.pi
        # chart 1 coordinates (z0/z1, z2/z1), base coordinate v0 = 1/u
        v = chart_coords(z, 1)
        phi1, r1 = geo.sheet_terms_batch(1, v[None])
        rho1 = phi1[0] * r1[0] / np.pi
        dv_du = -1.0 / u**2
        assert abs(rho0 - rho1 * abs(dv_du) ** 2) <= 1e-9 * max(1.0, abs(rho0))
        checked += 1
    assert checked >= 10


# ---------------------------------------------------- mass vs ledger


def test_local_masses_sum_to_global_estimate_p1():
    ctx = scenario_context("p1_o2")
    ledger = global_residue_sum(list(ctx.section), ctx.psi, seed=5)
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


def _ulps(got, want):
    """|got - want| in units of the spacing of floats at |want|."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_cube_root_is_the_principal_branch_within_4_ulps():
    rng = np.random.default_rng(65)
    random = rng.normal(size=20000) + 1j * rng.normal(size=20000)
    wide = 10.0 ** rng.uniform(-300, 300, 2000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
    negative = -(10.0 ** rng.uniform(-300, 300, 500))
    for z in (random, wide, negative + 0j, (negative + 0j).conj()):
        got = localize._cube_root(z)
        # the branch of z ** (1/3), arg in (-pi/3, pi/3]; at |z| near 1 within 4 ulps of it
        assert np.all(np.abs(got - z ** (1 / 3)) <= 1e-12 * np.abs(got))
        assert _ulps(got, z ** (1 / 3))[np.abs(np.log10(np.abs(z))) <= 1].max() <= 4
    # the negative real axis: arg z = +-pi by the sign of the zero imaginary
    # part, so -x - 0i has the conjugate root
    got = localize._cube_root(np.array([-8 + 0j, complex(-8, -0.0)]))
    assert np.allclose(got, [1 + 3**0.5 * 1j, 1 - 3**0.5 * 1j], rtol=0, atol=4e-16)
    assert np.array_equal(localize._cube_root((negative + 0j).conj()), localize._cube_root(negative + 0j).conj())
    zeros = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)])
    assert np.all(localize._cube_root(zeros) == 0) and np.all(zeros ** (1 / 3) == 0)
    mpmath = pytest.importorskip("mpmath")
    for z in (random[:500], wide, negative + 0j):
        # within 4 ulps of the cube root itself at every modulus (mpmath has
        # no signed zero); z ** (1/3) goes through log z and drifts to about
        # 300 ulps at 1e+-300
        with mpmath.workprec(200):
            want = np.array([complex(mpmath.cbrt(mpmath.mpc(w.real, w.imag))) for w in z])
        assert _ulps(localize._cube_root(z), want).max() <= 4


# ---------------------------------------------------- the line sampler


def test_curvature_entered_once_per_row_block(monkeypatch):
    # a chunk's lines are read ROW_BLOCK at a time, their points chart after
    # chart, so a tracer wrapping the sheet group counts every point once:
    # the calls sum to three points per line of a cubic, at most three
    # ROW_BLOCKs of points each
    from residue_lab import chartfun, localize, polycore

    monkeypatch.setattr(localize, "_CHUNK", 1500)
    monkeypatch.setattr(polycore, "ROW_BLOCK", 512)
    geo, group_rows = _fiber_family(3, True), []
    group_eval = chartfun.ChartGroup.eval_batch

    def rows_seen(self, W):
        group_rows.append(len(W))
        return group_eval(self, W)

    monkeypatch.setattr(chartfun.ChartGroup, "eval_batch", rows_seen)
    localize._sampled_term(geo, samples=4000, seed=3)
    assert sum(group_rows) == 3 * 4000 and max(group_rows) <= 3 * 512


@pytest.mark.parametrize("seed", range(1000, 1005))
def test_line_sampler_meets_the_gate_on_workload_cubics(seed):
    # perturbed cubics built as the curve workload builds them, at its 20,000
    # lines: sigma / L1 measured 0.45-0.54% at these seeds (the base-point
    # sampler read up to 5% on such cubics), |value| / sigma at most 1.42
    term = curve_localized_term(_random_perturbed_curve(seed, 3), samples=20000, seed=seed)
    assert term.samples == 20000 and term.nodes == 0
    assert term.std_error <= 0.01 * term.l1_mass and abs(term.value) <= 3 * term.std_error


def _branch_points(geo, rng, count):
    """``count`` distinct points of the curve where df/dw_2 = 0 in chart 0,
    by Newton's method on (f, df/dw_2) from random starts, as homogeneous
    vectors."""
    f = geo.f_aff(0)
    F = [f, f.partial(1)]
    J = [[g.partial(k) for k in range(2)] for g in F]
    found = []
    for _ in range(50):
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        for _ in range(60):
            w = w - np.linalg.solve([[complex(g.eval(w)) for g in row] for row in J], [complex(g.eval(w)) for g in F])
        residual = max(abs(complex(g.eval(w))) for g in F)
        if residual <= 1e-13 * f.coeff_norm() and all(np.abs(w - v).max() > 1e-6 for v in found):
            found.append(w)
        if len(found) == count:
            return [np.array([1.0, *w]) for w in found]
    raise AssertionError("too few branch points found")


def test_line_summand_is_finite_and_chart_free_at_a_branch_point():
    # where df/dw_2 = 0 in chart 0, phi_c has no finite value (sheet_terms_batch
    # refuses the point), but the summand divides by the FS norm of the
    # normal alone: it is finite and the same in every chart (measured within
    # 1.8e-15)
    from residue_lab.projgeom import GeometryError

    geo = _fiber_family(3, True)
    for z in _branch_points(geo, np.random.default_rng(70), 3):
        with pytest.raises(GeometryError, match="branch point"):
            geo.sheet_terms_batch(0, chart_coords(z, 0)[None])
        # chart 0 and every other chart whose coordinate is not small there
        charts = [chart for chart in range(3) if abs(z[chart]) >= 0.1 * np.abs(z).max()]
        got = [localize._line_summand(geo, chart, chart_coords(z, chart)[None])[0] for chart in charts]
        assert len(got) >= 2 and np.all(np.isfinite(got)) and abs(got[0]) > 0
        assert max(abs(g - got[0]) for g in got) <= 1e-10 * abs(got[0])


def _raise(*args, **kwargs):
    raise AssertionError("a line was drawn")


def test_zero_cubic_form_draws_no_line(monkeypatch):
    # a cubic whose curve form is zero by structure, under Fubini-Study and
    # under a perturbed metric of pair (v, f): 0 with no line drawn and
    # nothing evaluated
    fs = _random_fs_curve(3, 31)
    reversed_pair = MetricSpec("perturbed", epsilon=0.05, pair=(1, 0), q=parse_poly("z0^3 + z1*z2^2", 3), f_index=0)
    geos = [fs, _relabelled(fs, metric=reversed_pair)]
    _forbid_evaluation(monkeypatch)
    monkeypatch.setattr(localize, "_line_law", _raise)
    for geo in geos:
        term = curve_localized_term(geo, samples=20000, seed=31)
        assert _curve_fields(term) == _curve_fields(localize.CurveTerm(0j, 0.0, 0, 0.0, 0.0))
        assert term.samples == term.nodes == 0


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
    vr, lm = scenario_context("p2_22"), scenario_context("p1_o2")
    geo = _fiber_family(3, True)  # a cubic: the line sampler
    cases = [
        (lambda count: virtual_residue_sweep(vr, [0.05, 0.1, 0.5, 1.0, 2.0], count, seed=1), 200000),
        (lambda count: local_mass(lm, [1.0], 0.01, 0.5, count, seed=1), 200000),
        (lambda count: localize._sampled_term(geo, count, seed=1), 100000),
    ]
    for run, large in cases:
        run(1000)
        small_peak, large_peak = (_traced_peak(run, count) for count in (20000, large))
        assert large_peak - small_peak < 2**20


def test_one_seeded_stream_for_every_estimator():
    import inspect

    from residue_lab import localize

    assert inspect.getsource(localize).count("np.random.Philox(") == 1
    assert "np.random.Philox(key=seed, counter=start << 64)" in inspect.getsource(localize._philox)
    assert "_philox(seed, start)" in inspect.getsource(localize._run_chunks)
    assert "_philox(seed, 0)" in inspect.getsource(localize._conic_term)
    assert "_philox(seed, 0)" in inspect.getsource(localize._rule_sweep)


def test_curve_without_sheets_is_a_geometry_error():
    # the line z1 = z0 has no sheets over w_1, which a fiber needs and a
    # random line does not: the fiber is refused, the curve term is not
    from residue_lab.projgeom import GeometryError

    bundle = (1, 2)
    s = (parse_poly("z1 - z0", 3), HomogeneousPoly(3, 2, {}))
    geo = Example22Geometry(GeometryContext(bundle, s, MetricSpec(), parse_poly("1", 3)))
    term = curve_localized_term(geo, samples=2000, seed=1)
    assert term.value == 0 and term.pointwise_max == term.l1_mass == 0.0
    with pytest.raises(GeometryError, match="no sheets over w_1"):
        fiber_mass_quadrature(geo, 0.3 + 0.1j, t=0.01)


# ------------------------------------------------------------------ quadrature against its math


def _bits(z):
    """Both parts of a number as float.hex, sign bits included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _fiber_family(d, perturbed, eps=0.05):
    """A section (f, 0) of O(d) + O(2) on P^2 with complex coefficients, as
    in the oracle workload: Fubini-Study or perturbed metric (of epsilon
    ``eps``), conic or cubic.
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
        ms = MetricSpec("perturbed", epsilon=eps, pair=(0, 1), q=q, f_index=0)
    s = (parse_poly(f_text, 3), HomogeneousPoly(3, 2, {}))
    return Example22Geometry(GeometryContext((d, 2), s, ms, psi))


def test_fiber_disc_holds_the_fiber_mass(monkeypatch):
    """The default disc of _SIGMA_MULT widths against one of 16 widths with
    twice the radial nodes: what lies outside the default disc is below
    1e-10 of the mass (a disc of 3 widths misses about e^-9 of it)."""
    geo = _fiber_family(2, True)
    for u in (0.3 + 0.2j, -0.71 + 0.55j):
        default = fiber_mass_quadrature(geo, u, 1e-3)
        monkeypatch.setattr(localize, "_SIGMA_MULT", 16.0)
        wide = fiber_mass_quadrature(geo, u, 1e-3, radial_nodes=160)
        monkeypatch.undo()
        assert abs(default - wide) <= 1e-10 * abs(wide)


def test_polar_disc_is_its_definition():
    # Gauss-Legendre radii on [0, R], exact for r^j, j < 2 radial (measured
    # within 9.1e-13 at j = 239), and r e^{i theta} ray after ray, theta = 2 pi k / angular
    for R, radial, angular in ((1.0, 80, 24), (0.0173, 120, 32), (28.3, 7, 5)):
        r, wr, zeta = localize._polar_disc(R, radial, angular)
        assert r.shape == wr.shape == (radial,) and zeta.shape == (angular * radial,)
        assert np.all(np.diff(r) > 0) and 0 < r[0] and r[-1] < R
        for j in range(2 * radial):
            assert abs(np.sum(wr * (r / R) ** j) / R * (j + 1) - 1) <= 1e-11
        theta = 2 * math.pi * np.arange(angular) / angular
        assert np.abs(zeta.reshape(angular, radial) - r * np.exp(1j * theta)[:, None]).max() <= 1e-15 * R


@pytest.mark.parametrize("perturbed", [False, True], ids=["fs", "perturbed"])
@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_fiber_mass_tends_to_the_summed_curve_density(d, perturbed):
    """Laplace's method: the fiber mass is rho + O(t), rho the curve density
    summed over the sheets above u, so one Richardson step 2 q(t/2) - q(t)
    is rho + O(t^2).  At t = 1e-5 the discs are ten times narrower than at
    1e-3, where a cubic's discs reach the neighbouring sheets; measured at
    most 1.2e-9 (conic) and 5.0e-6 (cubic) relative, and the mass q itself
    within 6.5e-5 (conic) and 2.2e-3 (cubic) of rho.  Under Fubini-Study
    both sides are zero."""
    geo = _fiber_family(d, perturbed)
    for u in _FIBERS:
        rho = _curve_density(geo, u)
        q, q_half = (fiber_mass_quadrature(geo, u, t) for t in (1e-5, 5e-6))
        assert abs(q - rho) <= 3e-2 * abs(rho)
        assert abs(2 * q_half - q - rho) <= {2: 1e-8, 3: 1e-5}[d] * abs(rho)
        assert bool(rho) is perturbed


@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_the_fiber_row_and_its_derivative_against_the_term_map(monkeypatch, d):
    # the fiber {w_1 = u} is the line law's line z_1 = u z_0: the row it
    # solves is f(1, u, w_2) from f's term map, and df/dw_2 at each sheet is
    # the scalar route's, for |u| below and above 1 (measured at most 1.2e-16
    # relative on the row and 3.7e-16 relative on df/dw_2)
    rows, solve = [], localize._solve_sheets
    monkeypatch.setattr(localize, "_solve_sheets", lambda coeffs, **kw: rows.append(coeffs[0]) or solve(coeffs, **kw))
    for geo in (_fiber_family(d, True), _random_fs_curve(d, 31)):
        df = geo.f_aff(0).partial(1)
        for u in (*_FIBERS, 0.4 - 3.1j, -12.5 + 0.25j):
            roots, fns = localize._fiber_sheets(geo, u)
            want = _fiber_row(geo.f, u)
            assert np.abs(rows.pop() - want).max() <= 1e-15 * np.abs(want).max()
            ref = np.array([df.eval([u, root]) for root in roots])
            assert len(roots) == d and np.abs(fns - ref).max() <= 1e-13 * np.abs(ref).max()


def test_the_fiber_compiles_its_restriction_once_per_context(monkeypatch):
    # one line kernel per context, not one per call: a compile costs about
    # as much as the rest of a Fubini-Study fiber
    from residue_lab.polycore import PolyKernel

    compiles, init = [], PolyKernel.__init__
    monkeypatch.setattr(PolyKernel, "__init__", lambda self, *a: compiles.append(1) or init(self, *a))
    for geo in (_fiber_family(2, False), _fiber_family(3, True)):
        geo.ctx.density_group(0)  # the density's own kernel, compiled first
        counts = []
        for _ in range(2):
            compiles.clear()
            fiber_mass_quadrature(geo, 0.3 + 0.2j, 1e-3)
            counts.append(len(compiles))
        assert counts == [1, 0]


def test_no_production_route_reaches_the_scalar_evaluator(monkeypatch):
    # the scalar eval is the tests' reference: the bundled scenarios give
    # their verdicts, and the fibers their values, with it raising
    from residue_lab.harness import run_scenario
    from residue_lab.polycore import _PolyBase

    paths = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
    assert len(paths) == 7

    def verdicts():
        return [[(t.kind, t.verdict) for t in run_scenario(str(path)).tasks] for path in paths]

    def scalar(*args):
        raise AssertionError("the scalar eval was called")

    want = verdicts()
    monkeypatch.setattr(_PolyBase, "eval", scalar)
    assert verdicts() == want
    for d in (2, 3):
        geo = _fiber_family(d, True)
        assert all(np.isfinite(fiber_mass_quadrature(geo, u, 1e-3)) for u in _FIBERS)


# ------------------------------------------------------------------ refusals


@pytest.mark.parametrize("t", [-0.5, 0.0, float("nan"), float("inf")])
def test_every_entry_point_refuses_a_t_that_is_not_positive(t):
    from residue_lab.projgeom import GeometryError

    with pytest.raises(GeometryError, match="t must be positive"):
        flat_gaussian_mass(t)
    with pytest.raises(GeometryError, match="t must be positive"):
        fiber_mass_quadrature(Example22Geometry(example22_context()), 0.4 + 0.3j, t)
    with pytest.raises(GeometryError, match="t must be positive"):
        virtual_residue_sweep(scenario_context("p1_o2"), [0.5, t], samples=1000, seed=1)
    with pytest.raises(GeometryError, match="t must be positive"):
        local_mass(scenario_context("p1_o2"), [1.0], t, radius=0.5, samples=1000, seed=1)
    # the tensor route shares the rule: a NaN t once gave nan and an infinite one 0j
    model = FlatModel([AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j))
    with np.errstate(all="raise"):  # refused before any arithmetic
        with pytest.raises(GeometryError, match="t must be positive"):
            global_density_tensor(model, 0, [[0.3 + 0.1j]], t)


@pytest.mark.parametrize("radius", [-0.5, 0.0, float("nan"), float("inf")])
def test_local_mass_refuses_a_radius_that_is_not_positive(radius, monkeypatch):
    # refused before any sample: radius -0.5 once gave the radius-0.5 mass,
    # 0 gave 0 +- 0, and NaN or inf a NaN with RuntimeWarnings
    from residue_lab.projgeom import GeometryError

    monkeypatch.setattr(localize, "_run_chunks", None)  # drawing would fail on the call
    with np.errstate(all="raise"):
        with pytest.raises(GeometryError, match="radius must be positive"):
            local_mass(scenario_context("p1_o2"), [1.0], 0.01, radius=radius, samples=20000, seed=1)


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
def test_fs_curve_term_is_the_generic_route_bit_for_bit(d, seed):
    # the curve term against the generic route, which evaluates the form at
    # every node or line point (a conic's rule, else the line sampler): a
    # random FS curve, whose form is zero by structure and which evaluates
    # nothing, and the coupled metric of the oracle's perturbed fibers,
    # whose form is not
    route = localize._conic_term if d == 2 else partial(localize._sampled_term, samples=3000)
    geos = (_random_fs_curve(d, seed), _fiber_family(d, True))
    got = [_curve_fields(curve_localized_term(geo, samples=3000, seed=seed)) for geo in geos]
    assert got == [_curve_fields(route(geo, seed=seed)) for geo in geos]
    assert got[0][0] == _ZERO != got[1][0]


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
            assert _bits(fiber_mass_quadrature(geo, u, t)) == _ZERO


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
        assert _bits(fiber_mass_quadrature(geo, u, 1e-3)) != _ZERO
        assert calls == [d]


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


def _curve_fields(term):
    return (_bits(term.value), term.std_error.hex(), term.pointwise_max.hex(), term.l1_mass.hex())


@pytest.mark.parametrize("epsilon", [None, 0.2, 0.5], ids=["default", "0.2", "0.5"])
@pytest.mark.parametrize("seed", [31, 32, 33])
@pytest.mark.parametrize("d", [2, 3], ids=["conic", "cubic"])
def test_split_curve_term_is_the_evaluated_density_bit_for_bit(d, seed, epsilon):
    # a curve whose form is zero by structure: under Fubini-Study, a split
    # metric ("default"), or a perturbation of pair (v, f) and that epsilon.
    # The term returned with nothing drawn is, field by field and sign bits
    # included, the line law's mean of summands evaluated at every line point
    geo = _random_fs_curve(d, seed)
    if epsilon is not None:
        q = HomogeneousPoly(3, d, {(d, 0, 0): 0.25, (0, 1, d - 1): 0.25})
        geo = _relabelled(geo, metric=MetricSpec("perturbed", epsilon=epsilon, pair=(1, 0), q=q, f_index=0))
    evaluated = localize._sampled_term(geo, samples=3000, seed=seed)
    term = curve_localized_term(geo, samples=3000, seed=seed)
    assert _curve_fields(term) == _curve_fields(evaluated)
    assert term.samples == 0 and evaluated.samples == 3000


def test_split_curve_term_evaluates_no_density(monkeypatch):
    fs = _random_fs_curve(3, 31)
    geos = [fs, _relabelled(fs, metric=_Q0)]
    _forbid_evaluation(monkeypatch)
    monkeypatch.setattr(Example22Geometry, "sheet_group", _evaluating)
    for geo in geos:
        term = curve_localized_term(geo, samples=3000, seed=31)
        assert term.value == 0 and term.pointwise_max == term.l1_mass == 0.0


def test_reversed_pair_curve_term_evaluates_no_density(monkeypatch, tmp_path):
    """The bundled perturbed scenario with pair = (v, f): its coupling G_fv
    carries f conjugated, so K / G_ff has no terms and r_c is zero by
    structure.  On Z the conj(f) coupling enters entry (f, v) of the Chern
    curvature only through conj(d_b f), which the conjugated sheet tangent
    annihilates; a split metric is the case of no coupling at all, its Chern
    connection being the sum of the summands' (Griffiths and Harris,
    Principles of Algebraic Geometry, 1978, ch. 0 sec. 5).  So the task reads
    exactly 0 with no density evaluated, where the Chern contraction left
    rounding noise of about 1e-19 whose sigma / L1 test passed by chance."""
    import json

    from residue_lab.harness import run_scenario

    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / "p2_example22_perturbed.json").read_text())
    doc["metric"]["pair"] = [1, 0]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(Example22Geometry, "sheet_group", _evaluating)
    (task,) = run_scenario(str(path)).tasks
    assert task.verdict == "pass"
    assert _bits(task.results["value"]) == _ZERO
    assert task.results["std_error"] == task.results["l1_mass"] == task.results["pointwise_max"] == 0.0


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


@pytest.mark.parametrize("samples", [0, -5])
def test_a_sample_count_below_one_is_refused(samples):
    from residue_lab.projgeom import GeometryError

    with pytest.raises(GeometryError, match="at least 1 sample"):
        local_mass(scenario_context("p1_o2"), [1.0], 0.01, 0.5, samples, seed=1)
    with pytest.raises(GeometryError, match="at least 1 sample"):
        curve_localized_term(Example22Geometry(example22_context()), samples, seed=1)
