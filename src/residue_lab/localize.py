"""Monte Carlo and quadrature verification of the residue integral identities.

Global integrand.  For psi = P dw_1..dw_n (x) e_1..e_n and the scaled
superconnection datum S/2t (scalar -|s|^2/2t, one-form A = -(1/2t) dbar<.,s>),
the only term of psi . e^{S/2t} reaching form bidegree (n, n) is the top
wedge power of the one-form, and the coefficient collapses to a determinant:

    coeff(dw_1..dw_n ^ dwbar_1..dwbar_n) = e^{-|s|^2/2t} (-1)^n P det(A).

Converting to Lebesgue measure (dw_1..dw_n ^ dwbar_1..dwbar_n =
(-1)^{n(n-1)/2} (-2i)^n prod dx_k dy_k) and applying the (-1)^n/(2 pi i)^n
prefactor leaves the real-measure density

    g = (-1)^{n(n+1)/2} / pi^n * e^{-|s|^2/2t} P det(A),

which the flat one-dimensional Gaussian oracle pins to unit local mass.  The
tensor-algebra route (superalg.top_pairing, in :func:`global_density_tensor`)
computes the same coefficient and the agreement is tested; it takes a batch of
points and runs the tensor algebra once with array coefficients, on the rows
that the determinant form, the production path, reads (:func:`_density_rows`).

Curve term.  For the split-section family on P^2 the curve form on Z = {f = 0},
in a chart with base coordinate w_1 and sheet coordinate w_2, is

    (phi . (-2 pi i)(1 - r))^{(1,1)} * prefactor = (phi_c r_c / pi) dx dy,

dx dy the Lebesgue measure of w_1, with phi_c = psi / (df/dw_2) and r_c =
sum_b conj(tau_b) dbar_b(K / G_ff), tau the sheet tangent and G_fv = f K +
conj(f) L the coupling: the closed form on the curve, which builds no Chern
curvature.  Both routes read it as the Crofton summand (_line_summand), pi
times the form over the curve's FS area element: bounded on a smooth curve
and the same in every chart, each point read in the chart of its largest
coordinate (_curve_summands).  A smooth conic is a P^1: z = T R x(s), with T a Takagi frame of f (_conic_frame), R a
real rotation drawn from the seed and x(s) = (1 - s^2, i (1 + s^2), 2s) the
standard conic x.x = 0.  A product rule (_sphere_rule: Gauss-Legendre in
cos theta times equally spaced phases) weights each node's summand by the
curve's FS area over pi against the sphere's probability measure
(_conic_rule) and integrates the smooth pulled-back form spectrally; the
rule at orders m and 2m gives the value and its error (_conic_term).  A
curve of any other degree is sampled over random lines (Crofton's formula):
a line {a.z = 0}, a FS-uniform on the dual plane, meets the curve in d
points, and the mean over lines of the sum of the summands there is the
integral (_sampled_term).  Where K has no terms (Fubini-Study, or a
perturbation with pair = (v, f)), r_c and the curve form are identically 0,
and the term is 0 with nothing drawn or evaluated, on every degree.

Quadrature.  The two oracles, :func:`flat_gaussian_mass` and
:func:`fiber_mass_quadrature`, integrate over polar discs by one rule,
:func:`_disc_sum`: one row reduction per ray, the rays added in order.  A
fiber whose det(Abar) is zero by structure is 0j with no disc built.

Sweep.  On P^1 and P^2 the global integral is a product rule for the FS
probability measure, rotated by one Haar unitary U drawn from the seed
(Genz and Monahan, SIAM J. Sci. Comput. 19, 1998).  FS-uniform on P^n is
uniform on the simplex of the x_i = |Z_i|^2 times uniform phases: on P^1
Gauss-Legendre in x_0 - x_1 = cos theta times 2m + 1 phases (_sphere_rule),
on P^2 an m x m Gauss-Legendre rule on the simplex by Duffy's map (x_1 = u,
x_2 = (1 - u) v, weight 2 (1 - u) w_u w_v) times a 2m x 2m trapezoid on the
phases, which converges geometrically on a smooth periodic integrand
(Trefethen and Weideman, SIAM Review 56, 2014).  A node Z = (sqrt x_0,
sqrt x_1 e^{i phi_1}, sqrt x_2 e^{i phi_2}) is read as UZ, in the chart of
its largest coordinate, with row weight w / p (_rule_law).  The rule at
orders m and m // 2, m the largest whose two rules fit in ``samples``
nodes, gives the value and its error bound (_rule_sweep), as a conic's
rule does.  Monte Carlo stays for n >= 3.

Sampling.  Every Monte Carlo estimator is a point law and its rows, run by
:func:`_run_chunks` on the seeded Philox stream in fixed chunks.  A point law
draws a chunk's points and their sampling density p and evaluates nothing:
FS-uniform on P^n chart by chart (the sweep on n >= 3), uniform on a ball of
chart 0 (the local mass), or random lines with their d points on the curve
(a curve that is not a conic), whose law needs no density: a line's rows are
its summands' sum.  The rows, one per reported quantity, are the integrand
there over p; the sweep, its rule included, and the local mass share theirs,
one density pass over the t-free |s|^2 and P det(Abar) for every t.  Each
chunk is reduced at once to a :class:`_Summary` per row (count, sum, M2 =
sum |x - mean|^2, and the curve's row maxima), and the summaries merge in
chunk order by the pairwise update of Chan, Golub and LeVeque (The American
Statistician 37, 1983); a rule's chunks, of at most half as many nodes
built from cached 1-D factors (_rule_sums), reduce to their sums and L1
masses, added in chunk order (_chunked).  So the working set does not grow
with the sample count, and results do not depend on the thread count.  A
curve chunk's line roots and summands are computed ROW_BLOCK rows at a
time, the blocks that PolyKernel and ChartGroup use.  :class:`FlatModel` is
a density source under the identity metric, on chart 0 only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .chartfun import ChartFunction, ChartGroup
from .polycore import AffinePoly, HomogeneousPoly, PolyKernel, _substitute_terms, row_blocks
from .projgeom import (
    Example22Geometry,
    GeometryContext,
    GeometryError,
    _assemble_chart,
    _check_positive,
    _det,
    by_chart,
    fs_density,
    fs_uniform_points,
)
from .superalg import SForm, SuperTensor, contract, exp_S, top_pairing

__all__ = [
    "IntegralEstimate",
    "CurveTerm",
    "FlatModel",
    "flat_gaussian_mass",
    "virtual_residue_sweep",
    "local_mass",
    "det_N_inverse_term",
    "curve_localized_term",
    "fiber_mass_quadrature",
]

_CHUNK = 1 << 14
# fewest samples of a virtual residue sweep
SWEEP_MIN_SAMPLES = 1000
# Gauss-Legendre order of a conic's coarser sphere rule; the finer has twice it
_CONIC_ORDER = 24
# least std_error of a product rule, a conic's or the sweep's, as a fraction of
# its L1 mass: the rounding of its sum
_RULE_FLOOR = 1e-12
# fiber quadrature disc radius in Gaussian widths: e^{-144} of the peak at its rim
_SIGMA_MULT = 12.0


@dataclass(frozen=True)
class IntegralEstimate:
    """One integral: ``samples`` counts the points drawn (0 on the sweep's
    product rule), ``nodes`` the rule's nodes at both orders (0 on Monte
    Carlo).  On a rule ``std_error`` is its error bound."""

    value: complex
    std_error: float
    samples: int
    t: float
    nodes: int = 0


@dataclass(frozen=True)
class CurveTerm:
    """The curve term: ``samples`` counts the lines drawn (0 on a conic's rule
    and where the form is zero by structure), ``nodes`` the rule's nodes (0
    on the sampler).  ``pointwise_max`` is the largest |summand| seen, pi
    times the form over the curve's FS area element, on both routes."""

    value: complex
    std_error: float
    samples: int
    pointwise_max: float
    l1_mass: float
    nodes: int = 0


class FlatModel:
    """Flat-metric density source on C^n (h = identity): ``data``, chart 0
    assembled from s_aff and psi_aff, and its density group; any other chart
    is refused with GeometryError.  Used by the normalization oracle and tests."""

    def __init__(self, s_aff: Sequence[AffinePoly], psi_aff: AffinePoly):
        self.n = n = s_aff[0].num_vars
        identity = [[ChartFunction.from_parts(n, coef=float(i == j)) for j in range(n)] for i in range(n)]
        self.data = _assemble_chart(list(s_aff), psi_aff, identity)
        self._group = ChartGroup(n, self.data.density_terms())

    def density_group(self, chart: int) -> ChartGroup:
        if chart != 0:
            raise GeometryError(f"a flat model has chart 0 only, not chart {chart}")
        return self._group


def _density_rows(ctx, chart: int, W: np.ndarray):
    """(|s|^2, Abar, P) at points W, (N, n), from one evaluation of the chart's
    density group, the one reader of its rows: |s|^2 complex, real up to
    rounding, and Abar (N, n, n) with [b, p] = dbar_b xi_p."""
    V = ctx.density_group(chart).eval_batch(W)
    return V[0], V[1:-1].T.reshape(len(W), ctx.n, ctx.n), V[-1]


def _density_parts(ctx, chart: int, W: np.ndarray):
    """The t-independent parts of the global density, |s|^2 and P det(Abar)."""
    s2, Abar, P = _density_rows(ctx, chart, W)
    return s2.real, P * _det(Abar)


def _density(n: int, s2: np.ndarray, psi_det: np.ndarray, ts: Sequence[float]) -> np.ndarray:
    """g at every t of ``ts`` from its t-independent parts, shape (len(ts), N),
    with det(A) = det(-Abar/2t) = det(Abar) (-1/2t)^n; the power is taken in
    Python floats, one per t."""
    pref = (-1.0) ** (n * (n + 1) // 2) / math.pi**n
    t = np.array(ts, dtype=float)[:, None]
    scale = np.array([(-1.0 / (2.0 * v)) ** n for v in ts])[:, None]
    return pref * np.exp(-s2 / (2.0 * t)) * psi_det * scale


def global_density(ctx, chart: int, W: np.ndarray, t: float) -> np.ndarray:
    """Real-measure density g of the prefactored (n,n) integrand (module doc)."""
    return _density(ctx.n, *_density_parts(ctx, chart, W), [t])[0]


def global_density_tensor(ctx, chart: int, W: np.ndarray, t: float) -> np.ndarray:
    """Same density through the tensor-algebra route at a batch of points W
    of shape (N, n), as an (N,) array from one pass of the tensor algebra;
    reference path.  Its datum S/2t is -rows/2t of :func:`_density_rows`, so
    the two routes differ in the algebra alone.  A t that is not positive and
    finite is refused first, with GeometryError."""
    _check_positive(t)
    n = ctx.n
    full = tuple(range(1, n + 1))
    s2, Abar, P = _density_rows(ctx, chart, W)
    one = {(b + 1, p + 1): -Abar[:, b, p] / (2.0 * t) for b in range(n) for p in range(n)}
    S = SForm(n, -s2 / (2.0 * t), one)
    psi = SuperTensor.monomial(n, I=full, K=full, c=P)
    coeff = top_pairing(psi, exp_S(S))
    # (n,n)-basis to Lebesgue: interleave sign and (-2i)^n, then prefactor
    conv = (-1.0) ** (n * (n - 1) // 2) * (-2j) ** n
    pref = (-1.0) ** n / (2j * math.pi) ** n
    dens = pref * conv * coeff
    return np.broadcast_to(dens, len(W)).astype(complex)


class _Summary(NamedTuple):
    """Per-row reduction of samples in rows (estimates, count): the count,
    the row sums, M2 = sum |x - row mean|^2 and, if asked for, the row maxima
    of the real part."""

    count: int
    total: np.ndarray
    m2: np.ndarray
    top: Optional[np.ndarray]


def _summarize(rows: np.ndarray, top: bool) -> _Summary:
    """The summary of one chunk's rows, (estimates, count)."""
    total = rows.sum(axis=1)
    dev = (rows - (total / rows.shape[1])[:, None]).view(np.float64)
    # squared in place and summed along each row: a row's M2 does not depend
    # on the rows beside it
    m2 = np.square(dev, out=dev).sum(axis=1)
    return _Summary(rows.shape[1], total, m2, rows.real.max(axis=1) if top else None)


def _merge(a: _Summary, b: _Summary) -> _Summary:
    """The summary of a's samples followed by b's (Chan, Golub and LeVeque)."""
    count = a.count + b.count
    delta = b.total / b.count - a.total / a.count
    m2 = a.m2 + b.m2 + (delta.real**2 + delta.imag**2) * (a.count * b.count / count)
    return _Summary(count, a.total + b.total, m2, None if a.top is None else np.maximum(a.top, b.top))


def _estimate(s: _Summary, row: int) -> Tuple[complex, float]:
    """Mean of one row and its standard error sqrt(M2 / (n (n - 1)))."""
    mean = complex(s.total[row] / s.count)
    if s.count < 2:
        return mean, float("inf")
    return mean, math.sqrt(float(s.m2[row]) / (s.count * (s.count - 1)))


def _check_count(count: int) -> None:
    """Refuse a sample count below 1 with GeometryError."""
    if count < 1:
        raise GeometryError(f"at least 1 sample required, got {count}")


def _philox(seed: int, start: int) -> np.random.Generator:
    """The seeded Philox stream at sample ``start``: counter start << 64."""
    return np.random.default_rng(np.random.Philox(key=seed, counter=start << 64))


def _run_chunks(points, rows, count: int, seed: int, threads: int, top: bool = False) -> _Summary:
    """rows(*points(rng, size)) over fixed chunks of ``count`` samples: a point
    law draws the chunk's points and their sampling density p, the rows are the
    integrand there, one row per reported quantity.  Each chunk is summarized
    as soon as it is drawn and merged in chunk order.  The chunk starting at
    sample ``start`` draws from the Philox stream of ``seed`` at counter
    start << 64, so chunk boundaries, streams and merge order, and with them
    the results, are the same for any thread count.  A count below 1 is
    refused with GeometryError."""
    _check_count(count)

    def chunk(start: int) -> _Summary:
        return _summarize(rows(*points(_philox(seed, start), min(_CHUNK, count - start))), top)

    return _chunked(chunk, range(0, count, _CHUNK), threads, _merge)


def _chunked(chunk, starts: range, threads: int, merge):
    """chunk(start) for every start, on ``threads`` threads, reduced by
    ``merge`` in chunk order."""
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor  # here: importing the package does not load it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return functools.reduce(merge, pool.map(chunk, starts))
    return functools.reduce(merge, map(chunk, starts))


# Gauss-Legendre nodes and weights on [-1, 1], computed once per node count (read only)
_leggauss = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _polar_disc(R: float, radial_nodes: int, angular_nodes: int):
    """Polar quadrature of the disc |zeta| <= R: Gauss-Legendre radii r with
    weights wr, and the points zeta = r e^{i theta} ray after ray, for
    ``angular_nodes`` equally spaced angles, built in one broadcast."""
    nodes, weights = _leggauss(radial_nodes)
    r = 0.5 * R * (nodes + 1.0)
    wr = 0.5 * R * weights
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    return r, wr, (r * np.exp(1j * thetas)[:, None]).reshape(-1)


def _disc_sum(density, R: float, radial_nodes: int, angular_nodes: int, total):
    """``total`` plus the polar quadrature of density(zeta) over |zeta| <= R
    (_polar_disc): density times r wr is summed along each ray in one row
    reduction, and the rays, each of weight 2 pi / angular_nodes, are added
    to ``total`` in order, so the bits are those of a sum per ray."""
    r, wr, zeta = _polar_disc(R, radial_nodes, angular_nodes)
    wth = 2.0 * math.pi / angular_nodes
    for ray_sum in (density(zeta).reshape(angular_nodes, radial_nodes) * r * wr).sum(axis=1):
        total += ray_sum * wth
    return total


# ------------------------------------------------------------------ oracle


@functools.cache
def _flat_unit() -> FlatModel:
    """The oracle's instance, built once: its density group compiles on first use."""
    return FlatModel([AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j))


def flat_gaussian_mass(t: float, radial_nodes: int = 120, angular_nodes: int = 32) -> float:
    """Unit-mass normalization oracle: s = w, psi = dw (x) e_1, flat metric.

    Integrates the real part of the pipeline integrand over C (_disc_sum); the
    exact value is 1 for every t > 0, which pins every sign and constant
    convention at once.  A t that is not positive and finite is refused with
    GeometryError.
    """
    _check_positive(t)
    model = _flat_unit()

    def density(zeta):
        return global_density_tensor(model, 0, zeta[:, None], t).real

    return float(_disc_sum(density, 10.0 * math.sqrt(2.0 * t), radial_nodes, angular_nodes, 0.0))


# ------------------------------------------------------------------ global MC


def _fs_parts(Z: np.ndarray):
    """The (chart, rows, W) of ``by_chart`` of points Z of P^n, (N, n + 1),
    and p, the FS density at every point."""
    n = Z.shape[1] - 1
    parts, p = list(by_chart(Z)), np.empty(len(Z))
    for _, rows, W in parts:
        p[rows] = fs_density(W, n)
    return parts, p


def _fs_law(n: int, rng: np.random.Generator, count: int):
    """FS-uniform points of P^n, as parts and their FS density (_fs_parts)."""
    return _fs_parts(fs_uniform_points(n, count, rng))


def _rule_law(n: int, m: int, U: np.ndarray, which: np.ndarray):
    """The nodes of the simplex nodes ``which`` of the order-m rule on P^n
    rotated by U (_product_rule), as parts (_fs_parts), and p over the node
    weight w, so that a row is the integrand times w / p."""
    Z, w = _product_rule(n, m, which, U)
    parts, p = _fs_parts(Z)
    return parts, np.divide(p, w, out=p)


def _ball_law(center: np.ndarray, radius: float, rng: np.random.Generator, count: int):
    """Uniform points of the ball |w - center| <= radius in chart 0, as one
    part over every row, and p = n! / (pi^n radius^2n)."""
    n = len(center)
    direction = rng.standard_normal((count, 2 * n))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    radii = radius * rng.uniform(size=count) ** (1.0 / (2 * n))
    W = center[None, :] + radii[:, None] * (direction[:, :n] + 1j * direction[:, n:])
    return [(0, slice(None), W)], np.full(count, math.factorial(n) / (math.pi**n * radius ** (2 * n)))


def _global_rows(src, ts: Sequence[float], parts, p: np.ndarray) -> np.ndarray:
    """g / p at every t of ``ts``, (len(ts), N): each part scatters the
    density's t-free values, then one density pass gives every t."""
    s2, psi_det = np.empty(len(p)), np.empty(len(p), dtype=complex)
    for chart, rows, W in parts:
        s2[rows], psi_det[rows] = _density_parts(src, chart, W)
    out = _density(src.n, s2, psi_det, ts)
    return np.divide(out, p, out=out)  # in place: a chunk holds one (len(ts), N) result


def virtual_residue_sweep(
    ctx: GeometryContext,
    ts: Sequence[float],
    samples: int,
    seed: int,
    threads: int = 1,
) -> List[IntegralEstimate]:
    """The prefactored global integral for several values of t, each point
    evaluated once for every t: on P^1 and P^2 by the rotated product rule
    within ``samples`` nodes (:func:`_rule_sweep`), which draws none of
    them, and on P^n, n >= 3, by FS-uniform Monte Carlo.  Fewer than
    SWEEP_MIN_SAMPLES samples, or a t that is not positive and finite, is
    refused with GeometryError."""
    if samples < SWEEP_MIN_SAMPLES:
        raise GeometryError(f"at least {SWEEP_MIN_SAMPLES} samples required")
    for t in ts:
        _check_positive(t)
    if ctx.n <= 2:
        return _rule_sweep(ctx, ts, samples, seed, threads)
    fs, rows = functools.partial(_fs_law, ctx.n), functools.partial(_global_rows, ctx, ts)
    summary = _run_chunks(fs, rows, samples, seed, threads)
    return [
        IntegralEstimate(*_estimate(summary, k), samples, float(t)) for k, t in enumerate(ts)
    ]


def _rule_sweep(ctx: GeometryContext, ts: Sequence[float], samples: int, seed: int, threads: int):
    """The sweep on P^1 or P^2 by the product rule rotated by one Haar
    unitary U drawn from the seed, at the order m of _sweep_order.  The
    value is the order-m sum; its std_error is |Q_m - Q_(m // 2)|, and at
    least _RULE_FLOOR times its L1 mass, as a conic's rule has it."""
    n = ctx.n
    m = _sweep_order(n, samples)
    U = _rotation(_philox(seed, 0), n + 1, unitary=True)
    (value, l1), (coarse, _) = (_rule_sums(ctx, ts, U, order, threads) for order in (m, m // 2))
    sigma = np.maximum(np.abs(value - coarse), _RULE_FLOOR * l1.real)
    nodes = _rule_size(n, m) + _rule_size(n, m // 2)
    return [IntegralEstimate(complex(value[k]), float(sigma[k]), 0, float(t), nodes) for k, t in enumerate(ts)]


def _rule_sums(ctx: GeometryContext, ts: Sequence[float], U: np.ndarray, m: int, threads: int) -> np.ndarray:
    """The order-m rule's sum of the rows and of their moduli, its L1 mass,
    at every t, (2, len(ts)).  A chunk is as many whole simplex nodes as
    hold at most _CHUNK // 2 nodes, or one, taken in strided order: every
    J-th from the first, then from the second and so on, J the number of
    chunks, so that each chunk spreads over the whole simplex.  Its points
    still fall unevenly into the charts (on P^2 up to 54% in one, where
    FS-uniform points put a third in each), so a chunk holds half a
    sampler's: its largest chart part, which sets the working set, stays
    below a sampler chunk's."""
    simplex = m**ctx.n
    step = max(_CHUNK // 2 * simplex // _rule_size(ctx.n, m), 1)  # simplex nodes per chunk
    order = np.argsort(np.arange(simplex) % -(-simplex // step), kind="stable")

    def chunk(start: int) -> np.ndarray:
        rows = _global_rows(ctx, ts, *_rule_law(ctx.n, m, U, order[start : start + step]))
        return np.stack([rows.sum(axis=1), np.abs(rows).sum(axis=1)])

    return _chunked(chunk, range(0, simplex, step), threads, np.add)


def _rule_size(n: int, m: int) -> int:
    """Nodes of the order-m product rule on P^n: m (2m + 1) on P^1, m^2
    simplex nodes times (2m)^2 phases on P^2."""
    return m * (2 * m + 1) if n == 1 else 4 * m**4


def _sweep_order(n: int, samples: int) -> int:
    """The largest order m whose rules at m and m // 2 take at most
    ``samples`` nodes together, and at least 1."""
    m = 1
    while _rule_size(n, m + 1) + _rule_size(n, (m + 1) // 2) <= samples:
        m += 1
    return m


def local_mass(
    ctx,
    center: Sequence[complex],
    t: float,
    radius: float,
    samples: int,
    seed: int,
    threads: int = 1,
) -> IntegralEstimate:
    """Ball-restricted integral of the same integrand around one zero of chart 0.

    As t -> 0 the mass converges to the local residue at the center (for
    n = 1; in higher dimension an orientation factor (-1)^{n(n-1)/2} from the
    pairing convention multiplies it, invisible to the vanishing statements).
    """
    _check_positive(t)
    _check_positive(radius, "radius")
    ball = functools.partial(_ball_law, np.asarray(center, dtype=complex), radius)
    summary = _run_chunks(ball, functools.partial(_global_rows, ctx, [t]), samples, seed, threads)
    return IntegralEstimate(*_estimate(summary, 0), samples, t)


# ------------------------------------------------------------------ curve


def det_N_inverse_term(r_val: complex) -> SuperTensor:
    """(-2 pi i)(1 - r) on the rank-one normal bundle of a curve: the inverse
    normalized determinant truncates because the curvature term carries a
    (0,1) form factor that squares to zero on a one-dimensional base."""
    n = 1
    const = SuperTensor.scalar(n, -2j * math.pi)
    lin = SuperTensor.monomial(n, J=(1,), L=(1,), c=2j * math.pi * r_val)
    return const.add(lin)


def curve_integrand_tensor(phi_c: complex, r_val: complex) -> complex:
    """(1,1)-coefficient of phi . det_N_inverse_term through the tensor path,
    including the 1/(2 pi i)^2 prefactor; reference for the fast path."""
    phi = SuperTensor.monomial(1, I=(1,), K=(1,), c=phi_c)
    res = contract(phi, det_N_inverse_term(r_val))
    coeff = res.coeff(I=(1,), J=(1,))
    pref = 1.0 / (2j * math.pi) ** 2
    conv = -2j  # dw ^ dwbar to dx dy
    return complex(pref * conv * coeff)


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b, and 0 where b is 0 (a finite there)."""
    return a / np.where(b == 0, np.inf, b)


def _quadratic_roots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Roots of x^2 + p x + q, (N, 2): the larger by the formula's sign that
    does not cancel, the smaller as q over it."""
    s = np.sqrt(p * p / 4 - q)
    big = -(p / 2 + np.where((p.conj() * s).real < 0, -s, s))
    return np.stack([big, _div(q, big)], axis=1)


def _cube_root(z: np.ndarray) -> np.ndarray:
    """The principal cube root, the branch of z ** (1/3), in polar form:
    cbrt(|z|) exp(i arg z / 3), without the complex power's log and exp."""
    return np.cbrt(np.abs(z)) * np.exp(1j * np.angle(z) / 3)


def _solve_sheets(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of polynomials in the sheet variable.

    coeffs: (N, m+1), constant term first, leading coefficients nonzero.
    Returns (N, m) roots: in closed form for m <= 3, else as companion
    eigenvalues.  Cardano's formula (its cube root in polar form) finds a
    cubic's root x of largest modulus (polished by two Newton steps) but loses
    a small root to cancellation, so the cubic is deflated (Kahan, "To solve a
    real cubic equation", 1986): the other roots have product -c/x and sum
    (b - r2 r3)/x or -(a + x), whichever does not cancel.  One Newton step
    then polishes all three.
    """
    m = coeffs.shape[1] - 1
    monic = coeffs[:, :-1] / coeffs[:, -1:]
    if m == 1:
        return -monic
    if m == 2:
        return _quadratic_roots(monic[:, 1], monic[:, 0])
    if m > 3:
        C = np.zeros((len(coeffs), m, m), dtype=complex)
        C[:, 1:, :-1] = np.eye(m - 1)
        C[:, :, -1] = -monic
        return np.linalg.eigvals(C)
    c, b, a = (v[:, None] for v in monic.T)  # x^3 + a x^2 + b x + c, as columns

    def newton(x):
        return x - _div(((x + a) * x + b) * x + c, (3 * x + 2 * a) * x + b)

    with np.errstate(all="ignore"):
        # x = y - a/3 gives y^3 + p y + q = 0, solved by y = u - p/(3u) with u^3
        # the larger root of v^2 + q v - p^3/27
        p, q = b - a * a / 3, (2 * a * a / 27 - b / 3) * a + c
        u = _cube_root(_quadratic_roots(q[:, 0], -(p[:, 0] ** 3) / 27)[:, :1])
        u = u * np.exp(2j * np.pi / 3 * np.arange(3))  # the three cube roots
        cand = u - _div(p, 3 * u) - a / 3
        x = newton(newton(np.take_along_axis(cand, np.abs(cand).argmax(axis=1)[:, None], axis=1)))
        prod = _div(-c, x)
        total = np.where(np.abs(x) ** 2 > np.abs(b), _div(b - prod, x), -(a + x))
        return newton(np.concatenate([x, _quadratic_roots(-total[:, 0], prod[:, 0])], axis=1))


def curve_localized_term(
    geo: Example22Geometry,
    samples: int,
    seed: int,
    threads: int = 1,
) -> CurveTerm:
    """The curve-localized integral over Z = {f = 0}, whose vanishing is the
    verified identity: a conic by the product rule on its rational
    parametrization (:func:`_conic_term`), which draws none of the
    ``samples``, and a curve of any other degree by Monte Carlo over random
    lines (:func:`_sampled_term`).  A form that is zero by structure is 0
    with nothing drawn or evaluated, on every degree.  The rule is
    deterministic given the seed and runs on one thread.  A sample count
    below 1 is refused on both routes, with GeometryError, as is an instance
    without psi."""
    geo.ctx.chart_psi(0)  # refuses an instance without psi
    _check_count(samples)
    conic = geo.f.degree == 2
    if _zero_by_structure(geo):
        return CurveTerm(0j, 0.0, 0, 0.0, 0.0, _conic_nodes(_CONIC_ORDER) if conic else 0)
    if conic:
        return _conic_term(geo, seed)
    return _sampled_term(geo, samples, seed, threads)


def _sampled_term(geo: Example22Geometry, samples: int, seed: int, threads: int = 1) -> CurveTerm:
    """Monte Carlo of the curve term over random lines (Crofton's formula;
    Santalo, Integral Geometry and Geometric Probability, 1976): the mean of
    a line's summands (_line_summand) over its d points on the curve is the
    integral, and each summand is bounded on a smooth curve, so no line is
    refused.  f is restricted to each line through one compiled kernel of
    its coefficients per chart (_line_kernel)."""
    law = functools.partial(_line_law, [_line_kernel(geo, chart) for chart in range(3)])
    summary = _run_chunks(law, functools.partial(_line_rows, geo), samples, seed, threads, top=True)
    value, se = _estimate(summary, 0)
    return CurveTerm(
        value=value,
        std_error=se,
        samples=samples,
        pointwise_max=float(summary.top[2]),
        l1_mass=float(summary.total[1].real / summary.count),
    )


def _line_kernel(geo: Example22Geometry, chart: int) -> PolyKernel:
    """F_0, ..., F_d of f restricted to the line z_c = -(b_1 z_i + b_2 z_j), c
    the chart and i < j the other coordinates: f(z) = sum_k F_k z_i^k
    z_j^(d - k), each F_k a polynomial in the line's chart coordinates (b_1,
    b_2) = (a_i, a_j) / a_c of {a.z = 0}.  Expanded over term maps in (b_1,
    b_2, z_i, z_j), and compiled once per context."""

    def build():
        i, j = (k for k in range(3) if k != chart)
        image = {i: {(0, 0, 1, 0): 1.0}, j: {(0, 0, 0, 1): 1.0}, chart: {(1, 0, 1, 0): -1.0, (0, 1, 0, 1): -1.0}}
        coeffs: List[dict] = [{} for _ in range(geo.f.degree + 1)]
        for (b1, b2, x, _), c in _substitute_terms(geo.f.terms, [image[k] for k in range(3)], 4).items():
            coeffs[x][(b1, b2)] = c
        return PolyKernel(2, [AffinePoly(2, terms) for terms in coeffs])

    return geo.ctx.cached(chart, "line", build)


def _line_law(kernels: Sequence[PolyKernel], rng: np.random.Generator, count: int):
    """Lines {a.z = 0}, a FS-uniform on the dual plane (the unitarily
    invariant law of lines), and their d points on the curve as homogeneous
    vectors, (count, d, 3), with nothing evaluated on the curve.  Each line is
    parametrized in the chart c of a's largest coordinate by (z_i, z_j); f on
    it is the binary form sum_k F_k z_i^k z_j^(d - k) (``kernels[c]``), whose
    roots are solved in z_i / z_j, or in z_j / z_i with the row reversed,
    whichever end coefficient is larger, ROW_BLOCK lines at a time.  The
    lines come in the order of ``by_chart``'s parts of a."""
    d, start = kernels[0].coeffs.shape[0] - 1, 0
    parts = list(by_chart(fs_uniform_points(2, count, rng)))  # a is freed before Z is made
    Z = np.empty((count, d, 3), dtype=complex)
    for chart, _, W in parts:
        i, j = (k for k in range(3) if k != chart)
        for block in row_blocks(len(W)):
            b, points = W[block], Z[start : start + block.stop - block.start]
            coeffs = kernels[chart].eval_batch(b).T
            flip = np.abs(coeffs[:, :1]) > np.abs(coeffs[:, -1:])
            roots = _solve_sheets(np.where(flip, coeffs[:, ::-1], coeffs))
            points[:, :, i], points[:, :, j] = np.where(flip, 1.0, roots), np.where(flip, roots, 1.0)
            points[:, :, chart] = -(b[:, :1] * points[:, :, i] + b[:, 1:] * points[:, :, j])
            start += len(b)
    return (Z,)


def _line_rows(geo: Example22Geometry, Z: np.ndarray) -> np.ndarray:
    """Rows: each line's sum of summands over its d points on the curve, its
    sum of |summand| (the L1 mass) and its largest |summand|; the points of
    ROW_BLOCK lines at a time are read by :func:`_curve_summands`."""
    count, d = Z.shape[:2]
    dens = np.empty((count, d), dtype=complex)
    for block in row_blocks(count):
        dens[block] = _curve_summands(geo, Z[block].reshape(-1, 3)).reshape(-1, d)
    size = np.abs(dens)
    # over the d points by whole-column operations, not a per-row axis=1 loop
    return np.stack([functools.reduce(np.add, dens.T), functools.reduce(np.add, size.T),
                     functools.reduce(np.maximum, size.T)])


def _curve_summands(geo: Example22Geometry, Z: np.ndarray) -> np.ndarray:
    """The summand (_line_summand) at homogeneous curve points Z, (N, 3) ->
    (N,), each read in the chart of its largest coordinate, on both routes."""
    out = np.empty(len(Z), dtype=complex)
    for chart, rows, W in by_chart(Z):
        out[rows] = _line_summand(geo, chart, W)
    return out


def _line_summand(geo: Example22Geometry, chart: int, W: np.ndarray) -> np.ndarray:
    """The Crofton summand at curve points W of the chart, (N, 2) -> (N,):
    psi (conj(d_2 f) dbar_1(K / G_ff) - conj(d_1 f) dbar_2(K / G_ff)) /
    |nu|^2_FS, nu = (d_2 f, -d_1 f) normal to the curve's tangent, where
    |v|^2_FS = ((1 + |W|^2) |v|^2 - |conj(W).v|^2) / (1 + |W|^2)^2.  With
    tau = nu / d_2 f = (1, kappa) this is pi (phi_c r_c / pi) / |tau|^2_FS:
    Area_FS(P^1) = pi times the curve form over the FS area element, with
    no division by d_2 f.  One evaluation of the chart's sheet group."""
    dK1, dK2, f1, f2, psi = geo.sheet_group(chart).eval_batch(W)
    norm = 1.0 + (W.real**2 + W.imag**2).sum(axis=1)
    nu2 = f1.real**2 + f1.imag**2 + f2.real**2 + f2.imag**2
    dot = np.conj(W[:, 0]) * f2 - np.conj(W[:, 1]) * f1
    fs = (norm * nu2 - (dot.real**2 + dot.imag**2)) / (norm * norm)
    return psi * (np.conj(f2) * dK1 - np.conj(f1) * dK2) / fs


def _zero_by_structure(geo: Example22Geometry) -> bool:
    """True when K / G_ff has no terms, so that r_c and with it the curve
    form are zero by structure (Example22Geometry.coupling)."""
    return not geo.coupling(0).terms


@functools.lru_cache(maxsize=None)
def _rule_factors(n: int, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 1-D factors of the order-m product rule for the FS probability
    measure on P^n, n = 1 or 2: the moduli sqrt(x_i) at each node of the
    simplex rule, (S, n + 1), each node's weight (the simplex rule's over
    the phase count to the n), and the k equally spaced phases e^{i phi}.
    On P^1, m Gauss-Legendre nodes in c = x_0 - x_1 and k = 2m + 1; on P^2,
    m x m Gauss-Legendre nodes (u, v) on [0, 1]^2 mapped by Duffy's map to
    x = ((1 - u)(1 - v), u, (1 - u) v), weight 2 (1 - u) w_u w_v, and k =
    2m.  Built once per (n, m) (read only)."""
    c, wc = _leggauss(m)
    if n == 1:
        k = 2 * m + 1
        moduli, weights = np.stack([np.sqrt((1 + c) / 2), np.sqrt((1 - c) / 2)], axis=1), wc / (2 * k)
    else:
        k = 2 * m
        u, wu = (1 + c) / 2, wc / 2
        rest = np.repeat(1 - u, m)
        x = np.stack([rest * np.tile(1 - u, m), np.repeat(u, m), rest * np.tile(u, m)], axis=1)
        moduli, weights = np.sqrt(x), np.outer(2 * (1 - u) * wu, wu).reshape(-1) / (k * k)
    return moduli, weights, np.exp(2j * math.pi * np.arange(k) / k)


def _product_rule(n: int, m: int, which: np.ndarray, U: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes of the simplex nodes ``which`` of the order-m product rule
    on P^n (_rule_factors), each with its k^n phase tuples, the last
    coordinate's fastest, rotated by U: UZ = sum_i Z_i U[:, i] for Z =
    (sqrt x_0, sqrt x_1 e^{i phi_1}, ...), each term built on its own
    simplex node and phase and broadcast over the other phases, as unit
    homogeneous points, (len(which) k^n, n + 1), and their weights.  Under
    U = I the nodes are Z to the bit, as the conic's sphere rule needs."""
    moduli, weights, phase = _rule_factors(n, m)
    k, r = len(phase), moduli[which]
    Z = (r[:, 0, None] * U[:, 0]).reshape((len(r),) + (1,) * n + (n + 1,))
    for i in range(1, n + 1):
        term = r[:, i, None, None] * (phase[:, None] * U[:, i])  # (len(r), k, n + 1)
        Z = Z + term.reshape((len(r),) + (1,) * (i - 1) + (k,) + (1,) * (n - i) + (n + 1,))
    return Z.reshape(-1, n + 1), np.repeat(weights[which], k**n)


@functools.lru_cache(maxsize=None)
def _sphere_rule(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every node of the order-m product rule on P^1 (_product_rule),
    unrotated: unit homogeneous points (cos(theta/2), sin(theta/2) e^{i
    phi}), (m (2m + 1), 2), and their weights, which sum to 1, exact for c^j
    e^{i k phi}, c = cos theta, with j <= 2m - 1 and |k| <= 2m.  Built once
    per order (read only)."""
    return _product_rule(1, m, np.arange(m), np.eye(2))


def _conic_nodes(m: int) -> int:
    """Nodes of a conic's two sphere rules, of orders m and 2m."""
    return _rule_size(1, m) + _rule_size(1, 2 * m)


@functools.lru_cache(maxsize=None)
def _standard_conic(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """x(sigma) = (s0^2 - s1^2, i (s0^2 + s1^2), 2 s0 s1), the standard conic
    x.x = 0, and D x, its derivative along the sphere's unit tangent
    (-conj(s1), conj(s0)), each (3, N), coordinates first, at the nodes of the
    order-m sphere rule.  Built once per order (read only)."""
    s0, s1 = _sphere_rule(m)[0].T
    c0, c1 = np.conj(s0), np.conj(s1)
    x = np.array([s0 * s0 - s1 * s1, 1j * (s0 * s0 + s1 * s1), 2 * s0 * s1])
    return x, 2 * np.array([-s0 * c1 - s1 * c0, 1j * (s1 * c0 - s0 * c1), s0 * c0 - s1 * c1])


def _conic_frame(f: HomogeneousPoly) -> np.ndarray:
    """T with T^T B T = I for the conic f(z) = z^T B z, B symmetric: T =
    conj(U) Sigma^(-1/2) from a Takagi factorization B = U Sigma U^T, so
    z = T x maps the standard conic x.x = 0 onto f = 0.  With B = A + iC, A
    and C real, an eigenvector (a, b) of the real symmetric [[A, C], [C, -A]]
    of eigenvalue sigma gives B conj(a + ib) = sigma (a + ib); the three
    largest eigenvalues are Sigma, and eigenvectors of one eigenvalue stay
    orthonormal as complex vectors, so equal singular values (Sigma = I on
    z1^2 + z2^2 - z0^2) need no care.  A singular conic is refused with
    GeometryError."""
    B = np.zeros((3, 3), dtype=complex)
    for e, c in f.terms.items():
        i, j = (k for k in range(3) for _ in range(e[k]))
        B[i, j] += c / 2
        B[j, i] += c / 2
    sigma, V = np.linalg.eigh(np.block([[B.real, B.imag], [B.imag, -B.real]]))
    if not sigma[3] > 1e-12 * sigma[5]:
        raise GeometryError("the conic is singular")
    return (V[:3, 3:] - 1j * V[3:, 3:]) / np.sqrt(sigma[3:])


def _rotation(rng: np.random.Generator, dim: int = 3, unitary: bool = False) -> np.ndarray:
    """A Haar-random real orthogonal dim x dim matrix, or a unitary one: QR of
    a Gaussian matrix, complex for a unitary one, with the phases of R's
    diagonal moved into Q (Mezzadri, "How to generate random matrices from
    the classical compact groups", Notices of the AMS 54, 2007)."""
    G = rng.standard_normal((dim, dim))
    if unitary:
        G = G + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _conic_rule(M: np.ndarray, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The order-m sphere rule on the conic z = M x (_standard_conic): its
    nodes z, (N, 3), and weights, the sphere's times the curve's FS area over
    pi against the sphere's probability measure, |z ^ Dz|^2 / |z|^4 =
    (|z|^2 |Dz|^2 - |conj(z).Dz|^2) / |z|^4.  They sum to the degree, 2."""
    weights = _sphere_rule(m)[1]
    Z, DZ = (M @ v for v in _standard_conic(m))  # (3, N): each sum below adds 3 rows
    z2 = (Z.real**2 + Z.imag**2).sum(axis=0)
    dot = (np.conj(Z) * DZ).sum(axis=0)
    area = (z2 * (DZ.real**2 + DZ.imag**2).sum(axis=0) - (dot.real**2 + dot.imag**2)) / (z2 * z2)
    return Z.T, weights * area


def _conic_sum(geo: Example22Geometry, M: np.ndarray, m: int) -> Tuple[complex, float, float]:
    """Integral, L1 mass and largest |summand| of the order-m rule on the
    conic (_conic_rule), whose weights turn the summand into the form."""
    Z, weights = _conic_rule(M, m)
    summand = _curve_summands(geo, Z)
    size = np.abs(summand)
    return complex(weights @ summand), float(weights @ size), float(size.max())


def _conic_term(geo: Example22Geometry, seed: int) -> CurveTerm:
    """The curve term of a smooth conic by the sphere rule at orders
    _CONIC_ORDER and twice it, on the frame z = T R x (_conic_frame), R a
    real rotation drawn from the seed: R keeps x.x and |x|, and |x(s)|^2 =
    2 (1 + |s|^2)^2, so the nodes spread evenly over the curve.  The
    pulled-back form is smooth on the sphere (Sendra, Winkler and
    Perez-Diaz, Rational Algebraic Curves, 2008, ch. 4), and the rule
    converges spectrally.  The value is the finer sum; its std_error is
    |fine - coarse|, and at least _RULE_FLOOR times the L1 mass, the
    rounding of a sum whose terms cancel.  L1 and pointwise_max come from the
    finer nodes; no sample is drawn."""
    m = _CONIC_ORDER
    M = _conic_frame(geo.f) @ _rotation(_philox(seed, 0))
    coarse = _conic_sum(geo, M, m)[0]
    value, l1, top = _conic_sum(geo, M, 2 * m)
    return CurveTerm(value, max(abs(value - coarse), _RULE_FLOOR * l1), 0, top, l1, _conic_nodes(m))


def _fiber_sheets(geo: Example22Geometry, u: complex) -> Tuple[np.ndarray, np.ndarray]:
    """The sheets w_2 over u and df/dw_2 at each, with the fiber's refusals of
    them.  The fiber is the line z_1 = u z_0 of chart 1, (b_1, b_2) = (-u, 0),
    where f(1, u, w_2) = sum_k F_k w_2^(d - k): its row in w_2 is F reversed,
    cut at f's degree in w_2, and df/dw_2 is the row's derivative."""
    sheets = max(e[2] for e in geo.f.terms)  # the degree of f in w_2
    if not sheets:
        raise GeometryError("the curve has no sheets over w_1: f does not involve w_2")
    with np.errstate(all="ignore"):  # a huge u overflows, and is refused below
        row = _line_kernel(geo, 1).eval_batch(np.array([[-u, 0]]))[::-1, 0][: sheets + 1]
    if not abs(row[-1]) > 1e-12 * np.abs(row).max():
        raise GeometryError("vanishing leading coefficient: a sheet over u is at infinity")
    roots = _solve_sheets(row[None])[0]
    fns = np.polynomial.polynomial.polyval(roots, np.polynomial.polynomial.polyder(row))
    if not np.abs(fns).min() >= 1e-12 * geo.f.coeff_norm():  # NaN refused too
        raise GeometryError("vanishing normal derivative (branch point)")
    return roots, fns


def fiber_mass_quadrature(
    geo: Example22Geometry,
    u: complex,
    t: float,
    radial_nodes: int = 80,
    angular_nodes: int = 24,
) -> complex:
    """Quadrature of the global integrand over one fiber {w_1 = u} of chart 0,
    a line of the line law (_fiber_sheets).

    As t -> 0 this converges to the summed curve-localized density of the
    sheets over u, providing a pointwise oracle for every constant in the
    localization formula (diagnostic; used by the test suite).  Each sheet
    gets a polar disc, summed by _disc_sum, sheet after sheet.

    Every refusal comes first, with GeometryError: a t that is not positive
    and finite, a u that is not finite, a curve with no term in z_2, a fiber
    whose leading coefficient in w_2 is below 1e-12 of its largest one (a
    huge u overflows to one), and a sheet where |df/dw_2| is below 1e-12
    times f's coefficient norm (the rule of ``sheet_terms_batch``): there the
    sheets meet or run off to infinity, and the disc has no finite width.
    Last comes an instance that carries no psi.

    Then a row or column of chart 0's Abar with no terms makes det(Abar) zero
    by structure (under a split metric, xi of the zero summand of s = (f, 0)
    is such a column), and 0j is returned with nothing evaluated: the sum
    would start at +0 and add only signed zeros, which give +0.  Any other
    fiber evaluates the metric at all its sheet centres in one call.
    """
    _check_positive(t)
    if not np.isfinite(u):
        raise GeometryError("u must be finite")
    roots, fns = _fiber_sheets(geo, u)
    ctx = geo.ctx
    ctx.chart_psi(0)  # refuses an instance without psi
    data = ctx.chart_data(0)
    if any(not any(f.terms for f in line) for line in [*data.Abar, *zip(*data.Abar)]):
        return 0j

    H = ctx.metric_matrix_batch(0, np.stack([np.full(len(roots), u, dtype=complex), roots], axis=1))
    widths = np.sqrt(2.0 * t / (H[:, geo.f_index, geo.f_index].real * np.abs(fns) ** 2))
    total = 0j
    for root, width in zip(roots, widths):
        def density(zeta, root=root):
            return global_density(ctx, 0, np.stack([np.full_like(zeta, u), root + zeta], axis=1), t)

        total = _disc_sum(density, _SIGMA_MULT * width, radial_nodes, angular_nodes, total)
    return complex(total)
