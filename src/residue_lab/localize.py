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
computes the same coefficient and the agreement is tested; it takes one point
or a batch of points, and a batch runs the tensor algebra once with array
coefficients.  The determinant form is the production path.

Curve term.  For the split-section family on P^2 the curve Z = {f = 0} is
sampled in chart 0 with base coordinate w_1 and sheet coordinate w_2: over each
base point w_1 = u the sheets are the roots w_2 of f(u, w_2) = 0.  The
localized integrand per sheet is

    (phi . (-2 pi i)(1 - r))^{(1,1)} * prefactor = (phi_c r_c / pi) dx dy,

with phi_c = psi / (df/dw_2) of :meth:`Example22Geometry.psi_over_det_ds_batch`
and r_c the End(N)-scalar curvature term of
:meth:`Example22Geometry.curvature_term_batch`.  On a split metric such as
Fubini-Study, r_c is identically 0, and so is the curve integrand: the sampler
still draws and rejects sheets, but evaluates no density there.

Quadrature.  The two oracles, :func:`flat_gaussian_mass` and
:func:`fiber_mass_quadrature`, integrate over polar discs whose rays are each
summed in one row reduction of the (angles, radii) grid and added in order.  A
fiber whose det(Abar) is zero by structure is 0j with no disc built.

Sampling.  Every Monte Carlo estimator is a draw(rng, size) of per-sample
values, one contiguous row per reported quantity, run by :func:`_run_chunks`
on the seeded Philox stream in fixed chunks.  Each chunk is reduced at once to
a :class:`_Summary` per row (count, sum, M2 = sum |x - mean|^2, and the curve's
row maxima), and the summaries merge in chunk order by the pairwise update of
Chan, Golub and LeVeque (The American Statistician 37, 1983).  So the working
set does not grow with the sample count, and results do not depend on the
thread count.  Each chart of a sweep chunk scatters only the density's t-free
values (|s|^2, P det(Abar), the FS density), and one density pass over the
chunk gives every t.  A curve chunk is drawn once; a sample near a branch point
weighs 0 and is counted as rejected.  Its sheet roots and the density at its
accepted sheet points are computed ROW_BLOCK rows at a time, the blocks that
PolyKernel, ChartGroup and the Chern curvature use.  :class:`FlatModel` is a
GeometryContext under the identity metric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .chartfun import ChartFunction
from .polycore import AffinePoly, row_blocks
from .projgeom import (
    Example22Geometry,
    GeometryContext,
    GeometryError,
    _assemble_chart,
    _check_t,
    _det,
    by_chart,
    fs_density,
    fs_uniform_points,
)
from .superalg import SuperTensor, contract, exp_S, top_pairing

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
# |df/dw_2| below this times f's coefficient norm: too near a branch point, where phi blows up
_BRANCH_TOL = 1e-6
# fiber quadrature disc radius in Gaussian widths: e^{-144} of the peak at its rim
_SIGMA_MULT = 12.0


@dataclass(frozen=True)
class IntegralEstimate:
    value: complex
    std_error: float
    samples: int
    t: float
    seed: int


@dataclass(frozen=True)
class CurveTerm:
    value: complex
    std_error: float
    samples: int
    seed: int
    rejected: int
    pointwise_max: float
    l1_mass: float


class FlatModel(GeometryContext):
    """Flat-metric model on C^n (h = identity): a GeometryContext whose only
    chart, 0, is assembled from s_aff and psi_aff; used by the normalization
    oracle and tests."""

    def __init__(self, s_aff: Sequence[AffinePoly], psi_aff: AffinePoly):
        self.n = n = s_aff[0].num_vars
        H = [[ChartFunction.constant(n, float(i == j)) for j in range(n)] for i in range(n)]
        self._charts = {0: _assemble_chart(0, list(s_aff), psi_aff, H)}


def _density_parts(ctx, chart: int, W: np.ndarray):
    """The t-independent parts of the global density, |s|^2 and P det(Abar),
    from one evaluation of the chart's density group."""
    n = ctx.n
    V = ctx.density_group(chart).eval_batch(W)
    Abar = V[1:-1].T.reshape(len(W), n, n)
    return V[0].real, V[-1] * _det(Abar)


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


def global_density_tensor(ctx, chart: int, w, t: float):
    """Same density through the tensor-algebra route; reference path.

    w is one point of shape (n,), giving a complex, or a batch of shape
    (N, n), giving an (N,) array from one pass of the tensor algebra.
    """
    n = ctx.n
    full = tuple(range(1, n + 1))
    W = np.asarray(w, dtype=complex)
    psi_c = ctx.psi_batch(chart, W.reshape(-1, n))
    psi = SuperTensor.monomial(n, I=full, K=full, c=psi_c[0] if W.ndim == 1 else psi_c)
    coeff = top_pairing(psi, exp_S(ctx.S_form(chart, W, t)))
    # (n,n)-basis to Lebesgue: interleave sign and (-2i)^n, then prefactor
    conv = (-1.0) ** (n * (n - 1) // 2) * (-2j) ** n
    pref = (-1.0) ** n / (2j * math.pi) ** n
    dens = pref * conv * coeff
    return complex(dens) if W.ndim == 1 else np.broadcast_to(dens, len(W)).astype(complex)


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


def _run_chunks(draw, count: int, seed: int, threads: int, top: bool = False) -> _Summary:
    """draw(rng, size) over fixed chunks of ``count`` samples, each summarized
    as soon as it is drawn and merged in chunk order.  The chunk starting at
    sample ``start`` draws from the Philox stream of ``seed`` at counter
    start << 64, so chunk boundaries, streams and merge order, and with them
    the results, are the same for any thread count."""

    def chunk(start: int) -> _Summary:
        rng = np.random.default_rng(np.random.Philox(key=seed, counter=start << 64))
        return _summarize(draw(rng, min(_CHUNK, count - start)), top)

    starts = range(0, count, _CHUNK)
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor  # here: importing the package does not load it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return functools.reduce(_merge, pool.map(chunk, starts))
    return functools.reduce(_merge, map(chunk, starts))


# Gauss-Legendre nodes and weights on [-1, 1], computed once per node count (read only)
_leggauss = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _polar_disc(R: float, radial_nodes: int, angular_nodes: int):
    """Polar quadrature of the disc |zeta| <= R: Gauss-Legendre radii r with
    weights wr, and the points zeta = r e^{i theta} ray after ray, for
    ``angular_nodes`` equally spaced angles of weight 2 pi / angular_nodes,
    built in one broadcast.  Reshaped to (angles, radii), each ray is one row:
    a quadrature sums every row in one reduction and adds the rays in order."""
    nodes, weights = _leggauss(radial_nodes)
    r = 0.5 * R * (nodes + 1.0)
    wr = 0.5 * R * weights
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    return r, wr, (r * np.exp(1j * thetas)[:, None]).reshape(-1)


# ------------------------------------------------------------------ oracle


def flat_gaussian_mass(t: float, radial_nodes: int = 120, angular_nodes: int = 32) -> float:
    """Unit-mass normalization oracle: s = w, psi = dw (x) e_1, flat metric.

    Integrates the pipeline integrand over C by polar quadrature; the exact
    value is 1 for every t > 0, which pins every sign and constant convention
    at once.  The real part of the density times r wr is summed along each ray
    in one row reduction, and the rays are added in order.  A t that is not
    positive and finite is refused with GeometryError.
    """
    _check_t(t)
    model = FlatModel(
        [AffinePoly.coordinate(1, 0)], AffinePoly.constant(1, 1.0 + 0j)
    )
    r, wr, zeta = _polar_disc(10.0 * math.sqrt(2.0 * t), radial_nodes, angular_nodes)
    wth = 2.0 * math.pi / angular_nodes
    dens = global_density_tensor(model, 0, zeta[:, None], t).reshape(angular_nodes, radial_nodes)
    total = 0.0
    # one reduction per ray, the rays added in order: the bits of a sum per ray
    for ray_sum in (dens.real * r * wr).sum(axis=1):
        total += float(ray_sum) * wth
    return total


# ------------------------------------------------------------------ global MC


def virtual_residue_sweep(
    ctx: GeometryContext,
    ts: Sequence[float],
    samples: int,
    seed: int,
    threads: int = 1,
) -> List[IntegralEstimate]:
    """FS-uniform Monte Carlo of the prefactored global integral for several
    values of t, reusing one sample set and one chart evaluation pass: each
    chart scatters its t-free values, then one density pass gives every t."""
    if samples < SWEEP_MIN_SAMPLES:
        raise GeometryError(f"at least {SWEEP_MIN_SAMPLES} samples required")
    for t in ts:
        _check_t(t)
    n = ctx.n

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        s2, psi_det, p = np.empty(count), np.empty(count, dtype=complex), np.empty(count)
        for chart, rows, W in by_chart(fs_uniform_points(n, count, rng)):
            s2[rows], psi_det[rows] = _density_parts(ctx, chart, W)
            p[rows] = fs_density(W, n)
        del rows, W  # the last chart's: freed before the chunk's largest array is allocated
        out = _density(n, s2, psi_det, ts)
        return np.divide(out, p, out=out)  # in place: a chunk holds one (len(ts), count) result

    summary = _run_chunks(draw, samples, seed, threads)
    return [
        IntegralEstimate(*_estimate(summary, k), samples, float(t), seed) for k, t in enumerate(ts)
    ]


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
    _check_t(t)
    n = ctx.n
    center = np.asarray(center, dtype=complex)
    vol = math.pi**n * radius ** (2 * n) / math.factorial(n)

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        direction = rng.standard_normal((count, 2 * n))
        direction /= np.linalg.norm(direction, axis=1)[:, None]
        radii = radius * rng.uniform(size=count) ** (1.0 / (2 * n))
        offsets = direction[:, :n] + 1j * direction[:, n:]
        W = center[None, :] + radii[:, None] * offsets
        return (global_density(ctx, 0, W, t) * vol)[None, :]

    return IntegralEstimate(*_estimate(_run_chunks(draw, samples, seed, threads), 0), samples, t, seed)


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


def _sheet_coefficients(f: AffinePoly):
    """Coefficients of f as a polynomial in the sheet variable w_2: list of
    univariate polynomials in the base variable w_1, constant term first."""
    deg = max(e[1] for e in f.terms)
    if deg == 0:
        raise GeometryError("the curve has no sheets over w_1: f does not involve w_2")
    coeff_polys = [dict() for _ in range(deg + 1)]
    for e, c in f.terms.items():
        coeff_polys[e[1]][(e[0],)] = c
    return [AffinePoly(1, terms) for terms in coeff_polys]


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b, and 0 where b is 0 (a finite there)."""
    return a / np.where(b == 0, np.inf, b)


def _quadratic_roots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Roots of x^2 + p x + q, (N, 2): the larger by the formula's sign that
    does not cancel, the smaller as q over it."""
    s = np.sqrt(p * p / 4 - q)
    big = -(p / 2 + np.where((p.conj() * s).real < 0, -s, s))
    return np.stack([big, _div(q, big)], axis=1)


def _solve_sheets(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of polynomials in the sheet variable.

    coeffs: (N, m+1), constant term first, leading coefficients nonzero.
    Returns (N, m) roots: in closed form for m <= 3, else as companion
    eigenvalues.  Cardano's formula finds a cubic's root x of largest modulus
    (polished by two Newton steps) but loses a small root to cancellation, so
    the cubic is deflated (Kahan, "To solve a real cubic equation", 1986): the
    other roots have product -c/x and sum (b - r2 r3)/x or -(a + x), whichever
    does not cancel.  One Newton step then polishes all three.
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
        u = _quadratic_roots(q[:, 0], -(p[:, 0] ** 3) / 27)[:, :1] ** (1 / 3)
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
    """Sheeted Monte Carlo of the curve-localized integrand over Z = {f = 0}.

    Base points w_1 are FS-uniform on the chart-0 line; each sample's roots
    w_2 are the sheets.  A sample too close to a branch point (|df/dw_2| below
    _BRANCH_TOL times f's coefficient norm at a sheet), or whose leading
    coefficient vanishes or whose sheets are not finite, is rejected: it
    weighs 0 and is counted.  The vanishing of the total is the verified
    identity.
    """
    if geo.ctx.chart_data(0).psi_aff is None:
        raise GeometryError("instance carries no psi")
    f = geo.f_aff(0)
    coeff_polys = _sheet_coefficients(f)
    fn_poly = geo.df(0)[1]
    branch_tol = _BRANCH_TOL * f.coeff_norm()

    def sheets(rng: np.random.Generator, count: int):
        """A chunk's base values u, its sheet roots (count, m) and the mask of
        its accepted samples.  A function of its own, so that its temporaries
        are freed before the density is evaluated."""
        Z = fs_uniform_points(1, count, rng)
        u = Z[:, 1] / Z[:, 0]
        coeffs = np.stack([cp.eval_batch(u[:, None]) for cp in coeff_polys], axis=1)
        lead_ok = np.abs(coeffs[:, -1]) > 1e-12 * np.abs(coeffs).max(axis=1)
        roots = np.full((count, len(coeff_polys) - 1), np.nan, dtype=complex)
        solvable = np.flatnonzero(lead_ok)
        for block in row_blocks(len(solvable)):  # bounds the closed forms' temporaries
            roots[solvable[block]] = _solve_sheets(coeffs[solvable[block]])
        with np.errstate(all="ignore"):
            fn = fn_poly.eval_batch(_sheet_points(u, roots)).reshape(roots.shape)
            ok = lead_ok & np.isfinite(roots).all(axis=1) & (np.abs(fn) > branch_tol).all(axis=1)
        return u, roots, ok

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        """Rows: value, L1 mass, largest |sheet density|, rejected flag."""
        u, roots, ok = sheets(rng, count)
        u = u[ok]
        dens = _sheet_density(geo, u, roots[ok])
        size, p_base = np.abs(dens), fs_density(u[:, None], 1)
        out = np.zeros((4, count), dtype=complex)
        out[0, ok] = dens.sum(axis=1) / p_base
        out[1, ok] = size.sum(axis=1) / p_base
        out[2, ok] = size.max(axis=1)
        out[3] = ~ok
        return out

    summary = _run_chunks(draw, samples, seed, threads, top=True)
    value, se = _estimate(summary, 0)
    return CurveTerm(
        value=value,
        std_error=se,
        samples=samples,
        seed=seed,
        rejected=int(summary.total[3].real),
        pointwise_max=float(summary.top[2]),
        l1_mass=float(summary.total[1].real / summary.count),
    )


def _sheet_density(geo: Example22Geometry, u: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """phi_c r_c / pi at every sheet point (u, root) of chart 0, (N, m),
    ROW_BLOCK sheet points at a time; zeros, with nothing evaluated, when the
    metric is split and r_c is zero by structure (chern_curvature_batch)."""
    if geo.ctx.chart_data(0).metric_is_split():
        return np.zeros(roots.shape, dtype=complex)
    m = roots.shape[1]
    dens = np.empty(roots.size, dtype=complex)
    for block in row_blocks(roots.size):
        W = np.stack([u[np.arange(block.start, block.stop) // m], roots.reshape(-1)[block]], axis=1)
        dens[block] = geo.psi_over_det_ds_batch(0, W) * geo.curvature_term_batch(0, W) / math.pi
    return dens.reshape(-1, m)


def _sheet_points(u: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Stack base values w_1 and sheet roots w_2 into (N*m, 2) chart points."""
    return np.stack([np.repeat(u, roots.shape[1]), roots.reshape(-1)], axis=1)


def fiber_mass_quadrature(
    geo: Example22Geometry,
    u: complex,
    t: float,
    radial_nodes: int = 80,
    angular_nodes: int = 24,
) -> complex:
    """Quadrature of the global integrand over one fiber {w_1 = u} of chart 0.

    As t -> 0 this converges to the summed curve-localized density of the
    sheets over u, providing a pointwise oracle for every constant in the
    localization formula (diagnostic; used by the test suite).  Each sheet
    gets a polar disc; the density times r wr is summed along each ray in one
    row reduction, and the rays are added in order, sheet after sheet.

    Every refusal comes first, with GeometryError: a t that is not positive
    and finite, a u that is not finite, a fiber whose leading coefficient in
    w_2 is below 1e-12 of its largest one (the curve sampler's rule; a huge u
    overflows to one), and a sheet where |df/dw_2| is below 1e-12 times f's
    coefficient norm (the rule of ``psi_over_det_ds_batch``): there the sheets
    meet or run off to infinity, and the disc has no finite width.

    Then a row or column of chart 0's Abar with no terms makes det(Abar) zero
    by structure (under a split metric, xi of the zero summand of s = (f, 0)
    is such a column), and 0j is returned with nothing evaluated: the sum
    would start at +0 and add only signed zeros, which give +0.  Any other
    fiber evaluates the metric at all its sheet centres in one call.
    """
    _check_t(t)
    if not np.isfinite(u):
        raise GeometryError("u must be finite")
    ctx = geo.ctx
    with np.errstate(all="ignore"):
        coeffs = np.array([[cp.eval(np.array([u])) for cp in _sheet_coefficients(geo.f_aff(0))]])
    if not abs(coeffs[0, -1]) > 1e-12 * np.abs(coeffs).max():
        raise GeometryError("vanishing leading coefficient: a sheet over u is at infinity")
    roots = _solve_sheets(coeffs)[0]
    centres = np.stack([np.full(len(roots), u, dtype=complex), roots], axis=1)
    fns = [geo.df(0)[1].eval(list(w0)) for w0 in centres]
    if not np.abs(fns).min() >= 1e-12 * geo.f.coeff_norm():  # NaN refused too
        raise GeometryError("vanishing normal derivative (branch point)")
    data = ctx.chart_data(0)
    empty = [not any(f.terms for f in line) for line in [*data.Abar, *zip(*data.Abar)]]
    if any(empty) and data.psi_aff is not None:  # without psi, global_density refuses below
        return 0j

    H = ctx.metric_matrix_batch(0, centres)
    wth = 2.0 * math.pi / angular_nodes
    total = 0j
    for root, fn, Hm in zip(roots, fns, H):
        h11 = float(Hm[geo.f_index, geo.f_index].real)
        width = math.sqrt(2.0 * t / (h11 * abs(fn) ** 2))
        r, wr, zeta = _polar_disc(_SIGMA_MULT * width, radial_nodes, angular_nodes)
        W = np.stack([np.full_like(zeta, u), root + zeta], axis=1)
        g = global_density(ctx, 0, W, t).reshape(angular_nodes, radial_nodes)
        # one reduction per ray, the rays added in order: the bits of a sum per ray
        for ray_sum in (g * r * wr).sum(axis=1):
            total += ray_sum * wth
    return complex(total)
