"""Isolated zeros of square polynomial systems by total-degree homotopy.

Tracks the Bezout count of paths of H(z, tau) = (1-tau) gamma g(z) + tau f(z)
from the start system g_i = z_i^{d_i} - 1 (gamma a random unit complex), with
a first-order predictor, Newton corrector and adaptive steps.

Each system is compiled once into one polycore.PolyKernel whose rows are f, g
and the partials of both.  All Bezout paths of one gamma are tracked together
as one (P, n) array of points: every predictor and every corrector iteration
is one kernel call and one stacked linear solve for all active paths, each
path with its own tau and step size, and a finished path leaves the batch.  A
singular matrix makes the stacked solve fail as a whole; the rows are then
solved one by one, so only the singular path is affected.  An accepted step
ends with the evaluation of the homotopy at its new point and tau, which the
next predictor reuses, and a rejected step reuses the evaluation it started
from; a step after the first thus costs _NEWTON_ITERS + 1 kernel calls.  The
same rows serve the endpoint polish and the certification step (residual |f|
and det df/dz), both batched over the endpoints, and ``certify_zero`` and
``jacobian_det`` at single points.  Step sizes, iteration counts and
thresholds are module constants.

A step is accepted only when the corrector's residual is small *and* the
corrector moved the predicted point by at most
``_CORRECTOR_REACH * max(1, |z_pred|)``: Newton on the homotopy can converge
from far away to a point of another path (near tau = 1, to a finite root from
anywhere on a path that escapes), and such a step is rejected and retried
shorter.  A path whose step underflows near tau = 1 is counted as escaped to
infinity.

Endpoints are polished by Newton iteration and certified by residual and
Jacobian determinant; an endpoint failing either is ``defective``.  Two paths
ending at one certified root mean either that a path jumped or that the root
is multiple (a double root can pass the determinant threshold).  A jump goes
away with a fresh gamma, a multiple root does not: the solve is retried with
a fresh gamma, and a duplicate still there on the last retry is counted as
``defective``.  A path that fails to track triggers the same retry and raises
``SolveError`` once the retries run out.  Paths escaping to infinity are
counted, not returned, so finite zeros + escaped paths reconciles with the
Bezout number on regular instances.

Determinism: all randomness derives from the seed, and results are merged in
start-root index order, so a solve is bitwise reproducible.  Every rule reads
one path's own values, but those values depend in the last bits on the batch
the path is tracked in: a kernel evaluation at one point and the same
evaluation inside a matrix product over many points round differently.  A
path tracked alone and inside the full batch ends at the same point to within
1e-12 relative, not bitwise.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .polycore import AffinePoly, HomogeneousPoly, PolyKernel

__all__ = ["ZeroPoint", "ZeroSet", "solve_square_system", "certify_zero", "jacobian_det", "zeros_at_infinity_check", "SolveError"]


class SolveError(RuntimeError):
    """Path tracking failed beyond the retry budget."""


# Tracker constants.  The largest corrector move accepted in one step is
# _CORRECTOR_REACH * max(1, |z_pred|); 0.1 keeps the escaping path of
# (w0 w1 - 1, w0 - 2) off its finite root at seeds 0-19 and leaves the results
# of the bundled scenarios unchanged.
_CORRECTOR_REACH = 0.1
_MAX_STEP = 0.1
_MIN_STEP = 1e-4
_NEWTON_ITERS = 3
_CORRECTOR_TOL = 1e-10
_ENDPOINT_ITERS = 10
_BLOWUP = 1e8
_CLUSTER_RADIUS = 1e-6
_DET_THRESHOLD = 1e-10
_MAX_RETRIES = 3


@dataclass(frozen=True)
class ZeroPoint:
    point: Tuple[complex, ...]
    residual: float
    abs_det_j: float


@dataclass
class ZeroSet:
    points: List[ZeroPoint]
    bezout_count: int
    missing_paths: int  # paths that escaped to infinity
    defective: int = 0  # singular or unconverged endpoints; repeats of a root on every retry

    def coordinates(self) -> np.ndarray:
        return np.array([p.point for p in self.points], dtype=complex)


class _System:
    """A square system f and its start system g_i = z_i^{d_i} - 1 as the rows
    of one PolyKernel: f_i, g_i, df_i/dz_k (row-major in i, k), dg_i/dz_i."""

    def __init__(self, polys: Sequence[AffinePoly]):
        self.n = n = polys[0].num_vars
        if any(p.num_vars != n for p in polys):
            raise ValueError("mixed variable counts in system")
        if len(polys) != n:
            raise ValueError(f"square system required: {len(polys)} equations in {n} variables")
        self.degrees = [p.degree() for p in polys]
        one = AffinePoly.constant(n, 1.0 + 0j)
        start = [
            AffinePoly(n, {tuple(d if k == i else 0 for k in range(n)): 1.0 + 0j}) - one
            for i, d in enumerate(self.degrees)
        ]
        rows = list(polys) + start
        rows += [f.partial(k) for f in polys for k in range(n)]
        rows += [g.partial(i) for i, g in enumerate(start)]
        self.kernel = PolyKernel(n, rows)

    def rows(self, Z: np.ndarray):
        """(f, g, df, dg) at a batch of points Z of shape (P, n): f and g are
        (P, n), df the (P, n, n) Jacobians of f and dg the diagonals of the
        Jacobians of g."""
        n, P = self.n, len(Z)
        v = self.kernel.eval_batch(Z).T
        return v[:, :n], v[:, n : 2 * n], v[:, 2 * n : 2 * n + n * n].reshape(P, n, n), v[:, 2 * n + n * n :]


def _homotopy(system: _System, z: np.ndarray, tau, gamma: complex):
    """H = (1 - tau) gamma g + tau f, dH/dz and f - gamma g at z: one point
    (n,) at a scalar tau, or a batch (P, n) with one tau per row."""
    f, g, df, dg = system.rows(z if z.ndim == 2 else z[None])
    t = np.asarray(tau, dtype=float).reshape(-1, 1)
    s = 1 - t
    gg = gamma * g
    H = s * gg + t * f
    J = t[:, :, None] * df
    n = system.n
    J.reshape(-1, n * n)[:, :: n + 1] += s * (gamma * dg)  # the diagonals
    if z.ndim == 1:
        return H[0], J[0], f[0] - gg[0]
    return H, J, f - gg


def _certify(system: _System, z: np.ndarray):
    """The certification step at z: (residual |f|, det J, f, J) at one point
    (n,), or as arrays over a batch (P, n)."""
    f, _, J, _ = system.rows(z if z.ndim == 2 else z[None])
    res, det = np.linalg.norm(f, axis=1), np.linalg.det(J)
    if z.ndim == 1:
        return float(res[0]), complex(det[0]), f[0], J[0]
    return res, det, f, J


def _solve_rows(A: np.ndarray, b: np.ndarray):
    """x with A[p] x[p] = b[p] for a stack of systems, and a mask of the rows
    whose matrix is not singular.  A stacked solve raises for the whole stack
    when one matrix is singular; the rows are then solved one at a time, so
    only the singular ones fail."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        ok = np.ones(len(b), dtype=bool)
        for p in range(len(b)):
            try:
                x[p] = np.linalg.solve(A[p], b[p])
            except np.linalg.LinAlgError:
                ok[p] = False
        return x, ok


def _start_roots(degrees: Sequence[int]) -> np.ndarray:
    """Roots of z_i^{d_i} = 1 in lexicographic index order, one per row."""
    axes = []
    for d in degrees:
        axes.append([cmath.exp(2j * math.pi * k / d) for k in range(d)])
    return np.array(list(itertools.product(*axes)), dtype=complex)


def solve_square_system(polys: Sequence[AffinePoly], seed: int = 0) -> ZeroSet:
    """All isolated finite zeros of the square system polys = 0.

    Requires n <= 4 variables and Bezout count prod d_i <= 200 (desk scale).
    """
    system = _System(polys)
    if system.n > 4:
        raise ValueError("desk scale supports at most 4 variables")
    if any(p.is_zero() for p in polys):
        raise ValueError("system contains an identically zero equation")
    if 0 in system.degrees:
        return ZeroSet([], 0, 0, 0)  # a nonzero constant equation: empty zero set
    bezout = int(np.prod(system.degrees))
    if bezout > 200:
        raise ValueError(f"Bezout count {bezout} exceeds the desk-scale bound 200")

    rng = np.random.default_rng(np.random.Philox(seed))
    for retry in range(_MAX_RETRIES):
        gamma = cmath.exp(2j * math.pi * rng.uniform())
        raw, escaped, failures = _track_all(system, gamma)
        if failures == 0:
            points, blown_up, defective, duplicates = _finish(system, raw)
            if duplicates == 0 or retry == _MAX_RETRIES - 1:
                return ZeroSet(points, bezout, escaped + blown_up, defective + duplicates)
    raise SolveError(f"path failures persisted across {_MAX_RETRIES} retries")


def _finish(system: _System, raw: np.ndarray):
    """Polish, certify and deduplicate the endpoints of the finished paths.

    Returns (points, blown_up, defective, duplicates): certified simple roots
    in path order, endpoints that blew up during the polish, endpoints that
    failed certification, and endpoints repeating an earlier certified root.
    """
    Z = _refine_endpoints(system, raw)  # finite: tracking and polish keep finite points only
    blown = np.linalg.norm(Z, axis=1) > _BLOWUP
    Z = Z[~blown]
    res, det = _certify(system, Z)[:2]
    det = np.abs(det)
    good = (res <= 1e-8) & (det >= _DET_THRESHOLD)
    Z, res, det = Z[good], res[good], det[good]

    # the first certified path to reach a root keeps it
    dist = np.linalg.norm(Z[:, None, :] - Z[None, :, :], axis=2)
    kept: List[int] = []
    for i in range(len(Z)):
        if not (dist[i, kept] < _CLUSTER_RADIUS).any():
            kept.append(i)
    points = [ZeroPoint(tuple(Z[i].tolist()), float(res[i]), float(det[i])) for i in kept]
    return points, int(blown.sum()), int((~good).sum()), len(Z) - len(kept)


def _refine_endpoints(system: _System, Z: np.ndarray) -> np.ndarray:
    """Newton's method on f from every row of Z, all rows in one batch.  A row
    stops where its Jacobian is singular or its next iterate is not finite."""
    Z = Z.copy()
    live = np.arange(len(Z))
    for _ in range(_ENDPOINT_ITERS):
        if not live.size:
            break
        f, _, J, _ = system.rows(Z[live])
        dz, ok = _solve_rows(J, f)
        z_new = Z[live] - dz
        ok &= np.isfinite(z_new).all(axis=1)
        live = live[ok]
        Z[live] = z_new[ok]
    return Z


_ACTIVE, _OK, _ESCAPED, _FAILED = range(4)


def _track_all(system: _System, gamma: complex):
    """Track every start root; (endpoints in start-root order, escaped paths,
    failed paths)."""
    Z, status = _track(system, gamma, _start_roots(system.degrees))
    return Z[status == _OK], int((status == _ESCAPED).sum()), int((status == _FAILED).sum())


def _track(system: _System, gamma: complex, starts: np.ndarray):
    """Track the paths from the rows of ``starts`` (P, n) as one batch.

    Returns (Z, status): the last point of each path and its status, one of
    _OK, _ESCAPED or _FAILED.  Each path keeps its own tau and step size; a
    finished path leaves the batch.  Each step is one predictor, _NEWTON_ITERS
    corrector iterations and the corrector's residual; the evaluation behind
    the residual, at the point and tau a step is accepted at, is the next
    predictor's, and a rejected step reuses the evaluation it started from.
    """
    P = len(starts)
    Z_out = starts.astype(complex)
    status = np.full(P, _ACTIVE)
    # the active paths, compacted: their indices, points, tau, step sizes and
    # the homotopy's dH/dz and f - gamma g at (z, tau)
    ids = np.arange(P)
    Z, tau, step = Z_out.copy(), np.zeros(P), np.full(P, _MAX_STEP)
    _, J, rhs = _homotopy(system, Z, tau, gamma)

    def leave(done, how):
        nonlocal ids, Z, tau, step, J, rhs
        if done.any():
            Z_out[ids[done]] = Z[done]
            status[ids[done]] = how
            keep = ~done
            ids, Z, tau, step, J, rhs = ids[keep], Z[keep], tau[keep], step[keep], J[keep], rhs[keep]

    while ids.size:
        leave(np.linalg.norm(Z, axis=1) > _BLOWUP, _ESCAPED)
        # first-order predictor: J_H dz/dtau = -(f - gamma g)
        dz, ok = _solve_rows(J, -rhs)
        leave(~ok, _FAILED)
        h = np.minimum(step, 1.0 - tau)
        z_pred = Z + h[:, None] * dz[ok]
        rows, z_corr, res, J_corr, rhs_corr = _correct(system, gamma, tau + h, z_pred)
        z_pred = z_pred[rows]
        reach = _CORRECTOR_REACH * np.maximum(1.0, np.linalg.norm(z_pred, axis=1))
        good = (res < _CORRECTOR_TOL * np.maximum(1.0, np.linalg.norm(z_corr, axis=1))) & (
            np.linalg.norm(z_corr - z_pred, axis=1) <= reach
        )
        a = rows[good]
        accepted = np.zeros(len(ids), dtype=bool)
        accepted[a] = True
        tau[a] += h[a]
        Z[a] = z_corr[good]
        J[a] = J_corr[good]
        rhs[a] = rhs_corr[good]
        step = np.where(accepted, np.minimum(_MAX_STEP, step * 1.5), step * 0.5)
        # a step underflow near tau = 1 marks a divergent path
        leave((step < _MIN_STEP) & (tau > 0.99), _ESCAPED)
        leave(step < _MIN_STEP, _FAILED)
        leave(tau >= 1.0, _OK)
    return Z_out, status


def _correct(system: _System, gamma: complex, tau: np.ndarray, Z: np.ndarray):
    """Newton's method on H(., tau) from every row of Z, with per-row tau.

    Returns (rows, Z, res, J, rhs) for the rows that stayed finite with
    regular Jacobians: their indices into Z, their iterates, the residual |H|
    there and the evaluation (dH/dz, f - gamma g) behind it.
    """
    rows = np.arange(len(Z))
    for _ in range(_NEWTON_ITERS):
        H, J, _ = _homotopy(system, Z, tau, gamma)
        dz, ok = _solve_rows(J, H)
        Z = Z - dz
        ok &= np.isfinite(Z).all(axis=1)
        if not ok.all():
            rows, Z, tau = rows[ok], Z[ok], tau[ok]
    H, J, rhs = _homotopy(system, Z, tau, gamma)
    return rows, Z, np.linalg.norm(H, axis=1), J, rhs


def certify_zero(polys: Sequence[AffinePoly], p: Sequence[complex]):
    """(residual, |det J|, Newton-contraction flag) at a candidate zero."""
    system = _System(polys)
    z = np.asarray(p, dtype=complex)
    res, det, f, J = _certify(system, z)
    det = abs(det)
    contracts = False
    if det > 0:
        try:
            res1 = _certify(system, z - np.linalg.solve(J, f))[0]
            contracts = res1 <= res / 10.0 or res1 < 1e-14
        except np.linalg.LinAlgError:
            pass
    return res, det, contracts


def jacobian_det(polys: Sequence[AffinePoly], p: Sequence[complex]) -> complex:
    """det(d polys / dz) at a point, from the certification step."""
    return _certify(_System(polys), np.asarray(p, dtype=complex))[1]


def zeros_at_infinity_check(
    components: Sequence,  # HomogeneousPoly, in n+1 variables
    seed: int = 0,
    tol: float = 1e-8,
) -> bool:
    """True iff the leading-form system on the hyperplane z_0 = 0 has only the
    trivial common zero, i.e. the affine chart 0 contains the whole zero set.

    The restricted forms live on P^{n-1}; a common projective zero is searched
    by solving the first n-1 restrictions on a random-unitary-rotated patch
    and evaluating the remaining one.
    """
    n = len(components)
    restricted = [_restrict_to_infinity(s) for s in components]
    if any(r.is_zero() for r in restricted):
        return False  # a component vanishes identically at infinity
    if n == 1:
        # P^0: the single point (0:1); nonzero restriction never vanishes there
        return True

    rng = np.random.default_rng(np.random.Philox(seed + 101))
    # random unitary mixing makes patch degeneracies measure-zero
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    rotated = [r.substitute_linear(Q) for r in restricted]

    # patch z_last = 1 of P^{n-1}: solve the first n-1 forms, test the last
    patched = [r.dehomogenize(n - 1) for r in rotated]
    if n == 2:
        roots = _univariate_roots(patched[0])
        test = patched[1]
        scale = test.coeff_norm() or 1.0
        for r in roots:
            if abs(test.eval([r])) <= tol * scale * max(1.0, abs(r)) ** max(test.degree(), 1):
                return False
        # also the patch point at infinity of this chart: handled by rotation
        return True
    zs = solve_square_system(patched[:-1], seed=seed + 7)
    test = patched[-1]
    scale = test.coeff_norm() or 1.0
    for zp in zs.points:
        pt = list(zp.point)
        if abs(test.eval(pt)) <= tol * scale * max(1.0, float(np.linalg.norm(pt))) ** max(test.degree(), 1):
            return False
    return True


def _restrict_to_infinity(poly: HomogeneousPoly) -> HomogeneousPoly:
    """Substitute z_0 = 0: a form of the same degree in the remaining n variables."""
    terms = {e[1:]: c for e, c in poly.terms.items() if e[0] == 0}
    return HomogeneousPoly(poly.num_vars - 1, poly.degree, terms)


def _univariate_roots(p: AffinePoly) -> np.ndarray:
    deg = p.degree()
    if deg == 0:
        return np.array([], dtype=complex)
    coeffs = np.zeros(deg + 1, dtype=complex)
    for e, c in p.terms.items():
        coeffs[e[0]] = complex(c)
    return np.roots(coeffs[::-1])
