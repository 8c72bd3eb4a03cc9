"""Isolated zeros of square polynomial systems by total-degree homotopy.

Tracks the Bezout count of paths of H(z, tau) = (1-tau) gamma g(z) + tau f(z)
from the start system g_i = z_i^{d_i} - 1 (gamma a random unit complex), with
a Hermite predictor, Newton corrector and adaptive steps.

Each system is compiled into one polycore.PolyKernel of f and its partials,
which serves the endpoint polish and the certification step (residual |f| and
det df/dz), both batched over the endpoints (``certify_zero`` and
``residue.local_residue`` pass it one row); a certified zero keeps its signed
det df/dz as ``ZeroPoint.det_j``, the denominator of its local residue.  The
homotopy has a kernel of its own per gamma, built when the gamma is first
tracked and replaced on a retry: its rows are A = gamma (g, dg/dz) and
B = (f, df/dz) - gamma (g, dg/dz), each a value row per equation followed by
a full row-major n x n Jacobian block (zero off the diagonal for g), so that
H and dH/dz at tau are A + tau B in one broadcast and f - gamma g, the
tangent's right-hand side, is the head of B.

All Bezout paths of one gamma are tracked together as one (P, n) array of
points: every predictor and every corrector iteration is one kernel call and
one stacked linear solve for all active paths, each path with its own tau and
step size, and a finished path leaves the batch.  A singular matrix makes the
stacked solve fail as a whole; the rows are then solved one by one, so only
the singular path is affected.  An accepted step ends with the evaluation of
the homotopy at its new point and tau, which the next predictor reuses, and a
rejected step reuses the evaluation it started from; a step after the first
thus costs _NEWTON_ITERS + 1 kernel calls.  The predictor extrapolates the
cubic Hermite interpolant of a path's last two accepted points and the
tangents there (Sommese-Wampler, The Numerical Solution of Systems of
Polynomials, 2005, ch. 2); the earlier point and tangent are kept from the
step that left it, so the cubic costs no kernel call and no solve.  A path's
first step is an Euler step along its tangent.  Step sizes, iteration counts
and thresholds are module constants.

A step is accepted only when the corrector's residual is below
``_CORRECTOR_TOL * max(1, |z|)`` *and* the corrector moved the predicted
point by at most ``_CORRECTOR_REACH * max(1, |z_pred|)``: Newton on the
homotopy can converge from far away to a point of another path (near
tau = 1, to a finite root from anywhere on a path that escapes), and such a
step is rejected.  Each path sizes its next step from its own last one
(Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 5): the first
Newton correction |dz_1| is the predictor's error, which for the Hermite
predictor is of order h^4, so an accepted step of size h is followed by one
of h * clip(0.8 (_STEP_TARGET max(1, |z|) / |dz_1|)^(1/4), 1/2, 2), at most
_MAX_STEP; a rejected step is retried at half its size, and the first step
is _FIRST_STEP.  The corrector's tolerance only decides whether the tracker
is still on its path; it is not the certificate: endpoints are polished and
certified on f itself (below, at residual <= 1e-8), so a looser tolerance
along the path costs no accuracy at the roots.  A step in which every
active path survives the corrector and is accepted takes the corrector's
arrays as the batch's new state; one that rejects some path writes the
accepted rows into the state by index.
A path whose accepted point left the ball of radius _BLOWUP, or whose step
underflows _MIN_STEP near tau = 1, has escaped to infinity; one whose step
underflows earlier has failed; one at tau = 1 is done, and this last takes
precedence.  Only a step after which some path leaves makes this status pass
over the batch.

Endpoints are polished by Newton iteration and certified by residual and
Jacobian determinant; an endpoint failing either is ``defective``.  Two paths
ending at one certified root mean either that a path jumped or that the root
is multiple (a double root can pass the determinant threshold).  A jump goes
away with a fresh gamma, a multiple root does not: the solve is retried with
a fresh gamma, and a duplicate still there on the last retry is counted as
``defective``.  A path that fails to track triggers the same retry and raises
``SolveError`` once the retries run out.  Paths escaping to infinity are
counted, not returned, so finite zeros + escaped + defective paths is the
Bezout number.

Two questions on forms are answered here and nowhere else: whether n forms
in n variables share a root (``_common_root``, the resultant test, which also
decides whether a system has zeros at infinity; it makes no solve) and how
nearly a form vanishes at a point, scale-free (``_normalized_eval``).

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

from .polycore import AffinePoly, HomogeneousPoly, PolyKernel, monomials_of_degree

__all__ = ["ZeroPoint", "ZeroSet", "solve_square_system", "certify_zero", "zeros_at_infinity_check", "random_unitary", "SolveError"]


class SolveError(RuntimeError):
    """Path tracking failed beyond the retry budget."""


# Tracker constants.  The largest corrector move accepted in one step is
# _CORRECTOR_REACH * max(1, |z_pred|); 0.1 keeps the escaping path of
# (w0 w1 - 1, w0 - 2) off its finite root at seeds 0-19 and leaves the results
# of the bundled scenarios unchanged.  _STEP_TARGET is the first Newton
# correction a step aims at, relative to max(1, |z|); at 3e-2 the benchmark's
# algebraic suite takes 25% fewer batch steps than with a step that grows
# x1.5 on every acceptance and a _MAX_STEP of 0.1.
_CORRECTOR_REACH = 0.1
_FIRST_STEP = 0.1
_MAX_STEP = 0.5
_MIN_STEP = 1e-4
_STEP_TARGET = 3e-2
_NEWTON_ITERS = 3
_CORRECTOR_TOL = 1e-8
_ENDPOINT_ITERS = 10
_BLOWUP = 1e8
_CLUSTER_RADIUS = 1e-6
_DET_THRESHOLD = 1e-10
_MAX_RETRIES = 3
# smallest / largest singular value of a Macaulay matrix at most this: a common root
_RESULTANT_TOL = 1e-10


@dataclass(frozen=True)
class ZeroPoint:
    point: Tuple[complex, ...]
    residual: float
    det_j: complex  # det(df/dz) at the point, from the certification step


@dataclass
class ZeroSet:
    points: List[ZeroPoint]
    bezout_count: int
    missing_paths: int  # paths that escaped to infinity
    defective: int = 0  # singular or unconverged endpoints; repeats of a root on every retry

    def coordinates(self) -> np.ndarray:
        return np.array([p.point for p in self.points], dtype=complex)


class _System:
    """A square system f and its start system g_i = z_i^{d_i} - 1.

    ``kernel`` holds the rows f_i and df_i/dz_k (row-major in i, k), which the
    polish and the certification evaluate; ``homotopy_kernel`` compiles the
    homotopy at one gamma and keeps it until another gamma is asked for."""

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
        zero = AffinePoly(n, {})
        # (f, df) and (g, dg) in one row layout; dg is zero off the diagonal
        self._target = list(polys) + [f.partial(k) for f in polys for k in range(n)]
        self._start = start + [g.partial(k) if k == i else zero for i, g in enumerate(start) for k in range(n)]
        self.kernel = PolyKernel(n, self._target)
        self._gamma, self._gamma_kernel = None, None

    def rows(self, Z: np.ndarray):
        """(f, df) at a batch of points Z of shape (P, n): f is (P, n) and df
        the (P, n, n) Jacobians."""
        n, P = self.n, len(Z)
        v = self.kernel.eval_batch(Z).T
        return v[:, :n], v[:, n:].reshape(P, n, n)

    def homotopy_kernel(self, gamma: complex) -> PolyKernel:
        """The rows A = gamma (g, dg) followed by B = (f, df) - gamma (g, dg):
        H and dH/dz at tau are A + tau B, and f - gamma g is the head of B."""
        if gamma != self._gamma:
            a = [g.scale(gamma) for g in self._start]
            b = [f - ga for f, ga in zip(self._target, a)]
            self._gamma, self._gamma_kernel = gamma, PolyKernel(self.n, a + b)
        return self._gamma_kernel


def _homotopy(system: _System, z: np.ndarray, tau, gamma: complex):
    """H = (1 - tau) gamma g + tau f, dH/dz and f - gamma g at z: one point
    (n,) at a scalar tau, or a batch (P, n) with one tau per row."""
    Z = z if z.ndim == 2 else z[None]
    n, P = system.n, len(Z)
    m = n + n * n
    v = system.homotopy_kernel(gamma).eval_batch(Z).T
    HJ = v[:, :m] + np.asarray(tau, dtype=float).reshape(-1, 1) * v[:, m:]
    H, J, rhs = HJ[:, :n], HJ[:, n:].reshape(P, n, n), v[:, m : m + n]
    if z.ndim == 1:
        return H[0], J[0], rhs[0]
    return H, J, rhs


def _certify(system: _System, Z: np.ndarray):
    """The certification step at a batch of points Z (P, n): residual |f|,
    det J, f and J, one row per point."""
    f, J = system.rows(Z)
    return np.linalg.norm(f, axis=1), np.linalg.det(J), f, J


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
    good = (res <= 1e-8) & (np.abs(det) >= _DET_THRESHOLD)
    Z, res, det = Z[good], res[good], det[good]

    # the first certified path to reach a root keeps it
    dist = np.linalg.norm(Z[:, None, :] - Z[None, :, :], axis=2)
    kept: List[int] = []
    for i in range(len(Z)):
        if not (dist[i, kept] < _CLUSTER_RADIUS).any():
            kept.append(i)
    points = [ZeroPoint(tuple(Z[i].tolist()), float(res[i]), complex(det[i])) for i in kept]
    return points, int(blown.sum()), int((~good).sum()), len(Z) - len(kept)


def _refine_endpoints(system: _System, Z: np.ndarray) -> np.ndarray:
    """Newton's method on f from every row of Z, all rows in one batch.  A row
    stops where its Jacobian is singular or its next iterate is not finite."""
    Z = Z.copy()
    live = np.arange(len(Z))
    for _ in range(_ENDPOINT_ITERS):
        if not live.size:
            break
        f, J = system.rows(Z[live])
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
    # the active paths, compacted: their indices, points, tau, step sizes, the
    # homotopy's dH/dz and f - gamma g at (z, tau), and the last accepted
    # point, the tangent there and the step that left it (0 before the first)
    ids = np.arange(P)
    Z, tau, step = Z_out.copy(), np.zeros(P), np.full(P, _FIRST_STEP)
    _, J, rhs = _homotopy(system, Z, tau, gamma)
    Z0, dZ0, s0 = np.zeros_like(Z), np.zeros_like(Z), np.zeros(P)

    def leave(how):
        """Retire every path whose entry of ``how`` is not _ACTIVE, with that
        entry as its status."""
        nonlocal ids, Z, tau, step, J, rhs, Z0, dZ0, s0
        done = how != _ACTIVE
        Z_out[ids[done]] = Z[done]
        status[ids[done]] = how[done]
        keep = ~done
        ids, Z, tau, step, J, rhs, Z0, dZ0, s0 = (x[keep] for x in (ids, Z, tau, step, J, rhs, Z0, dZ0, s0))

    while ids.size:
        # the tangent: J_H dz/dtau = -(f - gamma g)
        dz, ok = _solve_rows(J, -rhs)
        if not ok.all():
            leave(np.where(ok, _ACTIVE, _FAILED))
            dz = dz[ok]
        h = np.minimum(step, 1.0 - tau)
        z_pred = _predict(Z, dz, h, Z0, dZ0, s0)
        rows, z_corr, res, J_corr, rhs_corr, first = _correct(system, gamma, tau + h, z_pred)
        everyone = rows.size == ids.size
        good, scale = _accepted(z_pred if everyone else z_pred[rows], z_corr, res)
        # a rejected step is retried at half its size; an accepted one sizes
        # the next from its first Newton correction, the predictor's error
        with np.errstate(divide="ignore"):
            growth = np.clip(0.8 * (_STEP_TARGET * scale / first) ** 0.25, 0.5, 2.0)
        if everyone and good.all():  # the corrector's arrays become the state
            Z0, dZ0, s0, tau = Z, dz, h, tau + h
            Z, J, rhs = z_corr, J_corr, rhs_corr
            step = np.minimum(_MAX_STEP, h * growth)
            blown = scale > _BLOWUP
        else:
            a = rows[good]
            Z0[a], dZ0[a], s0[a] = Z[a], dz[a], h[a]
            tau[a] += h[a]
            Z[a] = z_corr[good]
            J[a] = J_corr[good]
            rhs[a] = rhs_corr[good]
            step = 0.5 * h
            step[a] = np.minimum(_MAX_STEP, h[a] * growth[good])
            blown = np.zeros(ids.size, dtype=bool)
            blown[a] = scale[good] > _BLOWUP
        under, arrived = step < _MIN_STEP, tau >= 1.0
        if blown.any() or under.any() or arrived.any():
            # one status pass: blown up, then a step underflow (escaped near
            # tau = 1, failed before), then arrived, each overriding the last
            how = np.full(ids.size, _ACTIVE)
            how[blown] = _ESCAPED
            how[under] = np.where(tau[under] > 0.99, _ESCAPED, _FAILED)
            how[arrived] = _OK
            leave(how)
    return Z_out, status


def _accepted(z_pred, z_corr, res):
    """The acceptance test of corrected points z_corr, predicted at z_pred with
    residual res: a mask of the accepted rows, and max(1, |z_corr|) per row."""
    scale = np.maximum(1.0, np.linalg.norm(z_corr, axis=1))
    reach = _CORRECTOR_REACH * np.maximum(1.0, np.linalg.norm(z_pred, axis=1))
    return (res < _CORRECTOR_TOL * scale) & (np.linalg.norm(z_corr - z_pred, axis=1) <= reach), scale


def _predict(Z, dz, h, Z0, dZ0, s0):
    """The predicted points at tau + h of paths at Z with tangents dz.

    A path whose last step s0 > 0 left the point Z0 with tangent dZ0 follows
    the cubic Hermite interpolant of the two points and tangents,
    Z + h dz + h^2 (c2 + h c3) with c3 = (2 (Z0 - Z) + s0 (dZ0 + dz)) / s0^3
    and c2 = (dz - dZ0) / (2 s0) + 1.5 c3 s0, here in terms of r = h / s0; a
    path on its first step (s0 = 0) follows its tangent (Euler).
    """
    first = s0 == 0
    s = np.where(first, 1.0, s0)[:, None]
    r = np.where(first, 0.0, h)[:, None] / s
    d = Z0 - Z
    b = d + s * dz  # h^2 c2 = r^2 (a + b), h^3 c3 = r^3 a
    a = b + d + s * dZ0
    return Z + h[:, None] * dz + r * r * (b + (1 + r) * a)


def _correct(system: _System, gamma: complex, tau: np.ndarray, Z: np.ndarray):
    """Newton's method on H(., tau) from every row of Z, with per-row tau.

    Returns (rows, Z, res, J, rhs, first) for the rows that stayed finite with
    regular Jacobians: their indices into Z, their iterates, the residual |H|
    there, the evaluation (dH/dz, f - gamma g) behind it and the norm of the
    first Newton correction, which measures the predictor's error.
    """
    rows = np.arange(len(Z))
    for i in range(_NEWTON_ITERS):
        H, J, _ = _homotopy(system, Z, tau, gamma)
        dz, ok = _solve_rows(J, H)
        Z = Z - dz
        if i == 0:
            first = np.linalg.norm(dz, axis=1)
        ok &= np.isfinite(Z).all(axis=1)
        if not ok.all():
            rows, Z, tau, first = rows[ok], Z[ok], tau[ok], first[ok]
    H, J, rhs = _homotopy(system, Z, tau, gamma)
    return rows, Z, np.linalg.norm(H, axis=1), J, rhs, first


def certify_zero(polys: Sequence[AffinePoly], p: Sequence[complex]):
    """(residual, |det J|, Newton-contraction flag) at a candidate zero."""
    system = _System(polys)
    z = np.asarray(p, dtype=complex)
    res, det, f, J = (x[0] for x in _certify(system, z[None]))
    det = abs(det)
    contracts = False
    if det > 0:
        try:
            res1 = _certify(system, (z - np.linalg.solve(J, f))[None])[0][0]
            contracts = res1 <= res / 10.0 or res1 < 1e-14
        except np.linalg.LinAlgError:
            pass
    return float(res), float(det), contracts


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """An n x n unitary matrix: the Q of a QR factorization of a complex
    Gaussian matrix drawn from ``rng``."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(A)[0]


def zeros_at_infinity_check(components: Sequence) -> bool:  # HomogeneousPoly, in n+1 variables
    """True iff the leading-form system on the hyperplane z_0 = 0 has only the
    trivial common zero, i.e. the affine chart 0 contains the whole zero set.

    The n restricted forms live on P^{n-1}; one that vanishes identically is a
    zero at infinity, a single nonzero one on P^0 never vanishes, and
    otherwise the resultant test decides."""
    restricted = [_restrict_to_infinity(s) for s in components]
    if any(r.is_zero() for r in restricted):
        return False
    return len(restricted) == 1 or not _common_root(restricted)


def _restrict_to_infinity(poly: HomogeneousPoly) -> HomogeneousPoly:
    """Substitute z_0 = 0: a form of the same degree in the remaining n variables."""
    terms = {e[1:]: c for e, c in poly.terms.items() if e[0] == 0}
    return HomogeneousPoly(poly.num_vars - 1, poly.degree, terms)


def _common_root(forms: Sequence[HomogeneousPoly]) -> bool:
    """Whether n forms in n variables have a common root on P^{n-1}, by the
    resultant test (Macaulay, Proc. LMS 35, 1902; Cox, Little and O'Shea,
    Using Algebraic Geometry, ch. 3).  The Macaulay matrix in degree
    D = sum(d_i - 1) + 1 has a row for each form times each monomial of
    degree D - d_i (the first form's rows first), each form scaled to a unit
    coefficient vector, and a column for each monomial of degree D; it has
    full column rank iff the forms share no root, and a common root is read
    as a smallest singular value at most _RESULTANT_TOL of the largest.  For
    two binary forms it is their Sylvester matrix."""
    n = len(forms)
    D = 1 + sum(f.degree - 1 for f in forms)
    column = {e: j for j, e in enumerate(monomials_of_degree(n, D))}
    rows = []
    for f in forms:
        monos = monomials_of_degree(n, f.degree)
        c = np.array([f.terms.get(e, 0) for e in monos], dtype=complex)
        c = c / np.linalg.norm(c)
        for shift in monomials_of_degree(n, D - f.degree):
            row = np.zeros(len(column), dtype=complex)
            row[[column[tuple(a + b for a, b in zip(e, shift))] for e in monos]] = c
            rows.append(row)
    sv = np.linalg.svd(np.array(rows).reshape(len(rows), len(column)), compute_uv=False)
    return bool(sv.size) and bool(sv[-1] <= _RESULTANT_TOL * sv[0])


def _normalized_eval(form: HomogeneousPoly, point) -> float:
    """|form(p)| / (||coeffs||_2 max(1, ||p||)^deg); scale-free residual."""
    p = np.asarray(point, dtype=complex)
    return abs(complex(form.eval(list(p)))) / (form.coeff_norm() * max(1.0, float(np.linalg.norm(p))) ** form.degree)
