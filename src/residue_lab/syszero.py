"""Isolated zeros of square polynomial systems by total-degree homotopy.

Tracks the Bezout count of paths of H(z, tau) = (1-tau) gamma g(z) + tau f(z)
from the start system g_i = z_i^{d_i} - 1 (gamma a random unit complex), with
a first-order predictor, Newton corrector and adaptive steps.

Each system is compiled once into one polycore.PolyKernel whose rows are f, g
and the partials of both, so every predictor, corrector and polish iteration
is one kernel call returning H, dH/dz and f - gamma g.  The same rows serve
the certification step (residual |f| and det df/dz) of the endpoints,
``certify_zero`` and ``jacobian_det``.  Step sizes, iteration counts and
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

Determinism: all randomness derives from the seed; paths are tracked in start
-root index order and results are merged in that order.
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

    def rows(self, z: np.ndarray):
        """(f, g, df, dg) at one point: df is the (n, n) Jacobian of f and dg
        the diagonal of the Jacobian of g."""
        n = self.n
        v = self.kernel.eval_batch(z[None, :])[:, 0]
        return v[:n], v[n : 2 * n], v[2 * n : 2 * n + n * n].reshape(n, n), v[2 * n + n * n :]


def _homotopy(system: _System, z: np.ndarray, tau: float, gamma: complex):
    """H = (1 - tau) gamma g + tau f, dH/dz and f - gamma g at z."""
    f, g, df, dg = system.rows(z)
    gg = gamma * g
    H = (1 - tau) * gg + tau * f
    J = (1 - tau) * np.diag(gamma * dg) + tau * df
    return H, J, f - gg


def _certify(system: _System, z: np.ndarray):
    """The certification step at z: (residual |f(z)|, det J(z), f(z), J(z))."""
    f, _, J, _ = system.rows(z)
    return float(np.linalg.norm(f)), complex(np.linalg.det(J)), f, J


def _start_roots(degrees: Sequence[int]) -> List[np.ndarray]:
    """Roots of z_i^{d_i} = 1 in lexicographic index order."""
    axes = []
    for d in degrees:
        axes.append([cmath.exp(2j * math.pi * k / d) for k in range(d)])
    return [np.array(combo, dtype=complex) for combo in itertools.product(*axes)]


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


def _finish(system: _System, raw: List[np.ndarray]):
    """Polish, certify and deduplicate the endpoints of the finished paths.

    Returns (points, blown_up, defective, duplicates): certified simple roots
    in path order, endpoints that blew up during the polish, endpoints that
    failed certification, and endpoints repeating an earlier certified root.
    """
    finished: List[ZeroPoint] = []
    blown_up = 0
    defective = 0
    for z in raw:
        z = _polish(system, z)
        if not np.isfinite(z).all() or np.linalg.norm(z) > _BLOWUP:
            blown_up += 1
            continue
        res, det = _certify(system, z)[:2]
        det = abs(det)
        if res > 1e-8 or det < _DET_THRESHOLD:
            defective += 1
            continue
        finished.append(ZeroPoint(tuple(z.tolist()), res, det))

    points: List[ZeroPoint] = []
    duplicates = 0
    for zp in finished:
        if any(
            np.linalg.norm(np.array(zp.point) - np.array(kept.point)) < _CLUSTER_RADIUS
            for kept in points
        ):
            duplicates += 1
        else:
            points.append(zp)
    return points, blown_up, defective, duplicates


def _track_all(system: _System, gamma: complex):
    raw = []
    escaped = 0
    failures = 0
    for z0 in _start_roots(system.degrees):
        z, status = _track_path(system, gamma, z0)
        if status == "ok":
            raw.append(z)
        elif status == "infinity":
            escaped += 1
        else:
            failures += 1
    return raw, escaped, failures


def _track_path(system: _System, gamma: complex, z0: np.ndarray):
    z = z0.astype(complex)
    tau = 0.0
    step = _MAX_STEP
    while tau < 1.0:
        if np.linalg.norm(z) > _BLOWUP:
            return z, "infinity"
        h = min(step, 1.0 - tau)
        # first-order predictor: J_H dz/dtau = -(f - gamma g)
        _, J, rhs = _homotopy(system, z, tau, gamma)
        try:
            dz = np.linalg.solve(J, -rhs)
        except np.linalg.LinAlgError:
            return z, "failure"
        z_pred = z + h * dz
        z_corr, res = _corrector(system, gamma, tau + h, z_pred)
        reach = _CORRECTOR_REACH * max(1.0, float(np.linalg.norm(z_pred)))
        if (
            res < _CORRECTOR_TOL * max(1.0, float(np.linalg.norm(z_corr)))
            and np.linalg.norm(z_corr - z_pred) <= reach
        ):
            tau += h
            z = z_corr
            step = min(_MAX_STEP, step * 1.5)
        else:
            step *= 0.5
            if step < _MIN_STEP:
                if tau > 0.99:
                    return z, "infinity"  # step underflow at the end: divergent path
                return z, "failure"
    return z, "ok"


def _corrector(system: _System, gamma: complex, tau: float, z: np.ndarray):
    for _ in range(_NEWTON_ITERS):
        H, J, _ = _homotopy(system, z, tau, gamma)
        try:
            dz = np.linalg.solve(J, H)
        except np.linalg.LinAlgError:
            return z, np.inf
        z = z - dz
        if not np.isfinite(z).all():
            return z, np.inf
    H = _homotopy(system, z, tau, gamma)[0]
    return z, float(np.linalg.norm(H))


def _polish(system: _System, z: np.ndarray) -> np.ndarray:
    for _ in range(_ENDPOINT_ITERS):
        f, _, J, _ = system.rows(z)
        try:
            dz = np.linalg.solve(J, f)
        except np.linalg.LinAlgError:
            break
        z_new = z - dz
        if not np.isfinite(z_new).all():
            break
        z = z_new
    return z


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
