"""Isolated zeros of square polynomial systems by total-degree homotopy.

Tracks the Bezout count of paths of H(z, tau) = (1-tau) gamma g(z) + tau f(z)
from the start system g_i = z_i^{d_i} - 1 (gamma a random unit complex), with
a first-order predictor, Newton corrector and adaptive steps.  Endpoints are
polished by Newton iteration and certified by residual, Jacobian determinant
and a one-step contraction test.  Paths escaping to infinity are counted, not
returned, so finite zeros + escaped paths reconciles with the Bezout number
on regular instances.

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

from .polycore import AffinePoly, HomogeneousPoly

__all__ = ["ZeroPoint", "ZeroSet", "TrackerOptions", "solve_square_system", "certify_zero", "zeros_at_infinity_check", "SolveError"]


class SolveError(RuntimeError):
    """Path tracking failed beyond the retry budget."""


@dataclass(frozen=True)
class TrackerOptions:
    max_step: float = 0.1
    min_step: float = 1e-4
    newton_iters: int = 3
    corrector_tol: float = 1e-10
    endpoint_iters: int = 10
    blowup: float = 1e8
    cluster_radius: float = 1e-6
    det_threshold: float = 1e-10
    max_retries: int = 3


@dataclass(frozen=True)
class ZeroPoint:
    point: Tuple[complex, ...]
    residual: float
    abs_det_j: float
    cond_estimate: float


@dataclass
class ZeroSet:
    points: List[ZeroPoint]
    bezout_count: int
    missing_paths: int  # paths that escaped to infinity
    defective: int = 0  # clustered endpoints (multiplicity > 1) or singular

    def coordinates(self) -> np.ndarray:
        return np.array([p.point for p in self.points], dtype=complex)


class _System:
    """Callable square system with cached Jacobian polynomials."""

    def __init__(self, polys: Sequence[AffinePoly]):
        self.polys = list(polys)
        self.n = polys[0].num_vars
        if any(p.num_vars != self.n for p in polys):
            raise ValueError("mixed variable counts in system")
        self.jac = [[p.partial(k) for k in range(self.n)] for p in self.polys]

    def value(self, z: np.ndarray) -> np.ndarray:
        zl = list(z)
        return np.array([p.eval(zl) for p in self.polys], dtype=complex)

    def jacobian(self, z: np.ndarray) -> np.ndarray:
        zl = list(z)
        return np.array(
            [[self.jac[i][k].eval(zl) for k in range(self.n)] for i in range(len(self.polys))],
            dtype=complex,
        )


def _start_roots(degrees: Sequence[int]) -> List[np.ndarray]:
    """Roots of z_i^{d_i} = 1 in lexicographic index order."""
    axes = []
    for d in degrees:
        axes.append([cmath.exp(2j * math.pi * k / d) for k in range(d)])
    return [np.array(combo, dtype=complex) for combo in itertools.product(*axes)]


class _ScaledStart:
    """gamma * (z_i^{d_i} - 1) with cached powers."""

    def __init__(self, degrees: Sequence[int], gamma: complex):
        self.degrees = list(degrees)
        self.gamma = gamma
        self.n = len(degrees)

    def value_scaled(self, z: np.ndarray) -> np.ndarray:
        return self.gamma * (z ** np.array(self.degrees) - 1.0)

    def jac_scaled(self, z: np.ndarray) -> np.ndarray:
        d = np.array(self.degrees)
        return self.gamma * np.diag(d * z ** (d - 1))


def solve_square_system(
    polys: Sequence[AffinePoly],
    seed: int = 0,
    options: TrackerOptions = TrackerOptions(),
) -> ZeroSet:
    """All isolated finite zeros of the square system polys = 0.

    Requires n <= 4 variables and Bezout count prod d_i <= 200 (desk scale).
    """
    system = _System(polys)
    n = system.n
    if len(polys) != n:
        raise ValueError(f"square system required: {len(polys)} equations in {n} variables")
    if n > 4:
        raise ValueError("desk scale supports at most 4 variables")
    if any(p.is_zero() for p in polys):
        raise ValueError("system contains an identically zero equation")
    if any(p.degree() == 0 for p in polys):
        return ZeroSet([], 0, 0, 0)  # a nonzero constant equation: empty zero set
    degrees = [p.degree() for p in polys]
    bezout = int(np.prod(degrees))
    if bezout > 200:
        raise ValueError(f"Bezout count {bezout} exceeds the desk-scale bound 200")

    rng = np.random.default_rng(np.random.Philox(seed))
    raw: List[np.ndarray] = []
    escaped = 0
    for _retry in range(options.max_retries):
        gamma = cmath.exp(2j * math.pi * rng.uniform())
        start = _ScaledStart(degrees, gamma)
        raw, escaped, failures = _track_all(system, start, options)
        if failures == 0:
            break
    else:
        raise SolveError(f"path failures persisted across {options.max_retries} retries")

    # endpoint polish and certification
    finished: List[ZeroPoint] = []
    defective = 0
    for z in raw:
        z, res = _polish(system, z, options.endpoint_iters)
        if not np.isfinite(z).all() or np.linalg.norm(z) > options.blowup:
            escaped += 1
            continue
        J = system.jacobian(z)
        det = abs(np.linalg.det(J))
        cond = float(np.linalg.cond(J)) if det > 0 else np.inf
        if res > 1e-8 or det < options.det_threshold:
            defective += 1
            continue
        finished.append(ZeroPoint(tuple(z.tolist()), res, det, cond))

    # cluster duplicates (multiplicity is defective for the residue formulas)
    points: List[ZeroPoint] = []
    for zp in finished:
        dup = False
        for kept in points:
            if np.linalg.norm(np.array(zp.point) - np.array(kept.point)) < options.cluster_radius:
                defective += 1
                dup = True
                break
        if not dup:
            points.append(zp)
    return ZeroSet(points, bezout, escaped, defective)


def _track_all(system: _System, start: _ScaledStart, options: TrackerOptions):
    raw = []
    escaped = 0
    failures = 0
    for z0 in _start_roots(start.degrees):
        z, status = _track_path(system, start, z0, options)
        if status == "ok":
            raw.append(z)
        elif status == "infinity":
            escaped += 1
        else:
            failures += 1
    return raw, escaped, failures


def _track_path(system: _System, start: _ScaledStart, z0: np.ndarray, options: TrackerOptions):
    z = z0.astype(complex)
    tau = 0.0
    step = options.max_step
    while tau < 1.0:
        if np.linalg.norm(z) > options.blowup:
            return z, "infinity"
        h = min(step, 1.0 - tau)
        # first-order predictor: J_H dz/dtau = -(f - gamma g)
        J = (1 - tau) * start.jac_scaled(z) + tau * system.jacobian(z)
        rhs = system.value(z) - start.value_scaled(z)
        try:
            dz = np.linalg.solve(J, -rhs)
        except np.linalg.LinAlgError:
            return z, "failure"
        z_pred = z + h * dz
        z_corr, res = _corrector(system, start, tau + h, z_pred, options)
        if res < options.corrector_tol * max(1.0, float(np.linalg.norm(z_corr))):
            tau += h
            z = z_corr
            step = min(options.max_step, step * 1.5)
        else:
            step *= 0.5
            if step < options.min_step:
                if tau > 0.99:
                    return z, "infinity"  # step underflow at the end: divergent path
                return z, "failure"
    return z, "ok"


def _corrector(system: _System, start: _ScaledStart, tau: float, z: np.ndarray, options: TrackerOptions):
    for _ in range(options.newton_iters):
        H = (1 - tau) * start.value_scaled(z) + tau * system.value(z)
        J = (1 - tau) * start.jac_scaled(z) + tau * system.jacobian(z)
        try:
            dz = np.linalg.solve(J, H)
        except np.linalg.LinAlgError:
            return z, np.inf
        z = z - dz
        if not np.isfinite(z).all():
            return z, np.inf
    H = (1 - tau) * start.value_scaled(z) + tau * system.value(z)
    return z, float(np.linalg.norm(H))


def _polish(system: _System, z: np.ndarray, iters: int):
    for _ in range(iters):
        val = system.value(z)
        try:
            dz = np.linalg.solve(system.jacobian(z), val)
        except np.linalg.LinAlgError:
            break
        z_new = z - dz
        if not np.isfinite(z_new).all():
            break
        z = z_new
    return z, float(np.linalg.norm(system.value(z)))


def certify_zero(polys: Sequence[AffinePoly], p: Sequence[complex]):
    """(residual, |det J|, Newton-contraction flag) at a candidate zero."""
    system = _System(polys)
    z = np.asarray(p, dtype=complex)
    res = float(np.linalg.norm(system.value(z)))
    J = system.jacobian(z)
    det = abs(np.linalg.det(J))
    contracts = False
    if det > 0:
        try:
            z1 = z - np.linalg.solve(J, system.value(z))
            res1 = float(np.linalg.norm(system.value(z1)))
            contracts = res1 <= res / 10.0 or res1 < 1e-14
        except np.linalg.LinAlgError:
            contracts = False
    return res, det, contracts


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
