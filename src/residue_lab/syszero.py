"""Isolated zeros of square polynomial systems by the eigenvalues of a Macaulay matrix.

The system f_1..f_n of degrees d_i in n affine variables is homogenized to
forms in z_0..z_n.  In degree rho = sum(d_i - 1) + 1 their Macaulay matrix
(``_macaulay``) has a null space N of dimension delta = prod d_i exactly when
the projective zero set is finite, counting multiplicities and zeros at
infinity (Macaulay, Proc. LMS 35, 1902); any other dimension, or no clear
singular-value gap, raises ``SolveError``.  A simple zero p gives the null
vector of the monomials of degree rho at p.  With S_k N the rows of N at the
monomials z_k m (m of degree rho - 1), h a seeded random linear form and U the
left singular vectors of S_h N, M_k = (U^H S_h N)^-1 U^H S_k N is
multiplication by z_k / h in the quotient algebra (Auzinger and Stetter, ISNM
86, 1988; Telen, Mourrain and Van Barel, SIAM J. Matrix Anal. Appl. 39, 2018).
A unit eigenvector x_j of a seeded random combination of the M_k is an
eigenvector of every M_k, and x_j^H M_k x_j, k = 0..n, is the j-th projective
zero.

The eigenvalues are clustered at the relative radius _CLUSTER_RADIUS before
any polish.  A cluster of k > 1 is one zero of multiplicity k, placed at the
mean eigenvalue of each M_k on the span of its eigenvectors (a trace, which
stays accurate where single eigenvectors of a multiple zero do not); it adds
k to ``defective``, is listed in ``multiple`` and is not returned.  A zero
with |z_0| <= _INFINITY_TOL |z| is at infinity, counted in ``missing_paths``,
unless the caller has shown by the resultant (``zeros_at_infinity_check``)
that none is: with ``all_finite`` every zero is finite, however far out.
Simple finite zeros are polished by batched Newton iteration, each row until
a step of at most _STEP_TOL max(1, |z|_inf): the eigenvalue of a simple zero
is at the rounding floor and takes one step; near a multiple zero Newton
converges only linearly, and a row takes up to _ENDPOINT_ITERS.  They are
certified scale-free: the residual max_i |f_i| / (||f_i|| max(1, |w|)^d_i),
||f_i|| the coefficient norm, and the relative Jacobian test |det J| >
_JACOBIAN_TOL prod_i |row i of J|.  A zero failing either is ``defective``; a certified one
keeps its signed det J (``ZeroPoint.det_j``), the denominator of its local
residue.  Zeros come in eigenvalue order, and points + missing_paths +
defective is the Bezout number.  The SVD of the Macaulay matrix dominates the
cost, so the desk-scale bound is on its column count, C(rho + n, n) <=
MAX_COLUMNS.  All randomness derives from the seed: a solve is reproducible.

The same matrix for n forms in n variables is the resultant test of whether
they share a root (``_common_root``), which decides every infinity check and
whether a plane curve is smooth.  ``_null_space`` and ``_eigen_zeros`` serve
that second caller too: the null space of a singular curve's three partials,
with no expected dimension, gives its singular points as eigenvalues
(``Example22Geometry.smoothness_defect``).  ``_normalized_eval`` is how nearly
a form vanishes at each of a batch of points, scale-free.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .polycore import AffinePoly, HomogeneousPoly, PolyKernel, monomials_of_degree

__all__ = ["ZeroPoint", "ZeroSet", "solve_square_system", "zeros_at_infinity_check", "random_unitary", "SolveError"]


class SolveError(RuntimeError):
    """The system has no finite zero set of the right size: the null space of
    its Macaulay matrix is not of the Bezout dimension or has no clear gap."""


MAX_COLUMNS = 1000  # desk scale: the Macaulay matrix has at most this many columns
# singular values at most _RANK_TOL of the largest are zero (the null space,
# a common root); a clear gap leaves none of the others below _GAP_TOL
_RANK_TOL = 1e-10
_GAP_TOL = 1e-6
_INFINITY_TOL = 1e-6
_CLUSTER_RADIUS = 1e-4
_ENDPOINT_ITERS = 10
_STEP_TOL = 1e-12  # a Newton step at most this, relative to max(1, |z|_inf), ends a row's polish
_RESIDUAL_TOL = 1e-8
_JACOBIAN_TOL = 1e-10


@dataclass(frozen=True)
class ZeroPoint:
    point: Tuple[complex, ...]
    residual: float  # scale-free, from the certification step
    det_j: complex  # det(df/dz) at the point, from the certification step


@dataclass
class ZeroSet:
    points: List[ZeroPoint]
    bezout_count: int
    missing_paths: int  # zeros at infinity, with multiplicity
    defective: int = 0  # multiple zeros, with multiplicity, and simple zeros failing certification
    # the multiple zeros: (unpolished point, multiplicity)
    multiple: List[Tuple[Tuple[complex, ...], int]] = field(default_factory=list)


class _System:
    """A square system f compiled into one PolyKernel of the rows f_i and
    df_i/dz_k (row-major in i, k), which the polish and the certification
    evaluate."""

    def __init__(self, polys: Sequence[AffinePoly]):
        self.n = n = polys[0].num_vars
        if any(p.num_vars != n for p in polys):
            raise ValueError("mixed variable counts in system")
        if len(polys) != n:
            raise ValueError(f"square system required: {len(polys)} equations in {n} variables")
        self.degrees = [p.degree() for p in polys]
        self.kernel = PolyKernel(n, list(polys) + [f.partial(k) for f in polys for k in range(n)])
        self.norms = np.linalg.norm(self.kernel.coeffs[:n], axis=1)  # of each f_i's coefficients

    def rows(self, Z: np.ndarray):
        """(f, df) at points Z (P, n): f is (P, n), df the (P, n, n) Jacobians."""
        n, P = self.n, len(Z)
        v = self.kernel.eval_batch(Z).T
        return v[:, :n], v[:, n:].reshape(P, n, n)


def _certify(system: _System, Z: np.ndarray):
    """The certificate at a batch of points Z (P, n), one row per point: the
    scale-free residual, det J and the relative Jacobian test."""
    f, J = system.rows(Z)
    scale = system.norms * np.maximum(1.0, np.linalg.norm(Z, axis=1))[:, None] ** np.array(system.degrees)
    det = np.linalg.det(J)
    regular = np.abs(det) > _JACOBIAN_TOL * np.prod(np.linalg.norm(J, axis=2), axis=1)
    return np.max(np.abs(f) / scale, axis=1, initial=0.0), det, regular


def _solve_rows(A: np.ndarray, b: np.ndarray):
    """x with A[p] x[p] = b[p] for a stack of systems, and a mask of the rows
    whose matrix is not singular; a singular one fails its row alone."""
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


def solve_square_system(polys: Sequence[AffinePoly], seed: int = 0, all_finite: bool = False) -> ZeroSet:
    """All isolated finite zeros of the square system polys = 0, at desk
    scale.  ``all_finite``: the resultant has shown that no zero lies at
    infinity, so no eigenvalue is counted missing by _INFINITY_TOL."""
    system = _System(polys)
    if any(p.is_zero() for p in polys):
        raise ValueError("system contains an identically zero equation")
    if 0 in system.degrees:
        return ZeroSet([], 0, 0, 0)  # a nonzero constant equation: empty zero set
    n, degrees, bezout = system.n, system.degrees, math.prod(system.degrees)
    check_desk_scale(degrees)
    rho = 1 + sum(d - 1 for d in degrees)
    homogenized = [{(d - sum(e),) + e: c for e, c in p.terms.items()} for p, d in zip(polys, degrees)]
    N, index = _null_space([HomogeneousPoly(n + 1, d, t) for d, t in zip(degrees, homogenized)], rho, bezout)

    finite, missing, multiple = [], 0, []
    for z, m in _eigen_zeros(N, index, n, rho, seed):
        if not all_finite and abs(z[0]) <= _INFINITY_TOL * np.linalg.norm(z):
            missing += m
        elif m > 1:
            multiple.append((tuple((z[1:] / z[0]).tolist()), m))
        else:
            finite.append(z[1:] / z[0])
    W = _refine_endpoints(system, np.array(finite).reshape(len(finite), n))
    res, det, regular = _certify(system, W)
    good = (res <= _RESIDUAL_TOL) & regular
    points = [ZeroPoint(tuple(w.tolist()), float(r), complex(d)) for w, r, d in zip(W[good], res[good], det[good])]
    return ZeroSet(points, bezout, missing, sum(m for _, m in multiple) + int((~good).sum()), multiple)


def check_desk_scale(degrees: Sequence[int]) -> None:
    """A ValueError when the Macaulay matrix of equations of these degrees has more than MAX_COLUMNS columns."""
    columns = math.comb(sum(degrees) + 1, len(degrees))  # the monomials of degree rho in n + 1 variables
    if columns > MAX_COLUMNS:
        raise ValueError(f"Macaulay matrix of {columns} columns exceeds the desk-scale bound {MAX_COLUMNS}")


def _null_space(forms: Sequence[HomogeneousPoly], D: int, expected=None):
    """The null space N (columns) of the forms' Macaulay matrix in degree D
    and its column lookup.  Raises ``SolveError`` when its dimension is not
    ``expected`` (if given) or no clear singular-value gap sets it apart."""
    M, index = _macaulay(forms, D)
    columns = M.shape[1]
    _, sv, Vh = np.linalg.svd(M, full_matrices=len(M) < columns)
    sv = np.pad(sv, (0, columns - len(sv))) / sv[0]
    null = int(np.count_nonzero(sv <= _RANK_TOL))
    if expected is not None and null != expected:
        raise SolveError(f"the Macaulay null space has dimension {null}, not the Bezout number {expected}")
    if sv[-null - 1] < _GAP_TOL:
        raise SolveError(f"no clear gap above the Macaulay null space ({sv[-null - 1]:.1e} of the largest)")
    return Vh[columns - null :].conj().T, index


def _eigen_zeros(N: np.ndarray, index, n: int, rho: int, seed: int):
    """The projective zeros (z_0, ..., z_n) / h from the Macaulay null space N,
    one per cluster of eigenvalues, in eigenvalue order, with the cluster's size."""
    rng = np.random.default_rng(np.random.Philox(seed))
    h, c = rng.standard_normal((2, n + 1)) + 1j * rng.standard_normal((2, n + 1))
    SN = N[index(_exponents(n + 1, rho - 1) + np.eye(n + 1, dtype=int)[:, None])]
    ShN = np.tensordot(h, SN, 1)
    U = np.linalg.svd(ShN, full_matrices=False)[0].conj().T
    Mk = np.linalg.solve(U @ ShN, U @ SN)  # multiplication by z_k / h
    lam, X = np.linalg.eig(np.tensordot(c, Mk, 1))  # unit eigenvectors
    Z = np.einsum("ij,kil,lj->jk", X.conj(), Mk, X)  # row j: x_j^H M_k x_j, k = 0..n
    scale = np.linalg.norm(c) * np.linalg.norm(Z, axis=1)
    near = np.abs(lam[:, None] - lam) <= _CLUSTER_RADIUS * np.maximum(scale[:, None], scale)
    label, last = np.arange(len(lam)), None
    while last is None or (label != last).any():  # the least index in each component of ``near``
        label, last = np.where(near, label, len(lam)).min(axis=1), label
    zeros = []
    for i in np.flatnonzero(label == np.arange(len(lam))):
        g = np.flatnonzero(label == i)
        if len(g) == 1:
            zeros.append((Z[i], 1))
        else:  # the mean eigenvalue of each M_k on the span of the cluster's eigenvectors
            Q = np.linalg.qr(X[:, g])[0]
            zeros.append((np.einsum("ij,kil,lj->k", Q.conj(), Mk, Q) / len(g), len(g)))
    return zeros


def _refine_endpoints(system: _System, Z: np.ndarray) -> np.ndarray:
    """Newton's method on f from every row of Z, in place, all rows in one batch,
    for at most _ENDPOINT_ITERS steps.  A row stops after a step of at most
    _STEP_TOL max(1, |z|_inf), the rounding floor of a simple zero (where an
    eigenvalue zero already is), and where its Jacobian is singular or its next
    iterate is not finite.  Near a multiple zero Newton converges only
    linearly: such a row takes every step, unless f rounds to about zero on
    the way."""
    live = np.arange(len(Z))
    for _ in range(_ENDPOINT_ITERS):
        if not live.size:
            break
        f, J = system.rows(Z[live])
        dz, ok = _solve_rows(J, f)
        z_new = Z[live] - dz
        ok &= np.isfinite(z_new).all(axis=1)
        Z[live[ok]] = z_new[ok]
        small = np.abs(dz).max(axis=1) <= _STEP_TOL * np.maximum(1.0, np.abs(z_new).max(axis=1))
        live = live[ok & ~small]
    return Z


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


@functools.lru_cache(maxsize=None)
def _exponents(num_vars: int, degree: int) -> np.ndarray:
    """``monomials_of_degree`` as a read-only (count, num_vars) array, built once."""
    E = np.array(monomials_of_degree(num_vars, degree))
    E.flags.writeable = False
    return E


def _macaulay(forms: Sequence[HomogeneousPoly], D: int):
    """The Macaulay matrix of the forms in degree D: a row for each form times
    each monomial of degree D - d_i (the first form's rows first), the form
    scaled to a unit coefficient vector (a zero form gives zero rows), and a
    column for each monomial of degree D; and the lookup from exponent arrays
    (..., num_vars) to its columns."""
    nv = forms[0].num_vars
    base = (D + 1) ** np.arange(nv)
    keys = _exponents(nv, D) @ base
    order = np.argsort(keys)

    def index(E: np.ndarray) -> np.ndarray:
        return order[np.searchsorted(keys, E @ base, sorter=order)]

    blocks = []
    for f in forms:
        shifts = _exponents(nv, D - f.degree)
        block = np.zeros((len(shifts), len(keys)), dtype=complex)
        if f.terms:
            c = np.array([complex(v) for v in f.terms.values()])
            columns = index(shifts[:, None] + np.array(list(f.terms)))
            block[np.arange(len(shifts))[:, None], columns] = c / np.linalg.norm(c)
        blocks.append(block)
    return np.vstack(blocks), index


def _common_root(forms: Sequence[HomogeneousPoly]) -> bool:
    """Whether n forms in n variables have a common root on P^{n-1}, by the
    resultant test (Cox, Little and O'Shea, Using Algebraic Geometry, ch. 3):
    their Macaulay matrix in degree D = sum(d_i - 1) + 1, for two binary forms
    their Sylvester matrix, has full column rank iff they share no root; a
    smallest singular value at most _RANK_TOL of the largest is a root."""
    M = _macaulay(forms, 1 + sum(f.degree - 1 for f in forms))[0]
    sv = np.linalg.svd(M, compute_uv=False)
    return bool(sv.size) and bool(sv[-1] <= _RANK_TOL * sv[0])


def _point_text(point) -> str:
    """A point for messages, each coordinate rounded to 6 decimals."""
    return "(" + ", ".join(f"{c:g}" for c in np.round(np.asarray(point, dtype=complex), 6) + 0.0) + ")"


def _normalized_eval(form: HomogeneousPoly, points) -> np.ndarray:
    """|form(p)| / (||coeffs||_2 max(1, ||p||)^deg) at each of a batch of
    points, (N, num_vars) -> (N,), from one kernel call; scale-free residual."""
    P = np.asarray(points, dtype=complex).reshape(-1, form.num_vars)
    return np.abs(form.eval_batch(P)) / (form.coeff_norm() * np.maximum(1.0, np.linalg.norm(P, axis=1)) ** form.degree)
