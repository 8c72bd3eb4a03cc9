"""Local residues, the global vanishing sum, and Cayley-Bacharach checks.

The local invariant at a simple zero p of the section s is
H_chart(p) / det(ds_chart/dw)(p); the chart factors of the two
dehomogenizations cancel, so the value is chart independent (tested).  Summed
over all zeros of a degree-compatible numerator the invariants cancel exactly;
the ledger records the entries, the exact floating total in a fixed order, and
the relative vanishing |total| / sum |entries|.  Its denominators are the
solver's signed det J at each zero (``ZeroPoint.det_j``, from the batched
certification), so a ledger compiles the section once.

The Cayley-Bacharach verifier runs on both coefficient backends, each deciding
every held-out point from one factorization of the points' monomial rows, by
their left null space, where the residue functional 1 / J(p) lives: an SVD in
floating point, a fraction-free elimination over the Gaussian rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .polycore import (
    AffinePoly,
    GaussianRational,
    HomogeneousPoly,
    PolyKernel,
    _reduced,
    monomials_of_degree,
)
from .syszero import (
    _RANK_TOL,
    _certify,
    _normalized_eval,
    _point_text,
    _System,
    random_unitary,
    solve_square_system,
    zeros_at_infinity_check,
)

__all__ = [
    "ResidueError",
    "ResidueLedger",
    "local_residue",
    "global_residue_sum",
    "cb_vanishing_space",
    "cb_vanishing_space_exact",
    "cb_held_out",
    "cb_failures_exact",
    "cayley_bacharach_verify",
    "generalized_cb_check",
    "CBReport",
    "GeneralizedCBReport",
]


class ResidueError(RuntimeError):
    """Residue preconditions violated (singular zero, zeros at infinity, ...)."""


# a ledger point where _normalized_eval(f) is below this lies on the curve {f = 0}
_CURVE_TOL = 1e-6


@dataclass
class ResidueLedger:
    entries: List[Tuple[Tuple[complex, ...], complex]]
    total: complex
    relative_vanishing: float

    @staticmethod
    def from_entries(entries) -> "ResidueLedger":
        total = 0j
        scale = 0.0
        for _, v in entries:
            total += v
            scale += abs(v)
        rel = abs(total) / scale if scale > 0 else 0.0
        return ResidueLedger(list(entries), total, rel)


def local_residue(
    p: Sequence[complex],
    section_aff: Sequence[AffinePoly],
    psi_aff: AffinePoly,
) -> complex:
    """H(p) / det(ds/dw)(p) in a fixed chart; requires a simple zero, by the
    solver's own relative Jacobian test."""
    _, det, regular = (x[0] for x in _certify(_System(section_aff), np.array([p], dtype=complex)))
    if not regular:
        raise ResidueError(f"singular Jacobian at {p} (|det J| = {abs(det):.2e})")
    return complex(psi_aff.eval(list(p)) / det)


def global_residue_sum(
    section: Sequence[HomogeneousPoly],
    psi: HomogeneousPoly,
    seed: int = 0,
) -> ResidueLedger:
    """Ledger of local residues over all zeros of the square system s = 0 in chart 0.

    Preconditions: no zeros on the hyperplane z_0 = 0 and all zeros simple;
    violations raise :class:`ResidueError`, which names a multiple zero.
    """
    if not zeros_at_infinity_check(section):
        raise ResidueError("zeros at infinity: the affine chart misses part of the zero set")
    section_aff = [s.dehomogenize(0) for s in section]
    psi_aff = psi.dehomogenize(0)
    zs = solve_square_system(section_aff, seed=seed)
    if zs.defective:
        named = "; ".join(f"zero of multiplicity {m} at {_point_text(p)}" for p, m in zs.multiple)
        raise ResidueError(f"{zs.defective} defective (non-simple) zeros" + (f": {named}" if named else ""))
    if zs.missing_paths:
        raise ResidueError("zeros at infinity despite the infinity check")
    return ResidueLedger.from_entries([(zp.point, psi_aff.eval(list(zp.point)) / zp.det_j) for zp in zs.points])


# ------------------------------------------------------------------ CB


def _monomial_rows(points: Sequence[Sequence[complex]], degree: int) -> np.ndarray:
    """The degree-``degree`` monomials of P^2 at each point, scaled to unit norm."""
    P = np.array(points, dtype=complex)
    # one unit polynomial per monomial: the kernel's rows are its monomial table
    table = PolyKernel(3, [HomogeneousPoly(3, degree, {e: 1.0}) for e in monomials_of_degree(3, degree)])
    return table.eval_batch(P / np.linalg.norm(P, axis=1)[:, None]).T


def cb_vanishing_space(
    points: Sequence[Sequence[complex]],
    degree: int,
) -> List[HomogeneousPoly]:
    """Basis of degree-``degree`` forms on P^2 vanishing at all given points,
    the SVD null space of their monomial rows at a relative rank tolerance:
    the tests' reference for ``cb_held_out``, which no production path needs."""
    monos = monomials_of_degree(3, degree)
    _, sv, Vh = np.linalg.svd(_monomial_rows(points, degree))
    rank = int(np.sum(sv > _RANK_TOL * (sv[0] if len(sv) else 1.0)))
    basis = []
    for row in Vh[rank:]:
        # null vectors are columns of V = Vh^H, i.e. conjugated rows of Vh
        coeffs = {e: np.conj(c) for e, c in zip(monos, row) if abs(c) > 0}
        basis.append(HomogeneousPoly(3, degree, coeffs))
    return basis


def _integer_monomial_rows(
    points: Sequence[Sequence[GaussianRational]],
    degree: int,
) -> List[List[int]]:
    """The degree-``degree`` monomials of P^2 at each point, as re, im integer
    pairs, after scaling the point to Gaussian-integer coordinates by the lcm
    of its denominators: scaling a point scales its row, so no span changes."""
    monos = monomials_of_degree(3, degree)
    rows = []
    for p in points:
        scale = math.lcm(*(c._d for c in p))
        powers = []  # powers[k][j]: coordinate k to the j
        for c in p:
            a, b = c._a * (scale // c._d), c._b * (scale // c._d)
            pw = [(1, 0)]
            for _ in range(degree):
                r, i = pw[-1]
                pw.append((r * a - i * b, r * b + i * a))
            powers.append(pw)
        row = []
        for e0, e1, e2 in monos:
            (ar, ai), (br, bi), (cr, ci) = powers[0][e0], powers[1][e1], powers[2][e2]
            r, i = ar * br - ai * bi, ar * bi + ai * br
            row += (r * cr - i * ci, r * ci + i * cr)
        rows.append(row)
    return rows


def _fraction_free_rref(M: List[List[int]], ncols: int) -> List[int]:
    """Reduce the rows ``M`` of Gaussian integers (re_0, im_0, re_1, ...) in
    place to reduced row echelon form on their first ``ncols`` columns, fraction
    free; returns the pivot columns, whose rows come first.

    Bareiss's one-step Gauss-Jordan: with pivot p and previous pivot q, every
    other row x becomes (p x - a y) / q, y the pivot row and a the entry of x
    in the pivot column.  The division is exact: every entry is a minor of the
    input, so the integers grow polynomially, not by a factor p per step.  The
    update runs over the whole row, so columns past ``ncols`` record the row
    operations.
    """
    width = len(M[0]) if M else 0
    pivots = []
    qr, qi = 1, 0
    for c in range(ncols):
        r = len(pivots)
        if r == len(M):
            break
        pivot = next((rr for rr in range(r, len(M)) if M[rr][2 * c] or M[rr][2 * c + 1]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        y = M[r]
        pr, pi = y[2 * c], y[2 * c + 1]
        n = qr * qr + qi * qi
        for rr, x in enumerate(M):
            if rr == r:
                continue
            ar, ai = x[2 * c], x[2 * c + 1]
            new = []
            for k in range(0, width, 2):
                xr, xi, yr, yi = x[k], x[k + 1], y[k], y[k + 1]
                new.append(pr * xr - pi * xi - ar * yr + ai * yi)
                new.append(pr * xi + pi * xr - ar * yi - ai * yr)
            if qi:  # divided by q: times conj(q), then by |q|^2
                pairs = zip(new[::2], new[1::2])
                M[rr] = [v // n for sr, si in pairs for v in (sr * qr + si * qi, si * qr - sr * qi)]
            else:
                M[rr] = [v // qr for v in new]
        qr, qi = pr, pi
        pivots.append(c)
    return pivots


def cb_vanishing_space_exact(
    points: Sequence[Sequence[GaussianRational]],
    degree: int,
) -> List[HomogeneousPoly]:
    """Exact null space over the Gaussian rationals, by fraction-free
    Gauss-Jordan elimination (``_fraction_free_rref``) of the points' integer
    monomial rows.

    The null vector of a free column fc takes -row_r[fc] / row_r[pc] at each
    pivot column pc; the reduced row echelon form is unique, so this is its
    basis, term for term.
    """
    monos = monomials_of_degree(3, degree)
    M = _integer_monomial_rows(points, degree)
    pivots = _fraction_free_rref(M, len(monos))
    basis = []
    one = GaussianRational.of(1)
    for fc in range(len(monos)):
        if fc in pivots:
            continue
        terms = {monos[fc]: one}
        for row, pc in zip(M, pivots):
            # -x / p = -x conj(p) / |p|^2
            xr, xi, pr, pi = row[2 * fc], row[2 * fc + 1], row[2 * pc], row[2 * pc + 1]
            if xr or xi:
                terms[monos[pc]] = _reduced(-(xr * pr + xi * pi), xr * pi - xi * pr, pr * pr + pi * pi)
        basis.append(HomogeneousPoly(3, degree, {e: terms[e] for e in monos if e in terms}))
    return basis


def cb_held_out(
    points: Sequence[Sequence[complex]],
    degree: int,
) -> Tuple[List[float], List[int]]:
    """The float twin of ``cb_failures_exact``: at each point, the largest value
    of a unit degree-``degree`` form through the others and their dimension.
    The value is the distance of its row of R = U S V^H from the others' span,
    1 / ||S^-1 U^H e_i||; a zero of S (padded) counts where |U| > _RANK_TOL,
    past the roundoff a rotated frame leaves in U."""
    R = _monomial_rows(points, degree)
    U, sv, _ = np.linalg.svd(R)
    s = np.pad(sv, (0, len(R) - len(sv)))
    scaled = np.divide(np.abs(U), s, out=np.where(np.abs(U) > _RANK_TOL, np.inf, 0.0), where=s > 0)
    residuals = 1.0 / np.linalg.norm(scaled, axis=1)
    tol = _RANK_TOL * sv[0]
    nullity = R.shape[1] - int(np.sum(sv > tol))
    return residuals.tolist(), [nullity + int(r > tol) for r in residuals]


def cb_failures_exact(
    points: Sequence[Sequence[GaussianRational]],
    degree: int,
) -> Tuple[List[int], int]:
    """Cayley-Bacharach at every point at once, exactly: the indices of the
    points where some degree-``degree`` form through all the others does not
    vanish, and the dimension of the forms through all points but the first.

    Point i passes iff its monomial row lies in the span of the others, iff
    some left null vector y of the rows R has y_i != 0: one elimination of
    [R | I] finds them all, as its rows that vanish on R's columns.  Through
    the d e points of curves of degrees d, e, at degree d + e - 3, the residue
    theorem gives y_p = 1 / J(p), with no zero entry.
    """
    ncols, k = len(monomials_of_degree(3, degree)), len(points)
    M = [row + [0] * (2 * k) for row in _integer_monomial_rows(points, degree)]
    for i, row in enumerate(M):
        row[2 * (ncols + i)] = 1
    rank = len(_fraction_free_rref(M, ncols))
    null = M[rank:]
    failed = [i for i in range(k) if not any(row[2 * (ncols + i)] or row[2 * (ncols + i) + 1] for row in null)]
    return failed, ncols - rank + (0 in failed)


@dataclass
class CBReport:
    degree_pair: Tuple[int, int]
    num_points: int
    space_dimension: int
    held_out_residuals: List[float]  # per point: the largest value of a unit form through the others
    max_residual: float  # the largest of them
    vacuous: bool


def cayley_bacharach_verify(
    f: HomogeneousPoly,
    g: HomogeneousPoly,
    seed: int = 0,
) -> CBReport:
    """For each intersection point of {f=0} and {g=0}, the largest value there
    of a unit form of degree d+e-3 through the other de-1 (``cb_held_out``)."""
    d, e = f.degree, g.degree
    if d + e < 3:
        raise ResidueError("degree pair too small: d + e >= 3 required")
    Q, cur_f, cur_g = np.eye(3), f, g
    if not zeros_at_infinity_check([f, g]):
        # one random rotation moves a finite intersection off the line z_0 = 0;
        # a shared component meets every line
        Q = random_unitary(np.random.default_rng(np.random.Philox(seed + 31)), 3)
        cur_f, cur_g = f.substitute_linear(Q), g.substitute_linear(Q)
        if not zeros_at_infinity_check([cur_f, cur_g]):
            raise ResidueError("the curves share a component: their intersection is not finite")

    zs = solve_square_system([h.dehomogenize(0) for h in (cur_f, cur_g)], seed=seed)
    if zs.defective or zs.missing_paths or len(zs.points) != d * e:
        named = []
        for p, m in zs.multiple:  # in the section's own frame
            z = Q @ np.concatenate(([1.0 + 0j], p))
            named.append(f"zero of multiplicity {m} at {_point_text(z / z[np.argmax(np.abs(z))])}")
        raise ResidueError(
            f"non-transversal intersection: {len(zs.points)} of {d * e} points found"
            + (": " + "; ".join(named) if named else "")
        )
    pts = [np.concatenate(([1.0 + 0j], np.array(zp.point))) for zp in zs.points]
    residuals, dims = cb_held_out(pts, d + e - 3)
    return CBReport(
        degree_pair=(d, e),
        num_points=len(pts),
        space_dimension=dims[0],
        held_out_residuals=residuals,
        max_residual=max(residuals),
        vacuous=not any(dims),
    )


# ----------------------------------------------------- generalized CB


@dataclass
class GeneralizedCBReport:
    curve_points: int
    isolated_points: int
    curve_entry_max: float
    isolated_relative_vanishing: float
    forcing_residuals: List[float]  # per isolated point: the largest value of a unit phi through the others
    hypotheses: str  # "assumed" for the mixed-family run
    ledger: ResidueLedger = field(repr=False, default=None)


def generalized_cb_check(
    curve_factor: HomogeneousPoly,
    cofactor: HomogeneousPoly,
    second: HomogeneousPoly,
    psi_cofactor: Optional[HomogeneousPoly] = None,
    seed: int = 0,
) -> GeneralizedCBReport:
    """Mixed-family check with s = (f u, g), psi = f phi.

    Residues supported on the curve {f = 0} are suppressed identically because
    the numerator is divisible by f, so the ledger restricted to the isolated
    points {u = g = 0} must cancel on its own, and phi = 0 at all isolated
    points but one forces phi = 0 at that one, for each (``cb_held_out``).
    The curve component's splitting hypotheses are assumed, not certified,
    as the report's ``hypotheses`` says.
    """
    f, u, g = curve_factor, cofactor, second
    s1 = f * u
    D = s1.degree + g.degree - 3
    phi_degree = D - f.degree
    if phi_degree < 0:
        raise ResidueError("no room for a numerator cofactor at these degrees")
    if psi_cofactor is None:
        rng = np.random.default_rng(np.random.Philox(seed + 5))
        terms = {
            e: complex(rng.standard_normal(), rng.standard_normal())
            for e in monomials_of_degree(3, phi_degree)
        }
        psi_cofactor = HomogeneousPoly(3, phi_degree, terms)
    elif psi_cofactor.degree != phi_degree:
        raise ResidueError(f"psi cofactor must have degree {phi_degree}")
    psi = f * psi_cofactor

    ledger = global_residue_sum([s1, g], psi, seed=seed)
    curve_entries, isolated_entries = [], []
    for point, val in ledger.entries:
        if _normalized_eval(f, (1, *point)) < _CURVE_TOL:
            curve_entries.append((point, val))
        else:
            isolated_entries.append((point, val))
    iso = ResidueLedger.from_entries(isolated_entries)
    curve_max = max((abs(v) for _, v in curve_entries), default=0.0)

    forcing = []
    iso_points = [np.concatenate(([1.0 + 0j], np.array(p))) for p, _ in isolated_entries]
    if len(iso_points) >= 2 and phi_degree >= 1:
        forcing = cb_held_out(iso_points, phi_degree)[0]
    return GeneralizedCBReport(
        curve_points=len(curve_entries),
        isolated_points=len(isolated_entries),
        curve_entry_max=curve_max,
        isolated_relative_vanishing=iso.relative_vanishing,
        forcing_residuals=forcing,
        hypotheses="assumed",
        ledger=ledger,
    )
