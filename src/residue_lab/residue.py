"""Local residues, the global vanishing sum, and Cayley-Bacharach checks.

The local invariant at a simple zero p of the section s is
H_chart(p) / det(ds_chart/dw)(p); the chart factors of the two
dehomogenizations cancel, so the value is chart independent (tested).  Summed
over all zeros of a degree-compatible numerator the invariants cancel exactly;
the ledger records the entries, the exact floating total in a fixed order, and
the relative vanishing |total| / sum |entries|.

The Cayley-Bacharach verifier runs on both coefficient backends: floating
point (SVD null spaces, homotopy intersections) and exact Gaussian rationals
(fraction-free elimination on split-line instances where the intersection
points are rational).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .polycore import (
    AffinePoly,
    GaussianRational,
    HomogeneousPoly,
    monomials_of_degree,
)
from .syszero import jacobian_det, solve_square_system, zeros_at_infinity_check

__all__ = [
    "ResidueError",
    "ResidueLedger",
    "local_residue",
    "global_residue_sum",
    "cb_vanishing_space",
    "cb_vanishing_space_exact",
    "exact_monomial_rows",
    "cayley_bacharach_verify",
    "generalized_cb_check",
    "CBReport",
    "GeneralizedCBReport",
]


class ResidueError(RuntimeError):
    """Residue preconditions violated (singular zero, zeros at infinity, ...)."""


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


def psi_chart_rep(psi: HomogeneousPoly, chart: int) -> AffinePoly:
    """Chart representative of the top-form coefficient, including the
    (-1)^chart orientation of the coordinate Jacobian."""
    return psi.dehomogenize(chart).scale((-1.0) ** chart)


def local_residue(
    p: Sequence[complex],
    section_aff: Sequence[AffinePoly],
    psi_aff: AffinePoly,
    det_threshold: float = 1e-10,
) -> complex:
    """H(p) / det(ds/dw)(p) in a fixed chart; requires a certified simple zero."""
    det = jacobian_det(section_aff, p)
    if abs(det) < det_threshold:
        raise ResidueError(f"singular Jacobian at {p} (|det J| = {abs(det):.2e})")
    return complex(psi_aff.eval(list(p)) / det)


def global_residue_sum(
    section: Sequence[HomogeneousPoly],
    psi: HomogeneousPoly,
    seed: int = 0,
    chart: int = 0,
) -> ResidueLedger:
    """Ledger of local residues over all zeros of the square system s = 0.

    Preconditions: no zeros at infinity of the chosen chart and all zeros
    simple; violations raise :class:`ResidueError`.
    """
    if not zeros_at_infinity_check(section, seed=seed):
        raise ResidueError("zeros at infinity: the affine chart misses part of the zero set")
    section_aff = [s.dehomogenize(chart) for s in section]
    psi_aff = psi.dehomogenize(chart)
    zs = solve_square_system(section_aff, seed=seed)
    if zs.defective:
        raise ResidueError(f"{zs.defective} defective (non-simple) zeros")
    if len(zs.points) + zs.missing_paths != zs.bezout_count:
        raise ResidueError("path accounting does not reconcile with the Bezout count")
    if zs.missing_paths:
        raise ResidueError("paths escaped to infinity despite the infinity check")
    entries = []
    for zp in zs.points:
        val = local_residue(zp.point, section_aff, psi_aff)
        entries.append((zp.point, val))
    return ResidueLedger.from_entries(entries)


# ------------------------------------------------------------------ CB


def _normalize_rows(points: Sequence[Sequence[complex]]) -> np.ndarray:
    P = np.array(points, dtype=complex)
    return P / np.linalg.norm(P, axis=1)[:, None]


def cb_vanishing_space(
    points: Sequence[Sequence[complex]],
    degree: int,
    rank_tol: float = 1e-10,
) -> List[HomogeneousPoly]:
    """Basis of degree-``degree`` forms on P^2 vanishing at all given points.

    Null space of the (points x monomials) evaluation matrix by SVD with a
    relative rank tolerance.
    """
    monos = monomials_of_degree(3, degree)
    P = _normalize_rows(points)
    M = np.array([[np.prod(p**np.array(e)) for e in monos] for p in P], dtype=complex)
    _, sv, Vh = np.linalg.svd(M)
    rank = int(np.sum(sv > rank_tol * (sv[0] if len(sv) else 1.0)))
    basis = []
    for row in Vh[rank:]:
        # null vectors are columns of V = Vh^H, i.e. conjugated rows of Vh
        coeffs = {e: np.conj(c) for e, c in zip(monos, row) if abs(c) > 0}
        basis.append(HomogeneousPoly(3, degree, coeffs))
    return basis


def exact_monomial_rows(
    points: Sequence[Sequence[GaussianRational]],
    degree: int,
) -> List[List[GaussianRational]]:
    """The degree-``degree`` monomials of P^2 at each point, exactly."""
    monos = monomials_of_degree(3, degree)
    rows = []
    for p in points:
        row = []
        for e in monos:
            v = GaussianRational.of(1)
            for coord, k in zip(p, e):
                for _ in range(k):
                    v = v * coord
            row.append(v)
        rows.append(row)
    return rows


def cb_vanishing_space_exact(
    points: Sequence[Sequence[GaussianRational]],
    degree: int,
    rows: Optional[Sequence[Sequence[GaussianRational]]] = None,
) -> List[HomogeneousPoly]:
    """Exact null space over the Gaussian rationals (Gauss-Jordan elimination).

    ``rows`` are the points' monomial rows (``exact_monomial_rows``) when the
    caller has them already.
    """
    monos = monomials_of_degree(3, degree)
    rows = list(exact_monomial_rows(points, degree) if rows is None else rows)
    ncols = len(monos)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, len(rows)):
            if rows[rr][c]:
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c]:
                fac = rows[rr][c]
                rows[rr] = [x - fac * y if y else x for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero = GaussianRational.of(0)
    one = GaussianRational.of(1)
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for rr, pc in enumerate(pivots):
            vec[pc] = -rows[rr][fc]
        terms = {monos[c]: vec[c] for c in range(ncols) if vec[c]}
        basis.append(HomogeneousPoly(3, degree, terms))
    return basis


@dataclass
class CBReport:
    degree_pair: Tuple[int, int]
    num_points: int
    space_dimension: int
    held_out_residuals: List[float]
    max_residual: float
    vacuous: bool


def _normalized_eval(form: HomogeneousPoly, point: np.ndarray) -> float:
    """|form(p)| / (||coeffs||_2 max(1, ||p||)^deg); scale-free residual."""
    p = np.asarray(point, dtype=complex)
    val = abs(complex(form.eval(list(p))))
    return val / (form.coeff_norm() * max(1.0, float(np.linalg.norm(p))) ** form.degree)


def cayley_bacharach_verify(
    f: HomogeneousPoly,
    g: HomogeneousPoly,
    seed: int = 0,
    max_coordinate_retries: int = 4,
) -> CBReport:
    """For each intersection point of {f=0} and {g=0}: forms of degree
    d+e-3 through the other de-1 points, evaluated (normalized) at the
    held-out point."""
    d, e = f.degree, g.degree
    if d + e < 3:
        raise ResidueError("degree pair too small: d + e >= 3 required")
    rng = np.random.default_rng(np.random.Philox(seed + 31))
    cur_f, cur_g = f, g
    for _attempt in range(max_coordinate_retries):
        if zeros_at_infinity_check([cur_f, cur_g], seed=seed):
            break
        # move the configuration into the affine chart by a random rotation
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Q, _ = np.linalg.qr(A)
        cur_f, cur_g = f.substitute_linear(Q), g.substitute_linear(Q)
    else:
        raise ResidueError("could not move all intersection points into the chart")

    zs = solve_square_system([cur_f.dehomogenize(0), cur_g.dehomogenize(0)], seed=seed)
    if zs.defective or zs.missing_paths or len(zs.points) != d * e:
        raise ResidueError(
            f"non-transversal intersection: {len(zs.points)} of {d * e} points found"
        )
    pts = [np.concatenate(([1.0 + 0j], np.array(zp.point))) for zp in zs.points]
    m = d + e - 3
    residuals = []
    dims = []
    for hold in range(len(pts)):
        others = [pts[i] for i in range(len(pts)) if i != hold]
        basis = cb_vanishing_space(others, m)
        dims.append(len(basis))
        worst = 0.0
        for form in basis:
            worst = max(worst, _normalized_eval(form, pts[hold]))
        residuals.append(worst)
    dim = dims[0] if dims else 0
    return CBReport(
        degree_pair=(d, e),
        num_points=len(pts),
        space_dimension=dim,
        held_out_residuals=residuals,
        max_residual=max(residuals) if residuals else 0.0,
        vacuous=all(x == 0 for x in dims),
    )


# ----------------------------------------------------- generalized CB


@dataclass
class GeneralizedCBReport:
    curve_points: int
    isolated_points: int
    curve_entry_max: float
    isolated_relative_vanishing: float
    forcing_residuals: List[float]
    hypotheses: str  # "assumed" for the mixed-family run
    ledger: ResidueLedger = field(repr=False, default=None)


def generalized_cb_check(
    curve_factor: HomogeneousPoly,
    cofactor: HomogeneousPoly,
    second: HomogeneousPoly,
    psi_cofactor: Optional[HomogeneousPoly] = None,
    seed: int = 0,
    curve_tol: float = 1e-6,
) -> GeneralizedCBReport:
    """Mixed-family check with s = (f u, g), psi = f phi.

    Residues supported on the curve {f = 0} are suppressed identically because
    the numerator is divisible by f, so the ledger restricted to the isolated
    points {u = g = 0} must cancel on its own; imposing phi = 0 at all but one
    isolated point then forces the value at the last one.  The splitting
    hypotheses of the curve component are assumed, not certified, and the
    report is labeled accordingly.
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
    f_aff = f.dehomogenize(0)
    curve_entries, isolated_entries = [], []
    for point, val in ledger.entries:
        if abs(f_aff.eval(list(point))) < curve_tol:
            curve_entries.append((point, val))
        else:
            isolated_entries.append((point, val))
    iso = ResidueLedger.from_entries(isolated_entries)
    curve_max = max((abs(v) for _, v in curve_entries), default=0.0)

    # forcing demonstration: phi' vanishing at all but the last isolated point
    forcing = []
    iso_points = [np.concatenate(([1.0 + 0j], np.array(p))) for p, _ in isolated_entries]
    if len(iso_points) >= 2 and phi_degree >= 1:
        hold = len(iso_points) - 1
        others = [iso_points[i] for i in range(len(iso_points)) if i != hold]
        basis = cb_vanishing_space(others, phi_degree)
        for phi_b in basis:
            forcing.append(_normalized_eval(phi_b, iso_points[hold]))
    return GeneralizedCBReport(
        curve_points=len(curve_entries),
        isolated_points=len(isolated_entries),
        curve_entry_max=curve_max,
        isolated_relative_vanishing=iso.relative_vanishing,
        forcing_residuals=forcing,
        hypotheses="assumed",
        ledger=ledger,
    )
