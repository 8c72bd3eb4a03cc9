"""Closed algebra of smooth chart functions used by the geometry layer.

Every metric entry, pairing component and integrand coefficient that appears
on an affine chart of P^n is a finite sum of terms

    c * A(w) * conj(B(w)) * (1 + |w|^2)^p

with A, B polynomials and p an integer.  This family is closed under sums,
products, conjugation and d/dwbar_a (the weight derivative produces an extra
plain coordinate factor, which folds into A), and d/dw_a is the conjugate of
d/dwbar_a of the conjugate, so all derivatives needed for the superconnection
one-form and the Chern curvature are exact -- no numerical differentiation in
the production path.

For evaluation, functions that are needed at the same points compile into
one :class:`ChartGroup`: a single :class:`~residue_lab.polycore.PolyKernel`
over the polynomial factors of all of them, so a block of points costs one
monomial table and one matrix product however many functions and terms there
are, and each distinct weight power is taken once per block.  Every function
keeps its own term grouping and summation order, so a function evaluates to
the same bits alone or inside any group; :meth:`ChartFunction.eval_batch` is
a group of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .polycore import AffinePoly, PolyKernel, row_blocks

__all__ = ["ChartFunction", "ChartGroup"]


@dataclass(frozen=True)
class _Term:
    coef: complex
    hol: AffinePoly  # A(w)
    anti: AffinePoly  # B(w), entering conjugated
    weight: int  # power of (1 + |w|^2)


class ChartFunction:
    """Finite sum of weighted mixed-polynomial terms on one affine chart."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: List[_Term]):
        self.num_vars = num_vars
        self.terms = [t for t in terms if t.coef and not t.hol.is_zero() and not t.anti.is_zero()]

    # ------------------------------------------------------------ builders

    @staticmethod
    def zero(num_vars: int) -> "ChartFunction":
        return ChartFunction(num_vars, [])

    @staticmethod
    def from_parts(
        num_vars: int,
        hol: AffinePoly = None,
        anti: AffinePoly = None,
        weight: int = 0,
        coef: complex = 1.0,
    ) -> "ChartFunction":
        one = AffinePoly.constant(num_vars, 1.0 + 0j)
        return ChartFunction(
            num_vars, [_Term(complex(coef), hol or one, anti or one, weight)]
        )

    # ------------------------------------------------------------ algebra

    def __add__(self, other: "ChartFunction") -> "ChartFunction":
        return ChartFunction(self.num_vars, self.terms + other.terms)

    def __sub__(self, other: "ChartFunction") -> "ChartFunction":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "ChartFunction":
        return ChartFunction(
            self.num_vars, [_Term(c * t.coef, t.hol, t.anti, t.weight) for t in self.terms]
        )

    def __mul__(self, other: "ChartFunction") -> "ChartFunction":
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append(
                    _Term(
                        t1.coef * t2.coef,
                        t1.hol * t2.hol,
                        t1.anti * t2.anti,
                        t1.weight + t2.weight,
                    )
                )
        return ChartFunction(self.num_vars, out)

    def mul_hol(self, poly: AffinePoly) -> "ChartFunction":
        """Multiply by a holomorphic polynomial factor."""
        return ChartFunction(
            self.num_vars,
            [_Term(t.coef, t.hol * poly, t.anti, t.weight) for t in self.terms],
        )

    def mul_anti(self, poly: AffinePoly) -> "ChartFunction":
        """Multiply by conj(poly(w))."""
        return ChartFunction(
            self.num_vars,
            [_Term(t.coef, t.hol, t.anti * poly, t.weight) for t in self.terms],
        )

    def conjugate(self) -> "ChartFunction":
        return ChartFunction(
            self.num_vars,
            [_Term(t.coef.conjugate(), t.anti, t.hol, t.weight) for t in self.terms],
        )

    # ------------------------------------------------------------ calculus

    def d(self, a: int) -> "ChartFunction":
        """d/dw_a = conj(d/dwbar_a conj): the rule lives in :meth:`dbar`."""
        return self.conjugate().dbar(a).conjugate()

    def dbar(self, a: int) -> "ChartFunction":
        """d/dwbar_a.  Hits B and the weight; the weight derivative contributes
        p (1+|w|^2)^{p-1} w_a, folded into the hol factor."""
        out = []
        for t in self.terms:
            out.append(_Term(t.coef, t.hol, t.anti.partial(a), t.weight))  # dropped when zero
            if t.weight:
                wa = AffinePoly.coordinate(self.num_vars, a)
                out.append(_Term(t.coef * t.weight, t.hol * wa, t.anti, t.weight - 1))
        return ChartFunction(self.num_vars, out)

    # ------------------------------------------------------------ evaluation

    def _sums(self):
        """Sum coef * hol over the terms that share (weight, anti), so equal
        terms merge and cancelling ones drop out: [(weight, [(anti, hol sum),
        ...]), ...] in first-seen order, zero sums dropped."""
        by_weight: dict = {}  # weight -> {anti: sum of coef * hol}
        for t in self.terms:
            sums = by_weight.setdefault(t.weight, {})
            part = t.hol.scale(t.coef)
            sums[t.anti] = sums[t.anti] + part if t.anti in sums else part
        grouped = []
        for w, sums in by_weight.items():
            pairs = [(anti, hol) for anti, hol in sums.items() if not hol.is_zero()]
            if pairs:
                grouped.append((w, pairs))
        return grouped

    def eval_batch(self, W: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of chart points, (N, num_vars) -> (N,): a group of one, compiled on each call."""
        return ChartGroup(self.num_vars, [self]).eval_batch(W)[0]

    def __repr__(self):
        return f"ChartFunction({self.num_vars} vars, {len(self.terms)} terms)"


class ChartGroup:
    """Chart functions compiled for evaluation at the same points.

    The kernel's rows are the hol sums of every function (see
    ``ChartFunction._sums``) followed by the distinct anti factors of the
    whole group.  ``layout`` holds, per function, the kernel rows of its hol
    sums, the kernel row of each sum's anti factor and (weight, slice of its
    sums) pairs.  Each row block conjugates the anti rows, the kernel's last
    rows, once in place for every function; a one-row slice is its row.
    """

    __slots__ = ("num_vars", "size", "kernel", "antis", "layout")

    def __init__(self, num_vars: int, functions: List[ChartFunction]):
        self.num_vars = num_vars
        self.size = len(functions)
        hols, antis, parts = [], [], []
        for f in functions:
            start, slices = len(hols), []
            for w, pairs in f._sums():
                first = len(hols) - start
                for anti, hol in pairs:
                    hols.append(hol)
                    antis.append(anti)
                slices.append((w, slice(first, len(hols) - start)))
            parts.append((slice(start, len(hols)), slices))
        distinct = {a: len(hols) + k for k, a in enumerate(dict.fromkeys(antis))}
        self.kernel = PolyKernel(num_vars, hols + list(distinct))
        self.antis = slice(len(hols), None)
        anti_row = np.array([distinct[a] for a in antis], dtype=np.int64)
        self.layout = [
            (index, rows, anti_row[rows], slices)
            for index, (rows, slices) in enumerate(parts)
            if slices
        ]

    def eval_batch(self, W: np.ndarray) -> np.ndarray:
        """Every function at a batch of chart points, (N, num_vars) -> (size, N)."""
        W = np.asarray(W, dtype=np.complex128)
        out = np.zeros((self.size, W.shape[0]), dtype=np.complex128)
        if not self.layout:
            return out
        for rows in row_blocks(W.shape[0]):
            Wb = W[rows]
            V = self.kernel.eval_batch(Wb)
            # 1 + |w|^2; the row sum as a product with ones is far faster than
            # a reduction over the short axis
            weight_base = 1.0 + (Wb.real**2 + Wb.imag**2) @ np.ones(self.num_vars)
            np.conjugate(V[self.antis], out=V[self.antis])  # once for every function
            powers = {}
            for index, hol_rows, anti_rows, slices in self.layout:
                prod = V[anti_rows]
                prod *= V[hol_rows]
                for w, group in slices:
                    part = prod[group].sum(axis=0) if group.stop - group.start > 1 else prod[group.start]
                    if w:
                        if w not in powers:
                            powers[w] = weight_base ** float(w)
                        part = part * powers[w]
                    out[index, rows] += part
        return out
