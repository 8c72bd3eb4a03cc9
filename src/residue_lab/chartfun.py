"""Closed algebra of smooth chart functions used by the geometry layer.

Every metric entry, pairing component and integrand coefficient that appears
on an affine chart of P^n is a finite sum of terms

    c * A(w) * conj(B(w)) * (1 + |w|^2)^p

with A, B polynomials and p an integer.  This family is closed under sums,
products, d/dw_a and d/dwbar_a (the weight derivative produces an extra
conjugated or plain coordinate factor, which folds into B or A), so all
derivatives needed for the superconnection one-form and the Chern curvature
are exact -- no numerical differentiation in the production path.

For evaluation a function compiles itself once (see :meth:`ChartFunction.eval_batch`)
into one :class:`~residue_lab.polycore.PolyKernel` over all of its polynomial
factors, so a batch costs one monomial table, one matrix product and a
weighted sum however many terms there are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .polycore import AffinePoly, PolyKernel, row_blocks

__all__ = ["ChartFunction"]


@dataclass(frozen=True)
class _Term:
    coef: complex
    hol: AffinePoly  # A(w)
    anti: AffinePoly  # B(w), entering conjugated
    weight: int  # power of (1 + |w|^2)


class ChartFunction:
    """Finite sum of weighted mixed-polynomial terms on one affine chart."""

    __slots__ = ("num_vars", "terms", "_compiled")

    def __init__(self, num_vars: int, terms: List[_Term]):
        self.num_vars = num_vars
        self.terms = [t for t in terms if t.coef and not t.hol.is_zero() and not t.anti.is_zero()]
        self._compiled = None

    # ------------------------------------------------------------ builders

    @staticmethod
    def zero(num_vars: int) -> "ChartFunction":
        return ChartFunction(num_vars, [])

    @staticmethod
    def constant(num_vars: int, c: complex) -> "ChartFunction":
        one = AffinePoly.constant(num_vars, 1.0 + 0j)
        return ChartFunction(num_vars, [_Term(complex(c), one, one, 0)])

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
        """d/dw_a.  Hits A and the weight; the weight derivative contributes
        p (1+|w|^2)^{p-1} conj(w_a), folded into the anti factor."""
        out = []
        for t in self.terms:
            da = t.hol.partial(a)
            if not da.is_zero():
                out.append(_Term(t.coef, da, t.anti, t.weight))
            if t.weight:
                wa = AffinePoly.coordinate(self.num_vars, a)
                out.append(_Term(t.coef * t.weight, t.hol, t.anti * wa, t.weight - 1))
        return ChartFunction(self.num_vars, out)

    def dbar(self, a: int) -> "ChartFunction":
        """d/dwbar_a; mirror image of :meth:`d`."""
        out = []
        for t in self.terms:
            db = t.anti.partial(a)
            if not db.is_zero():
                out.append(_Term(t.coef, t.hol, db, t.weight))
            if t.weight:
                wa = AffinePoly.coordinate(self.num_vars, a)
                out.append(_Term(t.coef * t.weight, t.hol * wa, t.anti, t.weight - 1))
        return ChartFunction(self.num_vars, out)

    # ------------------------------------------------------------ evaluation

    def eval(self, w) -> complex:
        w = np.asarray(w, dtype=np.complex128)
        return complex(self.eval_batch(w.reshape(1, -1))[0])

    def _compile(self):
        """Sum coef * hol over the terms that share (weight, anti), so equal
        terms merge and cancelling ones drop out.

        Returns the kernel over [the sums..., the distinct anti factors...],
        the kernel row of each sum's anti factor, and (weight, slice of the
        sums) pairs.  Compiling is deterministic, so threads that race on
        the first call store equal results."""
        if self._compiled is None:
            by_weight: dict = {}  # weight -> {anti: sum of coef * hol}
            for t in self.terms:
                sums = by_weight.setdefault(t.weight, {})
                part = t.hol.scale(t.coef)
                sums[t.anti] = sums[t.anti] + part if t.anti in sums else part
            hols, antis, slices = [], [], []
            for w, sums in by_weight.items():
                start = len(hols)
                for anti, hol in sums.items():
                    if not hol.is_zero():
                        hols.append(hol)
                        antis.append(anti)
                if len(hols) > start:
                    slices.append((w, slice(start, len(hols))))
            distinct = list(dict.fromkeys(antis))
            kernel = PolyKernel(self.num_vars, hols + distinct)
            anti_row = np.array([len(hols) + distinct.index(a) for a in antis], dtype=np.int64)
            self._compiled = (kernel, anti_row, slices)
        return self._compiled

    def eval_batch(self, W: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of chart points, shape (N, num_vars) -> (N,)."""
        W = np.asarray(W, dtype=np.complex128)
        out = np.zeros(W.shape[0], dtype=np.complex128)
        kernel, anti_row, slices = self._compile()
        if not slices:
            return out
        for rows in row_blocks(W.shape[0]):
            Wb = W[rows]
            V = kernel.eval_batch(Wb)
            prod = np.conjugate(V[anti_row])
            prod *= V[: len(anti_row)]
            # 1 + |w|^2; the row sum as a product with ones is far faster than
            # a reduction over the short axis
            weight_base = 1.0 + (Wb.real**2 + Wb.imag**2) @ np.ones(self.num_vars)
            for w, group in slices:
                part = prod[group].sum(axis=0)
                out[rows] += part * weight_base ** float(w) if w else part
        return out

    def __repr__(self):
        return f"ChartFunction({self.num_vars} vars, {len(self.terms)} terms)"
