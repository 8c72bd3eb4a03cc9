"""Pointwise graded multilinear algebra on fibers of Omega^{(i,j)}(L^k V (x) L^l V*).

An element is a complex linear combination of basis monomials

    dw_I ^ dwbar_J ^ e_K ^ e*_L          (I, J, K, L strictly increasing)

over slot indices 1..n, stored sparsely as a map from the index quadruple to
the coefficient.  A coefficient is a complex number, or a complex array over a
batch of points; arrays broadcast through every operation, so one call of
``wedge``, ``contract``, ``exp_S`` or ``top_pairing`` serves a whole batch.
All four generator families are odd; canonical order is
holomorphic forms, antiholomorphic forms, vector slots, covector slots, with
Koszul signs from stable reordering.  The dual pairing is normalized by
(e_K, e*_L) = delta_{K,L} on increasing tuples, with the form factors of the
two arguments wedged left-to-right.

The contraction operator is defined by the adjunction

    (u . theta, nu*) = (-1)^{(i+j)l + (p+q)#u + l(l-1)/2} (u, theta ^ nu*)

for u in Omega^{(i,j)}(L^k V), theta in Omega^{(p,q)}(L^l V*), k >= l, and all
nu* in L^{k-l} V*, where #u = i+j+k is the total degree of u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

import numpy as np

__all__ = [
    "SuperTensor",
    "SForm",
    "wedge",
    "dual_pair",
    "contract",
    "exp_S",
    "top_pairing",
    "DegreeError",
]

Idx = Tuple[int, ...]
Basis = Tuple[Idx, Idx, Idx, Idx]
Coef = Union[complex, np.ndarray]  # one point, or an (N,) batch of points


class DegreeError(ValueError):
    """Slot-degree precondition violated (dimension or grading mismatch)."""


def _shuffle(pairs: list[tuple[Idx, Idx]]):
    """Merge each (a, b) pair of strictly increasing slot tuples; returns the
    tuple of merged tuples and the product of the pairs' shuffle signs, or
    None when a pair shares an index.  A pair's sign is the parity of the
    shuffle that sorts a + b: each element of b passes the larger ones of a."""
    merged, sign = [], 1
    for a, b in pairs:
        if not set(a).isdisjoint(b):
            return None
        merged.append(tuple(sorted(a + b)))
        if sum(x > y for x in a for y in b) % 2:
            sign = -sign
    return tuple(merged), sign


def _coef(v) -> Coef:
    """A complex scalar, or a complex array when v is an array with an axis."""
    if isinstance(v, np.ndarray) and v.ndim:
        return v.astype(complex, copy=False)
    return complex(v)


def _is_zero(v: Coef) -> bool:
    """True when the coefficient vanishes at every point of the batch."""
    return v == 0 if isinstance(v, complex) else not v.any()


@dataclass
class SuperTensor:
    """Sparse fiber element; ``data`` maps (I, J, K, L) to a coefficient, a
    complex number or a complex array over a batch of points.  Slot keys are
    validated on construction; a coefficient is dropped only when it is zero
    at every point."""

    n: int
    data: Dict[Basis, Coef] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.data:
            self._check_key(key)
        coefs = ((k, _coef(v)) for k, v in self.data.items())
        self.data = {k: v for k, v in coefs if not _is_zero(v)}

    def _check_key(self, key: Basis):
        for tup in key:
            if any(not 1 <= t <= self.n for t in tup):
                raise DegreeError(f"slot index out of range in {key} (n={self.n})")
            if any(tup[i] >= tup[i + 1] for i in range(len(tup) - 1)):
                raise DegreeError(f"non-increasing slot tuple in {key}")

    @staticmethod
    def scalar(n: int, c: Coef) -> "SuperTensor":
        return SuperTensor(n, {((), (), (), ()): c})

    @staticmethod
    def monomial(n: int, I=(), J=(), K=(), L=(), c: Coef = 1.0) -> "SuperTensor":
        return SuperTensor(n, {(tuple(I), tuple(J), tuple(K), tuple(L)): c})

    def blocks(self):
        """Set of populated (i, j, k, l) block signatures."""
        return {tuple(len(t) for t in key) for key in self.data}

    def coeff(self, I=(), J=(), K=(), L=()) -> Coef:
        return self.data.get((tuple(I), tuple(J), tuple(K), tuple(L)), 0j)

    def add(self, other: "SuperTensor") -> "SuperTensor":
        if self.n != other.n:
            raise DegreeError("dimension mismatch")
        out = dict(self.data)
        for k, v in other.data.items():
            out[k] = out.get(k, 0j) + v
        return SuperTensor(self.n, out)

    def scale(self, c: Coef) -> "SuperTensor":
        return SuperTensor(self.n, {k: c * v for k, v in self.data.items()})

    def norm(self):
        """Euclidean norm of the coefficients; one norm per point for a batch."""
        return np.sqrt(sum(abs(v) ** 2 for v in self.data.values()))

    def __repr__(self):
        items = ", ".join(
            f"{k}: {v:.4g}" if isinstance(v, complex) else f"{k}: {np.array2string(v, precision=4)}"
            for k, v in sorted(self.data.items())
        )
        return f"SuperTensor(n={self.n}, {{{items}}})"


def wedge(a: SuperTensor, b: SuperTensor) -> SuperTensor:
    """Graded product; Koszul sign from reordering all four slot families."""
    if a.n != b.n:
        raise DegreeError("dimension mismatch")
    out: Dict[Basis, Coef] = {}
    for (Ia, Ja, Ka, La), ca in a.data.items():
        pa_tail_J = len(Ja) + len(Ka) + len(La)
        pa_tail_K = len(Ka) + len(La)
        pa_tail_L = len(La)
        for (Ib, Jb, Kb, Lb), cb in b.data.items():
            m = _shuffle([(Ia, Ib), (Ja, Jb), (Ka, Kb), (La, Lb)])
            if m is None:
                continue
            key, sign = m
            # cross sign: each slot family of b passes a's later families
            cross = len(Ib) * pa_tail_J + len(Jb) * pa_tail_K + len(Kb) * pa_tail_L
            out[key] = out.get(key, 0j) + sign * (-1) ** cross * ca * cb
    return SuperTensor(a.n, out)


def dual_pair(u: SuperTensor, t: SuperTensor) -> SuperTensor:
    """Pairing of L^k V against L^k V* values; form factors wedge in argument
    order.  Result is a scalar-valued form (K = L = () blocks only)."""
    if u.n != t.n:
        raise DegreeError("dimension mismatch")
    ku = {len(key[2]) for key in u.data}
    lt = {len(key[3]) for key in t.data}
    if u.data and t.data and ku != lt:
        raise DegreeError(f"V-degree {sorted(ku)} of u does not match V*-degree {sorted(lt)} of t")
    out: Dict[Basis, Coef] = {}
    for (Iu, Ju, Ku, Lu), cu in u.data.items():
        if Lu:
            raise DegreeError("first pairing argument must carry no V* slots")
        for (It, Jt, Kt, Lt), ct in t.data.items():
            if Kt:
                raise DegreeError("second pairing argument must carry no V slots")
            if Ku != Lt:
                continue
            m = _shuffle([(Iu, It), (Ju, Jt)])
            if m is None:
                continue
            (I, J), sign = m
            # (dw_Iu dwbar_Ju) ^ (dw_It dwbar_Jt): It passes Ju
            cross = len(It) * len(Ju)
            key = (I, J, (), ())
            out[key] = out.get(key, 0j) + sign * (-1) ** cross * cu * ct
    return SuperTensor(u.n, out)


def contract(u: SuperTensor, theta: SuperTensor) -> SuperTensor:
    """The adjoint contraction u . theta defined in the module docstring.

    u must be purely V-valued, theta purely V*-valued; any populated pair with
    V-degree strictly below the V*-degree violates the precondition.
    """
    if u.n != theta.n:
        raise DegreeError("dimension mismatch")
    for key in u.data:
        if key[3]:
            raise DegreeError("contract: u must carry no V* slots")
    for key in theta.data:
        if key[2]:
            raise DegreeError("contract: theta must carry no V slots")
    out: Dict[Basis, Coef] = {}
    for (Iu, Ju, Ku, _), cu in u.data.items():
        i, j, k = len(Iu), len(Ju), len(Ku)
        sharp_u = i + j + k
        for (It, Jt, _, Lt), ct in theta.data.items():
            p, q, l = len(It), len(Jt), len(Lt)
            if l > k:
                raise DegreeError(
                    f"contract: theta V*-degree {l} exceeds u V-degree {k}"
                )
            if not set(Lt) <= set(Ku):
                continue
            M = tuple(x for x in Ku if x not in Lt)
            # sigma1: theta ^ e*_M appends M to theta's L slots; sigma2: form
            # wedge of u's factors with theta's, where It passes Ju
            m = _shuffle([(Lt, M), (Iu, It), (Ju, Jt)])
            if m is None:
                continue
            (_, I, J), sign = m
            exp_adj = (i + j) * l + (p + q) * sharp_u + l * (l - 1) // 2
            key = (I, J, M, ())
            out[key] = out.get(key, 0j) + sign * (-1) ** (p * j + exp_adj) * cu * ct
    return SuperTensor(u.n, out)


@dataclass
class SForm:
    """The scaled superconnection datum: a (0,0) scalar plus a (0,1,0,1) block.

    ``one_form`` maps (b, p) -> coefficient of dwbar_b (x) e*_p.  Both parts
    are already divided by 2t by the geometry layer.  Over a batch of points
    every part is an (N,) array.
    """

    n: int
    scalar_part: Coef
    one_form: Dict[Tuple[int, int], Coef] = field(default_factory=dict)

    def one_form_tensor(self) -> SuperTensor:
        data = {((), (b,), (), (p,)): c for (b, p), c in self.one_form.items()}
        return SuperTensor(self.n, data)


def exp_S(S: SForm) -> SuperTensor:
    """exp(scalar) * sum_p (one_form)^p / p!; truncates at p = n because the
    (0,1) form factor is nilpotent beyond top antiholomorphic degree.  A
    batched S gives the batch of exponentials in one call."""
    S1 = S.one_form_tensor()
    term = SuperTensor.scalar(S.n, 1.0)
    acc = term
    for p in range(1, S.n + 1):
        term = wedge(term, S1).scale(1.0 / p)
        if not term.data:
            break
        acc = acc.add(term)
    return acc.scale(np.exp(S.scalar_part))


def top_pairing(psi: SuperTensor, E: SuperTensor) -> Coef:
    """The (n,n) scalar component of contract(psi, E), as the coefficient of
    dw_1..dw_n ^ dwbar_1..dwbar_n; an (N,) array for batched arguments
    (the scalar 0 when the component vanishes at every point).

    psi must populate exactly the (n,0,n,0) block (a K_M (x) det V fiber).
    """
    n = psi.n
    full = tuple(range(1, n + 1))
    for (I, J, K, L), _ in psi.data.items():
        if (I, J, K, L) != (full, (), full, ()):
            raise DegreeError("psi must be of pure block (n,0,n,0)")
    res = contract(psi, E)
    return res.coeff(I=full, J=full)
