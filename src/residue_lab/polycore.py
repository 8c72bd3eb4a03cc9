"""Homogeneous multivariate polynomial arithmetic with two coefficient backends.

Coefficients are either double-precision ``complex`` (the default backend for
all analytic work) or :class:`GaussianRational` (exact Gaussian rationals, used
by the exact Cayley-Bacharach path where the statement is an algebraic
identity).  Polynomials are stored as dense exponent maps: a dict from the
exponent multi-index (one entry per variable) to a nonzero coefficient.  The
zero polynomial is the empty map.

Two carrier types:

* :class:`HomogeneousPoly` -- n+1 homogeneous variables ``z0..zn``; every
  stored multi-index sums exactly to ``degree``.
* :class:`AffinePoly` -- n chart variables, no degree constraint; produced by
  :meth:`HomogeneousPoly.dehomogenize` and consumed by the numeric layers.

Batched evaluation of affine polynomials, alone or as a set that shares one
monomial table, goes through :class:`PolyKernel`; the scalar ``eval`` is the
tests' reference, with no production caller but ``residue.local_residue``.

The input grammar (see :func:`parse_poly`): variables ``z0``..``z9``, operators
``+ - * ^``, parentheses, complex literals ``a``, ``bi``, ``a+bi`` with decimal
or rational (``p/q``) components, whitespace insignificant.  One recursive
descent reads it and raises every error with its position; a term of a flat
sum, ``[coefficient *] z_k[^n] * ...``, takes one regex match.
"""

from __future__ import annotations

import cmath
import math
import re
import threading
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "PolyError",
    "ParseError",
    "InhomogeneousError",
    "GaussianRational",
    "HomogeneousPoly",
    "AffinePoly",
    "PolyKernel",
    "parse_poly",
    "monomials_of_degree",
]


class PolyError(ValueError):
    """Base class for polynomial construction/parsing failures."""


class ParseError(PolyError):
    """Syntax error; carries the 0-based position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InhomogeneousError(PolyError):
    """Monomials of differing total degree in a homogeneous context."""


class GaussianRational:
    """Exact complex number a + b*i with rational a, b.

    Stored as one integer triple (a + b i) / d in lowest terms: d > 0 and
    gcd(a, b, d) = 1, so equal numbers have equal triples and zero is (0, 0, 1).
    Each result takes one ``math.gcd`` of its three integers; ``re`` and ``im``
    are read-only ``Fraction`` views."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re, im=0):
        re, im = Fraction(re), Fraction(im)
        d = math.lcm(re.denominator, im.denominator)  # lowest terms already
        self._a, self._b, self._d = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        o = _as_gauss(other)
        return _reduced(self._a * o._d + o._a * self._d, self._b * o._d + o._b * self._d, self._d * o._d)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def __sub__(self, other):
        return self + (-_as_gauss(other))

    def __rsub__(self, other):
        return _as_gauss(other) + (-self)

    def __mul__(self, other):
        o = _as_gauss(other)
        a, b, c, e = self._a, self._b, o._a, o._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # x / y = x conj(y) d_y / (d_x |y d_y|^2)
        o = _as_gauss(other)
        a, b, c, e = self._a, self._b, o._a, o._b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _reduced((a * c + b * e) * o._d, (b * c - a * e) * o._d, self._d * n)

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._a, -self._b, self._d)

    def __eq__(self, other):
        try:
            o = _as_gauss(other)  # an int or a Fraction compares as the real number it is
        except TypeError:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    to_complex = __complex__

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im >= 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for d > 0, in lowest terms."""
    g = math.gcd(a, b, d)
    out = object.__new__(GaussianRational)
    out._a, out._b, out._d = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    return out


def _as_gauss(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _reduced(x, 0, 1)
    if isinstance(x, Fraction):
        return _reduced(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")


Coeff = Union[complex, GaussianRational]


def _canonical(terms: Mapping) -> dict:
    return {e: c for e, c in terms.items() if c}


def _add_terms(a: Mapping, b: Mapping) -> dict:
    """Sum of two term maps; zero coefficients are dropped."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        out[e] = c if s is None else s + c
    return _canonical(out)


def _mul_terms(a: Mapping, b: Mapping) -> dict:
    """Product of two term maps; zero coefficients are dropped."""
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e)
            p = c1 * c2
            out[e] = p if s is None else s + p
    return _canonical(out)


def _substitute_terms(terms: Mapping, images: Sequence[Mapping], num_vars: int) -> dict:
    """The term map of sum_e c_e prod_k images[k]^e_k, each variable k
    replaced by the term map images[k] in num_vars variables, expanded term
    by term with complex coefficients."""
    total: dict = {}
    for e, c in terms.items():
        term = {(0,) * num_vars: complex(c)}
        for k, power in enumerate(e):
            for _ in range(power):
                term = _mul_terms(term, images[k])
        total = _add_terms(total, term)
    return total


class _PolyBase:
    """Shared arithmetic for exponent-map polynomials (backend-agnostic)."""

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping):
        self.num_vars = int(num_vars)
        self.terms = _canonical(terms)
        for e in self.terms:
            if len(e) != self.num_vars:
                raise PolyError(f"exponent {e} does not match num_vars={num_vars}")

    def _like(self, terms: Mapping, degree_shift: int = 0):
        """A polynomial of this type and variable count with the given terms;
        a homogeneous result has degree shifted by ``degree_shift``."""
        raise NotImplementedError

    def is_zero(self) -> bool:
        return not self.terms

    def _add_maps(self, other) -> dict:
        if self.num_vars != other.num_vars:
            raise PolyError("variable-count mismatch")
        return _add_terms(self.terms, other.terms)

    def _mul_maps(self, other) -> dict:
        if self.num_vars != other.num_vars:
            raise PolyError("variable-count mismatch")
        return _mul_terms(self.terms, other.terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self._like({e: c * v for e, v in self.terms.items()} if c else {})

    def partial(self, k: int):
        if not 0 <= k < self.num_vars:
            raise PolyError(f"variable index {k} out of range")
        out: dict = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            ne = list(e)
            ne[k] -= 1
            out[tuple(ne)] = c * e[k]
        return self._like(out, -1)

    def coeff_norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return math.sqrt(sum(abs(complex(c)) ** 2 for c in self.terms.values()))

    def eval(self, z) -> Coeff:
        """Evaluate at a point (one scalar per variable); no terms give 0, the zero of both backends.
        The tests' reference: no production path calls it but ``residue.local_residue``."""
        if len(z) != self.num_vars:
            raise PolyError(
                f"point has {len(z)} coordinates, polynomial has {self.num_vars} variables"
            )
        total = None
        for e, c in self.terms.items():
            v = c
            for zi, k in zip(z, e):
                for _ in range(k):
                    v = v * zi
            total = v if total is None else total + v
        return 0 if total is None else total

    def eval_batch(self, W: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points, (N, num_vars) -> (N,): a kernel of one, compiled on each call."""
        return PolyKernel(self.num_vars, [self]).eval_batch(W)[0]

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.num_vars, frozenset(self.terms.items())))


class AffinePoly(_PolyBase):
    """Polynomial in n affine chart variables w_1..w_n (no degree constraint)."""

    def _like(self, terms: Mapping, degree_shift: int = 0) -> "AffinePoly":
        return AffinePoly(self.num_vars, terms)

    def __add__(self, other: "AffinePoly") -> "AffinePoly":
        return AffinePoly(self.num_vars, self._add_maps(other))

    def __mul__(self, other: "AffinePoly") -> "AffinePoly":
        return AffinePoly(self.num_vars, self._mul_maps(other))

    @staticmethod
    def constant(num_vars: int, c) -> "AffinePoly":
        return AffinePoly(num_vars, {(0,) * num_vars: c})

    @staticmethod
    def coordinate(num_vars: int, k: int, c=1.0 + 0j) -> "AffinePoly":
        e = [0] * num_vars
        e[k] = 1
        return AffinePoly(num_vars, {tuple(e): c})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)


ROW_BLOCK = 1 << 12  # points per monomial table: bounds its memory and keeps it in cache


def row_blocks(count: int):
    """Slices of at most ROW_BLOCK points covering ``range(count)`` in order."""
    return [slice(s, min(s + ROW_BLOCK, count)) for s in range(0, count, ROW_BLOCK)]


# Per-thread scratch for PolyKernel._monomials: glibc returns large freed
# arrays to the OS, so fresh power and monomial tables on every call would be
# page-faulted in again each time.  Worker threads get buffers of their own.
_workspace = threading.local()


def _scratch(size: int) -> np.ndarray:
    """This thread's flat complex128 workspace, at least ``size`` long."""
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size, dtype=np.complex128)
    return buf


class PolyKernel:
    """A list of affine polynomials compiled for batched evaluation.

    The polynomials become the rows of one coefficient matrix over their shared
    monomials; one matrix product with the monomial values evaluates them all.
    Arrays run along the batch in their last axis, so every step works on
    contiguous rows of points.  Batches are processed in blocks of ROW_BLOCK
    points; each block fills per-variable power tables by repeated
    multiplication, then its monomials one at a time, every product out of
    place, so a monomial's value at a point depends on neither the kernel nor
    the rest of the batch.  The power and monomial tables live in one
    workspace per thread, shared by every kernel and grown only when a block
    needs more, so repeated calls do not allocate (and fault in) fresh
    tables.  Arrays returned by :meth:`eval_batch` are the caller's own and
    never alias the workspace.
    """

    __slots__ = ("num_vars", "degree", "expos", "factors", "coeffs")

    def __init__(self, num_vars: int, polys):
        self.num_vars = int(num_vars)
        self.expos = expos = sorted(set().union(*(p.terms for p in polys)))
        self.degree = max((max(e) for e in expos if e), default=0)
        # factors[m]: the rows of the flattened (degree + 1, num_vars) power
        # table whose product is monomial m; row 0 holds ones
        self.factors = [
            tuple(j * self.num_vars + k for k, j in enumerate(e) if j) or (0,) for e in expos
        ]
        column = {e: k for k, e in enumerate(expos)}
        self.coeffs = np.zeros((len(polys), len(expos)), dtype=np.complex128)
        for row, p in zip(self.coeffs, polys):
            for e, c in p.terms.items():
                row[column[e]] = complex(c)

    def _monomials(self, W: np.ndarray) -> np.ndarray:
        """Values of the monomials at one block of points, shape (M, N): a
        view into this thread's workspace, valid only until the thread's next
        ``_monomials`` call, on any kernel, so the caller must consume it at once."""
        N, n = W.shape
        if n != self.num_vars:
            raise PolyError(f"points have {n} coordinates, polynomials have {self.num_vars} variables")
        width = max(n, 1)  # a constant in no variables still reads the ones of row 0
        powers, M = (self.degree + 1) * width, len(self.factors)
        buf = _scratch((powers + M) * N)
        table = buf[: powers * N].reshape(self.degree + 1, width, N)
        table[0] = 1.0
        if self.degree:
            table[1] = W.T
        for j in range(2, self.degree + 1):  # table[j, k] = W[:, k] ** j
            np.multiply(table[j - 1], table[1], out=table[j])
        table = table.reshape(powers, N)
        # one monomial at a time: each product stays in cache, where gathering
        # whole (M, N) operands would not
        monos = buf[powers * N : (powers + M) * N].reshape(M, N)
        for row, (first, *rest) in zip(monos, self.factors):
            if not rest:
                row[:] = table[first]
                continue
            np.multiply(table[first], table[rest[0]], out=row)
            for k in rest[1:]:  # out of place: numpy's in-place product rounds by position
                row[:] = row * table[k]
        return monos

    def eval_batch(self, W: np.ndarray) -> np.ndarray:
        """Every polynomial at a batch of points, (N, num_vars) -> (P, N)."""
        W = np.asarray(W, dtype=np.complex128)
        if W.shape[0] <= ROW_BLOCK:
            return self.coeffs @ self._monomials(W)
        out = np.empty((self.coeffs.shape[0], W.shape[0]), dtype=np.complex128)
        for block in row_blocks(W.shape[0]):
            np.matmul(self.coeffs, self._monomials(W[block]), out=out[:, block])
        return out


class HomogeneousPoly(_PolyBase):
    """Homogeneous polynomial in num_vars variables; each term sums to degree."""

    __slots__ = ("degree",)

    def __init__(self, num_vars: int, degree: int, terms: Mapping):
        super().__init__(num_vars, terms)
        self.degree = int(degree)
        if self.degree < 0:
            raise PolyError("degree must be >= 0")
        for e in self.terms:
            if sum(e) != self.degree:
                raise InhomogeneousError(
                    f"monomial {e} has degree {sum(e)}, expected {self.degree}"
                )

    def _like(self, terms: Mapping, degree_shift: int = 0) -> "HomogeneousPoly":
        return HomogeneousPoly(self.num_vars, max(self.degree + degree_shift, 0), terms)

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        deg = self._join_degree(other)
        return HomogeneousPoly(self.num_vars, deg, self._add_maps(other))

    def __mul__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return HomogeneousPoly(self.num_vars, self.degree + other.degree, self._mul_maps(other))

    def _join_degree(self, other) -> int:
        # Zero polynomials are degree-compatible with anything.
        if self.is_zero():
            return other.degree
        if other.is_zero():
            return self.degree
        if self.degree != other.degree:
            raise InhomogeneousError(
                f"cannot add degree {self.degree} and degree {other.degree}"
            )
        return self.degree

    def dehomogenize(self, chart: int) -> AffinePoly:
        """Chart trivialization: Q(w) = P(z)/z_chart^degree under w_j = z_j/z_chart."""
        if not 0 <= chart < self.num_vars:
            raise PolyError(f"chart index {chart} out of range")
        # dropping e[chart] loses nothing: it is the degree less the other entries
        return AffinePoly(self.num_vars - 1, {e[:chart] + e[chart + 1 :]: c for e, c in self.terms.items()})

    def substitute_linear(self, Q) -> "HomogeneousPoly":
        """The form z -> self(Q z) for a square matrix Q, expanded term by term
        with complex coefficients; the degree is preserved."""
        nv = self.num_vars
        images = [
            _canonical({tuple(int(i == c) for i in range(nv)): complex(Q[r, c]) for c in range(nv)})
            for r in range(nv)
        ]
        return HomogeneousPoly(nv, self.degree, _substitute_terms(self.terms, images, nv))

    def to_text(self) -> str:
        """Canonical grammar string; parse(to_text()) reproduces the term map."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [_coeff_text(c)]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"z{i}")
                elif k > 1:
                    factors.append(f"z{i}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"HomogeneousPoly({self.num_vars} vars, deg {self.degree}, {self.to_text()!r})"


def _coeff_text(c) -> str:
    if isinstance(c, GaussianRational):
        return f"({c})"
    c = complex(c)
    if c.imag == 0:
        return f"({_float_text(c.real)})"
    if c.real == 0:
        return f"({_float_text(c.imag)}i)"
    sign = "+" if c.imag >= 0 else "-"
    return f"({_float_text(c.real)}{sign}{_float_text(abs(c.imag))}i)"


def _float_text(x: float) -> str:
    """repr(x), written positionally where repr has an exponent (not in the grammar)."""
    return np.format_float_positional(x, unique=True, trim="-") if "e" in repr(x) else repr(x)


def monomials_of_degree(num_vars: int, degree: int) -> list:
    """All exponent multi-indices of the given total degree, lexicographic."""
    if num_vars == 1:
        return [(degree,)]
    out = []
    for k in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - k):
            out.append((k,) + rest)
    return out


_NUMBER = r"([0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:/([0-9]+))?(i)?"  # one NUMBER token
_VAR = r"z[0-9](?:\s*\^\s*[0-9]+)?"
# a whole term of a flat sum, up to the '+', '-' or ')' after it; groups: 0 the sign; 1 the coefficient,
# 2-4 a number or a literal: 5 its '-', 6-9 a number or i, 10 '+' or '-', 11-14 a number or i; 15 the variables
_TERM = re.compile(
    rf"\s*([+-])?\s*(?P<c>{_NUMBER}|\(\s*(-)?\s*(?:{_NUMBER}|(i))\s*(?:([+-])\s*(?:{_NUMBER}|(i))\s*)?\))?"
    rf"((?(c)(?:\s*\*\s*{_VAR})*|{_VAR}(?:\s*\*\s*{_VAR})*))\s*(?=[-+)]|\Z)"
)
_FACTOR = re.compile(r"z([0-9])(?:\s*\^\s*([0-9]+))?")
_I = ("1", None, True)  # the NUMBER of a bare i
_DIGITS = frozenset("0123456789")  # _TERM's [0-9]; str.isdigit also takes '²', which int() refuses


def _token(text: str, i: int):
    """The token at or after position ``i`` as (value, start, end): an
    operator character, "" at the end, a variable's index, or a NUMBER as
    (digits, denominator or None, imaginary); where none starts, a ParseError."""
    while text[i : i + 1].isspace():
        i += 1
    ch, j = text[i : i + 1], i + 1
    if ch in "+-*^()" or ch == "i":  # "" at the end
        return _I if ch == "i" else ch, i, i + len(ch)
    if ch == "z":
        if text[j : j + 1] not in _DIGITS:
            raise ParseError("variable must be z followed by a single digit", i)
        return int(text[j]), i, j + 1
    if not (ch in _DIGITS or ch == "."):
        raise ParseError(f"unexpected character {ch!r}", i)
    while text[j : j + 1] in _DIGITS or text[j : j + 1] == ".":
        j += 1
    num, denom = text[i:j], None
    if num.count(".") > 1 or num == ".":
        raise ParseError(f"malformed number {num!r}", i)
    if text[j : j + 1] == "/":
        k = j = j + 1
        while text[j : j + 1] in _DIGITS:
            j += 1
        if j == k:
            raise ParseError("missing denominator after '/'", k)
        denom = text[k:j]
    imag = text[j : j + 1] == "i"
    return (num, denom, imag), i, j + imag


class _Reader:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := unary ('*' unary)*, unary := '-' unary | atom ('^' INT)?,
    atom := NUMBER | VAR | '(' expr ')', one token at a time, to term maps
    that may be inhomogeneous.  On the float backend every operator's result
    is checked for the finite doubles."""

    def __init__(self, text: str, num_vars: int, exact: bool):
        self.text, self.pos, self.num_vars, self.exact = text, 0, num_vars, exact
        self.one = GaussianRational.of(1) if exact else (1.0 + 0j)

    def take(self, *ops):
        """The position of the next token if it is one of the operators ``ops``, consumed; else None."""
        value, start, end = _token(self.text, self.pos)
        if value in ops:
            self.pos = end
            return start

    def number(self, spec, position: int) -> Coeff:
        """The coefficient of a NUMBER at ``position``; a zero denominator, and
        on the float backend a magnitude beyond the finite doubles, is a
        ParseError there."""
        num, denom, imag = spec
        if denom is not None and int(denom) == 0:
            raise ParseError("zero denominator", position)
        whole, _, frac = num.partition(".")
        top, bottom = int(whole + frac), 10 ** len(frac) * int(denom or 1)
        if self.exact:
            return GaussianRational(0, Fraction(top, bottom)) if imag else GaussianRational(Fraction(top, bottom))
        try:
            mag = top / bottom  # int true division rounds correctly, as float(Fraction) does
        except OverflowError:
            raise ParseError("number too large for a double", position) from None
        return complex(0.0, mag) if imag else complex(mag, 0.0)

    def finite(self, terms: dict, position: int) -> dict:
        """``terms``, the result of the operator at ``position``; on the float
        backend a coefficient beyond the finite doubles is a ParseError there."""
        if not self.exact and not all(map(cmath.isfinite, terms.values())):
            raise ParseError("coefficient beyond the finite doubles", position)
        return terms

    def expr(self) -> dict:
        """A sum.  A term that one ``_TERM`` match reads takes the operations
        ``term`` would take, in the same order, and is added in place as
        ``_add_terms`` adds it: a key whose sum is zero is removed, and re-added
        at the end.  Any other term, or one whose reading meets an error, is
        read by ``term``, which raises the error at its position."""
        text, exact, one, number, num_vars, isfinite = self.text, self.exact, self.one, self.number, self.num_vars, cmath.isfinite
        terms, start, pos = {}, self.pos, self.pos
        while pos < len(text) or pos == start:
            m = _TERM.match(text, pos)
            g = m and m.groups()
            if m and (g[0] is None) is (pos == start):  # a leading sign is read by term
                try:
                    c = one if g[1] is None else number(g[2:5] if g[2] else g[6:9] if g[6] else _I, pos)
                    c = -c if g[5] else c
                    y = g[10] and number(g[11:14] if g[11] else _I, pos)
                    if y:  # a literal's second part, added as expr adds it
                        y = -y if g[10] == "-" else y
                        c = c + y if c else y
                    e, factors = [0] * num_vars, _FACTOR.findall(g[15])
                    for k, power in factors:
                        e[int(k)] += int(power or 1)
                    for _ in range(len(factors) - (g[1] is None)):  # each variable factor after the first factor
                        c = c * one
                    c = -c if g[0] == "-" else c  # a '-' before a term negates the whole term
                    key = tuple(e)
                    s = terms[key] + c if c and key in terms else c
                except (ParseError, IndexError):  # a zero denominator, a number beyond the doubles, a variable out of range
                    s = None
                # only a literal's sum and a key's sum can leave the doubles, and s then stays outside them
                if s is not None and (exact or isfinite(s)):
                    if s:
                        terms[key] = s
                    elif c:
                        del terms[key]
                    pos = m.end()
                    continue
            self.pos = pos
            if pos == start:
                terms = self.term()
            elif (at := self.take("+", "-")) is None:
                return terms
            else:
                rhs = self.term()
                rhs = rhs if text[at] == "+" else {e: -c for e, c in rhs.items()}
                terms = self.finite(_add_terms(terms, rhs), at)
            pos = self.pos
        self.pos = pos
        return terms

    def term(self) -> dict:
        acc = self.unary()
        while (at := self.take("*")) is not None:
            acc = self.finite(_mul_terms(acc, self.unary()), at)
        return acc

    def unary(self) -> dict:
        if self.take("-") is not None:
            return {e: -c for e, c in self.unary().items()}
        base = self.atom()
        if (at := self.take("^")) is None:
            return base
        value, start, self.pos = _token(self.text, self.pos)
        if type(value) is not tuple or value[1] is not None or value[2] or "." in value[0]:
            raise ParseError("exponent must be a nonnegative integer", start)
        acc = {(0,) * self.num_vars: self.one}
        for _ in range(int(value[0])):
            acc = _mul_terms(acc, base)
        return self.finite(acc, at)

    def atom(self) -> dict:
        value, start, self.pos = _token(self.text, self.pos)
        if type(value) is tuple:
            c = self.number(value, start)
            return {(0,) * self.num_vars: c} if c else {}
        if type(value) is int:
            if value >= self.num_vars:
                raise ParseError(f"variable z{value} out of range for {self.num_vars} variables", start)
            return {tuple(int(k == value) for k in range(self.num_vars)): self.one}
        if value != "(":
            raise ParseError("expected number, variable or '('", start)
        inner = self.expr()
        if self.take(")") is None:
            raise ParseError("expected ')'", _token(self.text, self.pos)[1])
        return inner


def _parse_terms(text: str, num_vars: int, exact: bool) -> dict:
    """The term map of ``text`` in ``num_vars`` variables, homogeneous or not.
    Its ParseError is the first that a tokenizer reading the whole text
    before the parser would meet: a lexical error anywhere, else the parser's."""
    reader = _Reader(text, num_vars, exact)
    try:
        terms = reader.expr()
        if reader.pos < len(text) and (tail := _token(text, reader.pos))[0] != "":
            raise ParseError("trailing input", tail[1])
        return terms
    except ParseError as error:
        failure = error
    i = 0
    while i < len(text):  # raises the first lexical error, if there is one
        i = _token(text, i)[2]
    raise failure


def parse_poly(text: str, num_vars: int, backend: str = "float") -> HomogeneousPoly:
    """Parse a homogeneous polynomial from the grammar.

    ``backend`` selects the coefficient field: "float" for complex doubles,
    "exact" for Gaussian rationals.  Raises :class:`ParseError` on syntax
    errors (with position) and :class:`InhomogeneousError` when monomials have
    differing total degree.
    """
    if backend not in ("float", "exact"):
        raise PolyError(f"unknown backend {backend!r}")
    if not 1 <= num_vars <= 10:
        raise PolyError("num_vars must be between 1 and 10")
    terms = _parse_terms(text, num_vars, backend == "exact")
    degrees = {sum(e) for e in terms}
    if len(degrees) > 1:
        raise InhomogeneousError(
            f"mixed total degrees {sorted(degrees)} in {text!r}"
        )
    degree = degrees.pop() if degrees else 0
    return HomogeneousPoly(num_vars, degree, terms)
