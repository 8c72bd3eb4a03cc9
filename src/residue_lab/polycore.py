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
monomial table, goes through :class:`PolyKernel`.

The input grammar (see :func:`parse_poly`): variables ``z0``..``z9``, operators
``+ - * ^``, parentheses, complex literals ``a``, ``bi``, ``a+bi`` with decimal
or rational (``p/q``) components, whitespace insignificant.  A term scanner
reads flat sums ``[coefficient *] z_k[^n] * ... + ...``, one regex match per
term; recursive descent reads the rest and reports every syntax error.
"""

from __future__ import annotations

import cmath
import math
import re
import threading
from fractions import Fraction
from typing import Mapping, Union

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
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self.re, self.im))

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
Expo = tuple


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


class _PolyBase:
    """Shared arithmetic for exponent-map polynomials (backend-agnostic)."""

    __slots__ = ("num_vars", "terms", "_cache")

    def __init__(self, num_vars: int, terms: Mapping):
        self.num_vars = int(num_vars)
        self.terms = _canonical(terms)
        self._cache = None
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
        """Evaluate at a point (sequence of scalars, one per variable)."""
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
        if total is None:
            return 0j if not isinstance(self._sample_coeff(), GaussianRational) else GaussianRational.of(0)
        return total

    def _sample_coeff(self):
        for c in self.terms.values():
            return c
        return 0j

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

    def eval_batch(self, W: np.ndarray) -> np.ndarray:
        """Evaluate at a batch of points, shape (N, num_vars) -> (N,)."""
        if self._cache is None:
            self._cache = PolyKernel(self.num_vars, [self])
        return self._cache.eval_batch(W)[0]


ROW_BLOCK = 1 << 12  # points per monomial table: bounds its memory and keeps it in cache
SMALL_BATCH = 64  # blocks of at most this many points gather their monomials in one step


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
    points, and each block's row count picks its monomial route: up to
    SMALL_BATCH points, where a numpy call's fixed cost outweighs the
    arithmetic, one gather of an index table into the rows [1, w_0, ...,
    w_{n-1}] and one product; above it, per-variable power tables filled by
    repeated multiplication, then one monomial at a time.  The two routes
    round differently; on either, a monomial's value does not depend on the
    kernel.  The power and monomial tables live in one workspace per thread,
    shared by every kernel and grown only when a block needs more, so repeated
    calls do not allocate (and fault in) fresh tables.  Arrays returned by
    :meth:`eval_batch` are the caller's own and never alias the workspace.
    """

    __slots__ = ("num_vars", "degree", "expos", "factors", "gather", "coeffs")

    def __init__(self, num_vars: int, polys):
        self.num_vars = int(num_vars)
        self.expos = expos = sorted(set().union(*(p.terms for p in polys)))
        self.degree = max((max(e) for e in expos if e), default=0)
        # factors[m]: the rows of the flattened (degree + 1, num_vars) power
        # table whose product is monomial m; row 0 holds ones
        self.factors = [
            tuple(j * self.num_vars + k for k, j in enumerate(e) if j) or (0,) for e in expos
        ]
        self.gather = None  # built by the first block of at most SMALL_BATCH points
        column = {e: k for k, e in enumerate(expos)}
        self.coeffs = np.zeros((len(polys), len(expos)), dtype=np.complex128)
        for row, p in zip(self.coeffs, polys):
            for e, c in p.terms.items():
                row[column[e]] = complex(c)

    def _monomials(self, W: np.ndarray) -> np.ndarray:
        """Values of the monomials at one block of points, shape (M, N).

        A block of more than SMALL_BATCH points gets a view into this thread's
        workspace: it is valid only until the thread's next ``_monomials``
        call, on any kernel, so the caller must consume it at once."""
        N, n = W.shape
        if n != self.num_vars:
            raise PolyError(f"points have {n} coordinates, polynomials have {self.num_vars} variables")
        if N <= SMALL_BATCH:
            return self._gathered(W)
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
            for k in rest[1:]:
                row *= table[k]
        return monos

    def _gathered(self, W: np.ndarray) -> np.ndarray:
        """The monomials at a block of at most SMALL_BATCH points, a fresh array."""
        if self.gather is None:  # two threads may both build it, to equal tables
            # gather[:, m]: the rows of [1, w_0, ..., w_{n-1}] whose product is
            # monomial m, one per unit of its total degree, padded in front with 0
            width = max(map(sum, self.expos), default=0)
            table = [[0] * (width - sum(e)) + [k + 1 for k, j in enumerate(e) for _ in range(j)] for e in self.expos]
            self.gather = np.array(table, dtype=np.intp).reshape(len(table), width).T
        rows = np.empty((self.num_vars + 1, W.shape[0]), dtype=np.complex128)
        rows[0] = 1.0
        rows[1:] = W.T
        return np.multiply.reduce(rows[self.gather], axis=0)

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
        out: dict = {}
        for e, c in self.terms.items():
            ne = tuple(v for i, v in enumerate(e) if i != chart)
            s = out.get(ne)
            out[ne] = c if s is None else s + c
        return AffinePoly(self.num_vars - 1, out)

    def substitute_linear(self, Q) -> "HomogeneousPoly":
        """The form z -> self(Q z) for a square matrix Q, expanded term by term
        with complex coefficients; the degree is preserved."""
        nv = self.num_vars
        images = [
            _canonical({tuple(int(i == c) for i in range(nv)): complex(Q[r, c]) for c in range(nv)})
            for r in range(nv)
        ]
        total: dict = {}
        for e, c in self.terms.items():
            term = {(0,) * nv: complex(c)}
            for k, power in enumerate(e):
                for _ in range(power):
                    term = _mul_terms(term, images[k])
            total = _add_terms(total, term)
        return HomogeneousPoly(nv, self.degree, total)

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


# --------------------------------------------------------------------------
# Parser: tokenizer + recursive descent over the grammar in the module doc.
# --------------------------------------------------------------------------

_TOK_NUM = "num"
_TOK_VAR = "var"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((_TOK_OP, ch, i))
            i += 1
            continue
        if ch == "z":
            if i + 1 < n and text[i + 1].isdigit():
                tokens.append((_TOK_VAR, int(text[i + 1]), i))
                i += 2
                continue
            raise ParseError("variable must be z followed by a single digit", i)
        if ch.isdigit() or ch == ".":
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            num = text[start:i]
            if num.count(".") > 1 or num == ".":
                raise ParseError(f"malformed number {num!r}", start)
            denom = None
            if i < n and text[i] == "/":
                i += 1
                dstart = i
                while i < n and text[i].isdigit():
                    i += 1
                denom = text[dstart:i]
                if not denom:
                    raise ParseError("missing denominator after '/'", dstart)
            imag = False
            if i < n and text[i] == "i":
                imag = True
                i += 1
            tokens.append((_TOK_NUM, (num, denom, imag), start))
            continue
        if ch == "i":
            tokens.append((_TOK_NUM, ("1", None, True), i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_END, None, n))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := unary ('*' unary)*, unary := '-' unary | atom ('^' INT)?,
    atom := NUMBER | VAR | '(' expr ')'.

    Produces intermediate (num_vars+1)-variable maps carrying inhomogeneous
    sums; homogeneity is checked at the top level.
    """

    def __init__(self, tokens, num_vars: int, exact: bool):
        self.tokens = tokens
        self.pos = 0
        self.num_vars = num_vars
        self.exact = exact

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val, p = self.next()
        if kind != _TOK_OP or val != op:
            raise ParseError(f"expected {op!r}", p)

    def one(self):
        return GaussianRational.of(1) if self.exact else (1.0 + 0j)

    def _number(self, spec, position: int) -> Coeff:
        """The coefficient of a NUMBER token at ``position``; a zero
        denominator, and on the float backend a magnitude beyond the finite
        doubles, is a ParseError there."""
        num, denom, imag = spec
        if denom is not None and int(denom) == 0:
            raise ParseError("zero denominator", position)
        if self.exact:
            mag = Fraction(num) if denom is None else Fraction(num) / Fraction(int(denom))
            return GaussianRational(Fraction(0), mag) if imag else GaussianRational(mag)
        try:
            # int true division rounds correctly, as float(Fraction) does
            whole, _, frac = num.partition(".")
            mag = int(whole + frac) / (10 ** len(frac) * int(denom or 1))
        except OverflowError:
            raise ParseError("number too large for a double", position) from None
        return complex(0.0, mag) if imag else complex(mag, 0.0)

    def _finite(self, terms: dict, position: int) -> dict:
        """``terms``, the result of the operator at ``position``; on the float
        backend a coefficient it took beyond the finite doubles is a
        ParseError there."""
        if not self.exact and not all(map(cmath.isfinite, terms.values())):
            raise ParseError("coefficient beyond the finite doubles", position)
        return terms

    def parse(self) -> dict:
        result = self.expr()
        kind, _, p = self.peek()
        if kind != _TOK_END:
            raise ParseError("trailing input", p)
        return result

    def expr(self) -> dict:
        acc = self.term()
        while True:
            kind, val, p = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.next()
                rhs = self.term()
                if val == "-":
                    rhs = {e: -c for e, c in rhs.items()}
                acc = self._finite(_add_terms(acc, rhs), p)
            else:
                return acc

    def term(self) -> dict:
        acc = self.unary()
        while True:
            kind, val, p = self.peek()
            if kind == _TOK_OP and val == "*":
                self.next()
                acc = self._finite(_mul_terms(acc, self.unary()), p)
            else:
                return acc

    def unary(self) -> dict:
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val == "-":
            self.next()
            inner = self.unary()
            return {e: -c for e, c in inner.items()}
        return self.power()

    def power(self) -> dict:
        base = self.atom()
        kind, val, at = self.peek()
        if kind == _TOK_OP and val == "^":
            self.next()
            kind, val, p = self.next()
            if kind != _TOK_NUM or val[1] is not None or val[2]:
                raise ParseError("exponent must be a nonnegative integer", p)
            try:
                expo = int(val[0])
            except ValueError:
                raise ParseError("exponent must be a nonnegative integer", p) from None
            acc = {(0,) * self.num_vars: self.one()}
            for _ in range(expo):
                acc = _mul_terms(acc, base)
            return self._finite(acc, at)
        return base

    def atom(self) -> dict:
        kind, val, p = self.next()
        if kind == _TOK_NUM:
            c = self._number(val, p)
            return {(0,) * self.num_vars: c} if c else {}
        if kind == _TOK_VAR:
            if val >= self.num_vars:
                raise ParseError(
                    f"variable z{val} out of range for {self.num_vars} variables", p
                )
            e = [0] * self.num_vars
            e[val] = 1
            return {tuple(e): self.one()}
        if kind == _TOK_OP and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected number, variable or '('", p)


_NUMBER = r"([0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:/([0-9]+))?(i)?"  # one NUMBER token
_VAR = r"z[0-9](?:\s*\^\s*[0-9]+)?"
# groups: 0 the sign; 1 the coefficient, 2-4 a number or a literal: 5 its '-', 6-9 a
# number or i, 10 '+' or '-', 11-14 a number or i; 15 the variable factors
_TERM = re.compile(
    rf"\s*([+-])?\s*(?P<c>{_NUMBER}|\(\s*(-)?\s*(?:{_NUMBER}|(i))\s*(?:([+-])\s*(?:{_NUMBER}|(i))\s*)?\))?"
    rf"((?(c)(?:\s*\*\s*{_VAR})*|{_VAR}(?:\s*\*\s*{_VAR})*))\s*"
)
_FACTOR = re.compile(r"z([0-9])(?:\s*\^\s*([0-9]+))?")
_I = ("1", None, True)  # the NUMBER token of a bare i


def _scan(text: str, num_vars: int, exact: bool):
    """One regex match per term: the term map ``_Parser`` builds from a flat sum ``[coefficient *] z_k[^n] * ...``,
    by the same backend operations in the same order; None for any other text, and where ``_Parser`` would raise.  A
    zero drops out where ``_Parser`` drops it, so the terms are summed into one dict in place with its key order: a
    key whose sum is zero is removed, and re-added at the end."""
    parser = _Parser((), num_vars, exact)
    number, one = parser._number, parser.one()
    terms, pos = {}, 0
    try:
        while pos < len(text) or not pos:
            m = _TERM.match(text, pos)
            g = m and m.groups()
            if not m or (g[0] is None if pos else g[0] == "+"):
                return None
            factors = _FACTOR.findall(g[15])
            c = one if g[1] is None else number(g[2:5] if g[2] else g[6:9] if g[6] else _I, 0)
            c = -c if g[5] else c
            y = g[10] and number(g[11:14] if g[11] else _I, 0)
            if y:  # a literal's second part, added as expr adds it
                y = -y if g[10] == "-" else y
                c = c + y if c else y
            c = -c if g[0] == "-" and not pos else c  # a leading '-' negates the first factor
            e = [0] * num_vars
            for k, power in factors:
                e[int(k)] += int(power or 1)
            for _ in range(len(factors) - (g[1] is None)):  # each variable factor after the first factor
                c = c * one
            c = -c if g[0] == "-" and pos else c  # a later '-' negates the whole term
            if c:
                key = tuple(e)
                terms[key] = s = terms[key] + c if key in terms else c
                if not s:
                    del terms[key]
            pos = m.end()
    except (ParseError, IndexError):  # a zero denominator, a number beyond the doubles, a variable out of range
        return None
    if not exact and not all(map(cmath.isfinite, terms.values())):
        return None  # a non-finite value never returns to zero, so _Parser met it on its way
    return terms


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
    exact = backend == "exact"
    terms = _scan(text, num_vars, exact)
    if terms is None:
        terms = _Parser(_tokenize(text), num_vars, exact).parse()
    degrees = {sum(e) for e in terms}
    if len(degrees) > 1:
        raise InhomogeneousError(
            f"mixed total degrees {sorted(degrees)} in {text!r}"
        )
    degree = degrees.pop() if degrees else 0
    return HomogeneousPoly(num_vars, degree, terms)
