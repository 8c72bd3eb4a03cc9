"""Polynomial core: parser, arithmetic, calculus, chart trivialization."""

import json
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from residue_lab.polycore import (
    AffinePoly,
    GaussianRational,
    HomogeneousPoly,
    ROW_BLOCK,
    InhomogeneousError,
    ParseError,
    PolyError,
    PolyKernel,
    SMALL_BATCH,
    _Parser,
    _scan,
    _tokenize,
    monomials_of_degree,
    parse_poly,
    row_blocks,
)

RNG = np.random.default_rng(20240811)


def random_hpoly(num_vars, degree, rng=RNG, density=1.0):
    terms = {}
    for e in monomials_of_degree(num_vars, degree):
        if rng.uniform() <= density:
            terms[e] = complex(rng.normal(), rng.normal())
    return HomogeneousPoly(num_vars, degree, terms)


# ---------------------------------------------------------------- parsing


def test_parse_basic_terms():
    p = parse_poly("z0^2 + z1*z2", 3)
    assert p.degree == 2
    assert p.terms == {(2, 0, 0): 1 + 0j, (0, 1, 1): 1 + 0j}


def test_parse_cancellation_gives_zero_poly():
    p = parse_poly("z0 - z0", 2)
    assert p.terms == {}
    assert p.is_zero()


def test_parse_inhomogeneous_rejected():
    with pytest.raises(InhomogeneousError):
        parse_poly("z0^2 + z1", 2)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("z0 + @", 2)
    assert exc.value.position == 5


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError):
        parse_poly("z5", 3)


def test_parse_complex_literals():
    p = parse_poly("(2+3i)*z0 - 1/2i*z1", 2)
    assert p.terms[(1, 0)] == 2 + 3j
    assert p.terms[(0, 1)] == -0.5j


def test_parse_exact_backend_rationals():
    p = parse_poly("2/3*z0^2 + (1/2-1/4i)*z1^2", 2, backend="exact")
    c = p.terms[(0, 2)]
    assert isinstance(c, GaussianRational)
    assert c.re == Fraction(1, 2) and c.im == Fraction(-1, 4)


def test_parse_print_roundtrip_float():
    for _ in range(20):
        p = random_hpoly(3, 3, density=0.5)
        q = parse_poly(p.to_text(), 3)
        assert q.terms == p.terms


def test_parse_print_roundtrip_exact():
    p = parse_poly("1/3*z0^2 - (2-7/2i)*z0*z1 + i*z1^2", 2, backend="exact")
    q = parse_poly(p.to_text(), 2, backend="exact")
    assert q.terms == p.terms


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("literal", ["1/0", "3/00i"])
def test_zero_denominator_is_a_parse_error(backend, literal):
    with pytest.raises(ParseError) as exc:
        parse_poly(f"z1^2 - {literal}*z0^2", 2, backend=backend)
    assert exc.value.position == 7 and "zero denominator" in str(exc.value)


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("literal", [".", ".i"])
def test_lone_point_is_a_malformed_number(backend, literal):
    with pytest.raises(ParseError) as exc:
        parse_poly(f"z1^2 - {literal}*z0^2", 2, backend=backend)
    assert exc.value.position == 7 and "malformed number '.'" in str(exc.value)


def test_float_literals_round_as_their_exact_values():
    # integer literals divide as ints, decimals go through Fraction; both are
    # the correctly rounded double of the exact value
    for literal in ["1/3", "2/7i", "123456789012345678901/10", "9007199254740993", "0.1", "3.25/7", "1" + "0" * 308]:
        (coeff,) = parse_poly(f"{literal}*z0", 1).terms.values()
        exact = parse_poly(f"{literal}*z0", 1, backend="exact").terms[(1,)]
        assert coeff == complex(float(exact.re), float(exact.im))


def test_literal_beyond_the_doubles_is_a_parse_error_on_the_float_backend():
    big = "1" + "0" * 400
    for literal in (big, big + "i", big + ".5/3"):
        with pytest.raises(ParseError) as exc:
            parse_poly(f"z1^2 - {literal}*z0^2", 2)
        assert exc.value.position == 7
    # the largest finite double still parses; the exact backend has no limit
    assert parse_poly(f"{int(sys.float_info.max)}*z0", 1).terms[(1,)] == sys.float_info.max
    assert parse_poly(f"{big}*z0", 1, backend="exact").terms[(1,)].re == 10**400


@pytest.mark.parametrize("shape", ["square", "product"])
def test_coefficient_beyond_the_doubles_is_a_parse_error_on_the_float_backend(shape):
    # every literal is a finite double, but the coefficient they make is not;
    # the error sits at the operator that overflowed
    big = "1" + "0" * 200
    text = f"z1^2 - ({big})^2*z0^2" if shape == "square" else f"z1^2 - {big}*{big}*z0^2"
    with pytest.raises(ParseError, match="beyond the finite doubles") as exc:
        parse_poly(text, 2)
    assert exc.value.position == (text.index(")^") + 1 if shape == "square" else text.index("*"))
    assert parse_poly(text, 2, backend="exact").terms[(2, 0)].re == -(10**400)


# ---------------------------------------------------------------- evaluation


def test_eval_product():
    p = parse_poly("z0*z1", 2)
    assert p.eval([2, 3]) == 6


def test_eval_sum_of_squares_at_i():
    p = parse_poly("z0^2+z1^2", 2)
    assert abs(p.eval([1j, 1])) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 4), st.integers(0, 10**6))
def test_eval_homogeneity(nv, deg, seed):
    rng = np.random.default_rng(seed)
    p = random_hpoly(nv, deg, rng)
    z = rng.normal(size=nv) + 1j * rng.normal(size=nv)
    lam = complex(rng.normal(), rng.normal())
    lhs = p.eval(list(lam * z))
    rhs = lam**deg * p.eval(list(z))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_eval_dimension_mismatch():
    with pytest.raises(PolyError):
        parse_poly("z0", 2).eval([1.0])


# ---------------------------------------------------------------- calculus


def test_partial_powers():
    p = parse_poly("z0^3", 2)
    assert p.partial(0).terms == {(2, 0): 3 + 0j}
    assert parse_poly("z1^2", 2).partial(0).is_zero()


def test_partial_index_range():
    with pytest.raises(PolyError):
        parse_poly("z0", 2).partial(2)


def test_euler_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        nv = int(rng.integers(2, 4))
        deg = int(rng.integers(1, 5))
        p = random_hpoly(nv, deg, rng)
        z = rng.normal(size=nv) + 1j * rng.normal(size=nv)
        total = sum(z[k] * p.partial(k).eval(list(z)) for k in range(nv))
        expected = deg * p.eval(list(z))
        assert abs(total - expected) <= 1e-11 * max(1.0, abs(expected))


# ---------------------------------------------------------------- charts


def test_dehomogenize_simple():
    p = parse_poly("z0^2+z1^2", 2)
    q = p.dehomogenize(0)
    assert q.terms == {(0,): 1 + 0j, (2,): 1 + 0j}


def test_dehomogenize_constant_section():
    p = parse_poly("z1", 2)
    assert p.dehomogenize(1).terms == {(0,): 1 + 0j}


def test_dehomogenize_consistency():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_hpoly(3, 3, rng)
        q = p.dehomogenize(0)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = q.eval(list(w))
        rhs = p.eval([1.0, w[0], w[1]])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------- ring laws


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_ring_distributivity_float(seed):
    rng = np.random.default_rng(seed)
    p = random_hpoly(2, 2, rng)
    q = random_hpoly(2, 2, rng)
    r = random_hpoly(2, 1, rng)
    lhs = (p + q) * r
    rhs = p * r + q * r
    diff = lhs - rhs
    scale = max(max((abs(c) for c in lhs.terms.values()), default=1.0), 1.0)
    assert all(abs(c) <= 1e-12 * scale for c in diff.terms.values())


def test_ring_distributivity_exact():
    p = parse_poly("1/3*z0 + 2i*z1", 2, backend="exact")
    q = parse_poly("z0 - 5/7*z1", 2, backend="exact")
    r = parse_poly("z0^2 + z1^2", 2, backend="exact")
    assert ((p + q) * r).terms == (p * r + q * r).terms


def test_zero_poly_degree_compatibility():
    z = HomogeneousPoly(2, 3, {})
    p = parse_poly("z0^2", 2)
    assert (p + z).terms == p.terms
    with pytest.raises(InhomogeneousError):
        p + parse_poly("z0^3", 2)


@pytest.mark.parametrize("nv", [2, 3, 4])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_linear_substitution_matches_evaluation_at_Qz(nv, degree):
    rng = np.random.default_rng(100 * nv + degree)
    p = random_hpoly(nv, degree, rng, density=0.8)
    Q, _ = np.linalg.qr(rng.normal(size=(nv, nv)) + 1j * rng.normal(size=(nv, nv)))
    q = p.substitute_linear(Q)
    assert q.degree == degree
    for _ in range(5):
        z = rng.normal(size=nv) + 1j * rng.normal(size=nv)
        expected = p.eval(list(Q @ z))
        assert abs(q.eval(list(z)) - expected) <= 1e-12 * max(abs(expected), 1.0)
    assert p.substitute_linear(np.eye(nv)).terms == p.terms


# ---------------------------------------------------------------- batch eval


def _batch_case(name, rng):
    if name == "zero":
        return AffinePoly(2, {})
    if name == "constant":
        return AffinePoly.constant(2, 1.5 - 2j)
    if name == "missing_variable":  # no term involves w_2
        full = random_hpoly(3, 4, rng).dehomogenize(0)
        return AffinePoly(2, {e: c for e, c in full.terms.items() if e[1] == 0})
    degree = int(name.split("_")[1])
    return random_hpoly(3, degree, rng).dehomogenize(0)


@pytest.mark.parametrize("rows", [0, 1, 40])
@pytest.mark.parametrize(
    "case", ["zero", "constant", "missing_variable"] + [f"degree_{d}" for d in (1, 3, 5, 8)]
)
def test_affine_batch_eval_matches_scalar(case, rows):
    rng = np.random.default_rng(3)
    p = _batch_case(case, rng)
    W = (rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))) * 0.7
    batch = p.eval_batch(W)
    assert batch.shape == (rows,)
    singles = np.array([p.eval(list(w)) for w in W], dtype=complex)
    assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)


def _kernel(num_vars, degree, count, seed):
    rng = np.random.default_rng(seed)
    polys = [random_hpoly(num_vars + 1, degree, rng, density=0.7).dehomogenize(0) for _ in range(count)]
    return polys, PolyKernel(num_vars, polys)


def _points(count, num_vars, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(count, num_vars)) + 1j * rng.normal(size=(count, num_vars))) * 0.7


@pytest.mark.parametrize("rows", [1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 3])
def test_kernel_blocks_match_blocks_alone(rows):
    polys, kernel = _kernel(2, 3, 3, seed=rows)
    W = _points(rows, 2, seed=rows + 1)
    batch = kernel.eval_batch(W)
    alone = np.concatenate([kernel.eval_batch(W[block]) for block in row_blocks(rows)], axis=1)
    assert batch.tobytes() == alone.tobytes()
    singles = np.array([[p.eval(list(w)) for w in W] for p in polys], dtype=complex)
    assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("rows", [40, ROW_BLOCK + 37])
def test_kernel_results_do_not_alias_the_workspace(rows):
    # a large kernel A, a small kernel B, then A again: the shared workspace
    # is rewritten in between, the arrays handed out are not
    _, big = _kernel(3, 6, 4, seed=1)
    _, small = _kernel(2, 2, 2, seed=2)
    W = _points(rows, 3, seed=3)
    first = big.eval_batch(W)
    kept = first.copy()
    small.eval_batch(_points(rows, 2, seed=4))
    assert first.tobytes() == kept.tobytes()
    again = big.eval_batch(W)
    assert not np.shares_memory(again, first)
    assert first.tobytes() == kept.tobytes()
    assert again.tobytes() == first.tobytes()


def test_kernel_workspace_is_per_thread():
    # two kernels, each evaluated 50 times by two threads at once (more
    # threads than cores, switching often): every result is the serial one
    kernels = [_kernel(2, 7, 5, seed=5)[1], _kernel(3, 4, 3, seed=6)[1]]
    inputs = [[_points(300 + 97 * k, kernel.num_vars, seed=10 * j + k) for k in range(50)]
              for j, kernel in enumerate(kernels)]
    serial = [[kernel.eval_batch(W).tobytes() for W in Ws] for kernel, Ws in zip(kernels, inputs)]
    threaded = [None] * 4
    start = threading.Barrier(4)

    def work(i):
        start.wait()
        kernel, Ws = kernels[i % 2], inputs[i % 2]
        threaded[i] = [kernel.eval_batch(W).tobytes() for W in Ws]

    workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert threaded == serial + serial


def _route_case(case):
    """(num_vars, polys) of a named kernel for the two table routes."""
    rng = np.random.default_rng(len(case))
    if case == "constant":
        return 3, [AffinePoly.constant(3, 2.5 - 1j), AffinePoly.constant(3, -0.5j)]
    if case == "unused variable":  # w_1 appears in no monomial
        polys = [random_hpoly(4, 4, rng).dehomogenize(0) for _ in range(3)]
        return 3, [AffinePoly(3, {e: c for e, c in p.terms.items() if e[1] == 0}) for p in polys]
    num_vars, degree = case
    return num_vars, [random_hpoly(num_vars + 1, degree, rng, density=0.7).dehomogenize(0) for _ in range(3)]


_ROUTE_CASES = [(1, 0), (1, 1), (1, 6), (2, 2), (2, 6), (3, 3), (3, 5), (4, 4), (4, 6), "constant", "unused variable"]


@pytest.mark.parametrize("case", _ROUTE_CASES, ids=str)
def test_small_blocks_agree_with_the_workspace_tables(case):
    # SMALL_BATCH + 1 points take the power tables, k <= SMALL_BATCH points
    # the one-step gather: the values agree to within 1e-13 relative
    num_vars, polys = _route_case(case)
    kernel = PolyKernel(num_vars, polys)
    W = _points(SMALL_BATCH + 1, num_vars, seed=7)
    tabled = kernel.eval_batch(W)
    scale = np.abs(tabled).max(axis=1, keepdims=True)
    for k in (1, SMALL_BATCH):
        small = kernel.eval_batch(W[:k])
        assert small.shape == (len(polys), k)
        assert (np.abs(small - tabled[:, :k]) <= 1e-13 * scale).all()
    errors = []
    for rows in (1, SMALL_BATCH + 1):
        with pytest.raises(PolyError) as err:
            kernel.eval_batch(_points(rows, num_vars + 1, seed=8))
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def same_bits(a, b):
    """Equal float bits, part by part, signed zeros included."""
    a, b = a.view(np.float64), b.view(np.float64)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _coeffs_reference(polys, expos):
    """PolyKernel's coefficient matrix as it was filled before: one lookup
    per (polynomial, monomial) pair, 0 for a monomial the polynomial lacks."""
    to_c = lambda c: c.to_complex() if isinstance(c, GaussianRational) else complex(c)  # noqa: E731
    return np.array(
        [[to_c(p.terms.get(e, 0)) for e in expos] for p in polys], dtype=np.complex128
    ).reshape(len(polys), len(expos))


def test_kernel_coefficients_match_the_pairwise_fill_bitwise():
    rng = np.random.default_rng(41)
    exact = {
        (2, 0): GaussianRational.of(Fraction(1, 3), Fraction(-2, 7)),
        (0, 1): GaussianRational.of(Fraction(-5, 2)),
        (0, 0): GaussianRational.of(0, Fraction(1, 10)),
    }
    polys = [
        AffinePoly(2, exact),
        AffinePoly(2, {}),  # the zero polynomial: a row of zeros
        random_hpoly(3, 3, rng, density=0.6).dehomogenize(1),
        AffinePoly(2, {(1, 1): complex(-0.0, 2.5), (0, 0): complex(1.5, -0.0), (3, 0): 1e-300 + 0j}),
        AffinePoly(2, {}),
    ]
    kernel = PolyKernel(2, polys)
    assert kernel.coeffs.shape == (len(polys), len(kernel.expos))
    assert same_bits(kernel.coeffs, _coeffs_reference(polys, kernel.expos))
    assert not kernel.coeffs[1].any() and not kernel.coeffs[4].any()
    alone = PolyKernel(2, [AffinePoly(2, {})])
    assert alone.coeffs.shape == (1, 0)
    assert not alone.eval_batch(_points(SMALL_BATCH + 5, 2, seed=42)).any()


_EXPONENT_VALUES = [1e-05, 3.3e-05, 2e16, 1.2345678901234568e20, 5e-324, sys.float_info.max]


@pytest.mark.parametrize("value", _EXPONENT_VALUES + [-v for v in _EXPONENT_VALUES])
def test_print_parse_roundtrip_of_exponent_floats(value):
    # repr writes these with an exponent, which the grammar does not read;
    # to_text writes the same shortest digits positionally
    for c in (complex(value, 0.0), complex(0.0, value), complex(value, 1.5), complex(-2.0, value), complex(value, value)):
        p = HomogeneousPoly(2, 1, {(1, 0): c, (0, 1): 1.0 + 0j})
        text = p.to_text()
        assert "e" not in text
        q = parse_poly(text, 2)
        assert list(q.terms) == list(p.terms)
        for e, want in p.terms.items():
            # every nonzero part bit for bit (the parser signs a zero part as it
            # reads it, whatever the text)
            got = q.terms[e]
            assert got == want
            for a, b in ((got.real, want.real), (got.imag, want.imag)):
                assert not b or a.hex() == b.hex()


def test_to_text_keeps_repr_without_an_exponent():
    p = HomogeneousPoly(2, 1, {(1, 0): 0.0001 + 0j, (0, 1): 1e15 - 0.1j})
    assert p.to_text() == "(0.0001)*z0 + (1000000000000000.0-0.1i)*z1"


def test_gaussian_rational_field_ops():
    a = GaussianRational.of(Fraction(1, 3), Fraction(-2, 5))
    b = GaussianRational.of(Fraction(7, 2), Fraction(1, 4))
    assert (a * b) / b == a
    assert a + (-a) == GaussianRational.of(0)
    assert a.conjugate().conjugate() == a


@dataclass(frozen=True)
class _FractionPair:
    """The reference: a Gaussian rational as a frozen pair of Fractions."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def _of(x):
        return x if isinstance(x, _FractionPair) else _FractionPair(Fraction(x))

    def __add__(self, other):
        other = self._of(other)
        return _FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _FractionPair(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-self._of(other))

    def __rsub__(self, other):
        return self._of(other) + (-self)

    def __mul__(self, other):
        other = self._of(other)
        return _FractionPair(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._of(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _FractionPair(
            (self.re * other.re + self.im * other.im) / den, (self.im * other.re - self.re * other.im) / den
        )

    def conjugate(self):
        return _FractionPair(self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _fraction_pairs(rng):
    """Seeded rationals: zero, small signed ones, and magnitudes near 10^±400."""
    parts = [Fraction(0), Fraction(-1), Fraction(1, 3), Fraction(-(10**400)), Fraction(7, 10**400), Fraction(10**400 + 1, 3)]
    for _ in range(10):
        parts.append(Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 30))))
    return [(parts[int(i)], parts[int(j)]) for i, j in rng.integers(0, len(parts), size=(24, 2))] + [
        (Fraction(0), Fraction(0)),
        (Fraction(-2, 3), Fraction(0)),
        (Fraction(0), Fraction(-5, 7)),
    ]


def _complex_bits(fn):
    """fn()'s real and imaginary parts bit for bit, or the type of its error."""
    try:
        z = fn()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return np.array([z.real, z.imag]).tobytes()


def _same(new, ref):
    """``new`` (a GaussianRational, or an error type) holds the value of ``ref``."""
    if isinstance(ref, type):
        return new is ref
    return isinstance(new, GaussianRational) and (new.re, new.im) == (ref.re, ref.im)


def _apply(op, x, y):
    try:
        return op(x, y)
    except ZeroDivisionError:
        return ZeroDivisionError


@pytest.mark.parametrize("seed", range(3))
def test_gaussian_rational_matches_the_fraction_pair_reference(seed):
    # every operation gives the same rational, text and complex bits as a
    # pair of Fractions, for zero, negatives and 10^400 magnitudes alike
    import operator

    values = _fraction_pairs(np.random.default_rng(70 + seed))
    for re, im in values:
        new, ref = GaussianRational(re, im), _FractionPair(re, im)
        assert (new.re, new.im) == (re, im) and GaussianRational.of(re, im) == new
        assert _same(-new, -ref) and _same(new.conjugate(), ref.conjugate())
        assert str(new) == str(ref)
        assert repr(new) == repr(ref).replace("_FractionPair", "GaussianRational")
        assert bool(new) is bool(ref)
        assert _complex_bits(new.to_complex) == _complex_bits(ref.to_complex) == _complex_bits(lambda: complex(new))
        assert hash(new) == hash(ref)
        for other in (0, -3, Fraction(5, -4)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                assert _same(_apply(op, new, other), _apply(op, ref, other))
            for op in (operator.add, operator.sub, operator.mul):
                assert _same(op(other, new), op(other, ref))
        for re2, im2 in values:
            new2, ref2 = GaussianRational(re2, im2), _FractionPair(re2, im2)
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                assert _same(_apply(op, new, new2), _apply(op, ref, ref2))
            assert (new == new2) is ((re, im) == (re2, im2))
            assert new != new2 or hash(new) == hash(new2)
    with pytest.raises(ZeroDivisionError):
        GaussianRational.of(1) / GaussianRational.of(0)


def test_exact_coefficients_convert_to_complex():
    text = "(1/2)*z0 + (1-2i)*z1"
    p = parse_poly(text, 2, backend="exact")
    assert [complex(c) for c in p.terms.values()] == [0.5, 1 - 2j]
    assert p.coeff_norm() == parse_poly(text, 2).coeff_norm()


def test_monomials_of_degree_count():
    assert len(monomials_of_degree(3, 3)) == 10
    assert len(monomials_of_degree(3, 1)) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_parse_print_roundtrip_exact_random(seed):
    rng = np.random.default_rng(seed)
    terms = {}
    for e in monomials_of_degree(3, 2):
        if rng.uniform() < 0.7:
            terms[e] = GaussianRational.of(
                Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
                Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))),
            )
    p = HomogeneousPoly(3, 2, terms)
    q = parse_poly(p.to_text(), 3, backend="exact")
    assert q.terms == p.terms


@pytest.mark.parametrize(
    "text",
    ["", "()", "^2", "z0^", "2*", "z0 + ", "(z0", "z0)", "z0^1.5", "z", "3//2"],
)
def test_parser_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_poly(text, 2)


# ---------------------------------------------------------------- term scanner


def _bits(terms, backend):
    """A term map as comparable data, keys in order: a float coefficient by
    the bits of both parts, so signed zeros count."""
    if backend == "exact":
        return [(e, c.re, c.im) for e, c in terms.items()]
    return [(e, c.real.hex(), c.imag.hex()) for e, c in terms.items()]


def _outcome(parse, backend):
    try:
        return _bits(parse(), backend)
    except PolyError as exc:
        return type(exc), str(exc)


def _recursive_descent(text, num_vars, backend):
    return _Parser(_tokenize(text), num_vars, backend == "exact").parse()


def _assert_scanned_as_parsed(text, num_vars):
    for backend in ("float", "exact"):
        assert _scan(text, num_vars, backend == "exact") is not None, text
        got = parse_poly(text, num_vars, backend).terms
        assert _bits(got, backend) == _bits(_recursive_descent(text, num_vars, backend), backend), (text, backend)


_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
_NUMBER = st.one_of(
    st.integers(0, 30).map(str),
    st.tuples(st.integers(0, 30), st.integers(0, 999)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.tuples(st.integers(0, 30), st.integers(1, 12)).map(lambda p: f"{p[0]}/{p[1]}"),
    st.sampled_from(["0.0", "0", ".5", "2.", "1.25/3"]),
)


@st.composite
def _coefficients(draw):
    kind = draw(st.sampled_from(["number", "imaginary", "literal", "literal", "signed zero"]))
    if kind == "number":
        return draw(_NUMBER)
    if kind == "imaginary":
        return draw(_NUMBER) + "i"
    if kind == "signed zero":
        return draw(st.sampled_from(["(-0.0+1i)", "(0-1i)", "(-0+0i)", "(0.0-0i)", "(-0.0)", "(-0i)"]))
    sp = [draw(_SPACE) for _ in range(5)]
    real = draw(st.one_of(_NUMBER, _NUMBER.map(lambda x: x + "i"), st.just("i")))
    inner = f"{sp[0]}{draw(st.sampled_from(['', '-']))}{sp[1]}{real}"
    if draw(st.booleans()):
        imag = draw(st.one_of(_NUMBER.map(lambda x: x + "i"), st.just("i")))
        inner += f"{sp[2]}{draw(st.sampled_from('+-'))}{sp[3]}{imag}"
    return f"({inner}{sp[4]})"


@st.composite
def _flat_sums(draw):
    """(text, num_vars): a flat sum of terms of one degree."""
    num_vars = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 3))
    terms = []
    for index in range(draw(st.integers(1, 6))):
        factors = [draw(_coefficients())] if draw(st.booleans()) or degree == 0 else []
        left = degree
        while left:  # a variable may repeat, and its power may be 0
            k = draw(st.integers(0, num_vars - 1))
            power = draw(st.integers(0, left))
            sp = draw(_SPACE)
            factors.append(f"z{k}" if power == 1 and draw(st.booleans()) else f"z{k}{sp}^{sp}{power}")
            left -= power
        term = f"{draw(_SPACE)}*{draw(_SPACE)}".join(factors)
        sign = draw(st.sampled_from(["", "-", "- "] if index == 0 else ["+", "-", " + ", " - ", "+ "]))
        terms.append((sign, term))
    if draw(st.booleans()):  # a term that cancels, then comes back at the end
        sign, term = terms[draw(st.integers(0, len(terms) - 1))]
        terms += [("-" if sign.strip() in ("", "+") else "+", term), ("+" if sign.strip() in ("", "+") else "-", term)]
    text = draw(_SPACE).join(f"{sign}{draw(_SPACE)}{term}" for sign, term in terms)
    return draw(_SPACE) + text + draw(_SPACE), num_vars


@settings(max_examples=100, deadline=None)
@given(_flat_sums())
# the order of the operations shows in the signs of zero parts: a leading
# '-' before the products with one, a later '-' after them
@example(("-2i*z0 - (3i)*z1*z0^0", 2))
@example(("-(0-1i)*z0^2 + (-0.0+1i)*z1^2 - (0-1i)*z0*z1", 2))
@example(("z0*z1 - z1*z0 + (2-i)*z0^2 + (2-i)*z0*z1", 2))
@example(("-z0*z0 - z0^2 - (-0.0)*z0^2 + 0*z0^2", 1))
def test_scanner_builds_the_parsers_term_map(case):
    _assert_scanned_as_parsed(*case)


def test_scanner_builds_the_parsers_term_map_for_every_bundled_scenario():
    keys = ("section", "psi", "q", "lines_f", "lines_g", "curve_factor", "cofactor", "psi_cofactor")

    def texts(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in keys:
                    yield from [value] if isinstance(value, str) else value
                else:
                    yield from texts(value)
        elif isinstance(node, list):
            for value in node:
                yield from texts(value)

    count = 0
    for path in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")):
        doc = json.loads(path.read_text())
        for text in texts(doc):
            _assert_scanned_as_parsed(text, doc["n"] + 1)
            count += 1
    assert count >= 27


@pytest.mark.parametrize("backend", ["float", "exact"])
@pytest.mark.parametrize("text", ["(z0+z1)^2", "2*3*z0", "z0*2", "i*z0", "1/0*z0", "z0 + -z1", "+z0", "z3"])
def test_scanner_hands_the_rest_of_the_grammar_to_the_parser(text, backend):
    assert _scan(text, 3, backend == "exact") is None
    expected = _outcome(lambda: _recursive_descent(text, 3, backend), backend)
    assert _outcome(lambda: parse_poly(text, 3, backend).terms, backend) == expected
