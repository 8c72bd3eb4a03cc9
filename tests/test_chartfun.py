"""Chart functions: compiled batch evaluation against a term-by-term reference,
groups against their members, term merging, exact derivatives against finite
differences."""

import numpy as np
import pytest

from residue_lab import polycore
from residue_lab.chartfun import ChartFunction, ChartGroup, _Term
from residue_lab.polycore import AffinePoly

NV = 2


def random_poly(rng, max_degree=3, num_vars=NV):
    terms = {}
    for _ in range(rng.integers(1, 5)):
        e = tuple(int(k) for k in rng.integers(0, max_degree + 1, size=num_vars))
        terms[e] = complex(rng.normal(), rng.normal())
    return AffinePoly(num_vars, terms)


def random_function(rng, depth=2):
    """A chart function built by the algebra's operations, not by hand."""
    if depth == 0:
        return ChartFunction.from_parts(
            NV,
            hol=random_poly(rng),
            anti=random_poly(rng),
            weight=int(rng.integers(-3, 2)),
            coef=complex(rng.normal(), rng.normal()),
        )
    f = random_function(rng, depth - 1)
    g = random_function(rng, depth - 1)
    op = rng.integers(0, 7)
    if op == 0:
        return f + g
    if op == 1:
        return f * g
    if op == 2:
        return f.mul_hol(random_poly(rng, 2))
    if op == 3:
        return f.mul_anti(random_poly(rng, 2))
    if op == 4:
        return f.conjugate() - g
    if op == 5:
        return f.d(int(rng.integers(NV))) + g
    return f.dbar(int(rng.integers(NV))) + g


def reference(fn, W):
    """Term by term, each factor through the scalar polynomial evaluation."""
    W = np.asarray(W, dtype=complex).reshape(-1, fn.num_vars)
    base = 1.0 + np.sum(np.abs(W) ** 2, axis=1)
    total = np.zeros(len(W), dtype=complex)
    for t in fn.terms:
        hol = np.array([t.hol.eval(list(w)) for w in W], dtype=complex)
        anti = np.array([t.anti.eval(list(w)) for w in W], dtype=complex)
        total += t.coef * hol * np.conj(anti) * base ** float(t.weight)
    return total


def points(rng, count):
    return (rng.normal(size=(count, NV)) + 1j * rng.normal(size=(count, NV))) * 0.8


def same_bits(a, b):
    """Equal float bits, part by part, signed zeros included."""
    a, b = a.view(np.float64), b.view(np.float64)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def close(a, b, rtol=1e-12):
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return np.abs(a - b).max(initial=0.0) <= rtol * scale


@pytest.mark.parametrize("seed", range(8))
def test_compiled_eval_matches_term_by_term(seed):
    rng = np.random.default_rng(seed)
    fn = random_function(rng)
    W = points(rng, 40)
    assert close(fn.eval_batch(W), reference(fn, W))


@pytest.mark.parametrize("rows", [0, 1, 40])
def test_batch_sizes(rows):
    rng = np.random.default_rng(100 + rows)
    fn = random_function(rng)
    W = points(rng, rows)
    out = fn.eval_batch(W)
    assert out.shape == (rows,)
    assert close(out, reference(fn, W))
    for k in range(rows):
        assert abs(fn.eval_batch(W[k][None])[0] - out[k]) <= 1e-12 * max(1.0, abs(out[k]))


def test_blocks_of_rows_agree_with_one_block(monkeypatch):
    rng = np.random.default_rng(11)
    fn = random_function(rng)
    W = points(rng, 40)
    whole = fn.eval_batch(W)
    monkeypatch.setattr(polycore, "ROW_BLOCK", 7)
    assert close(fn.eval_batch(W), whole, rtol=1e-14)


def _sum_of_parts(rng, weight, count):
    """count terms of one weight with distinct anti factors: one slice of
    count kernel rows."""
    f = ChartFunction.zero(NV)
    for k in range(count):
        anti = AffinePoly(NV, {(k + 1, 0): 1.0 + 0j, (0, 1): complex(rng.normal(), rng.normal())})
        f = f + ChartFunction.from_parts(NV, random_poly(rng), anti, weight, complex(rng.normal(), rng.normal()))
    return f


def _assert_group_equals_each_member(members, W):
    """Every group row equals the member alone bit for bit (its own eval_batch
    is a group of one), and the term-by-term reference gives the math at every
    point of a small batch and at 64 across a large one, within 1e-13 of the
    sum of the terms' sizes (measured at most 8e-15)."""
    rows = W.shape[0]
    values, step = ChartGroup(NV, members).eval_batch(W), 1 + rows // 64
    assert values.shape == (len(members), rows)
    for fn, row in zip(members, values):
        assert same_bits(row, fn.eval_batch(W))
        size = sum(np.abs(reference(ChartFunction(NV, [t]), W[::step])) for t in fn.terms)
        assert np.all(np.abs(row[::step] - reference(fn, W[::step])) <= 1e-13 * size)
    assert ChartGroup(NV, []).eval_batch(W).shape == (0, rows)


@pytest.mark.parametrize("rows", [0, 40, polycore.ROW_BLOCK + 37])
def test_group_equals_each_member_bitwise(rows):
    # members with mixed weights and shared anti factors, an empty function
    # and one whose terms cancel
    rng = np.random.default_rng(300 + rows)
    members = [random_function(rng) for _ in range(4)]
    f = members[0]
    members += [ChartFunction.zero(NV), f - f, f.conjugate(), ChartFunction.from_parts(NV, weight=-3)]
    rng.shuffle(members)
    _assert_group_equals_each_member(members, points(rng, rows))


@pytest.mark.parametrize("rows", [0, 1, 40, polycore.ROW_BLOCK + 37])
def test_group_slices_equal_each_member_bitwise(rows):
    # one-row and multi-row slices at weight 0 and beside weight powers,
    # functions whose terms cancel in part or whole, and an empty function
    rng = np.random.default_rng(500 + rows)
    f, g = random_function(rng), random_function(rng)
    members = [
        _sum_of_parts(rng, 0, 1),
        _sum_of_parts(rng, 0, 3),
        _sum_of_parts(rng, -2, 5) + _sum_of_parts(rng, 1, 1),
        _sum_of_parts(rng, 2, 4) + _sum_of_parts(rng, 0, 2),
        f - f,
        g + f - f,
        ChartFunction.zero(NV),
        f,
        f.conjugate(),
    ]
    sizes = {s.stop - s.start for *_, slices in ChartGroup(NV, members).layout for _, s in slices}
    assert 1 in sizes and max(sizes) >= 3
    W = points(rng, rows)
    W[: min(rows, 3)] = 0  # the origin, where every weight base is 1
    _assert_group_equals_each_member(members, W)


def test_cancelling_terms_merge_to_zero():
    rng = np.random.default_rng(12)
    f = random_function(rng)
    W = points(rng, 20)
    assert np.array_equal((f - f).eval_batch(W), np.zeros(20, dtype=complex))
    # equal (hol, anti, weight) with opposite coefficients: stored apart, merged on evaluation
    A, B = random_poly(rng), random_poly(rng)
    pair = ChartFunction(NV, [_Term(2.5 - 1j, A, B, -2), _Term(-2.5 + 1j, A, B, -2)])
    assert len(pair.terms) == 2
    assert np.array_equal(pair.eval_batch(W), np.zeros(20, dtype=complex))
    g = random_function(rng)
    assert close((f + g - f).eval_batch(W), g.eval_batch(W), rtol=1e-10)


def test_zero_and_constant():
    W = points(np.random.default_rng(13), 5)
    zero = ChartFunction.zero(NV)
    assert np.array_equal(zero.eval_batch(W), np.zeros(5, dtype=complex))
    assert zero.eval_batch(np.zeros((0, NV))).shape == (0,)
    const = ChartFunction.from_parts(NV, coef=3 - 2j)
    assert np.array_equal(const.eval_batch(W), np.full(5, 3 - 2j))
    # a weight alone: (1 + |w|^2)^-2
    weight = ChartFunction.from_parts(NV, weight=-2)
    assert close(weight.eval_batch(W), (1 + np.sum(np.abs(W) ** 2, axis=1)) ** -2.0)


@pytest.mark.parametrize("seed", range(4))
def test_derivatives_match_central_differences(seed):
    rng = np.random.default_rng(200 + seed)
    fn = random_function(rng, depth=1)
    h = 1e-5
    for w in points(rng, 3):
        for a in range(NV):
            ex = np.zeros(NV, dtype=complex)
            ex[a] = h
            v = fn.eval_batch(np.array([w + ex, w - ex, w + 1j * ex, w - 1j * ex]))
            fx = (v[0] - v[1]) / (2 * h)
            fy = (v[2] - v[3]) / (2 * h)
            d, dbar = fn.d(a).eval_batch(w[None])[0], fn.dbar(a).eval_batch(w[None])[0]
            assert abs(0.5 * (fx - 1j * fy) - d) <= 1e-6 * max(1.0, abs(d))
            assert abs(0.5 * (fx + 1j * fy) - dbar) <= 1e-6 * max(1.0, abs(dbar))
