"""Graded algebra: wedge, dual pairing, adjoint contraction, exponentials.

The adjunction property test is the load-bearing oracle here: ``contract`` is
checked against the independent ``wedge``/``dual_pair`` routines on random
tensors for every basis covector, with the sign exponent evaluated directly.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from residue_lab.superalg import (
    DegreeError,
    SForm,
    SuperTensor,
    _shuffle,
    contract,
    dual_pair,
    exp_S,
    top_pairing,
    wedge,
)


def increasing_tuples(n, k):
    return list(itertools.combinations(range(1, n + 1), k))


def random_tensor(n, block, rng, density=0.7):
    """Random tensor supported on a single (i,j,k,l) block."""
    i, j, k, l = block
    data = {}
    for I in increasing_tuples(n, i):
        for J in increasing_tuples(n, j):
            for K in increasing_tuples(n, k):
                for L in increasing_tuples(n, l):
                    if rng.uniform() <= density:
                        data[(I, J, K, L)] = complex(rng.normal(), rng.normal())
    return SuperTensor(n, data)


# ---------------------------------------------------------------- wedge


def test_wedge_one_forms_anticommute():
    n = 2
    dw1 = SuperTensor.monomial(n, I=(1,))
    dw2 = SuperTensor.monomial(n, I=(2,))
    ab = wedge(dw1, dw2)
    ba = wedge(dw2, dw1)
    assert ab.coeff(I=(1, 2)) == 1
    assert ba.coeff(I=(1, 2)) == -1


def test_wedge_repeated_vector_slot_vanishes():
    n = 2
    e1 = SuperTensor.monomial(n, K=(1,))
    assert wedge(e1, e1).data == {}


def test_wedge_associativity_random():
    rng = np.random.default_rng(5)
    blocks = [(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 1)]
    for trial in range(200):
        n = int(rng.integers(2, 4))
        a = random_tensor(n, blocks[rng.integers(len(blocks))], rng)
        b = random_tensor(n, blocks[rng.integers(len(blocks))], rng)
        c = random_tensor(n, blocks[rng.integers(len(blocks))], rng)
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        diff = lhs.add(rhs.scale(-1))
        assert diff.norm() <= 1e-12 * max(1.0, lhs.norm())


def test_wedge_grading_additive():
    rng = np.random.default_rng(9)
    a = random_tensor(3, (1, 0, 1, 0), rng)
    b = random_tensor(3, (0, 1, 0, 1), rng)
    prod = wedge(a, b)
    for blk in prod.blocks():
        assert blk == (1, 1, 1, 1)


# ---------------------------------------------------------------- dual pair


def test_dual_pair_normalization():
    n = 2
    u = SuperTensor.monomial(n, K=(1, 2))
    t = SuperTensor.monomial(n, L=(1, 2))
    assert dual_pair(u, t).coeff() == 1


def test_dual_pair_orthogonality():
    n = 2
    u = SuperTensor.monomial(n, K=(1,))
    t = SuperTensor.monomial(n, L=(2,))
    assert dual_pair(u, t).data == {}


def test_dual_pair_bilinear():
    rng = np.random.default_rng(17)
    n = 3
    u1 = random_tensor(n, (1, 0, 2, 0), rng)
    u2 = random_tensor(n, (1, 0, 2, 0), rng)
    t = random_tensor(n, (0, 1, 0, 2), rng)
    a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    lhs = dual_pair(u1.scale(a).add(u2.scale(b)), t)
    rhs = dual_pair(u1, t).scale(a).add(dual_pair(u2, t).scale(b))
    assert lhs.add(rhs.scale(-1)).norm() <= 1e-12 * max(1.0, rhs.norm())


def test_dual_pair_degree_mismatch():
    n = 2
    u = SuperTensor.monomial(n, K=(1, 2))
    t = SuperTensor.monomial(n, L=(1,))
    with pytest.raises(DegreeError):
        dual_pair(u, t)


# ---------------------------------------------------------------- contract


def test_contract_single_slot_sign():
    n = 1
    u = SuperTensor.monomial(n, K=(1,))
    th = SuperTensor.monomial(n, L=(1,))
    assert contract(u, th).coeff() == 1


def test_contract_two_slot_sign():
    # all form degrees zero: sign is (-1)^{l(l-1)/2} = -1 for l = 2
    n = 2
    u = SuperTensor.monomial(n, K=(1, 2))
    th = SuperTensor.monomial(n, L=(1, 2))
    assert contract(u, th).coeff() == -1


def test_contract_mixed_form_sign():
    # u = dw (x) e_1, theta = dwbar (x) e*_1: exponent (i+j)l+(p+q)#u = 3
    n = 1
    u = SuperTensor.monomial(n, I=(1,), K=(1,))
    th = SuperTensor.monomial(n, J=(1,), L=(1,))
    res = contract(u, th)
    assert res.coeff(I=(1,), J=(1,)) == -1


def sign_exponent(u_block, theta_block):
    i, j, k, _ = u_block
    p, q, l = theta_block[0], theta_block[1], theta_block[3]
    return (i + j) * l + (p + q) * (i + j + k) + l * (l - 1) // 2


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_contract_adjunction_property(seed):
    """(u . theta, nu*) == sign * (u, theta ^ nu*) for every basis nu*."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    k = int(rng.integers(0, n + 1))
    l = int(rng.integers(0, k + 1))
    i = int(rng.integers(0, n + 1))
    j = int(rng.integers(0, n + 1))
    p = int(rng.integers(0, n + 1))
    q = int(rng.integers(0, n + 1))
    u = random_tensor(n, (i, j, k, 0), rng)
    th = random_tensor(n, (p, q, 0, l), rng)
    if not u.data or not th.data:
        return
    res = contract(u, th)
    sgn = -1 if sign_exponent((i, j, k, 0), (p, q, 0, l)) % 2 else 1
    for M in increasing_tuples(n, k - l):
        nu = SuperTensor.monomial(n, L=M)
        lhs = dual_pair(res, nu)
        rhs = dual_pair(u, wedge(th, nu)).scale(sgn)
        assert lhs.add(rhs.scale(-1)).norm() <= 1e-12 * max(1.0, rhs.norm(), u.norm() * th.norm())


def permutation_sign(seq):
    """Sign of the permutation that sorts seq (distinct entries), from its
    cycles: a cycle of length c is c - 1 transpositions."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    seen, sign = set(), 1
    for start in range(len(seq)):
        length = 0
        while start not in seen:
            seen.add(start)
            start = order[start]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


increasing = st.sets(st.integers(1, 6)).map(lambda s: tuple(sorted(s)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(increasing, increasing), max_size=4))
def test_shuffle_sign_is_the_parity_of_sorting_each_pair(pairs):
    # independent of dual_pair, which shares the helper with the products
    got = _shuffle(pairs)
    if any(set(a) & set(b) for a, b in pairs):
        assert got is None
        return
    merged, sign = got
    assert merged == tuple(tuple(sorted(a + b)) for a, b in pairs)
    assert sign == math.prod(permutation_sign(a + b) for a, b in pairs)


def test_contract_output_block_signature():
    rng = np.random.default_rng(23)
    n = 3
    u = random_tensor(n, (1, 0, 2, 0), rng)
    th = random_tensor(n, (0, 1, 0, 1), rng)
    res = contract(u, th)
    for blk in res.blocks():
        assert blk == (1, 1, 1, 0)


def test_contract_rejects_v_star_in_u():
    n = 2
    u = SuperTensor.monomial(n, L=(1,))
    th = SuperTensor.monomial(n, L=(1,))
    with pytest.raises(DegreeError):
        contract(u, th)


def test_contract_degree_violation():
    n = 2
    u = SuperTensor.monomial(n, K=(1,))
    th = SuperTensor.monomial(n, L=(1, 2))
    with pytest.raises(DegreeError):
        contract(u, th)


# ---------------------------------------------------------------- exp_S


def test_exp_scalar_only():
    S = SForm(2, scalar_part=-1.3 + 0.2j)
    E = exp_S(S)
    assert E.blocks() == {(0, 0, 0, 0)}
    assert abs(E.coeff() - np.exp(-1.3 + 0.2j)) < 1e-14


def test_exp_one_step_truncation():
    a = 0.7 - 0.3j
    S = SForm(1, scalar_part=-0.5, one_form={(1, 1): a})
    E = exp_S(S)
    s0 = np.exp(-0.5)
    assert abs(E.coeff() - s0) < 1e-14
    assert abs(E.coeff(J=(1,), L=(1,)) - s0 * a) < 1e-14
    assert len(E.data) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_form_nilpotency(n):
    rng = np.random.default_rng(100 + n)
    one = {
        (b, p): complex(rng.normal(), rng.normal())
        for b in range(1, n + 1)
        for p in range(1, n + 1)
    }
    S1 = SForm(n, 0.0, one).one_form_tensor()
    power = SuperTensor.scalar(n, 1.0)
    for _ in range(n + 1):
        power = wedge(power, S1)
    assert power.data == {}


# ---------------------------------------------------------------- top pairing


def test_top_pairing_zero_without_antiholomorphic():
    n = 2
    psi = SuperTensor.monomial(n, I=(1, 2), K=(1, 2))
    E = exp_S(SForm(n, scalar_part=0.3))
    assert top_pairing(psi, E) == 0


def test_top_pairing_n1_sign():
    n = 1
    a = 2.0 - 1.0j
    psi = SuperTensor.monomial(n, I=(1,), K=(1,))
    E = SuperTensor.scalar(n, 1.0).add(SuperTensor.monomial(n, J=(1,), L=(1,), c=a))
    # psi . (a dwbar (x) e*_1) = -a dw ^ dwbar
    assert abs(top_pairing(psi, E) - (-a)) < 1e-14


def test_top_pairing_requires_pure_block():
    n = 2
    psi = SuperTensor.monomial(n, I=(1,), K=(1, 2))
    with pytest.raises(DegreeError):
        top_pairing(psi, exp_S(SForm(n, 0.0)))


def test_top_pairing_shortcut_matches_full_expansion():
    """e^{S0} psi . (S1^n / n!) equals the (n,n) part of psi . e^S."""
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        psi_c = complex(rng.normal(), rng.normal())
        full = tuple(range(1, n + 1))
        psi = SuperTensor.monomial(n, I=full, K=full, c=psi_c)
        s0 = complex(-abs(rng.normal()), rng.normal() * 0.1)
        one = {
            (b, p): complex(rng.normal(), rng.normal())
            for b in range(1, n + 1)
            for p in range(1, n + 1)
        }
        S = SForm(n, s0, one)
        lhs = top_pairing(psi, exp_S(S))
        S1 = S.one_form_tensor()
        power = SuperTensor.scalar(n, 1.0)
        for m in range(1, n + 1):
            power = wedge(power, S1).scale(1.0 / m)
        rhs = np.exp(s0) * contract(psi, power).coeff(I=full, J=full)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_top_pairing_determinant_identity():
    """The (n,n) coefficient collapses to (-1)^n psi_c det(A) for
    S1 = sum A[b][p] dwbar_b (x) e*_p -- a hand-derived closed form used by
    the vectorized integrand evaluator."""
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        full = tuple(range(1, n + 1))
        psi_c = complex(rng.normal(), rng.normal())
        psi = SuperTensor.monomial(n, I=full, K=full, c=psi_c)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        one = {(b + 1, p + 1): A[b, p] for b in range(n) for p in range(n)}
        S = SForm(n, 0.0, one)
        val = top_pairing(psi, exp_S(S))
        expected = (-1) ** n * psi_c * np.linalg.det(A)
        assert abs(val - expected) <= 1e-11 * max(1.0, abs(expected))


# ---------------------------------------------------------------- batches


def random_batch_tensor(n, block, rng, points):
    """Random tensor on one block with (points,)-array coefficients."""
    i, j, k, l = block
    data = {}
    for key in itertools.product(*(increasing_tuples(n, m) for m in (i, j, k, l))):
        data[key] = rng.normal(size=points) + 1j * rng.normal(size=points)
    return SuperTensor(n, data)


def at_point(T, m):
    """The m-th point of a batched tensor as a scalar tensor."""
    return SuperTensor(T.n, {k: v[m] if np.ndim(v) else v for k, v in T.data.items()})


def assert_same_tensor(batched, scalar, m):
    got = at_point(batched, m)
    for key in set(got.data) | set(scalar.data):
        a, b = got.data.get(key, 0j), scalar.data.get(key, 0j)
        assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


def test_batched_operations_match_per_point():
    rng = np.random.default_rng(61)
    points = 7
    for _ in range(40):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(0, n + 1))
        l = int(rng.integers(0, k + 1))
        i, j, p, q = (int(rng.integers(0, n + 1)) for _ in range(4))
        a = random_batch_tensor(n, (i, j, k, 0), rng, points)
        b = random_batch_tensor(n, (p, q, 0, l), rng, points)
        wed, con = wedge(a, b), contract(a, b)
        s0 = -np.abs(rng.normal(size=points)) + 0.1j * rng.normal(size=points)
        one = {
            (bb, pp): rng.normal(size=points) + 1j * rng.normal(size=points)
            for bb in range(1, n + 1)
            for pp in range(1, n + 1)
        }
        E = exp_S(SForm(n, s0, one))
        full = tuple(range(1, n + 1))
        psi_c = rng.normal(size=points) + 1j * rng.normal(size=points)
        top = top_pairing(SuperTensor.monomial(n, I=full, K=full, c=psi_c), E)
        assert np.shape(top) == (points,)
        for m in range(points):
            am, bm = at_point(a, m), at_point(b, m)
            assert_same_tensor(wed, wedge(am, bm), m)
            assert_same_tensor(con, contract(am, bm), m)
            Sm = SForm(n, complex(s0[m]), {key: complex(v[m]) for key, v in one.items()})
            Em = exp_S(Sm)
            assert_same_tensor(E, Em, m)
            psi_m = SuperTensor.monomial(n, I=full, K=full, c=psi_c[m])
            expected = top_pairing(psi_m, Em)
            assert abs(top[m] - expected) <= 1e-13 * max(1.0, abs(expected))


def test_batched_coefficient_dropped_only_when_zero_everywhere():
    partly = np.array([0.0, 2.0 - 1.0j, 0.0])
    T = SuperTensor(2, {((1,), (), (), ()): partly, ((2,), (), (), ()): np.zeros(3)})
    assert list(T.data) == [((1,), (), (), ())]
    assert np.array_equal(T.coeff(I=(1,)), partly)


def test_batched_keys_still_validated():
    with pytest.raises(DegreeError):
        SuperTensor(2, {((2, 1), (), (), ()): np.ones(4)})
    with pytest.raises(DegreeError):
        SuperTensor(2, {((), (3,), (), ()): np.ones(4)})
