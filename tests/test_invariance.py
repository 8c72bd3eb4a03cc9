"""Verdict invariance: relations under which a verdict must not change, each
instance run through the harness as ``residue-lab verify`` runs it.

Families that pass today:

* generic dense ``euler_jacobi`` controls on P^1, P^2 and P^3, under the solver
  seed, a 10^k scaling of one section component, a random unitary frame and
  a permutation of the variables;
* split-line ``cayley_bacharach`` instances, exact against float.

Coefficients are written as exact ``p/q`` text (the grammar has no exponent
notation), except in the unitary frame, whose coefficients are the floats
``HomogeneousPoly.to_text`` writes.  Every instance comes from a seeded
generator, so the suite is deterministic.
"""

import json
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np
import pytest

from residue_lab.harness import run_scenario
from residue_lab.polycore import GaussianRational, HomogeneousPoly, monomials_of_degree, parse_poly
from residue_lab.syszero import random_unitary


def _verdicts(tmp_path, doc, seed=None):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return [task.verdict for task in run_scenario(str(path), seed=seed).tasks]


def _text(terms):
    """Exact grammar text of a term map with Gaussian-rational coefficients."""
    return HomogeneousPoly(len(next(iter(terms))), sum(next(iter(terms))), terms).to_text()


def _gauss(rng, den=7):
    part = lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, den + 1)))  # noqa: E731
    return GaussianRational(part(), part())


def _dense(rng, nv, degree):
    return {e: _gauss(rng) or GaussianRational(1) for e in monomials_of_degree(nv, degree)}


def _euler_jacobi_doc(section, psi):
    return {
        "n": len(section),
        "degrees": [sum(next(iter(terms))) for terms in section],
        "section": [_text(terms) for terms in section],
        "psi": _text(psi),
        "metric": {"kind": "fubini_study"},
        "backend": "float",
        "tasks": [{"kind": "euler_jacobi", "tol": 1e-8}],
    }


def _frame(doc, Q):
    """The instance in the frame z -> Q z: every form composed with Q."""
    nv = doc["n"] + 1
    moved = lambda text: parse_poly(text, nv).substitute_linear(Q).to_text()  # noqa: E731
    return {**doc, "section": list(map(moved, doc["section"])), "psi": moved(doc["psi"])}


@pytest.mark.parametrize("degrees", [(3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)])
@pytest.mark.parametrize("instance", range(3))
def test_generic_euler_jacobi_verdict_is_invariant(degrees, instance, tmp_path):
    rng = np.random.default_rng([800 + instance, *degrees])
    nv = len(degrees) + 1
    section = [_dense(rng, nv, d) for d in degrees]
    psi = _dense(rng, nv, sum(degrees) - nv)
    doc = _euler_jacobi_doc(section, psi)
    assert _verdicts(tmp_path, doc) == ["pass"]
    # the solver seed
    for seed in range(1, 20):
        assert _verdicts(tmp_path, doc, seed) == ["pass"], seed
    # one component times 10^k, exactly
    for k in (-6, -3, 3, 6):
        scaled = [dict(terms) for terms in section]
        i = int(rng.integers(len(degrees)))
        scaled[i] = {e: c * Fraction(10) ** k for e, c in scaled[i].items()}
        assert _verdicts(tmp_path, _euler_jacobi_doc(scaled, psi)) == ["pass"], (i, k)
    # a random unitary frame
    Q = random_unitary(rng, nv)
    assert _verdicts(tmp_path, _frame(doc, Q)) == ["pass"]
    # a permutation of the variables, z0 (the solver's chart) included
    perm = rng.permutation(nv)
    permute = lambda terms: {tuple(e[j] for j in perm): c for e, c in terms.items()}  # noqa: E731
    assert _verdicts(tmp_path, _euler_jacobi_doc([permute(t) for t in section], permute(psi))) == ["pass"]


def _split_lines(rng, d, e):
    """d and e random lines over the Gaussian rationals whose d e crossings
    are distinct points of P^2."""
    while True:
        lines = [{k: _gauss(rng, den=3) for k in ((1, 0, 0), (0, 1, 0), (0, 0, 1))} for _ in range(d + e)]
        coeffs = [[line[k] for k in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] for line in lines]
        points = [
            (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
            for a in coeffs[:d]
            for b in coeffs[d:]
        ]
        if all(map(any, points)):
            keys = {tuple(c / next(x for x in p if x) for c in p) for p in points}
            if len(keys) == len(points):
                return lines[:d], lines[d:]


@pytest.mark.parametrize("d, e", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_split_line_cayley_bacharach_exact_against_float(d, e, tmp_path):
    rng = np.random.default_rng(850 + 10 * d + e)
    for trial in range(3):
        lf, lg = _split_lines(rng, d, e)
        curves = [reduce(mul, (HomogeneousPoly(3, 1, line) for line in lines)) for lines in (lf, lg)]
        doc = {
            "n": 2,
            "degrees": [d, e],
            "section": [curve.to_text() for curve in curves],
            "metric": {"kind": "fubini_study"},
            "backend": "exact",
            "tasks": [
                {"kind": "cayley_bacharach", "lines_f": list(map(_text, lf)), "lines_g": list(map(_text, lg))}
            ],
        }
        exact = _verdicts(tmp_path, doc)
        assert exact == ["pass"], trial
        doc = {**doc, "backend": "float", "tasks": [{"kind": "cayley_bacharach"}]}
        for seed in range(3):
            assert _verdicts(tmp_path, doc, seed) == exact, (trial, seed)


@pytest.mark.parametrize("k", [7, 13])
def test_a_far_finite_zero_is_not_counted_at_infinity(k, tmp_path):
    # (z1^2 - 10^k z0 z1, z2 - z1) has its two zeros at w = (0, 0) and
    # (10^k, 10^k), both finite, as the resultant shows; the solver's
    # |z_0| <= 1e-6 |z| rule alone once counted the far one at infinity
    section = [f"z1^2 - {10**k}*z0*z1", "z2 - z1"]
    doc = {"n": 2, "degrees": [2, 1], "section": section, "psi": "1", "metric": {"kind": "fubini_study"},
           "backend": "float", "tasks": [{"kind": "euler_jacobi", "tol": 1e-8}]}
    assert [_verdicts(tmp_path, doc, seed) for seed in range(20)] == [["pass"]] * 20
