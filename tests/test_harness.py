"""Scenario loading, task dispatch, report emission, CLI exit codes."""

import json
import math
import operator
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from residue_lab import cli, harness, residue
from residue_lab.cli import main
from residue_lab.harness import (
    Scenario,
    ScenarioError,
    emit_report,
    run_scenario,
)
from residue_lab.polycore import parse_poly
from residue_lab.projgeom import GeometryContext, GeometryError, MetricSpec, check_instance

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_P1 = {
    "n": 1,
    "degrees": [2],
    "section": ["z1^2 - z0^2"],
    "psi": "1",
    "metric": {"kind": "fubini_study"},
    "backend": "float",
    "tasks": [{"kind": "euler_jacobi", "tol": 1e-8}],
}
# p2_22's instance, on which every task kind may run
BASE_P2 = dict(BASE_P1, n=2, degrees=[2, 2], section=["z1^2 - z0^2", "z2^2 - z0^2"], psi="z0")


def test_bundled_p1_scenario_all_pass():
    report = run_scenario(str(SCENARIOS / "p1_o2.json"), samples=20000)
    assert report.all_ok()
    kinds = [t.kind for t in report.tasks]
    assert kinds == ["euler_jacobi", "virtual_residue", "local_mass"]


def test_p2_local_masses_carry_the_volume_and_orientation_factors(tmp_path):
    """On P^2 each ball's mass is -1 times its local residue, +-1/4 (the
    orientation factor (-1)^{n(n-1)/2}), with the ball volume pi^n r^2n / n!;
    on P^1 both factors are 1.  At t = 0.003 the finite-t bias is below 2%."""
    doc = json.loads((SCENARIOS / "p2_22.json").read_text())
    doc["tasks"] = [{"kind": "local_mass", "t": 0.003, "samples": 400000}]
    task = run_scenario(write_scenario(tmp_path, doc)).tasks[0]
    assert task.verdict == "pass" and len(task.results["masses"]) == 4
    for ball in task.results["masses"]:
        assert abs(abs(ball["local_residue"]) - 0.25) <= 1e-12
        assert abs(ball["mass"] + ball["local_residue"]) <= 0.03 * 0.25


def test_degree_constraint_violation_is_schema_error(tmp_path):
    doc = dict(BASE_P1)
    doc["psi"] = "z0"  # degree 1; required degree is 0
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as exc:
        run_scenario(path)
    assert "sum(degrees)-n-1" in str(exc.value)


def test_cli_exit_codes(tmp_path, capsys):
    doc = dict(BASE_P1)
    good = write_scenario(tmp_path, doc, "good.json")
    assert main(["verify", good]) == 0
    bad = dict(BASE_P1)
    bad["psi"] = "z0"
    bad_path = write_scenario(tmp_path, bad, "bad.json")
    assert main(["verify", bad_path]) == 2
    for threads in ("0", "-3"):
        capsys.readouterr()
        assert main(["verify", good, "--threads", threads]) == 2
        assert f"the thread count must be an integer >= 1, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "literal",
    ["1/0", "1" + "0" * 400, ".", ".i"],
    ids=["zero-denominator", "beyond-doubles", "lone-point", "lone-point-imaginary"],
)
def test_bad_numeric_literal_exits_2(tmp_path, capsys, literal):
    # a zero denominator, a float-backend number beyond the finite doubles, or
    # a point with no digits
    doc = dict(BASE_P1, section=[f"z1^2 - {literal}*z0^2"])
    assert main(["verify", write_scenario(tmp_path, doc)]) == 2
    assert "at position 7" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["²*z1^2 - z0^2", "z² + z0"])
def test_non_ascii_digit_exits_2(tmp_path, capsys, section):
    # a bad-input error at the character, not a traceback from int()
    doc = dict(BASE_P1, section=[section])
    assert main(["verify", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "at position 0" in err and "Traceback" not in err


def test_overflowing_coefficient_exits_2(tmp_path, capsys):
    # finite literals whose product is beyond the doubles: bad input, not a
    # solver failure on an infinite coefficient
    big = "1" + "0" * 200
    doc = dict(BASE_P1, section=[f"z1^2 - ({big})^2*z0^2"])
    assert main(["verify", write_scenario(tmp_path, doc)]) == 2
    assert "coefficient beyond the finite doubles" in capsys.readouterr().err


def test_zero_at_infinity_gives_precondition_failed(tmp_path):
    doc = dict(BASE_P1)
    doc["section"] = ["z0*z1"]
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path)
    assert report.tasks[0].verdict == "precondition-failed"
    assert not report.all_ok()
    assert main(["verify", path]) == 1


@pytest.mark.parametrize("curve_scale, cofactor_scale", [("1/1000000000", "1000000000"), ("1000000000000", "1/1000000000000")])
def test_generalized_cb_is_independent_of_how_a_scalar_is_split(tmp_path, curve_scale, cofactor_scale):
    # curve_factor x c and both cofactors / c give the same section and psi,
    # so every ledger point must stay on its side of the curve
    doc = json.loads((SCENARIOS / "p2_generalized_cb.json").read_text())
    shipped = run_scenario(write_scenario(tmp_path, doc, "shipped.json")).tasks[0]
    task = doc["tasks"][0]
    task["curve_factor"] = f"{curve_scale}*({task['curve_factor']})"
    for key in ("cofactor", "psi_cofactor"):
        task[key] = f"{cofactor_scale}*({task[key]})"
    split = run_scenario(write_scenario(tmp_path, doc, "split.json")).tasks[0]
    assert shipped.verdict == split.verdict == "assumed-hypotheses"
    for key in ("curve_points", "isolated_points"):
        assert shipped.results[key] == split.results[key] == 6


def test_solver_failure_is_fail_not_precondition(tmp_path, monkeypatch):
    from residue_lab import residue
    from residue_lab.syszero import SolveError

    def exhausted(*args, **kwargs):
        raise SolveError("path failures persisted across 3 retries")

    monkeypatch.setattr(residue, "solve_square_system", exhausted)
    path = write_scenario(tmp_path, BASE_P1)
    task = run_scenario(path).tasks[0]
    assert task.kind == "euler_jacobi" and task.verdict == "fail"
    assert task.results == {"error": "path failures persisted across 3 retries"}
    assert main(["verify", path]) == 1


def test_emit_deterministic_bytes(tmp_path):
    path = write_scenario(tmp_path, BASE_P1)
    r1 = run_scenario(path, seed=5)
    r2 = run_scenario(path, seed=5)
    assert emit_report(r1, "json") == emit_report(r2, "json")


def test_json_excludes_timings_text_includes_ledger(tmp_path):
    path = write_scenario(tmp_path, BASE_P1)
    report = run_scenario(path)
    payload = emit_report(report, "json").decode()
    assert "wall_time" not in payload
    text = emit_report(report, "text").decode()
    assert "ledger" in text
    # every ledger entry of the report appears in the text rendering
    assert text.count("->") == len(report.tasks[0].results["ledger"])


def test_thread_count_byte_identical(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "virtual_residue", "t": [1.0], "samples": 40000}]
    path = write_scenario(tmp_path, doc)
    r1 = run_scenario(path, seed=3, threads=1)
    r4 = run_scenario(path, seed=3, threads=4)
    assert emit_report(r1, "json") == emit_report(r4, "json")


def _reference_default(obj):
    """What the report writer makes of a value json cannot write: a complex
    value (Python or numpy) as [re, im], a numpy scalar as its .item()."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _reference_json(doc) -> str:
    """The canonical JSON of ``doc`` by the json module's own encoder."""
    return json.dumps(doc, sort_keys=True, indent=2, default=_reference_default) + "\n"


def _written(doc) -> str:
    out = []
    harness._write_json(doc, out, "")
    return "".join(out) + "\n"


_ODD_TEXTS = st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\t\n\r\x7f", "\u00e9\u2028\U0001f600", "\ud800", ""])
_ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7, 0.1])
_LEAVES = st.one_of(
    st.text(max_size=8) | _ODD_TEXTS,
    st.integers() | st.booleans() | st.none(),
    st.floats() | _ODD_FLOATS,
    st.complex_numbers(),
    st.floats().map(np.float64) | _ODD_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
    st.complex_numbers(width=64).map(np.complex64),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6) | _ODD_TEXTS, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_report_writer_matches_the_json_module(doc):
    assert _written(doc) == _reference_json(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"value": np.zeros(2)}, "Object of type ndarray is not JSON serializable"),
        ([{"a": {1: "one"}}], "keys must be str, not int"),
        ({(0, 1): "pair"}, "keys must be str, not tuple"),
    ],
    ids=["ndarray", "int-key", "tuple-key"],
)
def test_report_writer_refuses_what_it_cannot_write(doc, message):
    # an int key is refused, where json would write it as a string
    with pytest.raises(TypeError, match=re.escape(message)):
        _written(doc)


@pytest.mark.parametrize("name", sorted(path.name for path in SCENARIOS.glob("*.json")))
def test_bundled_reports_match_the_reference(name, monkeypatch, capsys):
    """``verify --json-out -`` writes the text report, then the canonical
    JSON, which equals the json module's rendering of the same report; the
    text report shows no Python complex repr or dict repr."""
    reports = []

    def kept(*args, **kwargs):
        reports.append(run_scenario(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "run_scenario", kept)
    main(["verify", str(SCENARIOS / name), "--threads", "1", "--json-out", "-"])
    (report,) = reports
    doc = {
        "tool_version": report.tool_version,
        "seed": report.seed,
        "backend": report.backend,
        "scenario": report.scenario,
        "tasks": [
            {"kind": t.kind, "inputs": t.inputs, "results": t.results, "verdict": t.verdict} for t in report.tasks
        ],
        "all_ok": report.all_ok(),
    }
    text = emit_report(report, "text").decode()
    assert capsys.readouterr().out == text + _reference_json(doc)
    assert not re.search(r"\dj\b", text) and "{'" not in text


def test_empty_task_list_valid(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = []
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path)
    assert report.all_ok() and report.tasks == []
    assert emit_report(report, "json")


def test_schema_subcommand(capsys):
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert "tasks" in doc and "metric" in doc


# the document `residue-lab schema` prints; scenario files written against it
# must keep their meaning
SCHEMA = {
    "backend": "'float' | 'exact' (exact runs cayley_bacharach tasks on their line factorizations)",
    "degrees": "list of int >= 1, one per bundle summand; length n",
    "metric": {
        "epsilon": "float > 0 (perturbed only, required)",
        "f_index": "0-based summand index whose section cuts the curve (perturbed only, default 0)",
        "kind": "'fubini_study' | 'perturbed'",
        "pair": "[a, b] distinct 0-based summand indices (perturbed only)",
        "q": "polynomial string of degree degrees[b] (perturbed only)",
    },
    "n": "int, dimension of the projective space (1..4)",
    "psi": "polynomial string of degree sum(degrees)-n-1; required by ('euler_jacobi', 'virtual_residue', 'local_mass', 'curve_localization') tasks",
    "section": "list of n polynomial strings (variables z0..zn)",
    "tasks": [{
        "cofactor": "polynomial string (generalized_cb, required)",
        "curve_factor": "polynomial string (generalized_cb, required)",
        "kind": "one of ('euler_jacobi', 'cayley_bacharach', 'generalized_cb', 'virtual_residue', 'local_mass', 'curve_localization')",
        "lines_f": "non-empty list of linear strings (exact-backend cayley_bacharach, required)",
        "lines_g": "non-empty list of linear strings (exact-backend cayley_bacharach, required)",
        "psi_cofactor": "polynomial string (generalized_cb)",
        "radius": "float > 0 (local_mass)",
        "rtol": "float >= 0, relative tolerance of each ball mass against its local residue (local_mass)",
        "samples": "int >= 1 (Monte Carlo tasks), >= 1000 for virtual_residue",
        "seed": "int, 0 <= seed < 2^64",
        "sigma_l1_frac": "float >= 0, largest std_error / L1 mass accepted (curve_localization, perturbed metric)",
        "t": "non-empty list of floats > 0 (virtual_residue), float > 0 (local_mass)",
        "tol": "float >= 0, tolerance (euler_jacobi, cayley_bacharach, generalized_cb)",
    }],
}


def test_schema_document_unchanged(capsys):
    assert main(["schema"]) == 0
    assert capsys.readouterr().out == json.dumps(SCHEMA, indent=2, sort_keys=True) + "\n"


def test_task_defaults(tmp_path, monkeypatch):
    """Every default a task kind fills in, seen in its results or in the
    arguments of the library calls it makes."""
    calls = {}

    def run(doc):
        return run_scenario(write_scenario(tmp_path, doc)).tasks[0]

    for base, kind in ((BASE_P1, "euler_jacobi"), (BASE_P2, "cayley_bacharach")):
        assert run(dict(base, tasks=[{"kind": kind}])).results["tol"] == 1e-8
    gcb = json.loads((SCENARIOS / "p2_generalized_cb.json").read_text())
    del gcb["tasks"][0]["tol"]
    assert run(gcb).results["tol"] == 1e-8

    def sweep(ctx, ts, n, seed, threads):
        calls["virtual_residue_sweep"] = (ts, n)
        return []

    monkeypatch.setattr(harness, "virtual_residue_sweep", sweep)
    assert run(dict(BASE_P1, tasks=[{"kind": "virtual_residue"}])).results == {"samples": 50000, "estimates": []}
    assert calls["virtual_residue_sweep"] == ([1.0], 50000)

    # ball i is sampled at seed i; a mass 4.9% off its residue matches, 5.1% off does not
    ledger = SimpleNamespace(entries=[((-1 + 0j,), 0.5 + 0j), ((1 + 0j,), -0.5 + 0j)])
    monkeypatch.setattr(harness, "global_residue_sum", lambda *args, **kwargs: ledger)
    for off, matches in ((0.049, True), (0.051, False)):

        def mass(ctx, point, t, radius, n, seed, threads):
            calls["local_mass"] = (t, radius, n)
            return SimpleNamespace(value=ledger.entries[seed][1] * (1 + off), std_error=0.0)

        monkeypatch.setattr(harness, "local_mass", mass)
        task = run(dict(BASE_P1, tasks=[{"kind": "local_mass"}]))
        assert calls["local_mass"] == (0.01, 0.5, 50000)
        assert [m["matches"] for m in task.results["masses"]] == [matches, matches]

    # a standard error of 1.99% of the L1 mass is precise enough, 2.01% is not
    perturbed = json.loads((SCENARIOS / "p2_example22_perturbed.json").read_text())
    perturbed["tasks"] = [{"kind": "curve_localization"}]
    for std_error, precise in ((0.0199, True), (0.0201, False)):

        def term(geo, n, seed, threads):
            calls["curve_localized_term"] = n
            return SimpleNamespace(value=0.0, std_error=std_error, pointwise_max=0.0, l1_mass=1.0, nodes=0)

        monkeypatch.setattr(harness, "curve_localized_term", term)
        assert run(perturbed).results["sigma_vs_l1_ok"] is precise
        assert calls["curve_localized_term"] == 30000


# ---------------------------------------------------------------- gates driven to fail
# Each Monte Carlo gate with its estimator replaced: a bad value must read
# fail and a good one pass, so a gate that passes everything shows here.


def _gate_task(tmp_path, task):
    return run_scenario(write_scenario(tmp_path, dict(BASE_P1, tasks=[task]))).tasks[0]


def _sweep_of(values, std_error=1e-3):
    return lambda ctx, ts, n, seed, threads: [
        SimpleNamespace(t=t, value=complex(v), std_error=std_error, nodes=0) for t, v in zip(ts, values)
    ]


def test_virtual_residue_gate_fails_at_five_sigma(tmp_path, monkeypatch):
    for value, verdict in ((5e-3, "fail"), (-5e-3j, "fail"), (1e-3, "pass")):
        monkeypatch.setattr(harness, "virtual_residue_sweep", _sweep_of([value]))
        task = _gate_task(tmp_path, {"kind": "virtual_residue"})
        assert task.verdict == verdict
        assert task.results["estimates"][0]["within_3_sigma"] is (verdict == "pass")


def test_virtual_residue_t_consistency_gate_fails_on_values_apart(tmp_path, monkeypatch):
    # both values inside their own 3 sigma, 4.1 combined sigma apart: only the
    # consistency of the two t fails (5 combined sigma cannot be reached with
    # both inside 3 sigma: the widest gap that keeps them there is 3 sqrt 2)
    for values, verdict in (([2.9e-3, -2.9e-3], "fail"), ([1e-3, -1e-3], "pass")):
        monkeypatch.setattr(harness, "virtual_residue_sweep", _sweep_of(values))
        task = _gate_task(tmp_path, {"kind": "virtual_residue", "t": [0.5, 1.0]})
        assert [e["within_3_sigma"] for e in task.results["estimates"]] == [True, True]
        assert task.verdict == verdict


def test_local_mass_cancellation_gate_fails_on_masses_that_do_not_cancel(tmp_path, monkeypatch):
    # residues +-1/2; each mass within 5% of its residue, so both match, but
    # 1.04 * 1/2 - 0.96 * 1/2 = 0.04 is 28 of their combined sigma from zero
    ledger = SimpleNamespace(entries=[((-1 + 0j,), 0.5 + 0j), ((1 + 0j,), -0.5 + 0j)])
    monkeypatch.setattr(harness, "global_residue_sum", lambda *args, **kwargs: ledger)
    for scales, verdict in (((1.04, 0.96), "fail"), ((1.0, 1.0), "pass")):
        monkeypatch.setattr(
            harness,
            "local_mass",
            lambda ctx, point, t, radius, n, seed, threads: SimpleNamespace(
                value=ledger.entries[seed][1] * scales[seed], std_error=1e-3
            ),
        )
        task = _gate_task(tmp_path, {"kind": "local_mass"})
        assert [m["matches"] for m in task.results["masses"]] == [True, True]
        assert bool(task.results["cancellation"]) is (verdict == "pass")
        assert task.verdict == verdict


def test_float_cayley_bacharach_gate_fails_above_its_tol(tmp_path, monkeypatch):
    # the default tol is 1e-8
    for residual, verdict in ((1e-6, "fail"), (1e-9, "pass")):
        report = SimpleNamespace(degree_pair=(2, 2), num_points=4, space_dimension=1, max_residual=residual, vacuous=False)
        monkeypatch.setattr(harness, "cayley_bacharach_verify", lambda *args, **kwargs: report)
        task = run_scenario(write_scenario(tmp_path, dict(BASE_P2, tasks=[{"kind": "cayley_bacharach"}]))).tasks[0]
        assert task.results["max_residual"] == residual
        assert task.verdict == verdict


@pytest.mark.parametrize(
    "key, bad, good",
    [
        ("curve_entry_max", 1e-6, 1e-9),
        ("isolated_relative_vanishing", 1e-6, 1e-9),
        # the last of several: every forcing residual is gated, not the first
        ("forcing_residuals", [1e-9, 1e-9, 1e-6], [1e-9, 1e-9, 1e-9]),
    ],
)
def test_generalized_cb_gates_fail_above_their_tol(tmp_path, monkeypatch, key, bad, good):
    doc = json.loads((SCENARIOS / "p2_generalized_cb.json").read_text())  # tol 1e-8
    path = write_scenario(tmp_path, doc)
    for value, verdict in ((bad, "fail"), (good, "assumed-hypotheses")):
        report = SimpleNamespace(
            curve_points=6, isolated_points=6, curve_entry_max=1e-9, isolated_relative_vanishing=1e-9,
            forcing_residuals=[1e-9], hypotheses="assumed", ledger=SimpleNamespace(entries=[]),
        )
        setattr(report, key, value)
        monkeypatch.setattr(harness, "generalized_cb_check", lambda *args, **kwargs: report)
        assert run_scenario(path).tasks[0].verdict == verdict


def test_fubini_study_curve_gate_fails_on_a_nonzero_term(tmp_path, monkeypatch):
    # a Fubini-Study term vanishes pointwise: a pointwise maximum or a value of
    # 1e-6 fails, however small its standard error
    path = str(SCENARIOS / "p2_example22_fs.json")
    for pointwise_max, value, verdict in ((1e-6, 0.0, "fail"), (0.0, 1e-6, "fail"), (0.0, 0.0, "pass")):
        term = SimpleNamespace(value=value, std_error=1.0, pointwise_max=pointwise_max, l1_mass=1.0, nodes=0)
        monkeypatch.setattr(harness, "curve_localized_term", lambda *args, **kwargs: term)
        task = run_scenario(path).tasks[0]
        assert task.results["metric"] == "fubini_study" and task.verdict == verdict


def test_unknown_task_kind_rejected(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "warp_drive"}]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError):
        run_scenario(path)


@pytest.mark.parametrize(
    "key, value",
    [
        ("tolerance", 1e-30),  # misspelled
        ("radius", 0.5),  # a local_mass key on another kind
    ],
)
def test_misspelled_task_key_rejected(tmp_path, key, value):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "euler_jacobi", key: value}]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=key):
        run_scenario(path)
    assert main(["verify", path]) == 2


def test_bundled_task_keys_accepted_by_their_kind():
    for path in sorted(SCENARIOS.glob("*.json")):
        Scenario.from_dict(json.loads(path.read_text()))


@pytest.mark.parametrize("samples", [0, -5])
def test_nonpositive_samples_override_rejected(tmp_path, samples):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "virtual_residue", "t": [1.0], "samples": 5000}]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="samples"):
        run_scenario(path, samples=samples)
    assert main(["verify", path, "--samples", str(samples)]) == 2


def test_samples_override_below_the_sweep_minimum_rejected(tmp_path):
    # a virtual_residue task needs at least 1000 samples, from the file or
    # the override; a scenario without one runs at fewer
    doc = dict(BASE_P1, tasks=[{"kind": "virtual_residue", "t": [1.0], "samples": 5000}])
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=re.escape(">= 1000 for virtual_residue, got 999")):
        run_scenario(path, samples=999)
    assert main(["verify", path, "--samples", "999"]) == 2
    lm = {"kind": "local_mass", "t": 0.01, "radius": 0.5, "rtol": 0.05}
    task = run_scenario(write_scenario(tmp_path, dict(BASE_P1, tasks=[lm]), "lm.json"), samples=500).tasks[0]
    assert task.results["samples"] == 500 and len(task.results["masses"]) == 2


VALID_TASKS = {
    "euler_jacobi": {"kind": "euler_jacobi", "tol": 1e-8, "seed": 1},
    "cayley_bacharach": {"kind": "cayley_bacharach"},
    "generalized_cb": {"kind": "generalized_cb", "curve_factor": "z0", "cofactor": "z1"},
    "virtual_residue": {"kind": "virtual_residue", "t": [1.0], "samples": 5000},
    "local_mass": {"kind": "local_mass", "t": 0.01, "radius": 0.5, "rtol": 0.05, "samples": 5000},
    "curve_localization": {"kind": "curve_localization", "samples": 5000, "sigma_l1_frac": 0.02},
}


@pytest.mark.parametrize(
    "kind, key, value",
    [pytest.param("virtual_residue", "samples", v, id=str(v)) for v in (0, -5, 2.5, True, "5000", 999)]
    + [
        pytest.param(kind, key, value, id=f"{kind}-{key}-{value}")
        for kind, key, value in [
            ("euler_jacobi", "seed", "abc"),
            ("euler_jacobi", "seed", 1.5),
            ("euler_jacobi", "seed", -1),
            ("euler_jacobi", "seed", 2**64),
            ("euler_jacobi", "tol", "x"),
            ("euler_jacobi", "tol", -1e-8),
            ("euler_jacobi", "tol", float("nan")),
            ("virtual_residue", "t", "x"),
            ("virtual_residue", "t", [-1.0]),
            ("virtual_residue", "t", []),
            ("virtual_residue", "t", 1.0),
            ("local_mass", "t", [0.01]),
            ("local_mass", "t", 0),
            ("local_mass", "radius", 0),
            ("local_mass", "rtol", "x"),
            ("curve_localization", "sigma_l1_frac", None),
            ("generalized_cb", "cofactor", 3),
            ("cayley_bacharach", "lines_f", "z0"),
        ]
    ],
)
def test_invalid_task_samples_rejected(tmp_path, kind, key, value):
    """A task value of the wrong type or outside the schema's range is a
    schema error (exit 2): the sample count first, then every other key.
    The lines of a Cayley-Bacharach task are read on the exact backend only."""
    doc = dict(BASE_P2, backend="exact") if key == "lines_f" else dict(BASE_P1)
    doc["tasks"] = [dict(VALID_TASKS[kind], **{key: value})]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=key):
        run_scenario(path)
    assert main(["verify", path]) == 2


def test_valid_tasks_accepted():
    Scenario.from_dict(dict(BASE_P2, tasks=list(VALID_TASKS.values())))


def test_lines_on_the_float_backend_are_unknown_keys(tmp_path):
    # the float route reads no lines; accepted, they would pass unread
    doc = json.loads((SCENARIOS / "p2_cb_exact.json").read_text())
    doc["backend"] = "float"
    doc["tasks"][0].update(lines_f=["z0"], lines_g=[])
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=r"unknown key\(s\) \['lines_f'"):
        run_scenario(path)
    assert main(["verify", path]) == 2


@pytest.mark.parametrize(
    "changes, task, message",
    [
        pytest.param({"psi": None}, VALID_TASKS[kind], f"{kind} requires psi", id=f"{kind}-without-psi")
        for kind in ("euler_jacobi", "virtual_residue", "local_mass", "curve_localization")
    ]
    + [
        pytest.param(BASE_P1, VALID_TASKS[kind], f"{kind} runs on P^2", id=f"{kind}-on-P1")
        for kind in ("cayley_bacharach", "generalized_cb", "curve_localization")
    ]
    + [
        # a required key is checked with the others, by the check of its
        # schema text, so an empty value is refused as a missing one is
        pytest.param(
            changes,
            dict(kind=kind, **keys),
            f"{kind} task key {key!r} must be {harness.TASK_KEYS[key][0]}; {end}",
            id=name,
        )
        for name, changes, kind, keys, key, end in [
            ("no-cofactor", {}, "generalized_cb", {"curve_factor": "z0"}, "cofactor", "it is missing"),
            ("no-curve-factor", {}, "generalized_cb", {"cofactor": "z1"}, "curve_factor", "it is missing"),
            ("empty-cofactor", {}, "generalized_cb", {"curve_factor": "z0", "cofactor": ""}, "cofactor", "got ''"),
            ("exact-no-lines-f", {"backend": "exact"}, "cayley_bacharach", {"lines_g": ["z1"]}, "lines_f", "it is missing"),
            (
                "exact-empty-lines-g", {"backend": "exact"}, "cayley_bacharach", {"lines_f": ["z0"], "lines_g": []},
                "lines_g", "got []",
            ),
        ]
    ],
)
def test_task_requirements_checked_before_any_task(tmp_path, changes, task, message):
    doc = {k: v for k, v in {**BASE_P2, **changes, "tasks": [task]}.items() if v is not None}
    with pytest.raises(ScenarioError, match=re.escape(message)):
        Scenario.from_dict(doc)
    assert main(["verify", write_scenario(tmp_path, doc)]) == 2


def test_no_runner_entered_when_a_later_task_is_invalid(tmp_path, monkeypatch):
    # a scenario without psi: the Cayley-Bacharach task could run, the
    # Euler-Jacobi task after it could not
    entered = []
    for kind, spec in harness.KINDS.items():
        monkeypatch.setitem(harness.KINDS, kind, replace(spec, run=lambda *args, kind=kind: entered.append(kind)))
    doc = dict(BASE_P2, tasks=[{"kind": "cayley_bacharach"}, {"kind": "euler_jacobi"}])
    del doc["psi"]
    with pytest.raises(ScenarioError, match="euler_jacobi requires psi"):
        run_scenario(write_scenario(tmp_path, doc))
    assert entered == []


@pytest.mark.parametrize(
    "degrees, section, psi",
    [
        pytest.param([2], ["z1^3 - z0^3"], "1", id="section-degree"),
        pytest.param([2], ["z1^2 - z0^2"], "z0", id="psi-degree"),
        pytest.param([1], ["z1"], "1", id="psi-without-room"),
        pytest.param([2, 2], ["0", "0"], "z0", id="zero-section"),
    ],
)
def test_one_instance_check_for_library_and_harness(tmp_path, capsys, degrees, section, psi):
    n = len(degrees)
    polys, H = [parse_poly(s, n + 1) for s in section], parse_poly(psi, n + 1)
    with pytest.raises(GeometryError) as checked:
        check_instance(degrees, polys, H)
    with pytest.raises(GeometryError) as built:
        GeometryContext(degrees, polys, MetricSpec(), H)
    assert str(built.value) == str(checked.value)
    path = write_scenario(tmp_path, dict(BASE_P1, n=n, degrees=degrees, section=section, psi=psi))
    with pytest.raises(ScenarioError) as scenario:
        run_scenario(path)
    assert str(scenario.value) == str(checked.value)
    capsys.readouterr()
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err == f"scenario error: {checked.value}\n"


@pytest.mark.parametrize("text", ["z0 +", "z0 + z1^2", "z0 + z3"], ids=["syntax", "inhomogeneous", "no-such-variable"])
@pytest.mark.parametrize("file, key", [
    ("p2_generalized_cb.json", "curve_factor"),
    ("p2_generalized_cb.json", "cofactor"),
    ("p2_generalized_cb.json", "psi_cofactor"),
    ("p2_cb_exact.json", "lines_f"),
])
def test_malformed_task_polynomial_exits_2(tmp_path, capsys, file, key, text):
    doc = json.loads((SCENARIOS / file).read_text())
    task = doc["tasks"][0]
    task[key] = [task[key][0], text] if key == "lines_f" else text
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match="polynomial parse error"):
        run_scenario(path)
    capsys.readouterr()
    assert main(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: polynomial parse error") and "Traceback" not in err


PARSED_KEYS = {
    "section[1]": ("p2_22.json", ("section", 1)),
    "psi": ("p1_o2.json", ("psi",)),
    "metric.q": ("p2_example22_perturbed.json", ("metric", "q")),
    "curve_factor": ("p2_generalized_cb.json", ("tasks", 0, "curve_factor")),
    "cofactor": ("p2_generalized_cb.json", ("tasks", 0, "cofactor")),
    "psi_cofactor": ("p2_generalized_cb.json", ("tasks", 0, "psi_cofactor")),
    "lines_f[1]": ("p2_cb_exact.json", ("tasks", 0, "lines_f", 1)),
    "lines_g[2]": ("p2_cb_exact.json", ("tasks", 0, "lines_g", 2)),
}


@pytest.mark.parametrize("key", PARSED_KEYS)
def test_parse_error_names_the_key_and_the_text(tmp_path, capsys, key):
    file, path = PARSED_KEYS[key]
    doc = json.loads((SCENARIOS / file).read_text())
    *parents, last = path
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[last] = "z0 +"
    scenario = write_scenario(tmp_path, doc)
    message = f'polynomial parse error in {key} "z0 +": '
    with pytest.raises(ScenarioError) as raised:
        run_scenario(scenario)
    assert str(raised.value).startswith(message)
    capsys.readouterr()
    assert main(["verify", scenario]) == 2
    assert capsys.readouterr().err.startswith(f"scenario error: {message}")


def _no_runner(monkeypatch):
    """Replace every kind's runner by one that records its kind and its opts
    and passes; returns the record."""
    entered = []

    def run(scenario, opts, threads):
        entered.append((opts["kind"], opts))
        return {}, "pass"

    for kind, spec in harness.KINDS.items():
        monkeypatch.setitem(harness.KINDS, kind, replace(spec, run=run))
    return entered


@pytest.mark.parametrize(
    "override, kinds, refused",
    [
        pytest.param({"samples": 0}, ["local_mass"], True, id="samples-0"),
        pytest.param({"samples": -5}, ["euler_jacobi"], True, id="samples-minus-5-no-task-reads-it"),
        pytest.param({"samples": True}, [], True, id="samples-True-no-task"),
        pytest.param({"samples": 999}, ["local_mass", "virtual_residue"], True, id="samples-999-with-a-sweep"),
        pytest.param({"samples": 500}, ["local_mass", "euler_jacobi"], False, id="samples-500-without-a-sweep"),
        pytest.param({"seed": -1}, ["euler_jacobi"], True, id="seed-minus-1"),
        pytest.param({"seed": 2**64}, ["local_mass"], True, id="seed-2^64"),
    ],
)
def test_overrides_are_refused_by_their_key_check_before_any_task(tmp_path, monkeypatch, override, kinds, refused):
    """An override is refused by the task key check of the key it overrides,
    on every task and on a task of no kind, so a bare >= 1 holds for samples
    that no task reads; the message is the key's schema text."""
    entered = _no_runner(monkeypatch)
    path = write_scenario(tmp_path, dict(BASE_P1, tasks=[VALID_TASKS[kind] for kind in kinds]))
    ((key, value),) = override.items()
    if not refused:
        run_scenario(path, **override)
        assert [(kind, opts[key]) for kind, opts in entered] == [(kind, value) for kind in kinds]
        return
    message = f"the {key} override must be {harness.TASK_KEYS[key][0]}, got {value!r}"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(path, **override)
    assert entered == []


# a Macaulay matrix of C(81, 2) = 3240 columns solves this section
BEYOND_DESK_SCALE = dict(BASE_P2, degrees=[40, 40], section=["z1^40 - z0^40", "z2^40 - z0^40"], psi="z0^77")


@pytest.mark.parametrize("kind", ["euler_jacobi", "local_mass", "generalized_cb", "cayley_bacharach"])
def test_a_solve_beyond_the_desk_scale_bound_is_refused_before_any_task(tmp_path, monkeypatch, capsys, kind):
    entered = _no_runner(monkeypatch)
    task = VALID_TASKS[kind]
    if kind == "generalized_cb":
        task = dict(task, curve_factor="z1^40 - z0^40", cofactor="1")
    doc = dict(BEYOND_DESK_SCALE, tasks=[VALID_TASKS["virtual_residue"], task])
    capsys.readouterr()
    assert main(["verify", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "scenario error: Macaulay matrix of 3240 columns exceeds the desk-scale bound 1000\n"
    assert entered == []
    Scenario.from_dict(dict(doc, tasks=[VALID_TASKS["virtual_residue"]])).parse_polys()  # a Monte Carlo task solves nothing


def _generalized_cb_violation(case):
    """p2_generalized_cb with a psi cofactor of degree 3, or a section of
    degrees (2, 1) that leaves no room for one; neither has psi."""
    if case == "psi-cofactor-degree":
        doc = json.loads((SCENARIOS / "p2_generalized_cb.json").read_text())
        doc["tasks"][0]["psi_cofactor"] = "z0^3"
    else:
        task = {"kind": "generalized_cb", "curve_factor": "z1^2 - z0^2", "cofactor": "1"}
        doc = dict(BASE_P2, degrees=[2, 1], section=["z1^2 - z0^2", "z2 - 3*z0"], tasks=[task])
    del doc["psi"]
    return doc


@pytest.mark.parametrize(
    "case, message",
    [("psi-cofactor-degree", "psi cofactor must have degree 2"), ("no-room", "no room for a numerator cofactor at these degrees")],
)
def test_a_generalized_cb_degree_violation_is_an_input_error(tmp_path, monkeypatch, capsys, case, message):
    # the library's own rule, raised by the task's parse step before any task
    doc = _generalized_cb_violation(case)
    task = doc["tasks"][0]
    f, u, g = (parse_poly(text, 3) for text in (task["curve_factor"], task["cofactor"], doc["section"][1]))
    phi = parse_poly(task["psi_cofactor"], 3) if "psi_cofactor" in task else None
    with pytest.raises(residue.ResidueError) as library:
        residue.generalized_cb_check(f, u, g, psi_cofactor=phi)
    assert str(library.value) == message
    entered = _no_runner(monkeypatch)
    capsys.readouterr()
    assert main(["verify", write_scenario(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert entered == []


@pytest.mark.parametrize(
    "file, key, text, message",
    [
        pytest.param(file, key, text, "polynomial parse error", id=f"{key}-{name}")
        for file, key in [
            ("p2_generalized_cb.json", "curve_factor"),
            ("p2_generalized_cb.json", "cofactor"),
            ("p2_generalized_cb.json", "psi_cofactor"),
            ("p2_cb_exact.json", "lines_f"),
        ]
        for text, name in [("z0 +", "syntax"), ("z0 + z1^2", "inhomogeneous"), ("z0 + z3", "no-such-variable")]
    ]
    + [
        pytest.param(
            "p2_generalized_cb.json", "cofactor", "2*z1^2 - 2*z0*z2 + 2*z0^2", "does not reproduce section[0]",
            id="cofactor-doubled",
        ),
        pytest.param(
            "p2_generalized_cb.json", "psi_cofactor", "2*z0^2 - 2*z1*z2 + 4*z1^2", "does not reproduce psi",
            id="psi-cofactor-doubled",
        ),
        pytest.param("p2_cb_exact.json", "lines_f", "2*z0 + 2*z1", "do not multiply", id="lines-product"),
    ],
)
def test_task_polynomials_checked_before_any_task(tmp_path, monkeypatch, file, key, text, message):
    # the bundled task runs first; its copy with one bad polynomial comes second
    entered = _no_runner(monkeypatch)
    doc = json.loads((SCENARIOS / file).read_text())
    task = doc["tasks"][0]
    bad = dict(task, **{key: [task[key][0], text] if key == "lines_f" else text})
    doc["tasks"] = [task, bad]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        run_scenario(path)
    assert main(["verify", path]) == 2
    assert entered == []


@pytest.mark.parametrize(
    "key, value",
    [("q", "z0 +"), ("q", "z0^5"), ("epsilon", -1.0), ("pair", [0, 0]), ("f_index", 2)]
    # smallest eigenvalue about -58: the positivity certificate refuses it
    + [pytest.param("epsilon", 50.0, id="epsilon-not-positive-definite")],
)
def test_perturbed_metric_checked_before_any_task(tmp_path, monkeypatch, capsys, key, value):
    # an Euler-Jacobi task, which reads no metric, before the curve task
    entered = _no_runner(monkeypatch)
    doc = json.loads((SCENARIOS / "p2_example22_perturbed.json").read_text())
    doc["metric"][key] = value
    doc["tasks"].insert(0, {"kind": "euler_jacobi"})
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError) as scenario:
        run_scenario(path)
    capsys.readouterr()
    assert main(["verify", path]) == 2
    assert entered == []
    fresh = Scenario.from_dict(doc)
    for _ in range(2):  # a refused scenario is not kept as parsed
        with pytest.raises(ScenarioError, match=re.escape(str(scenario.value))):
            fresh.parse_polys()
    if value == "z0 +":
        assert str(scenario.value).startswith("polynomial parse error")
        return
    # the library states the same rule in the same words
    m = dict(doc["metric"], q=parse_poly(doc["metric"]["q"], 3), pair=tuple(doc["metric"]["pair"]))
    section = [parse_poly(s, 3) for s in doc["section"]]
    with pytest.raises(GeometryError) as built:
        GeometryContext(doc["degrees"], section, MetricSpec(**m), parse_poly(doc["psi"], 3))
    assert key in str(built.value) and str(scenario.value) == str(built.value)
    assert capsys.readouterr().err == f"scenario error: {built.value}\n"


@pytest.mark.parametrize("key, value", [("epsilon", 0.05), ("pair", [0, 1]), ("q", "z0^2"), ("f_index", 0)])
def test_perturbed_only_metric_key_rejected_on_fubini_study(tmp_path, key, value):
    doc = dict(BASE_P2, metric={"kind": "fubini_study", key: value})
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=key):
        run_scenario(path)
    assert main(["verify", path]) == 2


MISSING = object()


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param(key, value, id=f"{key}-{'missing' if value is MISSING else value}")
        for key, value in [
            ("epsilon", "abc"),
            ("epsilon", None),
            ("epsilon", -1),
            ("epsilon", 0),
            ("epsilon", MISSING),
            ("pair", ["a", 1]),
            ("pair", [0, 0]),
            ("pair", [0, 2]),
            ("pair", [0]),
            ("q", 3),
            ("q", MISSING),
            ("f_index", "x"),
            ("f_index", 2),
            ("f_index", True),
            ("f_idx", 1),  # misspelled
        ]
    ],
)
def test_invalid_perturbed_metric_rejected(tmp_path, key, value):
    doc = json.loads((SCENARIOS / "p2_example22_perturbed.json").read_text())
    if value is MISSING:
        del doc["metric"][key]
    else:
        doc["metric"][key] = value
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=key):
        run_scenario(path)
    assert main(["verify", path]) == 2


@pytest.mark.parametrize(
    "file, key, misspelled",
    [("p2_example22_perturbed.json", "metric", "metrc"), ("p2_cb_exact.json", "backend", "backnd")],
)
def test_misspelled_document_key_exits_2(tmp_path, capsys, file, key, misspelled):
    # read as its default, the misspelled key would run the curve task under
    # Fubini-Study, or the exact task on the float route, and both would pass
    doc = json.loads((SCENARIOS / file).read_text())
    doc[misspelled] = doc.pop(key)
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=re.escape(f"unknown key(s) ['{misspelled}'] in scenario")):
        run_scenario(path)
    capsys.readouterr()
    assert main(["verify", path]) == 2
    assert misspelled in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param(key, value, id=f"{key}-{'missing' if value is MISSING else value}")
        for key, value in [
            ("n", MISSING),
            ("n", 5),
            ("n", 0),
            ("n", 2.0),
            ("n", True),
            ("degrees", MISSING),
            ("degrees", [2]),
            ("degrees", [2, 0]),
            ("degrees", [2, 2.0]),
            ("degrees", "2, 2"),
            ("section", MISSING),
            ("section", ["z1^2 - z0^2"]),
            ("section", ["z1^2 - z0^2", 0]),
            ("psi", 1),
            ("metric", "fubini_study"),
            ("backend", "Exact"),
            ("backend", None),
            ("tasks", MISSING),
            ("tasks", {"kind": "euler_jacobi"}),
        ]
    ],
)
def test_invalid_document_key_rejected_with_its_schema_text(tmp_path, capsys, key, value):
    doc = dict(BASE_P2)
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value
    path = write_scenario(tmp_path, doc)
    got = "it is missing" if value is MISSING else f"got {value!r}"
    message = f"scenario key {key!r} must be {harness.DOC_KEYS[key][0]}; {got}"
    with pytest.raises(ScenarioError) as raised:
        run_scenario(path)
    assert str(raised.value) == message
    capsys.readouterr()
    assert main(["verify", path]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


@pytest.mark.parametrize(
    "metric, message",
    [
        ({"kind": "perturbd", "epsilon": 0.05}, "metric key 'kind' must be 'fubini_study' | 'perturbed'; got 'perturbd'"),
        ({"epsilon": 0.05}, "metric key 'kind' must be 'fubini_study' | 'perturbed'; it is missing"),
        (
            {"kind": "fubini_study", "epsilon": 0.05},
            "unknown key(s) ['epsilon'] in a fubini_study metric (the other metric keys apply to a perturbed metric "
            "only); known keys: ['kind']",
        ),
    ],
    ids=["misspelled-kind", "no-kind", "fubini-study-with-epsilon"],
)
def test_metric_kind_chooses_the_metric_table(tmp_path, metric, message):
    # a Fubini-Study metric's table holds kind alone; any other kind is
    # checked against the whole table, kind first
    with pytest.raises(ScenarioError, match=re.escape(message)):
        Scenario.from_dict(dict(BASE_P2, metric=metric))


@pytest.mark.parametrize("text", ["5", "[]", '"n"', "null"])
def test_scenario_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    path = tmp_path / "case.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("scenario error: a scenario must be a JSON object")


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_override_out_of_range_rejected(tmp_path, seed):
    path = write_scenario(tmp_path, BASE_P1)
    with pytest.raises(ScenarioError, match="seed"):
        run_scenario(path, seed=int(seed))
    assert main(["verify", path, "--seed", seed]) == 2


def test_geometry_built_once():
    scenario = Scenario.from_dict(json.loads((SCENARIOS / "p2_example22_perturbed.json").read_text()))
    assert scenario.geometry() is scenario.geometry()


def test_malformed_json_is_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2


def test_samples_override_applies(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "virtual_residue", "t": [1.0], "samples": 999999}]
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path, samples=5000)
    assert report.tasks[0].results["samples"] == 5000


def test_sweep_results_count_the_rule_nodes():
    # on P^1 and P^2 the sweep is a product rule: its results keep the
    # samples and count the nodes of both orders, m and m // 2 (m = 10 on
    # P^2 at 60,000 samples, m = 27 on P^1 at 2,000)
    for name, samples, nodes in (("p2_22.json", None, 4 * 10**4 + 4 * 5**4), ("p1_o2.json", 2000, 27 * 55 + 13 * 27)):
        report = run_scenario(str(SCENARIOS / name), samples=samples)
        results = next(task.results for task in report.tasks if task.kind == "virtual_residue")
        assert results["nodes"] == nodes and results["samples"] == (samples or 60000)


def test_bundled_cb_scenarios():
    rep = run_scenario(str(SCENARIOS / "p2_cb33.json"))
    assert rep.all_ok()
    assert rep.tasks[0].results["space_dimension"] == 2
    rep = run_scenario(str(SCENARIOS / "p2_cb_exact.json"))
    assert rep.all_ok()
    assert rep.tasks[0].results["exact"] is True
    assert rep.tasks[0].results["nonzero_held_out_evaluations"] == 0


def test_bundled_generalized_cb_scenario():
    rep = run_scenario(str(SCENARIOS / "p2_generalized_cb.json"))
    assert rep.tasks[0].verdict == "assumed-hypotheses"
    assert rep.all_ok()
    res = rep.tasks[0].results
    assert res["curve_entry_max"] <= 1e-8
    assert res["isolated_relative_vanishing"] <= 1e-8


def test_generalized_cb_splits_points_near_the_curve_at_curve_tol(tmp_path):
    # s = (z1 (z1 - z0/1000), z2^2 - z0^2): two zeros (1 : 0 : +-1) on the
    # curve {z1 = 0} and two isolated ones (1 : 1/1000 : +-1) off it by a
    # normalized value of about 7e-4, far above the curve tolerance 1e-6; a
    # tolerance above 7e-4 would put them on the curve and fail the task
    doc = dict(
        BASE_P2,
        section=["z1^2 - 1/1000*z0*z1", "z2^2 - z0^2"],
        psi="3*z1",
        tasks=[
            {
                "kind": "generalized_cb",
                "tol": 1e-8,
                "seed": 3,
                "curve_factor": "z1",
                "cofactor": "z1 - 1/1000*z0",
                "psi_cofactor": "3",
            }
        ],
    )
    task = run_scenario(write_scenario(tmp_path, doc)).tasks[0]
    assert task.verdict == "assumed-hypotheses"
    assert (task.results["curve_points"], task.results["isolated_points"]) == (2, 2)


def test_bundled_curve_scenario_fs():
    rep = run_scenario(str(SCENARIOS / "p2_example22_fs.json"), samples=5000)
    assert rep.all_ok()
    assert rep.tasks[0].results["pointwise_max"] <= 1e-12


def test_json_out_written(tmp_path):
    doc = dict(BASE_P1)
    path = write_scenario(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["verify", path, "--json-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["all_ok"] is True


def test_perturbation_on_the_zero_summand_is_fubini_study(tmp_path):
    # f_index on the zero summand of s = (f, 0): the perturbation
    # eps q conj(s_1) vanishes, so the metric is Fubini-Study and the curve
    # term is zero by structure
    doc = json.loads((SCENARIOS / "p2_example22_perturbed.json").read_text())
    doc["metric"]["f_index"] = 1
    doc["tasks"][0]["samples"] = 5000
    task = run_scenario(write_scenario(tmp_path, doc)).tasks[0]
    assert task.verdict == "pass"
    assert (task.results["value"], task.results["std_error"]) == (0j, 0.0)


def test_singular_curve_precondition_failed(tmp_path):
    doc = {
        "n": 2,
        "degrees": [2, 2],
        "section": ["z1*z2", "0"],
        "psi": "z0",
        "metric": {"kind": "fubini_study"},
        "backend": "float",
        "tasks": [{"kind": "curve_localization", "samples": 2000}],
    }
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path)
    assert report.tasks[0].verdict == "precondition-failed"
    assert "singular" in report.tasks[0].results["error"]


def test_cusp_curve_precondition_failed(tmp_path):
    # a cusp was certified smooth while its escaped polar paths were ignored
    doc = {
        "n": 2,
        "degrees": [3, 1],
        "section": ["z0*z1^2 - z2^3", "0"],
        "psi": "z0",
        "metric": {"kind": "fubini_study"},
        "backend": "float",
        "tasks": [{"kind": "curve_localization", "samples": 2000}],
    }
    path = write_scenario(tmp_path, doc)
    task = run_scenario(path).tasks[0]
    assert task.verdict == "precondition-failed"
    assert task.results["error"] == "curve not certified smooth: singular point at (1+0j, 0+0j, 0+0j)"
    assert main(["verify", path]) == 1


def test_curve_without_sheets_precondition_failed(tmp_path):
    # f = z1 - z0 does not involve z2, so no sheet lies over w_1; the curve
    # term needs none (random lines meet the line once) and under
    # Fubini-Study reads 0 by structure: the task passes
    doc = {
        "n": 2,
        "degrees": [1, 2],
        "section": ["z1 - z0", "0"],
        "psi": "1",
        "metric": {"kind": "fubini_study"},
        "backend": "float",
        "tasks": [{"kind": "curve_localization", "samples": 2000}],
    }
    path = write_scenario(tmp_path, doc)
    task = run_scenario(path).tasks[0]
    assert task.verdict == "pass"
    assert task.results["value"] == 0 and task.results["pointwise_max"] == 0.0
    assert main(["verify", path]) == 0


def test_overlapping_balls_precondition(tmp_path):
    doc = dict(BASE_P1)
    doc["tasks"] = [{"kind": "local_mass", "t": 0.01, "radius": 1.5, "samples": 2000}]
    path = write_scenario(tmp_path, doc)
    report = run_scenario(path)
    assert report.tasks[0].verdict == "precondition-failed"
    assert "overlapping" in report.tasks[0].results["error"]


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_unless_preset(tmp_path, preset, expected):
    # the CLI pins BLAS to one thread before numpy is imported, keeps a count
    # the environment already sets, and names it in the text report only
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = write_scenario(tmp_path, BASE_P1)
    json_out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "residue_lab.cli", "verify", path, "--threads", "1", "--json-out", str(json_out)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines()[0].endswith(f"blas_threads={expected}")
    assert "blas" not in json_out.read_text()


def test_run_scenarios_script_reports_bad_samples_as_exit_2():
    # a rejected --samples override is a scenario error, not a crash
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_scenarios.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--samples", "0"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "scenario error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_scenario_texts_are_parsed_once(monkeypatch):
    # p2_22 has three polynomial texts and two tasks; run_scenario, both
    # runners and the geometry share one parse of each text
    from residue_lab import harness

    calls = []
    parse = harness.parse_poly

    def counted(*args, **kwargs):
        calls.append(args[0])
        return parse(*args, **kwargs)

    monkeypatch.setattr(harness, "parse_poly", counted)
    report = run_scenario(str(SCENARIOS / "p2_22.json"), samples=2000)
    assert [t.kind for t in report.tasks] == ["euler_jacobi", "virtual_residue"]
    assert len(calls) == 3


EXACT_CB = {
    "n": 2,
    "degrees": [2, 2],
    "backend": "exact",
    "tasks": [{"kind": "cayley_bacharach"}],
}


def _exact_cb(tmp_path, section, lines_f, lines_g):
    doc = dict(EXACT_CB, section=section)
    doc["tasks"] = [dict(EXACT_CB["tasks"][0], lines_f=lines_f, lines_g=lines_g)]
    return run_scenario(write_scenario(tmp_path, doc)).tasks[0]


def test_exact_cb_projectively_repeated_point_is_precondition_failed(tmp_path):
    # z0, z1 and z0 + z1 all pass through (0:0:1); the crossings come out as
    # (0, 0, 1) and (0, 0, -1), one point of P^2
    task = _exact_cb(
        tmp_path, ["z0*z1", "z0*z2 - z0^2 + z1*z2 - z0*z1"], ["z0", "z1"], ["z0 + z1", "z2 - z0"]
    )
    assert task.verdict == "precondition-failed"
    assert "repeated points" in task.results["error"]


def test_exact_cb_shared_line_is_a_shared_component(tmp_path):
    task = _exact_cb(tmp_path, ["z0*z1", "2*z1*z2"], ["z0", "z1"], ["2*z1", "z2"])
    assert task.verdict == "precondition-failed"
    assert task.results["error"] == "lines_f[1] and lines_g[0] are the same line: the curves share a component"


def test_float_cb_shared_line_is_a_shared_component(tmp_path):
    doc = dict(EXACT_CB, section=["z0*z1", "2*z1*z2"], backend="float")
    task = run_scenario(write_scenario(tmp_path, doc)).tasks[0]
    assert task.verdict == "precondition-failed"
    assert task.results["error"] == "the curves share a component: their intersection is not finite"


def test_exact_cb_is_one_elimination_per_task(monkeypatch):
    calls = []
    eliminate = residue._fraction_free_rref

    def counted(M, ncols):
        calls.append(len(M))
        return eliminate(M, ncols)

    monkeypatch.setattr(residue, "_fraction_free_rref", counted)
    task = run_scenario(str(SCENARIOS / "p2_cb_exact.json")).tasks[0]
    assert task.verdict == "pass" and calls == [6]


def _scaled_exact_cb():
    # p2_cb_exact with both lines_f scaled by 10^200 and section[0] by 10^400
    # to match: the coefficients lie beyond the doubles
    doc = json.loads((SCENARIOS / "p2_cb_exact.json").read_text())
    e200, e400 = "1" + "0" * 200, "1" + "0" * 400
    doc["tasks"][0]["lines_f"] = [f"{e200}*z0 + {e200}*z1", f"{e200}*z0 - {e200}*z1 + {e200}*z2"]
    doc["section"][0] = f"{e400}*z0^2 + {e400}*z0*z2 - {e400}*z1^2 + {e400}*z1*z2"
    return doc


def test_exact_section_beyond_the_doubles_is_parsed_exactly_once(tmp_path, monkeypatch):
    parses = []

    def recorded(text, num_vars, backend="float"):
        parses.append((text, backend))
        return parse_poly(text, num_vars, backend)

    monkeypatch.setattr(harness, "parse_poly", recorded)
    doc = _scaled_exact_cb()
    report = run_scenario(write_scenario(tmp_path, doc))
    assert report.all_ok() and report.tasks[0].results["nonzero_held_out_evaluations"] == 0
    assert [p for p in parses if p[0] in doc["section"]] == [(text, "exact") for text in doc["section"]]
    # a task on a float route needs the float section, so the same file with
    # one is refused before the first task runs
    doc["psi"] = "z0^2"
    doc["tasks"].append({"kind": "euler_jacobi"})
    with pytest.raises(ScenarioError, match=r"section\[0\].*number too large for a double"):
        run_scenario(write_scenario(tmp_path, doc))


def test_exact_scenario_keeps_the_float_route_of_its_other_tasks(tmp_path):
    # the lines z1 = a z0 (a = 1, 2) and z2 = b z0 (b = 1, 2, 3) cross at
    # (1 : a : b), six points off the line at infinity
    doc = dict(
        EXACT_CB,
        degrees=[2, 3],
        section=["z1^2 - 3*z0*z1 + 2*z0^2", "z2^3 - 6*z0*z2^2 + 11*z0^2*z2 - 6*z0^3"],
        psi="z0^2 - (1/2)*z1*z2",
        tasks=[
            {"kind": "cayley_bacharach", "lines_f": ["z1 - z0", "z1 - 2*z0"], "lines_g": ["z2 - z0", "z2 - 2*z0", "z2 - 3*z0"]},
            {"kind": "euler_jacobi", "seed": 3},
        ],
    )
    exact = run_scenario(write_scenario(tmp_path, doc, "exact.json"))
    floats = run_scenario(write_scenario(tmp_path, dict(doc, backend="float", tasks=doc["tasks"][1:]), "float.json"))
    assert [t.verdict for t in exact.tasks] == ["pass", "pass"]
    assert exact.tasks[1].results == floats.tasks[0].results


def test_importing_the_harness_loads_no_thread_pool():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, residue_lab.harness; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def _line_text(a, b, c):
    return f"{a}*z0 + {b}*z1 + {c}*z2".replace("+ -", "- ")


def test_exact_cb_5_5_within_budget(tmp_path, monkeypatch):
    # the lines z1 = a z0 and z2 = b^2 z0 + (2b - 1) z1 for a, b in 1..5 cross
    # where z2 = b (b + 2a - 1) z0: 25 distinct points.  Only the elimination
    # is timed, best of three, so that a loaded machine does not fail the test.
    calls = []

    def recorded(points, degree):
        calls.append((points, degree))
        return residue.cb_failures_exact(points, degree)

    monkeypatch.setattr(harness, "cb_failures_exact", recorded)
    lines_f = [_line_text(a, -1, 0) for a in range(1, 6)]
    lines_g = [_line_text(b * b, 2 * b - 1, -1) for b in range(1, 6)]
    section = [
        reduce(operator.mul, (parse_poly(t, 3, backend="exact") for t in lines)).to_text()
        for lines in (lines_f, lines_g)
    ]
    doc = dict(EXACT_CB, degrees=[5, 5], section=section)
    doc["tasks"] = [dict(EXACT_CB["tasks"][0], lines_f=lines_f, lines_g=lines_g)]
    task = run_scenario(write_scenario(tmp_path, doc)).tasks[0]
    assert task.verdict == "pass"
    assert task.results["points"] == 25 and task.results["space_dimension"] == 12
    [(points, degree)] = calls
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        residue.cb_failures_exact(points, degree)
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 0.5


def test_exact_cb_line_that_is_not_linear_is_schema_error(tmp_path):
    doc = dict(EXACT_CB, section=["z0^2", "z1*z2"])
    doc["tasks"] = [dict(EXACT_CB["tasks"][0], lines_f=["z0^2"], lines_g=["z1", "z2"])]
    with pytest.raises(ScenarioError, match="nonzero linear forms"):
        run_scenario(write_scenario(tmp_path, doc))


@pytest.mark.parametrize("scale", ["1/10000000*", "10000000*"])
def test_curve_task_verdict_is_scale_free(tmp_path, scale):
    # the FS conic with f scaled far down or up passes as the unscaled one
    # does, with the same results
    base = run_scenario(str(SCENARIOS / "p2_example22_fs.json")).tasks[0]
    doc = json.loads((SCENARIOS / "p2_example22_fs.json").read_text())
    doc["section"] = [f"{scale}z1^2 + {scale}z2^2 - {scale}z0^2", "0"]
    task = run_scenario(write_scenario(tmp_path, doc)).tasks[0]
    assert task.verdict == "pass", task.results
    assert task.results == base.results


def test_seed_sweep_script_smoke():
    # two seeds of a cheap scenario; the sweep itself is a tier-2 tool
    script = Path(__file__).resolve().parent.parent / "scripts" / "seed_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "p1_o2", "--seeds", "0:2"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "p1_o2.json, seeds 0:2"
    cells = [re.split(r"\s{2,}", line.strip()) for line in lines[1:]]
    # the local masses are sampled; the sweep on P^1 is a rule, whose sigma is a bound
    assert cells[0] == ["estimate", "pass", "mean z^2", "max z", "z>3", "cv(sigma)", "sigma/L1 mean / max"]
    assert cells[1][:2] == ["[2] local_mass total", "2/2"] and cells[1][-1] == "-"
    assert cells[2] == ["bound", "pass", "max |value|/sigma", "sigma/L1 mean / max"]
    rows = {row[0]: row[1:] for row in cells[3:]}
    assert set(rows) == {f"[1] virtual_residue t={t}" for t in ("0.5", "1", "2")}
    for cols in rows.values():
        assert cols[0] == "2/2" and float(cols[1]) <= 1 and cols[-1] == "-"
    bad = subprocess.run([sys.executable, str(script), "p1_o2", "--seeds", "3:3"], capture_output=True, text=True)
    assert bad.returncode == 2


def test_seed_sweep_prints_a_rule_as_a_bound():
    # a conic's sigma is the rule's error bound: no calibration columns
    script = Path(__file__).resolve().parent.parent / "scripts" / "seed_sweep.py"
    proc = subprocess.run(
        [sys.executable, str(script), "p2_example22_perturbed", "--seeds", "0:2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = [re.split(r"\s{2,}", line.strip()) for line in proc.stdout.splitlines()[1:]]
    assert header == ["bound", "pass", "max |value|/sigma", "sigma/L1 mean / max"]
    assert row[:2] == ["[0] curve rule", "2/2"] and float(row[2]) <= 1


def test_mc_memory_script_smoke():
    # one small count per estimator; the growth figures themselves are tier 2
    script = Path(__file__).resolve().parent.parent / "scripts" / "mc_memory.py"
    proc = subprocess.run([sys.executable, str(script), "--samples", "2000"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [re.split(r"\s{2,}", line.strip()) for line in proc.stdout.splitlines()]
    assert header == ["estimator", "samples", "growth MB", "wall s"]
    assert [row[0] for row in rows] == ["virtual_residue p2_22", "local_mass p1_o2", "curve perturbed_cubic"]
    assert all(row[1] == "2000" and float(row[2]) >= 0 and float(row[3]) > 0 for row in rows)
    assert subprocess.run([sys.executable, str(script), "--samples", "999"], capture_output=True).returncode == 2
