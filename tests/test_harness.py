"""Scenario loading, task dispatch, report emission, CLI exit codes."""

import json
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

import pytest

from residue_lab import harness, residue
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
            return SimpleNamespace(value=0.0, std_error=std_error, rejected=0, pointwise_max=0.0, l1_mass=1.0)

        monkeypatch.setattr(harness, "curve_localized_term", term)
        assert run(perturbed).results["sigma_vs_l1_ok"] is precise
        assert calls["curve_localized_term"] == 30000


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
    with pytest.raises(ScenarioError, match="at least 1000"):
        run_scenario(path, samples=999)
    assert main(["verify", path, "--samples", "999"]) == 2
    lm = {"kind": "local_mass", "t": 0.01, "radius": 0.5, "rtol": 0.05}
    task = run_scenario(write_scenario(tmp_path, dict(BASE_P1, tasks=[lm]), "lm.json"), samples=500).tasks[0]
    assert task.results["samples"] == 500 and len(task.results["masses"]) == 2


VALID_TASKS = {
    "euler_jacobi": {"kind": "euler_jacobi", "tol": 1e-8, "seed": 1},
    "cayley_bacharach": {"kind": "cayley_bacharach", "lines_f": ["z0"], "lines_g": ["z1"]},
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
    schema error (exit 2): the sample count first, then every other key."""
    doc = dict(BASE_P1)
    doc["tasks"] = [dict(VALID_TASKS[kind], **{key: value})]
    path = write_scenario(tmp_path, doc)
    with pytest.raises(ScenarioError, match=key):
        run_scenario(path)
    assert main(["verify", path]) == 2


def test_valid_tasks_accepted():
    Scenario.from_dict(dict(BASE_P2, tasks=list(VALID_TASKS.values())))


@pytest.mark.parametrize(
    "changes, task, message",
    [
        pytest.param({"psi": None}, VALID_TASKS[kind], f"{kind} requires psi", id=f"{kind}-without-psi")
        for kind in ("euler_jacobi", "virtual_residue", "local_mass", "curve_localization")
    ]
    + [
        pytest.param(BASE_P1, VALID_TASKS[kind], f"{kind} runs on P^2", id=f"{kind}-on-P1")
        for kind in ("cayley_bacharach", "generalized_cb")
    ]
    + [
        pytest.param(changes, dict(kind=kind, **keys), f"{missing!r} is required", id=name)
        for name, changes, kind, keys, missing in [
            ("no-cofactor", {}, "generalized_cb", {"curve_factor": "z0"}, "cofactor"),
            ("no-curve-factor", {}, "generalized_cb", {"cofactor": "z1"}, "curve_factor"),
            ("exact-no-lines-f", {"backend": "exact"}, "cayley_bacharach", {"lines_g": ["z1"]}, "lines_f"),
            ("exact-empty-lines-g", {"backend": "exact"}, "cayley_bacharach", {"lines_f": ["z0"], "lines_g": []}, "lines_g"),
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
    """Replace every kind's runner by one that records its kind; returns the record."""
    entered = []
    for kind, spec in harness.KINDS.items():
        monkeypatch.setitem(harness.KINDS, kind, replace(spec, run=lambda *args, kind=kind: entered.append(kind)))
    return entered


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
    "key, value", [("q", "z0 +"), ("q", "z0^5"), ("epsilon", -1.0), ("pair", [0, 0]), ("f_index", 2)]
)
def test_perturbed_metric_checked_before_any_task(tmp_path, monkeypatch, capsys, key, value):
    # an Euler-Jacobi task, which builds no metric, before the curve task
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
    # f = z1 - z0 does not involve z2, so no sheet lies over w_1
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
    assert task.verdict == "precondition-failed"
    assert task.results["error"] == "the curve has no sheets over w_1: f does not involve w_2"
    assert main(["verify", path]) == 1


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
    # does, with the same rejections
    base = run_scenario(str(SCENARIOS / "p2_example22_fs.json")).tasks[0]
    doc = json.loads((SCENARIOS / "p2_example22_fs.json").read_text())
    doc["section"] = [f"{scale}z1^2 + {scale}z2^2 - {scale}z0^2", "0"]
    task = run_scenario(write_scenario(tmp_path, doc)).tasks[0]
    assert task.verdict == "pass", task.results
    assert task.results["rejected_samples"] == base.results["rejected_samples"]


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
    assert cells[0] == ["estimate", "pass", "mean z^2", "max z", "z>3", "cv(sigma)", "sigma/L1 mean / max"]
    rows = {row[0]: row[1:] for row in cells[1:]}
    assert set(rows) == {f"[1] virtual_residue t={t}" for t in ("0.5", "1", "2")} | {"[2] local_mass total"}
    for cols in rows.values():
        assert cols[0] == "2/2" and cols[-1] == "-"
    bad = subprocess.run([sys.executable, str(script), "p1_o2", "--seeds", "3:3"], capture_output=True, text=True)
    assert bad.returncode == 2


def test_t_sweep_script_smoke():
    # one small sweep of p1_o2's instance; the figures themselves are tier 2
    script = Path(__file__).resolve().parent.parent / "scripts" / "t_sweep.py"
    args = [sys.executable, str(script), "--samples", "2000", "--scenario", "p1"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    title, header, *rows = proc.stdout.splitlines()
    assert title == "scenario p1, 2000 samples, seed 1"
    assert header.split() == ["t", "Re", "value", "Im", "value", "sigma", "|z|"]
    assert [float(row.split()[0]) for row in rows] == [0.2, 0.5, 1.0, 2.0, 5.0]
    assert subprocess.run([sys.executable, str(script), "--samples", "500"], capture_output=True).returncode == 2


def test_mc_memory_script_smoke():
    # one small count per estimator; the growth figures themselves are tier 2
    script = Path(__file__).resolve().parent.parent / "scripts" / "mc_memory.py"
    proc = subprocess.run([sys.executable, str(script), "--samples", "2000"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [re.split(r"\s{2,}", line.strip()) for line in proc.stdout.splitlines()]
    assert header == ["estimator", "samples", "growth MB", "wall s"]
    assert [row[0] for row in rows] == ["virtual_residue p2_22", "local_mass p1_o2", "curve p2_example22_perturbed"]
    assert all(row[1] == "2000" and float(row[2]) >= 0 and float(row[3]) > 0 for row in rows)
    assert subprocess.run([sys.executable, str(script), "--samples", "999"], capture_output=True).returncode == 2
