"""The bundled scenarios' instances, for tests that run them outside the harness."""

import json
from pathlib import Path

from residue_lab.harness import Scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scenario_context(name: str):
    """A new GeometryContext of ``scenarios/<name>.json``, built as
    ``residue-lab verify`` builds it."""
    return Scenario.from_dict(json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))).geometry()
