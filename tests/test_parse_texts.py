"""Smoke test of scripts/parse_texts.py, which digests the term maps of every
polynomial text the benchmark workloads and the bundled scenarios parse, so
that two checkouts compare with one diff."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "parse_texts.py"


def test_one_unit_of_oracle_and_the_bundled_scenarios():
    cmd = [sys.executable, str(SCRIPT), "7007", "--workload", "oracle", "--seconds", "1", "--time"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    oracle, scenarios = proc.stdout.splitlines()
    digest = r"sha256 [0-9a-f]{64} parse_ms [0-9]+\.[0-9]{2}"
    assert re.fullmatch(rf"oracle 7007 texts [1-9][0-9]* exact 0 {digest}", oracle)
    assert re.fullmatch(rf"scenarios - texts 27 exact 7 {digest}", scenarios)
