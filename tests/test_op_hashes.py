"""Smoke test of scripts/op_hashes.py, which hashes the output of every
prepared benchmark operation so that two checkouts compare with one diff."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "op_hashes.py"


def test_two_runs_print_the_same_lines():
    cmd = [sys.executable, str(SCRIPT), "oracle", "7007", "--seconds", "1"]
    runs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) for _ in range(2)]
    outputs = [proc.communicate(timeout=120)[0] for proc in runs]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) > 2
    for index, line in enumerate(lines[:-1]):
        assert re.fullmatch(rf"7007 {index} (flat_gaussian|fiber_[23]_\w+) [0-9a-f]{{64}}", line)
    assert re.fullmatch(r"7007 digest [0-9a-f]{64}", lines[-1])
