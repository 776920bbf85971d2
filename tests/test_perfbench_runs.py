"""Each benchmark workload's seed-0 batch runs correctly, traced.

One short traced run per workload (``--seconds 0 --trace 1``: one traced
and two untraced rounds) checks every output against its oracle and
against the seed-0 digests in ``perfbench/digests.json``. A byte change
in any workload's output then fails here, not only in a benchmark run.
So does a ``src/`` change that stops a pinned span boundary from firing,
or that makes traced and untraced outputs differ.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["fixlattice", "reconstruct", "dclcheck"])
def test_seed0_batch_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    summary = json.loads((ROOT / ".perfbench" / f"trace-{workload}.json").read_text())
    assert summary["missing_boundaries"] == []
    assert summary["outputs_identical"] is True
