"""Each benchmark workload's seed-0 batch runs correctly.

One short run per workload (``--seconds 0``: the minimum number of rounds)
checks every output against its oracle and against the seed-0 digests in
``perfbench/digests.json``. A byte change in any workload's output then
fails here, not only in a benchmark run.
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
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
