#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. Every workload, traced, at the default seed: every job passes its
   oracle and matches the recorded digest, traced and untraced outputs
   are byte-identical, every boundary listed for the workload in
   spans.EXPECTED_BOUNDARIES fires, and the run reports exactly the
   per-layer metrics that BENCHMARK.json declares.
2. Negative controls: a run whose first output is corrupted, and a run
   whose first job raises, each report failed > 0, print the result line
   and exit 1.
3. Without the program's sources the benchmark exits nonzero and prints
   no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    problems = []
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    for w in workloads.WORKLOADS:
        rc, res = bench("--workload", w, "--seed", "0", "--seconds", "1", "--trace", "1")
        summary = json.loads((ROOT / ".perfbench" / f"trace-{w}.json").read_text())
        if rc != 0 or not res or not res["correct"] or res["failed"]:
            problems.append(f"{w}: traced run failed (exit {rc})")
            continue
        if not summary["outputs_identical"]:
            problems.append(f"{w}: traced and untraced outputs differ")
        if summary["missing_boundaries"]:
            problems.append(f"{w}: boundaries never fired: {summary['missing_boundaries']}")
        reported = {k: v["unit"] for k, v in res["metrics"].items()}
        if reported != declared:
            problems.append(f"{w}: per-layer metrics differ from BENCHMARK.json: "
                            f"{sorted(set(reported.items()) ^ set(declared.items()))}")
        print(f"{w}: traced run ok, {len(summary['boundaries_fired'])} boundaries fired")

    for control in ("--corrupt-output", "--inject-fault"):
        rc, res = bench("--workload", "reconstruct", "--seed", "0", "--seconds", "1",
                        "--trace", "0", control)
        if rc != 1 or not res or res["correct"] or not res["failed"]:
            problems.append(f"negative control {control} was not detected "
                            f"(exit {rc}, {res})")
        else:
            print(f"negative control {control}: exit {rc}, failed_share "
                  f"{res['failed'] / res['attempted']:.3f}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, res = bench("--workload", "fixlattice", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or res is not None:
        problems.append(f"run without sources did not fail cleanly (exit {rc})")
    else:
        print(f"without sources: exit {rc}, no result printed")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
