"""Job runner: the workload's own process.

Started by run.py with a manifest of jobs. Runs the whole batch in rounds,
one job at a time (a closed loop with a single client and no threads),
until the time budget is spent, and writes latencies, exit codes and
output digests to a results file. Untraced runs also time a fresh
interpreter importing ``fixlat.cli`` before the first round and after
every round, so that the set-up tries spread over the whole run. CLI jobs go through
``fixlat.cli.main([...])`` exactly as a command line would; the Steiner
isomorphism job calls the public library function because the CLI has no
command for it. With tracing on, untraced and traced rounds alternate,
so that the two can be compared.

Usage: python3 runner.py MANIFEST RESULTS
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixlat  # noqa: E402
from fixlat import cli, serialize  # noqa: E402

# Each job's latency is its fastest execution, so every job runs at least
# this often; a run that reaches the time budget earlier goes on until then.
MIN_ROUNDS = 3
# exit code recorded for a job that raised instead of returning one
RAISED = -1


def steiner_iso_job(paths: list[str], out: str) -> int:
    systems = []
    for path in paths:
        with open(path) as fh:
            systems.append(serialize.steiner_from_obj(json.load(fh)))
    iso = fixlat.steiner_isomorphism(*systems)
    payload = serialize.canonical_json(
        {"isomorphism": list(iso) if iso is not None else None})
    with open(out, "w") as fh:
        fh.write(payload)
    return 0


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing fixlat.cli.

    No timeout here: with one, Popen.wait polls in steps of up to 50 ms,
    which would quantize the measurement.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import fixlat.cli"], check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def call_job(job: dict, out: str) -> int:
    if job.get("inject_fault"):
        raise RuntimeError("fault injected by the negative control")
    if job["kind"] == "cli":
        return cli.main(job["argv"] + ["--out", out])
    return steiner_iso_job(job["inputs"], out)


def run_once(job: dict, tracer=None, index: int = 0):
    """One execution: (seconds, exit code, output digest, stderr text).

    A job that raises is recorded with exit code RAISED and its traceback,
    so that it counts as failed instead of stopping the run.
    """
    out = job["out"]
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        span = tracer.begin_job(index) if tracer is not None else None
        t0 = perf_counter()
        try:
            rc = call_job(job, out)
        except Exception:
            rc = RAISED
            err.write(traceback.format_exc())
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_job(span)
    digest = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return elapsed, rc, digest, err.getvalue()


def run_round(jobs, tracer=None) -> tuple[dict, dict]:
    """The whole batch once: the round's record and each job's stderr."""
    runs = []
    stderr = {}
    r0 = perf_counter()
    for i, job in enumerate(jobs):
        elapsed, rc, digest, err = run_once(job, tracer, i)
        runs.append([elapsed, rc, digest])
        stderr[job["id"]] = err
    return {"wall_s": perf_counter() - r0, "traced": tracer is not None,
            "runs": runs}, stderr


def main(argv) -> int:
    manifest_path, results_path = argv
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    jobs = manifest["jobs"]
    seconds = float(manifest["seconds"])
    tracer = None
    if manifest["trace"]:
        import spans
        tracer = spans.Tracer()
    # Traced runs alternate untraced and traced rounds, so that drift
    # affects both alike. A started round is always finished.
    t_start = perf_counter()
    rounds = []
    setup = [] if tracer else [setup_seconds()]
    while len(rounds) < MIN_ROUNDS or perf_counter() - t_start < seconds:
        if tracer is not None and len(rounds) % 2:
            inst = spans.install(tracer)
            try:
                rnd, stderr = run_round(jobs, tracer)
            finally:
                inst.undo()
        else:
            rnd, stderr = run_round(jobs)
            setup.append(setup_seconds())
        rounds.append(rnd)
    result = {"rounds": rounds, "stderr": stderr, "setup_s": setup,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.save(manifest["trace_file"])
        result["spans"] = tracer.span_stats()
        result["counters"] = dict(tracer.counters)
        result["span_count"] = len(tracer.start)
    with open(results_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
