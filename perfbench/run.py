#!/usr/bin/env python3
"""End-to-end benchmark of fixlat's command line, with a traced per-layer run.

    python3 perfbench/run.py --workload fixlattice --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``). The seed draws a fixed-shape batch of jobs (see workloads.py);
a fresh runner process then executes the batch in rounds, one job at a
time, until ``--seconds`` have passed. Every output is checked against an
answer computed without fixlat, and every later round must reproduce the
first round's bytes. With seed 0 the outputs must also match the digests
recorded in digests.json.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
from a run that alternates untraced and traced rounds. Spans are
written to ``.perfbench/trace-<workload>.npz`` and a summary (boundaries
fired, overhead, unattributed share) to ``.perfbench/trace-<workload>.json``.

The exit code is 0 when every job produced the expected answer and 1
otherwise; 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
RUN_LIMIT_S = 170
TAIL_BEYOND = 10

# per-layer metric -> (span name, what to read) or a derived quantity
SPAN_METRICS = {
    "chain.builds": ("chain.build", "calls"),
    "chain.build_s": ("chain.build", "self_s"),
    "chain.contains_calls": ("chain.contains", "calls"),
    "chain.contains_s": ("chain.contains", "self_s"),
    "chain.sims_filter_s": ("chain.sims_filter", "self_s"),
    "group.pointwise_stabilizer_calls": ("group.pointwise_stabilizer", "calls"),
    "group.pointwise_stabilizer_s": ("group.pointwise_stabilizer", "self_s"),
    "closure.closure_calls": ("closure.closure_mask", "calls"),
    "closure.closure_s": ("closure.closure_mask", "self_s"),
    "closure.enumerate_s": ("closure.enumerate", "self_s"),
    "closure.covers_s": ("closure.covers", "self_s"),
    "geometry.span_closure_calls": ("geometry.span_closure", "calls"),
    "geometry.span_closure_s": ("geometry.span_closure", "self_s"),
    "geometry.subspace_lattice_s": ("geometry.subspace_lattice", "self_s"),
    "lattice.tables_s": ("lattice.tables", "self_s"),
    "lattice.order_violations_s": ("lattice.order_violations", "self_s"),
    "lattice.automorphisms_s": ("lattice.automorphisms", "total_s"),
    "lattice.aut_backtrack_s": ("lattice.aut_backtrack", "self_s"),
    "lattice.separation_s": ("lattice.separation", "self_s"),
    "lattice.reconstruct_s": ("lattice.reconstruct", "self_s"),
    "relational.structure_s": ("relational.structure", "self_s"),
    "relational.tables_s": ("relational.tables", "self_s"),
    "relational.dcl_calls": ("relational.dcl", "calls"),
    "relational.dcl_s": ("relational.dcl", "self_s"),
    "relational.report_s": ("relational.report", "self_s"),
    "kernels.tuple_orbit_labels_s": ("kernels.tuple_orbit_labels", "self_s"),
    "kernels.gather_calls": ("kernels.gather", "calls"),
    "kernels.gather_s": ("kernels.gather", "self_s"),
    "steiner.isomorphism_calls": ("steiner.isomorphism", "calls"),
    "steiner.isomorphism_s": ("steiner.isomorphism", "self_s"),
    "serialize.parse_s": ("serialize.parse", "self_s"),
    "serialize.emit_s": ("serialize.emit", "self_s"),
    "serialize.dot_s": ("serialize.dot", "self_s"),
    "cli.self_s": (spans.ROOT, "self_s"),
}
COUNTER_METRICS = ["group.stab_cache_entries", "closure.cache_entries",
                   "lattice.tables_n2", "lattice.automorphisms_listed",
                   "lattice.aut_generators", "relational.completion_rows",
                   "kernels.tuple_codes", "kernels.gather_rows",
                   "kernels.gather_bytes", "serialize.output_bytes"]
LAYERS = ["chain", "group", "closure", "geometry", "lattice", "relational",
          "kernels", "steiner", "serialize"]


def fail_setup(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def best_latencies(res) -> list[float]:
    """Each job's fastest execution over the run's rounds.

    The host's speed changes on a scale of seconds (see NOTES.md); the
    fastest of several executions spread over the run is the job's cost
    with the least interference, where a mean or median would follow the
    share of the run that fell into slow phases.
    """
    return [min(col) for col in zip(*([run[0] for run in rnd["runs"]]
                                      for rnd in res["rounds"]))]


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND jobs beyond it."""
    s = sorted(latencies)
    rank = max(len(s) - TAIL_BEYOND, 1)
    return 100 * rank / len(s), s[rank - 1]


def corrupt(path: str) -> None:
    """Negative control: change the first number or flag of a job's result."""
    with open(path) as fh:
        obj = json.load(fh)

    def bump(x):
        if isinstance(x, bool):
            return not x, True
        if isinstance(x, int):
            return x + 1, True
        if isinstance(x, list):
            for i, v in enumerate(x):
                x[i], done = bump(v)
                if done:
                    return x, True
        if isinstance(x, dict):
            for k in sorted(x):
                x[k], done = bump(x[k])
                if done:
                    return x, True
        return x, False

    key = "result" if "result" in obj else next(iter(obj))
    obj[key], _ = bump(obj[key])
    with open(path, "w") as fh:
        json.dump(obj, fh)


def check_jobs(jobs, res, recorded) -> tuple[list[str], int, int]:
    """Failure reasons, executions attempted and executions failed."""
    rounds = res["rounds"]
    reasons = []
    bad = set()
    for i, job in enumerate(jobs):
        rc = rounds[-1]["runs"][i][1]
        data = Path(job.out).read_bytes() if os.path.exists(job.out) else None
        why = job.check(rc, data, res["stderr"].get(job.id, ""))
        final_digest = rounds[-1]["runs"][i][2]
        if why is None and recorded is not None and recorded.get(job.id) != final_digest:
            why = "output differs from the recorded default-seed digest"
        if why is not None:
            bad.add(i)
            reasons.append(f"{job.id}: {why}")
    attempted = failed = 0
    for rnd in rounds:
        for i, (_, rc, digest) in enumerate(rnd["runs"]):
            attempted += 1
            final = rounds[-1]["runs"][i]
            if i in bad or rc != jobs[i].expect_rc or digest != final[2]:
                failed += 1
    for i in range(len(jobs)):
        digests = {rnd["runs"][i][2] for rnd in rounds}
        if len(digests) > 1 and i not in bad:
            reasons.append(f"{jobs[i].id}: output bytes differ between rounds")
    return reasons, attempted, failed


def end_to_end(res) -> dict:
    lat = best_latencies(res)
    pct, tail = tail_latency(lat)
    print(f"jobs {len(lat)}, each the fastest of {len(res['rounds'])} rounds; "
          f"tail percentile p{pct:.1f}; setup tries {len(res['setup_s'])}")
    return {
        "jobs_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "job_tail_ms": {"value": tail * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": res["maxrss_kb"] / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
    }


def per_layer(res, workload: str) -> tuple[dict, dict]:
    """Per-layer metrics per batch round, and the trace summary."""
    traced = [r for r in res["rounds"] if r["traced"]]
    plain = [r for r in res["rounds"] if not r["traced"]]
    k = len(traced)
    st = res["spans"]
    cnt = res["counters"]

    def span(name, field):
        return st.get(name, {}).get(field, 0) / k

    def ratio(a, b):
        return a / b if b else 0.0

    m = {name: span(*src) for name, src in SPAN_METRICS.items()}
    m.update({name: cnt.get(name, 0) / k for name in COUNTER_METRICS})
    m["lattice.transitive_closure_s"] = (span("lattice.raw_from_obj", "self_s")
                                         + span("lattice.from_covers", "self_s"))
    hits = cnt.get("closure.cache_hits", 0)
    misses = cnt.get("closure.cache_misses", 0)
    m["closure.cache_hit_ratio"] = ratio(hits, hits + misses)
    m["closure.useful_ratio"] = ratio(cnt.get("closure.distinct_misses", 0), misses)
    m["lattice.listed_per_generator"] = ratio(cnt.get("lattice.automorphisms_listed", 0),
                                              cnt.get("lattice.aut_generators", 0))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for n, v in st.items()
                                   if n.startswith(layer + ".")) / k
    job_s = span(spans.ROOT, "total_s")
    m["job_s"] = job_s
    m["unattributed_share"] = ratio(m["cli.self_s"], job_s)
    wall_traced = statistics.mean(r["wall_s"] for r in traced)
    wall_plain = statistics.mean(r["wall_s"] for r in plain)
    m["trace.overhead_s"] = wall_traced - wall_plain
    m["trace.overhead_share"] = ratio(wall_traced - wall_plain, wall_plain)
    fired = sorted(n for n, v in st.items() if v["calls"])
    missing = sorted(n for n, w in spans.EXPECTED_BOUNDARIES.items()
                     if w == workload and n not in fired)
    summary = {"workload": workload, "traced_rounds": k, "untraced_rounds": len(plain),
               "spans": res["span_count"], "boundaries_fired": fired,
               "missing_boundaries": missing,
               "overhead_s_per_round": m["trace.overhead_s"],
               "unattributed_share": m["unattributed_share"]}
    return {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(m.items())}, summary


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "per_generator")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def property_shares(jobs, res) -> dict:
    """Share of the batch's job time spent on inputs with a given property."""
    per_job = best_latencies(res)
    total = sum(per_job)
    tests = {
        "intransitive": lambda p: p.get("transitive") is False,
        "lattice_size>=100": lambda p: p.get("lattice_size", 0) >= 100,
        "degree>=13": lambda p: p.get("degree", 0) >= 13,
    }
    return {name: sum(t for t, job in zip(per_job, jobs) if test(job.props)) / total
            for name, test in tests.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-output", action="store_true",
                    help="negative control: alter one job's output before checking")
    ap.add_argument("--inject-fault", action="store_true",
                    help="negative control: make the first job raise")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests as the default-seed reference")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fixlat" / "cli.py").is_file():
        return fail_setup(f"no fixlat sources under {ROOT / 'src'}; "
                          "run from a source checkout")
    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, base, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, base: Path, work: Path) -> int:
    t0 = perf_counter()
    jobs = workloads.build(args.workload, args.seed, work)
    manifest = {"jobs": [j.manifest() for j in jobs], "seconds": args.seconds,
                "trace": bool(args.trace),
                "trace_file": str(base / f"trace-{args.workload}.npz")}
    if args.inject_fault:
        manifest["jobs"][0]["inject_fault"] = True
    (work / "manifest.json").write_text(json.dumps(manifest))
    budget = RUN_LIMIT_S - (perf_counter() - t0)
    try:
        subprocess.run([sys.executable, str(HERE / "runner.py"),
                        str(work / "manifest.json"), str(work / "results.json")],
                       env=child_env(), cwd=ROOT, check=True, timeout=budget)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return fail_setup(f"job runner failed: {exc}")
    res = json.loads((work / "results.json").read_text())
    if args.corrupt_output:
        corrupt(jobs[0].out)

    recorded = None
    digest_file = HERE / "digests.json"
    if args.seed == DEFAULT_SEED and not args.record_digests and digest_file.exists():
        recorded = json.loads(digest_file.read_text()).get(args.workload)
    reasons, attempted, failed = check_jobs(jobs, res, recorded)
    for why in reasons[:20]:
        print(f"FAIL {why}")
    if args.record_digests and not reasons:
        table = json.loads(digest_file.read_text()) if digest_file.exists() else {}
        table[args.workload] = {j.id: d for j, (_, _, d)
                                in zip(jobs, res["rounds"][-1]["runs"])}
        digest_file.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    shares = property_shares(jobs, res)
    (base / f"jobs-{args.workload}.json").write_text(json.dumps(
        [{"id": j.id, "best_ms": 1000 * best, **j.props}
         for j, best in zip(jobs, best_latencies(res))], indent=1))
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per batch, "
          f"{len(res['rounds'])} rounds, failed_share {failed / attempted:.4f}")
    print("share of job time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    if args.trace:
        metrics, summary = per_layer(res, args.workload)
        summary["outputs_identical"] = not any("differ between rounds" in r
                                               for r in reasons)
        (base / f"trace-{args.workload}.json").write_text(json.dumps(summary, indent=1))
        print(f"tracing overhead {summary['overhead_s_per_round']:.4f} s per batch, "
              f"unattributed share {summary['unattributed_share']:.4f}, "
              f"boundaries fired {len(summary['boundaries_fired'])}, "
              f"missing {summary['missing_boundaries'] or 'none'}; "
              "no layer queues, so no waiting time is reported")
    else:
        metrics = end_to_end(res)
    print(json.dumps({"correct": not reasons, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not reasons else 1


if __name__ == "__main__":
    sys.exit(main())
