#!/usr/bin/env python3
"""End-to-end benchmark: capture -> beacon latency, saturated throughput,
cross-shard handoffs, audit & restart, with a per-layer budget.

One run of one workload (what the acceptance driver calls)::

    python3 benchmarks/e2e/run.py --workload capture_paced --seed 7 \\
        --seconds 10 --trace 0

prints, as its last line, one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``) that ``BENCHMARK.json`` names.

Without ``--workload`` it runs the whole suite — every workload, several
untraced runs plus one traced run each, every run a fresh process — and
prints one table with medians, quartiles and sample counts; ``--out``
saves it for ``compare.py``.  ``--smoke`` is the same suite at a size
that finishes in about twenty seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_ROOT = ROOT / ".bench_e2e"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(args, spec: dict) -> int:
    # The program under test lives in src/; without it there is nothing
    # to measure and the import below fails the run.
    sys.path.insert(0, str(ROOT / "src"))
    import compare
    import harness
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        host = harness.host_facts(ROOT, work_dir)
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass                # another run is using it
    # The host's speed when the run started and when it ended.
    host["cpu_probe_ms"] = [host["cpu_probe_ms"], harness.cpu_probe_ms()]
    measured = result["measured"]
    measured["host.peak_rss_mib"] = harness.peak_rss_mib()
    measured["host.fsync_probe_ms"] = host["fsync_probe_ms"]
    measured["host.loadavg_1m"] = host["loadavg_1m"]
    measured["host.cpu_probe_ms"] = sum(host["cpu_probe_ms"]) / 2

    named = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = set(measured) - named
    if unknown:
        raise SystemExit(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    # A layer metric a workload does not exercise prints 0; an end-to-end
    # metric must exist.
    if args.trace:
        metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": measured[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    # The end-to-end metrics BENCHMARK.json cannot gate ride on the facts
    # line, so the suite can take their medians over untraced runs too.
    user = {gate["name"]: measured[gate["name"]]
            for gate in compare.gates(spec) if gate["name"] in measured}
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "invalid": result["invalid"],
                      "failures": result["failures"], "end_to_end": user}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} "
                         f"exited {proc.returncode}")
    facts, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(facts), json.loads(result)


def run_suite(args, spec: dict) -> int:
    sys.path.insert(0, str(HERE))
    import compare
    import harness

    seconds = 1.0 if args.smoke else (args.seconds or spec["run_seconds"])
    runs = 1 if args.smoke else args.runs
    gates = compare.gates(spec)
    suite = {"seconds": seconds, "runs": runs, "seed": args.seed,
             "smoke": args.smoke, "workloads": {}}
    # Timed runs go one at a time; the smoke only checks that everything
    # runs and prints, so it may use every core.
    jobs = [(w["name"], args.seed + i, seconds, 0)
            for w in spec["workloads"] for i in range(runs)]
    jobs += [(w["name"], args.seed, seconds, 1) for w in spec["workloads"]]
    with ThreadPoolExecutor(os.cpu_count() if args.smoke else 1) as pool:
        done = dict(zip(jobs, pool.map(lambda job: _child(*job), jobs)))
    for entry in spec["workloads"]:
        name = entry["name"]
        untraced = [done[name, args.seed + i, seconds, 0]
                    for i in range(runs)]
        facts, traced = done[name, args.seed, seconds, 1]
        suite.setdefault("host", facts["host"])
        # A run whose generator ran late is marked, not reported (unless
        # nothing else is left to report).
        valid = [f for f, _ in untraced if not f["invalid"]] \
            or [f for f, _ in untraced]
        end_to_end = {}
        for gate in gates:
            if gate["name"] not in valid[0]["end_to_end"]:
                continue
            values = [f["end_to_end"][gate["name"]] for f in valid]
            q1, mid, q3 = harness.quartiles(values)
            end_to_end[gate["name"]] = {
                "unit": gate["unit"], "median": mid, "q1": q1, "q3": q3,
                "n": len(values), "values": values,
                # None: printed for this workload, gated on others only.
                "bound": gate["bound"] if name in gate["workloads"]
                else None,
            }
        per_layer = dict(traced["metrics"])
        throughput = "verified_answers_per_s" \
            if "verified_answers_per_s" in end_to_end else "events_per_s"
        base = end_to_end[throughput]["median"]
        per_layer["obs.tracing_overhead_ratio"] = {
            "value": per_layer[throughput]["value"] / base, "unit": "ratio"}
        results = [r for _, r in untraced] + [traced]
        suite["workloads"][name] = {
            "why": entry["why"],
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "invalid_runs": sum(f["invalid"] for f, _ in untraced)
            + facts["invalid"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    _print_suite(suite)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(suite, fh, indent=1)
    return 0 if all(w["correct"] for w in suite["workloads"].values()) \
        else 1


def _print_suite(suite: dict) -> None:
    host = suite["host"]
    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"git={host['git_revision']} loadavg_1m={host['loadavg_1m']:.2f} "
          f"fsync_probe_ms={host['fsync_probe_ms']:.3f} "
          f"cpu_probe_ms={host['cpu_probe_ms']}")
    print(f"suite: {suite['runs']} untraced + 1 traced run per workload, "
          f"{suite['seconds']} s each, seeds from {suite['seed']}")
    for name, w in suite["workloads"].items():
        print(f"\n== {name}: correct={w['correct']} "
              f"failed={w['failed']}/{w['attempted']} "
              f"invalid_runs={w['invalid_runs']}")
        print(f"   {w['why']}")
        print(f"   {'end-to-end metric':34s} {'median':>14s} "
              f"{'q1':>14s} {'q3':>14s} {'n':>3s}  unit (bound)")
        for metric, row in w["end_to_end"].items():
            bound = "not gated here" if row["bound"] is None else \
                f"{row['bound']:.0%}" if row["bound"] else "exact"
            print(f"   {metric:34s} {row['median']:14.4f} "
                  f"{row['q1']:14.4f} {row['q3']:14.4f} {row['n']:3d}  "
                  f"{row['unit']} ({bound})")
        print(f"   {'per-layer metric (traced run)':50s} {'value':>14s}")
        for metric, row in w["per_layer"].items():
            print(f"   {metric:50s} {row['value']:14.4f}  {row['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the main phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="suite: untraced runs per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="suite at a size that takes ~20 s")
    parser.add_argument("--out", help="suite: write the result JSON here")
    args = parser.parse_args()
    spec = load_spec()
    if args.workload is None:
        return run_suite(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    os.chdir(ROOT)
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
