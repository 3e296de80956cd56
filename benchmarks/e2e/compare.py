#!/usr/bin/env python3
"""Compare two suite results (``run.py --out``): baseline A, candidate B.

One row per (end-to-end metric, workload).  A row is a *regression* when
B's median is worse than A's by more than the metric's bound; it is
*unresolved* when either side's own quartile spread exceeds that bound,
because the runs cannot tell the two apart.  An *exact* metric (bound 0)
is a count that repeats for a seed: any worse median is a regression, and
the row is unresolved unless both suites ran the same seeds.
Exits 1 on any regression or failed correctness check, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# The issue's end-to-end table.  ``BENCHMARK.json`` cannot hold it: its
# end-to-end list applies every metric to every workload, may hold no
# zero, and is refused when ten runs of one commit spread by more than the
# bound, which no raw timing on this host stays under (see the README).
# So these are printed as per-layer metrics and gated here, on the
# workloads and with the bounds the issue gives them, never widened.
# metric -> (workloads, bound); None: every workload; 0.0: exact.
WORKLOAD_GATES = {
    "failed_ops_ratio": (None, 0.0),
    "events_per_s": (("capture_saturated",), 0.10),
    "cpu_ms_per_event": (("capture_saturated",), 0.10),
    "commit_p50_ms": (("capture_paced", "handoff_mix"), 0.10),
    "commit_p90_ms": (("capture_paced",), 0.15),
    "handoff_settle_p50_ms": (("handoff_mix",), 0.15),
    "handoff_settle_p90_ms": (("handoff_mix",), 0.25),
    "verified_answers_per_s": (("audit_restart",), 0.10),
    "history_p50_ms": (("audit_restart",), 0.10),
    "history_p90_ms": (("audit_restart",), 0.15),
    "recovery_s": (("audit_restart",), 0.15),
    "replica_catchup_s": (("audit_restart",), 0.10),
    "evidence_lost_records": (("audit_restart",), 0.0),
    "stored_bytes_per_event": (("audit_restart",), 0.02),
}


def gates(spec: dict) -> list[dict]:
    """Every gated (metric, workloads) of the benchmark: the end-to-end
    list of ``BENCHMARK.json`` on all workloads, then ``WORKLOAD_GATES``."""
    every = tuple(w["name"] for w in spec["workloads"])
    rows = [dict(m, workloads=every) for m in spec["end_to_end"]]
    layer = {m["name"]: m for m in spec["per_layer"]}
    for name, (workloads, bound) in WORKLOAD_GATES.items():
        rows.append(dict(layer[name], bound=bound,
                         workloads=workloads or every))
    return rows


def spread(row: dict) -> float:
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], bool]:
    rows, failed = [], False
    same_seeds = (a["seed"], a["runs"]) == (b["seed"], b["runs"])
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        if not (wa["correct"] and wb["correct"]):
            failed = True
        for gate in gates(spec):
            if workload not in gate["workloads"]:
                continue
            ra = wa["end_to_end"][gate["name"]]
            rb = wb["end_to_end"][gate["name"]]
            delta = rb["median"] - ra["median"]
            change = delta / ra["median"] if ra["median"] else float(delta)
            worse = change if gate["better"] == "lower" else -change
            if gate["bound"] == 0.0:
                unresolved = not same_seeds
            else:
                unresolved = max(spread(ra), spread(rb)) > gate["bound"]
            if unresolved:
                verdict = "unresolved"
            elif worse > gate["bound"]:
                verdict = "REGRESSION"
                failed = True
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": gate["name"],
                "unit": gate["unit"], "a": ra["median"],
                "b": rb["median"], "change": change,
                "spread_a": spread(ra), "spread_b": spread(rb),
                "bound": gate["bound"], "verdict": verdict,
            })
    return rows, failed


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        b = json.load(fh)
    rows, failed = compare(a, b, spec)
    print(f"{'workload':18s} {'metric':24s} {'A median':>13s} "
          f"{'B median':>13s} {'change':>8s} {'iqr A':>7s} {'iqr B':>7s} "
          f"{'bound':>6s}  verdict")
    for r in rows:
        bound = f"{r['bound']:6.0%}" if r["bound"] else " exact"
        print(f"{r['workload']:18s} {r['metric']:24s} {r['a']:13.4f} "
              f"{r['b']:13.4f} {r['change']:+8.1%} {r['spread_a']:7.1%} "
              f"{r['spread_b']:7.1%} {bound}  {r['verdict']}")
    for name, side in (("A", a), ("B", b)):
        for workload, w in side["workloads"].items():
            if not w["correct"]:
                print(f"{name}: {workload} failed its correctness checks "
                      f"({w['failed']} of {w['attempted']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
