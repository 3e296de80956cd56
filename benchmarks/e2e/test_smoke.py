"""Smoke test of the end-to-end benchmark: the suite runs at its smallest
size, prints every workload and metric ``BENCHMARK.json`` names with a
unit, and a result compared against itself passes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_smoke_suite_prints_every_named_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "suite.json"
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    suite = json.loads(out.read_text())
    for key in ("nproc", "python", "git_revision", "loadavg_1m",
                "fsync_probe_ms", "cpu_probe_ms"):
        assert key in suite["host"]

    assert set(suite["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, result in suite["workloads"].items():
        assert name in run.stdout
        assert result["correct"], (name, result["failed"])
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                row = result[section][metric["name"]]
                assert row["unit"] == metric["unit"]
                assert metric["name"] in run.stdout
        for metric in spec["end_to_end"]:
            row = result["end_to_end"][metric["name"]]
            assert row["median"] > 0 and row["n"] >= 1
        assert "obs.tracing_overhead_ratio" in result["per_layer"]
        if name.startswith("capture"):
            coverage = result["per_layer"]["trace.node_loop_coverage"]
            assert coverage["value"] >= 0.95

    same = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert same.returncode == 0, same.stdout
    assert "REGRESSION" not in same.stdout
    # The issue's metrics that exist on one workload only are compared too.
    for metric in ("failed_ops_ratio", "handoff_settle_p50_ms", "recovery_s",
                   "replica_catchup_s", "evidence_lost_records"):
        assert metric in same.stdout
