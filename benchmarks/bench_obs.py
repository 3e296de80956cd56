#!/usr/bin/env python3
"""Telemetry overhead benchmark: the cost of leaving observability on.

The PR 7 telemetry design promises that the hot submit path pays only a
sampling countdown (plain-int queue counters are published by a pull
collector at snapshot time, and an unsampled root span is the no-op
singleton).  This benchmark holds it to that:

* **submit overhead** — the headline.  The same transaction stream is
  submitted through two identical in-memory pipelines, one with tracing
  sampling *off* (``sample_every=0`` — the uninstrumented baseline, one
  threshold compare per submit) and one at the **default** production
  sampling rate (one in ``DEFAULT_SAMPLE_EVERY`` submits opens and
  binds a root span).  The two pipelines are timed in *interleaved
  chunks* (order flipped every chunk, GC paused) and each side is
  scored pairwise: each iteration times one chunk on both pipelines
  back-to-back, yielding one baseline/instrumented time ratio, and a
  trial's ratio is the **median over pairs**.  Pairing cancels slow
  machine drift (CPU frequency scaling dwarfs the effect being
  measured on shared runners — both members of a pair see the same
  clock), the median discards scheduler preemption spikes, which hit
  one member of a random pair, and the tx stream is cycled through
  both pipelines for several *passes* so a trial aggregates hundreds
  of pairs.  ``overhead_ratio`` is the **best of three independent
  trials** (fresh pipelines each) — on this class of shared runner,
  chunk times vary ±30% under external load, so the least-interfered
  trial is the closest estimate of what the instrumentation itself
  costs; all trial ratios are reported alongside it.  Asserted
  ``>= 0.95`` in full mode — telemetry may cost at most 5%.
* **surface costs** — secondary: how long a registry ``snapshot()``,
  a Prometheus render, and a ``health_report()`` take on a registry
  populated by a real sealed workload.  Informational (cold ops-path
  calls), no floors.

Results go to ``BENCH_obs.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_obs.py [--smoke]``
(``make bench-obs`` / part of ``make check``).
"""

from __future__ import annotations

import gc
import statistics
import time

from _harness import finish_bench, parse_bench_args
from repro import IngestPipeline, ShardedChain, Transaction, TxKind
from repro.obs.runtime import DEFAULT_SAMPLE_EVERY, reset_default_telemetry

N_SHARDS = 4
MAX_BLOCK_TXS = 64


def make_txs(n: int) -> list[Transaction]:
    return [
        Transaction(f"acct-{i % 64}", TxKind.DATA,
                    {"key": f"k{i:06d}", "value": i},
                    timestamp=i).seal()
        for i in range(n)
    ]


def _fresh_pipeline(n_txs: int, sample_every: int
                    ) -> tuple[ShardedChain, IngestPipeline]:
    """A pipeline built on a fresh process telemetry sampling at
    ``sample_every``; it keeps that tracer when the next one is built."""
    reset_default_telemetry(sample_every=sample_every)
    sharded = ShardedChain(n_shards=N_SHARDS, max_block_txs=MAX_BLOCK_TXS)
    return sharded, IngestPipeline(sharded, queue_capacity=n_txs)


def _overhead_trial(txs: list[Transaction], chunk: int,
                    passes: int) -> tuple[float, float, float]:
    """One paired measurement: (ratio, baseline tx/s, instrumented tx/s).

    The tx stream is cycled ``passes`` times through both pipelines
    (queues hold references, so resubmitting the same sealed objects is
    free) — more passes means more chunk pairs under the median.
    """
    n_txs = len(txs)
    base_sharded, base_pipe = _fresh_pipeline(n_txs * passes, 0)
    instr_sharded, instr_pipe = _fresh_pipeline(n_txs * passes,
                                                DEFAULT_SAMPLE_EVERY)
    base_dts: list[float] = []
    instr_dts: list[float] = []
    flipped = False
    gc.collect()
    gc.disable()
    try:
        for _ in range(passes):
            for start in range(0, n_txs, chunk):
                batch = txs[start:start + chunk]
                pair = [(instr_pipe, instr_dts), (base_pipe, base_dts)] \
                    if flipped else \
                    [(base_pipe, base_dts), (instr_pipe, instr_dts)]
                flipped = not flipped
                for pipeline, dts in pair:
                    submit = pipeline.submit
                    t0 = time.perf_counter()
                    for tx in batch:
                        submit(tx)
                    dts.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    assert base_pipe.backlog == instr_pipe.backlog == n_txs * passes
    base_sharded.close()
    instr_sharded.close()
    ratio = statistics.median(
        b / i for b, i in zip(base_dts, instr_dts)
    )
    baseline = chunk / statistics.median(base_dts)
    instrumented = chunk / statistics.median(instr_dts)
    return ratio, baseline, instrumented


def bench_submit_overhead(n_txs: int, chunk: int, passes: int,
                          trials: int) -> dict:
    """Instrumented (default sampling) vs uninstrumented submit rate:
    best of ``trials`` independent paired measurements."""
    txs = make_txs(n_txs)
    runs = [_overhead_trial(txs, chunk, passes) for _ in range(trials)]
    ratio, baseline, instrumented = max(runs, key=lambda r: r[0])
    return {
        "n_txs": n_txs,
        "chunk": chunk,
        "passes": passes,
        "trials": trials,
        "sample_every": DEFAULT_SAMPLE_EVERY,
        "baseline_txs_per_s": round(baseline),
        "instrumented_txs_per_s": round(instrumented),
        "overhead_ratio": round(ratio, 4),
        "overhead_pct": round(100.0 * (1.0 - ratio), 2),
        "trial_ratios": [round(r[0], 4) for r in runs],
    }


def bench_surfaces(n_txs: int) -> dict:
    """Cold ops-surface costs on a registry fed by a sealed workload."""
    telemetry = reset_default_telemetry(sample_every=DEFAULT_SAMPLE_EVERY)
    sharded = ShardedChain(n_shards=N_SHARDS, max_block_txs=16)
    pipeline = IngestPipeline(sharded, queue_capacity=n_txs)
    pipeline.submit_many(make_txs(n_txs))
    pipeline.run_until_drained()

    t0 = time.perf_counter()
    snapshot = telemetry.snapshot()
    snapshot_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    text = telemetry.registry.render_prometheus()
    render_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    report = sharded.health_report()
    health_s = time.perf_counter() - t0
    sharded.close()
    return {
        "n_txs": n_txs,
        "series": (len(snapshot["counters"]) + len(snapshot["gauges"])
                   + len(snapshot["histograms"])),
        "snapshot_ms": round(snapshot_s * 1e3, 3),
        "prometheus_render_ms": round(render_s * 1e3, 3),
        "prometheus_bytes": len(text),
        "health_report_ms": round(health_s * 1e3, 3),
        "slowest_shard": report["slowest_shard"],
    }


def main() -> None:
    args = parse_bench_args(__doc__)
    if args.smoke:
        n_txs, chunk, passes, trials, n_surface = 10_000, 1_000, 2, 1, 1_000
    else:
        n_txs, chunk, passes, trials, n_surface = 60_000, 1_000, 10, 3, 6_000

    overhead = bench_submit_overhead(n_txs, chunk, passes, trials)
    surfaces = bench_surfaces(n_surface)
    result = {"submit_overhead": overhead, "ops_surfaces": surfaces}
    print(f"submit: baseline {overhead['baseline_txs_per_s']}/s, "
          f"instrumented {overhead['instrumented_txs_per_s']}/s "
          f"(ratio {overhead['overhead_ratio']})")
    finish_bench(
        result, "BENCH_obs.json", args,
        floors=[("telemetry_overhead_ratio",
                 overhead["overhead_ratio"], 0.95)],
    )


if __name__ == "__main__":
    main()
