#!/usr/bin/env python3
"""Ingestion benchmark: pipelined vs synchronous durable capture.

Measures what the ISSUE-4 ingestion pipeline buys on a durable 4-shard
deployment absorbing a bursty capture stream (each event = one
provenance record + one capture transaction):

* **pipeline vs synchronous** — the headline.  The synchronous baseline
  is the PR 3 path: every event pays routing, per-record durable insert
  (one sqlite transaction + log write each), and mempool admission
  inline, and sealing drains one block per shard per round with one
  index transaction per block.  The pipelined path parks events in
  bounded per-shard queues (submit is O(1)), group-commits records
  (one log write + one fsync + one index transaction per shard per
  burst), batch-admits into mempools, and seals multiple blocks per
  shard per round through the chain's group-commit surface with the
  shards sealing on a thread pool.  ``sustained_speedup`` is asserted
  ``>= 2.0`` in full mode.
* **submit latency** — p50/p99 of what the capture source waits per
  event: the full synchronous ingest call vs the pipeline's enqueue.
* **group-commit vs per-append** — store-level micro for records and
  blocks: the same data committed one-at-a-time vs in groups.  The
  record-path speedup is asserted ``>= 2.0`` in full mode.

Results go to ``BENCH_ingest.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_ingest.py [--smoke]``
(``make bench-ingest`` / part of ``make check``).
"""

from __future__ import annotations

import gc
import json
import shutil
import tempfile
import time
from pathlib import Path

from _harness import finish_bench, parse_bench_args
from repro import IngestPipeline, ShardedChain, Transaction, TxKind
from repro.chain import Blockchain, ChainParams
from repro.crypto import signatures as sig
from repro.crypto.signatures import KeyPair
from repro.persist import DurableStorage
from repro.storage.provdb import ProvenanceDatabase

N_SHARDS = 4
MAX_BLOCK_TXS = 16
ANCHOR_BATCH = 64


def make_events(n: int) -> list[tuple[dict, Transaction]]:
    events = []
    for i in range(n):
        subject = f"tenant-{i % 41}/obj-{i % 7}"
        record = {
            "record_id": f"r{i:07d}", "subject": subject,
            "actor": f"sensor-{i % 17}", "operation": "observe",
            "timestamp": i,
        }
        tx = Transaction(
            f"sensor-{i % 17}", TxKind.DATA,
            {"subject": subject, "key": f"k{i}", "value": i},
            timestamp=i,
        ).seal()
        events.append((record, tx))
    return events


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[int(p * (len(ordered) - 1))]


def latency_stats(samples: list[float]) -> dict:
    return {
        "p50_us": round(percentile(samples, 0.50) * 1e6, 1),
        "p99_us": round(percentile(samples, 0.99) * 1e6, 1),
        "max_us": round(max(samples) * 1e6, 1),
    }


def bench_synchronous(events, burst: int, store_dir: str) -> dict:
    """PR 3 baseline: per-event durable ingest, per-append sealing."""
    sharded = ShardedChain(
        n_shards=N_SHARDS, max_block_txs=MAX_BLOCK_TXS,
        anchor_batch_size=ANCHOR_BATCH, storage_dir=store_dir,
        seal_workers=1,
    )
    gc.collect()
    latencies = []
    t0 = time.perf_counter()
    for i, (record, tx) in enumerate(events):
        e0 = time.perf_counter()
        sharded.ingest_record(record)
        sharded.submit(tx)
        latencies.append(time.perf_counter() - e0)
        if (i + 1) % burst == 0:
            while sharded.mempool_backlog:
                sharded.seal_round()
    sharded.flush_anchors()
    while sharded.mempool_backlog:
        sharded.seal_round()
    total_s = time.perf_counter() - t0
    committed = sharded.total_txs_committed
    sharded.verify_all()
    sharded.close()
    return {
        "total_s": round(total_s, 4),
        "events_per_s": round(len(events) / total_s),
        "txs_committed": committed,
        "submit_latency": latency_stats(latencies),
    }


def bench_pipelined(events, burst: int, store_dir: str) -> dict:
    """ISSUE 4 path: queued submission, group-committed records and
    blocks, thread-pool sealing."""
    sharded = ShardedChain(
        n_shards=N_SHARDS, max_block_txs=MAX_BLOCK_TXS,
        anchor_batch_size=ANCHOR_BATCH, storage_dir=store_dir,
    )
    pipeline = IngestPipeline(sharded, queue_capacity=4 * burst,
                              max_blocks_per_round=32)
    gc.collect()
    latencies = []
    record_batch: list[dict] = []
    t0 = time.perf_counter()
    for i, (record, tx) in enumerate(events):
        e0 = time.perf_counter()
        record_batch.append(record)
        pipeline.submit(tx)
        latencies.append(time.perf_counter() - e0)
        if (i + 1) % burst == 0:
            sharded.ingest_records(record_batch)
            record_batch = []
            pipeline.seal_round()
    if record_batch:
        sharded.ingest_records(record_batch)
    sharded.flush_anchors()
    pipeline.run_until_drained()
    total_s = time.perf_counter() - t0
    committed = sharded.total_txs_committed
    stats = pipeline.stats
    sharded.verify_all()
    sharded.close()
    return {
        "total_s": round(total_s, 4),
        "events_per_s": round(len(events) / total_s),
        "txs_committed": committed,
        "submit_latency": latency_stats(latencies),
        "pipeline": {
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "rejected": stats.rejected,
            "rounds_sealed": stats.rounds_sealed,
            "seal_workers": N_SHARDS,
        },
    }


def bench_group_commit_records(n_records: int, group: int,
                               root: Path) -> dict:
    records = [
        {"record_id": f"g{i:07d}", "subject": f"asset/{i % 97}",
         "actor": f"actor-{i % 13}", "operation": "update", "timestamp": i}
        for i in range(n_records)
    ]
    storage = DurableStorage(str(root / "rec-per"))
    per_db = ProvenanceDatabase(store=storage.records)
    gc.collect()
    t0 = time.perf_counter()
    for record in records:
        per_db.insert(record)
    per_s = time.perf_counter() - t0
    storage.close()

    storage = DurableStorage(str(root / "rec-grp"))
    grp_db = ProvenanceDatabase(store=storage.records)
    gc.collect()
    t0 = time.perf_counter()
    for i in range(0, n_records, group):
        grp_db.insert_many(records[i:i + group])
    grp_s = time.perf_counter() - t0
    assert len(grp_db) == len(per_db) == n_records
    storage.close()
    return {
        "n_records": n_records,
        "group_size": group,
        "per_append_s": round(per_s, 4),
        "group_commit_s": round(grp_s, 4),
        "per_append_records_per_s": round(n_records / per_s),
        "group_commit_records_per_s": round(n_records / grp_s),
        "speedup": round(per_s / grp_s, 2),
    }


def bench_group_commit_blocks(n_blocks: int, txs_per_block: int,
                              group: int, root: Path) -> dict:
    # Build the block sequence once on a memory chain; both durable
    # chains then execute + commit identical blocks, isolating the
    # storage path difference.
    template = Blockchain(ChainParams(chain_id="grp"))
    blocks = []
    for b in range(n_blocks):
        txs = [
            Transaction(f"acct-{j % 16}", TxKind.DATA,
                        {"key": f"b{b}/t{j}", "value": j},
                        timestamp=b).seal()
            for j in range(txs_per_block)
        ]
        block = template.build_block(txs, timestamp=b + 1)
        template.append_block(block)
        blocks.append(block)

    storage = DurableStorage(str(root / "blk-per"))
    per_chain = Blockchain(ChainParams(chain_id="grp"),
                           store=storage.blocks)
    gc.collect()
    t0 = time.perf_counter()
    for block in blocks:
        per_chain.append_block(block)
    per_s = time.perf_counter() - t0
    per_head = per_chain.head.block_hash
    storage.close()

    storage = DurableStorage(str(root / "blk-grp"))
    grp_chain = Blockchain(ChainParams(chain_id="grp"),
                           store=storage.blocks)
    gc.collect()
    t0 = time.perf_counter()
    for i in range(0, n_blocks, group):
        grp_chain.append_blocks(blocks[i:i + group])
    grp_s = time.perf_counter() - t0
    assert grp_chain.head.block_hash == per_head == template.head.block_hash
    storage.close()
    return {
        "n_blocks": n_blocks,
        "txs_per_block": txs_per_block,
        "group_size": group,
        "per_append_s": round(per_s, 4),
        "group_commit_s": round(grp_s, 4),
        "per_append_blocks_per_s": round(n_blocks / per_s),
        "group_commit_blocks_per_s": round(n_blocks / grp_s),
        "speedup": round(per_s / grp_s, 2),
    }


def bench_signed_admission(n_events: int, burst: int,
                           store_dir: str) -> dict:
    """Signed capture stream through the verifying pipeline.

    Admission verifies each batch inline in the parent (one
    ``verify_signature()`` per transaction, which leaves its verdict on
    the object); sealing runs in the exec workers (``executor="process"``),
    which re-validate their own decoded copies under
    ``require_signatures``.  The audit pass at the end asserts that every
    re-check of a parent object is answered by its mark: no HMAC.
    """
    keys = [KeyPair.generate(f"ingest-signer-{k}") for k in range(8)]
    txs = [
        Transaction(keys[i % 8].address, TxKind.DATA,
                    {"key": f"s{i:06d}", "value": i})
        .seal().sign_with(keys[i % 8])
        for i in range(n_events)
    ]
    sig.reset_cache_stats()
    sharded = ShardedChain(
        n_shards=N_SHARDS, max_block_txs=MAX_BLOCK_TXS,
        anchor_batch_size=ANCHOR_BATCH, storage_dir=store_dir,
        executor="process", exec_workers=2,
    )
    for s in range(N_SHARDS):
        sharded.shard(s).chain.params.require_signatures = True
    pipeline = IngestPipeline(sharded, queue_capacity=4 * burst,
                              verify_signatures=True,
                              max_blocks_per_round=32)
    gc.collect()
    t0 = time.perf_counter()
    for i in range(0, len(txs), burst):
        pipeline.submit_many(txs[i:i + burst])
        pipeline.seal_round()
    pipeline.run_until_drained()
    total_s = time.perf_counter() - t0
    committed = sharded.total_txs_committed
    sharded.verify_all()
    sharded.close()
    # Parent-side audit: re-verify every committed signature.  If
    # admission had not left its verdicts on the transactions this pass
    # would pay full HMAC cost (a miss each — the failure mode this
    # section exists to catch).
    before = sig.cache_stats()["verify_signature"]
    r0 = time.perf_counter()
    assert all(tx.verify_signature() for tx in txs)
    recheck_s = time.perf_counter() - r0
    stats = sig.cache_stats()["verify_signature"]
    recheck_hits = stats["hits"] - before["hits"]
    recheck_hmacs = stats["misses"] - before["misses"]
    assert (recheck_hits, recheck_hmacs) == (len(txs), 0), \
        f"audit re-check: {recheck_hits} by the mark, {recheck_hmacs} HMACs"
    return {
        "total_s": round(total_s, 4),
        "events_per_s": round(len(txs) / total_s),
        "txs_committed": committed,
        "invalid": pipeline.stats.invalid,
        "parent_recheck_s": round(recheck_s, 4),
        "recheck_answered_by_mark": recheck_hits,
        "recheck_hmacs": recheck_hmacs,
        "verify_cache": stats,
    }


def main() -> None:
    args = parse_bench_args(__doc__)

    if args.smoke:
        n_events, burst = 1_500, 256
        n_records, n_blocks = 1_000, 60
        n_signed = 512
    else:
        n_events, burst = 12_000, 2_048
        n_records, n_blocks = 8_000, 400
        n_signed = 4_000

    root = Path(tempfile.mkdtemp(prefix="repro-bench-ingest-"))
    try:
        events = make_events(n_events)
        sync = bench_synchronous(events, burst, str(root / "sync"))
        events = make_events(n_events)
        pipe = bench_pipelined(events, burst, str(root / "pipe"))
        records = bench_group_commit_records(n_records, 256, root)
        blocks = bench_group_commit_blocks(n_blocks, MAX_BLOCK_TXS, 8, root)
        signed = bench_signed_admission(n_signed, min(burst, 512),
                                        str(root / "signed"))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    sustained = round(pipe["events_per_s"] / sync["events_per_s"], 2)
    result = {
        "mode": "smoke" if args.smoke else "full",
        "model": (
            "event = provenance record + capture tx on a durable "
            f"{N_SHARDS}-shard deployment, bursts of {burst}; "
            "synchronous = per-event durable insert + inline admission "
            "+ one index txn per sealed block; pipelined = bounded "
            "per-shard queues, group-committed records and blocks "
            "(one buffered log write + one fsync + one sqlite txn per "
            "group), thread-pool sealing"
        ),
        "config": {
            "n_events": n_events, "burst": burst, "n_shards": N_SHARDS,
            "max_block_txs": MAX_BLOCK_TXS,
            "anchor_batch_size": ANCHOR_BATCH,
        },
        "synchronous": sync,
        "pipelined": pipe,
        "sustained_speedup": sustained,
        "group_commit_records": records,
        "group_commit_blocks": blocks,
        "signed_admission": signed,
        "floors": {
            "sustained_speedup": 2.0,
            "group_commit_records_speedup": 2.0,
        },
    }
    print(json.dumps(result, indent=2))
    finish_bench(result, "BENCH_ingest.json", args, floors=[
        ("pipelined sustained ingest", sustained, 2.0),
        ("record group-commit", records["speedup"], 2.0),
    ])


if __name__ == "__main__":
    main()
