#!/usr/bin/env python3
"""Snapshot-sync benchmark: replica catch-up vs genesis replay.

Measures what the ISSUE-5 sync subsystem buys a joining replica:

* **catch-up** — ``spawn_replica`` + ``catch_up`` over ``SimNet``: the
  state image is chunk-verified and installed via ``load_entries``, the
  block history arrives as raw segment-log frames that are header-
  scanned, hash-chained to the beacon-verified head, and group-
  committed **without executing a single transaction**.  The opened
  replica reports ``blocks_replayed_on_open == 0``.
* **genesis replay** — the only pre-sync alternative: stand the replica
  up by re-validating and re-executing every block from genesis into
  its own durable store (plus re-inserting the record database).
  ``catchup_speedup_vs_replay`` is the headline number and the full run
  asserts it >= ``SPEEDUP_FLOOR``.
* **transfer throughput** — image bytes and tail blocks per second
  through the chunked protocol (virtual network, so this measures codec
  + verification + install cost, not wire latency).

Results go to ``BENCH_sync.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_sync.py [--smoke]``
(``make bench-sync``).
"""

from __future__ import annotations

import gc
import json
import shutil
import tempfile
import time
from pathlib import Path

from _harness import finish_bench, parse_bench_args
from repro.chain import Blockchain, ChainParams, Transaction, TxKind
from repro.network import ChainNode, LatencyModel, SimNet
from repro.persist import DurableStorage
from repro.sharding import ShardedChain, ShardedQueryEngine
from repro.storage.provdb import ProvenanceDatabase
from repro.sync import SnapshotServer


# Catch-up vs genesis-replay floor, re-set from measurement in PR 19.  It
# was 5.0x when genesis replay decoded and re-encoded every transaction;
# PR 16's one-pass codec made *replay* ~25 % faster while catch-up (which
# never decoded them) stayed put, so the ratio fell to 3.3x-4.6x (twelve
# full runs over the PR 18 and PR 19 trees on the reference sandbox,
# median 3.8x) and the old floor failed for a reason that is an
# improvement.  3.0x sits under the slowest undisturbed run and still
# fails loudly on what the floor is for: a catch-up that starts executing
# or re-validating history drops to ~1x.
SPEEDUP_FLOOR = 3.0


def build_source(store_dir: str, n_blocks: int, txs_per_block: int,
                 n_records: int) -> tuple[ShardedChain, list[dict]]:
    sharded = ShardedChain(1, max_block_txs=txs_per_block,
                           anchor_batch_size=64, storage_dir=store_dir)
    records = [
        {"record_id": f"r{i:06d}", "subject": f"bench/asset-{i % 97}",
         "actor": f"actor-{i % 13}", "operation": "update", "timestamp": i}
        for i in range(n_records)
    ]
    sharded.ingest_records(records)
    sharded.flush_anchors()
    produced = sharded.shards[0].chain.height
    i = 0
    while produced < n_blocks:
        # Keys cycle over a bounded working set (balances, counters,
        # object heads) — the realistic shape: state size tracks the
        # *key space*, not the transaction count.
        batch = [
            Transaction("bench/acct", TxKind.DATA,
                        {"key": f"k{(i + j) % 4096}", "value": i + j},
                        timestamp=i + j).seal()
            for j in range(txs_per_block * 50)
        ]
        i += len(batch)
        report = sharded.submit_many(batch)
        assert report.rejected_total == 0
        sharded.seal_round(blocks_per_shard=max(
            1, min(50, n_blocks - produced)))
        produced = sharded.shards[0].chain.height
    return sharded, records


def bench_catch_up(sharded: ShardedChain, replica_dir: str) -> dict:
    net = SimNet(LatencyModel(base=1, jitter=0), seed=5)
    gateway = ChainNode("gateway", net)
    server = SnapshotServer(sharded)
    gateway.serve_sync(server)
    gc.collect()
    t0 = time.perf_counter()
    replica = sharded.spawn_replica(0, replica_dir, net,
                                    node_id="bench-replica",
                                    peers=["gateway"])
    report = replica.catch_up(tail_batch=512)
    catchup_s = time.perf_counter() - t0

    source = sharded.shards[0]
    assert replica.chain.head.block_hash == source.chain.head.block_hash
    assert replica.chain.state.state_root() == \
        source.chain.state.state_root()
    assert replica.chain.blocks_replayed_on_open == 0
    head_hash = replica.chain.head.block_hash
    replica.close()

    # Reopen the synced directory cold: still zero replay.
    storage = DurableStorage(replica_dir)
    reopened = Blockchain(
        ChainParams(chain_id=source.chain.chain_id,
                    max_block_txs=source.chain.params.max_block_txs),
        store=storage.blocks, snapshot_store=storage.state,
    )
    assert reopened.blocks_replayed_on_open == 0
    assert reopened.head.block_hash == head_hash
    storage.close()

    return {
        "catchup_s": round(catchup_s, 4),
        "blocks_installed": report.blocks_installed,
        "chunks_downloaded": report.chunks_downloaded,
        "image_bytes": report.bytes_received,
        "transfer_mib_per_s": round(
            report.bytes_received / catchup_s / (1024 * 1024), 2),
        "tail_blocks_per_s": round(report.blocks_installed / catchup_s),
        "requests": report.requests,
    }


def bench_genesis_replay(sharded: ShardedChain, records: list[dict],
                         replay_dir: str) -> dict:
    source = sharded.shards[0]
    gc.collect()
    t0 = time.perf_counter()
    storage = DurableStorage(replay_dir)
    chain = Blockchain(
        ChainParams(chain_id=source.chain.chain_id,
                    max_block_txs=source.chain.params.max_block_txs),
        store=storage.blocks, snapshot_store=storage.state,
    )
    for height in range(1, source.chain.height + 1):
        chain.append_block(source.chain.block_at(height))
    database = ProvenanceDatabase(store=storage.records)
    database.insert_many(records)
    chain.checkpoint()
    replay_s = time.perf_counter() - t0
    assert chain.head.block_hash == source.chain.head.block_hash
    assert chain.state.state_root() == source.chain.state.state_root()
    storage.close()
    return {"genesis_replay_s": round(replay_s, 4)}


def verify_replica_proofs(sharded: ShardedChain, replica_dir: str,
                          records: list[dict]) -> None:
    """A synced replica must serve a verifiable federated proof."""
    net = SimNet(seed=6)
    gateway = ChainNode("gateway2", net)
    gateway.serve_sync(SnapshotServer(sharded))
    replica = sharded.spawn_replica(0, replica_dir, net,
                                    node_id="bench-replica-2",
                                    peers=["gateway2"])
    replica.catch_up(tail_batch=512)
    engine = ShardedQueryEngine(sharded)
    record = next(r for r in records
                  if sharded.shards[0].anchor.is_anchored(r["record_id"]))
    proof = replica.federated_proof(record["record_id"])
    header = sharded.beacon.chain.block_at(proof.beacon_height).header
    assert proof.verify(record, header)
    src_proof = engine.federated_proof(record["record_id"],
                                       subject=record["subject"])
    assert src_proof.shard_header.block_hash == \
        proof.shard_header.block_hash
    replica.close()


def main() -> None:
    args = parse_bench_args(__doc__)

    if args.smoke:
        n_blocks, txs_per_block, n_records = 120, 8, 400
    else:
        n_blocks, txs_per_block, n_records = 2_000, 48, 2_000

    root = tempfile.mkdtemp(prefix="repro-bench-sync-")
    try:
        sharded, records = build_source(
            str(Path(root) / "source"), n_blocks, txs_per_block,
            n_records)
        catchup = bench_catch_up(sharded, str(Path(root) / "replica"))
        replay = bench_genesis_replay(sharded, records,
                                      str(Path(root) / "replay"))
        verify_replica_proofs(sharded, str(Path(root) / "replica2"),
                              records)
        sharded.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)

    speedup = round(replay["genesis_replay_s"] / catchup["catchup_s"], 1)
    result = {
        "mode": "smoke" if args.smoke else "full",
        "model": ("catch-up = beacon-verified manifest + chunked state "
                  "image (load_entries, no execution) + raw-frame block "
                  "tail (header scan + hash chain, group-committed); "
                  "replay = decode + validate + execute + per-block "
                  "durable commit from genesis"),
        "n_blocks": n_blocks,
        "txs_per_block": txs_per_block,
        "n_records": n_records,
        "catch_up": catchup,
        "genesis_replay": replay,
        "catchup_speedup_vs_replay": speedup,
    }
    print(json.dumps(result, indent=2))
    finish_bench(result, "BENCH_sync.json", args, floors=[
        ("snapshot-sync catch-up speedup vs genesis replay",
         speedup, SPEEDUP_FLOOR),
    ])


if __name__ == "__main__":
    main()
