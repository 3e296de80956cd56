#!/usr/bin/env python3
"""Durable storage: a sharded deployment survives a full restart.

Walkthrough of the persistence layer (``repro.persist``):

1. a 4-shard deployment opens on a *store directory* — each shard gets an
   append-only segment log + sqlite index, the beacon gets its own;
2. a day of traffic: provenance records ingested and Merkle-anchored,
   transactions sealed into per-shard blocks, every block committed to
   the beacon chain; a verified federated query answers with proofs;
3. ``close()`` fsyncs the logs — each shard's state rows already
   committed with its blocks;
4. the process "restarts": a brand-new ``ShardedChain`` opens on the same
   directory and resumes from those rows — **zero blocks replayed**,
   no genesis replay — serving byte-identical query results, and the
   pre-restart federated proof still verifies against the restored
   beacon headers;
5. a crash is simulated by truncating a shard's block log mid-frame: on
   reopen the store recovers to the last committed block (the state rows
   described the dropped head, so they go with it and the chain replays
   from genesis) and the chain still verifies end to end.

Run:  python examples/durable_restart.py
"""

import os
import tempfile

from repro.chain import Transaction, TxKind
from repro.persist import DurableStorage
from repro.sharding import ShardedChain, ShardedQueryEngine

N_SHARDS = 4
SUBJECT = "satellite/landsat-9/scene-007"


def populate(sharded: ShardedChain) -> None:
    """One working day: records + transactions across many tenants."""
    for i in range(120):
        sharded.ingest_record({
            "record_id": f"obs-{i:05d}",
            "subject": f"satellite/landsat-9/scene-{i % 10:03d}",
            "actor": f"ground-station-{i % 3}",
            "operation": ("calibrate", "ingest", "publish")[i % 3],
            "timestamp": 1_700_000_000 + i,
        })
    txs = [
        Transaction(f"tenant-{i % 7}", TxKind.DATA,
                    {"key": f"telemetry/{i}", "value": i},
                    timestamp=1_700_000_000 + i).seal()
        for i in range(60)
    ]
    report = sharded.submit_many(txs)
    assert not report.rejected and not report.deferred
    sharded.flush_anchors()
    sharded.seal_until_drained()


def main() -> None:
    store_dir = tempfile.mkdtemp(prefix="repro-durable-")
    print(f"store directory: {store_dir}")

    # -- 1+2: build a deployment and put a day of traffic through it ---
    sharded = ShardedChain(N_SHARDS, storage_dir=store_dir,
                           anchor_batch_size=16, max_block_txs=32)
    populate(sharded)
    engine = ShardedQueryEngine(sharded)
    before = engine.history_verified(SUBJECT)
    record_id = before.records[0]["record_id"]
    proof = engine.federated_proof(record_id)
    print(f"before restart: {sharded.total_txs_committed} txs committed, "
          f"{sharded.rounds_sealed} rounds, history({SUBJECT!r}) = "
          f"{len(before.records)} records, verified={before.verified}")

    # -- 3: clean shutdown — fsync the logs, close ----------------------
    heights = [s.chain.height for s in sharded.shards]
    sharded.close()
    print(f"closed. shard heights {heights}, "
          f"beacon height {proof.beacon_height} synced to disk")

    # -- 4: restart — reopen the same directory --------------------------
    reopened = ShardedChain(N_SHARDS, storage_dir=store_dir,
                            anchor_batch_size=16, max_block_txs=32)
    replayed = [s.chain.blocks_replayed_on_open for s in reopened.shards]
    assert replayed == [0] * N_SHARDS, "restart must not replay blocks"
    assert reopened.beacon.chain.blocks_replayed_on_open == 0
    engine2 = ShardedQueryEngine(reopened)
    after = engine2.history_verified(SUBJECT)
    assert after.verified
    assert [r["record_id"] for r in after.records] == \
        [r["record_id"] for r in before.records]
    print(f"after restart:  blocks replayed per shard {replayed} — "
          f"history identical ({len(after.records)} records, verified)")

    # The *pre-restart* federated proof verifies against the restored
    # beacon — the restart preserved every commitment bit-for-bit.
    header = reopened.beacon.chain.block_at(proof.beacon_height).header
    record = reopened.shard_for_subject(SUBJECT).database.get(record_id)
    assert proof.verify(record, header)
    print(f"pre-restart federated proof for {record_id!r} still verifies "
          "against the restored beacon header")

    # Still live: keep ingesting and sealing after the restart.
    reopened.ingest_record({
        "record_id": "obs-post-restart", "subject": SUBJECT,
        "actor": "auditor", "operation": "audit",
        "timestamp": 1_700_100_000,
    })
    reopened.flush_anchors()
    reopened.seal_round()
    reopened.verify_all(deep=True)
    print(f"resumed sealing: now {reopened.rounds_sealed} rounds, "
          "deep verification passes on every shard + beacon")
    reopened.close()

    # -- 5: crash recovery — torn write on the busiest shard's log -----
    busiest = max(range(N_SHARDS),
                  key=lambda i: heights[i])
    shard_dir = os.path.join(store_dir, f"shard-{busiest}")
    seg_dir = os.path.join(shard_dir, "blocks-log")
    tail = sorted(os.listdir(seg_dir))[-1]
    path = os.path.join(seg_dir, tail)
    size = os.path.getsize(path)
    os.truncate(path, size - 11)   # kill -9 mid-append
    print(f"simulated crash: truncated {tail} by 11 bytes "
          f"({size} -> {size - 11})")

    storage = DurableStorage(shard_dir)
    print(f"recovery dropped {storage.recovered_blocks} torn block(s); "
          f"store head is now height {storage.blocks.height()}")
    from repro.chain import Blockchain, ChainParams
    chain = Blockchain(ChainParams(chain_id=f"shard-{busiest}"),
                       store=storage.blocks)
    chain.verify(deep=True)
    print(f"recovered chain verifies end to end at height {chain.height} "
          f"(replayed {chain.blocks_replayed_on_open} block(s) from "
          "genesis)")
    storage.close()
    print("done.")


if __name__ == "__main__":
    main()
