#!/usr/bin/env python3
"""Snapshot sync: a new member org joins a consortium mid-stream.

Walkthrough of the catch-up subsystem (``repro.sync``):

1. a running 2-shard consortium has months of history — provenance
   records Merkle-anchored into shard blocks, every block committed
   under the beacon chain (whose sealing rounds also anchor each
   shard's **state root**);
2. a gateway node starts serving snapshot sync on the ``sync/offer`` /
   ``sync/chunk`` / ``sync/tail`` topics;
3. a new org spawns a shard replica and catches up over the simulated
   network: the state image is chunk-verified against a beacon-anchored
   manifest and installed with **zero transaction re-execution**, the
   block history arrives as raw log frames hash-chained to the
   beacon-verified head — the replica opens with
   ``blocks_replayed_on_open == 0``;
4. the new org audits a record *offline*: a federated proof served by
   its own replica verifies against a single beacon block header;
5. resilience: a mid-sync kill (client dies after two chunks) is
   survived — the restarted client resumes from its staged chunks — and
   a byzantine peer serving corrupt chunks is rejected with a
   structured ``SyncError`` and the client fails over to an honest
   peer, even while the network drops a third of all sync messages.

Run:  python examples/replica_catchup.py
"""

import os
import tempfile

from repro.chain import Transaction, TxKind
from repro.errors import SyncError
from repro.network import ChainNode, LatencyModel, SimNet
from repro.persist.segment import CrashPoint
from repro.sharding import ShardedChain, ShardedQueryEngine
from repro.sync import SnapshotServer

SUBJECT = "acme-pharma/lot-0007"


def populate(sharded: ShardedChain) -> None:
    """The consortium's history before the new org shows up."""
    sharded.ingest_records([
        {"record_id": f"evt-{i:05d}",
         "subject": f"acme-pharma/lot-{i % 12:04d}",
         "actor": ("manufacturer", "carrier", "wholesaler")[i % 3],
         "operation": ("produce", "ship", "receive")[i % 3],
         "timestamp": 1_700_000_000 + i}
        for i in range(180)
    ])
    sharded.flush_anchors()
    report = sharded.submit_many([
        Transaction(f"acme-pharma/plant-{i % 4}", TxKind.DATA,
                    {"key": f"sensor/{i % 64}", "value": 20 + i % 9},
                    timestamp=1_700_000_000 + i).seal()
        for i in range(160)
    ])
    assert not report.rejected
    while sharded.mempool_backlog:
        sharded.seal_round(blocks_per_shard=4)


class SmallChunkServer(SnapshotServer):
    """An honest peer that cuts this small image into several chunks,
    so the mid-sync kill below lands between two of them."""

    CHUNK_SIZE = 16 * 1024


class CorruptingServer(SnapshotServer):
    """A byzantine peer: every chunk it serves is bit-flipped."""

    def chunk(self, shard_id, height, index):
        resp = super().chunk(shard_id, height, index)
        data = bytearray(resp["data"])
        data[len(data) // 2] ^= 0xFF
        return dict(resp, data=bytes(data))


def main() -> None:
    work_dir = tempfile.mkdtemp(prefix="repro-catchup-")

    # -- 1. the running consortium -------------------------------------
    sharded = ShardedChain(2, max_block_txs=8, anchor_batch_size=32,
                           storage_dir=os.path.join(work_dir, "source"))
    populate(sharded)
    shard0 = sharded.shard(0)
    print("consortium running:")
    for shard in sharded.shards:
        print(f"  shard {shard.shard_id}: height {shard.chain.height}, "
              f"{len(shard.database)} records")
    print(f"  beacon: {sharded.beacon.rounds_anchored} rounds anchored")

    # -- 2. a gateway serves snapshot sync -----------------------------
    net = SimNet(LatencyModel(base=3, jitter=2), seed=2026)
    gateway = ChainNode("consortium-gateway", net)
    gateway.serve_sync(SmallChunkServer(sharded))

    # -- 3. the new org joins mid-stream, surviving a mid-sync kill ----
    replica_dir = os.path.join(work_dir, "neworg-shard0")
    replica = sharded.spawn_replica(0, replica_dir, net,
                                    node_id="neworg-replica",
                                    peers=["consortium-gateway"])
    try:
        replica.catch_up(crash_after_chunks=2)
    except CrashPoint as crash:
        print(f"\nmid-sync kill: {crash}")
    report = replica.catch_up()           # a fresh process resumes
    print("resumed catch-up after the kill:")
    print(f"  resumed={report.resumed}, chunks reused from staging: "
          f"{report.chunks_reused}, downloaded: {report.chunks_downloaded}")
    print(f"  blocks installed: {report.blocks_installed} "
          f"(height {report.height}), records: {report.records_installed}")
    assert replica.chain.head.block_hash == shard0.chain.head.block_hash
    assert replica.chain.blocks_replayed_on_open == 0
    print(f"  replica at source head, blocks replayed on open: "
          f"{replica.chain.blocks_replayed_on_open}  (no genesis replay)")

    # -- 4. the new org audits via the beacon light bundle -------------
    engine = ShardedQueryEngine(sharded)
    history = replica.history(SUBJECT)
    assert history == shard0.query.history(SUBJECT)
    record = history[0]
    proof = replica.federated_proof(record["record_id"])
    beacon_header = sharded.beacon.chain.block_at(proof.beacon_height).header
    assert proof.verify(record, beacon_header)
    src_proof = engine.federated_proof(record["record_id"],
                                       subject=SUBJECT)
    assert src_proof.shard_header.block_hash == \
        proof.shard_header.block_hash
    print(f"\noffline audit of {SUBJECT!r} on the replica:")
    print(f"  {len(history)} events, byte-identical to the source shard")
    print(f"  federated proof verifies against beacon header "
          f"#{proof.beacon_height} alone")

    # -- 5. byzantine peer rejected, honest peer wins, lossy network ---
    byzantine = ChainNode("byzantine-peer", net)
    byzantine.serve_sync(CorruptingServer(sharded))
    for topic in ("sync/offer", "sync/chunk", "sync/tail"):
        net.inject_faults(topic, drop=0.3)
    replica2 = sharded.spawn_replica(
        0, os.path.join(work_dir, "auditor-shard0"), net,
        node_id="auditor-replica",
        peers=["byzantine-peer", "consortium-gateway"],
    )
    try:
        # Against the byzantine peer alone, catch-up fails closed.
        probe = sharded.spawn_replica(
            0, os.path.join(work_dir, "probe"), net,
            node_id="probe-replica", peers=["byzantine-peer"],
        )
        probe.catch_up(max_retries=20)
    except SyncError as err:
        print(f"\nbyzantine peer rejected: reason={err.reason!r}")
    report2 = replica2.catch_up(max_retries=20)
    print("failover on a lossy network (30% drop on sync topics):")
    print(f"  synced from {report2.peer!r} after "
          f"{report2.retries} retries; "
          f"{net.stats.messages_dropped} messages dropped in total")
    assert replica2.chain.head.block_hash == shard0.chain.head.block_hash
    replica2.chain.verify(deep=True)
    print("  replica verifies end to end (deep) — catch-up never "
          "trusted the serving peer")

    replica.close()
    replica2.close()
    sharded.close()
    print("\ndone.")


if __name__ == "__main__":
    main()
