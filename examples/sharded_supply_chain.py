#!/usr/bin/env python3
"""Sharded supply chain: cross-shard custody handoff between two orgs.

Two organizations run their provenance namespaces on *different* shards
of one sharded deployment:

1. the manufacturer captures a pharmaceutical lot's production history
   on its home shard (records Merkle-anchored per batch, every shard
   block committed to the beacon chain);
2. custody moves manufacturer → hospital through the cross-shard
   two-phase-commit coordinator — locks, on-chain lock/commit legs on
   both shards, handoff records materialized only on full commit;
3. a federated query stitches the lot's full story back together across
   both shards, every record verified against its shard anchor *and*
   the beacon;
4. an auditor holding nothing but beacon headers re-verifies one
   handoff record offline via a packaged federated proof;
5. a second handoff times out (the counterparty shard stalls) and is
   aborted-and-unlocked — no phantom custody record survives;
6. a burst of scan events overruns a deliberately tiny ingest queue:
   the overflow comes back as structured retry-after backpressure (per
   shard: queued / deferred / rejected counters), is retried on
   schedule, and every event still commits — nothing is dropped.

Run:  python examples/sharded_supply_chain.py
"""

from repro.chain import Transaction, TxKind
from repro.ingest import IngestPipeline
from repro.sharding import (
    CrossShardCoordinator,
    ShardedChain,
    ShardedQueryEngine,
)
from repro.verify import LightClient


def pick_org_names(sharded: ShardedChain) -> tuple[str, str]:
    """Two org namespaces that land on different shards (placement is a
    stable hash, so candidates are probed, not assumed)."""
    maker = "acme-pharma"
    maker_shard = sharded.router.shard_for(maker)
    for candidate in ("metro-hospital", "city-hospital", "bay-clinic",
                      "north-hospital"):
        if sharded.router.shard_for(candidate) != maker_shard:
            return maker, candidate
    raise SystemExit("no distinct-shard candidate (unreachable)")


def main() -> None:
    sharded = ShardedChain(n_shards=4, max_block_txs=32,
                           anchor_batch_size=4)
    coordinator = CrossShardCoordinator(sharded, timeout_rounds=2)
    queries = ShardedQueryEngine(sharded)
    maker, hospital = pick_org_names(sharded)
    lot_at_maker = f"{maker}/lot-7781"
    lot_at_hospital = f"{hospital}/lot-7781"
    print(f"{maker} -> shard {sharded.router.shard_for(maker)}, "
          f"{hospital} -> shard {sharded.router.shard_for(hospital)}")

    # -- 1. Production history on the manufacturer's shard --------------
    for i, operation in enumerate(("create", "qa-sample", "package")):
        sharded.ingest_record({
            "record_id": f"prod-{i}", "subject": lot_at_maker,
            "actor": f"{maker}/line-3", "operation": operation,
            "timestamp": i,
        })
    sharded.flush_anchors()
    sharded.seal_round()
    print(f"production captured: {len(queries.history(lot_at_maker))} "
          f"records, beacon height {sharded.beacon.height}")

    # -- 2. Cross-shard custody handoff (2PC) ---------------------------
    transfer = coordinator.begin(
        lot_at_maker, lot_at_hospital,
        {"carrier": "medlog-dist", "temperature_ok": True},
        actor=f"{maker}/shipping", timestamp=10,
    )
    rounds = 0
    while transfer.state not in ("committed", "aborted"):
        sharded.seal_round()
        rounds += 1
    print(f"handoff {transfer.xid}: {transfer.state} after {rounds} "
          f"rounds ({transfer.outcome.on_chain_txs} on-chain legs)")
    sharded.flush_anchors()
    sharded.seal_round()

    # -- 3. Federated verified trace across both shards -----------------
    answer = queries.trace_verified(lot_at_maker, lot_at_hospital)
    print(f"federated trace: {len(answer.records)} records across shards "
          f"{sorted(set(answer.shard_ids))}, verified={answer.verified}")
    for record, shard_id in zip(answer.records, answer.shard_ids):
        print(f"  t={record['timestamp']:>2}  shard {shard_id}  "
              f"{record['operation']:<12} {record['subject']}")

    # -- 4. Offline audit against beacon headers only -------------------
    auditor = LightClient("beacon")
    auditor.sync_from(sharded.beacon.chain)
    proof = queries.federated_proof(f"{transfer.xid}:in")
    record = next(r for r in queries.history(lot_at_hospital)
                  if r["record_id"] == f"{transfer.xid}:in")
    header = auditor.header_at(proof.beacon_height)
    print(f"offline auditor verifies handoff-in: "
          f"{proof.verify(record, header)}")
    print(f"tampered copy verifies: "
          f"{proof.verify(dict(record, actor='mallory'), header)}")

    # -- 5. A stalled counterparty: abort-and-unlock --------------------
    second = coordinator.begin(
        f"{maker}/lot-7782", f"{hospital}/lot-7782",
        actor=f"{maker}/shipping", timestamp=20,
    )
    stalled = sharded.router.shard_for(hospital)
    live = [i for i in range(sharded.n_shards) if i != stalled]
    while second.state == "preparing":
        sharded.seal_round(shard_ids=live)   # hospital shard is down
    print(f"handoff {second.xid}: {second.state} "
          f"({second.outcome.extra['reason']}); subjects unlocked, no "
          f"phantom records: "
          f"{not any(s.database.contains(f'{second.xid}:in') for s in sharded.shards)}")

    # -- 6. A scan burst meets backpressure ----------------------------
    pipeline = IngestPipeline(sharded, queue_capacity=24)
    burst = [
        Transaction(
            sender=f"{maker}/scanner-{i % 3}", kind=TxKind.DATA,
            payload={"subject": f"{maker}/lot-{8000 + i}",
                     "key": f"scan-{i}", "value": {"gate": i % 4}},
            timestamp=100 + i,
        ).seal()
        for i in range(60)
    ]
    report = pipeline.submit_many(burst)
    print(f"scan burst of {len(burst)}: queued={report.queued_total}, "
          f"rejected={report.rejected_total} "
          f"(per shard: {report.backpressure_summary()})")
    pending = [tx for tx, _ in report.rejected]
    if pending:
        _, signal = report.rejected[0]
        print(f"  retry-after signal: depth {signal.depth}/"
              f"{signal.capacity}, ~{signal.retry_after_rounds} round(s)")
    while pending or pipeline.backlog or sharded.mempool_backlog:
        pipeline.seal_round()
        pending = [tx for tx, _ in pipeline.submit_many(pending).rejected]
    stats = pipeline.stats
    print(f"burst absorbed: admitted={stats.admitted}, "
          f"re-submitted rejections={stats.rejected}, dropped=0; "
          f"all {len(burst)} scans committed: "
          f"{all(sharded.shard_for_subject(tx.payload['subject']).chain.find_transaction(tx.tx_id) is not None for tx in burst)}")

    sharded.verify_all(deep=True)
    print("all shard chains and the beacon verify intact")


if __name__ == "__main__":
    main()
