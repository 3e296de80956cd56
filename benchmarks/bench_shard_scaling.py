#!/usr/bin/env python3
"""Shard-scaling benchmark: aggregate ingest throughput at 1/2/4/8 shards.

Replays the identical :class:`MultiTenantShardWorkload` stream (Zipf-
skewed tenants, a configurable fraction of cross-shard handoffs through
the 2PC coordinator) against a :class:`ShardedChain` at several shard
counts and records, per count:

* **parallel_s** — deployment-model wall time: shards are independent
  stacks on independent machines, so a round costs its *slowest* shard
  (admission + sealing, as measured per shard inside the facade) plus
  the beacon commit.  This is the headline scaling number.
* **serial_s** — the same work summed across shards: what this single
  Python process actually spent.  Serial time is roughly flat across
  shard counts (same total work), which is exactly the point — the
  speedup comes from the partition, not from doing less work.

Results go to ``BENCH_shard_scaling.json``.  In full mode the run
asserts the ISSUE-2 floor: >= 2.5x aggregate ingest throughput at 4
shards vs 1 shard.

Run: ``PYTHONPATH=src python benchmarks/bench_shard_scaling.py [--smoke]``
(``make bench-shard`` / part of ``make check``).
"""

from __future__ import annotations

import gc

from _harness import finish_bench, parse_bench_args
from repro.chain import Transaction, TxKind
from repro.crypto.merkle import leaf_hash
from repro.sharding import CrossShardCoordinator, ShardedChain
from repro.workloads import MultiTenantShardWorkload, ShardOp


def _tx_for(op: ShardOp) -> Transaction:
    """A capture transaction for one single-namespace workload op."""
    return Transaction(
        sender=op.actor,
        kind=TxKind.DATA,
        payload={
            "subject": op.subject,
            "key": f"{op.subject}#{op.timestamp}",
            "operation": op.operation,
            "value": {"size": op.size, "tool": "capture/v1",
                      "seq": op.timestamp},
        },
        timestamp=op.timestamp,
    )


def run_config(ops: list[ShardOp], n_shards: int,
               max_block_txs: int) -> dict:
    """Drive the full op stream through an ``n_shards`` deployment.

    The whole stream is submitted up front (saturated steady-state
    ingest: every shard always has work if any was routed to it), then
    rounds are sealed until the mempools drain and every cross-shard
    transfer settles.  Lock-deferred transactions are retried each
    round."""
    sharded = ShardedChain(n_shards=n_shards, max_block_txs=max_block_txs,
                           anchor_batch_size=256)
    coordinator = CrossShardCoordinator(sharded, timeout_rounds=4)
    # A collector pause lands on one shard's timer and inflates the
    # per-round max; a real deployment's shards do not share a heap.
    gc.collect()
    gc.disable()
    parallel_s = serial_s = 0.0
    rounds = 0
    aborted_conflicts = 0
    txs: list[Transaction] = []
    for op in ops:
        if op.kind == "cross":
            transfer = coordinator.begin(
                op.subject, op.target_subject,
                {"size": op.size}, actor=op.actor, timestamp=op.timestamp,
            )
            if transfer.state == "aborted":
                aborted_conflicts += 1
        else:
            txs.append(_tx_for(op))
    def submit_pending(pending):
        # Retry lock-deferred AND mempool-rejected transactions — the
        # backpressure report partitions the input; dropping either
        # bucket would silently shrink the workload.
        report = sharded.submit_many(pending)
        return report.deferred + [tx for tx, _ in report.rejected]

    pending = submit_pending(txs)
    while pending or sharded.mempool_backlog or coordinator.active:
        round_report = sharded.seal_round()
        parallel_s += round_report.critical_path_s
        serial_s += round_report.serial_s
        rounds += 1
        if pending:
            pending = submit_pending(pending)
    gc.enable()
    committed = sharded.total_txs_committed
    per_shard_committed = [len(s.chain.receipts) for s in sharded.shards]
    return {
        "n_shards": n_shards,
        "rounds": rounds,
        "ops": len(ops),
        "txs_committed": committed,
        "per_shard_txs": per_shard_committed,
        "max_shard_share": max(per_shard_committed) / max(1, committed),
        "transfers_committed": coordinator.committed,
        "transfers_aborted": aborted_conflicts,
        "beacon_height": sharded.beacon.height,
        "parallel_s": parallel_s,
        "serial_s": serial_s,
        "ops_per_s_parallel": len(ops) / parallel_s,
        "ops_per_s_serial": len(ops) / serial_s,
    }


def main() -> None:
    args = parse_bench_args(__doc__, extra=lambda p: p.add_argument(
        "--shards", default="1,2,4,8",
        help="comma-separated shard counts"))

    if args.smoke:
        n_ops, max_block_txs = 3_000, 64
    else:
        n_ops, max_block_txs = 24_000, 256
    shard_counts = [int(s) for s in args.shards.split(",")]

    workload = MultiTenantShardWorkload(
        n_tenants=128, objects_per_tenant=64, zipf_s=0.85,
        cross_shard_ratio=0.02, seed=7,
    )
    ops = list(workload.generate(n_ops))
    # Warm the global Merkle leaf-hash LRU once so every configuration
    # runs equally warm (tx content is identical across configurations,
    # so without this the first-run configuration would pay all the
    # cold-cache cost).
    for op in ops:
        if op.kind == "record":
            leaf_hash(_tx_for(op).tx_hash)

    runs = [run_config(ops, n, max_block_txs) for n in shard_counts]
    base = runs[0]
    for run in runs:
        run["speedup_vs_1shard"] = (
            run["ops_per_s_parallel"] / base["ops_per_s_parallel"]
        )

    results = {
        "mode": "smoke" if args.smoke else "full",
        "model": ("per-round critical path: slowest shard (admission + "
                  "seal) + beacon commit; shards run on independent "
                  "machines"),
        "config": {"n_ops": n_ops, "max_block_txs": max_block_txs,
                   "n_tenants": 128, "zipf_s": 0.85,
                   "cross_shard_ratio": 0.02},
        "runs": runs,
    }
    print(f"shard scaling ({results['mode']}): {n_ops} ops, "
          f"block limit {max_block_txs}")
    for run in runs:
        print(f"  {run['n_shards']:2d} shard(s): "
              f"{run['ops_per_s_parallel']:10.0f} ops/s  "
              f"({run['speedup_vs_1shard']:5.2f}x)  "
              f"rounds={run['rounds']:4d}  "
              f"max-share={run['max_shard_share']:.2f}  "
              f"2pc={run['transfers_committed']}")

    # Acceptance floor (ISSUE 2): >= 2.5x aggregate ingest at 4 shards.
    by_count = {run["n_shards"]: run for run in runs}
    floors = []
    if 4 in by_count:
        floors.append(("4-shard throughput speedup",
                       by_count[4]["speedup_vs_1shard"], 2.5))
    finish_bench(results, "BENCH_shard_scaling.json", args, floors=floors)


if __name__ == "__main__":
    main()
