#!/usr/bin/env python3
"""Persistence benchmark: durable vs in-memory append, reopen vs replay.

Measures what the ISSUE-3 storage backend costs and what it buys:

* **append throughput** — the same block stream committed to an
  in-memory chain vs a durable chain (segment log + sqlite index +
  per-block index transaction).  The durable factor is the *price of
  durability* per block.
* **record ingest throughput** — ``ProvenanceDatabase.insert`` on both
  backends.
* **reopen** — the payoff: opening the durable chain from the state
  rows it committed with its blocks (``blocks_replayed_on_open == 0``)
  vs a genesis replay of the same blocks (the only option the seed had;
  here the store's state rows are deleted first).
  ``reopen_speedup_vs_replay`` is the headline number and the full run
  asserts it >= 5x.

Results go to ``BENCH_persist.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_persist.py [--smoke]``
(``make bench-persist``).
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
from repro.persist import DurableStorage
from repro.persist.durable import clear_state_rows
from repro.storage.provdb import ProvenanceDatabase


def build_blocks(chain: Blockchain, n_blocks: int, txs_per_block: int):
    for b in range(n_blocks):
        height = chain.height + 1
        txs = [
            Transaction(f"acct-{j % 16}", TxKind.DATA,
                        {"key": f"b{height}/t{j}", "value": j},
                        timestamp=height).seal()
            for j in range(txs_per_block)
        ]
        chain.append_block(chain.build_block(txs, timestamp=height))


def bench_chain_append(n_blocks: int, txs_per_block: int,
                       store_dir: str) -> dict:
    gc.collect()
    memory = Blockchain(ChainParams(chain_id="bench"))
    t0 = time.perf_counter()
    build_blocks(memory, n_blocks, txs_per_block)
    memory_s = time.perf_counter() - t0

    storage = DurableStorage(store_dir)
    durable = Blockchain(ChainParams(chain_id="bench"),
                         store=storage.blocks)
    gc.collect()
    t0 = time.perf_counter()
    build_blocks(durable, n_blocks, txs_per_block)
    durable_s = time.perf_counter() - t0
    assert durable.head.block_hash == memory.head.block_hash
    durable.close()

    txs = n_blocks * txs_per_block
    return {
        "n_blocks": n_blocks,
        "txs_per_block": txs_per_block,
        "memory_append_s": round(memory_s, 4),
        "durable_append_s": round(durable_s, 4),
        "memory_txs_per_s": round(txs / memory_s),
        "durable_txs_per_s": round(txs / durable_s),
        "durable_overhead_factor": round(durable_s / memory_s, 2),
    }


def bench_reopen(n_blocks: int, txs_per_block: int, store_dir: str) -> dict:
    # Reopen from the state rows the appends above committed.
    gc.collect()
    t0 = time.perf_counter()
    storage = DurableStorage(store_dir)
    reopened = Blockchain(ChainParams(chain_id="bench"),
                          store=storage.blocks)
    reopen_s = time.perf_counter() - t0
    assert reopened.blocks_replayed_on_open == 0
    head_hash = reopened.head.block_hash
    state_root = reopened.state.state_root()
    storage.close()

    # The seed's only option: replay every block from genesis (a chain
    # opened on the store without its state rows re-executes them all).
    clear_state_rows(store_dir)
    gc.collect()
    storage = DurableStorage(store_dir)
    t0 = time.perf_counter()
    replayer = Blockchain(ChainParams(chain_id="bench"),
                          store=storage.blocks)
    replay_s = time.perf_counter() - t0
    assert replayer.blocks_replayed_on_open == storage.blocks.height()
    assert replayer.head.block_hash == head_hash
    assert replayer.state.state_root() == state_root
    storage.close()

    return {
        "reopen_from_snapshot_s": round(reopen_s, 4),
        "genesis_replay_s": round(replay_s, 4),
        "reopen_speedup_vs_replay": round(replay_s / reopen_s, 1),
    }


def bench_records(n_records: int, store_dir: str) -> dict:
    records = [
        {"record_id": f"r{i:06d}", "subject": f"asset/{i % 97}",
         "actor": f"actor-{i % 13}", "operation": "update", "timestamp": i}
        for i in range(n_records)
    ]
    gc.collect()
    memory_db = ProvenanceDatabase()
    t0 = time.perf_counter()
    memory_db.insert_many(records)
    memory_s = time.perf_counter() - t0

    storage = DurableStorage(store_dir)
    durable_db = ProvenanceDatabase(store=storage.records)
    gc.collect()
    t0 = time.perf_counter()
    durable_db.insert_many(records)
    durable_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    storage.close()
    storage2 = DurableStorage(store_dir)
    reloaded = ProvenanceDatabase(store=storage2.records)
    reload_s = time.perf_counter() - t0
    assert len(reloaded) == n_records
    storage2.close()

    return {
        "n_records": n_records,
        "memory_insert_s": round(memory_s, 4),
        "durable_insert_s": round(durable_s, 4),
        "memory_records_per_s": round(n_records / memory_s),
        "durable_records_per_s": round(n_records / durable_s),
        "reopen_and_reindex_s": round(reload_s, 4),
    }


def main() -> None:
    args = parse_bench_args(__doc__)

    if args.smoke:
        n_blocks, txs_per_block, n_records = 40, 8, 500
    else:
        n_blocks, txs_per_block, n_records = 600, 16, 20_000

    root = tempfile.mkdtemp(prefix="repro-bench-persist-")
    try:
        chain_dir = str(Path(root) / "chain")
        append = bench_chain_append(n_blocks, txs_per_block, chain_dir)
        reopen = bench_reopen(n_blocks, txs_per_block, chain_dir)
        records = bench_records(n_records, str(Path(root) / "records"))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    result = {
        "mode": "smoke" if args.smoke else "full",
        "model": ("durable = segment log (CRC frames, flush per append, "
                  "fsync on seal/checkpoint) + sqlite index txn per "
                  "block; reopen = state snapshot at head, zero replay"),
        "chain_append": append,
        "chain_reopen": reopen,
        "record_ingest": records,
    }
    print(json.dumps(result, indent=2))
    finish_bench(result, "BENCH_persist.json", args, floors=[
        ("reopen-from-snapshot speedup vs genesis replay",
         reopen["reopen_speedup_vs_replay"], 5.0),
    ])


if __name__ == "__main__":
    main()
