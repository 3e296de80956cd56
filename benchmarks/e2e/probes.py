"""Probes (source *d*): a run's generated inputs replayed through one
layer's public function in isolation.  Traced runs only."""

from __future__ import annotations

import os
import shutil
import time

from deployment import FRAME_EVENTS, N_SHARDS, Inputs
from harness import Tally
from repro.crypto import signatures
from repro.gateway import encode_frame
from repro.gateway.frames import (
    decode_frame_payload,
    frame_to_txs,
    txs_to_frame_body,
)
from repro.ingest import IngestPipeline
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain

PROBE_FRAMES = 40
EXEC_PROBE_TXS = 4000
EXEC_MODES = ("serial", "thread", "process")


def probe_layers(main: Inputs, work_dir: str, tally: Tally,
                 layer: dict) -> None:
    frames = [main.txs[i:i + FRAME_EVENTS]
              for i in range(0, len(main), FRAME_EVENTS)][:PROBE_FRAMES]
    n = sum(map(len, frames))
    t0 = time.perf_counter()
    wire = [encode_frame(txs_to_frame_body(txs, seq))
            for seq, txs in enumerate(frames)]
    t1 = time.perf_counter()
    decoded = [frame_to_txs(decode_frame_payload(raw[4:])) for raw in wire]
    t2 = time.perf_counter()
    layer["serialization.encode_us_per_event"] = (t1 - t0) / n * 1e6
    layer["persist.codec.decode_us_per_event"] = (t2 - t1) / n * 1e6
    layer["gateway.wire_bytes_per_event"] = sum(map(len, wire)) / n

    batch = [(canonical_encode(tx.signing_body()), tx.signature, tx.signer)
             for txs in decoded for tx in txs]
    signatures.clear_verify_cache()
    t0 = time.perf_counter()
    verdicts = signatures.verify_encoded_batch(batch)
    layer["crypto.verify_us_per_event"] = \
        (time.perf_counter() - t0) / n * 1e6
    tally.add("probe_verify", len(batch), len(batch) - sum(verdicts))

    # The same backlog sealed to empty under each round engine, on fresh
    # stores.
    backlog = main.txs[:EXEC_PROBE_TXS]
    seal_s = {}
    for mode in EXEC_MODES:
        store = os.path.join(work_dir, f"exec-{mode}")
        sharded = ShardedChain(n_shards=N_SHARDS, storage_dir=store,
                               executor=mode)
        pipeline = IngestPipeline(sharded, verify_signatures=True)
        pipeline.submit_many(backlog)
        t0 = time.perf_counter()
        pipeline.run_until_drained()
        seal_s[mode] = time.perf_counter() - t0
        tally.add("probe_exec", len(backlog),
                  len(backlog) - sharded.total_txs_committed)
        sharded.close()
        shutil.rmtree(store)
    layer["exec.seal_ratio_thread_vs_serial"] = \
        seal_s["serial"] / seal_s["thread"]
    layer["exec.seal_ratio_process_vs_serial"] = \
        seal_s["serial"] / seal_s["process"]


def resolved_mode(sharded: ShardedChain) -> int:
    """Index in ``EXEC_MODES`` of the engine ``seal_round`` picks for this
    facade when nobody names one."""
    mode = sharded.executor
    if mode == "auto":
        mode = "thread" if sharded.seal_workers > 1 else "serial"
    return EXEC_MODES.index(mode)
