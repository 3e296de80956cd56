"""Round engines: *where* a shard's share of a sealing round runs.

:meth:`ShardedChain.seal_round` owns the round skeleton; an engine only
runs the selected shards' work.  The contract, for every engine:

* run **every** selected shard to completion before returning — a
  failure must never surface while a sibling is still mid-mutation, or
  a retry round could start a second task on that shard;
* return one outcome per shard, in the order given: a
  :data:`ShardResult`, or the exception the shard's round raised (its
  popped transactions already re-admitted);
* decide nothing about failures — that is ``seal_round``'s single loop.

Implementations: :class:`InProcessEngine` (``serial`` / ``thread``) and
:class:`~repro.exec.engine.ProcessRoundEngine` (``process``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait as futures_wait
from typing import TYPE_CHECKING, Protocol, Sequence

from ..chain.block import Block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .shardchain import Shard, ShardSealStats

#: One shard's successful round: stats, the not-yet-anchored ``(shard,
#: height, block_hash, state_root)`` entries, and the new head height.
ShardResult = tuple[
    "ShardSealStats", list[tuple[int, int, bytes, bytes]], int
]


class RoundEngine(Protocol):
    """See the module docstring for the contract."""

    name: str                  # serial / thread / process
    pool: object | None        # worker-process pool once started

    def seal(self, shards: Sequence["Shard"], ts: int,
             blocks_per_shard: int) -> list[ShardResult | BaseException]:
        ...

    def close(self) -> None:
        """Stop every thread/process the engine started (they restart
        lazily if the engine is used again)."""


def round_trace_ctx(tracer, blocks: list[Block]):
    """Resolve the trace context for a shard's round: the context bound
    at ``pipeline.submit`` for the first sealed transaction that has
    one.  Cheap when tracing is idle (one attribute read)."""
    if not blocks or not tracer.has_bound_txs:
        return None
    return tracer.take_tx_ctx(
        tx.tx_id for block in blocks for tx in block.transactions
    )


class InProcessEngine:
    """Seal in this process: inline at width 1, above that on a thread
    pool (created on first use) overlapping per-shard fsync/sqlite I/O —
    GIL released there, so it is sized to shards, not cores."""

    pool = None

    def __init__(self, width: int, telemetry) -> None:
        self.width = width
        self.name = "serial" if width == 1 else "thread"
        self._tracer = telemetry.tracer
        self._m_seal_shard_s = telemetry.registry.histogram(
            "seal_shard_seconds"
        )
        self._threads: ThreadPoolExecutor | None = None

    def _seal_shard(self, shard: "Shard", ts: int,
                    blocks_per_shard: int) -> ShardResult:
        """One shard's whole round of work: drain up to
        ``blocks_per_shard`` block batches from its mempool, build the
        chained blocks, and commit them through the chain's group-commit
        surface (one log write + one fsync + one index transaction on a
        durable store).  Thread-safe per shard: touches only this
        shard's stack and reads of the lock table (which never mutates
        mid-round)."""
        t0 = time.perf_counter()
        blocks, txs_sealed = shard.pop_round_blocks(ts, blocks_per_shard)
        ctx = round_trace_ctx(self._tracer, blocks)
        with self._tracer.span("shard.seal_round", parent=ctx) as span:
            span.set_attr("shard", shard.shard_id)
            span.set_attr("txs", txs_sealed)
            shard.append_popped(blocks)
        active_s = time.perf_counter() - t0
        self._m_seal_shard_s.observe(active_s)
        return shard.finish_round(txs_sealed, active_s)

    def seal(self, shards: Sequence["Shard"], ts: int,
             blocks_per_shard: int) -> list[ShardResult | BaseException]:
        if self.width == 1 or len(shards) < 2:
            outcomes: list[ShardResult | BaseException] = []
            for shard in shards:
                try:
                    outcomes.append(
                        self._seal_shard(shard, ts, blocks_per_shard)
                    )
                except Exception as exc:  # noqa: BLE001 - the outcome
                    outcomes.append(exc)
            return outcomes
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=self.width, thread_name_prefix="shard-seal"
            )
        futures = [
            self._threads.submit(self._seal_shard, shard, ts,
                                 blocks_per_shard)
            for shard in shards
        ]
        futures_wait(futures)
        return [future.exception() or future.result() for future in futures]

    def close(self) -> None:
        if self._threads is not None:
            self._threads.shutdown(wait=True)
            self._threads = None
