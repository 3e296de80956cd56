"""``ProcessRoundEngine``: the ``executor="process"``
:class:`~repro.sharding.engines.RoundEngine` (design note: the package
docstring).  Blocks are popped and encoded once in the parent, fanned
out to the pool, and committed **as each worker finishes** — parent-side
durable commits overlap the other workers' compute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from ..chain.block import Block
from ..obs.runtime import telemetry
from ..persist.codec import canonical_decode, encode_block
from ..serialization import canonical_encode
from ..sharding.engines import ShardResult, round_trace_ctx
from .pool import ProcessExecPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sharding.shardchain import Shard


@dataclass
class _ShardJob:
    """One shard's popped round while its exec job is in flight
    (``payload is None``: nothing to execute this round)."""

    shard: "Shard"
    blocks: list[Block]
    frames: list[bytes]
    txs_sealed: int
    widx: int
    trace_ctx: Any
    payload: bytes | None = None
    active_s: float = 0.0


class ProcessRoundEngine:
    """Round engine over a lazily started :class:`ProcessExecPool`.
    ``_replicas`` records, per shard, the ``(worker index, worker epoch,
    height, state root)`` last confirmed held by the shard's worker
    (``shard_id % n_workers``); a mismatch ships a fresh state image."""

    name = "process"

    def __init__(self, n_workers: int, runtime_factory) -> None:
        self.n_workers = n_workers
        self._runtime_factory = runtime_factory
        tel = telemetry()
        self._tracer = tel.tracer
        registry = tel.registry
        self._m_seal_shard_s = registry.histogram("seal_shard_seconds")
        self._m_offloaded = registry.counter("exec_rounds_offloaded_total")
        self._m_fallback = registry.counter("exec_fallback_total")
        self._m_worker_blocks = registry.counter("exec_worker_blocks_total")
        self._m_worker_txs = registry.counter("exec_worker_txs_total")
        self.pool: ProcessExecPool | None = None
        self._replicas: dict[int, tuple[int, int, int, bytes]] = {}

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None
            self._replicas.clear()

    def seal(self, shards: Sequence["Shard"], ts: int,
             blocks_per_shard: int) -> list[ShardResult | BaseException]:
        if self.pool is None:
            self.pool = ProcessExecPool(
                self.n_workers, runtime_factory=self._runtime_factory
            )
        pool = self.pool
        outcomes: dict[int, ShardResult | BaseException] = {}
        jobs: list[_ShardJob] = []
        for shard in shards:
            try:
                jobs.append(self._prepare(shard, ts, blocks_per_shard, pool))
            except Exception as exc:  # noqa: BLE001 - the outcome
                outcomes[shard.shard_id] = exc
        in_flight = [job for job in jobs if job.payload is not None]
        for job_index, response in pool.run(
                [(job.widx, job.payload) for job in in_flight]):
            job = in_flight[job_index]
            t0 = time.perf_counter()
            try:
                with self._tracer.span("shard.commit",
                                       parent=job.trace_ctx) as span:
                    span.set_attr("shard", job.shard.shard_id)
                    self._apply_response(job, response, pool)
            except Exception as exc:  # noqa: BLE001 - the outcome
                outcomes[job.shard.shard_id] = exc
            job.active_s += time.perf_counter() - t0
        for job in jobs:
            shard = job.shard
            if shard.shard_id in outcomes:
                continue
            self._m_seal_shard_s.observe(job.active_s)
            outcomes[shard.shard_id] = shard.finish_round(
                job.txs_sealed, job.active_s
            )
        return [outcomes[shard.shard_id] for shard in shards]

    def _prepare(self, shard: "Shard", ts: int, blocks_per_shard: int,
                 pool: ProcessExecPool) -> _ShardJob:
        """Pop one shard's round and encode its exec job."""
        t0 = time.perf_counter()
        blocks, txs_sealed = shard.pop_round_blocks(ts, blocks_per_shard)
        job = _ShardJob(
            shard=shard, blocks=blocks, frames=[], txs_sealed=txs_sealed,
            widx=shard.shard_id % pool.n_workers,
            trace_ctx=round_trace_ctx(self._tracer, blocks),
        )
        if blocks:
            job.frames = [encode_block(block) for block in blocks]
            job.payload = self._build_job(job, pool)
            self._m_offloaded.inc()
        job.active_s = time.perf_counter() - t0
        return job

    def _build_job(self, job: _ShardJob, pool: ProcessExecPool) -> bytes:
        """Encode one shard's round as an exec job, shipping a full
        state image iff the worker's replica cannot be current — wrong
        worker slot, respawned worker (epoch bump), or parent-side state
        changes since the last confirmed round (anchor flushes: detected
        by height/root comparison, never assumed away)."""
        chain = job.shard.chain
        base_height = chain.height
        base_root = chain.state.state_root()
        body: dict[str, Any] = {
            "kind": "exec",
            "chain": chain.chain_id,
            "base_height": base_height,
            "base_root": base_root,
            "blocks": job.frames,
        }
        recorded = self._replicas.get(job.shard.shard_id)
        if recorded != (job.widx, pool.epoch(job.widx), base_height,
                        base_root):
            body["state"] = [
                [ns, key, value]
                for ns, key, value in chain.state.dump_entries()
            ]
        return canonical_encode(body)

    def _apply_response(self, job: _ShardJob, response: bytes | None,
                        pool: ProcessExecPool) -> None:
        """Commit one shard's worker result, falling back to in-process
        execution on any worker failure (death, need_state, execution
        error, or a state-root divergence caught before commit)."""
        shard = job.shard
        reply = None
        if response is not None:
            try:
                reply = canonical_decode(response)
            except Exception:  # noqa: BLE001 - treat as worker failure
                reply = None
        if reply is not None and reply.get("status") == "ok":
            try:
                chain = shard.chain
                self._tracer.record_span(
                    "exec.apply_blocks", job.trace_ctx,
                    reply["exec_s"],
                    chain=chain.chain_id, blocks=len(job.blocks),
                )
                chain.apply_executed_blocks(
                    job.blocks, reply["delta"], job.frames,
                    expected_state_root=reply["state_root"],
                )
                self._replicas[shard.shard_id] = (
                    job.widx, pool.epoch(job.widx),
                    chain.height, reply["state_root"],
                )
                self._m_worker_blocks.inc(len(job.blocks))
                self._m_worker_txs.inc(job.txs_sealed)
                return
            except Exception:  # noqa: BLE001 - fall back in-process
                pass
        # Worker died, replied need_state/error, or its result failed to
        # apply: forget its replica and run the serial path — identical
        # blocks, identical state transitions, just single-process.
        self._m_fallback.inc()
        self._replicas.pop(shard.shard_id, None)
        shard.append_popped(job.blocks)
