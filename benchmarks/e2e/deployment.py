"""The deployment under test, its generated inputs, and the node loop.

Everything not named here is a constructor default of the program, so a
later change of a default shows up in the numbers.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.chain import Transaction, TxKind
from repro.crypto.signatures import KeyPair
from repro.ingest import IngestPipeline
from repro.sharding import (
    CrossShardCoordinator,
    ShardedChain,
    ShardedQueryEngine,
)
from repro.workloads import MultiTenantShardWorkload, ShardOp

N_SHARDS = 4
CHECKPOINT_EVERY_ROUNDS = 16
FRAME_EVENTS = 25


@dataclass
class Inputs:
    """What one run feeds the program: events in op-stream order (each a
    signed capture tx plus its provenance record) and the cross-shard
    handoffs interleaved with them.  ``position`` is the index in the op
    stream, which an open loop turns into a due time."""

    txs: list[Transaction] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    positions: list[int] = field(default_factory=list)
    handoffs: list[tuple[int, ShardOp]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.txs)

    def slice(self, start: int, stop: int) -> "Inputs":
        return Inputs(self.txs[start:stop], self.records[start:stop],
                      self.positions[start:stop])


def generate_inputs(seed: int, n_events: int,
                    cross_shard_ratio: float = 0.0,
                    first_position: int = 0) -> Inputs:
    """Draw ops from the seeded workload until ``n_events`` capture events
    exist and sign each with its actor's key.  The handoffs kept are the
    first ``cross_shard_ratio`` share of the ops, so their number does not
    change with the seed (their subjects and positions do).  Two streams
    of one run get disjoint positions, hence distinct keys and ids."""
    workload = MultiTenantShardWorkload(
        n_tenants=128, objects_per_tenant=64, zipf_s=0.85,
        cross_shard_ratio=cross_shard_ratio, seed=seed,
    )
    n_ops = int(n_events / (1.0 - cross_shard_ratio))
    n_handoffs = round(n_ops * cross_shard_ratio)
    keys: dict[str, KeyPair] = {}
    inputs = Inputs()
    # Over-draw: the stream's own cross-shard share varies around the
    # ratio, and both quotas have to fill.
    for op in workload.generate(2 * n_ops + 64):
        if len(inputs) >= n_events \
                and len(inputs.handoffs) >= n_handoffs:
            break
        position = first_position + op.timestamp
        if op.kind == "cross":
            if len(inputs.handoffs) < n_handoffs:
                inputs.handoffs.append((position, op))
            continue
        if len(inputs) >= n_events:
            continue
        pair = keys.get(op.actor)
        if pair is None:
            pair = keys[op.actor] = KeyPair.generate(op.actor)
        tx = Transaction(
            sender=pair.address,
            kind=TxKind.DATA,
            payload={
                "subject": op.subject,
                "key": f"{op.subject}#{position}",
                "operation": op.operation,
                "value": {"size": op.size, "tool": "capture/v1",
                          "seq": position},
            },
            timestamp=position,
        ).seal().sign_with(pair)
        inputs.txs.append(tx)
        inputs.records.append({
            "record_id": f"ev-{position:08d}",
            "subject": op.subject,
            "actor": op.actor,
            "operation": op.operation,
            "timestamp": position,
            "tx_id": tx.tx_id,
            "size": op.size,
        })
        inputs.positions.append(position)
    if len(inputs) < n_events or len(inputs.handoffs) < n_handoffs:
        raise RuntimeError("workload produced too few ops")
    return inputs


class Deployment:
    """Durable 4-shard chain + signature-checking ingest + 2PC coordinator
    on one store directory.  Constructing it on a used directory is the
    restart path (the coordinator replays its WAL)."""

    def __init__(self, store_dir: str) -> None:
        self.store_dir = store_dir
        self.sharded = ShardedChain(
            n_shards=N_SHARDS, storage_dir=store_dir,
            checkpoint_every_rounds=CHECKPOINT_EVERY_ROUNDS,
        )
        self.pipeline = IngestPipeline(self.sharded, verify_signatures=True)
        self.coordinator = CrossShardCoordinator(self.sharded)
        self.query = ShardedQueryEngine(self.sharded)

    def commit_in_process(self, events: Inputs) -> int:
        """Synchronous node step without the gateway: submit, ingest the
        records, seal one round.  Returns the events sealed."""
        report = self.pipeline.submit_many(events.txs)
        if report.rejected:
            raise RuntimeError("in-process submit hit backpressure")
        self.sharded.ingest_records(events.records)
        return self.pipeline.seal_round().txs_sealed

    def seal_until_drained(self) -> None:
        self.pipeline.run_until_drained()
        self.sharded.flush_anchors()
        self.pipeline.seal_round()


class TimingProxy:
    """Source *b*: stands in for the pipeline inside ``GatewayServer`` and
    times the one call the gateway makes on the hot path."""

    def __init__(self, pipeline: IngestPipeline) -> None:
        self._pipeline = pipeline
        self.submit_many_busy_s = 0.0
        self.queue_depth_max = 0

    def submit_many(self, txs):
        t0 = time.perf_counter()
        report = self._pipeline.submit_many(txs)
        self.submit_many_busy_s += time.perf_counter() - t0
        depth = self._pipeline.backlog
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth
        return report

    def __getattr__(self, name):
        return getattr(self._pipeline, name)


@dataclass
class Handoff:
    """One cross-shard transfer of the op stream: when it is due (seconds
    into the main phase), the coordinator's transfer once begun, and when
    the node loop saw it committed or aborted."""

    due: float
    op: ShardOp
    transfer: object = None
    settled: float = 0.0

    @property
    def state(self) -> str:
        if not self.settled:
            return "pending"
        return self.transfer.state


class NodeLoop:
    """The node's one thread, the way ``GatewayServer._sealer`` runs it,
    plus what has no wire op: ingest waiting records, begin due handoffs,
    seal a round, read the new blocks to stamp commits; back to back while
    there is backlog, else sleep the gateway's seal interval."""

    def __init__(self, deployment: Deployment, events: Inputs,
                 handoffs: list[Handoff], spans, idle_s: float,
                 on_progress=None) -> None:
        self.deployment = deployment
        self.spans = spans
        self.idle_s = idle_s
        self.on_progress = on_progress or (lambda: None)
        self.t0 = 0.0
        self.incoming: deque[list[dict]] = deque()
        self.waiting: list[dict] = []
        self.pending_handoffs = deque(handoffs)
        self.open_handoffs: list[Handoff] = []
        self.index_of = {tx.tx_id: i for i, tx in enumerate(events.txs)}
        self.commit_t = [0.0] * len(events)
        self.committed = 0
        self.double_commits = 0
        self.heights = [s.chain.height for s in deployment.sharded.shards]
        self.reports = []
        self.txs_per_block: list[int] = []
        self.records_ingested = 0
        self.waiting_max = 0
        self.locks_max = 0
        self.anchor_pending_max = 0
        self.queue_depth_max = 0
        self.error: Exception | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="node-loop")

    def start(self, t0: float) -> None:
        self.t0 = t0
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        if self.error is not None:
            raise self.error

    @property
    def idle(self) -> bool:
        d = self.deployment
        return not (self.incoming or self.waiting or self.pending_handoffs
                    or self.open_handoffs or d.pipeline.backlog
                    or d.sharded.mempool_backlog)

    def _run(self) -> None:
        try:
            with self.spans.span("node_loop"):
                while True:
                    if self._step():
                        continue
                    if self._stop.is_set():
                        return
                    with self.spans.span("idle"):
                        time.sleep(self.idle_s)
        except Exception as exc:        # re-raised by stop()
            self.error = exc
            self.on_progress()

    def _step(self) -> bool:
        d = self.deployment
        worked = False
        batch = self._ready_records()
        if batch:
            with self.spans.span("ingest_records"):
                d.sharded.ingest_records(batch)
            self.records_ingested += len(batch)
            pending = sum(s.anchor.pending_count for s in d.sharded.shards)
            self.anchor_pending_max = max(self.anchor_pending_max, pending)
            worked = True
        now = time.perf_counter() - self.t0
        while self.pending_handoffs and self.pending_handoffs[0].due <= now:
            handoff = self.pending_handoffs.popleft()
            op = handoff.op
            with self.spans.span("twophase.begin"):
                handoff.transfer = d.coordinator.begin(
                    op.subject, op.target_subject, {"size": op.size},
                    actor=op.actor, timestamp=op.timestamp,
                )
            if handoff.transfer.state == "aborted":     # lock conflict
                handoff.settled = time.perf_counter()
            else:
                self.open_handoffs.append(handoff)
            worked = True
        depth = d.pipeline.backlog
        if depth or d.sharded.mempool_backlog or self.open_handoffs:
            self.queue_depth_max = max(self.queue_depth_max, depth)
            if self.open_handoffs:
                self.locks_max = max(
                    self.locks_max,
                    d.sharded.health_report()["locks_active"])
            with self.spans.span("seal_round"):
                report = d.pipeline.seal_round()
            with self.spans.span("stamp"):
                self._stamp(report)
            self.on_progress()
            worked = True
        return worked

    def _ready_records(self) -> list[dict]:
        """Records whose subject is not locked by a handoff; locked ones
        wait (``ingest_records`` refuses a batch that touches a lock)."""
        records, self.waiting = self.waiting, []
        while self.incoming:
            records.extend(self.incoming.popleft())
        if not self.open_handoffs:
            return records
        locked = set()
        for handoff in self.open_handoffs:
            locked.add(handoff.op.subject)
            locked.add(handoff.op.target_subject)
        ready = []
        for record in records:
            (self.waiting if record["subject"] in locked
             else ready).append(record)
        self.waiting_max = max(self.waiting_max, len(self.waiting))
        return ready

    def _stamp(self, report) -> None:
        now = time.perf_counter()
        self.reports.append(report)
        index_of, commit_t = self.index_of, self.commit_t
        for shard in self.deployment.sharded.shards:
            sid = shard.shard_id
            for height in range(self.heights[sid] + 1,
                                shard.chain.height + 1):
                txs = shard.chain.block_at(height).transactions
                self.txs_per_block.append(len(txs))
                for tx in txs:
                    i = index_of.get(tx.tx_id)
                    if i is None:
                        continue        # anchor tx or 2PC leg
                    if commit_t[i]:
                        self.double_commits += 1
                    else:
                        commit_t[i] = now
                        self.committed += 1
            self.heights[sid] = shard.chain.height
        if self.open_handoffs:
            still_open = []
            for handoff in self.open_handoffs:
                if handoff.transfer.state in ("committed", "aborted"):
                    handoff.settled = now
                else:
                    still_open.append(handoff)
            self.open_handoffs = still_open
