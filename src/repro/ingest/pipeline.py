"""``IngestPipeline``: bounded per-shard queues between capture and chain.

See the package docstring for the queue model, the backpressure
contract, and the group-commit durability points.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import time

from ..chain.transaction import Transaction
from ..errors import CryptoError, InvalidTransaction, QueueFull, ShardError
from ..obs.runtime import telemetry as default_telemetry
from ..sharding.shardchain import RoundReport, ShardedChain, SubmitReport


@dataclass(frozen=True)
class QueueStats:
    """One shard queue's load snapshot (the backpressure observable)."""

    shard_id: int
    depth: int
    capacity: int
    high_watermark: int
    total_enqueued: int
    total_admitted: int
    total_rejected: int
    total_deferred: int

    @property
    def saturation(self) -> float:
        """0.0 empty → 1.0 full."""
        return self.depth / self.capacity

    @property
    def over_watermark(self) -> bool:
        return self.depth >= self.high_watermark


@dataclass(frozen=True)
class IngestStats:
    """Whole-pipeline counters (sums over every shard queue)."""

    submitted: int
    queued_now: int
    admitted: int
    rejected: int
    deferred: int
    duplicates: int
    invalid: int
    rounds_sealed: int


class _ShardQueue:
    """Bounded FIFO with watermark accounting for one shard."""

    __slots__ = ("shard_id", "capacity", "high_watermark", "items",
                 "total_enqueued", "total_admitted", "total_rejected",
                 "total_deferred")

    def __init__(self, shard_id: int, capacity: int,
                 high_watermark: int) -> None:
        self.shard_id = shard_id
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.items: deque[Transaction] = deque()
        self.total_enqueued = 0
        self.total_admitted = 0
        self.total_rejected = 0
        self.total_deferred = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def free(self) -> int:
        return self.capacity - len(self.items)

    def take(self, n: int) -> list[Transaction]:
        items = self.items
        return [items.popleft() for _ in range(min(n, len(items)))]

    def put_back_front(self, txs: Sequence[Transaction]) -> None:
        """Return lock-deferred transactions to the head, order kept."""
        for tx in reversed(txs):
            self.items.appendleft(tx)


class IngestPipeline:
    """Decouples transaction submission from admission and sealing.

    ``submit``/``submit_many`` park routed transactions in bounded
    per-shard queues and return immediately — a full queue yields a
    structured :class:`~repro.errors.QueueFull` with retry-after, never
    a silent drop.  ``pump`` drains the queues into the shard mempools
    in admission batches (one signature pass and one mempool call per
    batch); ``seal_round`` pumps and then seals, draining deep queues
    with multiple group-committed blocks per shard per round.

    ``verify_signatures=True`` makes admission reject unsigned or
    badly-signed transactions in the batch verification pass (they land
    in ``invalid_txs``, counted, never silently discarded).
    """

    def __init__(
        self,
        sharded: ShardedChain,
        queue_capacity: int = 8192,
        high_watermark: float = 0.75,
        verify_signatures: bool = False,
        max_blocks_per_round: int = 8,
        telemetry=None,
    ) -> None:
        if queue_capacity < 1:
            raise ShardError("queue_capacity must be >= 1")
        if not 0.0 < high_watermark <= 1.0:
            raise ShardError("high_watermark must be in (0, 1]")
        if max_blocks_per_round < 1:
            raise ShardError("max_blocks_per_round must be >= 1")
        self.sharded = sharded
        max_txs = sharded.shards[0].chain.params.max_block_txs
        self.admission_batch = max(max_txs, 1)
        self.verify_signatures = verify_signatures
        self.max_blocks_per_round = max_blocks_per_round
        hw = max(1, int(queue_capacity * high_watermark))
        self._queues = [
            _ShardQueue(shard.shard_id, queue_capacity, hw)
            for shard in sharded.shards
        ]
        # Most recent signature-rejected transactions, bounded: a
        # long-running stream of bad submissions must not leak memory.
        # total_invalid keeps the full count.
        self.invalid_txs: deque[Transaction] = deque(maxlen=1024)
        self.total_invalid = 0
        self.total_submitted = 0
        self.total_duplicates = 0
        # Telemetry: the hot submit path keeps its plain-int counters
        # (the collector below publishes them at snapshot time) and pays
        # only a sampling countdown; per-batch pump/verify paths observe
        # histograms directly.  Traces: a sampled submit opens a root
        # span and binds its context to the tx id, which seal_round
        # picks up so worker-side exec spans and the persist fsync span
        # descend from the submit.
        self.telemetry = telemetry if telemetry is not None \
            else default_telemetry()
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        # Per-tx submit samples against an inline threshold (seeded from
        # the tracer's rate) instead of calling Tracer.should_sample():
        # at ~1µs per in-memory submit even the bound-method call is a
        # measurable fraction of the overhead budget.  A submit traces
        # when total_submitted reaches _next_sample; sampling-off parks
        # the threshold at +inf, so the disabled and the
        # unsampled-enabled paths execute the *same* compare-and-branch
        # and cost identically.
        self._sample_every = self._tracer.sample_every
        self._next_sample = 1 if self._sample_every else float("inf")
        self._m_admission_s = registry.histogram("ingest_admission_seconds")
        self._m_verify_s = registry.histogram("ingest_verify_seconds")
        self._m_quarantined = registry.counter("ingest_quarantined_total")
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Publish the queues' plain-int counters into the registry
        (pull model: the submit path never touches the registry)."""
        registry = self.telemetry.registry
        for q in self._queues:
            shard = q.shard_id
            registry.gauge("ingest_queue_depth", shard=shard).set(len(q))
            registry.gauge("ingest_queue_high_watermark",
                           shard=shard).set(q.high_watermark)
            registry.counter("ingest_enqueued_total",
                             shard=shard).value = q.total_enqueued
            registry.counter("ingest_admitted_total",
                             shard=shard).value = q.total_admitted
            registry.counter("ingest_queuefull_total",
                             shard=shard).value = q.total_rejected
            registry.counter("ingest_deferred_total",
                             shard=shard).value = q.total_deferred
        registry.counter("ingest_submitted_total").value = \
            self.total_submitted
        registry.counter("ingest_duplicates_total").value = \
            self.total_duplicates
        registry.counter("ingest_invalid_total").value = self.total_invalid

    # ------------------------------------------------------------------
    # Submission (capture-source side; never blocks on admission)
    # ------------------------------------------------------------------
    def _signal_for(self, queue: _ShardQueue) -> QueueFull:
        return self.sharded.backpressure_signal(
            queue.shard_id, depth=len(queue), capacity=queue.capacity,
            high_watermark=queue.high_watermark,
        )

    def submit(self, tx: Transaction) -> int:
        """Route and enqueue one transaction; returns its shard id.

        Raises :class:`~repro.errors.QueueFull` (with depth, watermark,
        and retry-after) when the home shard's queue is at capacity.
        """
        shard_id = self.sharded.router.route(tx)
        queue = self._queues[shard_id]
        if queue.free <= 0:
            queue.total_rejected += 1
            raise self._signal_for(queue)
        queue.items.append(tx)
        queue.total_enqueued += 1
        self.total_submitted += 1
        if self.total_submitted >= self._next_sample:
            self._next_sample = self.total_submitted + self._sample_every
            with self._tracer.root_span("ingest.submit",
                                        sampled=True) as span:
                span.set_attr("shard", shard_id)
                span.set_attr("tx_id", tx.tx_id)
            self._tracer.bind_tx(tx.tx_id, span.ctx)
        return shard_id

    def submit_many(self, txs: Iterable[Transaction]) -> SubmitReport:
        """Batched submission: one router pass, per-shard enqueueing.

        Overflow comes back in ``report.rejected`` paired with its
        :class:`~repro.errors.QueueFull` signal; everything else is
        counted in ``report.queued`` per shard.  Nothing blocks and
        nothing is dropped.
        """
        report = SubmitReport()
        for shard_id, bucket in self.sharded.router.partition(txs).items():
            queue = self._queues[shard_id]
            free = queue.free
            taken = bucket[:free]
            overflow = bucket[free:]
            queue.items.extend(taken)
            queue.total_enqueued += len(taken)
            self.total_submitted += len(taken)
            if taken:
                report.queued[shard_id] = len(taken)
                # One sampling decision per shard bucket, not per tx:
                # a sampled batch traces through its first transaction.
                if self._tracer.should_sample():
                    with self._tracer.root_span("ingest.submit_many",
                                                sampled=True) as span:
                        span.set_attr("shard", shard_id)
                        span.set_attr("batch", len(taken))
                    self._tracer.bind_tx(taken[0].tx_id, span.ctx)
            if overflow:
                queue.total_rejected += len(overflow)
                signal = self._signal_for(queue)
                report.rejected.extend((tx, signal) for tx in overflow)
        return report

    # ------------------------------------------------------------------
    # Admission (pump) and sealing
    # ------------------------------------------------------------------
    def _verify_batch(
        self, batch: list[Transaction]
    ) -> tuple[list[Transaction], list[Transaction]]:
        """One signature pass over an admission batch → (ok, invalid).
        A signer the registry does not know (possible on a gateway-
        decoded transaction) quarantines that transaction only."""
        ok, bad = [], []
        for tx in batch:
            try:
                (ok if tx.verify_signature() else bad).append(tx)
            except CryptoError:
                bad.append(tx)
        return ok, bad

    def _quarantine(self, txs: Iterable[Transaction]) -> None:
        for tx in txs:
            self.invalid_txs.append(tx)
            self.total_invalid += 1
            self._m_quarantined.inc()

    def _admit(self, queue: _ShardQueue, mempool,
               batch: list[Transaction]) -> tuple[int, int]:
        """Admit one taken batch, never losing transactions.

        Fast path is one ``add_batch`` call.  A structurally invalid
        transaction anywhere in the batch (possible because ``submit``
        deliberately does not validate on the capture source's clock)
        falls back to per-transaction admission so the poison
        transaction is quarantined in ``invalid_txs`` and its healthy
        batch-mates still land.  A full mempool puts the remainder back
        at the queue head — that is what the queue is for.
        """
        try:
            return mempool.add_batch(batch)
        except QueueFull:
            queue.put_back_front(batch)
            return 0, 0
        except (InvalidTransaction, CryptoError):
            pass
        accepted = duplicates = 0
        for i, tx in enumerate(batch):
            try:
                if mempool.add(tx):
                    accepted += 1
                else:
                    duplicates += 1
            except QueueFull:
                queue.put_back_front(batch[i:])
                break
            except (InvalidTransaction, CryptoError):
                self._quarantine([tx])
        return accepted, duplicates

    def pump(self, max_batches_per_shard: int | None = None) -> SubmitReport:
        """Drain queues into mempools in admission batches.

        Per shard and batch: one optional signature-verification pass,
        a lock check (conflicts rotate back to the queue head, counted
        as deferred), then **one** ``add_batch`` mempool call.  Batches
        are sized to the mempool's free capacity, so admission itself
        never overflows; a shard whose mempool is full simply keeps its
        queue — that is what the queue is for.
        """
        if max_batches_per_shard is None:
            max_batches_per_shard = self.max_blocks_per_round
        report = SubmitReport()
        sharded = self.sharded
        for queue in self._queues:
            shard = sharded.shards[queue.shard_id]
            mempool = shard.mempool
            accepted = 0
            deferred: list[Transaction] = []
            for _ in range(max_batches_per_shard):
                room = min(self.admission_batch, mempool.free_capacity)
                batch = queue.take(room)
                if not batch:
                    break
                batch_t0 = time.perf_counter()
                if self.verify_signatures:
                    batch, bad = self._verify_batch(batch)
                    self._m_verify_s.observe(
                        time.perf_counter() - batch_t0
                    )
                    if bad:
                        self._quarantine(bad)
                batch, blocked = sharded.locks.partition(queue.shard_id,
                                                         batch)
                deferred.extend(blocked)
                if batch:
                    added, duplicates = self._admit(queue, mempool, batch)
                    self._m_admission_s.observe(
                        time.perf_counter() - batch_t0
                    )
                    accepted += added
                    report.duplicates += duplicates
                    self.total_duplicates += duplicates
            if deferred:
                # The pipeline owns the retry (next pump re-attempts
                # from the queue head), so deferrals are reported as
                # counters only — NOT in report.deferred, whose contract
                # says the caller must resubmit.  Listing them there too
                # would double-enqueue.
                queue.put_back_front(deferred)
                queue.total_deferred += len(deferred)
                report.deferred_by_shard[queue.shard_id] = len(deferred)
            if accepted:
                queue.total_admitted += accepted
                report.accepted[queue.shard_id] = accepted
            if len(queue):
                report.queued[queue.shard_id] = len(queue)
        return report

    def seal_round(self, timestamp: int | None = None) -> RoundReport:
        """Pump, then seal one round sized to the drained backlog.

        The deepest shard backlog decides ``blocks_per_shard`` (capped
        at ``max_blocks_per_round``), so a burst is absorbed with a few
        group-committed blocks per shard instead of many single-block
        rounds — each shard's round is one log write + one fsync + one
        index transaction on a durable deployment.
        """
        self.pump()
        max_txs = self.sharded.shards[0].chain.params.max_block_txs
        deepest = max((len(s.mempool) for s in self.sharded.shards),
                      default=0)
        blocks = min(self.max_blocks_per_round,
                     max(1, -(-deepest // max_txs)))
        return self.sharded.seal_round(timestamp=timestamp,
                                       blocks_per_shard=blocks)

    def run_until_drained(self, max_rounds: int = 10_000
                          ) -> list[RoundReport]:
        """Seal rounds until queues and mempools are empty."""
        reports: list[RoundReport] = []
        while (self.backlog or self.sharded.mempool_backlog) \
                and len(reports) < max_rounds:
            reports.append(self.seal_round())
        if self.backlog or self.sharded.mempool_backlog:
            raise ShardError(f"ingest not drained after {max_rounds} rounds")
        return reports

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """Transactions parked in queues (excludes mempool backlog)."""
        return sum(len(q) for q in self._queues)

    def queue_stats(self, shard_id: int) -> QueueStats:
        if not 0 <= shard_id < len(self._queues):
            raise ShardError(f"no shard {shard_id}")
        q = self._queues[shard_id]
        return QueueStats(
            shard_id=q.shard_id, depth=len(q), capacity=q.capacity,
            high_watermark=q.high_watermark,
            total_enqueued=q.total_enqueued,
            total_admitted=q.total_admitted,
            total_rejected=q.total_rejected,
            total_deferred=q.total_deferred,
        )

    def backpressure(self, shard_id: int) -> QueueFull | None:
        """The signal a ``submit`` to ``shard_id`` would raise right
        now, or ``None`` while the queue is below its high watermark."""
        if not 0 <= shard_id < len(self._queues):
            raise ShardError(f"no shard {shard_id}")
        queue = self._queues[shard_id]
        if len(queue) < queue.high_watermark:
            return None
        return self._signal_for(queue)

    @property
    def stats(self) -> IngestStats:
        return IngestStats(
            submitted=self.total_submitted,
            queued_now=self.backlog,
            admitted=sum(q.total_admitted for q in self._queues),
            rejected=sum(q.total_rejected for q in self._queues),
            deferred=sum(q.total_deferred for q in self._queues),
            duplicates=self.total_duplicates,
            invalid=self.total_invalid,
            rounds_sealed=self.sharded.rounds_sealed,
        )
