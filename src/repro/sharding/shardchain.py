"""``ShardedChain``: N independent chain stacks behind one facade.

Each shard owns a full vertical slice — :class:`Blockchain`,
:class:`Mempool`, :class:`ProvenanceDatabase`, :class:`AnchorService`,
:class:`ProvenanceQueryEngine` — so shards share *nothing* and, on a real
deployment, run on separate machines.  The facade:

* routes submitted transactions and ingested records to their home shard
  (:class:`~repro.sharding.router.ShardRouter`),
* seals one block per loaded shard per **round** (:meth:`seal_round`) and
  anchors every block produced in the round into the
  :class:`~repro.sharding.beacon.BeaconChain`,
* consults the cross-shard :class:`~repro.sharding.locks.LockTable` the
  two-phase-commit coordinator drives (a transaction touching a locked
  subject is deferred, not lost),
* reports per-shard seal timings so the scaling benchmark can model the
  deployment's critical path (shards seal concurrently; the round takes
  as long as its slowest shard plus the beacon commit).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..chain import Blockchain, ChainParams, Mempool, Transaction
from ..chain.block import Block
from ..errors import (
    InvalidTransaction,
    QueueFull,
    RETRY_AFTER_FLOOR_S,
    ShardError,
    TamperDetected,
)
from ..obs.runtime import telemetry
from ..persist.codec import check_records
from ..persist.durable import DurableStorage
from ..persist.provdb import ProvenanceDatabase
from ..persist.stores import MemoryStorage, MetaStore, Storage
from ..provenance.anchor import AnchorReceipt, AnchorService
from ..provenance.query import ProvenanceQueryEngine, QueryCache
from .beacon import BeaconChain, BeaconReceipt
from .engines import InProcessEngine, RoundEngine, ShardResult
from .locks import LockTable
from .router import ShardRouter


def _recover_proof_state(storage, kind: str, load) -> None:
    """Reopen one store's proof state — ``load()`` (returns ``(rows
    loaded, records re-enqueued)``) — under one
    ``recovery.load_proof_state`` span, and publish what it did."""
    tel = telemetry()
    with tel.tracer.root_span("recovery.load_proof_state",
                              sampled=True) as span:
        rows, requeued = load()
        for key, value in (("store", storage.directory), ("kind", kind),
                           ("rows", rows), ("requeued", requeued)):
            span.set_attr(key, value)
    registry = tel.registry
    registry.counter("proof_rows_loaded_total", kind=kind).inc(rows)
    registry.counter("anchor_pending_requeued_total").inc(requeued)


@dataclass
class Admission:
    """What one :meth:`Shard.admit` did with a run of transactions.

    ``accepted`` counts what the mempool took, ``duplicates`` what it
    already held, and ``deferred`` lists what a cross-shard lock held
    back.  Admission stops at the first transaction it cannot take:
    ``error`` says why (the mempool's :class:`~repro.errors.QueueFull`,
    or the :class:`~repro.errors.InvalidTransaction` validation
    raised), and ``rest`` is that transaction and every one after it,
    unseen.  Each door decides what happens to ``rest``.
    """

    accepted: int = 0
    duplicates: int = 0
    deferred: list[Transaction] = field(default_factory=list)
    rest: Sequence[Transaction] = ()
    error: InvalidTransaction | None = None


class Shard:
    """One shard's full stack (chain, mempool, database, anchors, queries).

    The chain (its state rows included) and record database live in the
    shard's :class:`~repro.persist.stores.Storage` bundle, and every
    anchor batch's proof state commits with its anchor block
    (:mod:`repro.provenance.anchor`) — opening a shard on a bundle that
    already holds one restores the whole stack (a durable bundle: with no
    block replayed, wherever the process died; a power loss that took an
    unfsynced anchor frame costs a genesis replay).  Mempool contents are
    deliberately *not* persisted: an unsealed transaction was never
    acknowledged as durable.

    :meth:`admit` is the shard's edge: every transaction that enters the
    mempool passes it, whichever door it came through (the facade's
    ``submit``, ``submit_to`` and ``submit_many``, the ingest pipeline's
    pump, and through those the gateway and the network nodes).  Only
    the re-admission of transactions the shard popped itself
    (:meth:`pop_round_blocks`' lock hold-back, :meth:`append_popped`'s
    unwind) goes straight back into the mempool.
    """

    def __init__(self, shard_id: int, params: ChainParams,
                 storage: Storage, anchor_batch_size: int = 64,
                 contract_runtime_factory=None,
                 locks: LockTable | None = None) -> None:
        self.shard_id = shard_id
        self.storage = storage
        self.locks = locks      # None on replicas, which never seal
        self.chain = Blockchain(
            params,
            store=storage.blocks,
            contract_runtime=(contract_runtime_factory()
                              if contract_runtime_factory is not None
                              else None),
        )
        self.database = ProvenanceDatabase(store=storage.records)
        self.mempool = Mempool()
        self.anchor = AnchorService(
            self.chain,
            batch_size=anchor_batch_size,
            sender=f"shard-{shard_id}-anchor",
        )
        _recover_proof_state(
            storage, "anchor",
            lambda: self.anchor.load_proof_state(self.database))
        self.query = ProvenanceQueryEngine(
            self.database, anchor_service=self.anchor, cache=QueryCache()
        )
        # Highest block height already committed to the beacon.
        self.anchored_height = 0
        # Admission time (lock check, validation, hashing, mempool
        # insert) accumulated by admit() between rounds, folded into the
        # next round's duration — on a real deployment every shard node
        # pays its own admission cost, so the scaling model must too.
        self.pending_ingest_s = 0.0

    @property
    def backlog(self) -> int:
        """Transactions admitted and not yet sealed."""
        return len(self.mempool)

    def admit(self, txs: Sequence[Transaction]) -> Admission:
        """Admit ``txs`` into the mempool, one at a time in arrival
        order: a transaction whose subject a cross-shard transfer has
        locked is held back (``deferred``), then the mempool validates
        it, drops it as a duplicate or takes it, and a failed
        validation or a full mempool stops admission there (see
        :class:`Admission`).  The time spent is this shard's admission
        time, counted into its next round."""
        admission = Admission()
        mempool = self.mempool
        locks = self.locks
        t0 = time.perf_counter()
        for i, tx in enumerate(txs):
            if locks.blocks_tx(self.shard_id, tx):
                admission.deferred.append(tx)
                continue
            try:
                if mempool.add(tx):
                    admission.accepted += 1
                else:
                    admission.duplicates += 1
            except InvalidTransaction as exc:   # QueueFull included
                admission.rest = txs[i:]
                admission.error = exc
                break
        self.pending_ingest_s += time.perf_counter() - t0
        return admission

    def pop_round_blocks(
        self, ts: int, blocks_per_shard: int,
    ) -> tuple[list[Block], int]:
        """Drain up to ``blocks_per_shard`` batches from the mempool and
        build (but do not execute) the chained blocks."""
        max_txs = self.chain.params.max_block_txs
        new_blocks: list[Block] = []
        txs_sealed = 0
        prev = self.chain.head
        for _ in range(blocks_per_shard):
            # A transaction admitted *before* a lock was taken must not
            # seal mid-2PC: hold it back for a later round (the admission
            # check alone cannot see future locks).
            batch, held = self.locks.partition(
                self.shard_id, self.mempool.pop_batch(max_txs)
            )
            if held:
                self.mempool.add_many(held)
            if not batch:
                break
            block = Block(
                height=prev.height + 1,
                prev_hash=prev.block_hash,
                transactions=batch,
                timestamp=ts,
                proposer=f"shard-{self.shard_id}-sealer",
            )
            new_blocks.append(block)
            txs_sealed += len(batch)
            prev = block
        return new_blocks, txs_sealed

    def append_popped(self, blocks: list[Block]) -> None:
        """Execute and commit popped blocks in this process (the
        in-process engine's path, and the process engine's fallback),
        re-admitting the transactions of every uncommitted block on
        failure — the batch was acknowledged only as *queued*, so
        nothing may be silently lost."""
        pending = [block for block in blocks
                   if block.height > self.chain.height]
        if not pending:
            return
        try:
            self.chain.append_blocks(pending)
        except BaseException:
            # The chain unwound the group, unless it committed and a
            # subscriber raised afterwards; re-admit what is not
            # committed.
            committed_height = self.chain.height
            for block in pending:
                if block.height > committed_height:
                    self.mempool.add_many(block.transactions)
            raise

    def finish_round(self, txs_sealed: int,
                     active_s: float) -> ShardResult:
        """Close this shard's round: collect every block the beacon has
        not seen yet (includes anchor-service blocks appended between
        rounds) and fold the admission time accumulated since the
        previous round into ``active_s``.  The anchored watermark itself
        is advanced by seal_round only after the beacon commit succeeds
        — a round that fails in another shard must not leave this
        shard's blocks un-anchorable forever."""
        entries = [
            (self.shard_id, height,
             self.chain.block_at(height).block_hash, b"")
            for height in range(self.anchored_height + 1,
                                self.chain.height + 1)
        ]
        if entries:
            # The round's last entry is the shard's current head, and no
            # execution happens between here and the beacon commit — tag
            # it with the post-execution state root so snapshot images
            # taken at this height verify against the beacon.
            sid, height, block_hash, _ = entries[-1]
            entries[-1] = (sid, height, block_hash,
                           self.chain.state.state_root())
        stats = ShardSealStats(
            txs_sealed=txs_sealed,
            blocks_produced=len(entries),
            duration_s=active_s + self.pending_ingest_s,
            mempool_backlog=len(self.mempool),
        )
        self.pending_ingest_s = 0.0
        return stats, entries, self.chain.height

    def checkpoint(self) -> None:
        """Make the store durable (on disk: fsync both logs, flush the
        index WAL; free in memory).  The state rows already committed
        with each group, so nothing is written here."""
        self.storage.sync()

    def close(self) -> None:
        self.checkpoint()
        self.storage.close()


@dataclass(frozen=True)
class ShardSealStats:
    """What one shard did in one sealing round.

    ``duration_s`` covers the shard's whole round of work: admission of
    the transactions routed to it since the previous round (accumulated
    by :meth:`Shard.admit`, whichever door they came through) plus block
    build and execution.
    """

    txs_sealed: int
    blocks_produced: int
    duration_s: float
    mempool_backlog: int


@dataclass(frozen=True)
class RoundReport:
    """Outcome of one :meth:`ShardedChain.seal_round`."""

    round_no: int
    per_shard: Mapping[int, ShardSealStats]
    beacon_receipt: BeaconReceipt | None
    beacon_duration_s: float

    @property
    def txs_sealed(self) -> int:
        return sum(s.txs_sealed for s in self.per_shard.values())

    @property
    def critical_path_s(self) -> float:
        """Round wall time under the deployment model: shards seal in
        parallel (slowest shard dominates), then the beacon commits."""
        slowest = max(
            (s.duration_s for s in self.per_shard.values()), default=0.0
        )
        return slowest + self.beacon_duration_s

    @property
    def serial_s(self) -> float:
        """Single-machine time: every shard sealed back to back."""
        return (sum(s.duration_s for s in self.per_shard.values())
                + self.beacon_duration_s)


@dataclass
class SubmitReport:
    """Batch-submit outcome with per-shard backpressure accounting.

    Every submitted transaction lands in exactly one bucket:

    * ``accepted[shard]`` — admitted into that shard's mempool;
    * ``queued[shard]`` — parked in an ingest-pipeline queue (admission
      will happen at the next pump; only the pipeline fills this);
    * ``deferred`` — bounced off an active cross-shard lock, retry after
      the transfer settles (``deferred_by_shard`` counts them per home
      shard);
    * ``rejected`` — bounced off a *full* queue or mempool, each paired
      with its structured :class:`~repro.errors.QueueFull` signal
      carrying depth, watermark, and retry-after;
    * ``duplicates`` — already known.

    Nothing is ever silently dropped: the four buckets plus duplicates
    partition the input.
    """

    accepted: dict[int, int] = field(default_factory=dict)
    deferred: list[Transaction] = field(default_factory=list)
    duplicates: int = 0
    queued: dict[int, int] = field(default_factory=dict)
    deferred_by_shard: dict[int, int] = field(default_factory=dict)
    rejected: list[tuple[Transaction, QueueFull]] = field(
        default_factory=list
    )

    @property
    def queued_total(self) -> int:
        return sum(self.queued.values())

    @property
    def rejected_total(self) -> int:
        return len(self.rejected)

    @property
    def rejected_by_shard(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _, signal in self.rejected:
            sid = -1 if signal.shard_id is None else signal.shard_id
            counts[sid] = counts.get(sid, 0) + 1
        return counts

    def min_retry_after_s(self) -> float:
        """Soonest worthwhile retry across every rejection (0.0 if none)."""
        return min((s.retry_after_s for _, s in self.rejected),
                   default=0.0)

    def backpressure_summary(self) -> dict[int, dict[str, int]]:
        """Per-shard ``{accepted, queued, deferred, rejected}`` counters
        — the observable a capture source throttles on."""
        shards = (set(self.accepted) | set(self.queued)
                  | set(self.deferred_by_shard)
                  | set(self.rejected_by_shard))
        return {
            sid: {
                "accepted": self.accepted.get(sid, 0),
                "queued": self.queued.get(sid, 0),
                "deferred": self.deferred_by_shard.get(sid, 0),
                "rejected": self.rejected_by_shard.get(sid, 0),
            }
            for sid in sorted(shards)
        }


class ShardedChain:
    """Facade over N shards, a router, a lock table, and the beacon."""

    _LAYOUT_META_KEY = "layout"

    def __init__(
        self,
        n_shards: int,
        max_block_txs: int = 256,
        anchor_batch_size: int = 64,
        storage_dir: str | None = None,
        checkpoint_every_rounds: int = 0,
        executor: str = "serial",
        exec_workers: int | None = None,
        contract_runtime_factory=None,
        lock_lease_rounds: int = 16,
    ) -> None:
        if n_shards < 1:
            raise ShardError("need at least one shard")
        if executor not in ("serial", "thread", "process"):
            raise ShardError(f"unknown executor mode {executor!r}")
        if exec_workers is not None and exec_workers < 1:
            raise ShardError("exec_workers must be >= 1")
        self.router = ShardRouter(n_shards)
        self.storage_dir = storage_dir
        self.checkpoint_every_rounds = checkpoint_every_rounds
        # Never restored from a checkpoint: a lock's coordinator died
        # with the old process, and CrossShardCoordinator.recover()
        # re-owns what the transfer WAL says is still in flight.
        self.locks = LockTable(lock_lease_rounds)
        # The one place storage is opened: every stack below is built on
        # a Storage bundle and never asks which kind.  Whatever opened
        # before a failure is closed again, so a failed open leaks no
        # sqlite connection or log fd and the directory reopens cleanly.
        opened: list[Storage] = []

        def open_storage(name: str) -> Storage:
            opened.append(MemoryStorage() if storage_dir is None
                          else DurableStorage(os.path.join(storage_dir,
                                                           name)))
            return opened[-1]

        try:
            beacon_store = open_storage("beacon")
            # The deployment's meta surface — its layout row, and the 2PC
            # transfer WAL that rides it — is the beacon store's.
            self.meta: MetaStore = beacon_store
            layout = self.meta.get_meta(self._LAYOUT_META_KEY)
            if layout is None:
                self.meta.put_meta(self._LAYOUT_META_KEY,
                                   {"n_shards": n_shards})
            elif layout.get("n_shards") != n_shards:
                raise ShardError(
                    f"store directory was laid out for "
                    f"{layout.get('n_shards')} shards, not {n_shards}"
                )
            self.shards = [
                Shard(
                    i,
                    ChainParams(
                        chain_id=f"shard-{i}",
                        max_block_txs=max_block_txs,
                    ),
                    open_storage(f"shard-{i}"),
                    anchor_batch_size=anchor_batch_size,
                    contract_runtime_factory=contract_runtime_factory,
                    locks=self.locks,
                )
                for i in range(n_shards)
            ]
            self.beacon = BeaconChain(beacon_store,
                                      ChainParams(chain_id="shard-beacon"))
            _recover_proof_state(beacon_store, "round",
                                 self.beacon.load_proof_state)
        except BaseException:
            for storage in opened:
                storage.close()
            raise
        # Round count and watermarks follow from the beacon's rounds, so
        # they agree with the beacon chain wherever the process died
        # (empty rounds anchor nothing and are not counted across a
        # reopen).
        self.rounds_sealed = self.beacon.rounds_anchored
        for shard in self.shards:
            shard.anchored_height = self.beacon.anchored_height(
                shard.shard_id)
        self._coordinators: list[Any] = []
        self._replica_seq = 0
        self.executor = executor
        # EWMA of recent round wall time; feeds retry-after estimates.
        # RETRY_AFTER_FLOOR_S both seeds the estimate before the first
        # seal and clamps every advertised retry-after (hot-loop guard).
        self._round_pace_s = 0.0
        # Telemetry: spans per shard round / beacon commit, latency
        # histograms on the per-round paths (cheap there — one observe
        # per shard per round), and a collector publishing the per-shard
        # load gauges the ops surface reads.
        # The most recent RoundReport backs health_report()'s
        # slowest-shard attribution.
        tel = telemetry()
        self._registry = registry = tel.registry
        self._tracer = tel.tracer
        self._m_seal_round_s = registry.histogram("seal_round_seconds")
        self._m_beacon_s = registry.histogram("seal_beacon_seconds")
        self._m_txs_sealed = registry.counter("txs_sealed_total")
        self._m_leases_expired = registry.counter(
            "xshard_lock_leases_expired_total"
        )
        self._m_seal_failures = registry.counter("shard_seal_failures_total")
        registry.register_collector(self._collect_metrics)
        self._last_round: RoundReport | None = None
        # Rounds seal inline unless the caller names an engine; engines
        # start threads/processes on first use.
        self.engine: RoundEngine
        if executor == "process":
            from ..exec.engine import ProcessRoundEngine

            self.engine = ProcessRoundEngine(
                (exec_workers if exec_workers is not None
                 else min(4, max(2, n_shards))),
                contract_runtime_factory,
            )
        else:
            self.engine = InProcessEngine(
                n_shards if executor == "thread" else 1)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _collect_metrics(self) -> None:
        """Registry collector: publish per-shard load gauges at snapshot
        time.  Nothing here runs on a hot path — the ops surface reads
        these from ``snapshot()``."""
        registry = self._registry
        for shard in self.shards:
            sid = str(shard.shard_id)
            registry.gauge("shard_mempool_backlog", shard=sid).set(
                len(shard.mempool)
            )
            registry.gauge("shard_height", shard=sid).set(
                shard.chain.height
            )
            registry.gauge("shard_anchored_height", shard=sid).set(
                shard.anchored_height
            )
        registry.gauge("crossshard_locks_active").set(len(self.locks))
        registry.gauge("round_pace_seconds").set(self._round_pace_s)
        registry.counter("rounds_sealed_total").value = self.rounds_sealed

    def health_report(self) -> dict:
        """Operator rollup: per-shard backlog and heights, round pace,
        and slowest-shard attribution for the most recent sealed round.
        Every key is canonical-encodable (shard ids are strings), so the
        ``ops`` op ships it over either carrier verbatim."""
        per_shard: dict[str, dict] = {}
        for shard in self.shards:
            per_shard[str(shard.shard_id)] = {
                "height": shard.chain.height,
                "anchored_height": shard.anchored_height,
                "mempool_backlog": len(shard.mempool),
            }
        report: dict[str, Any] = {
            "n_shards": len(self.shards),
            "rounds_sealed": self.rounds_sealed,
            "round_pace_s": self._round_pace_s,
            "mempool_backlog_total": self.mempool_backlog,
            "locks_active": len(self.locks),
            "per_shard": per_shard,
            "slowest_shard": None,
            "slowest_seal_s": 0.0,
            "critical_path_s": 0.0,
        }
        last = self._last_round
        if last is not None:
            report["last_round_no"] = last.round_no
            report["last_round_txs"] = last.txs_sealed
            report["critical_path_s"] = last.critical_path_s
            slowest_sid = None
            slowest_s = 0.0
            for sid, stats in last.per_shard.items():
                per_shard[str(sid)]["last_seal_s"] = stats.duration_s
                per_shard[str(sid)]["last_txs_sealed"] = stats.txs_sealed
                if stats.duration_s >= slowest_s:
                    slowest_sid, slowest_s = sid, stats.duration_s
            if slowest_sid is not None:
                # String, like the per_shard keys it indexes into.
                report["slowest_shard"] = str(slowest_sid)
                report["slowest_seal_s"] = slowest_s
        return report

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Checkpoint every shard and the beacon — per store, the log
        fsyncs and the index WAL flush, nothing else: proof state and
        state rows already committed with their blocks, so a reopened
        :class:`ShardedChain` on the same ``storage_dir`` replays no
        block with or without one.  Free for in-memory deployments."""
        for shard in self.shards:
            shard.checkpoint()
        self.beacon.checkpoint()

    def close(self) -> None:
        """Checkpoint and release every store (reopenable afterwards)."""
        self._release(checkpoint=True)

    def crash(self) -> None:
        """Fail-stop, for crash testing: release every OS resource
        WITHOUT checkpointing, as if the process died right here.
        Durable state is exactly what the stores already committed —
        sealed block segments with their derived proof rows and state
        rows, records, per-write meta commits (the 2PC WAL) — so a
        reopen replays no block, and that is what a reopened
        :class:`ShardedChain` plus
        a new ``CrossShardCoordinator`` (it replays the WAL) must cope
        with."""
        self._coordinators.clear()
        self._release(checkpoint=False)

    def _release(self, checkpoint: bool) -> None:
        """Shared tail of close() and crash()."""
        self.engine.close()
        if checkpoint:
            self.checkpoint()
        for shard in self.shards:
            shard.storage.close()
        self.beacon.storage.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard(self, shard_id: int) -> Shard:
        if not 0 <= shard_id < len(self.shards):
            raise ShardError(f"no shard {shard_id}")
        return self.shards[shard_id]

    def shard_for_subject(self, subject: str) -> Shard:
        return self.shards[self.router.shard_for_subject(subject)]

    @property
    def total_txs_committed(self) -> int:
        return sum(s.chain.store.tx_count() for s in self.shards)

    @property
    def mempool_backlog(self) -> int:
        return sum(len(s.mempool) for s in self.shards)

    def verify_all(self, deep: bool = False) -> None:
        """Audit every shard chain and the beacon, then hold each shard to
        what the beacon committed: the block at every anchored height
        must hash to its round's entry.  A rewritten suffix that still
        links passes its chain's own audit, never this one.  Raises
        :class:`TamperDetected` with the ``height`` of the first break."""
        for shard in self.shards:
            shard.chain.verify(deep=deep)
        self.beacon.chain.verify(deep=deep)
        for shard in self.shards:
            sid, chain = shard.shard_id, shard.chain
            if chain.height < shard.anchored_height:
                raise TamperDetected(
                    f"shard {sid} ends at height {chain.height}; the "
                    f"beacon anchored up to {shard.anchored_height}",
                    height=chain.height + 1)
            for height in range(1, shard.anchored_height + 1):
                header = chain.block_at(height).header
                entry = self.beacon.anchored_entry(sid, height)
                if entry is not None and entry[2] != (
                        header.compute_block_hash() if deep
                        else header.block_hash):
                    raise TamperDetected(
                        f"shard {sid} block {height} is not the block the "
                        "beacon anchored", height=height)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit(self, tx: Transaction) -> int:
        """Route one transaction to its shard and admit it; returns the
        shard id.  See :meth:`submit_to` for what is raised."""
        shard_id = self.router.route(tx)
        self._submit_one(shard_id, tx)
        return shard_id

    def submit_to(self, shard_id: int, tx: Transaction) -> None:
        """Protocol-path submit (2PC lock/commit/abort legs): bypasses the
        router but still honors the lock table's xid exemption and its
        coordinator-epoch fence.  A door of one, so it raises what
        admission refused: :class:`ShardError` with
        ``reason="lock_conflict"`` for a locked subject,
        :class:`~repro.errors.InvalidTransaction` for an invalid
        transaction, and the shard-tagged
        :class:`~repro.errors.QueueFull` (retry-after included) for a
        full mempool."""
        self.locks.check_leg(shard_id, tx)
        self._submit_one(shard_id, tx)

    def _submit_one(self, shard_id: int, tx: Transaction) -> None:
        admission = self.shards[shard_id].admit([tx])
        if admission.deferred:
            raise ShardError(
                f"shard {shard_id}: subject "
                f"{tx.payload.get('subject')!r} is locked by a cross-shard "
                "transfer; resubmit after it settles",
                reason="lock_conflict",
            )
        if isinstance(admission.error, QueueFull):
            raise self._mempool_full(shard_id, admission.error)
        if admission.error is not None:
            raise admission.error

    def _mempool_full(self, shard_id: int, full: QueueFull) -> QueueFull:
        """A full mempool's signal, tagged with its shard and a
        retry-after estimate."""
        return self.backpressure_signal(shard_id, full.depth, full.capacity,
                                        full.capacity, source="mempool")

    def backpressure_signal(self, shard_id: int, depth: int,
                            capacity: int, high_watermark: int,
                            source: str = "queue") -> QueueFull:
        """Build the structured retry-after signal for one full shard
        queue, using the facade's recent round pace to convert rounds
        into wall time.

        Before the first seal the EWMA has no sample; the estimate is
        seeded with ``RETRY_AFTER_FLOOR_S`` per round instead of
        advertising 0.0 — a remote client honoring a zero retry-after
        verbatim would hot-loop the gateway.  The final value is clamped
        to the same floor.
        """
        per_round = max(1, self.shards[shard_id].chain.params.max_block_txs)
        over = depth - high_watermark + 1
        rounds = max(1, math.ceil(over / per_round))
        pace = self._round_pace_s if self._round_pace_s > 0.0 \
            else RETRY_AFTER_FLOOR_S
        return QueueFull(
            f"shard {shard_id} {source} full "
            f"({depth}/{capacity}); retry in ~{rounds} round(s)",
            shard_id=shard_id,
            depth=depth,
            capacity=capacity,
            high_watermark=high_watermark,
            retry_after_rounds=rounds,
            retry_after_s=rounds * pace,
            min_retry_after_s=RETRY_AFTER_FLOOR_S,
        )

    def submit_many(self, txs: Iterable[Transaction]) -> SubmitReport:
        """Batched submit: one router pass, then one :meth:`Shard.admit`
        per shard bucket.  Lock-conflicted transactions come back in
        ``deferred`` for the caller to retry once the transfer settles,
        and a shard whose mempool fills mid-batch bounces the rest of
        its bucket into ``rejected`` with a retry-after signal — nothing
        is silently dropped.  An invalid transaction raises
        :class:`~repro.errors.InvalidTransaction`; what came before it
        is admitted, nothing after it."""
        report = SubmitReport()
        for shard_id, bucket in self.router.partition(txs).items():
            admission = self.shards[shard_id].admit(bucket)
            if admission.accepted:
                report.accepted[shard_id] = admission.accepted
            report.duplicates += admission.duplicates
            if admission.deferred:
                report.deferred.extend(admission.deferred)
                report.deferred_by_shard[shard_id] = len(admission.deferred)
            if isinstance(admission.error, QueueFull):
                signal = self._mempool_full(shard_id, admission.error)
                report.rejected.extend((tx, signal)
                                       for tx in admission.rest)
            elif admission.error is not None:
                raise admission.error
        return report

    def _route_records(
        self, records: Sequence[Mapping[str, Any]]
    ) -> dict[int, list[Mapping[str, Any]]]:
        """Bucket records by home shard.  This door runs the record rule
        once for the whole batch — a failure (a duplicate of one its
        home shard holds included) raises :class:`RecordValidationError`
        — and a lock conflict raises :class:`ShardError`, both before
        anything is stored.  Each record is routed once, by the
        duplicate check: the rule asks it of every record, in order,
        once the record itself has passed."""
        homes: list[int] = []

        def stored(record: Mapping[str, Any]) -> bool:
            homes.append(self.router.shard_for_subject(record["subject"]))
            return self.shards[homes[-1]].database.contains(
                record["record_id"])

        check_records(records, stored)
        buckets: dict[int, list[Mapping[str, Any]]] = {}
        for record, shard_id in zip(records, homes):
            subject = record["subject"]
            if self.locks.blocks(shard_id, subject, record.get("xid")):
                raise ShardError(
                    f"subject {subject!r} is locked by a cross-shard "
                    "transfer; ingest after it settles"
                )
            buckets.setdefault(shard_id, []).append(record)
        return buckets

    def ingest_record(
        self, record: Mapping[str, Any]
    ) -> tuple[int, AnchorReceipt | None]:
        """Store a provenance record on its home shard and queue it for
        anchoring; returns ``(shard_id, anchor receipt if one flushed)``.
        A batch of one whose fsync is deferred to the next group commit
        or checkpoint."""
        buckets = self._route_records([record])
        [shard_id] = buckets
        flushed = self._write_buckets(buckets, fsync=False)
        return shard_id, next(iter(flushed.get(shard_id, ())), None)

    def ingest_records(
        self, records: Sequence[Mapping[str, Any]], fsync: bool = True
    ) -> dict[int, list[AnchorReceipt]]:
        """Batched record ingest: one routing pass that runs the record
        rule once, then per shard one call of the record writer
        (:meth:`~repro.persist.provdb.ProvenanceDatabase.write`: each
        record encoded once, one group-committed write — one log write +
        one index transaction on the durable backend, fsynced when
        ``fsync`` — and the same bytes enqueued for anchoring).  Returns
        the anchor receipts flushed per shard.
        A record that fails the record rule
        (:func:`~repro.persist.codec.check_record`, a duplicate id
        included) raises :class:`RecordValidationError` — the one error
        type for a bad record — and a locked subject raises
        :class:`ShardError`, both before anything is stored: a batch
        that fails *validation* commits nothing on any shard.  (A
        storage-layer crash mid-call can still leave the shards
        committed before the failure point durably stored; their logs
        recover independently, and the failed shards' records can be
        re-ingested.)"""
        return self._write_buckets(self._route_records(records), fsync)

    def _write_buckets(
        self, buckets: dict[int, list[Mapping[str, Any]]], fsync: bool
    ) -> dict[int, list[AnchorReceipt]]:
        receipts: dict[int, list[AnchorReceipt]] = {}
        for shard_id, bucket in buckets.items():
            shard = self.shards[shard_id]
            flushed = shard.database.write(bucket, shard.anchor, fsync)
            if flushed:
                receipts[shard_id] = flushed
            shard.query.notify_write()
        return receipts

    def flush_anchors(self) -> dict[int, AnchorReceipt]:
        """Force-flush every shard's pending anchor batch (anchor blocks
        are beacon-committed by the next :meth:`seal_round`)."""
        receipts: dict[int, AnchorReceipt] = {}
        for shard in self.shards:
            receipt = shard.anchor.flush()
            if receipt is not None:
                receipts[shard.shard_id] = receipt
        return receipts

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------
    def attach_coordinator(self, coordinator: Any) -> None:
        """Register an observer whose ``on_round_sealed(report)`` runs
        after each round (the 2PC coordinator drives its phases there)."""
        self._coordinators.append(coordinator)

    def detach_coordinator(self, coordinator: Any) -> None:
        """Unregister a round observer (no-op when absent).  The chaos
        harness detaches a 'crashed' coordinator so the zombie instance
        stops being driven while its recovered successor takes over."""
        try:
            self._coordinators.remove(coordinator)
        except ValueError:
            pass

    def seal_round(
        self,
        shard_ids: Sequence[int] | None = None,
        timestamp: int | None = None,
        blocks_per_shard: int = 1,
    ) -> RoundReport:
        """Seal up to ``blocks_per_shard`` blocks per loaded shard, then
        beacon-anchor the round.

        ``shard_ids`` restricts sealing to a subset (a stalled shard in
        the tests; a partitioned one in life).  Blocks appended outside
        the round (anchor-service flushes) are picked up and anchored
        too, so every shard block ends up under exactly one beacon
        header.

        Outcomes of the engine chosen at construction
        (:mod:`repro.sharding.engines`) are merged in shard order, so
        the beacon commitment is byte-identical across engines.  A failed
        shard fails the round: every failed outcome is counted in
        ``shard_seal_failures_total`` and the first is raised before the
        beacon commit (nothing is anchored; the failed shards' popped
        transactions are back in their mempools, and a retry anchors
        what the other shards committed).  A shard id named twice is
        refused before anything seals.
        """
        if blocks_per_shard < 1:
            raise ShardError("blocks_per_shard must be >= 1")
        if shard_ids is not None and len(set(shard_ids)) != len(shard_ids):
            raise ShardError(f"shard_ids names a shard twice: "
                             f"{list(shard_ids)}")
        self._m_leases_expired.inc(self.locks.sweep(self.rounds_sealed))
        selected = [self.shard(sid) for sid in shard_ids] \
            if shard_ids is not None else list(self.shards)
        ts = self.rounds_sealed if timestamp is None else timestamp
        round_t0 = time.perf_counter()
        per_shard: dict[int, ShardSealStats] = {}
        sealed_heights: dict[int, int] = {}
        entries: list[tuple[int, int, bytes, bytes]] = []
        with self._tracer.root_span("round.seal") as round_span:
            round_span.set_attr("round", self.rounds_sealed)
            round_span.set_attr("mode", self.engine.name)
            outcomes = self.engine.seal(selected, ts, blocks_per_shard)
            failures = [o for o in outcomes if isinstance(o, BaseException)]
            if failures:
                self._m_seal_failures.inc(len(failures))
                raise failures[0]
            for shard, (stats, shard_entries, height) in zip(selected,
                                                             outcomes):
                per_shard[shard.shard_id] = stats
                sealed_heights[shard.shard_id] = height
                entries.extend(shard_entries)
            t0 = time.perf_counter()
            with self._tracer.span("round.beacon_commit") as beacon_span:
                beacon_receipt = (
                    self.beacon.anchor_round(entries, timestamp=ts)
                    if entries else None
                )
                beacon_span.set_attr("entries", len(entries))
            beacon_s = time.perf_counter() - t0
            self._m_beacon_s.observe(beacon_s)
        # Advance the anchored watermarks only now, with the round's
        # beacon commitment durable: a seal or beacon failure above
        # leaves the watermarks untouched, so the next successful round
        # re-collects (and actually anchors) the same blocks.
        for shard_id, height in sealed_heights.items():
            self.shards[shard_id].anchored_height = height
        report = RoundReport(
            round_no=self.rounds_sealed,
            per_shard=per_shard,
            beacon_receipt=beacon_receipt,
            beacon_duration_s=beacon_s,
        )
        self.rounds_sealed += 1
        round_s = time.perf_counter() - round_t0
        self._round_pace_s = (round_s if self._round_pace_s == 0.0
                              else 0.8 * self._round_pace_s + 0.2 * round_s)
        self._m_seal_round_s.observe(round_s)
        self._m_txs_sealed.inc(report.txs_sealed)
        self._last_round = report
        for coordinator in self._coordinators:
            coordinator.on_round_sealed(report)
        if (self.checkpoint_every_rounds > 0
                and self.rounds_sealed % self.checkpoint_every_rounds == 0):
            self.checkpoint()
        return report

    # ------------------------------------------------------------------
    # Replicas (snapshot sync; see repro.sync)
    # ------------------------------------------------------------------
    def spawn_replica(
        self,
        shard_id: int,
        storage_dir: str,
        net,
        node_id: str | None = None,
        peers: Sequence[str] = (),
    ):
        """Create a :class:`~repro.sync.replica.ShardReplica` of one
        shard: a durable store directory plus a network identity that
        :meth:`~repro.sync.replica.ShardReplica.catch_up` brings to the
        beacon-anchored head over ``peers`` (snapshot-sync gateway
        nodes) with zero genesis replay.

        The replica inherits the shard's chain parameters and uses
        *this* facade's beacon as its trust root — on a real deployment
        that is the beacon light-client sync the ROADMAP still lists;
        verification only ever touches beacon headers.
        """
        from ..sync.replica import ShardReplica

        shard = self.shard(shard_id)          # validates the id
        if node_id is None:
            node_id = f"replica-{shard.chain.chain_id}-{self._replica_seq}"
            self._replica_seq += 1
        return ShardReplica(
            shard_id=shard_id,
            params=ChainParams(
                chain_id=shard.chain.chain_id,
                max_block_txs=shard.chain.params.max_block_txs,
            ),
            storage_dir=storage_dir,
            net=net,
            node_id=node_id,
            peers=peers,
            beacon=self.beacon,
            anchor_batch_size=shard.anchor.batch_size,
        )

    def seal_until_drained(self, max_rounds: int = 10_000) -> list[RoundReport]:
        """Seal rounds until every mempool is empty (bench/test helper)."""
        reports: list[RoundReport] = []
        while self.mempool_backlog and len(reports) < max_rounds:
            reports.append(self.seal_round())
        if self.mempool_backlog:
            raise ShardError(
                f"mempools not drained after {max_rounds} rounds"
            )
        return reports
