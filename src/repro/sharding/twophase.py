"""Cross-shard transfers: crash-safe two-phase lock/commit over shards.

A provenance handoff whose source and derived objects live on different
shards cannot be a single transaction — no block contains both writes.
The coordinator runs the classic 2PC shape on top of the chains, using
the :mod:`repro.crosschain.messages` idiom of on-chain protocol legs:

* **prepare** — lock both subjects in the facade's lock table and commit
  a ``lock`` transaction on each participant shard (the durable record
  that the handoff began);
* **commit** — once every lock leg is on-chain, commit a ``commit``
  transaction per shard carrying the writes, then materialize the
  handoff provenance records (``handoff-out`` on the source shard,
  ``handoff-in`` on the target) and release the locks;
* **abort** — if the prepare phase is not fully on-chain within
  ``timeout_rounds`` sealing rounds (a stalled or partitioned shard),
  commit ``abort`` legs where possible and **unlock** — the subjects are
  writable again and no provenance record of the handoff ever appears.

Atomicity argument: the handoff records are inserted only on full
commit, and while any phase is in flight both subjects are locked, so no
interleaved write can observe a half-transferred object.

Crash safety
------------

The coordinator writes a **transfer WAL** to the facade's meta surface
(``sharded.meta``, the beacon store's — each write commits before
returning on a durable deployment) and follows a persist-before-act
discipline: every state transition — ``begin``, each
``lock_leg``/``commit_leg`` submission,
``committing``, ``finalizing``, and the terminal ``finalized`` /
``aborting`` / ``aborted`` steps — lands in the WAL *before* the action
it describes takes effect.  On reopen, :meth:`CrossShardCoordinator.
recover` replays the WAL **presumed-abort**:

* a transfer whose commit legs are all on-chain is *finalized* — the
  handoff record pair is re-materialized idempotently (a record already
  stored is skipped: reopening its shard already queued it for
  anchoring if no anchor covered it);
* every other in-flight transfer is *aborted* and its subjects unlocked.

Each coordinator generation takes a strictly increasing **epoch**
(persisted in the same meta table) and stamps it on every protocol leg;
the facade refuses legs from a fenced (older) epoch, locks carry the
holder epoch plus a lease round, and a recovered coordinator reclaims
its predecessors' locks under the new epoch — a zombie coordinator that
lost the recovery race can neither land half a transfer on-chain nor
release a lock its successor re-owns.  The ``crash_after_wal_writes`` /
``crash_at_step`` hooks raise :class:`~repro.persist.segment.CrashPoint`
immediately *after* a WAL write, which is how the chaos harness's crash
matrix kills the coordinator at every persisted step boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..chain import Transaction, TxKind
from ..errors import ChainError, ShardError
from ..persist.segment import CrashPoint
from .shardchain import RoundReport, ShardedChain

#: Transfer lifecycle states.
PREPARING = "preparing"
COMMITTING = "committing"
FINALIZING = "finalizing"
COMMITTED = "committed"
ABORTING = "aborting"
ABORTED = "aborted"

#: Base names of the persisted WAL steps, in protocol order.  Per-shard
#: leg steps are written as ``"lock_leg:{shard_id}"`` etc.; the crash
#: hooks match either the base name or the full step string.
WAL_STEPS = (
    "begin", "lock_leg", "committing", "commit_leg",
    "finalizing", "finalized", "aborting", "aborted",
)


@dataclass
class TransferOutcome:
    """What a cross-shard or cross-chain transfer attempt cost and how
    it ended (:mod:`repro.crosschain.messages` re-exports it for the
    surveyed mechanisms).

    ``status``: ``"completed"`` | ``"aborted"`` | ``"refunded"``.
    The EVAL-XCHAIN bench aggregates these across mechanisms.
    """

    mechanism: str
    status: str
    messages: int = 0
    on_chain_txs: int = 0
    latency_ticks: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.status == "completed"


@dataclass
class CrossShardTransfer:
    """One handoff's 2PC state machine."""

    xid: str
    source_subject: str
    target_subject: str
    source_shard: int
    target_shard: int
    payload: dict
    started_round: int
    deadline_round: int
    timestamp: int = 0
    state: str = PREPARING
    epoch: int = 0
    wal_step: str = ""
    lock_tx_ids: dict[int, str] = field(default_factory=dict)
    commit_tx_ids: dict[int, str] = field(default_factory=dict)
    outcome: TransferOutcome | None = None

    @property
    def participants(self) -> tuple[int, ...]:
        """Distinct shards involved (one when both subjects co-reside)."""
        if self.source_shard == self.target_shard:
            return (self.source_shard,)
        return (self.source_shard, self.target_shard)

    @property
    def is_cross_shard(self) -> bool:
        return self.source_shard != self.target_shard

    def subjects_on(self, shard_id: int) -> list[str]:
        subjects = []
        if shard_id == self.source_shard:
            subjects.append(self.source_subject)
        if shard_id == self.target_shard and \
                self.target_subject not in subjects:
            subjects.append(self.target_subject)
        return subjects

    # ------------------------------------------------------------------
    # WAL round-trip (canonical-encodable: string keys, pair lists)
    # ------------------------------------------------------------------
    def to_wal_record(self, step: str) -> dict:
        return {
            "xid": self.xid,
            "source_subject": self.source_subject,
            "target_subject": self.target_subject,
            "source_shard": self.source_shard,
            "target_shard": self.target_shard,
            "payload": dict(self.payload),
            "started_round": self.started_round,
            "deadline_round": self.deadline_round,
            "timestamp": self.timestamp,
            "state": self.state,
            "epoch": self.epoch,
            "step": step,
            "lock_tx_ids": sorted(
                [sid, tx_id] for sid, tx_id in self.lock_tx_ids.items()
            ),
            "commit_tx_ids": sorted(
                [sid, tx_id] for sid, tx_id in self.commit_tx_ids.items()
            ),
        }

    @classmethod
    def from_wal_record(cls, rec: Mapping[str, Any]) -> CrossShardTransfer:
        transfer = cls(
            xid=str(rec["xid"]),
            source_subject=str(rec["source_subject"]),
            target_subject=str(rec["target_subject"]),
            source_shard=int(rec["source_shard"]),
            target_shard=int(rec["target_shard"]),
            payload=dict(rec.get("payload", {})),
            started_round=int(rec.get("started_round", 0)),
            deadline_round=int(rec.get("deadline_round", 0)),
            timestamp=int(rec.get("timestamp", 0)),
            state=str(rec.get("state", PREPARING)),
            epoch=int(rec.get("epoch", 0)),
            wal_step=str(rec.get("step", "")),
        )
        transfer.lock_tx_ids = {
            int(sid): str(tx_id)
            for sid, tx_id in rec.get("lock_tx_ids", [])
        }
        transfer.commit_tx_ids = {
            int(sid): str(tx_id)
            for sid, tx_id in rec.get("commit_tx_ids", [])
        }
        return transfer


class CrossShardCoordinator:
    """Drives cross-shard transfers phase by phase, one sealing round at
    a time (attach to the facade; :meth:`on_round_sealed` is its tick).
    See the module docstring for the WAL / epoch / recovery contract."""

    _SEQ_KEY = "xshard/seq"
    _EPOCH_KEY = "xshard/epoch"
    _ACTIVE_KEY = "xshard/active"
    _T_PREFIX = "xshard/t/"

    def __init__(
        self,
        sharded: ShardedChain,
        timeout_rounds: int = 3,
        sender: str = "xshard-coordinator",
        recover: bool = True,
    ) -> None:
        if timeout_rounds < 1:
            raise ShardError("timeout must be at least one round")
        self.sharded = sharded
        self.timeout_rounds = timeout_rounds
        self.sender = sender
        self.transfers: dict[str, CrossShardTransfer] = {}
        self.committed = 0
        self.aborted = 0
        self.recovered = 0
        # Crash-injection hooks (crash-matrix tests / chaos harness):
        # raise CrashPoint immediately AFTER the matching WAL write, so
        # every persisted step boundary is a kill site.
        self.crash_at_step: str | None = None
        self.crash_after_wal_writes: int | None = None
        self.wal_writes = 0
        # Generation fencing: every coordinator on this store gets a
        # strictly increasing epoch, persisted before use.
        self.epoch = int(sharded.meta.get_meta(self._EPOCH_KEY, 0)) + 1
        sharded.meta.put_meta(self._EPOCH_KEY, self.epoch)
        sharded.locks.fence(self.epoch)
        # Seed the xid sequence from the store: together with the epoch
        # prefix this makes xids collision-free across restarts.
        self._seq = int(sharded.meta.get_meta(self._SEQ_KEY, 0))
        registry = sharded.telemetry.registry
        self._registry = registry
        self._m_abort_legs_lost = registry.counter(
            "xshard_abort_legs_lost_total"
        )
        sharded.attach_coordinator(self)
        self.last_recovery: dict | None = None
        if recover:
            self.last_recovery = self.recover()

    # ------------------------------------------------------------------
    # Phase 1: begin / prepare
    # ------------------------------------------------------------------
    def begin(
        self,
        source_subject: str,
        target_subject: str,
        payload: Mapping[str, Any] | None = None,
        actor: str = "",
        timestamp: int = 0,
    ) -> CrossShardTransfer:
        """Start a handoff; returns the transfer (check ``state`` — a
        lock conflict aborts immediately rather than deadlocking)."""
        router = self.sharded.router
        xid = f"xfer-e{self.epoch:03d}-{self._seq:06d}"
        self._seq += 1
        self.sharded.meta.put_meta(self._SEQ_KEY, self._seq)
        transfer = CrossShardTransfer(
            xid=xid,
            source_subject=source_subject,
            target_subject=target_subject,
            source_shard=router.shard_for_subject(source_subject),
            target_shard=router.shard_for_subject(target_subject),
            payload=dict(payload or {}),
            started_round=self.sharded.rounds_sealed,
            deadline_round=self.sharded.rounds_sealed + self.timeout_rounds,
            timestamp=timestamp,
            epoch=self.epoch,
        )
        transfer.payload.setdefault("actor", actor or self.sender)
        # Both subjects or neither: two transfers over the same pair
        # cannot deadlock on half a lock set each.
        if not self.sharded.locks.acquire(
                self._lock_pairs(transfer), xid,
                self.sharded.rounds_sealed, epoch=self.epoch):
            # Nothing durable happened: no WAL entry, no legs.
            transfer.state = ABORTED
            transfer.outcome = self._outcome(transfer, "aborted",
                                             reason="lock_conflict")
            self.aborted += 1
            self._count_abort("lock_conflict")
            self.transfers[xid] = transfer
            return transfer
        self.transfers[xid] = transfer
        self._wal_begin(transfer)
        try:
            for shard_id in transfer.participants:
                tx = self._leg(transfer, shard_id, phase="lock")
                transfer.lock_tx_ids[shard_id] = tx.tx_id
                self._wal_write(transfer, f"lock_leg:{shard_id}")
                self.sharded.submit_to(shard_id, tx)
        except ChainError:
            # A leg that cannot even be queued (full mempool) must not
            # leave the subjects locked forever.
            self._abort(transfer, reason="submit_failed")
        return transfer

    # ------------------------------------------------------------------
    # Round tick: advance every in-flight transfer
    # ------------------------------------------------------------------
    def on_round_sealed(self, report: RoundReport) -> None:
        round_no = report.round_no
        for transfer in list(self.transfers.values()):
            if transfer.state == PREPARING:
                if len(transfer.lock_tx_ids) == len(transfer.participants) \
                        and self._all_committed(transfer,
                                                transfer.lock_tx_ids):
                    self._start_commit(transfer)
                elif round_no >= transfer.deadline_round:
                    self._abort(transfer, reason="prepare_timeout")
            elif transfer.state == COMMITTING:
                if self._all_committed(transfer, transfer.commit_tx_ids):
                    self._finalize(transfer)
            if transfer.state in (PREPARING, COMMITTING):
                # Re-acquiring with the owning xid renews the lease each
                # round; a lease that expires marks a dead coordinator.
                self.sharded.locks.acquire(
                    self._lock_pairs(transfer), transfer.xid,
                    self.sharded.rounds_sealed, epoch=self.epoch)

    # ------------------------------------------------------------------
    # Recovery (WAL replay, presumed-abort)
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Replay the transfer WAL after a coordinator (or process)
        death: re-own every in-flight transfer's locks under this
        coordinator's epoch, finalize the transfers whose commit legs
        are all on-chain (idempotently re-materializing the handoff
        record pair), presumed-abort everything else, then sweep locks
        stale generations left behind.  Safe to call on a fresh store
        (empty WAL → no-op); returns a summary dict."""
        summary: dict[str, Any] = {
            "finalized": [], "aborted": [], "cleaned": [],
            "locks_dropped": 0,
        }
        for xid in self._active_xids():
            rec = self.sharded.meta.get_meta(self._T_PREFIX + xid)
            if rec is None:
                self._active_remove(xid)
                summary["cleaned"].append(xid)
                continue
            transfer = CrossShardTransfer.from_wal_record(rec)
            self.transfers[xid] = transfer
            if transfer.state in (COMMITTED, ABORTED):
                # Terminal step persisted but the active-list update was
                # lost with the crash: nothing to resolve, just clean up
                # (any leftover locks fall to the stale sweep below).
                self._active_remove(xid)
                summary["cleaned"].append(xid)
                continue
            transfer.epoch = self.epoch
            self.sharded.locks.reclaim(self._lock_pairs(transfer), xid,
                                       self.sharded.rounds_sealed,
                                       self.epoch)
            if transfer.state in (COMMITTING, FINALIZING) \
                    and len(transfer.commit_tx_ids) \
                    == len(transfer.participants) \
                    and self._all_committed(transfer,
                                            transfer.commit_tx_ids):
                self._finalize(transfer)
                summary["finalized"].append(xid)
                self._count_recovered("finalized")
            else:
                self._abort(transfer, reason="recovered_presumed_abort")
                summary["aborted"].append(xid)
                self._count_recovered("aborted")
            self.recovered += 1
        summary["locks_dropped"] = self.sharded.locks.drop_stale(self.epoch)
        return summary

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, xid: str) -> CrossShardTransfer:
        transfer = self.transfers.get(xid)
        if transfer is None:
            raise ShardError(f"unknown transfer {xid!r}")
        return transfer

    @property
    def active(self) -> list[CrossShardTransfer]:
        return [t for t in self.transfers.values()
                if t.state in (PREPARING, COMMITTING, FINALIZING)]

    # ------------------------------------------------------------------
    # WAL plumbing
    # ------------------------------------------------------------------
    def _active_xids(self) -> list[str]:
        return list(self.sharded.meta.get_meta(self._ACTIVE_KEY, []) or [])

    def _wal_begin(self, transfer: CrossShardTransfer) -> None:
        active = self._active_xids()
        if transfer.xid not in active:
            active.append(transfer.xid)
            self.sharded.meta.put_meta(self._ACTIVE_KEY, active)
        self._wal_write(transfer, "begin")

    def _wal_write(self, transfer: CrossShardTransfer, step: str) -> None:
        """Persist the transfer's current state under ``step``, then
        fire the crash hooks — the injected CrashPoint lands *after*
        the write committed, which is exactly the boundary a real
        process death exposes."""
        transfer.wal_step = step
        self.sharded.meta.put_meta(self._T_PREFIX + transfer.xid,
                              transfer.to_wal_record(step))
        self.wal_writes += 1
        if self.crash_after_wal_writes is not None \
                and self.wal_writes >= self.crash_after_wal_writes:
            raise CrashPoint(
                f"injected coordinator crash after WAL write "
                f"{self.wal_writes} (step {step!r})"
            )
        if self.crash_at_step is not None \
                and self.crash_at_step in (step, step.split(":", 1)[0]):
            raise CrashPoint(
                f"injected coordinator crash at WAL step {step!r}"
            )

    def _wal_terminal(self, transfer: CrossShardTransfer,
                      step: str) -> None:
        self._wal_write(transfer, step)
        self._active_remove(transfer.xid)

    def _active_remove(self, xid: str) -> None:
        active = self._active_xids()
        if xid in active:
            active.remove(xid)
            self.sharded.meta.put_meta(self._ACTIVE_KEY, active)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _lock_pairs(transfer: CrossShardTransfer) -> list[tuple[int, str]]:
        return sorted(
            {(transfer.source_shard, transfer.source_subject),
             (transfer.target_shard, transfer.target_subject)}
        )

    def _leg(self, transfer: CrossShardTransfer, shard_id: int,
             phase: str) -> Transaction:
        """One on-chain protocol leg (lock / commit / abort)."""
        payload: dict[str, Any] = {
            "message_id": f"{transfer.xid}:{phase}:{shard_id}",
            "xid": transfer.xid,
            "phase": phase,
            "epoch": self.epoch,
            "subjects": transfer.subjects_on(shard_id),
            "source": transfer.source_subject,
            "target": transfer.target_subject,
        }
        if phase == "commit":
            payload["writes"] = dict(transfer.payload)
        # Protocol legs carry a fee so the fee-priority mempool seals
        # them ahead of bulk capture traffic: locks are held for rounds,
        # not for the whole backlog.
        return Transaction(
            sender=self.sender,
            kind=TxKind.CROSS_CHAIN,
            payload=payload,
            timestamp=transfer.timestamp,
            fee=1,
        ).seal()

    def _all_committed(self, transfer: CrossShardTransfer,
                       tx_ids: Mapping[int, str]) -> bool:
        return all(
            self.sharded.shard(sid).chain.find_transaction(tx_id) is not None
            for sid, tx_id in tx_ids.items()
        )

    def _start_commit(self, transfer: CrossShardTransfer) -> None:
        transfer.state = COMMITTING
        self._wal_write(transfer, "committing")
        try:
            for shard_id in transfer.participants:
                tx = self._leg(transfer, shard_id, phase="commit")
                transfer.commit_tx_ids[shard_id] = tx.tx_id
                self._wal_write(transfer, f"commit_leg:{shard_id}")
                self.sharded.submit_to(shard_id, tx)
        except ChainError:
            self._abort(transfer, reason="submit_failed")

    # Record fields the transfer payload may never override: they carry
    # the protocol's identity, routing, and ordering.
    _PROTECTED_FIELDS = frozenset(
        {"record_id", "subject", "operation", "peer", "actor",
         "timestamp", "xid"}
    )

    def _finalize(self, transfer: CrossShardTransfer) -> None:
        """Both commit legs are on-chain: materialize the handoff
        records durably (one fsynced ``ingest_records`` bucket per
        participant shard), then write the terminal WAL step and release
        the locks.  Idempotent — recovery replays this for a transfer
        that crashed mid-finalize, and a record already stored is
        skipped: it is anchored, or its reopened shard re-queued it."""
        transfer.state = FINALIZING
        self._wal_write(transfer, "finalizing")
        actor = str(transfer.payload.get("actor", self.sender))
        extra = {k: v for k, v in transfer.payload.items()
                 if k not in self._PROTECTED_FIELDS}
        pair = [
            (shard_id, {
                **extra,
                "record_id": f"{transfer.xid}:{side}",
                "subject": subject,
                "operation": f"handoff-{side}",
                "peer": peer,
                "actor": actor,
                "timestamp": transfer.timestamp,
                "xid": transfer.xid,
            })
            for shard_id, side, subject, peer in (
                (transfer.source_shard, "out",
                 transfer.source_subject, transfer.target_subject),
                (transfer.target_shard, "in",
                 transfer.target_subject, transfer.source_subject))
        ]
        # The record pair must survive a crash that happens the instant
        # the WAL says "finalized": it is fsynced BEFORE the terminal
        # step.
        self.sharded.ingest_records([
            record for shard_id, record in pair
            if not self.sharded.shard(shard_id).database.contains(
                record["record_id"])
        ])
        transfer.state = COMMITTED
        self._wal_terminal(transfer, "finalized")
        self._unlock(transfer)
        transfer.outcome = self._outcome(transfer, "completed")
        self.committed += 1

    def _abort(self, transfer: CrossShardTransfer, reason: str) -> None:
        """Abort path: persist intent, leave an on-chain abort record
        where we can, then unlock — the subjects accept writes again
        immediately.  Legs a shard cannot take right now are *counted*
        (``xshard_abort_legs_lost_total`` + the outcome's
        ``abort_legs_lost``) so incomplete abort audit trails are
        visible to operators instead of silently dropped."""
        transfer.state = ABORTING
        self._wal_write(transfer, "aborting")
        legs_lost = 0
        for shard_id in transfer.participants:
            try:
                self.sharded.submit_to(
                    shard_id, self._leg(transfer, shard_id, phase="abort")
                )
            except ChainError:
                legs_lost += 1
        if legs_lost:
            self._m_abort_legs_lost.inc(legs_lost)
        transfer.state = ABORTED
        self._wal_terminal(transfer, "aborted")
        self._unlock(transfer)
        transfer.outcome = self._outcome(transfer, "aborted",
                                         reason=reason,
                                         abort_legs_lost=legs_lost)
        self.aborted += 1
        self._count_abort(reason)

    def _unlock(self, transfer: CrossShardTransfer) -> None:
        self.sharded.locks.release(self._lock_pairs(transfer),
                                   transfer.xid, epoch=self.epoch)

    def _count_abort(self, reason: str) -> None:
        self._registry.counter("xshard_aborts_total", reason=reason).inc()

    def _count_recovered(self, resolution: str) -> None:
        self._registry.counter("xshard_transfers_recovered_total",
                               resolution=resolution).inc()

    def _outcome(self, transfer: CrossShardTransfer, status: str,
                 reason: str = "", **extra_fields: Any) -> TransferOutcome:
        n = len(transfer.participants)
        legs = len(transfer.lock_tx_ids) + len(transfer.commit_tx_ids)
        extra = {"xid": transfer.xid, "cross_shard": transfer.is_cross_shard}
        if reason:
            extra["reason"] = reason
        extra.update(extra_fields)
        return TransferOutcome(
            mechanism="shard-2pc",
            status=status,
            messages=2 * n,
            on_chain_txs=legs,
            latency_ticks=self.sharded.rounds_sealed - transfer.started_round,
            extra=extra,
        )
