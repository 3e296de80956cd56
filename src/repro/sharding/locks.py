"""``LockTable``: the cross-shard lock policy, in one place.

While a subject is mid-handoff (:mod:`repro.sharding.twophase`),
conflicting writes are deferred instead of interleaving with the 2PC
phases.  The table owns the entries, the one rule deciding who is
blocked (:meth:`LockTable.blocks`), coordinator-epoch fencing and the
lease sweep.  It is never persisted: the transfer WAL is the source of
truth, and a recovering coordinator re-owns what it still needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..chain import Transaction
from ..errors import ShardError


@dataclass(frozen=True)
class LockEntry:
    """One cross-shard lock: owner, holder epoch, and lease expiry.

    ``epoch`` is the coordinator generation that took the lock — a
    recovered coordinator (higher epoch) may reclaim entries from dead
    generations, and protocol legs from a fenced (lower) epoch are
    refused at submit time.  ``expires_round`` is the sealing round
    after which the lease is stale: a live coordinator renews its
    leases every round tick, so an expired lease means its holder died
    without unlocking and the sweep may drop it.
    """

    xid: str
    epoch: int = 0
    expires_round: int = 0


class LockTable:
    """``(shard_id, subject) -> LockEntry``, plus the fencing epoch.
    Leases are measured in sealing rounds; callers pass the current one
    as ``now`` (the table holds no reference back to the deployment)."""

    def __init__(self, lease_rounds: int) -> None:
        if lease_rounds < 1:
            raise ShardError("lock_lease_rounds must be >= 1")
        self.lease_rounds = lease_rounds
        self._locks: dict[tuple[int, str], LockEntry] = {}
        self.coordinator_epoch: int | None = None

    def __len__(self) -> int:
        return len(self._locks)

    def blocks(self, shard_id: int, subject, xid) -> bool:
        """True iff ``subject`` is locked on ``shard_id`` by a transfer
        other than ``xid`` (the owner's own legs and records pass)."""
        if not subject:
            return False
        owner = self._locks.get((shard_id, str(subject)))
        return owner is not None and xid != owner.xid

    def blocks_tx(self, shard_id: int, tx: Transaction) -> bool:
        """:meth:`blocks` for a transaction: locks are per *subject*
        (object), not per namespace — a handoff of one lot must not
        freeze the whole tenant."""
        if not self._locks:
            return False
        payload = tx.payload
        return self.blocks(shard_id, payload.get("subject"),
                           payload.get("xid"))

    def partition(self, shard_id: int, txs: list[Transaction],
                  ) -> tuple[list[Transaction], list[Transaction]]:
        """Split ``txs`` into ``(free, blocked)`` under :meth:`blocks_tx`."""
        if not self._locks:
            return txs, []
        free: list[Transaction] = []
        blocked: list[Transaction] = []
        for tx in txs:
            (blocked if self.blocks_tx(shard_id, tx) else free).append(tx)
        return free, blocked

    def fence(self, epoch: int) -> None:
        """Fence every earlier coordinator generation: protocol legs
        stamped with an older epoch are refused from now on."""
        if self.coordinator_epoch is not None \
                and epoch < self.coordinator_epoch:
            raise ShardError(
                f"coordinator epoch {epoch} is behind the fenced epoch "
                f"{self.coordinator_epoch}", reason="fenced_epoch",
            )
        self.coordinator_epoch = epoch

    def check_leg(self, shard_id: int, tx: Transaction) -> None:
        """Refuse a 2PC leg stamped with a fenced (older) epoch — a
        zombie coordinator cannot land half a transfer on-chain."""
        payload = tx.payload
        if payload.get("phase") in ("lock", "commit", "abort") \
                and "xid" in payload \
                and self.coordinator_epoch is not None \
                and payload.get("epoch") != self.coordinator_epoch:
            raise ShardError(
                f"shard {shard_id}: protocol leg from fenced coordinator "
                f"epoch {payload.get('epoch')!r} refused "
                f"(current epoch {self.coordinator_epoch})",
                reason="fenced_epoch", shard_id=shard_id,
            )

    def acquire(self, keys: Iterable[tuple[int, str]], xid: str,
                now: int, epoch: int = 0) -> bool:
        """Take (or renew) the locks on every ``(shard_id, subject)`` in
        ``keys`` — all of them or, on any conflict, none.

        Re-acquiring with the owning ``xid`` renews the lease and
        updates the holder epoch — the coordinator calls this every
        round tick for its in-flight transfers, so a lease that *does*
        expire marks a dead holder."""
        keys = list(keys)
        if any(self.blocks(shard_id, subject, xid)
               for shard_id, subject in keys):
            return False
        self.reclaim(keys, xid, now, epoch)
        return True

    def reclaim(self, keys: Iterable[tuple[int, str]], xid: str,
                now: int, epoch: int) -> None:
        """Forcibly (re-)own ``keys`` for ``xid`` under ``epoch``,
        whatever entries a dead generation left behind.  Besides
        :meth:`acquire`, only the WAL-replaying coordinator may call
        this — it knows ``xid`` owned the subjects when the old process
        died."""
        entry = LockEntry(xid=xid, epoch=epoch,
                          expires_round=now + self.lease_rounds)
        for key in keys:
            self._locks[key] = entry

    def release(self, keys: Iterable[tuple[int, str]], xid: str,
                epoch: int | None = None) -> None:
        """Release each of ``keys`` iff ``xid`` owns it (and, when
        ``epoch`` is given, iff the holder epoch matches — a fenced
        coordinator cannot release the lock its recovered successor
        re-owns)."""
        for key in keys:
            owner = self._locks.get(key)
            if owner is not None and owner.xid == xid \
                    and epoch in (None, owner.epoch):
                del self._locks[key]

    def _drop(self, stale: Callable[[LockEntry], bool]) -> int:
        keys = [key for key, entry in self._locks.items() if stale(entry)]
        for key in keys:
            del self._locks[key]
        return len(keys)

    def drop_stale(self, current_epoch: int) -> int:
        """Drop every lock held by an older coordinator epoch (recovery
        sweep: the WAL-replaying coordinator re-owns the locks of the
        transfers it is resolving first, then sweeps the rest — entries
        whose transfers already reached a terminal state but whose
        unlock never ran before the crash)."""
        return self._drop(lambda entry: entry.epoch < current_epoch)

    def sweep(self, now: int) -> int:
        """Lease sweep (start of every round): entries whose lease round
        passed belong to holders that stopped renewing — a coordinator
        that died without its WAL being replayed.  Dropping them frees
        the subjects; handoff records only materialize on full commit,
        so this is presumed-abort, never data loss."""
        return self._drop(lambda entry: entry.expires_round < now)
