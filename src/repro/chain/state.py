"""Deterministic key-value state machine with snapshots.

The chain's *state* is what transactions mutate: account balances, contract
storage, registered provenance anchors.  A flat namespaced key-value store
is enough for every system in the library, and keeping it simple makes
determinism easy to audit.

Snapshots support two distinct users:

* contract revert semantics — the runtime snapshots before each call and
  rolls back on :class:`~repro.errors.ContractReverted`;
* the commit group — :class:`~repro.chain.blockchain.Blockchain`
  opens one snapshot per group, hands its store the group's net change
  (:meth:`delta_since`, the same change an exec worker ships), rolls the
  snapshot back if anything fails and releases it once the group is
  committed (:meth:`release_snapshots`): a committed block is final, so
  no undo information outlives its group.

Performance note: :meth:`state_root` is maintained incrementally — writes
mark keys dirty, and the root call folds only the dirty keys into an
order-independent accumulator (O(changes since the last root), not
O(state)).
"""

from __future__ import annotations

from typing import Any

from ..errors import ChainError


class StateStore:
    """Namespaced key-value state with copy-on-write snapshots.

    Keys are ``(namespace, key)`` string pairs.  Balances live in the
    ``"balance"`` namespace as ints.

    >>> state = StateStore()
    >>> state.credit("alice", 100)
    >>> snap = state.snapshot()
    >>> state.debit("alice", 30)
    >>> state.balance("alice")
    70
    >>> state.rollback(snap)
    >>> state.balance("alice")
    100
    """

    BALANCE_NS = "balance"

    def __init__(self) -> None:
        self._data: dict[tuple[str, str], Any] = {}
        # Undo journal: stack of (snapshot_id, [(key, had, old), ...]).
        self._journal: list[tuple[int, list[tuple[tuple[str, str], bool, Any]]]] = []
        self._next_snapshot_id = 0
        # Incremental state-root bookkeeping: per-entry digest
        # contributions XOR-folded into an accumulator, refreshed lazily
        # for dirty keys at state_root() time.
        self._root_acc = 0
        self._entry_digests: dict[tuple[str, str], int] = {}
        self._dirty: set[tuple[str, str]] = set()

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        return self._data.get((namespace, key), default)

    def set(self, namespace: str, key: str, value: Any) -> None:
        full_key = (namespace, key)
        if self._journal:
            had = full_key in self._data
            self._journal[-1][1].append(
                (full_key, had, self._data.get(full_key))
            )
        self._write(full_key, value)

    def delete(self, namespace: str, key: str) -> None:
        full_key = (namespace, key)
        if full_key in self._data:
            if self._journal:
                self._journal[-1][1].append(
                    (full_key, True, self._data[full_key])
                )
            self._erase(full_key)

    def contains(self, namespace: str, key: str) -> bool:
        return (namespace, key) in self._data

    # ------------------------------------------------------------------
    # Internal single mutation path (keeps the root bookkeeping
    # consistent for sets, deletes, and rollback restores alike)
    # ------------------------------------------------------------------
    def _write(self, full_key: tuple[str, str], value: Any) -> None:
        self._data[full_key] = value
        self._dirty.add(full_key)

    def _erase(self, full_key: tuple[str, str]) -> None:
        if full_key not in self._data:
            return
        del self._data[full_key]
        self._dirty.add(full_key)

    # ------------------------------------------------------------------
    # Bulk export / import (the whole image)
    # ------------------------------------------------------------------
    def dump_entries(self) -> list[tuple[str, str, Any]]:
        """Every entry as ``(namespace, key, value)``, sorted — the
        whole image, as a replica installs it or a reopen replay writes
        it back as the store's state rows.  Values are shared, not
        copied; treat as read-only."""
        return [(ns, key, value)
                for (ns, key), value in sorted(self._data.items())]

    def load_entries(self, entries) -> None:
        """Reset the store to exactly ``entries`` (a reopened store's
        state rows, a synced image, an exec worker's replica).

        Drops any open snapshot journal — a restored store starts a fresh
        undo history, the same as a process restart.
        """
        self._data.clear()
        self._journal.clear()
        self._root_acc = 0
        self._entry_digests.clear()
        self._dirty.clear()
        for namespace, key, value in entries:
            self._write((namespace, key), value)

    # ------------------------------------------------------------------
    # Balances
    # ------------------------------------------------------------------
    def balance(self, account: str) -> int:
        return int(self.get(self.BALANCE_NS, account, 0))

    def credit(self, account: str, amount: int) -> None:
        if amount < 0:
            raise ChainError("credit amount must be non-negative")
        self.set(self.BALANCE_NS, account, self.balance(account) + amount)

    def debit(self, account: str, amount: int) -> None:
        if amount < 0:
            raise ChainError("debit amount must be non-negative")
        current = self.balance(account)
        if current < amount:
            raise ChainError(
                f"insufficient balance: {account} has {current}, needs {amount}"
            )
        self.set(self.BALANCE_NS, account, current - amount)

    def transfer(self, src: str, dst: str, amount: int) -> None:
        self.debit(src, amount)
        self.credit(dst, amount)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """Open a snapshot; returns a handle for :meth:`rollback`."""
        handle = self._next_snapshot_id
        self._next_snapshot_id += 1
        self._journal.append((handle, []))
        return handle

    def commit_snapshot(self, handle: int) -> None:
        """Discard the undo log for ``handle`` (changes become permanent
        relative to that snapshot), folding it into the parent if any."""
        self._check_handle(handle)
        _, entries = self._journal.pop()
        if self._journal:
            # Parent snapshot must still be able to undo these changes.
            self._journal[-1][1].extend(entries)

    def rollback(self, handle: int) -> None:
        """Undo every change made since ``handle`` was taken."""
        self._check_handle(handle)
        _, entries = self._journal.pop()
        for full_key, had, old in reversed(entries):
            if had:
                self._write(full_key, old)
            else:
                self._erase(full_key)

    def delta_since(
        self, handle: int
    ) -> list[tuple[str, str, bool, Any]]:
        """The *net* change set made since ``handle``, the top snapshot,
        was opened, as ``(namespace, key, present, value)`` ops — one op
        per touched key, in first-touch order, with ``present=False``
        marking a deletion.  Feeding the ops to :meth:`apply_delta` on a
        store holding the content at ``handle`` reproduces this store's
        content exactly (and therefore its :meth:`state_root`).  The one
        net-change rule: an exec worker ships it instead of re-executing
        blocks in the parent, and a commit group hands it to its store
        as the state rows that commit with the group's blocks."""
        self._check_handle(handle)
        delta: list[tuple[str, str, bool, Any]] = []
        seen: set[tuple[str, str]] = set()
        for full_key, _, _ in self._journal[-1][1]:
            if full_key in seen:
                continue
            seen.add(full_key)
            if full_key in self._data:
                delta.append(
                    (full_key[0], full_key[1], True, self._data[full_key])
                )
            else:
                delta.append((full_key[0], full_key[1], False, None))
        return delta

    def apply_delta(self, delta) -> None:
        """Apply a :meth:`delta_since` change set.  Journaled like any
        other mutation, so a snapshot taken before the apply rolls the
        whole delta back."""
        for namespace, key, present, value in delta:
            if present:
                self.set(namespace, key, value)
            else:
                self.delete(namespace, key)

    def release_snapshots(self, handle: int) -> None:
        """Make every change since ``handle``, the top snapshot, final:
        drop its frame.  Unlike :meth:`commit_snapshot`, nothing is
        copied into an enclosing frame, so one opened before ``handle``
        can no longer undo those changes."""
        self._check_handle(handle)
        self._journal.pop()

    @property
    def open_snapshots(self) -> int:
        return len(self._journal)

    def _check_handle(self, handle: int) -> None:
        if not self._journal or handle != self._journal[-1][0]:
            top = self._journal[-1][0] if self._journal else None
            raise ChainError(
                f"snapshot handles must nest: got {handle}, expected {top}"
            )

    # ------------------------------------------------------------------
    # Hashing (state commitments)
    # ------------------------------------------------------------------
    def state_root(self) -> bytes:
        """Deterministic digest over the full state (cheap state anchor).

        Incrementally maintained: each entry contributes
        ``H(namespace, key, value)`` XOR-folded into an accumulator;
        writes only mark keys dirty and this call refreshes the dirty
        contributions, so the cost is O(changes since the last call).
        The digest is order-independent but content-determined: two
        stores holding the same entries produce the same root however
        they got there.  (An XOR set-hash is not collision-resistant
        against adversarial *entry* choice — acceptable for a simulation
        anchor; entries here are produced by deterministic executors.)
        """
        from ..crypto.hashing import hash_bytes, hash_canonical

        if self._dirty:
            acc = self._root_acc
            digests = self._entry_digests
            for full_key in self._dirty:
                old = digests.pop(full_key, 0)
                acc ^= old
                if full_key in self._data:
                    new = int.from_bytes(
                        hash_canonical(
                            [full_key[0], full_key[1],
                             self._data[full_key]]
                        ),
                        "big",
                    )
                    digests[full_key] = new
                    acc ^= new
            self._root_acc = acc
            self._dirty.clear()
        body = (
            len(self._data).to_bytes(8, "big")
            + self._root_acc.to_bytes(32, "big")
        )
        return hash_bytes(body, b"state-root-v2:")
