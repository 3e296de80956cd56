"""Storage interfaces and the in-memory backend.

A chain stack opens on one :class:`Storage` bundle.  Its members are
two stores, one per kind of durable truth the stack owns:

* :class:`BlockStore` — the committed chain itself: blocks in height
  order, the transaction index (tx_id → height/position) and the state
  rows.  Execution receipts are not stored: a commit returns them, and
  replay derives them again.  A committed block is final; the one
  truncation above a height (``DurableBlockStore.truncate_above``) is
  snapshot sync's unwind of a tail it failed to install into a
  replica's durable store.
* :class:`RecordStore` — the append-only provenance record list the
  off-chain database indexes; positions are stable ints, and a record,
  once stored, is never rewritten.

Plus the bundle's own small :class:`MetaStore` key→value surface, which
the higher layers use for state no block creates (the 2PC transfer WAL,
the shard layout).  Nothing a block creates is checkpointed there: proof
state (anchor batches, beacon rounds) commits with its block as the
block's derived row, and the chain state's net change commits with its
group as the state rows (:meth:`BlockStore.append_blocks`).

:class:`MemoryStorage` is the in-memory bundle (lists and dicts); the
durable one is :class:`repro.persist.durable.DurableStorage`.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..chain.block import Block
from ..errors import InvalidBlock, StorageError
from ..serialization import canonical_encode, own
from .codec import canonical_decode, encode_block


# ---------------------------------------------------------------------------
# Interfaces
# ---------------------------------------------------------------------------
class BlockStore(ABC):
    """Committed blocks + transaction index, by height."""

    @abstractmethod
    def append_blocks(
        self,
        blocks: Sequence[Block],
        fsync: bool = True,
        encoded: Sequence[bytes] | None = None,
        derived: Mapping[int, Any] | None = None,
        state: Callable[[], Sequence[tuple[str, str, bool, Any]]]
        | None = None,
    ) -> None:
        """Commit consecutive blocks (heights from head + 1) and their
        tx index rows as **one** group — the only block write a store
        implements.

        ``fsync`` is the durability choice, passed down to the log: true
        makes the group the durability point, false leaves it flushed
        with the fsync deferred to the next group or checkpoint.
        ``encoded`` is each block's frame from a caller that already
        holds the canonical bytes (the process engine's job frames); a
        byte-backed store writes them verbatim instead of encoding
        again.  ``derived`` maps a height in the group to one
        canonical-encodable row of proof state a service derives from
        that block (an anchor batch's leaf digests, a beacon round's
        entries); the row shares its block's fate — committed with it,
        gone with it on recovery and truncation — so
        :meth:`derived_rows` is all a service reloads from.  ``state``
        returns the group's net state change
        (:meth:`~repro.chain.state.StateStore.delta_since` ops): a store
        that keeps state rows calls it only when its rows describe the
        height below the group, applies the change in the group's commit
        and then describes the group's head (:meth:`state_image`); rows
        that lag stay where they are, and a reopen replays from them.
        ``None`` (a caller that executes nothing, such as sync's raw
        tail) leaves the rows where they were.

        A group commits whole: a store checks every height before it
        writes anything, and a store that raises has committed nothing —
        its height, tx index, derived and state rows are as they were,
        so a caller unwinds the whole group.
        """

    @abstractmethod
    def block_at(self, height: int) -> Block:
        """The block at ``height``; raises :class:`InvalidBlock` when absent."""

    @abstractmethod
    def head_block(self) -> Block:
        """The highest block (hot path: called on every append)."""

    @abstractmethod
    def height(self) -> int:
        """Head height (genesis is 0); -1 when the store is empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored blocks (height + 1 when non-empty)."""

    @abstractmethod
    def iter_blocks(self, start: int = 0) -> Iterator[Block]:
        """Blocks in height order from ``start`` to the head."""

    @abstractmethod
    def tx_location(self, tx_id: str) -> tuple[int, int] | None:
        """``(height, position)`` of a committed transaction; ``None``
        for an id that names none (or is not a transaction id)."""

    @abstractmethod
    def tx_count(self) -> int:
        """Number of committed transactions (tx index rows)."""

    def state_image(self) -> tuple[int, list[tuple[str, str, Any]]]:
        """``(height, entries)``: the state rows, sorted, and the height
        of the block they describe, never above the head.  ``(-1, [])``
        — the empty state before genesis — when there are none: a store
        that keeps no state rows, or one whose rows went with the block
        they described.  A reopen replays every block above ``height``."""
        return -1, []

    def install_state(self, height: int,
                      entries: Sequence[tuple[str, str, Any]]) -> None:
        """Replace every state row with ``entries``, the whole image at
        ``height`` (sync's verified image; a reopen replay's result).
        A no-op for a store that keeps no state rows."""

    @abstractmethod
    def derived_rows(self) -> Iterator[tuple[int, Any]]:
        """``(height, row)`` of every block committed with a derived
        row, in height order."""

    @abstractmethod
    def raw_block_items(self, start: int, count: int) -> list[dict]:
        """What a snapshot server streams for up to ``count`` blocks
        from ``start``: per block its ``height``, ``block_hash``,
        ``frame`` (the canonical block encoding) with its ``crc``, and
        the index rows a replica installs beside the frame — ``tx_ids``,
        the 32-byte transaction hashes in position order, and the
        encoded ``derived`` row or ``None``.  Every height the store
        holds is served: blocks stay in the log they were written to."""

    def sync(self) -> None:
        """Make everything appended so far durable (no-op in memory)."""

    def close(self) -> None:
        """Release resources; the store must be reopenable afterwards."""


class RecordStore(ABC):
    """Append-only provenance records addressed by integer position.

    :meth:`append_many` is the only write: a stored record is evidence
    an anchor may already commit to, so no method changes one, and
    position ``i`` holds the same record for the life of the store."""

    @abstractmethod
    def append_many(self, records: Sequence[dict],
                    encoded: Sequence[bytes],
                    fsync: bool = True) -> list[int]:
        """Store several records as one group; returns their positions.

        The only write a store implements (durable: one log write + one
        index transaction, made the durability point by ``fsync``).
        ``encoded`` is each record's canonical bytes, framed verbatim;
        the caller gives ``records`` away (nobody else mutates them), so
        the store keeps them as its own instead of copying them.  The
        records have passed the record rule
        (:func:`~repro.persist.codec.check_records`, run by every door
        that stores them); the store does not check them again.
        """

    @abstractmethod
    def get(self, position: int) -> dict:
        """An unshared copy (:func:`~repro.serialization.own`) of the
        record at ``position``: nothing a caller does to it, nested
        values included, reaches the stored record."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def iter_items_raw(self) -> Iterator[tuple[int, Mapping[str, Any]]]:
        """``(position, record)`` pairs in position order, **not**
        copied — the store's one walk, for callers that only read (the
        database's index rebuild, the scan baseline) and copy what they
        keep."""

    def iter_records(self) -> Iterator[dict]:
        """Record copies (:func:`~repro.serialization.own`) in position
        order."""
        for _, record in self.iter_items_raw():
            yield own(record)


class MetaStore(ABC):
    """Tiny durable key→value surface for layer side-state."""

    @abstractmethod
    def put_meta(self, key: str, value: Any) -> None: ...

    @abstractmethod
    def get_meta(self, key: str, default: Any = None) -> Any: ...


class Storage(MetaStore):
    """Everything one chain stack (a shard, the beacon) stores, opened
    and closed together — the one shape ``Shard``, ``BeaconChain`` and
    the sharded facade are built on, in memory or on disk."""

    #: Where the bundle lives (a store directory; ``":memory:"``).
    directory: str
    blocks: BlockStore
    records: RecordStore

    def sync(self) -> None:
        """Make everything stored so far durable."""

    def close(self) -> None:
        """Release resources; the directory is reopenable afterwards."""


# ---------------------------------------------------------------------------
# In-memory backend
# ---------------------------------------------------------------------------
class MemoryBlockStore(BlockStore):
    """Blocks in a list, tx index and derived rows in dicts — RAM only
    (no state rows: the live state is the only image, and a chain opened
    on a non-empty memory store replays it)."""

    def __init__(self) -> None:
        self._blocks: list[Block] = []
        self._tx_index: dict[str, tuple[int, int]] = {}
        self._derived: dict[int, Any] = {}

    def append_blocks(self, blocks, fsync=True, encoded=None,
                      derived=None, state=None) -> None:
        for i, block in enumerate(blocks):
            if block.height != len(self._blocks) + i:
                raise StorageError(
                    f"store expects height {len(self._blocks) + i}, "
                    f"got {block.height}"
                )
        for block in blocks:
            self._blocks.append(block)
            for pos, tx in enumerate(block.transactions):
                self._tx_index[tx.tx_id] = (block.height, pos)
            if derived and block.height in derived:
                self._derived[block.height] = derived[block.height]

    def block_at(self, height: int) -> Block:
        if not 0 <= height < len(self._blocks):
            raise InvalidBlock(f"no block at height {height}")
        return self._blocks[height]

    def head_block(self) -> Block:
        return self._blocks[-1]

    def height(self) -> int:
        return len(self._blocks) - 1

    def __len__(self) -> int:
        return len(self._blocks)

    def iter_blocks(self, start: int = 0) -> Iterator[Block]:
        return iter(self._blocks[start:])

    def tx_location(self, tx_id: str) -> tuple[int, int] | None:
        return self._tx_index.get(tx_id)

    def tx_count(self) -> int:
        return len(self._tx_index)

    def derived_rows(self) -> Iterator[tuple[int, Any]]:
        # Insertion order is height order: blocks append in order.
        return iter(list(self._derived.items()))

    def raw_block_items(self, start: int, count: int) -> list[dict]:
        """Framed on demand: the encoded live block is byte-identical to
        a durable store's log frame (the frame format *is* the canonical
        encoding)."""
        items = []
        for block in self._blocks[max(start, 0):max(start + count, 0)]:
            frame = encode_block(block)
            derived = self._derived.get(block.height)
            items.append({
                "height": block.height,
                "block_hash": block.block_hash,
                "frame": frame,
                "crc": zlib.crc32(frame),
                "tx_ids": [tx.tx_hash for tx in block.transactions],
                "derived": (None if derived is None
                            else canonical_encode(derived)),
            })
        return items

    # Test/bench conveniences (tamper simulation; not part of BlockStore).
    def reset(self, blocks: list[Block]) -> None:
        """Wholesale-replace the chain (bench probes build tampered
        copies this way); the tx index is rebuilt."""
        self._blocks = list(blocks)
        self._derived.clear()
        self._tx_index = {
            tx.tx_id: (block.height, pos)
            for block in self._blocks
            for pos, tx in enumerate(block.transactions)
        }


class MemoryRecordStore(RecordStore):
    """Records in a list — RAM only."""

    def __init__(self) -> None:
        self._records: list[dict] = []

    def append_many(self, records, encoded, fsync=True) -> list[int]:
        start = len(self._records)
        self._records.extend(records)
        return list(range(start, len(self._records)))

    def get(self, position: int) -> dict:
        return own(self._records[position])

    def __len__(self) -> int:
        return len(self._records)

    def iter_items_raw(self) -> Iterator[tuple[int, dict]]:
        return enumerate(self._records)


class MemoryStorage(Storage):
    """The in-memory bundle.  Meta values round-trip through the
    canonical codec like the durable meta table's, so what a 2PC
    coordinator recovers from is the same in both."""

    directory = ":memory:"

    def __init__(self) -> None:
        self.blocks = MemoryBlockStore()
        self.records = MemoryRecordStore()
        self._meta: dict[str, bytes] = {}

    def put_meta(self, key: str, value: Any) -> None:
        self._meta[key] = canonical_encode(value)

    def get_meta(self, key: str, default: Any = None) -> Any:
        encoded = self._meta.get(key)
        return default if encoded is None else canonical_decode(encoded)


# ---------------------------------------------------------------------------
# Sequence view — keeps the `chain.blocks` reading API alive
# ---------------------------------------------------------------------------
class BlockSequenceView(Sequence):
    """Read-only sequence facade over a :class:`BlockStore`.

    Supports the access patterns the rest of the library (and its tests
    and benches) use on the former ``Blockchain.blocks`` list: indexing
    with negative indices, slicing, ``len``, iteration.  Tamper
    simulation replaces the whole list (``chain.blocks = [...]``).
    """

    def __init__(self, store: BlockStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Block]:
        return self._store.iter_blocks()

    def __getitem__(self, index):
        n = len(self._store)
        if isinstance(index, slice):
            return [self._store.block_at(i)
                    for i in range(*index.indices(n))]
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("block index out of range")
        return self._store.block_at(index)
