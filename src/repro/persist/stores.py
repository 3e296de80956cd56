"""Storage interfaces and the in-memory backend.

A chain stack opens on one :class:`Storage` bundle.  Its members are
three stores, one per kind of durable truth the stack owns:

* :class:`BlockStore` — the committed chain itself: blocks in height
  order, the transaction index (tx_id → height/position), and execution
  receipts.  Truncation above a height is a first-class operation because
  reorgs are.
* :class:`RecordStore` — the append-only provenance record list the
  off-chain database indexes; positions are stable ints.
* :class:`StateSnapshotStore` — one materialized ``StateStore`` image at
  a height, so a reopened chain resumes from its last checkpoint instead
  of replaying from genesis.

Plus the bundle's own small :class:`MetaStore` key→value surface, which
the higher layers use for state no block creates (the 2PC transfer WAL,
the shard layout).  Proof state a block *does* create — anchor batches,
beacon rounds — is not checkpointed there: it commits with that block as
its derived row (:meth:`BlockStore.append_blocks`).

:class:`MemoryStorage` is the in-memory bundle (lists and dicts); the
durable one is :class:`repro.persist.durable.DurableStorage`.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Any, Iterator, Mapping, Sequence

from ..chain.block import Block
from ..chain.receipts import TransactionReceipt
from ..errors import InvalidBlock, StorageError
from ..serialization import canonical_encode
from .codec import canonical_decode, encode_block, encode_receipt


# ---------------------------------------------------------------------------
# Interfaces
# ---------------------------------------------------------------------------
class BlockStore(ABC):
    """Committed blocks + transaction index + receipts, by height."""

    @abstractmethod
    def append_blocks(
        self,
        pairs: Sequence[tuple[Block, Sequence[TransactionReceipt]]],
        fsync: bool = True,
        encoded: Sequence[tuple[bytes, Sequence[bytes]]] | None = None,
        derived: Mapping[int, Any] | None = None,
    ) -> None:
        """Commit consecutive blocks (heights from head + 1) and their
        receipts as **one** group — the only write a store implements.

        ``fsync`` is the durability choice, passed down to the log: true
        makes the group the durability point, false leaves it flushed
        with the fsync deferred to the next group or checkpoint.
        ``encoded`` is each block's ``(frame, receipt bodies)`` from a
        caller that already holds the canonical bytes (the process
        engine's job frames and worker replies); a byte-backed store
        writes them verbatim instead of encoding again.  ``derived``
        maps a height in the group to one canonical-encodable row of
        proof state a service derives from that block (an anchor batch's
        leaf digests, a beacon round's entries); the row shares its
        block's fate — committed with it, gone with it on recovery and
        :meth:`truncate_above` — so :meth:`derived_rows` is all a service
        reloads from.  A store may keep a committed prefix when it fails
        mid-group; callers unwind by the height it reports afterwards.
        """

    def append_block(self, block: Block,
                     receipts: Sequence[TransactionReceipt]) -> None:
        """Commit one block: a group of one, fsync deferred."""
        self.append_blocks([(block, receipts)], fsync=False)

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
        """``(height, position)`` of a committed transaction."""

    @abstractmethod
    def receipt_for(self, tx_id: str) -> TransactionReceipt | None:
        """Execution receipt of a committed transaction."""

    @abstractmethod
    def receipts_map(self) -> Mapping[str, TransactionReceipt]:
        """Read-only mapping view tx_id → receipt (len/iter/lookup)."""

    @abstractmethod
    def truncate_above(self, height: int) -> None:
        """Drop every block above ``height`` plus its tx index entries,
        receipts and derived row (the reorg primitive)."""

    @abstractmethod
    def derived_rows(self) -> Iterator[tuple[int, Any]]:
        """``(height, row)`` of every block committed with a derived
        row, in height order."""

    @abstractmethod
    def raw_block_items(self, start: int, count: int) -> list[dict]:
        """What a snapshot server streams for up to ``count`` blocks
        from ``start``: per block its ``height``, ``block_hash``,
        ``frame`` (the canonical block encoding) with its ``crc``, and
        the index rows a replica installs beside the frame — ``tx_ids``
        in position order, encoded ``receipts`` aligned with them, the
        encoded ``derived`` row or ``None``.  A store that has archived
        some of those heights raises :class:`~repro.errors.ColdHistory`:
        raw frames come from the hot tail only."""

    def sync(self) -> None:
        """Make everything appended so far durable (no-op in memory)."""

    def close(self) -> None:
        """Release resources; the store must be reopenable afterwards."""


class RecordStore(ABC):
    """Append-only provenance records addressed by integer position."""

    @abstractmethod
    def append_many(self, records: Sequence[dict],
                    encoded: Sequence[bytes] | None = None,
                    fsync: bool = True) -> list[int]:
        """Store several records as one group; returns their positions.

        The only write a store implements (durable: one log write + one
        index transaction, made the durability point by ``fsync``).
        ``encoded`` is each record's canonical bytes, from a caller that
        already has them; it can only vouch for bytes of dicts nobody
        else will mutate, so with it the store keeps ``records`` as its
        own instead of copying them.
        """

    def append(self, record: dict) -> int:
        """Store one record: a group of one, fsync deferred."""
        return self.append_many([record], fsync=False)[0]

    @abstractmethod
    def get(self, position: int) -> dict:
        """A *copy* of the record at ``position``."""

    @abstractmethod
    def replace(self, position: int, record: dict) -> None:
        """Overwrite the record at ``position`` (annotation support)."""

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def iter_items(self) -> Iterator[tuple[int, dict]]:
        """``(position, record copy)`` pairs in position order."""

    def iter_records(self) -> Iterator[dict]:
        """Record copies in position order."""
        for _, record in self.iter_items():
            yield record

    def iter_records_raw(self) -> Iterator[Mapping[str, Any]]:
        """Read-only iteration *without* per-record copies — the honest
        scan baseline (callers copy only what they keep)."""
        return self.iter_records()


class StateSnapshotStore(ABC):
    """At most one materialized state image, tagged with its height.

    The snapshot also records the *block hash* at its height, binding the
    image to one specific branch: after a reorg (or a crash recovery that
    truncated the chain), a restore only trusts the image if the block at
    ``snapshot_height`` still hashes the same.
    """

    @abstractmethod
    def save(self, height: int,
             entries: Sequence[tuple[str, str, Any]],
             block_hash: bytes = b"") -> None:
        """Replace the snapshot with ``entries`` (namespace, key, value)."""

    @abstractmethod
    def load(self) -> tuple[int, list[tuple[str, str, Any]]] | None:
        """``(height, entries)`` of the stored snapshot, or ``None``."""

    @abstractmethod
    def snapshot_height(self) -> int | None:
        """Height of the stored snapshot without loading its entries."""

    @abstractmethod
    def snapshot_block_hash(self) -> bytes:
        """Block hash the snapshot was taken at (b"" when unrecorded)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop the snapshot (it became unreachable after a reorg)."""


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
    #: Where checkpoints put the state image — ``None`` when a reopen
    #: has nothing to resume from (memory: the live state is the image,
    #: so a checkpoint copies nothing).
    state: StateSnapshotStore | None

    def tier(self, keep_tail: int = 64) -> dict:
        """Move cold blocks to the bundle's cold tier and drop dead log
        weight; returns the pass's stats (nothing to move: ``{}``)."""
        return {}

    def sync(self) -> None:
        """Make everything stored so far durable."""

    def close(self) -> None:
        """Release resources; the directory is reopenable afterwards."""


# ---------------------------------------------------------------------------
# In-memory backend
# ---------------------------------------------------------------------------
class MemoryBlockStore(BlockStore):
    """Blocks in a list, tx index and receipts in dicts — RAM only."""

    def __init__(self) -> None:
        self._blocks: list[Block] = []
        self._tx_index: dict[str, tuple[int, int]] = {}
        self._receipts: dict[str, TransactionReceipt] = {}
        self._derived: dict[int, Any] = {}

    def append_blocks(self, pairs, fsync=True, encoded=None,
                      derived=None) -> None:
        for block, receipts in pairs:
            if block.height != len(self._blocks):
                raise StorageError(
                    f"store expects height {len(self._blocks)}, "
                    f"got {block.height}"
                )
            self._blocks.append(block)
            for pos, tx in enumerate(block.transactions):
                self._tx_index[tx.tx_id] = (block.height, pos)
            for receipt in receipts:
                self._receipts[receipt.tx_id] = receipt
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

    def receipt_for(self, tx_id: str) -> TransactionReceipt | None:
        return self._receipts.get(tx_id)

    def receipts_map(self) -> Mapping[str, TransactionReceipt]:
        return self._receipts

    def truncate_above(self, height: int) -> None:
        while len(self._blocks) - 1 > height:
            block = self._blocks.pop()
            self._derived.pop(block.height, None)
            for tx in block.transactions:
                self._tx_index.pop(tx.tx_id, None)
                self._receipts.pop(tx.tx_id, None)

    def derived_rows(self) -> Iterator[tuple[int, Any]]:
        # Insertion order is height order: blocks append in order and
        # truncation pops from the top.
        return iter(list(self._derived.items()))

    def raw_block_items(self, start: int, count: int) -> list[dict]:
        """Framed on demand: the encoded live block is byte-identical to
        a durable store's log frame (the frame format *is* the canonical
        encoding)."""
        items = []
        for block in self._blocks[max(start, 0):max(start + count, 0)]:
            frame = encode_block(block)
            tx_ids = [tx.tx_id for tx in block.transactions]
            derived = self._derived.get(block.height)
            items.append({
                "height": block.height,
                "block_hash": block.block_hash,
                "frame": frame,
                "crc": zlib.crc32(frame),
                "tx_ids": tx_ids,
                "receipts": [None if receipt is None
                             else encode_receipt(receipt)
                             for receipt in map(self._receipts.get, tx_ids)],
                "derived": (None if derived is None
                            else canonical_encode(derived)),
            })
        return items

    # Test/bench conveniences (tamper simulation; not part of BlockStore).
    def reset(self, blocks: list[Block]) -> None:
        """Wholesale-replace the chain (bench probes build tampered
        copies this way); receipts are cleared, the tx index rebuilt."""
        self._blocks = list(blocks)
        self._receipts.clear()
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

    def append_many(self, records, encoded=None, fsync=True) -> list[int]:
        start = len(self._records)
        self._records.extend(dict(record) for record in records)
        return list(range(start, len(self._records)))

    def get(self, position: int) -> dict:
        return dict(self._records[position])

    def replace(self, position: int, record: dict) -> None:
        self._records[position] = dict(record)

    def __len__(self) -> int:
        return len(self._records)

    def iter_items(self) -> Iterator[tuple[int, dict]]:
        for position, record in enumerate(self._records):
            yield position, dict(record)

    def iter_records_raw(self) -> Iterator[dict]:
        return iter(self._records)


class MemoryStorage(Storage):
    """The in-memory bundle.  Meta values round-trip through the
    canonical codec like the durable meta table's, so what a 2PC
    coordinator recovers from is the same in both."""

    directory = ":memory:"

    def __init__(self) -> None:
        self.blocks = MemoryBlockStore()
        self.records = MemoryRecordStore()
        self.state = None
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
