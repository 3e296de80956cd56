"""Durable backend: append-only segment logs indexed by sqlite.

One :class:`DurableStorage` per store directory owns

* ``blocks-log/`` — a :class:`~repro.persist.segment.SegmentLog` of
  canonical block encodings,
* ``records-log/`` — a segment log of canonical provenance records,
* ``index.db`` — a stdlib :mod:`sqlite3` database holding every index
  the ISSUE's query paths need: height → log offset, tx_id → (height,
  position), receipts, record_id → log location, the state snapshot
  (``namespace`` → keys → canonical value), and a small meta table.

Commit discipline (the crash-recovery contract): an entry **counts iff
its sqlite index row is committed and its log frame is CRC-valid**.
Each store has exactly one writer — :meth:`DurableBlockStore._write_group`
and :meth:`DurableRecordStore.append_many` — and both do the same three
things in the same order: check the group is consecutive from the head,
hand every frame to one ``SegmentLog.append_many(frames, fsync=)``, then
commit every index row in one sqlite transaction.  A single append is a
group of one.  A block's **derived row** — proof state a service computes
from it (an anchor batch's leaf digests, a beacon round's entries), one
meta row keyed ``derived/<height>`` — is one of those index rows and
shares the block's fate at commit, recovery and truncation: it commits in
the block's transaction, :meth:`DurableStorage._recover_blocks` drops it
with an orphaned block, :meth:`DurableBlockStore.truncate_above` deletes
it with a reorged one.  A row exists iff its block does, so nothing
derived is checkpointed; services reload from
:meth:`DurableBlockStore.derived_rows`.  Callers that hold objects reach
the block writer through :meth:`DurableBlockStore.append_blocks` (which
encodes, unless the caller passes the bytes it already has); the snapshot
client, which holds only verified frames, through
:meth:`DurableBlockStore.install_raw`.

Where the fsync decision is made: not here.  ``fsync`` arrives from the
caller and is passed to the log unchanged — ``True`` makes the group its
own durability point (a sealed round, a record batch, a synced tail
batch), ``False`` leaves the frames flushed to the OS with the fsync
deferred to the next group or checkpoint (single appends: anchor and
beacon blocks, one-off records).  Truncations delete index rows first,
then cut the log.  A crash between the two steps of either therefore
always leaves the log *ahead* of the index, and
:meth:`DurableStorage._recover_blocks` / ``_recover_records`` reconcile
on open by walking the index tail backwards until it finds a valid frame, dropping orphaned rows, and
truncating the log to the last indexed frame — so a group is on disk
entirely or not at all, and a chain that failed mid-commit unwinds by
the height the store reports, never by what it attempted.  The
fault-injection hook on the segment log makes every intermediate byte
state reachable in tests.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
from collections import OrderedDict
from collections.abc import Mapping as MappingABC
from typing import Any, Iterator, Sequence

from ..chain.block import Block
from ..chain.receipts import TransactionReceipt
from ..errors import InvalidBlock, StorageError, UnknownEntity
from ..serialization import canonical_encode
from .codec import (
    canonical_decode,
    decode_block,
    decode_receipt,
    decode_record,
    encode_block,
    encode_receipt,
    encode_record,
)
from .segment import CrashPoint, SegmentCodec, SegmentLog
from .stores import BlockStore, MetaStore, RecordStore, StateSnapshotStore

# Zero-padded height keys: key order is height order, and one range
# (up to "0", the character after "/") names every row above a height.
_DERIVED_PREFIX = "derived/"
_DERIVED_END = "derived0"


def _derived_key(height: int) -> str:
    return f"{_DERIVED_PREFIX}{height:012d}"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocks(
    height INTEGER PRIMARY KEY,
    segment INTEGER NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    block_hash BLOB NOT NULL,
    cas_key TEXT
);
CREATE TABLE IF NOT EXISTS txs(
    tx_id TEXT PRIMARY KEY,
    height INTEGER NOT NULL,
    pos INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS txs_by_height ON txs(height);
CREATE TABLE IF NOT EXISTS receipts(
    tx_id TEXT PRIMARY KEY,
    height INTEGER NOT NULL,
    body BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS receipts_by_height ON receipts(height);
CREATE TABLE IF NOT EXISTS records(
    position INTEGER PRIMARY KEY,
    record_id TEXT UNIQUE,
    segment INTEGER NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS state_entries(
    namespace TEXT NOT NULL,
    key TEXT NOT NULL,
    value BLOB NOT NULL,
    PRIMARY KEY(namespace, key)
);
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY,
    value BLOB NOT NULL
);
"""


class _SqliteReceiptsMap(MappingABC):
    """Lazy tx_id → receipt mapping served from the receipts table."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM receipts"
                                  ).fetchone()[0]

    def __iter__(self) -> Iterator[str]:
        for (tx_id,) in self._conn.execute(
                "SELECT tx_id FROM receipts ORDER BY rowid"):
            yield tx_id

    def __getitem__(self, tx_id: str) -> TransactionReceipt:
        row = self._conn.execute(
            "SELECT body FROM receipts WHERE tx_id = ?", (tx_id,)
        ).fetchone()
        if row is None:
            raise KeyError(tx_id)
        return decode_receipt(row[0])

    def __contains__(self, tx_id: object) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM receipts WHERE tx_id = ?", (tx_id,)
        ).fetchone() is not None


class DurableBlockStore(BlockStore):
    """Block log + sqlite index, with a bounded decoded-block cache."""

    def __init__(self, conn: sqlite3.Connection, log: SegmentLog,
                 cache_size: int = 256) -> None:
        self._conn = conn
        self._log = log
        self._cas = None
        self._cache: OrderedDict[int, Block] = OrderedDict()
        self._cache_size = cache_size
        row = conn.execute("SELECT MAX(height) FROM blocks").fetchone()
        self._height = -1 if row[0] is None else row[0]

    def attach_cas(self, cas) -> None:
        """Connect the cold tier: blocks whose index row says
        ``segment = -1`` are fetched from this CAS by ``cas_key``."""
        self._cas = cas

    def _cas_fetch(self, cas_key: str | None) -> bytes:
        if self._cas is None:
            raise StorageError(
                "block is archived but no CAS is attached"
            )
        if not cas_key or ":" not in cas_key:
            raise StorageError(f"malformed archive key {cas_key!r}")
        from ..storage.cas import CID

        kind, _, hexdigest = cas_key.partition(":")
        return self._cas.get(CID(bytes.fromhex(hexdigest), kind))

    def archived_boundary(self) -> int | None:
        """Highest archived height, or ``None`` when nothing has been
        moved to the cold tier."""
        row = self._conn.execute(
            "SELECT MAX(height) FROM blocks WHERE segment < 0"
        ).fetchone()
        return row[0]

    # -- write path ----------------------------------------------------
    def _write_group(self, heads: Sequence[tuple[int, bytes]],
                     frames: Sequence[bytes], tx_rows: list[tuple],
                     receipt_rows: list[tuple], fsync: bool,
                     derived_rows: list[tuple[int, bytes]] = ()) -> None:
        """The one writer: ``heads`` are ``(height, block_hash)`` per
        frame, consecutive from the current head; ``derived_rows`` are
        ``(height, encoded row)``.  All frames go down in
        one buffered log write — fsynced when ``fsync``, else flushed
        with the fsync deferred to the next group or checkpoint — then
        every index row lands in **one** sqlite transaction.  A crash
        anywhere inside leaves either no index rows (log ahead of index:
        recovery truncates the orphaned frames) or all of them, so the
        group is atomic on disk.  Index rows are inserted sorted by
        primary key: the tx_id b-trees fill with better page locality
        than hash-random arrival order (table content is
        order-independent)."""
        for i, (height, _) in enumerate(heads):
            if height != self._height + 1 + i:
                raise StorageError(
                    f"store expects height {self._height + 1 + i}, "
                    f"got {height}"
                )
        locs = self._log.append_many(frames, fsync=fsync)
        with self._conn:
            self._conn.executemany(
                "INSERT INTO blocks(height, segment, offset, length, "
                "block_hash) VALUES (?,?,?,?,?)",
                [(height, loc.segment, loc.offset, loc.length, block_hash)
                 for (height, block_hash), loc in zip(heads, locs)],
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO txs(tx_id, height, pos) "
                "VALUES (?,?,?)", sorted(tx_rows),
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO receipts(tx_id, height, body) "
                "VALUES (?,?,?)", sorted(receipt_rows),
            )
            if derived_rows:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
                    [(_derived_key(height), row)
                     for height, row in derived_rows],
                )
        self._height += len(heads)

    def append_blocks(self, pairs, fsync=True, encoded=None,
                      derived=None) -> None:
        if not pairs:
            return
        if encoded is None:
            encoded = [(encode_block(block),
                        [encode_receipt(r) for r in receipts])
                       for block, receipts in pairs]
        self._write_group(
            [(block.height, block.block_hash) for block, _ in pairs],
            [frame for frame, _ in encoded],
            [(tx.tx_id, block.height, pos)
             for block, _ in pairs
             for pos, tx in enumerate(block.transactions)],
            [(tx.tx_id, block.height, body)
             for (block, _), (_, bodies) in zip(pairs, encoded)
             for tx, body in zip(block.transactions, bodies)],
            fsync,
            [(height, canonical_encode(row))
             for height, row in (derived or {}).items()],
        )
        for block, _ in pairs:
            self._cache_put(block)

    def truncate_above(self, height: int) -> None:
        if height >= self._height:
            return
        boundary = self.archived_boundary()
        if boundary is not None and height < boundary:
            raise StorageError(
                f"cannot truncate to height {height}: blocks up to "
                f"{boundary} are archived (the cold tier is immutable "
                "by construction — keep_tail must exceed the reorg "
                "journal depth)"
            )
        row = self._conn.execute(
            "SELECT segment, offset FROM blocks WHERE height = ?",
            (height + 1,),
        ).fetchone()
        with self._conn:
            self._conn.execute("DELETE FROM blocks WHERE height > ?",
                               (height,))
            self._conn.execute("DELETE FROM txs WHERE height > ?",
                               (height,))
            self._conn.execute("DELETE FROM receipts WHERE height > ?",
                               (height,))
            self._conn.execute(
                "DELETE FROM meta WHERE key > ? AND key < ?",
                (_derived_key(height), _DERIVED_END))
        if row is not None:
            self._log.truncate_to(row[0], row[1])
        self._height = height
        for h in [h for h in self._cache if h > height]:
            del self._cache[h]

    # -- read path -----------------------------------------------------
    def _cache_put(self, block: Block) -> None:
        self._cache[block.height] = block
        self._cache.move_to_end(block.height)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def block_at(self, height: int) -> Block:
        cached = self._cache.get(height)
        if cached is not None:
            self._cache.move_to_end(height)
            return cached
        row = self._conn.execute(
            "SELECT segment, offset, block_hash, cas_key FROM blocks "
            "WHERE height = ?", (height,),
        ).fetchone()
        if row is None:
            raise InvalidBlock(f"no block at height {height}")
        if row[0] < 0:
            frame = self._cas_fetch(row[3])
        else:
            frame = self._log.read(row[0], row[1])
        block = decode_block(frame, expected_hash=bytes(row[2]))
        self._cache_put(block)
        return block

    def head_block(self) -> Block:
        return self.block_at(self._height)

    def height(self) -> int:
        return self._height

    def __len__(self) -> int:
        return self._height + 1

    def iter_blocks(self, start: int = 0) -> Iterator[Block]:
        for height in range(start, self._height + 1):
            yield self.block_at(height)

    def tx_location(self, tx_id: str) -> tuple[int, int] | None:
        row = self._conn.execute(
            "SELECT height, pos FROM txs WHERE tx_id = ?", (tx_id,)
        ).fetchone()
        return None if row is None else (row[0], row[1])

    def _derived_range(self, start: int, stop: int | None = None):
        """``(height, encoded row)`` for heights in ``[start, stop)``."""
        end = _DERIVED_END if stop is None else _derived_key(stop)
        return [(int(key[len(_DERIVED_PREFIX):]), bytes(value))
                for key, value in self._conn.execute(
                    "SELECT key, value FROM meta WHERE key >= ? AND "
                    "key < ? ORDER BY key", (_derived_key(start), end))]

    def derived_rows(self) -> Iterator[tuple[int, Any]]:
        for height, row in self._derived_range(0):
            yield height, canonical_decode(row)

    # -- raw-frame surface (snapshot sync) -----------------------------
    def raw_block_items(self, start: int, count: int) -> list[dict]:
        """Everything a snapshot server streams for ``count`` blocks from
        ``start``, straight off the log — **no decode**: per block the
        exact frame bytes (the canonical block encoding) with their CRC,
        the indexed block hash, and the index rows a replica needs to
        install the frame (tx ids in position order, receipt bodies
        aligned with them, the encoded derived row or ``None``).  Four
        range queries and one log pass — the server's tail hot path."""
        import zlib

        stop = start + count            # exclusive
        rows = self._conn.execute(
            "SELECT height, segment, offset, block_hash FROM blocks "
            "WHERE height >= ? AND height < ? ORDER BY height",
            (start, stop),
        ).fetchall()
        archived = [height for height, segment, _, _ in rows
                    if segment < 0]
        if archived:
            raise StorageError(
                f"heights {archived[0]}..{archived[-1]} are archived; "
                "raw frames are served from the hot tail only (snapshot "
                "sync starts replicas from the state image, not cold "
                "history)"
            )
        tx_rows: dict[int, list[str]] = {}
        for tx_id, height in self._conn.execute(
                "SELECT tx_id, height FROM txs WHERE height >= ? AND "
                "height < ? ORDER BY height, pos", (start, stop)):
            tx_rows.setdefault(height, []).append(tx_id)
        # Receipts were committed in transaction order per height, so a
        # height-grouped scan pairs them positionally with tx_ids.
        receipt_bodies: dict[int, dict[str, bytes]] = {}
        for tx_id, height, body in self._conn.execute(
                "SELECT tx_id, height, body FROM receipts WHERE "
                "height >= ? AND height < ?", (start, stop)):
            receipt_bodies.setdefault(height, {})[tx_id] = body
        derived = dict(self._derived_range(start, stop))
        items = []
        for height, segment, offset, block_hash in rows:
            frame = self._log.read(segment, offset)
            tx_ids = tx_rows.get(height, [])
            bodies = receipt_bodies.get(height, {})
            items.append({
                "height": height,
                "block_hash": bytes(block_hash),
                "frame": frame,
                "crc": zlib.crc32(frame),
                "tx_ids": tx_ids,
                "receipts": [bodies.get(tx_id) for tx_id in tx_ids],
                "derived": derived.get(height),
            })
        return items

    def install_raw(self, items: Sequence[dict]) -> None:
        """Group-install already-verified raw block frames (the snapshot
        client's surface).  Each item is a :meth:`raw_block_items`-shaped
        mapping; heights must be consecutive from the current head.
        Nothing is decoded and nothing is executed: the caller vouches
        for the content (hash-chain, beacon and proof-row verification
        happened upstream)."""
        if not items:
            return
        self._write_group(
            [(item["height"], item["block_hash"]) for item in items],
            [item["frame"] for item in items],
            [(tx_id, item["height"], pos)
             for item in items
             for pos, tx_id in enumerate(item["tx_ids"])],
            [(tx_id, item["height"], body)
             for item in items
             for tx_id, body in zip(item["tx_ids"], item["receipts"])
             if body is not None],
            fsync=True,
            derived_rows=[(item["height"], item["derived"])
                          for item in items
                          if item.get("derived") is not None],
        )

    def receipt_for(self, tx_id: str) -> TransactionReceipt | None:
        row = self._conn.execute(
            "SELECT body FROM receipts WHERE tx_id = ?", (tx_id,)
        ).fetchone()
        return None if row is None else decode_receipt(row[0])

    def receipts_map(self) -> MappingABC:
        return _SqliteReceiptsMap(self._conn)

    def sync(self) -> None:
        self._log.sync()

    def close(self) -> None:
        self._log.close()


class DurableRecordStore(RecordStore):
    """Record log + sqlite index (record_id → location, position order)."""

    def __init__(self, conn: sqlite3.Connection, log: SegmentLog,
                 cache_size: int = 1024) -> None:
        self._conn = conn
        self._log = log
        self._cache: OrderedDict[int, dict] = OrderedDict()
        self._cache_size = cache_size
        row = conn.execute("SELECT MAX(position) FROM records").fetchone()
        self._count = 0 if row[0] is None else row[0] + 1

    def append_many(self, records, encoded=None, fsync=True) -> list[int]:
        """The one writer: one buffered log write (fsynced when
        ``fsync``) + one index transaction for the whole batch.
        ``encoded`` frames go to the log verbatim and hand ``records``
        over to the read cache (see :meth:`RecordStore.append_many`)."""
        if not records:
            return []
        start = self._count
        owned = encoded is not None
        if not owned:
            encoded = [encode_record(record) for record in records]
        locs = self._log.append_many(encoded, fsync=fsync)
        with self._conn:
            self._conn.executemany(
                "INSERT INTO records(position, record_id, segment, offset, "
                "length) VALUES (?,?,?,?,?)",
                [(start + i, str(record.get("record_id") or (start + i)),
                  loc.segment, loc.offset, loc.length)
                 for i, (record, loc) in enumerate(zip(records, locs))],
            )
        positions = list(range(start, start + len(records)))
        self._count = start + len(records)
        for position, record in zip(positions, records):
            self._cache_put(position, record if owned else dict(record))
        return positions

    def replace(self, position: int, record: dict) -> None:
        """Annotation support: append the updated copy, repoint the index
        (the old frame becomes dead weight in the log — append-only)."""
        if not 0 <= position < self._count:
            raise UnknownEntity(f"no record at position {position}")
        loc = self._log.append(encode_record(record))
        with self._conn:
            self._conn.execute(
                "UPDATE records SET segment = ?, offset = ?, length = ? "
                "WHERE position = ?",
                (loc.segment, loc.offset, loc.length, position),
            )
        self._cache_put(position, dict(record))

    def _cache_put(self, position: int, record: dict) -> None:
        self._cache[position] = record
        self._cache.move_to_end(position)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def get(self, position: int) -> dict:
        cached = self._cache.get(position)
        if cached is not None:
            self._cache.move_to_end(position)
            return dict(cached)
        row = self._conn.execute(
            "SELECT segment, offset FROM records WHERE position = ?",
            (position,),
        ).fetchone()
        if row is None:
            raise UnknownEntity(f"no record at position {position}")
        record = decode_record(self._log.read(row[0], row[1]))
        self._cache_put(position, record)
        return dict(record)

    def __len__(self) -> int:
        return self._count

    def iter_items(self) -> Iterator[tuple[int, dict]]:
        # Driven by the index, not range(count): external damage to a
        # replaced record can leave a position hole after recovery.
        positions = [pos for (pos,) in self._conn.execute(
            "SELECT position FROM records ORDER BY position")]
        for position in positions:
            yield position, self.get(position)

    def iter_records(self) -> Iterator[dict]:
        for _, record in self.iter_items():
            yield record

    def location_of_id(self, record_id: str) -> int | None:
        """sqlite-level record_id → position (survives restarts even
        before the in-memory indexes are rebuilt)."""
        row = self._conn.execute(
            "SELECT position FROM records WHERE record_id = ?",
            (record_id,),
        ).fetchone()
        return None if row is None else row[0]

    def sync(self) -> None:
        self._log.sync()

    def close(self) -> None:
        self._log.close()


class DurableStateSnapshotStore(StateSnapshotStore):
    """The state image lives entirely in sqlite (namespace → keys),
    replaced atomically in one transaction per checkpoint."""

    _HEIGHT_KEY = "state_snapshot_height"
    _HASH_KEY = "state_snapshot_block_hash"

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def save(self, height: int,
             entries: Sequence[tuple[str, str, Any]],
             block_hash: bytes = b"") -> None:
        with self._conn:
            self._conn.execute("DELETE FROM state_entries")
            self._conn.executemany(
                "INSERT INTO state_entries(namespace, key, value) "
                "VALUES (?,?,?)",
                [(ns, key, canonical_encode(value))
                 for ns, key, value in entries],
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
                (self._HEIGHT_KEY, canonical_encode(height)),
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
                (self._HASH_KEY, canonical_encode(block_hash)),
            )

    def load(self) -> tuple[int, list[tuple[str, str, Any]]] | None:
        height = self.snapshot_height()
        if height is None:
            return None
        entries = [
            (ns, key, canonical_decode(value))
            for ns, key, value in self._conn.execute(
                "SELECT namespace, key, value FROM state_entries "
                "ORDER BY namespace, key")
        ]
        return height, entries

    def snapshot_height(self) -> int | None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (self._HEIGHT_KEY,)
        ).fetchone()
        return None if row is None else canonical_decode(row[0])

    def snapshot_block_hash(self) -> bytes:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (self._HASH_KEY,)
        ).fetchone()
        return b"" if row is None else canonical_decode(row[0])

    def clear(self) -> None:
        with self._conn:
            self._conn.execute("DELETE FROM state_entries")
            self._conn.execute(
                "DELETE FROM meta WHERE key IN (?, ?)",
                (self._HEIGHT_KEY, self._HASH_KEY),
            )


class DurableStorage(MetaStore):
    """One directory = one durable chain stack (blocks, records, state,
    meta).  Runs crash recovery on open; see the module docstring for
    the commit discipline it enforces."""

    _BLOCK_GEN_KEY = "blocks_log_gen"
    _RECORD_GEN_KEY = "records_log_gen"
    _ARCHIVED_KEY = "blocks_archived"

    def __init__(self, directory: str | os.PathLike,
                 max_segment_bytes: int = 4 * 1024 * 1024,
                 codec: str | SegmentCodec = SegmentCodec.RAW,
                 cas=None) -> None:
        # Fork-safety contract (audited for the exec process pool):
        # exec workers *never* open durable state — they execute against
        # in-memory replicas and return deltas; only the parent commits.
        # A forked child inherits this object's sqlite handle and log
        # fds, but the pid guards below make any accidental use loud
        # instead of silently corrupting the parent's files.
        from ..exec.worker import in_worker

        if in_worker():
            raise StorageError(
                "DurableStorage may not be opened inside an exec "
                "worker: workers hold no durable handles; only the "
                "parent process commits"
            )
        self.directory = os.fspath(directory)
        self._owner_pid = os.getpid()
        self._max_segment_bytes = max_segment_bytes
        self.codec = (codec if isinstance(codec, SegmentCodec)
                      else SegmentCodec(codec))
        os.makedirs(self.directory, exist_ok=True)
        # check_same_thread=False: the parallel sealing round drives each
        # shard's storage from a worker thread (one worker per shard per
        # round, never two threads on one connection concurrently).
        self._conn = sqlite3.connect(
            os.path.join(self.directory, "index.db"),
            check_same_thread=False,
        )
        # WAL keeps index commits append-only (no per-commit journal
        # rewrite) — an order of magnitude cheaper for the one-row
        # transactions the append path issues; synchronous=NORMAL still
        # fsyncs the WAL at checkpoints, matching the segment logs'
        # fsync-on-seal discipline.  Set before the schema, and the
        # schema created in one transaction: a fresh store is then one
        # WAL commit instead of eight fully synced rollback-journal ones.
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(f"BEGIN;{_SCHEMA}COMMIT;")
        self._migrate_schema()
        # Compaction rewrites a log into a fresh *generation* directory
        # and repoints the index in one transaction; the committed
        # generation numbers say which directories are live.  Anything
        # else (a crashed compaction's half-written next gen, or a
        # superseded previous gen whose cleanup was interrupted) is
        # swept before the logs open.
        self._block_gen = int(self.get_meta(self._BLOCK_GEN_KEY, 0))
        self._record_gen = int(self.get_meta(self._RECORD_GEN_KEY, 0))
        self._sweep_stale_log_dirs()
        self.block_log = SegmentLog(
            self._log_dir("blocks-log", self._block_gen),
            max_segment_bytes=max_segment_bytes,
            codec=self.codec,
        )
        self.record_log = SegmentLog(
            self._log_dir("records-log", self._record_gen),
            max_segment_bytes=max_segment_bytes,
            codec=self.codec,
        )
        self.recovered_blocks = self._recover_blocks()
        self.recovered_records = self._recover_records()
        self.blocks = DurableBlockStore(self._conn, self.block_log)
        self.records = DurableRecordStore(self._conn, self.record_log)
        self.state = DurableStateSnapshotStore(self._conn)
        self._cas = cas
        if self._cas is None and \
                self.get_meta(self._ARCHIVED_KEY) is not None:
            from ..storage.cas import FileCAS

            self._cas = FileCAS(os.path.join(self.directory, "archive"))
        if self._cas is not None:
            self.blocks.attach_cas(self._cas)

    def _migrate_schema(self) -> None:
        """Additive migrations for stores created by older versions."""
        columns = [row[1] for row in
                   self._conn.execute("PRAGMA table_info(blocks)")]
        if "cas_key" not in columns:
            with self._conn:
                self._conn.execute(
                    "ALTER TABLE blocks ADD COLUMN cas_key TEXT"
                )

    def _check_owner(self) -> None:
        if os.getpid() != self._owner_pid:
            raise StorageError(
                "durable storage crossed a fork: only the parent "
                "process may commit (exec workers return deltas)"
            )

    def _log_dir(self, base: str, generation: int) -> str:
        name = base if generation == 0 else f"{base}.g{generation}"
        return os.path.join(self.directory, name)

    def _sweep_stale_log_dirs(self) -> None:
        current = {
            os.path.basename(self._log_dir("blocks-log", self._block_gen)),
            os.path.basename(self._log_dir("records-log",
                                           self._record_gen)),
        }
        for name in os.listdir(self.directory):
            for base in ("blocks-log", "records-log"):
                if name != base and not name.startswith(base + ".g"):
                    continue
                if name in current:
                    continue
                if name != base:
                    try:
                        int(name[len(base) + 2:])
                    except ValueError:
                        continue
                path = os.path.join(self.directory, name)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                break

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def _frame_ok(self, log: SegmentLog, segment: int, offset: int,
                  length: int) -> bool:
        # Compare the on-disk frame length, not the decoded payload
        # size: under a compressing codec the two differ.
        info = log.frame_info_at(segment, offset)
        return info is not None and info[1] == length

    def _recover_blocks(self) -> int:
        """Reconcile the block log with its index table.

        Walks the index tail backwards dropping rows whose frames are
        partial/garbled (a crash mid-append, or an operator truncating
        the segment file) and their derived rows, then truncates the log
        to the end of the last surviving indexed frame — discarding any
        frames that were written but never indexed (a crash between log
        flush and index commit).
        Blocks are append-only, so height order *is* log-address order.
        Returns the number of index rows dropped.
        """
        dropped = 0
        while True:
            # Archived rows (segment < 0) live in the CAS, not the log:
            # the walk only reconciles the hot tail.
            row = self._conn.execute(
                "SELECT height, segment, offset, length FROM blocks "
                "WHERE segment >= 0 ORDER BY height DESC LIMIT 1"
            ).fetchone()
            if row is None:
                self.block_log.truncate_to(0, 0)
                return dropped
            height, segment, offset, length = row
            if self._frame_ok(self.block_log, segment, offset, length):
                self.block_log.truncate_to(segment, offset + length)
                return dropped
            with self._conn:
                for table in ("blocks", "txs", "receipts"):
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE height = ?", (height,)
                    )
                self._conn.execute("DELETE FROM meta WHERE key = ?",
                                   (_derived_key(height),))
            dropped += 1

    def _recover_records(self) -> int:
        """Like :meth:`_recover_blocks` for the record log — but ordered
        by **log address**, not position: ``replace()`` (annotation) can
        repoint an *old* position at the newest frame, so the frame the
        log must be truncated after is the highest-addressed one any row
        references, which is not necessarily the highest position's.
        """
        dropped = 0
        while True:
            row = self._conn.execute(
                "SELECT position, segment, offset, length FROM records "
                "ORDER BY segment DESC, offset DESC LIMIT 1"
            ).fetchone()
            if row is None:
                self.record_log.truncate_to(0, 0)
                return dropped
            position, segment, offset, length = row
            if self._frame_ok(self.record_log, segment, offset, length):
                self.record_log.truncate_to(segment, offset + length)
                return dropped
            with self._conn:
                self._conn.execute(
                    "DELETE FROM records WHERE position = ?", (position,)
                )
            dropped += 1

    # ------------------------------------------------------------------
    # Storage tiering: compaction + cold-block archival
    # ------------------------------------------------------------------
    def disk_usage(self, include_archive: bool = False) -> int:
        """Bytes on disk for the hot tier (segment logs + sqlite index,
        WAL included); the archive's cold bytes only when asked — the
        whole point of tiering is that they can live on other media."""
        total = 0
        for path in (self.block_log.directory, self.record_log.directory):
            total += _dir_bytes(path)
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(
                    os.path.join(self.directory, "index.db" + suffix))
            except OSError:
                pass
        if include_archive:
            total += _dir_bytes(os.path.join(self.directory, "archive"))
        return total

    def _compact_log(self, table: str, fail_after_bytes: int | None,
                     crash_before_cleanup: bool) -> dict:
        """Rewrite one log's live frames into a fresh generation.

        Protocol: (1) copy every indexed frame into the next-generation
        directory and fsync it; (2) repoint every index row *and* bump
        the generation meta key in **one** sqlite transaction; (3) swap
        the in-memory log object; (4) remove the old directory.  A crash
        before (2) leaves the index on the old generation — the
        half-written new directory is swept on reopen; a crash after (2)
        leaves the new generation committed — the old directory is swept
        on reopen.  There is no intermediate state: the transaction *is*
        the swap.
        """
        if table == "blocks":
            base, meta_key, gen = ("blocks-log", self._BLOCK_GEN_KEY,
                                   self._block_gen)
            old_log = self.block_log
            rows = self._conn.execute(
                "SELECT height, segment, offset FROM blocks "
                "WHERE segment >= 0 ORDER BY height").fetchall()
            key_column = "height"
        else:
            base, meta_key, gen = ("records-log", self._RECORD_GEN_KEY,
                                   self._record_gen)
            old_log = self.record_log
            # Position order, not address order: the rewritten log reads
            # sequentially for iter_items even after heavy annotation.
            rows = self._conn.execute(
                "SELECT position, segment, offset FROM records "
                "ORDER BY position").fetchall()
            key_column = "position"
        bytes_before = _dir_bytes(old_log.directory)
        new_gen = gen + 1
        new_dir = self._log_dir(base, new_gen)
        if os.path.isdir(new_dir):
            # A previous compaction attempt crashed mid-write in this
            # same process lifetime; its frames were never committed.
            shutil.rmtree(new_dir)
        new_log = SegmentLog(new_dir,
                             max_segment_bytes=self._max_segment_bytes,
                             codec=self.codec)
        if fail_after_bytes is not None:
            new_log.fail_after_bytes = fail_after_bytes
        payloads = [old_log.read(segment, offset)
                    for _, segment, offset in rows]
        locations = new_log.append_many(payloads, fsync=True)
        with self._conn:
            self._conn.executemany(
                f"UPDATE {table} SET segment = ?, offset = ?, "
                f"length = ? WHERE {key_column} = ?",
                [(loc.segment, loc.offset, loc.length, key)
                 for (key, _, _), loc in zip(rows, locations)],
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
                (meta_key, canonical_encode(new_gen)),
            )
        old_dir = old_log.directory
        old_log.close()
        if table == "blocks":
            self.block_log = new_log
            self._block_gen = new_gen
            self.blocks._log = new_log
        else:
            self.record_log = new_log
            self._record_gen = new_gen
            self.records._log = new_log
        if crash_before_cleanup:
            raise CrashPoint(
                "injected crash after compaction commit, before cleanup"
            )
        shutil.rmtree(old_dir, ignore_errors=True)
        return {
            "generation": new_gen,
            "live_frames": len(rows),
            "bytes_before": bytes_before,
            "bytes_after": _dir_bytes(new_dir),
        }

    def compact(self, which: str = "both",
                fail_after_bytes: int | None = None,
                crash_before_cleanup: bool = False) -> dict:
        """Drop dead log weight: garbage block frames left by reorg
        truncation and archival, and dead record frames left by
        ``replace`` (annotation).  The crash hooks drive the tiering
        fault-injection tests; see :meth:`_compact_log` for why every
        crash point reconciles on reopen."""
        self._check_owner()
        if which not in ("both", "blocks", "records"):
            raise StorageError(f"unknown compaction target {which!r}")
        stats: dict[str, dict] = {}
        if which in ("both", "blocks"):
            stats["blocks"] = self._compact_log(
                "blocks", fail_after_bytes, crash_before_cleanup)
        if which in ("both", "records"):
            stats["records"] = self._compact_log(
                "records", fail_after_bytes, crash_before_cleanup)
        return stats

    def archive_blocks(self, keep_tail: int = 64, cas=None) -> dict:
        """Move cold block frames into the CAS and repoint the index.

        Every block at or below ``height - keep_tail`` is CAS-put (the
        exact canonical frame, so CIDs are content addresses of what the
        log held), then **one** sqlite transaction flips those rows to
        ``segment = -1`` with their ``cas_key`` and records the archival
        boundary.  A crash before the transaction leaves only orphan CAS
        blobs (dedup reclaims them on retry); the index still points at
        the log, which compaction has not yet touched.  The log space is
        reclaimed by the *next* :meth:`compact`, which skips archived
        rows — :meth:`tier` runs both in order.
        """
        self._check_owner()
        if keep_tail < 0:
            raise StorageError("keep_tail must be >= 0")
        boundary = self.blocks.height() - keep_tail
        rows = self._conn.execute(
            "SELECT height, segment, offset FROM blocks "
            "WHERE segment >= 0 AND height <= ? ORDER BY height",
            (boundary,),
        ).fetchall()
        if cas is not None:
            self._cas = cas
        if not rows:
            return {"archived": 0,
                    "boundary": self.blocks.archived_boundary()}
        if self._cas is None:
            from ..storage.cas import FileCAS

            self._cas = FileCAS(os.path.join(self.directory, "archive"))
        updates = []
        for height, segment, offset in rows:
            frame = self.block_log.read(segment, offset)
            cid = self._cas.put(frame)
            updates.append((f"{cid.kind}:{cid.hex}", height))
        sync = getattr(self._cas, "sync", None)
        if sync is not None:
            sync()
        with self._conn:
            self._conn.executemany(
                "UPDATE blocks SET segment = -1, offset = 0, "
                "length = 0, cas_key = ? WHERE height = ?", updates,
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
                (self._ARCHIVED_KEY, canonical_encode(rows[-1][0])),
            )
        self.blocks.attach_cas(self._cas)
        return {"archived": len(rows), "boundary": rows[-1][0]}

    def tier(self, keep_tail: int = 64, cas=None,
             compact_records: bool = True) -> dict:
        """One tiering pass: archive cold blocks, then compact the logs
        so the hot tier is exactly the pruned profile — state image +
        hot block tail + live records.  Returns before/after hot-tier
        byte counts alongside each step's stats."""
        self._check_owner()
        bytes_before = self.disk_usage()
        archived = self.archive_blocks(keep_tail=keep_tail, cas=cas)
        compacted = self.compact(
            which="both" if compact_records else "blocks")
        self.sync()
        stats = {
            "archived": archived,
            "compacted": compacted,
            "bytes_before": bytes_before,
            "bytes_after": self.disk_usage(),
        }
        from ..obs.runtime import telemetry

        registry = telemetry().registry
        registry.counter("tier_passes_total").inc()
        registry.counter("tier_blocks_archived_total").inc(
            archived["archived"]
        )
        registry.counter("tier_bytes_reclaimed_total").inc(
            max(0, bytes_before - stats["bytes_after"])
        )
        return stats

    # ------------------------------------------------------------------
    # Meta
    # ------------------------------------------------------------------
    def put_meta(self, key: str, value: Any) -> None:
        self._check_owner()
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
                (key, canonical_encode(value)),
            )

    def get_meta(self, key: str, default: Any = None) -> Any:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else canonical_decode(row[0])

    def supersede_meta(self, keys: Sequence[str],
                       derived: MappingABC) -> None:
        """One transaction: delete meta ``keys`` and give blocks the
        store already holds the ``derived`` rows (height → row) that
        replace them — the legacy proof-state upgrade's write."""
        self._check_owner()
        head = self.blocks.height()
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)",
                [(_derived_key(height), canonical_encode(row))
                 for height, row in derived.items() if height <= head])
            self._conn.executemany("DELETE FROM meta WHERE key = ?",
                                   [(key,) for key in keys])

    # ------------------------------------------------------------------
    def sync(self) -> None:
        self._check_owner()
        self.block_log.sync()
        self.record_log.sync()
        # WAL commits under synchronous=NORMAL are not individually
        # fsynced; flushing the WAL into the main database here makes
        # everything indexed so far power-loss durable — checkpoints are
        # the durability points, same as the logs' fsync-on-seal.
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        self._check_owner()
        self.block_log.close()
        self.record_log.close()
        close_cas = getattr(self._cas, "close", None)
        if close_cas is not None:
            close_cas()
        self._conn.commit()
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._conn.close()


def _dir_bytes(path: str) -> int:
    """Total file bytes under ``path`` (0 for a missing directory)."""
    total = 0
    for root, _, names in os.walk(path):
        for name in names:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total
