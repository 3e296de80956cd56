"""Durable backend: three indexed segment logs and one sqlite database.

One :class:`DurableStorage` per store directory owns

* ``blocks-log/`` — an :class:`IndexedLog` of canonical block encodings,
  the hot tail of the chain,
* ``cold_blocks-log/`` — an :class:`IndexedLog` of the same frames for
  the heights :meth:`DurableStorage.archive_blocks` moved out of the hot
  tail (the cold tier: the same frame format, found by the same header
  scan, recovered by the same walk),
* ``records-log/`` — an :class:`IndexedLog` of canonical provenance
  records,
* ``index.db`` — a stdlib :mod:`sqlite3` database holding the three
  location tables (height → frame twice, position/record_id → frame),
  the tx_id → (height, position) index, receipts, the state snapshot
  (``namespace`` → keys → canonical value), and a small meta table.

Commit discipline (the crash-recovery contract): an entry **counts iff
its sqlite index row is committed and its log frame is CRC-valid**.
Both stores write through :meth:`IndexedLog.append`, which does the same
three things in the same order for every group: hand every frame to one
``SegmentLog.append_many(frames, fsync=)``, then commit every index row
in one sqlite transaction.  A single append is a group of one.  A
block's **derived row** — proof state a service computes from it (an
anchor batch's leaf digests, a beacon round's entries), one meta row
keyed ``derived/<height>`` — is one of those index rows and shares the
block's fate at commit, recovery and truncation: it commits in the
block's transaction, the recovery walk drops it with an orphaned block,
:meth:`DurableBlockStore.truncate_above` deletes it with a reorged one.
A row exists iff its block does, so nothing derived is checkpointed;
services reload from :meth:`DurableBlockStore.derived_rows`.  Callers
that hold objects reach the block writer through
:meth:`DurableBlockStore.append_blocks` (which encodes, unless the caller
passes the bytes it already has); the snapshot client, which holds only
verified frames, through :meth:`DurableBlockStore.install_raw`.
Archival (:meth:`DurableStorage.archive_blocks`) is one more such group:
the cold log appends the frames, and the same transaction deletes their
hot rows.

Where the fsync decision is made: not here.  ``fsync`` arrives from the
caller and is passed to the log unchanged — ``True`` makes the group its
own durability point (a sealed round, a record batch, a synced tail
batch), ``False`` leaves the frames flushed to the OS with the fsync
deferred to the next group or checkpoint (single appends: anchor and
beacon blocks, one-off records).  Truncations delete index rows first,
then cut the log.  A crash between the two steps of either therefore
always leaves the log *ahead* of the index, and the one recovery walk
(:meth:`IndexedLog._recover`, run when a log opens) reconciles by
walking the index back from its highest-addressed row until it finds a
valid frame, dropping orphaned rows, and truncating the log to the last
indexed frame — so a group is on disk entirely or not at all, and a
chain that failed mid-commit unwinds by the height the store reports,
never by what it attempted.  The fault-injection hook on the segment log
makes every intermediate byte state reachable in tests.
"""

from __future__ import annotations

import os
import shutil
import sqlite3
import zlib
from collections import OrderedDict
from collections.abc import Mapping as MappingABC
from typing import Any, Callable, Iterator, Sequence

from ..chain.block import Block
from ..chain.receipts import TransactionReceipt
from ..errors import ColdHistory, InvalidBlock, StorageError, UnknownEntity
from ..obs.runtime import telemetry
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
from .segment import CrashPoint, SegmentLog
from .stores import BlockStore, RecordStore, StateSnapshotStore, Storage

# Zero-padded height keys: key order is height order, and one range
# (up to "0", the character after "/") names every row above a height.
_DERIVED_PREFIX = "derived/"
_DERIVED_END = "derived0"


def _derived_key(height: int) -> str:
    return f"{_DERIVED_PREFIX}{height:012d}"


_PUT_META = "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)"

# The store format, kept in sqlite's ``PRAGMA user_version`` (see the
# ``persist`` design note): 1 = proof state in meta blobs (refused),
# 2 = derived rows, 3 = the cold tier is a segment log.
_FORMAT = 3


def _get_meta(conn: sqlite3.Connection, key: str, default: Any = None) -> Any:
    row = conn.execute("SELECT value FROM meta WHERE key = ?", (key,)
                       ).fetchone()
    return default if row is None else canonical_decode(row[0])


_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocks(
    height INTEGER PRIMARY KEY,
    segment INTEGER NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    block_hash BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS cold_blocks(
    height INTEGER PRIMARY KEY,
    segment INTEGER NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    block_hash BLOB NOT NULL
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


class IndexedLog:
    """A segment log plus the sqlite table that says where each live
    frame is — the one primitive under both durable stores (the block
    store keeps two: the hot tail and the cold tier).

    ``table`` has an integer ``key`` column (``blocks.height``,
    ``cold_blocks.height``, ``records.position``), the location columns
    ``segment, offset, length`` and one ``extra`` column its store keeps
    per row.  Every piece of code that keeps log and table in step lives
    here: the write
    (:meth:`append`, :meth:`repoint`), the recovery walk run on open,
    compaction into a fresh *generation* directory (``<table>-log``,
    then ``<table>-log.g<N>``; the live N is meta key
    ``<table>_log_gen``), and the read side — row lookup, frame read and
    the LRU of decoded values.
    """

    def __init__(self, conn: sqlite3.Connection, directory: str, table: str,
                 key: str, extra: str, cache_size: int,
                 max_segment_bytes: int,
                 drop_with: Callable[[sqlite3.Connection, int], None]
                 | None = None) -> None:
        self.conn = conn
        self._directory = directory
        self._table, self._key = table, key
        self._base = f"{table}-log"
        self._gen_key = f"{table}_log_gen"
        self._insert_sql = (
            f"INSERT INTO {table}({key}, segment, offset, length, {extra}) "
            "VALUES (?,?,?,?,?)")
        self._repoint_sql = (f"UPDATE {table} SET segment = ?, offset = ?, "
                             f"length = ? WHERE {key} = ?")
        self._drop_with = drop_with
        self._max_segment_bytes = max_segment_bytes
        self._cache: OrderedDict[int, Any] = OrderedDict()
        self._cache_size = cache_size
        # Compaction rewrites the log into the next generation directory
        # and repoints the table in one transaction; the committed
        # generation number says which directory is live.  Anything else
        # (a crashed compaction's half-written next gen, or a superseded
        # previous gen whose cleanup was interrupted) is swept before
        # the log opens.
        self.generation = int(_get_meta(conn, self._gen_key, 0))
        self._sweep_stale_dirs()
        self.log = SegmentLog(self._dir(self.generation),
                              max_segment_bytes)
        self.recovered = self._recover()

    def _dir(self, generation: int) -> str:
        name = self._base if generation == 0 \
            else f"{self._base}.g{generation}"
        return os.path.join(self._directory, name)

    def _sweep_stale_dirs(self) -> None:
        live = os.path.basename(self._dir(self.generation))
        for name in os.listdir(self._directory):
            stem, dot_g, generation = name.partition(".g")
            if stem != self._base or name == live \
                    or (dot_g and not generation.isdigit()):
                continue
            path = os.path.join(self._directory, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)

    def _recover(self) -> int:
        """Reconcile the log with its table; returns the rows dropped.

        Walks the table back from its highest-addressed row, dropping
        rows whose frames are partial/garbled (a crash mid-append, or an
        operator truncating the segment file) together with whatever
        ``drop_with`` says shares their fate, then truncates the log to
        the end of the last surviving indexed frame — discarding frames
        that were written but never indexed (a crash between log flush
        and index commit).  Ordered by **log address**, not key:
        :meth:`repoint` can point an *old* key at the newest frame, so
        the frame the log must be truncated after is the
        highest-addressed one any row references.  (Where nothing is
        ever repointed — blocks — key order is address order.)
        """
        dropped = 0
        while True:
            row = self.conn.execute(
                f"SELECT {self._key}, segment, offset, length "
                f"FROM {self._table} "
                "ORDER BY segment DESC, offset DESC LIMIT 1"
            ).fetchone()
            if row is None:
                self.log.truncate_to(0, 0)
                return dropped
            key, segment, offset, length = row
            # Compare the on-disk frame length, not the decoded payload
            # size: for a compressed frame an older writer left, the two
            # differ.
            info = self.log.frame_info_at(segment, offset)
            if info is not None and info[1] == length:
                self.log.truncate_to(segment, offset + length)
                return dropped
            with self.conn:
                self.conn.execute(
                    f"DELETE FROM {self._table} WHERE {self._key} = ?",
                    (key,))
                if self._drop_with is not None:
                    self._drop_with(self.conn, key)
            dropped += 1

    # -- write ---------------------------------------------------------
    def append(self, rows: Sequence[tuple[int, Any]],
               frames: Sequence[bytes], fsync: bool,
               also: Sequence[tuple[str, Sequence[tuple]]] = ()) -> None:
        """The one group write: ``rows[i]`` is ``(key, extra)`` of
        ``frames[i]``.  All frames go down in one buffered log write —
        fsynced when ``fsync``, else flushed with the fsync deferred to
        the next group or checkpoint — then every location row, and every
        ``also`` row (``(sql, parameter rows)``: rows inserted or deleted
        with the group) that shares the group's fate, lands in **one**
        sqlite transaction.  A crash anywhere inside leaves either no
        index rows (log ahead of index: recovery truncates the orphaned
        frames) or all of them, so the group is atomic on disk."""
        locs = self.log.append_many(frames, fsync=fsync)
        with self.conn:
            self.conn.executemany(
                self._insert_sql,
                [(key, loc.segment, loc.offset, loc.length, extra)
                 for (key, extra), loc in zip(rows, locs)])
            for sql, parameters in also:
                self.conn.executemany(sql, parameters)

    def repoint(self, key: int, frame: bytes) -> None:
        """Append ``frame`` and point ``key``'s row at it (the old frame
        becomes dead weight in the log — append-only)."""
        loc = self.log.append(frame)
        with self.conn:
            self.conn.execute(
                self._repoint_sql, (loc.segment, loc.offset, loc.length, key))

    def cut(self, segment: int, offset: int, above: int) -> None:
        """Truncate the log at an address whose rows (every key over
        ``above``) the caller has already deleted."""
        self.log.truncate_to(segment, offset)
        for key in [key for key in self._cache if key > above]:
            del self._cache[key]

    # -- read ----------------------------------------------------------
    def max_key(self) -> int | None:
        return self.conn.execute(
            f"SELECT MAX({self._key}) FROM {self._table}").fetchone()[0]

    def locate(self, key: int, columns: str = "segment, offset"):
        """``columns`` of ``key``'s row, or ``None``."""
        return self.conn.execute(
            f"SELECT {columns} FROM {self._table} WHERE {self._key} = ?",
            (key,)).fetchone()

    def read(self, segment: int, offset: int) -> bytes:
        return self.log.read(segment, offset)

    def cached(self, key: int) -> Any | None:
        value = self._cache.get(key)
        if value is not None:
            self._cache.move_to_end(key)
        return value

    def remember(self, key: int, value: Any) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    # -- compaction ----------------------------------------------------
    def compact(self, fail_after_bytes: int | None = None,
                crash_before_cleanup: bool = False) -> dict:
        """Rewrite the live frames into a fresh generation, in key order
        (the rewritten log reads sequentially even after heavy
        repointing).

        Protocol: (1) copy every indexed frame into the next-generation
        directory and fsync it; (2) repoint every row *and* bump the
        generation meta key in **one** sqlite transaction; (3) swap the
        log object; (4) remove the old directory.  A crash before (2)
        leaves the index on the old generation — the half-written new
        directory is swept on reopen; a crash after (2) leaves the new
        generation committed — the old directory is swept on reopen.
        There is no intermediate state: the transaction *is* the swap.
        The two arguments are the fault-injection hooks for exactly
        those crash points.
        """
        rows = self.conn.execute(
            f"SELECT {self._key}, segment, offset FROM {self._table} "
            f"ORDER BY {self._key}").fetchall()
        old_log = self.log
        bytes_before = _dir_bytes(old_log.directory)
        new_gen = self.generation + 1
        new_dir = self._dir(new_gen)
        if os.path.isdir(new_dir):
            # A previous compaction attempt crashed mid-write in this
            # same process lifetime; its frames were never committed.
            shutil.rmtree(new_dir)
        new_log = SegmentLog(new_dir, self._max_segment_bytes)
        if fail_after_bytes is not None:
            new_log.fail_after_bytes = fail_after_bytes
        locations = new_log.append_many(
            [old_log.read(segment, offset) for _, segment, offset in rows],
            fsync=True)
        with self.conn:
            self.conn.executemany(
                self._repoint_sql,
                [(loc.segment, loc.offset, loc.length, key)
                 for (key, _, _), loc in zip(rows, locations)])
            self.conn.execute(
                _PUT_META, (self._gen_key, canonical_encode(new_gen)))
        old_log.close()
        self.log, self.generation = new_log, new_gen
        if crash_before_cleanup:
            raise CrashPoint(
                "injected crash after compaction commit, before cleanup"
            )
        shutil.rmtree(old_log.directory, ignore_errors=True)
        return {
            "generation": new_gen,
            "live_frames": len(rows),
            "bytes_before": bytes_before,
            "bytes_after": _dir_bytes(new_dir),
        }


def _drop_block_dependents(conn: sqlite3.Connection, height: int) -> None:
    """Delete what shares the fate of the block rows at or above
    ``height`` — their tx index entries, receipts and derived rows —
    for the recovery walk (an orphaned head) and for truncation."""
    conn.execute("DELETE FROM txs WHERE height >= ?", (height,))
    conn.execute("DELETE FROM receipts WHERE height >= ?", (height,))
    conn.execute("DELETE FROM meta WHERE key >= ? AND key < ?",
                 (_derived_key(height), _DERIVED_END))


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
    """Blocks in two :class:`IndexedLog` tables keyed by height — the hot
    tail (``blocks``) and the archived history below it
    (``cold_blocks``) — plus the tx, receipt and derived-row tables that
    share each block's fate."""

    def __init__(self, index: IndexedLog, cold: IndexedLog) -> None:
        self._conn = index.conn
        self._index, self._cold = index, cold
        self._height = max((top for top in (index.max_key(), cold.max_key())
                            if top is not None), default=-1)

    def archived_boundary(self) -> int | None:
        """Highest archived height, or ``None`` when nothing has been
        moved to the cold tier."""
        return self._cold.max_key()

    # -- write path ----------------------------------------------------
    def _write_group(self, heads: Sequence[tuple[int, bytes]],
                     frames: Sequence[bytes], tx_rows: list[tuple],
                     receipt_rows: list[tuple], fsync: bool,
                     derived_rows: list[tuple[int, bytes]] = ()) -> None:
        """The one block writer: ``heads`` are ``(height, block_hash)``
        per frame, consecutive from the current head; ``derived_rows``
        are ``(height, encoded row)``; all of it is one
        :meth:`IndexedLog.append` group.  The tx and receipt rows are
        inserted sorted by primary key: the tx_id b-trees fill with
        better page locality than hash-random arrival order (table
        content is order-independent)."""
        for i, (height, _) in enumerate(heads):
            if height != self._height + 1 + i:
                raise StorageError(
                    f"store expects height {self._height + 1 + i}, "
                    f"got {height}"
                )
        also = [
            ("INSERT OR REPLACE INTO txs(tx_id, height, pos) "
             "VALUES (?,?,?)", sorted(tx_rows)),
            ("INSERT OR REPLACE INTO receipts(tx_id, height, body) "
             "VALUES (?,?,?)", sorted(receipt_rows)),
        ]
        if derived_rows:
            also.append((_PUT_META, [(_derived_key(height), row)
                                     for height, row in derived_rows]))
        self._index.append(heads, frames, fsync, also)
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
            self._index.remember(block.height, block)

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
        row = self._index.locate(height + 1)
        with self._conn:
            self._conn.execute("DELETE FROM blocks WHERE height > ?",
                               (height,))
            _drop_block_dependents(self._conn, height + 1)
        if row is not None:
            self._index.cut(row[0], row[1], above=height)
        self._height = height

    # -- read path -----------------------------------------------------
    def block_at(self, height: int) -> Block:
        cached = self._index.cached(height)
        if cached is not None:
            return cached
        for index in (self._index, self._cold):
            row = index.locate(height, "segment, offset, block_hash")
            if row is not None:
                block = decode_block(index.read(row[0], row[1]),
                                     expected_hash=bytes(row[2]))
                self._index.remember(height, block)
                return block
        raise InvalidBlock(f"no block at height {height}")

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
        boundary = self.archived_boundary()
        if boundary is not None and start <= boundary:
            raise ColdHistory(
                f"heights {start}..{boundary} are archived; raw frames "
                "are served from the hot tail only (snapshot sync starts "
                "replicas from the state image, not cold history)"
            )
        stop = start + count            # exclusive
        rows = self._conn.execute(
            "SELECT height, segment, offset, block_hash FROM blocks "
            "WHERE height >= ? AND height < ? ORDER BY height",
            (start, stop),
        ).fetchall()
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
            frame = self._index.read(segment, offset)
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
        self._index.log.sync()

    def close(self) -> None:
        self._index.log.close()
        self._cold.log.close()


class DurableRecordStore(RecordStore):
    """Records in an :class:`IndexedLog` keyed by position (the table
    also maps record_id → position)."""

    def __init__(self, index: IndexedLog) -> None:
        self._conn = index.conn
        self._index = index
        top = index.max_key()
        self._count = 0 if top is None else top + 1

    def append_many(self, records, encoded=None, fsync=True) -> list[int]:
        """The one record writer: one :meth:`IndexedLog.append` group
        for the whole batch.  ``encoded`` frames go to the log verbatim
        and hand ``records`` over to the read cache (see
        :meth:`RecordStore.append_many`)."""
        if not records:
            return []
        start = self._count
        owned = encoded is not None
        if not owned:
            encoded = [encode_record(record) for record in records]
        positions = list(range(start, start + len(records)))
        self._index.append(
            [(position, str(record.get("record_id") or position))
             for position, record in zip(positions, records)],
            encoded, fsync)
        self._count = start + len(records)
        for position, record in zip(positions, records):
            self._index.remember(position,
                                 record if owned else dict(record))
        return positions

    def replace(self, position: int, record: dict) -> None:
        """Annotation support: append the updated copy, repoint the
        index."""
        if not 0 <= position < self._count:
            raise UnknownEntity(f"no record at position {position}")
        self._index.repoint(position, encode_record(record))
        self._index.remember(position, dict(record))

    def get(self, position: int) -> dict:
        record = self._index.cached(position)
        if record is None:
            row = self._index.locate(position)
            if row is None:
                raise UnknownEntity(f"no record at position {position}")
            record = decode_record(self._index.read(row[0], row[1]))
            self._index.remember(position, record)
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
            self._conn.executemany(_PUT_META, [
                (self._HEIGHT_KEY, canonical_encode(height)),
                (self._HASH_KEY, canonical_encode(block_hash))])

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
        return _get_meta(self._conn, self._HEIGHT_KEY)

    def snapshot_block_hash(self) -> bytes:
        return _get_meta(self._conn, self._HASH_KEY, b"")

    def clear(self) -> None:
        with self._conn:
            self._conn.execute("DELETE FROM state_entries")
            self._conn.execute(
                "DELETE FROM meta WHERE key IN (?, ?)",
                (self._HEIGHT_KEY, self._HASH_KEY),
            )


class DurableStorage(Storage):
    """One directory = one durable chain stack (blocks, records, state,
    meta).  Opening it runs crash recovery on all three logs; see the
    module docstring for the commit discipline it enforces."""

    def __init__(self, directory: str | os.PathLike,
                 max_segment_bytes: int = 4 * 1024 * 1024) -> None:
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
        os.makedirs(self.directory, exist_ok=True)
        # check_same_thread=False: the parallel sealing round drives each
        # shard's storage from a worker thread (one worker per shard per
        # round, never two threads on one connection concurrently).
        self._conn = sqlite3.connect(
            os.path.join(self.directory, "index.db"),
            check_same_thread=False,
        )
        opened: list[IndexedLog] = []

        def open_log(table, key, extra, cache_size, drop_with=None):
            opened.append(IndexedLog(
                self._conn, self.directory, table, key, extra, cache_size,
                max_segment_bytes, drop_with))
            return opened[-1]

        # A failed open releases what it opened: the connection and every
        # log, before the exception leaves (nothing waits for gc).
        try:
            version = self._stored_format()
            # WAL keeps index commits append-only (no per-commit journal
            # rewrite) — an order of magnitude cheaper for the one-row
            # transactions the append path issues; synchronous=NORMAL
            # still fsyncs the WAL at checkpoints, matching the segment
            # logs' fsync-on-seal discipline.  Set before the schema, and
            # the schema created in one transaction: a fresh store is
            # then one WAL commit instead of nine fully synced
            # rollback-journal ones.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(f"BEGIN;{_SCHEMA}COMMIT;")
            # The cold log opens, and the upgrades run, before the hot
            # log: the hot table must hold only rows of its log when its
            # recovery walk runs.
            self._cold = open_log("cold_blocks", "height", "block_hash", 0)
            for start, step in self._UPGRADES[version - 2:]:
                step(self)
                # The one write of the number: after the step's last
                # effect, so a crash leaves either version and the next
                # open converges (every step re-runs idempotently).
                self._conn.execute(f"PRAGMA user_version = {start + 1}")
                telemetry().registry.counter(
                    "store_format_upgrades_total",
                    **{"from": start, "to": start + 1}).inc()
            block_index = open_log("blocks", "height", "block_hash", 256,
                                   _drop_block_dependents)
            record_index = open_log("records", "position", "record_id",
                                    1024)
        except BaseException:
            for index in opened:
                index.log.close()
            self._conn.close()
            raise
        self.recovered_blocks = block_index.recovered
        self.recovered_records = record_index.recovered
        self._indexes = {"blocks": block_index, "records": record_index}
        self.blocks = DurableBlockStore(block_index, self._cold)
        self.records = DurableRecordStore(record_index)
        self.state = DurableStateSnapshotStore(self._conn)

    @property
    def block_log(self) -> SegmentLog:
        """The live block segment log (compaction swaps it)."""
        return self._indexes["blocks"].log

    @property
    def record_log(self) -> SegmentLog:
        """The live record segment log (compaction swaps it)."""
        return self._indexes["records"].log

    def _stored_format(self) -> int:
        """The store's format, refused unless an upgrade path leads from
        it to :data:`_FORMAT` — read before anything is written.  A store
        written before the number existed reads 0 and is placed once by
        the meta blobs only format 1 kept (a fresh store is format 2:
        an empty store is valid at every version)."""
        conn = self._conn
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        if not version:
            version = 1 if conn.execute(
                "SELECT 1 FROM sqlite_master WHERE name = 'meta'"
            ).fetchone() and conn.execute(
                "SELECT 1 FROM meta WHERE key IN ('anchor_state', "
                "'beacon_state', 'facade_state')").fetchone() else 2
        if not 2 <= version <= _FORMAT:
            raise StorageError(
                f"{self.directory} is store format {version}; this build "
                f"opens formats 2 to {_FORMAT} (1 kept proof state in meta "
                "blobs: no upgrade path leads from it)",
                reason="format_too_new" if version > _FORMAT
                else "format_too_old")
        return version

    def _upgrade_archive(self) -> None:
        """Format step 2 → 3: take over a cold tier the file-per-frame
        format wrote: one file per frame under ``archive/``
        (``blobs/<hh>/<hex>``, or a manifest of 32-byte chunk digests
        under ``manifests/``), found by the ``cas_key`` of a
        ``segment = -1`` row and flagged by meta ``blocks_archived``.
        Every frame must hash to its row's block hash (else the open
        fails); all of them become one cold group whose transaction also
        deletes those rows and the flag.  Then ``archive/`` goes — also
        when a crash came after that commit."""
        archive = os.path.join(self.directory, "archive")
        if _get_meta(self._conn, "blocks_archived") is not None:
            def blob(kind: str, digest: str) -> bytes:
                with open(os.path.join(archive, kind, digest[:2], digest),
                          "rb") as fh:
                    return fh.read()

            rows = self._conn.execute(
                "SELECT height, block_hash, cas_key FROM blocks "
                "WHERE segment < 0 ORDER BY height").fetchall()
            frames = []
            for _, block_hash, cas_key in rows:
                kind, _, digest = cas_key.partition(":")
                if kind == "raw":
                    frame = blob("blobs", digest)
                else:
                    chunks = blob("manifests", digest)
                    frame = b"".join(blob("blobs", chunks[i:i + 32].hex())
                                     for i in range(0, len(chunks), 32))
                decode_block(frame, expected_hash=bytes(block_hash))
                frames.append(frame)
            self._cold.append(
                [(height, block_hash) for height, block_hash, _ in rows],
                frames, fsync=True,
                also=[("DELETE FROM blocks WHERE height = ?",
                       [(height,) for height, _, _ in rows]),
                      ("DELETE FROM meta WHERE key = ?",
                       [("blocks_archived",)])])
        shutil.rmtree(archive, ignore_errors=True)

    # ``(from_version, step)`` for every version from 2 up, in order: a
    # format step is one more entry.  Each is idempotent from its start.
    _UPGRADES = ((2, _upgrade_archive),)

    def _check_owner(self) -> None:
        if os.getpid() != self._owner_pid:
            raise StorageError(
                "durable storage crossed a fork: only the parent "
                "process may commit (exec workers return deltas)"
            )

    # ------------------------------------------------------------------
    # Storage tiering: compaction + cold-block archival
    # ------------------------------------------------------------------
    def disk_usage(self, include_archive: bool = False) -> int:
        """Bytes on disk for the hot tier (segment logs + sqlite index,
        WAL included); the cold log's bytes only when asked — the whole
        point of tiering is that they can live on other media."""
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
            total += _dir_bytes(self._cold.log.directory)
        return total

    def compact(self, which: str = "both",
                fail_after_bytes: int | None = None,
                crash_before_cleanup: bool = False) -> dict:
        """Drop dead log weight: hot block frames left behind by
        archival, and dead record frames left by ``replace``
        (annotation).  The cold log carries none (it is only appended
        to).  The crash hooks drive the tiering fault-injection tests;
        see :meth:`IndexedLog.compact` for why every crash point
        reconciles on reopen."""
        self._check_owner()
        if which not in ("both", "blocks", "records"):
            raise StorageError(f"unknown compaction target {which!r}")
        return {
            table: index.compact(fail_after_bytes, crash_before_cleanup)
            for table, index in self._indexes.items()
            if which in ("both", table)
        }

    def archive_blocks(self, keep_tail: int = 64) -> dict:
        """Move every block at or below ``height - keep_tail`` from the
        hot log to the cold one.

        The exact frames go down as **one** fsynced cold group whose
        sqlite transaction inserts their cold rows and deletes their hot
        ones, so each height is in exactly one table at every instant.  A
        crash before that commit leaves orphan cold frames, which the
        cold log's recovery walk truncates on reopen; after it, the hot
        frames are dead weight the *next* :meth:`compact` drops —
        :meth:`tier` runs both in order.
        """
        self._check_owner()
        if keep_tail < 0:
            raise StorageError("keep_tail must be >= 0")
        rows = self._conn.execute(
            "SELECT height, segment, offset, block_hash FROM blocks "
            "WHERE height <= ? ORDER BY height",
            (self.blocks.height() - keep_tail,),
        ).fetchall()
        if rows:
            self._cold.append(
                [(height, block_hash) for height, _, _, block_hash in rows],
                [self.block_log.read(segment, offset)
                 for _, segment, offset, _ in rows],
                fsync=True,
                also=[("DELETE FROM blocks WHERE height = ?",
                       [(height,) for height, _, _, _ in rows])])
        return {"archived": len(rows),
                "boundary": self.blocks.archived_boundary()}

    def tier(self, keep_tail: int = 64) -> dict:
        """One tiering pass: archive cold blocks, then compact the logs
        so the hot tier is exactly the pruned profile — state image +
        hot block tail + live records.  Returns before/after hot-tier
        byte counts alongside each step's stats."""
        self._check_owner()
        bytes_before = self.disk_usage()
        archived = self.archive_blocks(keep_tail=keep_tail)
        compacted = self.compact()
        self.sync()
        stats = {
            "archived": archived,
            "compacted": compacted,
            "bytes_before": bytes_before,
            "bytes_after": self.disk_usage(),
        }
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
            self._conn.execute(_PUT_META, (key, canonical_encode(value)))

    def get_meta(self, key: str, default: Any = None) -> Any:
        return _get_meta(self._conn, key, default)

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
        self._cold.log.close()
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
