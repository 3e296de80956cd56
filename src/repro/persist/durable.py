"""Durable backend: two indexed segment logs and one sqlite database.

One :class:`DurableStorage` per store directory owns

* ``blocks-log/`` — an :class:`IndexedLog` of canonical block encodings,
  every block of the chain, where it was written,
* ``records-log/`` — an :class:`IndexedLog` of canonical provenance
  records,
* ``index.db`` — a stdlib :mod:`sqlite3` database holding the two
  location tables (height → frame, position/record_id → frame),
  one ``txs`` row per committed transaction (its 32-byte hash → height
  and position; execution receipts are not stored), the state rows
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
:meth:`DurableBlockStore.truncate_above` deletes it with a block snapshot
sync failed to install (a sealed block of a live chain is final, and
nothing else truncates).
A row exists iff its block does, so nothing derived is checkpointed;
services reload from :meth:`DurableBlockStore.derived_rows`.  The
chain's **state rows** are index rows of the same kind: each group
upserts and deletes the keys its blocks changed and records its head as
the height the rows describe (meta ``state_snapshot_height``), in the
group's transaction, so a reopen loads them and replays nothing; the
walk and the truncation clear them when they drop the block they
describe (the walk does so when a power loss kept the commit of a
group written without an fsync but not its frame), and the reopen then
replays from genesis.  Callers that hold objects reach the block writer
through :meth:`DurableBlockStore.append_blocks` (which encodes, unless
the caller passes the bytes it already has); the snapshot client, which
holds only verified frames, through :meth:`DurableBlockStore.install_raw`.
Blocks and records are only ever appended — no row is pointed at a new
frame — so no log gathers dead weight and nothing rewrites one; the one
rewrite left is the format step that folds a cold tier an older build
archived back into the block log (:meth:`IndexedLog.fold`).

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
from typing import Any, Callable, Iterator, Sequence

from ..chain.block import Block
from ..errors import InvalidBlock, StorageError, UnknownEntity
from ..obs.runtime import telemetry
from ..serialization import canonical_encode, own
from .codec import canonical_decode, decode_block, decode_record, encode_block
from .segment import CrashPoint, SegmentLog
from .stores import BlockStore, RecordStore, Storage

# Zero-padded height keys: key order is height order, and one range
# (up to "0", the character after "/") names every row above a height.
_DERIVED_PREFIX = "derived/"
_DERIVED_END = "derived0"


def _derived_key(height: int) -> str:
    return f"{_DERIVED_PREFIX}{height:012d}"


_PUT_META = "INSERT OR REPLACE INTO meta(key, value) VALUES (?,?)"

# The height of the block the state rows describe; absent when there are
# no rows, which describe the empty state before genesis, height -1 (the
# key kept the name it had when the rows were a checkpoint).
_STATE_HEIGHT = "state_snapshot_height"

# The store format, kept in sqlite's ``PRAGMA user_version`` (see the
# ``persist`` design note): 1 = proof state in meta blobs (refused),
# 2 = derived rows, 3 = the cold tier is a segment log, 4 = a
# transaction's receipt rides its ``txs`` row, 5 = ``txs`` is keyed by
# the 32-byte transaction hash and stores no receipt, 6 = every block
# frame is in the one block log (no cold tier), 7 = the state rows commit
# with each group and never lead the head (no checkpoint bound to its
# block by hash).
_FORMAT = 7


def _stamp(version: int) -> str:
    """The one statement that writes a store's format."""
    return f"PRAGMA user_version = {version};"


def _get_meta(conn: sqlite3.Connection, key: str, default: Any = None) -> Any:
    row = conn.execute("SELECT value FROM meta WHERE key = ?", (key,)
                       ).fetchone()
    return default if row is None else canonical_decode(row[0])


def _tx_key(tx_id: Any) -> bytes | None:
    """The ``txs`` key of a transaction id (64 lowercase hex characters
    → its 32 bytes); ``None`` for anything that is not one."""
    try:
        key = bytes.fromhex(tx_id)
    except (TypeError, ValueError):
        return None
    return key if len(key) == 32 and key.hex() == tx_id else None


# ``txs_by_height`` stays for the two readers of ``txs`` by height: the
# sync tail (:meth:`DurableBlockStore.raw_block_items`) and the delete
# of a dropped or truncated tail (``_drop_block_dependents``).
_SCHEMA = """
CREATE TABLE IF NOT EXISTS blocks(
    height INTEGER PRIMARY KEY,
    segment INTEGER NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL,
    block_hash BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS txs(
    tx_id BLOB PRIMARY KEY,
    height INTEGER NOT NULL,
    pos INTEGER NOT NULL
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS txs_by_height ON txs(height);
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
    frame is — the one primitive under both durable stores.

    ``table`` has an integer ``key`` column (``blocks.height``,
    ``records.position``), the location columns ``segment, offset,
    length`` and one ``extra`` column its store keeps per row.  Every
    piece of code that keeps log and table in step lives here: the one
    group write (:meth:`append`), the recovery walk run on open, the one
    rewrite into a fresh *generation* directory (:meth:`fold`;
    ``<table>-log``, then ``<table>-log.g<N>``, where an older build's
    compaction also left it; the live N is meta key
    ``<table>_log_gen``), and the read side — row lookup, frame read and
    the LRU of decoded values.
    """

    def __init__(self, conn: sqlite3.Connection, directory: str, table: str,
                 key: str, extra: str, cache_size: int,
                 drop_with: Callable[[sqlite3.Connection, int], None]
                 | None = None) -> None:
        self.conn = conn
        self._directory = directory
        self._table, self._key = table, key
        self._base = f"{table}-log"
        self._gen_key = f"{table}_log_gen"
        self._extra = extra
        self._insert_sql = (
            f"INSERT INTO {table}({key}, segment, offset, length, {extra}) "
            "VALUES (?,?,?,?,?)")
        self._drop_with = drop_with
        self._cache: OrderedDict[int, Any] = OrderedDict()
        self._cache_size = cache_size
        # A rewrite (:meth:`fold`, or an older build's compaction) writes
        # the log into the next generation directory and repoints the
        # table in one transaction; the committed generation number says
        # which directory is live.  Anything else (a crashed rewrite's
        # half-written next gen, or a superseded previous gen whose
        # cleanup was interrupted) is swept before the log opens.
        self.generation = int(_get_meta(conn, self._gen_key, 0))
        self._sweep_stale_dirs()
        self.log = SegmentLog(self._dir(self.generation))
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
        and index commit).  Ordered by **log address**, not key: for
        every log this build writes the two orders coincide, but a
        records log an older binary annotated can hold an *old* key
        pointing at its newest frame, and the frame the log must be
        truncated after is the highest-addressed one any row references.
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

    # -- rewrite -------------------------------------------------------
    def fold(self, rows: Sequence[tuple[int, Any]], frames: Sequence[bytes],
             drop: str) -> None:
        """Take over ``frames`` (``rows[i]`` is ``(key, extra)`` of
        ``frames[i]``, keys this table does not hold) from the table
        ``drop``, which goes.

        Protocol: (1) write them and every live frame of this log, in key
        order, into the next-generation directory, fsynced; (2) in
        **one** sqlite transaction rewrite every row of this table to its
        new address, bump the generation meta key and drop ``drop``;
        (3) remove the old directory.  A crash before (2) leaves the
        index on the old generation — the half-written new directory is
        swept on reopen; a crash after (2) leaves the new generation
        committed — the old directory is swept on reopen.  There is no
        intermediate state: the transaction *is* the swap.
        """
        ours = self.conn.execute(
            f"SELECT {self._key}, {self._extra}, segment, offset "
            f"FROM {self._table}").fetchall()
        merged = sorted(
            [*zip(rows, frames),
             *(((key, extra), self.log.read(segment, offset))
               for key, extra, segment, offset in ours)],
            key=lambda item: item[0][0])
        old_dir = self.log.directory
        self.log = SegmentLog(self._dir(self.generation + 1))
        locations = self.log.append_many([frame for _, frame in merged],
                                         fsync=True)
        with self.conn:
            self.conn.execute(f"DELETE FROM {self._table}")
            self.conn.executemany(
                self._insert_sql,
                [(key, loc.segment, loc.offset, loc.length, extra)
                 for ((key, extra), _), loc in zip(merged, locations)])
            self.conn.execute(_PUT_META, (
                self._gen_key, canonical_encode(self.generation + 1)))
            self.conn.execute(f"DROP TABLE {drop}")
        self.generation += 1
        shutil.rmtree(old_dir, ignore_errors=True)


def _drop_block_dependents(conn: sqlite3.Connection, height: int) -> None:
    """Delete what shares the fate of the block rows at or above
    ``height`` — their tx rows, derived rows, and the state rows if they
    describe one of those blocks — for the recovery walk (an orphaned
    head) and for truncation."""
    conn.execute("DELETE FROM txs WHERE height >= ?", (height,))
    conn.execute("DELETE FROM meta WHERE key >= ? AND key < ?",
                 (_derived_key(height), _DERIVED_END))
    if _get_meta(conn, _STATE_HEIGHT, -1) >= height:
        conn.execute("DELETE FROM state_entries")
        conn.execute("DELETE FROM meta WHERE key = ?", (_STATE_HEIGHT,))


def _state_statements(changes: Sequence[tuple[str, str, bool, Any]],
                      height: int, replace: bool = False) -> list:
    """``(sql, parameter rows)`` that make the state rows describe
    ``height``: every row goes first when ``replace``, then each present
    key of ``changes`` is upserted (in key order, for the index's page
    locality, as the tx rows are) and each absent one deleted, and the
    height is recorded."""
    upserts = sorted((ns, key, canonical_encode(value))
                     for ns, key, present, value in changes if present)
    deletes = [(ns, key) for ns, key, present, _ in changes if not present]
    statements = [("DELETE FROM state_entries", [()])] if replace else []
    if upserts:
        statements.append(("INSERT OR REPLACE INTO state_entries"
                           "(namespace, key, value) VALUES (?,?,?)", upserts))
    if deletes:
        statements.append(("DELETE FROM state_entries WHERE namespace = ? "
                           "AND key = ?", deletes))
    statements.append((_PUT_META, [(_STATE_HEIGHT, canonical_encode(height))]))
    return statements


def clear_state_rows(directory: str | os.PathLike) -> None:
    """Delete a closed store's state rows and the height they describe —
    a store whose rows predate its blocks — so the next open replays
    every block from genesis (the replay baseline of a benchmark or a
    test)."""
    conn = sqlite3.connect(os.path.join(os.fspath(directory), "index.db"))
    try:
        with conn:
            conn.execute("DELETE FROM state_entries")
            conn.execute("DELETE FROM meta WHERE key = ?", (_STATE_HEIGHT,))
    finally:
        conn.close()


class DurableBlockStore(BlockStore):
    """Blocks in one :class:`IndexedLog` table keyed by height
    (``blocks``), plus the tx rows and derived rows that share each
    block's fate and the state rows that commit with each group."""

    def __init__(self, index: IndexedLog) -> None:
        self._conn = index.conn
        self._index = index
        top = index.max_key()
        self._height = -1 if top is None else top
        self._state_height = _get_meta(self._conn, _STATE_HEIGHT, -1)
        if self._state_height > self._height:
            # Rows that describe a block the store does not hold describe
            # nothing: they go, and the reopen replays from genesis.
            with self._conn:
                _drop_block_dependents(self._conn, self._height + 1)
            self._state_height = -1

    # -- write path ----------------------------------------------------
    def _write_group(self, heads: Sequence[tuple[int, bytes]],
                     frames: Sequence[bytes], tx_rows: list[tuple],
                     fsync: bool,
                     derived_rows: list[tuple[int, bytes]] = (),
                     state=None) -> None:
        """The one block writer: ``heads`` are ``(height, block_hash)``
        per frame, consecutive from the current head; ``tx_rows`` are
        ``(tx_hash, height, position)``; ``derived_rows`` are
        ``(height, encoded row)``; ``state`` returns the group's net
        state change, asked for and applied only when the rows describe
        the current head; all of it is one :meth:`IndexedLog.append`
        group.  The tx rows are inserted sorted by primary key: the
        tx_id b-tree fills with better page locality than hash-random
        arrival order (table content is order-independent)."""
        for i, (height, _) in enumerate(heads):
            if height != self._height + 1 + i:
                raise StorageError(
                    f"store expects height {self._height + 1 + i}, "
                    f"got {height}"
                )
        also = [("INSERT OR REPLACE INTO txs(tx_id, height, pos) "
                 "VALUES (?,?,?)", sorted(tx_rows))]
        if derived_rows:
            also.append((_PUT_META, [(_derived_key(height), row)
                                     for height, row in derived_rows]))
        tracked = state is not None and self._state_height == self._height
        if tracked:
            also.extend(_state_statements(state(), heads[-1][0]))
        self._index.append(heads, frames, fsync, also)
        self._height += len(heads)
        if tracked:
            self._state_height = self._height

    def append_blocks(self, blocks, fsync=True, encoded=None,
                      derived=None, state=None) -> None:
        if not blocks:
            return
        self._write_group(
            [(block.height, block.block_hash) for block in blocks],
            encoded if encoded is not None
            else [encode_block(block) for block in blocks],
            [(tx.tx_hash, block.height, pos)
             for block in blocks
             for pos, tx in enumerate(block.transactions)],
            fsync,
            [(height, canonical_encode(row))
             for height, row in (derived or {}).items()],
            state,
        )
        for block in blocks:
            self._index.remember(block.height, block)

    def truncate_above(self, height: int) -> None:
        """Drop every block above ``height`` plus its tx index entries
        and derived row, and state rows that describe one of them —
        snapshot sync's unwind of a tail it failed to install, never a
        sealed block of a live chain."""
        if height >= self._height:
            return
        row = self._index.locate(height + 1)
        with self._conn:
            self._conn.execute("DELETE FROM blocks WHERE height > ?",
                               (height,))
            _drop_block_dependents(self._conn, height + 1)
        if row is not None:
            self._index.cut(row[0], row[1], above=height)
        self._height = height
        if self._state_height > height:
            self._state_height = -1

    # -- read path -----------------------------------------------------
    def block_at(self, height: int) -> Block:
        cached = self._index.cached(height)
        if cached is not None:
            return cached
        row = self._index.locate(height, "segment, offset, block_hash")
        if row is None:
            raise InvalidBlock(f"no block at height {height}")
        block = decode_block(self._index.read(row[0], row[1]),
                             expected_hash=bytes(row[2]))
        self._index.remember(height, block)
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
        key = _tx_key(tx_id)
        row = None if key is None else self._conn.execute(
            "SELECT height, pos FROM txs WHERE tx_id = ?", (key,)
        ).fetchone()
        return None if row is None else (row[0], row[1])

    def tx_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM txs").fetchone()[0]

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

    # -- state rows ----------------------------------------------------
    def state_image(self) -> tuple[int, list[tuple[str, str, Any]]]:
        return self._state_height, [
            (ns, key, canonical_decode(value))
            for ns, key, value in self._conn.execute(
                "SELECT namespace, key, value FROM state_entries "
                "ORDER BY namespace, key")]

    def install_state(self, height: int,
                      entries: Sequence[tuple[str, str, Any]]) -> None:
        with self._conn:
            for sql, rows in _state_statements(
                    [(ns, key, True, value) for ns, key, value in entries],
                    height, replace=True):
                self._conn.executemany(sql, rows)
        self._state_height = height

    # -- raw-frame surface (snapshot sync) -----------------------------
    def raw_block_items(self, start: int, count: int) -> list[dict]:
        """Everything a snapshot server streams for ``count`` blocks from
        ``start``, straight off the log — **no decode**: per block the
        exact frame bytes (the canonical block encoding) with their CRC,
        the indexed block hash, and the index rows a replica needs to
        install the frame (tx hashes in position order, read through
        ``txs_by_height``, and the encoded derived row or ``None``).
        Three range queries and one log pass — the server's tail hot
        path."""
        stop = start + count            # exclusive
        rows = self._conn.execute(
            "SELECT height, segment, offset, block_hash FROM blocks "
            "WHERE height >= ? AND height < ? ORDER BY height",
            (start, stop),
        ).fetchall()
        tx_ids: dict[int, list[bytes]] = {}
        for height, tx_id in self._conn.execute(
                "SELECT height, tx_id FROM txs WHERE height >= ? "
                "AND height < ? ORDER BY height, pos", (start, stop)):
            tx_ids.setdefault(height, []).append(tx_id)
        derived = dict(self._derived_range(start, stop))
        frames = self._index.log.read_many(
            (segment, offset) for _, segment, offset, _ in rows)
        items = []
        for (height, _, _, block_hash), frame in zip(rows, frames):
            items.append({
                "height": height,
                "block_hash": bytes(block_hash),
                "frame": frame,
                "crc": zlib.crc32(frame),
                "tx_ids": tx_ids.get(height, []),
                "derived": derived.get(height),
            })
        return items

    def install_raw(self, items: Sequence[dict]) -> None:
        """Group-install already-verified raw block frames (the snapshot
        client's surface).  Each item is a :meth:`raw_block_items`-shaped
        mapping whose ``tx_ids`` are 32-byte hashes; heights must be
        consecutive from the current head.  Nothing is decoded and
        nothing is executed: the caller vouches for the content
        (hash-chain, beacon and proof-row verification happened
        upstream)."""
        if not items:
            return
        self._write_group(
            [(item["height"], item["block_hash"]) for item in items],
            [item["frame"] for item in items],
            [(tx_id, item["height"], pos)
             for item in items
             for pos, tx_id in enumerate(item["tx_ids"])],
            fsync=True,
            derived_rows=[(item["height"], item["derived"])
                          for item in items
                          if item.get("derived") is not None],
        )

    def sync(self) -> None:
        self._index.log.sync()

    def close(self) -> None:
        self._index.log.close()


class DurableRecordStore(RecordStore):
    """Records in an :class:`IndexedLog` keyed by position (the table
    also maps record_id → position)."""

    def __init__(self, index: IndexedLog) -> None:
        self._conn = index.conn
        self._index = index
        top = index.max_key()
        self._count = 0 if top is None else top + 1

    def append_many(self, records, encoded, fsync=True) -> list[int]:
        """One :meth:`IndexedLog.append` group for the whole batch: the
        ``encoded`` frames go to the log verbatim and ``records`` to the
        read cache (see :meth:`RecordStore.append_many`)."""
        if not records:
            return []
        start = self._count
        positions = list(range(start, start + len(records)))
        self._index.append(
            [(position, record["record_id"])
             for position, record in zip(positions, records)],
            encoded, fsync)
        self._count = start + len(records)
        for position, record in zip(positions, records):
            self._index.remember(position, record)
        return positions

    def get(self, position: int) -> dict:
        record = self._index.cached(position)
        if record is None:
            row = self._index.locate(position)
            if row is None:
                raise UnknownEntity(f"no record at position {position}")
            record = decode_record(self._index.read(row[0], row[1]))
            self._index.remember(position, record)
        return own(record)

    def __len__(self) -> int:
        return self._count

    def iter_items_raw(self) -> Iterator[tuple[int, dict]]:
        """One index-ordered query, then each frame read off the log in
        that order and decoded — no LRU entry, no copy (a decoded frame
        is nobody else's).  Driven by the index, not ``range(count)``:
        this build only appends, so the positions are dense, but
        recovering a records log an older binary annotated can drop an
        old position (its torn newest frame) and leave a hole."""
        rows = self._conn.execute(
            "SELECT position, segment, offset FROM records "
            "ORDER BY position").fetchall()
        frames = self._index.log.read_many(
            (segment, offset) for _, segment, offset in rows)
        for (position, _, _), frame in zip(rows, frames):
            yield position, decode_record(frame)


class DurableStorage(Storage):
    """One directory = one durable chain stack (blocks with the state
    rows, records, meta).  Opening it runs crash recovery on both logs;
    see the module docstring for the commit discipline it enforces."""

    def __init__(self, directory: str | os.PathLike) -> None:
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
        # check_same_thread=False: the gateway's off-loop sealer and the
        # named thread engine drive a store from a thread other than the
        # one that opened it (never two threads on one connection at
        # once).
        self._conn = sqlite3.connect(
            os.path.join(self.directory, "index.db"),
            check_same_thread=False,
        )
        opened: list[IndexedLog] = []

        def open_log(table, key, extra, cache_size, drop_with=None):
            opened.append(IndexedLog(
                self._conn, self.directory, table, key, extra, cache_size,
                drop_with))
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
            # rollback-journal ones — its format stamp included, so it
            # is born current and runs no step.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            born = _stamp(_FORMAT) if version is None else ""
            self._conn.executescript(f"BEGIN;{_SCHEMA}{born}COMMIT;")
            # The upgrades run before the block log opens: its table must
            # hold only rows of its log when its recovery walk runs.
            self.recovered_blocks = 0
            for start, step in (() if version is None
                                else self._UPGRADES[version - 2:]):
                step(self)
                # After the step's last effect, so a crash leaves either
                # version and the next open converges (every step re-runs
                # idempotently).
                self._conn.execute(_stamp(start + 1))
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
        self.recovered_blocks += block_index.recovered
        self.recovered_records = record_index.recovered
        self._hot, self._records = block_index, record_index
        self.blocks = DurableBlockStore(block_index)
        self.records = DurableRecordStore(record_index)

    @property
    def block_log(self) -> SegmentLog:
        """The live block segment log."""
        return self._hot.log

    @property
    def record_log(self) -> SegmentLog:
        """The live record segment log."""
        return self._records.log

    def _stored_format(self) -> int | None:
        """The store's format, refused unless an upgrade path leads from
        it to :data:`_FORMAT` — read before anything is written; ``None``
        for a fresh store (no table yet), which is born at
        :data:`_FORMAT`.  A store written before the number existed reads
        0 and is placed once by the meta blobs only format 1 kept (else
        it is format 2)."""
        conn = self._conn
        (version,) = conn.execute("PRAGMA user_version").fetchone()
        if not version:
            tables = self._tables()
            if not tables:
                return None
            version = 1 if "meta" in tables and conn.execute(
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
        fails); all of them become one group of the ``cold_blocks`` log
        whose transaction also deletes those rows and the flag (the step
        5 → 6 folds that log into the block log).  Then ``archive/`` goes
        — also when a crash came after that commit — and so does the
        always-NULL ``cas_key`` column, so the table is a fresh store's
        (a ``blocks`` without it has finished this step)."""
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
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS cold_blocks(height INTEGER "
                "PRIMARY KEY, segment INTEGER NOT NULL, offset INTEGER NOT "
                "NULL, length INTEGER NOT NULL, block_hash BLOB NOT NULL)")
            cold = IndexedLog(self._conn, self.directory, "cold_blocks",
                              "height", "block_hash", 0)
            try:
                cold.append(
                    [(height, block_hash) for height, block_hash, _ in rows],
                    frames, fsync=True,
                    also=[("DELETE FROM blocks WHERE height = ?",
                           [(height,) for height, _, _ in rows]),
                          ("DELETE FROM meta WHERE key = ?",
                           [("blocks_archived",)])])
            finally:
                cold.log.close()
        shutil.rmtree(archive, ignore_errors=True)
        if "cas_key" in self._columns("blocks"):
            self._conn.execute("ALTER TABLE blocks DROP COLUMN cas_key")

    def _upgrade_receipts(self) -> None:
        """Format step 3 → 4: a transaction's receipt rides its ``txs``
        row.  One sqlite transaction adds the nullable ``receipt``
        column, copies every body of the ``receipts`` table onto its tx
        row and drops that table with its height index — so a store that
        has the column has already committed this step (a crash beat the
        stamp) and there is nothing left to do."""
        if "receipt" in self._columns("txs"):
            return
        self._conn.executescript(
            "BEGIN;"
            "ALTER TABLE txs ADD COLUMN receipt BLOB;"
            "UPDATE txs SET receipt = (SELECT body FROM receipts "
            "WHERE receipts.tx_id = txs.tx_id);"
            "DROP TABLE receipts;"
            "COMMIT;")

    def _upgrade_txs(self) -> None:
        """Format step 4 → 5: receipts are not stored, and ``txs`` is
        keyed by the 32-byte transaction hash.  One sqlite transaction
        builds the ``WITHOUT ROWID`` table from the old rows — the hex
        ids converted by a Python function, as sqlite 3.40 has no
        ``unhex()``; a row whose id is not a transaction id is dropped,
        as it names no transaction — then drops the old table and
        renames the new one, so a ``txs`` without the ``receipt`` column
        means this step has already committed."""
        if "receipt" not in self._columns("txs"):
            return
        self._conn.create_function("tx_key", 1, _tx_key, deterministic=True)
        self._conn.executescript(
            "BEGIN;"
            "CREATE TABLE txs_v5(tx_id BLOB PRIMARY KEY, "
            "height INTEGER NOT NULL, pos INTEGER NOT NULL) WITHOUT ROWID;"
            "INSERT INTO txs_v5 SELECT tx_key(tx_id), height, pos FROM txs "
            "WHERE tx_key(tx_id) IS NOT NULL;"
            "DROP TABLE txs;"
            "ALTER TABLE txs_v5 RENAME TO txs;"
            "CREATE INDEX txs_by_height ON txs(height);"
            "COMMIT;")

    def _upgrade_cold(self) -> None:
        """Format step 5 → 6: blocks stay where they are written, so a
        cold tier folds back into the block log.  Every cold frame must
        hash to its row's block hash (else the open fails); then
        :meth:`IndexedLog.fold` writes the cold and the block log's
        frames, in height order, into that log's next generation, and one
        sqlite transaction rewrites the ``blocks`` rows, bumps the
        generation and drops ``cold_blocks`` — so a store without that
        table has committed this step.  A store that never tiered drops
        the empty table and rewrites nothing.  Then the cold log's
        directory goes — also when a crash came after that commit (the
        block log's old generation is swept when it opens)."""
        if "cold_blocks" in self._tables():
            rows = self._conn.execute(
                "SELECT height, block_hash, segment, offset "
                "FROM cold_blocks").fetchall()
            cold = SegmentLog(os.path.join(self.directory, "cold_blocks-log"))
            frames = []
            for _, block_hash, segment, offset in rows:
                frame = cold.read(segment, offset)
                decode_block(frame, expected_hash=bytes(block_hash))
                frames.append(frame)
            if rows:
                # The block log's recovery walk runs here, before its
                # frames are copied; what it drops is this open's count.
                hot = IndexedLog(self._conn, self.directory, "blocks",
                                 "height", "block_hash", 0,
                                 _drop_block_dependents)
                self.recovered_blocks = hot.recovered
                try:
                    hot.fold([row[:2] for row in rows], frames,
                             drop="cold_blocks")
                finally:
                    hot.log.close()
            else:
                self._conn.execute("DROP TABLE cold_blocks")
        for name in os.listdir(self.directory):
            if name.startswith("cold_blocks-log"):
                shutil.rmtree(os.path.join(self.directory, name),
                              ignore_errors=True)

    def _upgrade_binding(self) -> None:
        """Format step 6 → 7: the state rows commit with each group, so
        nothing binds them to a block by hash any more.  An older build
        saved them as a checkpoint with meta ``state_snapshot_block_hash``
        and could leave that image above the head (saved just before the
        fsync a power loss beat) or at a block sync's truncation had
        since replaced: rows whose height names no block, or a block of
        another hash, go with their height (the reopen replays from
        genesis; an empty hash bound nothing and keeps them), and the
        hash key goes in the same transaction — so a store without it
        has committed this step."""
        bound = _get_meta(self._conn, "state_snapshot_block_hash")
        if bound is None:
            return
        height = _get_meta(self._conn, _STATE_HEIGHT)
        row = None if height is None else self._conn.execute(
            "SELECT block_hash FROM blocks WHERE height = ?", (height,)
        ).fetchone()
        with self._conn:
            if row is None or bound and bytes(row[0]) != bound:
                self._conn.execute("DELETE FROM state_entries")
                self._conn.execute("DELETE FROM meta WHERE key = ?",
                                   (_STATE_HEIGHT,))
            self._conn.execute("DELETE FROM meta WHERE key = ?",
                               ("state_snapshot_block_hash",))

    def _columns(self, table: str) -> set[str]:
        return {row[1] for row in self._conn.execute(
            f"PRAGMA table_info({table})")}

    def _tables(self) -> set[str]:
        return {name for (name,) in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}

    # ``(from_version, step)`` for every version from 2 up, in order: a
    # format step is one more entry.  Each is idempotent from its start.
    _UPGRADES = ((2, _upgrade_archive), (3, _upgrade_receipts),
                 (4, _upgrade_txs), (5, _upgrade_cold), (6, _upgrade_binding))

    def _check_owner(self) -> None:
        if os.getpid() != self._owner_pid:
            raise StorageError(
                "durable storage crossed a fork: only the parent "
                "process may commit (exec workers return deltas)"
            )

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
        self._conn.commit()
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self._conn.close()
