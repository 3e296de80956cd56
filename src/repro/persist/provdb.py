"""Indexed off-chain provenance database.

The query-side store: provenance records live here in full, indexed by
id, subject, actor, operation, and time range, while the chain holds only
batch anchors.  The query engine (:mod:`repro.provenance.query`) answers
from this database and *verifies* answers against the chain anchors.

Deliberately implemented as explicit inverted indexes over an append-only
record list — the structures a real deployment would get from its RDBMS,
made visible so the scan-vs-index ablation (EVAL-QUERY) measures something
honest.

The record list itself lives behind a
:class:`~repro.persist.stores.RecordStore` — the ``records`` member of a
:class:`~repro.persist.stores.Storage` bundle: a list in memory, or the
durable indexed log whose sqlite table also maps record_id → log
location.  Records are evidence their anchors commit to, so the
database only appends: nothing changes a stored record in place (a
correction is a new record), and nothing is stored that fails the one
record rule (:func:`~repro.persist.codec.check_record`).  Each door runs
that rule once, before its first write — :meth:`ProvenanceDatabase.check`
for the database's own doors, ``ShardedChain.ingest_records`` across
its shards — and then hands the batch to the one writer,
:meth:`ProvenanceDatabase.write`, which encodes each record once and
gives the same bytes to the record store and the anchor queue.  The inverted
indexes stay in memory either way (positions are cheap); opening a
database on a non-empty store rebuilds them with one pass over it,
which is a load, not a replay — no hashing, no chain execution — and
never raises: a stored value of the wrong type (only an older binary
can have written one) is left out of its index.
(:mod:`repro.storage.provdb` is the survey-facing name of this module.)
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..errors import UnknownEntity
from ..serialization import own
from .codec import check_records, encode_record
from .stores import MemoryRecordStore, RecordStore


class ProvenanceDatabase:
    """Append-only record store with inverted indexes."""

    def __init__(self, store: RecordStore | None = None) -> None:
        self._store: RecordStore = store if store is not None \
            else MemoryRecordStore()
        self._by_id: dict[str, int] = {}
        self._by_subject: defaultdict[str, list[int]] = defaultdict(list)
        self._by_actor: defaultdict[str, list[int]] = defaultdict(list)
        self._by_operation: defaultdict[str, list[int]] = defaultdict(list)
        # (timestamp, position) pairs kept sorted for range queries.
        self._by_time: list[tuple[int, int]] = []
        if len(self._store):
            self._rebuild_indexes()

    def _rebuild_indexes(self) -> None:
        """One pass over a reopened store to repopulate the inverted
        indexes (positions only; record bodies stay on disk): the
        store's raw walk, so no record is copied or cached."""
        for position, stored in self._store.iter_items_raw():
            self._index_record(position, stored)

    def _index_record(self, position: int, stored: Mapping[str, Any]) -> None:
        # A stored value of the wrong type is left out of its index: the
        # record rule keeps such records out, so only an older binary
        # can have written one, and a reopen must still succeed.
        record_id = stored.get("record_id")
        if type(record_id) is str:
            self._by_id[record_id] = position
        for name, index in (("subject", self._by_subject),
                            ("actor", self._by_actor),
                            ("operation", self._by_operation)):
            value = stored.get(name)
            if type(value) is str and value:
                index[value].append(position)
        timestamp = stored.get("timestamp")
        if type(timestamp) is int:
            insort(self._by_time, (timestamp, position))

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def insert(self, record: Mapping[str, Any]) -> int:
        """Insert a record dict; returns its position.  A batch of one
        whose fsync is deferred (see :meth:`insert_many`)."""
        self.insert_many([record], fsync=False)
        return self._by_id[record["record_id"]]

    def insert_many(self, records: Sequence[Mapping[str, Any]],
                    fsync: bool = True) -> int:
        """The door of a database used on its own: :meth:`check` the
        batch, then :meth:`write` it (no anchor queue); returns the
        count."""
        self.check(records)
        self.write(records, None, fsync)
        return len(records)

    def check(self, records: Sequence[Mapping[str, Any]]) -> None:
        """The record rule (:func:`~repro.persist.codec.check_records`)
        for a batch bound for this database: ``record_id`` and
        ``subject`` required, the core fields typed, a registered
        domain's schema, no id repeated in the batch or already stored.
        The first record that fails raises
        :class:`RecordValidationError`."""
        check_records(records, lambda record: record["record_id"]
                      in self._by_id)

    def write(self, records: Sequence[Mapping[str, Any]], anchor,
              fsync: bool) -> list:
        """The one record writer, behind every door that stores records
        for anchoring (the sharded facade's ``ingest_records``, the
        capture sink) and :meth:`insert_many`.

        The records passed the record rule at their door; nothing here
        checks them again.  Each is copied once, all the way down
        (:func:`~repro.serialization.own`) — the copy belongs to the
        store and the anchor batch, which only read it, and shares no
        nested value with the caller's record — and encoded
        once: the same bytes frame it in the record log
        (:meth:`RecordStore.append_many`: one log write + one index
        transaction on the durable backend, fsynced when ``fsync``) and
        feed its anchor digest (``anchor.enqueue(record, encoded)``,
        when ``anchor`` is given).  The indexed fields are ``subject``
        (the data artifact), ``actor`` (who acted), ``operation`` and
        ``timestamp``.  Returns the anchor receipts the batch flushed."""
        owned = [own(record) for record in records]
        if not owned:
            return []
        encoded = [encode_record(record) for record in owned]
        positions = self._store.append_many(owned, encoded, fsync=fsync)
        for position, stored in zip(positions, owned):
            self._index_record(position, stored)
        if anchor is None:
            return []
        return [receipt for receipt in map(anchor.enqueue, owned, encoded)
                if receipt is not None]

    # ------------------------------------------------------------------
    # Point & indexed lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    def get(self, record_id: str) -> dict:
        position = self._by_id.get(record_id)
        if position is None:
            raise UnknownEntity(f"no record {record_id!r}")
        return self._store.get(position)

    def contains(self, record_id: str) -> bool:
        return record_id in self._by_id

    def by_subject(self, subject: str) -> list[dict]:
        return [self._store.get(i)
                for i in self._by_subject.get(subject, [])]

    def by_actor(self, actor: str) -> list[dict]:
        return [self._store.get(i) for i in self._by_actor.get(actor, [])]

    def by_operation(self, operation: str) -> list[dict]:
        return [self._store.get(i)
                for i in self._by_operation.get(operation, [])]

    def by_time_range(self, start: int, end: int) -> list[dict]:
        """Records with ``start <= timestamp < end`` (index-assisted)."""
        lo = bisect_left(self._by_time, (start, -1))
        hi = bisect_right(self._by_time, (end - 1, len(self._store)))
        return [self._store.get(pos) for _, pos in self._by_time[lo:hi]]

    # ------------------------------------------------------------------
    # Full scans (the baseline the index ablation compares against)
    # ------------------------------------------------------------------
    def scan(self, predicate: Callable[[dict], bool]) -> list[dict]:
        # Raw iteration, copying only the matches — the scan baseline
        # must not pay a per-record copy the index paths don't.
        return [own(r) for _, r in self._store.iter_items_raw()
                if predicate(r)]

    def scan_subject(self, subject: str) -> list[dict]:
        """Unindexed equivalent of :meth:`by_subject`."""
        return self.scan(lambda r: r.get("subject") == subject)

    # ------------------------------------------------------------------
    # Iteration & maintenance
    # ------------------------------------------------------------------
    def records(self) -> Iterator[dict]:
        yield from self._store.iter_records()

    def record_ids(self) -> Iterator[str]:
        """Record ids in position (= insertion) order."""
        return iter(self._by_id)
