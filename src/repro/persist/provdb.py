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
location.  The inverted indexes stay in memory either way (positions are
cheap); opening a database on a non-empty store rebuilds them with one
pass over it, which is a load, not a replay — no hashing, no chain
execution.  (:mod:`repro.storage.provdb` is the survey-facing name of
this module.)
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from typing import Any, Callable, Iterator, Mapping

from ..errors import QueryError, UnknownEntity
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

    @property
    def store(self) -> RecordStore:
        return self._store

    def _rebuild_indexes(self) -> None:
        """One pass over a reopened store to repopulate the inverted
        indexes (positions only; record bodies stay on disk)."""
        for position, stored in self._store.iter_items():
            self._index_record(position, stored)

    def _index_record(self, position: int, stored: Mapping[str, Any]) -> None:
        self._by_id[str(stored["record_id"])] = position
        subject = stored.get("subject")
        if subject:
            self._by_subject[str(subject)].append(position)
        actor = stored.get("actor")
        if actor:
            self._by_actor[str(actor)].append(position)
        operation = stored.get("operation")
        if operation:
            self._by_operation[str(operation)].append(position)
        timestamp = stored.get("timestamp")
        if timestamp is not None:
            insort(self._by_time, (int(timestamp), position))

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def insert(self, record: Mapping[str, Any]) -> int:
        """Insert a record dict; returns its position.  A batch of one
        whose fsync is deferred (see :meth:`insert_many`)."""
        self.insert_many([record], fsync=False)
        return self._by_id[str(record["record_id"])]

    def insert_many(self, records, encoded=None, fsync=True) -> int:
        """Insert a batch through the store's one write (one log write +
        one index transaction on the durable backend, fsynced when
        ``fsync``) and index it in one pass; returns the count.

        Required field: ``record_id``; indexed when present: ``subject``
        (the data artifact), ``actor`` (who acted), ``operation``,
        ``timestamp``.  All-or-nothing: a missing or duplicate id
        anywhere rejects the batch before anything is stored.

        ``encoded`` is the records' canonical bytes from a caller that
        owns the dicts and gives them away
        (:meth:`RecordStore.append_many`) — the sharded facade, whose
        routing pass has already decided id uniqueness across every
        shard, so the check is not repeated here (a durable store's
        ``UNIQUE`` index still backs it).  Without it each record is
        validated and copied first."""
        if encoded is None:
            seen: set[str] = set()
            for record in records:
                record_id = record.get("record_id")
                if not record_id:
                    raise QueryError("record needs a record_id")
                if record_id in self._by_id or record_id in seen:
                    raise QueryError(f"duplicate record_id {record_id!r}")
                seen.add(record_id)
            records = [dict(record) for record in records]
        if not records:
            return 0
        positions = self._store.append_many(records, encoded, fsync=fsync)
        for position, stored in zip(positions, records):
            self._index_record(position, stored)
        return len(records)

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
        return [dict(r) for r in self._store.iter_records_raw()
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

    def annotate(self, record_id: str, **fields: Any) -> None:
        """Attach non-indexed metadata (e.g. anchor references)."""
        position = self._by_id.get(record_id)
        if position is None:
            raise UnknownEntity(f"no record {record_id!r}")
        record = self._store.get(position)
        record.update(fields)
        self._store.replace(position, record)
