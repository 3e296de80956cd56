"""Provenance query engine.

Implements the paper's §6.1 "Provenance Query" consideration and the
§6.2 future-work item on repeated queries:

* **point** queries by record id (the database's ``get``; verified,
  :meth:`ProvenanceQueryEngine.verify_records` of that record),
* **history** queries over a subject (all operations on one artifact),
* **actor** and **time-range** queries,
* **lineage** queries over a :class:`~repro.provenance.graph.ProvenanceGraph`,
* each optionally **verified** — every returned record is accompanied by
  an anchored Merkle proof checked against the chain, so the caller gets
  the "alternative validation method" §6.1 asks for;
* a **repeated-query cache** with hit/latency accounting, since
  "identical queries are frequently made, leading to redundant data
  retrievals" (§6.2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import QueryError
from ..persist.provdb import ProvenanceDatabase
from ..serialization import flat_records, own
from ..verify import AnchoredProof
from .anchor import AnchorService
from .graph import ProvenanceGraph


@dataclass
class QueryStats:
    """Engine-level accounting (the EVAL-QUERY bench reads this)."""

    queries: int = 0
    records_returned: int = 0
    proofs_produced: int = 0
    proofs_verified: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(frozen=True)
class VerifiedAnswer:
    """A query result with integrity evidence.

    ``verified`` is True only if *every* record carried a valid anchored
    proof.  ``unanchored`` lists record ids found in the database but not
    (yet) covered by any anchor — the caller decides whether to trust
    them (they may simply be in a pending batch).
    """

    records: tuple[dict, ...]
    proofs: tuple[AnchoredProof | None, ...]
    verified: bool
    unanchored: tuple[str, ...] = ()


class QueryCache:
    """A bounded LRU cache over query results keyed by query signature."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise QueryError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key: tuple) -> Any | None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]
        self.misses += 1
        return None

    def put(self, key: tuple, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate_all(self) -> None:
        """Writers call this after new records land (coarse but safe)."""
        self.invalidations += len(self._entries)
        self._entries.clear()


class ProvenanceQueryEngine:
    """Queries over the provenance database, graph, and chain anchors."""

    def __init__(
        self,
        database: ProvenanceDatabase,
        anchor_service: AnchorService | None = None,
        graph: ProvenanceGraph | None = None,
        cache: QueryCache | None = None,
    ) -> None:
        self.database = database
        self.anchor_service = anchor_service
        self.graph = graph
        self.cache = cache
        self.stats = QueryStats()
        # Proof memo for repeated verified queries: an anchored record's
        # proof is immutable once its anchor block is sealed (a sealed
        # block is final), so it is memoised for good and re-proving on
        # every repeat is pure waste.  Verification against
        # the chain's own header still runs per query (trust is not
        # cached).
        self._proof_memo: dict[str, AnchoredProof] = {}

    # ------------------------------------------------------------------
    # Unverified queries
    # ------------------------------------------------------------------
    def history(self, subject: str) -> list[dict]:
        """All records about ``subject``, oldest first."""
        def run() -> list[dict]:
            records = self.database.by_subject(subject)
            records.sort(key=lambda r: (r.get("timestamp", 0),
                                        r.get("record_id", "")))
            return records
        return self._cached(("history", subject), run)

    def by_actor(self, actor: str) -> list[dict]:
        return self._cached(("actor", actor),
                            lambda: self.database.by_actor(actor))

    def time_range(self, start: int, end: int) -> list[dict]:
        return self._cached(("range", start, end),
                            lambda: self.database.by_time_range(start, end))

    def lineage_ids(self, node_id: str) -> list[str]:
        """Transitive origins of a graph node (requires a graph)."""
        if self.graph is None:
            raise QueryError("engine has no provenance graph")
        return self._cached(("lineage", node_id),
                            lambda: self.graph.lineage(node_id))

    # ------------------------------------------------------------------
    # Verified queries
    # ------------------------------------------------------------------
    def history_verified(self, subject: str) -> VerifiedAnswer:
        self._require_anchor_service()
        return self.verify_records(self.history(subject))

    def _require_anchor_service(self) -> None:
        if self.anchor_service is None:
            raise QueryError("verified queries need an anchor service")

    def verify_records(self, records: list[dict]) -> VerifiedAnswer:
        """The anchor evidence for records a query already fetched (the
        sharded engine federates per-shard answers through this)."""
        self._require_anchor_service()
        proofs: list[AnchoredProof | None] = []
        unanchored: list[str] = []
        all_good = True
        for record in records:
            record_id = str(record.get("record_id"))
            if not self.anchor_service.is_anchored(record_id):
                proofs.append(None)
                unanchored.append(record_id)
                all_good = False
                continue
            proof = self._proof_memo.get(record_id)
            if proof is None:
                proof = self.anchor_service.prove(record_id)
                self.stats.proofs_produced += 1
                self._proof_memo[record_id] = proof
            ok = self.anchor_service.verify(record, proof)
            self.stats.proofs_verified += 1
            if not ok:
                all_good = False
            proofs.append(proof)
        return VerifiedAnswer(
            records=tuple(records),
            proofs=tuple(proofs),
            verified=all_good and bool(records),
            unanchored=tuple(unanchored),
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _cached(self, key: tuple, producer: Callable[[], Any]) -> Any:
        """``producer()``'s answer, through the cache when there is one.
        The cache keeps its own copy and every caller gets an unshared
        one (:func:`~repro.serialization.own`), so an answer a caller
        edits, nested values included, changes no later answer."""
        self.stats.queries += 1
        if self.cache is None:
            result = producer()
        else:
            entry = self.cache.get(key)
            if entry is None:
                self.stats.cache_misses += 1
                answer = producer()
                entry = (answer, flat_records(answer))
                self.cache.put(key, entry)
            else:
                self.stats.cache_hits += 1
            answer, flat = entry
            result = [dict(r) for r in answer] if flat else own(answer)
        self._count(result)
        return result

    def _count(self, result: Any) -> None:
        if isinstance(result, list):
            self.stats.records_returned += len(result)
        elif isinstance(result, dict):
            self.stats.records_returned += 1

    def notify_write(self) -> None:
        """Invalidate caches after new records are ingested."""
        if self.cache is not None:
            self.cache.invalidate_all()
