"""Capture pathways, anchoring, verified queries, and the query cache."""

import pytest

from repro.clock import SimClock
from repro.errors import AccessDenied, AnchorError, CaptureError, QueryError
from repro.provenance.anchor import AnchorService
from repro.provenance.capture import (
    CaptureSink,
    DirectCapture,
    MultiSourceCapture,
    StoreMediatedCapture,
    ThirdPartyCapture,
)
from repro.provenance.query import ProvenanceQueryEngine, QueryCache
from repro.storage.cloudstore import CloudObjectStore
from repro.storage.provdb import ProvenanceDatabase


def generic_record(i, subject="file", actor="alice"):
    return {
        "record_id": f"g{i}",
        "domain": "generic",
        "subject": subject,
        "actor": actor,
        "operation": "touch",
        "timestamp": i,
    }


class TestDirectCapture:
    def test_delivers_to_database(self, sink, database):
        capture = DirectCapture(sink)
        capture.record_operation(generic_record(1))
        assert database.contains("g1")
        assert capture.metrics.messages == 1

    def test_schema_validation_applies_to_known_domains(self, sink):
        capture = DirectCapture(sink)
        bad = {"record_id": "x", "domain": "scientific", "subject": "s",
               "actor": "a", "operation": "o", "timestamp": 1}
        with pytest.raises(Exception):
            capture.record_operation(bad)

    def test_record_without_id_rejected(self, sink):
        capture = DirectCapture(sink)
        with pytest.raises(CaptureError):
            capture.record_operation({"domain": "generic"})


class TestStoreMediatedCapture:
    def test_operations_become_records(self, sink, database, clock):
        store = CloudObjectStore(clock)
        capture = StoreMediatedCapture(sink, store)
        store.create("alice", "doc", b"v1")
        store.update("alice", "doc", b"v2")
        store.read("alice", "doc")
        assert len(database) == 3
        assert capture.metrics.records_delivered == 3
        ops = [r["operation"] for r in database.by_subject("doc")]
        assert ops == ["create", "update", "read"]

    def test_content_hash_recorded(self, sink, database, clock):
        store = CloudObjectStore(clock)
        StoreMediatedCapture(sink, store)
        store.create("alice", "doc", b"payload")
        record = database.by_subject("doc")[0]
        assert record["content_hash"]

    def test_denied_operations_not_captured(self, sink, database, clock):
        store = CloudObjectStore(clock)
        StoreMediatedCapture(sink, store)
        store.create("alice", "doc", b"x")
        with pytest.raises(AccessDenied):
            store.read("eve", "doc")
        # Only the create observed; the denied read never happened.
        assert len(database) == 1


class TestThirdPartyCapture:
    def test_centralized_allows_and_records(self, sink, database):
        capture = ThirdPartyCapture(sink, [lambda a, r: a == "alice"])
        capture.request("alice", "res", generic_record(1))
        assert database.contains("g1")
        assert capture.metrics.auth_checks == 1

    def test_centralized_denies(self, sink, database):
        capture = ThirdPartyCapture(sink, [lambda a, r: a == "alice"])
        with pytest.raises(AccessDenied):
            capture.request("eve", "res", generic_record(2))
        assert not database.contains("g2")
        assert capture.metrics.records_rejected == 1

    def test_decentralized_quorum(self, sink, database):
        # Three authenticators, two required; one of them rejects alice.
        auths = [lambda a, r: True, lambda a, r: False, lambda a, r: True]
        capture = ThirdPartyCapture(sink, auths, quorum=2)
        capture.request("alice", "res", generic_record(3))
        assert database.contains("g3")

    def test_decentralized_quorum_not_met(self, sink):
        auths = [lambda a, r: False, lambda a, r: False, lambda a, r: True]
        capture = ThirdPartyCapture(sink, auths, quorum=2)
        with pytest.raises(AccessDenied):
            capture.request("alice", "res", generic_record(4))

    def test_more_authenticators_more_messages(self, sink):
        one = ThirdPartyCapture(sink, [lambda a, r: True])
        five = ThirdPartyCapture(sink, [lambda a, r: True] * 5)
        one.request("a", "r", generic_record(10))
        five.request("a", "r", generic_record(11))
        assert five.metrics.messages > one.metrics.messages

    def test_quorum_bounds_validated(self, sink):
        with pytest.raises(CaptureError):
            ThirdPartyCapture(sink, [lambda a, r: True], quorum=5)


class TestMultiSourceCapture:
    def test_merges_at_required_sources(self, sink, database):
        capture = MultiSourceCapture(sink, required_sources=3)
        assert capture.report("s1", "m", {"subject": "x"}) is None
        assert capture.report("s2", "m", {"actor": "a"}) is None
        merged = capture.report("s3", "m", {"operation": "op",
                                            "timestamp": 1,
                                            "domain": "generic"})
        assert merged is not None
        assert database.contains("m")

    def test_same_source_does_not_double_count(self, sink):
        capture = MultiSourceCapture(sink, required_sources=2)
        capture.report("s1", "m", {"subject": "x"})
        assert capture.report("s1", "m", {"actor": "a"}) is None
        assert capture.pending_count == 1

    def test_conflicting_fragments_fail_loudly(self, sink):
        capture = MultiSourceCapture(sink, required_sources=2)
        capture.report("s1", "m", {"subject": "x"})
        with pytest.raises(CaptureError):
            capture.report("s2", "m", {"subject": "CONTRADICTION"})
        assert capture.pending_count == 0
        assert capture.metrics.records_rejected == 1


class TestAnchorService:
    def test_auto_flush_at_batch_size(self, chain, database):
        service = AnchorService(chain, batch_size=3)
        sink = CaptureSink(database, service)
        receipts = [sink.deliver(generic_record(i)) for i in range(7)]
        assert chain.height == 2          # two full batches anchored
        assert service.pending_count == 1

    def test_explicit_flush(self, chain, database):
        service = AnchorService(chain, batch_size=100)
        sink = CaptureSink(database, service)
        sink.deliver(generic_record(1))
        receipt = service.flush()
        assert receipt is not None and receipt.record_count == 1
        assert service.flush() is None    # nothing pending

    def test_prove_and_verify(self, chain, database):
        service = AnchorService(chain, batch_size=4)
        sink = CaptureSink(database, service)
        for i in range(4):
            sink.deliver(generic_record(i))
        proof = service.prove("g2")
        assert service.verify(database.get("g2"), proof)

    # Forged records and spliced heights: rows of the tamper matrix in
    # tests/test_anchoring.py ("flipped leaf byte", "claimed height of
    # another block"), checked there against every verifier at once.

    def test_duplicate_anchor_rejected(self, chain):
        service = AnchorService(chain, batch_size=10)
        service.enqueue(generic_record(1))
        with pytest.raises(AnchorError):
            service.enqueue(generic_record(1))

    def test_unanchored_proof_request(self, chain):
        service = AnchorService(chain, batch_size=10)
        with pytest.raises(AnchorError):
            service.prove("nothing")

    def test_inline_mode_stores_records_on_chain(self, chain, database):
        service = AnchorService(chain, batch_size=2, mode="inline")
        sink = CaptureSink(database, service)
        sink.deliver(generic_record(0))
        sink.deliver(generic_record(1))
        payload = chain.head.transactions[0].payload
        assert payload["mode"] == "inline"
        assert len(payload["records"]) == 2

    def test_inline_costs_more_bytes_than_batched(self, database):
        from repro.chain import Blockchain, ChainParams

        big = {"notes": "x" * 500}
        inline_chain = Blockchain(ChainParams(chain_id="in"))
        inline = AnchorService(inline_chain, batch_size=4, mode="inline")
        batched_chain = Blockchain(ChainParams(chain_id="ba"))
        batched = AnchorService(batched_chain, batch_size=4)
        for i in range(4):
            inline.enqueue(dict(generic_record(i), **big))
            batched.enqueue(dict(generic_record(i), **big))
        assert inline.bytes_on_chain > 4 * batched.bytes_on_chain


class TestQueryEngine:
    def _loaded_engine(self, chain, database, n=20):
        service = AnchorService(chain, batch_size=5)
        sink = CaptureSink(database, service)
        for i in range(n):
            sink.deliver(generic_record(i, subject=f"s{i % 4}",
                                        actor=f"u{i % 2}"))
        service.flush()
        return ProvenanceQueryEngine(database, service, cache=QueryCache())

    def test_history_sorted_by_time(self, chain, database):
        engine = self._loaded_engine(chain, database)
        history = engine.history("s1")
        timestamps = [r["timestamp"] for r in history]
        assert timestamps == sorted(timestamps)

    def test_verified_history(self, chain, database):
        engine = self._loaded_engine(chain, database)
        answer = engine.history_verified("s2")
        assert answer.verified
        assert len(answer.records) == 5
        assert all(p is not None for p in answer.proofs)

    def test_unanchored_records_flagged(self, chain, database):
        service = AnchorService(chain, batch_size=100)   # never auto-flush
        sink = CaptureSink(database, service)
        sink.deliver(generic_record(1))
        engine = ProvenanceQueryEngine(database, service)
        answer = engine.history_verified("file")
        assert not answer.verified
        assert answer.unanchored == ("g1",)

    def test_verified_needs_anchor_service(self, database):
        engine = ProvenanceQueryEngine(database)
        with pytest.raises(QueryError):
            engine.point_verified("x")

    def test_cache_hit_on_repeat(self, chain, database):
        engine = self._loaded_engine(chain, database)
        engine.history("s1")
        engine.history("s1")
        engine.history("s1")
        assert engine.stats.cache_hits == 2
        assert engine.stats.cache_misses == 1

    def test_write_invalidates_cache(self, chain, database):
        engine = self._loaded_engine(chain, database)
        engine.history("s1")
        engine.notify_write()
        engine.history("s1")
        assert engine.stats.cache_misses == 2

    def test_cache_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.get(("a",))
        cache.put(("c",), 3)     # evicts ("b",), the least recent
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1

    def test_time_range_query(self, chain, database):
        engine = self._loaded_engine(chain, database)
        rows = engine.time_range(5, 10)
        assert all(5 <= r["timestamp"] < 10 for r in rows)
        assert len(rows) == 5
