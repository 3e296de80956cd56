"""Off-chain storage: CAS, cloud store, provenance database."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AccessDenied, ObjectNotFound, RecordValidationError, UnknownEntity,
)
from repro.storage import CloudObjectStore, ContentAddressedStore, ProvenanceDatabase


class TestCAS:
    def test_roundtrip_small(self):
        cas = ContentAddressedStore()
        cid = cas.put(b"hello")
        assert cas.get(cid) == b"hello"

    def test_roundtrip_chunked(self):
        cas = ContentAddressedStore(chunk_size=16)
        blob = bytes(range(256)) * 4
        cid = cas.put(blob)
        assert cid.kind == "manifest"
        assert cas.get(cid) == blob

    def test_content_addressing_same_content_same_cid(self):
        cas = ContentAddressedStore()
        assert cas.put(b"x").digest == cas.put(b"x").digest

    def test_chunk_dedup(self):
        cas = ContentAddressedStore(chunk_size=8)
        cas.put(b"AAAAAAAA" * 10)      # 10 identical chunks
        assert cas.dedup_hits >= 9

    def test_missing_object(self):
        cas = ContentAddressedStore()
        cid = cas.put(b"x")
        empty = ContentAddressedStore()
        with pytest.raises(ObjectNotFound):
            empty.get(cid)

    def test_gc_keeps_pinned(self):
        cas = ContentAddressedStore(chunk_size=8)
        keep = cas.put(b"keep me around please!", pin=True)
        drop = cas.put(b"drop me entirely now!!", pin=False)
        removed = cas.collect_garbage()
        assert removed > 0
        assert cas.has(keep)
        assert not cas.has(drop)
        assert cas.get(keep) == b"keep me around please!"

    def test_unpin_then_gc(self):
        cas = ContentAddressedStore()
        cid = cas.put(b"data")
        cas.unpin(cid)
        cas.collect_garbage()
        assert not cas.has(cid)

    @settings(max_examples=30)
    @given(st.binary(min_size=0, max_size=5000))
    def test_property_roundtrip(self, blob):
        cas = ContentAddressedStore(chunk_size=64)
        cid = cas.put(blob)
        assert cas.get(cid) == blob

    # -- empty / boundary-size regression suite (ISSUE 3 satellite) ----
    def test_empty_blob_full_lifecycle(self):
        """``put(b"")`` must behave like any other blob: retrievable,
        pinned, and GC-safe — the falsy payload must never be confused
        with "missing"."""
        cas = ContentAddressedStore(chunk_size=8)
        cid = cas.put(b"")
        assert cid.kind == "raw"
        assert cas.has(cid)
        assert cas.get(cid) == b""
        # Pinned by default: survives garbage collection.
        cas.collect_garbage()
        assert cas.get(cid) == b""
        # Dedup works for the empty blob too.
        again = cas.put(b"")
        assert again.digest == cid.digest
        assert cas.dedup_hits == 1
        # Unpinned, it is collected like anything else.
        cas.unpin(cid)
        assert cas.collect_garbage() == 1
        assert not cas.has(cid)

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 15, 16, 17])
    def test_boundary_sizes_roundtrip(self, size):
        """Empty, 1-byte, and every chunk-boundary neighbour round-trip
        (chunk_size=8: raw at <=8, manifest above)."""
        cas = ContentAddressedStore(chunk_size=8)
        blob = bytes(range(size))
        cid = cas.put(blob)
        assert cid.kind == ("raw" if size <= 8 else "manifest")
        assert cas.get(cid) == blob
        cas.collect_garbage()
        assert cas.get(cid) == blob

    def test_corrupted_manifest_chunk_detected(self):
        """Latent-bug regression: multi-chunk ``get`` must integrity-check
        every chunk the way the single-chunk path always did, instead of
        silently returning corrupted bytes."""
        from repro.errors import StorageError

        cas = ContentAddressedStore(chunk_size=4)
        blob = b"0123456789abcdef"
        cid = cas.put(blob)
        assert cid.kind == "manifest"
        victim = cas._manifests[cid.digest][1]
        cas._blobs[victim] = b"EVIL"
        with pytest.raises(StorageError):
            cas.get(cid)
        # The raw path keeps raising as before.
        raw = cas.put(b"tiny")
        cas._blobs[raw.digest] = b"BAD!"
        with pytest.raises(StorageError):
            cas.get(raw)


class TestCloudStore:
    def test_create_read_update_versions(self, clock):
        store = CloudObjectStore(clock)
        store.create("alice", "f", b"v0")
        store.update("alice", "f", b"v1")
        latest, _ = store.read("alice", "f")
        assert latest == b"v1"
        old, _ = store.read("alice", "f", version=0)
        assert old == b"v0"

    def test_ops_observed_in_order(self, clock):
        store = CloudObjectStore(clock)
        seen = []
        store.add_observer(lambda op: seen.append(op.op))
        store.create("alice", "f", b"x")
        store.read("alice", "f")
        store.update("alice", "f", b"y")
        store.share("alice", "f", "bob")
        assert seen == ["create", "read", "update", "share"]

    def test_unshared_read_denied(self, clock):
        store = CloudObjectStore(clock)
        store.create("alice", "f", b"x")
        with pytest.raises(AccessDenied):
            store.read("bob", "f")

    def test_share_grants_read_and_update(self, clock):
        store = CloudObjectStore(clock)
        store.create("alice", "f", b"x")
        store.share("alice", "f", "bob")
        content, _ = store.read("bob", "f")
        assert content == b"x"
        op = store.update("bob", "f", b"y")
        assert (op.user, op.version) == ("bob", 1)
        assert store.read("alice", "f")[0] == b"y"

    def test_only_owner_shares(self, clock):
        store = CloudObjectStore(clock)
        store.create("alice", "f", b"x")
        store.share("alice", "f", "bob")
        with pytest.raises(AccessDenied):
            store.share("bob", "f", "carol")
        with pytest.raises(AccessDenied):
            store.read("carol", "f")

    def test_missing_object_and_version(self, clock):
        store = CloudObjectStore(clock)
        store.create("alice", "f", b"x")
        with pytest.raises(ObjectNotFound):
            store.read("alice", "g")
        with pytest.raises(ObjectNotFound):
            store.read("alice", "f", version=1)
        with pytest.raises(ObjectNotFound):
            store.update("alice", "g", b"y")

    def test_duplicate_create_rejected(self, clock):
        store = CloudObjectStore(clock)
        store.create("alice", "f", b"x")
        with pytest.raises(AccessDenied):
            store.create("bob", "f", b"y")

    def test_operations_carry_ids_times_and_hashes(self, clock):
        store = CloudObjectStore(clock)
        first = store.create("alice", "f", b"x")
        clock.advance(7)
        _, read = store.read("alice", "f")
        shared = store.share("alice", "f", "bob")
        assert [first.op_id, read.op_id, shared.op_id] == [0, 1, 2]
        assert (first.timestamp, read.timestamp) == (0, 7)
        assert first.content_hash == read.content_hash != b""
        assert shared.content_hash == b""
        assert first.details == {"size": 1}
        assert shared.details == {"with_user": "bob"}


class TestProvenanceDatabase:
    def _record(self, i, subject="s", actor="a", op="read", ts=None):
        return {
            "record_id": f"r{i}",
            "subject": subject,
            "actor": actor,
            "operation": op,
            "timestamp": ts if ts is not None else i,
        }

    def test_insert_and_get(self, database):
        database.insert(self._record(1))
        assert database.get("r1")["subject"] == "s"

    def test_duplicate_id_rejected(self, database):
        database.insert(self._record(1))
        with pytest.raises(RecordValidationError):
            database.insert(self._record(1))

    def test_missing_record(self, database):
        with pytest.raises(UnknownEntity):
            database.get("nope")

    def test_subject_index_matches_scan(self, database):
        for i in range(30):
            database.insert(self._record(i, subject=f"s{i % 3}"))
        indexed = database.by_subject("s1")
        scanned = database.scan_subject("s1")
        assert sorted(r["record_id"] for r in indexed) == \
            sorted(r["record_id"] for r in scanned)
        assert len(indexed) == 10

    def test_time_range_query(self, database):
        for i in range(20):
            database.insert(self._record(i, ts=i * 10))
        rows = database.by_time_range(50, 100)
        assert [r["timestamp"] for r in rows] == [50, 60, 70, 80, 90]

    def test_actor_and_operation_indexes(self, database):
        database.insert(self._record(1, actor="alice", op="write"))
        database.insert(self._record(2, actor="bob", op="read"))
        assert len(database.by_actor("alice")) == 1
        assert len(database.by_operation("read")) == 1

    def test_record_without_id_rejected(self, database):
        with pytest.raises(RecordValidationError):
            database.insert({"subject": "x"})

    def test_returned_records_are_copies(self, database):
        database.insert(self._record(1))
        fetched = database.get("r1")
        fetched["subject"] = "mutated"
        assert database.get("r1")["subject"] == "s"

    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 100)),
                    min_size=1, max_size=40))
    def test_property_time_range_equals_filter(self, items):
        database = ProvenanceDatabase()
        for i, (subj, ts) in enumerate(items):
            database.insert(self._record(i, subject=f"s{subj}", ts=ts))
        lo, hi = 20, 80
        via_index = {r["record_id"] for r in database.by_time_range(lo, hi)}
        via_scan = {
            r["record_id"]
            for r in database.scan(lambda r: lo <= r["timestamp"] < hi)
        }
        assert via_index == via_scan
