"""One record rule, at every door.

A provenance record is checked by one rule
(:func:`repro.persist.codec.check_record`) before any door stores it:
the sharded facade's ``ingest_records``, ``ProvenanceDatabase.
insert_many``, the capture sink and sync's image install.  Each door
refuses a malformed record with the one typed error (sync wraps it as
``SyncError(reason="forged_record")``) and writes nothing — no record,
no log byte, no index entry — so the corrected record commits on retry.
A store that already holds such a record (an older binary wrote it)
still reopens.
"""

from __future__ import annotations

import os
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import RecordValidationError, SyncError
from repro.network import ChainNode, LatencyModel, SimNet
from repro.persist import DurableStorage, MemoryStorage, ProvenanceDatabase
from repro.persist.codec import encode_record
from repro.provenance.capture import CaptureSink
from repro.sharding import ShardedChain
from repro.sync import SnapshotServer

VALID = {"record_id": "fresh", "subject": "org0/asset", "domain": "generic",
         "actor": "alice", "operation": "create", "timestamp": 7}
STORED = dict(VALID, record_id="held", timestamp=3)
STR_FIELDS = ("record_id", "subject", "domain", "actor", "operation")
NOT_STR = (None, True, 0, 7, 1.5, b"x", ["x"], {"k": "v"})


def bad_records():
    """Each required field dropped, each core field mistyped, and a
    duplicate of the record every door already holds."""
    dropped = st.sampled_from(("record_id", "subject")).map(
        lambda name: {k: v for k, v in VALID.items() if k != name})
    bad_str = st.tuples(st.sampled_from(STR_FIELDS),
                        st.sampled_from(("", *NOT_STR))).map(
        lambda pair: dict(VALID, **{pair[0]: pair[1]}))
    bad_time = st.one_of(
        st.booleans(), st.integers(max_value=-1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(("yesterday", "7", None, b"7", [7])),
    ).map(lambda ts: dict(VALID, timestamp=ts))
    duplicate = st.just(dict(VALID, record_id=STORED["record_id"]))
    return st.one_of(dropped, bad_str, bad_time, duplicate)


def _database_state(database: ProvenanceDatabase) -> tuple:
    return (len(database), dict(database._by_id),
            *({k: list(v) for k, v in index.items()} for index in (
                database._by_subject, database._by_actor,
                database._by_operation)),
            list(database._by_time))


def _log_bytes(storage) -> bytes | None:
    if not isinstance(storage, DurableStorage):
        return None
    log = os.path.join(storage.directory, "records-log")
    chunks = []
    for name in sorted(os.listdir(log)):
        with open(os.path.join(log, name), "rb") as fh:
            chunks.append(fh.read())
    return b"".join(chunks)


class DatabaseDoor:
    """``ProvenanceDatabase.insert_many``."""

    error = RecordValidationError

    def __init__(self, directory: str | None) -> None:
        self.storage = MemoryStorage() if directory is None \
            else DurableStorage(directory)
        self.database = ProvenanceDatabase(self.storage.records)
        self.database.insert(STORED)

    def admit(self, record) -> None:
        self.database.insert_many([record])

    def state(self) -> tuple:
        return _database_state(self.database), _log_bytes(self.storage)

    def holds(self, record_id: str) -> bool:
        return self.database.contains(record_id)

    def close(self) -> None:
        self.storage.close()


class CaptureDoor(DatabaseDoor):
    """``CaptureSink.deliver``."""

    def __init__(self, directory: str | None) -> None:
        super().__init__(directory)
        self.sink = CaptureSink(self.database)

    def admit(self, record) -> None:
        self.sink.deliver(record)


class IngestDoor:
    """``ShardedChain.ingest_records``."""

    error = RecordValidationError

    def __init__(self, directory: str | None) -> None:
        self.sharded = ShardedChain(2, storage_dir=directory)
        self.sharded.ingest_records([STORED])

    def admit(self, record) -> None:
        self.sharded.ingest_records([record])

    def state(self) -> tuple:
        return tuple((_database_state(s.database), s.anchor.pending_count,
                      _log_bytes(s.storage)) for s in self.sharded.shards)

    def holds(self, record_id: str) -> bool:
        return any(s.database.contains(record_id)
                   for s in self.sharded.shards)

    def close(self) -> None:
        self.sharded.close()


class ImageServer(SnapshotServer):
    """An honest server whose image carries one more record, past every
    anchored one: the source's pending tail, as the peer claims it."""

    def __init__(self, sharded, extra: dict) -> None:
        super().__init__(sharded)
        self.extra = extra

    def _image_for(self, shard, height, head_hash, state_root):
        records = [*shard.database.records(), self.extra]
        shard = SimpleNamespace(
            shard_id=shard.shard_id, chain=shard.chain,
            database=SimpleNamespace(records=lambda: records))
        return super()._image_for(shard, height, head_hash, state_root)


class SyncSources:
    """One single-shard source per storage kind, built on first use, its
    records anchored (``STORED`` among them) and its head
    beacon-committed."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.built: dict[bool, ShardedChain] = {}

    def get(self, durable: bool) -> ShardedChain:
        if durable not in self.built:
            sharded = ShardedChain(
                1, anchor_batch_size=4,
                storage_dir=os.path.join(self.root, "source")
                if durable else None)
            sharded.ingest_records([STORED, *(
                dict(VALID, record_id=f"src{i}", timestamp=i)
                for i in range(7))])
            sharded.flush_anchors()
            sharded.seal_round()
            self.built[durable] = sharded
        return self.built[durable]

    def close(self) -> None:
        for sharded in self.built.values():
            sharded.close()


class SyncDoor:
    """Sync's image install, into a durable replica of the source."""

    error = SyncError

    def __init__(self, directory: str, source: ShardedChain) -> None:
        self.directory = directory
        self.source = source
        self.attempts = 0

    def admit(self, record) -> None:
        self.attempts += 1
        net = SimNet(latency=LatencyModel(base=2, jitter=1), seed=7)
        ChainNode("gateway", net).serve_sync(ImageServer(self.source, record))
        replica = self.source.spawn_replica(
            0, self.directory, net, node_id=f"rep{self.attempts}",
            peers=["gateway"])
        try:
            replica.catch_up()
        finally:
            replica.close()

    def _open(self):
        storage = DurableStorage(self.directory)
        return storage, ProvenanceDatabase(storage.records)

    def state(self) -> tuple:
        storage, database = self._open()
        try:
            return _database_state(database), _log_bytes(storage) or b""
        finally:
            storage.close()

    def holds(self, record_id: str) -> bool:
        storage, database = self._open()
        try:
            return database.contains(record_id)
        finally:
            storage.close()

    def close(self) -> None:
        pass


DOORS = {"ingest_records": IngestDoor, "insert_many": DatabaseDoor,
         "deliver": CaptureDoor, "sync": SyncDoor}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return str(tmp_path_factory.mktemp("record-rule"))


@pytest.fixture(scope="module")
def sources(scratch):
    built = SyncSources(scratch)
    yield built
    built.close()


class TestDoorMatrix:
    @pytest.mark.parametrize("durable", [False, True],
                             ids=["memory", "durable"])
    @pytest.mark.parametrize("door_name", list(DOORS))
    @settings(max_examples=15, deadline=None)
    @given(record=bad_records())
    @example(record=dict(VALID, timestamp="yesterday"))
    @example(record={k: v for k, v in VALID.items() if k != "record_id"})
    @example(record={k: v for k, v in VALID.items() if k != "subject"})
    @example(record=dict(VALID, record_id=5))
    @example(record=dict(VALID, actor=""))
    @example(record=dict(VALID, timestamp=True))
    @example(record=dict(VALID, timestamp=-1))
    @example(record=dict(VALID, timestamp=1.5))
    @example(record=dict(VALID, record_id=STORED["record_id"]))
    def test_bad_record_refused_before_any_write(self, scratch, sources,
                                                 door_name, durable, record):
        directory = tempfile.mkdtemp(dir=scratch)
        if door_name == "sync":
            door = SyncDoor(directory, sources.get(durable))
        else:
            door = DOORS[door_name](directory if durable else None)
        try:
            before = door.state()
            with pytest.raises(door.error) as refused:
                door.admit(record)
            if door_name == "sync":
                assert refused.value.reason == "forged_record"
            assert door.state() == before
            # Nothing was half-written: the corrected record commits.
            door.admit(VALID)
            assert door.holds(VALID["record_id"])
        finally:
            door.close()


def test_durable_reopen_leaves_a_mistyped_value_out(tmp_path):
    """A record an older binary stored below the door — a string
    timestamp — neither stops the node from reopening nor reaches the
    time index; it is still read back whole."""
    store = str(tmp_path / "node")
    sharded = ShardedChain(2, storage_dir=store)
    sharded.ingest_records([STORED])
    shard = sharded.shard_for_subject("s1")
    mistyped = {"record_id": "r1", "subject": "s1", "timestamp": "yesterday"}
    shard.storage.records.append_many([mistyped], [encode_record(mistyped)])
    sharded.close()

    reopened = ShardedChain(2, storage_dir=store)
    try:
        database = reopened.shard_for_subject("s1").database
        assert database.get("r1")["timestamp"] == "yesterday"
        assert [r["record_id"] for r in database.by_subject("s1")] == ["r1"]
        assert "r1" not in {r["record_id"]
                            for r in database.by_time_range(0, 2 ** 62)}
        held = reopened.shard_for_subject(STORED["subject"]).database
        assert [r["record_id"] for r in held.by_time_range(0, 10)] \
            == ["held"]
    finally:
        reopened.close()
