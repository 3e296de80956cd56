"""Admission lives at the shard's edge.

Counted guards: every transaction that enters a shard mempool passes
``Shard.admit`` (only the re-admission of popped transactions —
``pop_round_blocks``' lock hold-back and ``append_popped``'s unwind —
goes straight back), and every record is checked once and encoded once
per door: ``ShardedChain.ingest_records`` of N records makes N record
checks and N encodes on memory and on durable storage, and one
``CaptureSink.deliver`` makes one of each.  Plus the admission clock:
a pipeline-driven round counts its admission time into the shard's
round, like a synchronous ``submit_many`` does.
"""

from __future__ import annotations

import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain, ChainParams, Mempool, Transaction, TxKind
from repro.errors import InvalidTransaction, QueueFull, ShardError
from repro.ingest import IngestPipeline
from repro.persist import CrashPoint, DurableStorage, MemoryStorage, codec
from repro.persist.provdb import ProvenanceDatabase
from repro.provenance import anchor as anchor_mod
from repro.provenance.anchor import AnchorService
from repro.provenance.capture import CaptureSink
from repro.sharding import CrossShardCoordinator, ShardedChain
from repro.sharding.shardchain import Shard


def data_tx(i: int, subject: str = "t0/obj", fee: int = 0) -> Transaction:
    return Transaction(
        sender="alice", kind=TxKind.DATA,
        payload={"subject": subject, "key": f"k{i}", "value": i},
        timestamp=i, fee=fee,
    ).seal()


def record_for(i: int) -> dict:
    return {"record_id": f"r{i}", "subject": f"t{i % 5}/obj",
            "actor": "alice", "operation": "update", "timestamp": i}


def other_shard_subjects(sharded: ShardedChain) -> tuple[str, str]:
    """Two subjects whose namespaces live on different shards."""
    first = "tenant-a/lot-1"
    home = sharded.router.shard_for("tenant-a")
    other = next(f"tenant-{c}" for c in "bcdefgh"
                 if sharded.router.shard_for(f"tenant-{c}") != home)
    return first, f"{other}/lot-1"


# ---------------------------------------------------------------------------
# Records: one check and one encode per record per door
# ---------------------------------------------------------------------------
@pytest.fixture
def record_counts(monkeypatch):
    """Count every ``check_record`` and ``encode_record`` call, wherever
    the function was imported, and every anchor digest computed without
    the record's bytes (which would be a second encode)."""
    counts = {"check": 0, "encode": 0, "digest_encodes": 0}
    real_check, real_encode = codec.check_record, codec.encode_record
    real_digest = anchor_mod.record_digest

    def check_record(record):
        counts["check"] += 1
        return real_check(record)

    def encode_record(record):
        counts["encode"] += 1
        return real_encode(record)

    def record_digest(record, encoded=None):
        counts["digest_encodes"] += encoded is None
        return real_digest(record, encoded)

    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        if getattr(module, "check_record", None) is real_check:
            monkeypatch.setattr(module, "check_record", check_record)
        if getattr(module, "encode_record", None) is real_encode:
            monkeypatch.setattr(module, "encode_record", encode_record)
    monkeypatch.setattr(anchor_mod, "record_digest", record_digest)
    return counts


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_ingest_records_checks_and_encodes_each_record_once(
        record_counts, tmp_path, durable):
    sharded = ShardedChain(3, anchor_batch_size=8,
                           storage_dir=str(tmp_path) if durable else None)
    records = [record_for(i) for i in range(40)]
    record_counts.update(check=0, encode=0)
    flushed = sharded.ingest_records(records)
    assert record_counts == {"check": 40, "encode": 40, "digest_encodes": 0}
    assert sum(len(s.database) for s in sharded.shards) == 40
    assert sum(map(len, flushed.values())) >= 1
    sharded.close()


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_deliver_checks_and_encodes_once(record_counts, tmp_path, durable):
    storage = DurableStorage(str(tmp_path)) if durable else MemoryStorage()
    chain = Blockchain(ChainParams(chain_id="capture"), store=storage.blocks)
    sink = CaptureSink(ProvenanceDatabase(storage.records),
                       AnchorService(chain, batch_size=4))
    record = record_for(1)
    delivered = sink.deliver(record)
    assert record_counts == {"check": 1, "encode": 1, "digest_encodes": 0}
    assert delivered == record and delivered is not record
    assert sink.anchor_service.pending_count == 1
    storage.close()


# ---------------------------------------------------------------------------
# Transactions: every mempool insertion passes Shard.admit
# ---------------------------------------------------------------------------
@pytest.fixture
def insertions(monkeypatch):
    """Record who called ``Mempool.add`` on a shard mempool (and who
    called ``add_many`` when that was the caller), and which door called
    ``Shard.admit``."""
    seen = {"add": [], "admit": []}
    real_add, real_admit = Mempool.add, Shard.admit

    def add(self, tx):
        caller = sys._getframe(1)
        names = [caller.f_code.co_name]
        if names[0] in ("add_many", "<genexpr>"):
            frame = caller
            while frame.f_code.co_name != "add_many":
                frame = frame.f_back
            names = ["add_many", frame.f_back.f_code.co_name]
        seen["add"].append((self, tuple(names)))
        return real_add(self, tx)

    def admit(self, txs):
        seen["admit"].append(sys._getframe(1).f_code.co_name)
        return real_admit(self, txs)

    monkeypatch.setattr(Mempool, "add", add)
    monkeypatch.setattr(Shard, "admit", admit)
    return seen


def test_every_mempool_insertion_passes_the_edge(insertions, tmp_path):
    sharded = ShardedChain(4, max_block_txs=8,
                           storage_dir=str(tmp_path / "edge"))
    pipe = IngestPipeline(sharded, queue_capacity=256)
    coordinator = CrossShardCoordinator(sharded, timeout_rounds=50)
    source, target = other_shard_subjects(sharded)
    home = sharded.router.shard_for(source.split("/")[0])

    # Every door: submit, submit_many, the pipeline's pump and the 2PC
    # legs (submit_to).
    sharded.submit(data_tx(0, subject="t1/obj"))
    sharded.submit_many([data_tx(i, subject=f"t{i % 5}/obj")
                         for i in range(1, 30)])
    pipe.submit_many([data_tx(i, subject=f"t{i % 5}/obj")
                      for i in range(30, 60)])
    # A transaction admitted before its subject is locked is held back
    # at pop time and re-admitted (pop_round_blocks' own path).
    sharded.submit(data_tx(60, subject=source))
    transfer = coordinator.begin(source, target)
    pipe.seal_round()
    # A failed seal unwinds its popped blocks back into the mempool
    # (append_popped's own path).
    sharded.submit_many([data_tx(i, subject=source.replace("lot-1", "x"))
                         for i in range(61, 65)])
    sharded.shard(home).storage.block_log.fail_after_bytes = 7
    with pytest.raises(CrashPoint):
        sharded.seal_round(shard_ids=[home])
    sharded.shard(home).storage.block_log.fail_after_bytes = None
    while transfer.state not in ("committed", "aborted"):
        pipe.seal_round()
    pipe.run_until_drained()

    shard_pools = {id(s.mempool) for s in sharded.shards}
    callers = {names for pool, names in insertions["add"]
               if id(pool) in shard_pools}
    assert callers == {("admit",), ("add_many", "pop_round_blocks"),
                       ("add_many", "append_popped")}
    assert set(insertions["admit"]) == {"_submit_one", "submit_many",
                                        "pump"}
    sharded.crash()


# ---------------------------------------------------------------------------
# Every door keeps its own policy for what the edge refuses
# ---------------------------------------------------------------------------
def test_single_doors_raise_what_admission_refused():
    sharded = ShardedChain(2)
    coordinator = CrossShardCoordinator(sharded, timeout_rounds=50)
    source, target = other_shard_subjects(sharded)
    coordinator.begin(source, target)
    home = sharded.router.shard_for(source.split("/")[0])
    with pytest.raises(ShardError) as caught:
        sharded.submit(data_tx(1, subject=source))
    assert caught.value.reason == "lock_conflict"
    with pytest.raises(ShardError) as caught:
        sharded.submit_to(home, data_tx(2, subject=source))
    assert caught.value.reason == "lock_conflict"
    bad = Transaction("alice", TxKind.DATA, {"subject": "t0/obj"},
                      fee=-1).seal()
    with pytest.raises(InvalidTransaction) as caught:
        sharded.submit(bad)
    assert not isinstance(caught.value, QueueFull)
    shard = sharded.shard(sharded.router.route(bad))
    shard.mempool.capacity = len(shard.mempool)
    with pytest.raises(QueueFull) as caught:
        sharded.submit(data_tx(3))
    assert caught.value.shard_id == shard.shard_id
    assert caught.value.retry_after_s > 0


def test_submit_many_raises_after_admitting_what_came_before():
    sharded = ShardedChain(1)
    good = [data_tx(i) for i in range(3)]
    bad = Transaction("alice", TxKind.DATA, {"subject": "t0/obj"},
                      fee=-1).seal()
    with pytest.raises(InvalidTransaction):
        sharded.submit_many(good[:2] + [bad] + good[2:])
    assert sharded.shard(0).backlog == 2
    assert [tx.tx_id for tx in sharded.shard(0).mempool.pop_batch(10)] \
        == [tx.tx_id for tx in good[:2]]


# ---------------------------------------------------------------------------
# A mistyped field is an InvalidTransaction, never a bare TypeError
# ---------------------------------------------------------------------------
INT_FIELDS = ("fee", "nonce", "timestamp")
NOT_AN_INT = st.one_of(st.text(max_size=3), st.binary(max_size=3),
                       st.floats(allow_nan=False), st.booleans(), st.none(),
                       st.integers(max_value=-1))
MISTYPED = st.one_of(
    st.tuples(st.just("sender"),
              st.one_of(st.just(""), st.integers(), st.binary(max_size=3),
                        st.none())),
    st.tuples(st.sampled_from(INT_FIELDS), NOT_AN_INT),
)


def mistyped_tx(field: str, value, i: int = 0) -> Transaction:
    fields = {"sender": "alice", "kind": TxKind.DATA,
              "payload": {"subject": "t0/obj", "key": f"k{i}", "value": i},
              "timestamp": i, field: value}
    return Transaction(**fields)


@settings(max_examples=60, deadline=None)
@given(MISTYPED, st.booleans())
def test_pipeline_quarantines_a_mistyped_field(mistyped, sealed):
    # The payload is not mistyped here: the router reads it at submit,
    # before any validation (and a sealed one is already a mapping).
    tx = mistyped_tx(*mistyped)
    pipe = IngestPipeline(ShardedChain(1))
    pipe.submit(tx.seal() if sealed else tx)
    pipe.pump()
    assert pipe.stats.invalid == 1
    assert len(pipe.sharded.shard(0).mempool) == 0


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    MISTYPED,
    st.tuples(st.just("payload"),
              st.lists(st.tuples(st.text(max_size=3), st.integers()),
                       max_size=2)),
))
def test_append_blocks_refuses_a_mistyped_field(mistyped):
    chain = Blockchain()
    block = chain.build_block([mistyped_tx(*mistyped)])
    with pytest.raises(InvalidTransaction):
        chain.append_blocks([block])
    assert chain.height == 0


# ---------------------------------------------------------------------------
# The admission clock counts on every door
# ---------------------------------------------------------------------------
SLOW_S = 0.05


def test_pipeline_round_counts_its_admission(monkeypatch):
    """A deliberately slow admission on the pipeline path shows up in
    the shard's round time, as it does on the synchronous path."""
    slow = {"on": False}
    real_validate, real_pump = Transaction.validate, IngestPipeline.pump

    def validate(self, *args, **kwargs):
        if slow["on"]:
            time.sleep(SLOW_S)
        return real_validate(self, *args, **kwargs)

    def pump(self):
        slow["on"] = True
        try:
            return real_pump(self)
        finally:
            slow["on"] = False

    monkeypatch.setattr(Transaction, "validate", validate)
    monkeypatch.setattr(IngestPipeline, "pump", pump)
    sharded = ShardedChain(1)
    pipe = IngestPipeline(sharded)
    pipe.submit(data_tx(0))
    report = pipe.seal_round()
    assert report.txs_sealed == 1
    assert report.per_shard[0].duration_s >= SLOW_S
    assert report.critical_path_s >= SLOW_S
    assert sharded.shard(0).pending_ingest_s == 0.0
