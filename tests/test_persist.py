"""Durable storage: codec, segment log, crash recovery, backend
equivalence, truncation (sync's unwind), and whole-deployment restarts.

The crash suite simulates ``kill -9`` two ways: the segment log's
fault-injection hook (stops a frame write after N bytes) and literal
``os.truncate`` of the tail segment at every byte position.  In both
cases the store must reopen to the last *committed* entry and the chain
must verify end to end.
"""

from __future__ import annotations

import gc
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chain import Blockchain, ChainParams, Transaction, TxKind
from repro.errors import SerializationError, StorageError
from repro.persist import (
    CrashPoint,
    DurableStorage,
    MemoryBlockStore,
    SegmentLog,
    canonical_decode,
    decode_block,
    encode_block,
)
from repro.persist.codec import decode_record, encode_record
from repro.persist.durable import clear_state_rows
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain, ShardedQueryEngine

from .conftest import parent_checkpoint



def data_tx(i: int, sender: str = "alice", fee: int = 0) -> Transaction:
    return Transaction(sender=sender, kind=TxKind.DATA,
                       payload={"key": f"k{i}", "value": i}, fee=fee)


def grow_chain(chain: Blockchain, blocks: int, txs_per_block: int = 3,
               tag: str = "") -> None:
    for b in range(blocks):
        height = chain.height + 1
        txs = [
            Transaction("alice", TxKind.DATA,
                        {"key": f"{tag}b{height}t{j}", "value": j}).seal()
            for j in range(txs_per_block)
        ]
        chain.append_block(chain.build_block(txs, timestamp=height))


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------
canonical_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
canonical_values = st.recursive(
    canonical_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=10), inner, max_size=5),
    ),
    max_leaves=20,
)


class TestCodec:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(canonical_values)
    def test_decode_inverts_encode(self, value):
        encoded = canonical_encode(value)
        decoded = canonical_decode(encoded)
        # Re-encoding the decoded value must be byte-identical — the
        # property every stored hash depends on.
        assert canonical_encode(decoded) == encoded

    def test_decode_rejects_trailing_garbage(self):
        with pytest.raises(SerializationError):
            canonical_decode(canonical_encode({"a": 1}) + b"x")

    def test_decode_rejects_truncation(self):
        encoded = canonical_encode(["abc", 123, {"k": b"v"}])
        for cut in range(len(encoded)):
            with pytest.raises(SerializationError):
                canonical_decode(encoded[:cut])

    def test_block_roundtrip_byte_identical(self):
        chain = Blockchain(ChainParams(chain_id="codec"))
        grow_chain(chain, 3)
        for block in chain.blocks:
            payload = encode_block(block)
            clone = decode_block(payload, expected_hash=block.block_hash)
            assert encode_block(clone) == payload
            assert clone.block_hash == block.block_hash
            assert clone.header.merkle_root == block.header.merkle_root

    def test_block_decode_detects_corruption(self):
        chain = Blockchain(ChainParams(chain_id="codec"))
        grow_chain(chain, 1)
        payload = bytearray(encode_block(chain.blocks[1]))
        # Flip a byte inside the value region of the encoding.
        payload[-2] ^= 0xFF
        with pytest.raises((StorageError, SerializationError)):
            decode_block(bytes(payload))

    def test_signed_transaction_survives(self):
        from repro.crypto.signatures import KeyPair

        pair = KeyPair.generate("persist-signer")
        tx = Transaction(pair.address, TxKind.DATA,
                         {"key": "s", "value": 1}).sign_with(pair).seal()
        chain = Blockchain(ChainParams(chain_id="sig",
                                       require_signatures=True))
        chain.append_block(chain.build_block([tx]))
        clone = decode_block(encode_block(chain.blocks[1]))
        assert clone.transactions[0].verify_signature()
        assert clone.transactions[0].is_sealed

    def test_receipt_is_returned_not_stored(self, funded_chain):
        tx = Transaction("alice", TxKind.TRANSFER,
                         {"to": "bob", "amount": 5}).seal()
        [receipt] = funded_chain.append_block(funded_chain.build_block([tx]))
        assert receipt.tx_id == tx.tx_id and receipt.success
        assert receipt.block_height == 1 and receipt.events
        assert not hasattr(funded_chain, "receipt_for")
        assert not hasattr(funded_chain.store, "receipt_for")
        assert funded_chain.store.tx_location(tx.tx_id) == (1, 0)

    def test_record_roundtrip(self):
        record = {"record_id": "r1", "subject": "s", "nested": {"a": [1, 2]},
                  "blob": b"\x00\xff"}
        assert decode_record(encode_record(record)) == record


# ---------------------------------------------------------------------------
# Segment log
# ---------------------------------------------------------------------------
def _append(log: SegmentLog, payload: bytes):
    return log.append_many([payload], fsync=False)[0]


def _payloads(log: SegmentLog, locations) -> list[bytes]:
    return list(log.read_many((loc.segment, loc.offset)
                              for loc in locations))


class TestSegmentLog:
    def test_append_read_walk(self, tmp_path):
        log = SegmentLog(tmp_path)
        locs = [_append(log, f"payload-{i}".encode()) for i in range(10)]
        for i, loc in enumerate(locs):
            assert log.read(loc.segment, loc.offset) == f"payload-{i}".encode()
        assert _payloads(log, locs) == \
            [f"payload-{i}".encode() for i in range(10)]

    def test_segments_roll_and_seal(self, tmp_path):
        log = SegmentLog(tmp_path, max_segment_bytes=64)
        locs = [_append(log, b"x" * 30) for _ in range(20)]
        assert locs[-1].segment > 0
        assert log.segments_sealed == locs[-1].segment
        assert _payloads(log, locs) == [b"x" * 30] * 20

    def test_partial_tail_is_invalid_not_fatal(self, tmp_path):
        log = SegmentLog(tmp_path)
        keep = _append(log, b"first")
        cut = _append(log, b"second-entry")
        log.close()
        path = os.path.join(str(tmp_path), "seg-00000000.log")
        os.truncate(path, cut.offset + 5)  # mid-frame
        reopened = SegmentLog(tmp_path)
        assert reopened.frame_at(keep.segment, keep.offset) == b"first"
        assert reopened.frame_at(cut.segment, cut.offset) is None
        with pytest.raises(StorageError):
            _payloads(reopened, [keep, cut])

    def test_truncate_to_drops_later_segments(self, tmp_path):
        log = SegmentLog(tmp_path, max_segment_bytes=32)
        locs = [_append(log, b"y" * 20) for _ in range(6)]
        log.truncate_to(locs[2].segment, locs[2].offset)
        assert _payloads(log, locs[:2]) == [b"y" * 20] * 2
        assert log.frame_at(locs[2].segment, locs[2].offset) is None
        assert locs[-1].segment > locs[2].segment
        assert not os.path.exists(
            os.path.join(str(tmp_path), f"seg-{locs[-1].segment:08d}.log"))
        # The log stays appendable at the cut point.
        fresh = _append(log, b"fresh")
        assert (fresh.segment, fresh.offset) == \
            (locs[2].segment, locs[2].offset)
        assert _payloads(log, [*locs[:2], fresh])[-1] == b"fresh"

    def test_read_many_follows_the_given_order(self, tmp_path):
        """Addresses need not run in log order: a walk that jumps back
        to an earlier segment reopens it and still yields each payload
        in the order asked."""
        log = SegmentLog(tmp_path, max_segment_bytes=32)
        locs = [_append(log, f"z{i:02d}".encode() * 4) for i in range(6)]
        assert locs[-1].segment > locs[0].segment
        order = [5, 0, 3, 0, 5, 1]
        assert _payloads(log, [locs[i] for i in order]) == \
            [f"z{i:02d}".encode() * 4 for i in order]

    def test_fault_injection_hook(self, tmp_path):
        log = SegmentLog(tmp_path)
        good = _append(log, b"good")
        log.fail_after_bytes = 6
        with pytest.raises(CrashPoint):
            _append(log, b"never-lands")
        # The victim frame is a partial write: never a valid frame.
        assert log.frame_at(good.segment, good.offset) == b"good"
        assert log.frame_at(good.segment, good.offset + good.length) is None


# ---------------------------------------------------------------------------
# Crash recovery (kill mid-append)
# ---------------------------------------------------------------------------
class TestCrashRecovery:
    def _open_chain(self, directory) -> tuple[DurableStorage, Blockchain]:
        storage = DurableStorage(directory)
        chain = Blockchain(ChainParams(chain_id="crash"),
                           store=storage.blocks)
        return storage, chain

    def test_injected_crash_mid_append_recovers(self, tmp_path):
        storage, chain = self._open_chain(tmp_path)
        grow_chain(chain, 5)
        head_before = chain.head.block_hash
        storage.block_log.fail_after_bytes = 17
        with pytest.raises(CrashPoint):
            grow_chain(chain, 1, tag="doomed")
        storage.close()

        storage2, chain2 = self._open_chain(tmp_path)
        assert chain2.height == 5
        assert chain2.head.block_hash == head_before
        chain2.verify(deep=True)
        # The store stays appendable after recovery.
        grow_chain(chain2, 1, tag="after")
        assert chain2.height == 6
        chain2.verify(deep=True)
        storage2.close()

    @pytest.mark.parametrize("cut_back", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_truncate_tail_at_arbitrary_byte(self, tmp_path, cut_back):
        """Chop the tail segment ``cut_back`` bytes short and reopen:
        the store must recover to the last fully committed block."""
        storage, chain = self._open_chain(tmp_path)
        grow_chain(chain, 4)
        hash_at_3 = chain.block_at(3).block_hash
        chain.close()

        seg_dir = os.path.join(str(tmp_path), "blocks-log")
        seg = sorted(os.listdir(seg_dir))[-1]
        path = os.path.join(seg_dir, seg)
        os.truncate(path, os.path.getsize(path) - cut_back)

        storage2, chain2 = self._open_chain(tmp_path)
        assert storage2.recovered_blocks >= 1
        assert chain2.height == 3
        assert chain2.head.block_hash == hash_at_3
        chain2.verify(deep=True)
        storage2.close()

    def test_corrupted_tail_bytes_recover(self, tmp_path):
        """Flip bytes inside the last frame (torn write, not short)."""
        storage, chain = self._open_chain(tmp_path)
        grow_chain(chain, 4)
        chain.close()
        seg_dir = os.path.join(str(tmp_path), "blocks-log")
        path = os.path.join(seg_dir, sorted(os.listdir(seg_dir))[-1])
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.seek(size - 20)
            fh.write(b"\xde\xad\xbe\xef")
        storage2, chain2 = self._open_chain(tmp_path)
        assert chain2.height == 3
        chain2.verify(deep=True)
        storage2.close()

    def test_stale_snapshot_above_recovered_head(self, tmp_path):
        """close() checkpoints at head; if recovery then loses the head
        block, the unreachable snapshot must be discarded and the chain
        rebuilt by replay — still consistent."""
        storage, chain = self._open_chain(tmp_path)
        grow_chain(chain, 4)
        state_root = None
        chain.close()  # snapshot at height 4

        seg_dir = os.path.join(str(tmp_path), "blocks-log")
        path = os.path.join(seg_dir, sorted(os.listdir(seg_dir))[-1])
        os.truncate(path, os.path.getsize(path) - 3)  # lose block 4

        storage2, chain2 = self._open_chain(tmp_path)
        assert chain2.height == 3
        assert chain2.blocks_replayed_on_open == 3  # genesis replay fallback
        chain2.verify(deep=True)
        # State must equal a from-scratch execution of blocks 1..3.
        reference = Blockchain(ChainParams(chain_id="crash"))
        for h in range(1, 4):
            reference.append_block(chain2.block_at(h))
        assert chain2.state.state_root() == reference.state.state_root()
        storage2.close()

    def test_contract_blocks_need_runtime_at_reopen(self, tmp_path):
        """Review regression: replaying stored contract blocks without a
        runtime would silently produce failed receipts and divergent
        state — the reopen must demand the runtime up front and, given
        it, reproduce the exact pre-crash state."""
        from repro.contracts.library.registry import ProvenanceRegistry
        from repro.contracts.runtime import (
            ContractRuntime,
            call_payload,
            deploy_payload,
        )

        def fresh_runtime() -> ContractRuntime:
            runtime = ContractRuntime()
            runtime.register(ProvenanceRegistry)
            return runtime

        storage = DurableStorage(tmp_path)
        runtime = fresh_runtime()
        chain = Blockchain(ChainParams(chain_id="contracts"),
                           store=storage.blocks)
        runtime.attach(chain)
        deploy = Transaction("deployer", TxKind.CONTRACT_DEPLOY,
                             deploy_payload("ProvenanceRegistry")).seal()
        address = chain.append_block(chain.build_block([deploy]))[0].output
        call = Transaction("alice", TxKind.CONTRACT_CALL,
                           call_payload(address, "register",
                                        record_id="a1",
                                        content_hash="deadbeef")).seal()
        assert chain.append_block(chain.build_block([call]))[0].success
        state_root = chain.state.state_root()
        # Without the state rows, a reopen replays the contract txs.
        storage.close()
        clear_state_rows(tmp_path)

        storage2 = DurableStorage(tmp_path)
        with pytest.raises(StorageError, match="contract_runtime"):
            Blockchain(ChainParams(chain_id="contracts"),
                       store=storage2.blocks)
        storage2.close()

        storage3 = DurableStorage(tmp_path)
        reopened = Blockchain(ChainParams(chain_id="contracts"),
                              store=storage3.blocks,
                              contract_runtime=fresh_runtime())
        assert reopened.blocks_replayed_on_open == 2
        assert reopened.state.state_root() == state_root
        storage3.close()

    def test_record_log_crash_recovers(self, tmp_path):
        storage = DurableStorage(tmp_path)
        from repro.storage.provdb import ProvenanceDatabase

        db = ProvenanceDatabase(store=storage.records)
        for i in range(6):
            db.insert({"record_id": f"r{i}", "subject": "s",
                       "timestamp": i})
        storage.record_log.fail_after_bytes = 9
        with pytest.raises(CrashPoint):
            db.insert({"record_id": "doomed", "subject": "s",
                       "timestamp": 99})
        storage.close()

        storage2 = DurableStorage(tmp_path)
        db2 = ProvenanceDatabase(store=storage2.records)
        assert len(db2) == 6
        assert not db2.contains("doomed")
        assert [r["record_id"] for r in db2.by_subject("s")] == \
            [f"r{i}" for i in range(6)]
        storage2.close()


# ---------------------------------------------------------------------------
# One walk, both tables
# ---------------------------------------------------------------------------
TABLES = ("blocks", "records")


def _fill(storage: DurableStorage, table: str, n: int) -> None:
    """Append ``n`` single-frame groups to ``table``'s indexed log."""
    if table == "blocks":
        chain = Blockchain(ChainParams(chain_id="walk"),
                           store=storage.blocks)
        grow_chain(chain, n)
        return
    for i in range(len(storage.records), len(storage.records) + n):
        record = {"record_id": f"r{i}", "subject": "s", "timestamp": i}
        storage.records.append_many([record], [encode_record(record)],
                                    fsync=False)


def _entries(storage: DurableStorage, table: str) -> int:
    """Entries ``_fill`` has put in ``table`` (genesis not counted)."""
    return storage.blocks.height() if table == "blocks" \
        else len(storage.records)


def _log_of(storage: DurableStorage, table: str) -> SegmentLog:
    return storage.block_log if table == "blocks" else storage.record_log


def _log_sizes(storage: DurableStorage, table: str) -> dict[str, int]:
    """Byte size of each segment file of ``table``'s log."""
    directory = _log_of(storage, table).directory
    return {name: os.path.getsize(os.path.join(directory, name))
            for name in os.listdir(directory)}


def _chop_tail(directory, table: str, n_bytes: int) -> None:
    """Cut ``n_bytes`` off the end of ``table``'s tail segment file."""
    seg_dir = os.path.join(str(directory), f"{table}-log")
    path = os.path.join(seg_dir, sorted(os.listdir(seg_dir))[-1])
    os.truncate(path, os.path.getsize(path) - n_bytes)


def _index_rows(storage: DurableStorage) -> dict[str, int]:
    return {table: storage._conn.execute(
        f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        for table in ("blocks", "txs", "records")}


@pytest.mark.parametrize("table", TABLES)
class TestOneRecoveryWalk:
    """Blocks and records are the same indexed log, so every byte-level
    crash case holds for both (``recovered_<table>`` is what the one
    walk reports per log)."""

    @pytest.mark.parametrize("fail_after", [1, 5, 9, 17, 40])
    def test_kill_at_any_byte_of_an_append(self, tmp_path, table,
                                           fail_after):
        storage = DurableStorage(tmp_path)
        _fill(storage, table, 5)
        rows = _index_rows(storage)
        end = _log_sizes(storage, table)
        _log_of(storage, table).fail_after_bytes = fail_after
        with pytest.raises(CrashPoint):
            _fill(storage, table, 1)
        storage.close()

        storage2 = DurableStorage(tmp_path)
        # The torn frame was never indexed: nothing to drop, the log is
        # cut back to the last indexed frame.
        assert getattr(storage2, f"recovered_{table}") == 0
        assert _entries(storage2, table) == 5
        assert _index_rows(storage2) == rows
        assert _log_sizes(storage2, table) == end
        _fill(storage2, table, 1)       # still appendable
        storage2.close()
        storage3 = DurableStorage(tmp_path)
        assert _entries(storage3, table) == 6
        storage3.close()

    @pytest.mark.parametrize("cut_back", [1, 3, 8, 21])
    def test_truncated_tail_drops_the_orphaned_row(self, tmp_path, table,
                                                   cut_back):
        storage = DurableStorage(tmp_path)
        _fill(storage, table, 4)
        storage.close()
        _chop_tail(tmp_path, table, cut_back)

        storage2 = DurableStorage(tmp_path)
        assert getattr(storage2, f"recovered_{table}") == 1
        assert _entries(storage2, table) == 3
        # The rows that shared the dropped key's fate went with it.
        rows = _index_rows(storage2)
        if table == "blocks":
            assert rows["blocks"] == 4 and rows["txs"] == 9 \
                and storage2.blocks.tx_count() == 9
        else:
            assert rows["records"] == 3
        _fill(storage2, table, 2)
        storage2.close()
        storage3 = DurableStorage(tmp_path)
        assert getattr(storage3, f"recovered_{table}") == 0
        assert _entries(storage3, table) == 5
        storage3.close()

    def test_only_the_damaged_log_is_walked_back(self, tmp_path, table):
        other = TABLES[1 - TABLES.index(table)]
        storage = DurableStorage(tmp_path)
        _fill(storage, table, 3)
        _fill(storage, other, 3)
        storage.close()
        _chop_tail(tmp_path, table, 2)
        storage2 = DurableStorage(tmp_path)
        assert getattr(storage2, f"recovered_{table}") == 1
        assert getattr(storage2, f"recovered_{other}") == 0
        assert _entries(storage2, table) == 2
        assert _entries(storage2, other) == 3
        storage2.close()


def _record_frames(storage: DurableStorage) -> dict[int, bytes]:
    """Position → the frame bytes its index row points at."""
    return {position: storage.record_log.read(segment, offset)
            for position, segment, offset in storage._conn.execute(
                "SELECT position, segment, offset FROM records "
                "ORDER BY position")}


@pytest.mark.parametrize("cut_back", [1, 9, 64, 150, 400])
def test_chopped_record_log_recovers_a_dense_prefix(tmp_path, cut_back):
    """Records are append-only: whatever the chop takes, reopen keeps
    positions ``0..n-1`` with no hole, each still pointing at the exact
    bytes first written at that position, and appends carry on at
    ``n``."""
    storage = DurableStorage(tmp_path)
    _fill(storage, "records", 8)
    group = [{"record_id": f"g{i}", "subject": "s", "timestamp": 100 + i}
             for i in range(4)]
    storage.records.append_many(group, list(map(encode_record, group)))
    written = _record_frames(storage)
    storage.close()
    _chop_tail(tmp_path, "records", cut_back)

    storage2 = DurableStorage(tmp_path)
    survived = _record_frames(storage2)
    kept = len(survived)
    assert 0 < kept < len(written)
    assert storage2.recovered_records == len(written) - kept
    assert list(survived) == list(range(kept))
    assert survived == {position: written[position]
                        for position in range(kept)}
    assert [position for position, _ in storage2.records.iter_items_raw()] \
        == list(range(kept))
    _fill(storage2, "records", 1)
    assert list(_record_frames(storage2)) == list(range(kept + 1))
    storage2.close()


def _fds_under(directory) -> list[str]:
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:         # the listing's own fd, closed by now
            continue
        if target.startswith(str(directory)):
            held.append(target)
    return held


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("log_dir", ["blocks-log", "records-log"],
                         ids=["blocks", "records"])
def test_a_failed_open_releases_every_handle(tmp_path, log_dir):
    """A file where a log directory belongs makes the open raise; the
    sqlite connection (index.db, -wal, -shm) and every log opened before
    the failing one are closed before the exception leaves — with gc
    off, nothing else would close them."""
    (tmp_path / log_dir).write_bytes(b"")
    gc.disable()
    try:
        with pytest.raises(FileExistsError):
            DurableStorage(tmp_path)
        assert _fds_under(tmp_path) == []
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Backend equivalence (hypothesis)
# ---------------------------------------------------------------------------
payload_values = st.one_of(
    st.none(),
    st.integers(min_value=-(10 ** 12), max_value=10 ** 12),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.lists(st.integers(min_value=0, max_value=99), max_size=4),
)
tx_strategy = st.builds(
    lambda key, value, fee, seal: (key, value, fee, seal),
    key=st.text(min_size=1, max_size=12),
    value=payload_values,
    fee=st.integers(min_value=0, max_value=50),
    seal=st.booleans(),
)
block_plan = st.lists(st.lists(tx_strategy, max_size=4), min_size=1,
                      max_size=6)


def _apply_plan(chain: Blockchain, plan) -> None:
    for height, block_txs in enumerate(plan, start=1):
        txs = []
        for j, (key, value, fee, seal) in enumerate(block_txs):
            tx = Transaction("hyp", TxKind.DATA,
                             {"key": f"{height}/{j}/{key}", "value": value},
                             fee=fee, timestamp=height)
            txs.append(tx.seal() if seal else tx)
        chain.append_block(chain.build_block(txs, timestamp=height))


class TestBackendEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(block_plan)
    def test_durable_equals_memory_through_reopen(self, tmp_path_factory,
                                                  plan):
        directory = tmp_path_factory.mktemp("equiv")
        memory = Blockchain(ChainParams(chain_id="eq"))
        storage = DurableStorage(directory)
        durable = Blockchain(ChainParams(chain_id="eq"),
                             store=storage.blocks)
        _apply_plan(memory, plan)
        _apply_plan(durable, plan)
        assert durable.head.block_hash == memory.head.block_hash
        durable.close()

        storage2 = DurableStorage(directory)
        reopened = Blockchain(ChainParams(chain_id="eq"),
                              store=storage2.blocks)
        assert reopened.blocks_replayed_on_open == 0
        assert reopened.height == memory.height
        assert reopened.head.block_hash == memory.head.block_hash
        assert reopened.state.state_root() == memory.state.state_root()
        assert reopened.store.tx_count() == memory.store.tx_count()
        for block_mem, block_dur in zip(memory.blocks, reopened.blocks):
            assert encode_block(block_dur) == encode_block(block_mem)
        for block in memory.blocks:
            for tx in block.transactions:
                assert reopened.store.tx_location(tx.tx_id) == \
                    memory.store.tx_location(tx.tx_id)
        reopened.verify(deep=True)
        storage2.close()

    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.fixed_dictionaries({
            "subject": st.sampled_from(["a", "b", "c"]),
            "actor": st.sampled_from(["x", "y"]),
            "operation": st.sampled_from(["create", "update"]),
            "timestamp": st.integers(min_value=0, max_value=1000),
            "payload": payload_values,
        }),
        max_size=12,
    ))
    def test_record_store_equivalence(self, tmp_path_factory, specs):
        from repro.storage.provdb import ProvenanceDatabase

        directory = tmp_path_factory.mktemp("recs")
        storage = DurableStorage(directory)
        mem_db = ProvenanceDatabase()
        dur_db = ProvenanceDatabase(store=storage.records)
        for i, spec in enumerate(specs):
            record = dict(spec, record_id=f"r{i}")
            mem_db.insert(record)
            dur_db.insert(record)
        storage.close()

        storage2 = DurableStorage(directory)
        reopened = ProvenanceDatabase(store=storage2.records)
        assert len(reopened) == len(mem_db)
        for subject in ("a", "b", "c"):
            assert reopened.by_subject(subject) == mem_db.by_subject(subject)
        for actor in ("x", "y"):
            assert reopened.by_actor(actor) == mem_db.by_actor(actor)
        assert reopened.by_time_range(0, 1001) == mem_db.by_time_range(0, 1001)
        storage2.close()


class TestReopenRebuildsIndexesFromFrames:
    """Reopening a durable record store rebuilds the database's inverted
    indexes from one walk of the log: one index query, each frame
    decoded directly — no per-record location query, no LRU entry, no
    copy."""

    @staticmethod
    def _records(n: int) -> list[dict]:
        return [{"record_id": f"r{i:04d}", "subject": f"s{i % 7}",
                 "actor": f"a{i % 3}", "operation": f"op{i % 2}",
                 "timestamp": (i * 37) % 101, "nested": {"k": [i]}}
                for i in range(n)]

    @staticmethod
    def _indexes(db) -> tuple:
        return (db._by_id, dict(db._by_subject), dict(db._by_actor),
                dict(db._by_operation), db._by_time)

    def _reopen(self, directory, n: int, monkeypatch):
        from repro.persist import durable, provdb, stores
        from repro.serialization import own
        from repro.storage.provdb import ProvenanceDatabase

        storage = DurableStorage(directory)
        live = ProvenanceDatabase(store=storage.records)
        live.insert_many(self._records(n))
        storage.close()

        storage = DurableStorage(directory)
        statements: list[str] = []
        owned = []

        def counted_own(value):
            owned.append(value)
            return own(value)

        for module in (durable, provdb, stores):
            monkeypatch.setattr(module, "own", counted_own)
        storage._conn.set_trace_callback(statements.append)
        try:
            reopened = ProvenanceDatabase(store=storage.records)
        finally:
            storage._conn.set_trace_callback(None)
            monkeypatch.undo()
        try:
            assert self._indexes(reopened) == self._indexes(live)
            assert len(storage.records._index._cache) == 0
            assert owned == []
        finally:
            storage.close()
        return statements

    def test_one_walk_whatever_the_record_count(self, tmp_path,
                                                monkeypatch):
        few = self._reopen(tmp_path / "few", 5, monkeypatch)
        many = self._reopen(tmp_path / "many", 60, monkeypatch)
        assert len(few) == len(many) == 1
        assert few[0].startswith("SELECT position, segment, offset")


    def test_a_damaged_frame_stops_the_walk(self, tmp_path):
        """The uncopied walk checks each frame's CRC as ``read`` does:
        a record frame garbled in the middle of the log raises
        ``StorageError`` instead of yielding a wrong record."""
        storage = DurableStorage(tmp_path)
        try:
            _fill(storage, "records", 4)
            segment, offset = storage._conn.execute(
                "SELECT segment, offset FROM records "
                "WHERE position = 1").fetchone()
            storage.record_log.read(segment, offset)     # flushes the log
            path = os.path.join(storage.record_log.directory,
                                f"seg-{segment:08d}.log")
            with open(path, "r+b") as fh:
                fh.seek(offset + 6)
                byte = fh.read(1)
                fh.seek(offset + 6)
                fh.write(bytes([byte[0] ^ 0xFF]))
            walk = storage.records.iter_items_raw()
            assert next(walk)[0] == 0
            with pytest.raises(StorageError):
                next(walk)
        finally:
            storage.close()

    def test_memory_walk_hands_out_the_stored_records(self):
        """The memory store's walk is uncopied (the stored dicts
        themselves) while ``get`` and ``iter_records`` copy."""
        from repro.persist.stores import MemoryRecordStore

        store = MemoryRecordStore()
        records = self._records(3)
        store.append_many(records, [encode_record(r) for r in records])
        walked = list(store.iter_items_raw())
        assert [position for position, _ in walked] == [0, 1, 2]
        assert all(stored is record
                   for (_, stored), record in zip(walked, records))
        copies = list(store.iter_records())
        assert copies == records
        assert all(copy is not record and copy["nested"] is not
                   record["nested"] for copy, record in zip(copies, records))
        assert store.get(1) == records[1] and store.get(1) is not records[1]

# ---------------------------------------------------------------------------
# Truncation on disk (snapshot sync's unwind of a tail it failed to
# install; a live chain never truncates a sealed block)
# ---------------------------------------------------------------------------
def _fork_suffix(chain: Blockchain, fork_height: int,
                 length: int) -> list:
    from repro.chain.block import Block

    prev = chain.block_at(fork_height)
    suffix = []
    for i in range(length):
        height = fork_height + 1 + i
        txs = [Transaction("forker", TxKind.DATA,
                           {"key": f"fork{height}", "value": height}).seal()]
        block = Block(height=height, prev_hash=prev.block_hash,
                      transactions=txs, timestamp=1000 + height,
                      proposer="forker")
        suffix.append(block)
        prev = block
    return suffix


def _open_chain(directory, params: ChainParams):
    storage = DurableStorage(directory)
    return storage, Blockchain(params, store=storage.blocks)


class TestDurableTruncation:
    @pytest.mark.parametrize("cut_depth", [3, 6])
    def test_truncate_above_is_gone_after_a_reopen(self, tmp_path,
                                                   cut_depth):
        params = ChainParams(chain_id="truncate")
        storage, chain = _open_chain(tmp_path, params)
        grow_chain(chain, 10)
        cut = chain.height - cut_depth
        kept_head = chain.block_at(cut).block_hash
        dropped = [tx.tx_id
                   for block in chain.blocks[cut + 1:]
                   for tx in block.transactions]
        kept = storage.blocks.tx_count() - len(dropped)
        storage.blocks.truncate_above(cut)
        assert storage.blocks.tx_count() == kept
        for tx_id in dropped:
            assert storage.blocks.tx_location(tx_id) is None
        storage.close()

        # On-disk truth agrees after a reopen, and a new tail commits.
        storage, reopened = _open_chain(tmp_path, params)
        assert storage.recovered_blocks == 0
        assert reopened.height == cut
        assert reopened.head.block_hash == kept_head
        reopened.append_blocks(_fork_suffix(reopened, cut, cut_depth + 1))
        head, root = reopened.head.block_hash, reopened.state.state_root()
        reopened.close()
        storage, again = _open_chain(tmp_path, params)
        assert again.head.block_hash == head
        assert again.state.state_root() == root
        for tx_id in dropped:
            assert again.store.tx_location(tx_id) is None
        again.verify(deep=True)
        storage.close()

    def test_image_of_a_truncated_block_is_not_restored(self, tmp_path):
        params = ChainParams(chain_id="snapcut")
        storage, chain = _open_chain(tmp_path, params)
        grow_chain(chain, 6)
        assert storage.blocks.state_image()[0] == 6
        # The same prefix and a new branch from height 2, executed on a
        # reference chain; the store gets the branch below the chain.
        reference = Blockchain(params)
        suffix = _fork_suffix(chain, 2, 5)  # new head at height 7 > 6...
        for block in list(chain.blocks[1:3]) + suffix:
            reference.append_block(block)
            if block.height > 2:
                if block.height == 3:
                    storage.blocks.truncate_above(2)
                storage.blocks.append_blocks([block])
        storage.close()
        # ...but the height-6 rows described a block the truncation
        # dropped: they went with it, and every block replays.
        storage, reopened = _open_chain(tmp_path, params)
        assert reopened.blocks_replayed_on_open == 7
        assert storage.blocks.state_image() == (
            7, reference.state.dump_entries())
        assert reopened.head.block_hash == reference.head.block_hash
        assert reopened.state.state_root() == reference.state.state_root()
        reopened.verify(deep=True)
        storage.close()

    @pytest.mark.parametrize("image", ["replaced", "kept"])
    def test_parent_image_bound_to_a_replaced_block_is_dropped(
            self, tmp_path, image):
        """Format step 6 → 7 on a store the checkpointing build left
        after sync's truncation replaced branch A with branch B (a new
        tail from height 2 up to 7): A's image at height 6, bound to A's
        block, names a block the store no longer holds and goes — every
        block replays; an image bound to the block the store holds at
        its height stays, and only the blocks above it replay."""
        params = ChainParams(chain_id="snapcut")
        storage, chain = _open_chain(tmp_path, params)
        grow_chain(chain, 6)
        reference = Blockchain(params)
        for block in list(chain.blocks[1:3]) + _fork_suffix(chain, 2, 4):
            reference.append_block(block)
        if image == "replaced":
            entries, bound = chain.state.dump_entries(), chain.head.block_hash
        else:
            entries = reference.state.dump_entries()
            bound = reference.head.block_hash
        reference.append_blocks(_fork_suffix(reference, 6, 1))
        storage.blocks.truncate_above(2)
        storage.blocks.append_blocks(list(reference.blocks[3:]))
        storage.blocks.install_state(6, entries)
        storage.close()
        parent_checkpoint(tmp_path, 6, bound)
        storage, reopened = _open_chain(tmp_path, params)
        assert reopened.blocks_replayed_on_open == (
            7 if image == "replaced" else 1)
        assert (reopened.head.block_hash, reopened.state.state_root()) == (
            reference.head.block_hash, reference.state.state_root())
        assert storage.blocks.state_image() == (
            7, reference.state.dump_entries())
        storage.close()

    @pytest.mark.parametrize("written_by", ["parent", "this build"])
    def test_rows_above_the_head_are_dropped_on_open(
            self, tmp_path, written_by):
        """An image that claims a height above the head — the
        checkpointing build saved it just before the fsync a power loss
        beat — describes no block: the open drops it (the step 6 → 7 for
        that build's stores, the block store's open for any other) and
        the chain replays from genesis."""
        params = ChainParams(chain_id="snapcut")
        storage, chain = _open_chain(tmp_path, params)
        grow_chain(chain, 4)
        root, head = chain.state.state_root(), chain.head.block_hash
        storage.blocks.install_state(9, chain.state.dump_entries())
        storage.close()
        if written_by == "parent":
            parent_checkpoint(tmp_path, 9, b"\x01" * 32)
        storage, reopened = _open_chain(tmp_path, params)
        assert reopened.blocks_replayed_on_open == 4
        assert (reopened.head.block_hash, reopened.state.state_root()) \
            == (head, root)
        assert storage.blocks.state_image() == (
            4, reopened.state.dump_entries())
        storage.close()


# ---------------------------------------------------------------------------
# Whole-deployment restart (the acceptance scenario)
# ---------------------------------------------------------------------------
class TestShardedRestart:
    def _populate(self, sc: ShardedChain, n: int = 48) -> None:
        for i in range(n):
            sc.ingest_record({
                "record_id": f"r{i:04d}",
                "subject": f"asset/{i % 7}",
                "actor": f"actor-{i % 3}",
                "operation": "update" if i % 2 else "create",
                "timestamp": i,
            })
        sc.submit_many([data_tx(i, sender=f"u{i % 5}").seal()
                        for i in range(24)])
        sc.flush_anchors()
        sc.seal_until_drained()

    def test_restart_serves_identical_results(self, tmp_path):
        sc = ShardedChain(4, storage_dir=str(tmp_path), anchor_batch_size=8)
        self._populate(sc)
        q = ShardedQueryEngine(sc)
        before = q.history_verified("asset/3")
        assert before.verified and before.records
        rid = before.records[0]["record_id"]
        proof_before = q.federated_proof(rid)
        rounds_before = sc.rounds_sealed
        heights_before = [s.chain.height for s in sc.shards]
        sc.verify_all(deep=True)
        sc.close()

        sc2 = ShardedChain(4, storage_dir=str(tmp_path), anchor_batch_size=8)
        # No genesis replay: every shard and the beacon restored from
        # its snapshot at the head.
        assert all(s.chain.blocks_replayed_on_open == 0 for s in sc2.shards)
        assert sc2.beacon.chain.blocks_replayed_on_open == 0
        assert [s.chain.height for s in sc2.shards] == heights_before
        assert sc2.rounds_sealed == rounds_before
        q2 = ShardedQueryEngine(sc2)
        after = q2.history_verified("asset/3")
        assert after.verified
        assert [r["record_id"] for r in after.records] == \
            [r["record_id"] for r in before.records]
        # Federated proof still verifies against the restored beacon.
        proof_after = q2.federated_proof(rid)
        header = sc2.beacon.chain.block_at(proof_after.beacon_height).header
        record = sc2.shard_for_subject("asset/3").database.get(rid)
        assert proof_after.verify(record, header)
        assert proof_after.beacon_height == proof_before.beacon_height
        sc2.verify_all(deep=True)
        sc2.close()

    def test_restart_keeps_working(self, tmp_path):
        sc = ShardedChain(2, storage_dir=str(tmp_path), anchor_batch_size=4)
        self._populate(sc, n=16)
        committed = sc.total_txs_committed
        sc.close()

        sc2 = ShardedChain(2, storage_dir=str(tmp_path), anchor_batch_size=4)
        assert sc2.total_txs_committed == committed
        sc2.ingest_record({"record_id": "post-restart",
                           "subject": "asset/0", "actor": "a",
                           "operation": "verify", "timestamp": 999})
        sc2.flush_anchors()
        sc2.seal_round()
        q = ShardedQueryEngine(sc2)
        answer = q.history_verified("asset/0")
        assert answer.verified
        assert any(r["record_id"] == "post-restart" for r in answer.records)
        sc2.verify_all(deep=True)
        sc2.close()

    def test_locks_presumed_abort_on_restart(self, tmp_path):
        """A lock checkpointed mid-2PC is dropped on restart (presumed
        abort): its coordinator died with the process, so restoring it
        would wedge the subject forever."""
        sc = ShardedChain(2, storage_dir=str(tmp_path))
        shard_id = sc.router.shard_for_subject("asset/locked")
        assert sc.locks.acquire([(shard_id, "asset/locked")], "xid-1",
                                now=0)
        sc.close()  # nothing about the facade is checkpointed
        sc2 = ShardedChain(2, storage_dir=str(tmp_path))
        assert not sc2.locks.blocks(shard_id, "asset/locked", None)
        # The subject is writable again.
        sc2.ingest_record({"record_id": "unblocked",
                           "subject": "asset/locked", "actor": "a",
                           "operation": "create", "timestamp": 1})
        sc2.close()

    def test_shard_count_mismatch_rejected(self, tmp_path):
        sc = ShardedChain(3, storage_dir=str(tmp_path))
        sc.close()
        from repro.errors import ShardError

        with pytest.raises(ShardError):
            ShardedChain(5, storage_dir=str(tmp_path))

    def test_periodic_checkpoint_bounds_crash_loss(self, tmp_path):
        """checkpoint_every_rounds makes an *unclean* shutdown resume
        from the last checkpoint instead of genesis."""
        sc = ShardedChain(2, storage_dir=str(tmp_path),
                          checkpoint_every_rounds=1, anchor_batch_size=4)
        self._populate(sc, n=16)
        heights = [s.chain.height for s in sc.shards]
        # Simulate an unclean shutdown: no close(), just drop the object.
        for shard in sc.shards:
            shard.storage.close()
        sc.beacon.storage.close()

        sc2 = ShardedChain(2, storage_dir=str(tmp_path), anchor_batch_size=4)
        assert [s.chain.height for s in sc2.shards] == heights
        # Replay is bounded by blocks sealed after the last checkpoint.
        sc2.verify_all(deep=True)
        sc2.close()


# ---------------------------------------------------------------------------
# Durable database details
# ---------------------------------------------------------------------------
class TestDurableDatabase:
    def test_memory_store_blocks_setter_guard(self, tmp_path):
        storage = DurableStorage(tmp_path)
        chain = Blockchain(ChainParams(chain_id="guard"),
                           store=storage.blocks)
        with pytest.raises(StorageError):
            chain.blocks = []
        storage.close()
        memory = Blockchain(ChainParams(chain_id="guard"))
        assert isinstance(memory.store, MemoryBlockStore)
        memory.blocks = list(memory.blocks)  # allowed on memory backend
