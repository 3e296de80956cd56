"""Durable storage: codec, segment log, crash recovery, backend
equivalence, reorg truncation, and whole-deployment restarts.

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
from hypothesis import given, settings, strategies as st

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
from repro.persist.codec import (
    decode_receipt,
    decode_record,
    encode_receipt,
    encode_record,
)
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain, ShardedQueryEngine


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
    @settings(max_examples=60)
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

    def test_receipt_roundtrip(self, funded_chain):
        tx = Transaction("alice", TxKind.TRANSFER,
                         {"to": "bob", "amount": 5}).seal()
        funded_chain.append_block(funded_chain.build_block([tx]))
        receipt = funded_chain.receipt_for(tx.tx_id)
        clone = decode_receipt(encode_receipt(receipt))
        assert clone == receipt
        assert clone.events == receipt.events

    def test_record_roundtrip(self):
        record = {"record_id": "r1", "subject": "s", "nested": {"a": [1, 2]},
                  "blob": b"\x00\xff"}
        assert decode_record(encode_record(record)) == record


# ---------------------------------------------------------------------------
# Segment log
# ---------------------------------------------------------------------------
class TestSegmentLog:
    def test_append_read_scan(self, tmp_path):
        log = SegmentLog(tmp_path)
        locs = [log.append(f"payload-{i}".encode()) for i in range(10)]
        for i, loc in enumerate(locs):
            assert log.read(loc.segment, loc.offset) == f"payload-{i}".encode()
        scanned = [payload for _, payload in log.scan()]
        assert scanned == [f"payload-{i}".encode() for i in range(10)]

    def test_segments_roll_and_seal(self, tmp_path):
        log = SegmentLog(tmp_path, max_segment_bytes=64)
        for i in range(20):
            log.append(b"x" * 30)
        assert log.current_segment > 0
        assert log.segments_sealed == log.current_segment
        assert len([p for _, p in log.scan()]) == 20

    def test_partial_tail_is_invalid_not_fatal(self, tmp_path):
        log = SegmentLog(tmp_path)
        keep = log.append(b"first")
        cut = log.append(b"second-entry")
        log.close()
        path = os.path.join(str(tmp_path), "seg-00000000.log")
        os.truncate(path, cut.offset + 5)  # mid-frame
        reopened = SegmentLog(tmp_path)
        assert reopened.frame_at(keep.segment, keep.offset) == b"first"
        assert reopened.frame_at(cut.segment, cut.offset) is None
        assert [p for _, p in reopened.scan()] == [b"first"]

    def test_truncate_to_drops_later_segments(self, tmp_path):
        log = SegmentLog(tmp_path, max_segment_bytes=32)
        locs = [log.append(b"y" * 20) for _ in range(6)]
        log.truncate_to(locs[2].segment, locs[2].offset)
        assert [p for _, p in log.scan()] == [b"y" * 20] * 2
        # The log stays appendable at the cut point.
        log.append(b"fresh")
        assert [p for _, p in log.scan()][-1] == b"fresh"

    def test_fault_injection_hook(self, tmp_path):
        log = SegmentLog(tmp_path)
        log.append(b"good")
        log.fail_after_bytes = 6
        with pytest.raises(CrashPoint):
            log.append(b"never-lands")
        # The victim frame is a partial write: invisible to scans.
        assert [p for _, p in log.scan()] == [b"good"]


# ---------------------------------------------------------------------------
# Crash recovery (kill mid-append)
# ---------------------------------------------------------------------------
class TestCrashRecovery:
    def _open_chain(self, directory) -> tuple[DurableStorage, Blockchain]:
        storage = DurableStorage(directory)
        chain = Blockchain(ChainParams(chain_id="crash"),
                           store=storage.blocks,
                           snapshot_store=storage.state)
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
            reference._commit_block(chain2.block_at(h))
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
                           store=storage.blocks,
                           snapshot_store=storage.state)
        runtime.attach(chain)
        deploy = Transaction("deployer", TxKind.CONTRACT_DEPLOY,
                             deploy_payload("ProvenanceRegistry")).seal()
        chain.append_block(chain.build_block([deploy]))
        address = chain.receipt_for(deploy.tx_id).output
        call = Transaction("alice", TxKind.CONTRACT_CALL,
                           call_payload(address, "register",
                                        record_id="a1",
                                        content_hash="deadbeef")).seal()
        chain.append_block(chain.build_block([call]))
        assert chain.receipt_for(call.tx_id).success
        state_root = chain.state.state_root()
        # No checkpoint: force a restore replay through the contract txs.
        storage.blocks.sync()
        storage.close()

        storage2 = DurableStorage(tmp_path)
        with pytest.raises(StorageError, match="contract_runtime"):
            Blockchain(ChainParams(chain_id="contracts"),
                       store=storage2.blocks,
                       snapshot_store=storage2.state)
        storage2.close()

        storage3 = DurableStorage(tmp_path)
        reopened = Blockchain(ChainParams(chain_id="contracts"),
                              store=storage3.blocks,
                              snapshot_store=storage3.state,
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
                           store=storage.blocks,
                           snapshot_store=storage.state)
        grow_chain(chain, n)
        return
    for i in range(len(storage.records), len(storage.records) + n):
        storage.records.append({"record_id": f"r{i}", "subject": "s",
                                "timestamp": i})


def _entries(storage: DurableStorage, table: str) -> int:
    """Entries ``_fill`` has put in ``table`` (genesis not counted)."""
    return storage.blocks.height() if table == "blocks" \
        else len(storage.records)


def _log_of(storage: DurableStorage, table: str) -> SegmentLog:
    return storage.block_log if table == "blocks" else storage.record_log


def _chop_tail(directory, table: str, n_bytes: int) -> None:
    """Cut ``n_bytes`` off the end of ``table``'s tail segment file."""
    seg_dir = os.path.join(str(directory), f"{table}-log")
    path = os.path.join(seg_dir, sorted(os.listdir(seg_dir))[-1])
    os.truncate(path, os.path.getsize(path) - n_bytes)


def _index_rows(storage: DurableStorage) -> dict[str, int]:
    return {table: storage._conn.execute(
        f"SELECT COUNT(*) FROM {table}").fetchone()[0]
        for table in ("blocks", "txs", "receipts", "records")}


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
        end = _log_of(storage, table).end_location()
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
        assert _log_of(storage2, table).end_location() == end
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
                and rows["receipts"] == 9
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


def test_torn_repointed_frame_is_found_by_address_order(tmp_path):
    """``replace()`` points an *old* position at the newest frame.  When
    that frame is torn, the row to drop is position 1's — found only by
    walking the table in log-address order — and the log is cut after
    position 5's frame, not after the highest position's."""
    storage = DurableStorage(tmp_path)
    _fill(storage, "records", 6)
    end_of_appends = storage.record_log.end_location()
    storage.records.replace(1, {"record_id": "r1", "subject": "s",
                                "timestamp": 1, "note": "annotated"})
    storage.close()
    _chop_tail(tmp_path, "records", 3)

    storage2 = DurableStorage(tmp_path)
    assert storage2.recovered_records == 1
    assert storage2.record_log.end_location() == end_of_appends
    assert [position for position, _ in storage2.records.iter_items()] \
        == [0, 2, 3, 4, 5]
    assert storage2.records.get(5)["timestamp"] == 5
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
@pytest.mark.parametrize("log_dir", ["blocks-log", "records-log",
                                     "cold_blocks-log"],
                         ids=["blocks", "records", "cold"])
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
                             store=storage.blocks,
                             snapshot_store=storage.state)
        _apply_plan(memory, plan)
        _apply_plan(durable, plan)
        assert durable.head.block_hash == memory.head.block_hash
        durable.close()

        storage2 = DurableStorage(directory)
        reopened = Blockchain(ChainParams(chain_id="eq"),
                              store=storage2.blocks,
                              snapshot_store=storage2.state)
        assert reopened.blocks_replayed_on_open == 0
        assert reopened.height == memory.height
        assert reopened.head.block_hash == memory.head.block_hash
        assert reopened.state.state_root() == memory.state.state_root()
        assert set(reopened.receipts.keys()) == set(memory.receipts.keys())
        for block_mem, block_dur in zip(memory.blocks, reopened.blocks):
            assert encode_block(block_dur) == encode_block(block_mem)
        for block in memory.blocks:
            for tx in block.transactions:
                assert reopened.store.tx_location(tx.tx_id) == \
                    memory.store.tx_location(tx.tx_id)
                assert reopened.receipt_for(tx.tx_id) == \
                    memory.receipt_for(tx.tx_id)
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


# ---------------------------------------------------------------------------
# Reorg truncation on disk
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


class TestDurableReorg:
    @pytest.mark.parametrize("journal_depth,fork_depth", [
        (8, 3),    # within the journal window: O(delta) undo path
        (4, 6),    # beyond the window: replay fallback
    ])
    def test_reorg_truncates_on_disk(self, tmp_path, journal_depth,
                                     fork_depth):
        params = ChainParams(chain_id="reorg",
                             reorg_journal_depth=journal_depth)
        storage = DurableStorage(tmp_path)
        chain = Blockchain(params, store=storage.blocks,
                           snapshot_store=storage.state)
        grow_chain(chain, 10)
        fork_height = chain.height - fork_depth
        orphaned = [tx.tx_id
                    for block in chain.blocks[fork_height + 1:]
                    for tx in block.transactions]
        suffix = _fork_suffix(chain, fork_height, fork_depth + 1)
        chain.reorg_to(suffix, fork_height)
        head_after = chain.head.block_hash
        height_after = chain.height
        root_after = chain.state.state_root()
        for tx_id in orphaned:
            assert chain.store.tx_location(tx_id) is None
            assert chain.receipt_for(tx_id) is None
        chain.verify(deep=True)
        chain.close()

        # On-disk truth must agree with the in-memory head after reorg.
        storage2 = DurableStorage(tmp_path)
        assert storage2.recovered_blocks == 0
        reopened = Blockchain(params, store=storage2.blocks,
                              snapshot_store=storage2.state)
        assert reopened.height == height_after
        assert reopened.head.block_hash == head_after
        assert reopened.state.state_root() == root_after
        for tx_id in orphaned:
            assert reopened.store.tx_location(tx_id) is None
        reopened.verify(deep=True)
        storage2.close()

    def test_reorg_discards_snapshot_above_new_head(self, tmp_path):
        params = ChainParams(chain_id="snapcut", reorg_journal_depth=8)
        storage = DurableStorage(tmp_path)
        chain = Blockchain(params, store=storage.blocks,
                           snapshot_store=storage.state)
        grow_chain(chain, 6)
        chain.checkpoint()  # snapshot at height 6
        assert storage.state.snapshot_height() == 6
        suffix = _fork_suffix(chain, 2, 5)  # new head at height 7 > 6...
        chain.reorg_to(suffix, 2)
        # ...but the height-6 image describes the *orphaned* branch.
        assert storage.state.snapshot_height() is None
        chain.close()
        storage2 = DurableStorage(tmp_path)
        reopened = Blockchain(params, store=storage2.blocks,
                              snapshot_store=storage2.state)
        assert reopened.head.block_hash == chain.head.block_hash
        reopened.verify(deep=True)
        storage2.close()


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
        assert sc2.locks.entry(shard_id, "asset/locked") is None
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
    def test_annotating_non_last_record_survives_reopen(self, tmp_path):
        """Review regression: ``replace()`` repoints an *old* position at
        the newest log frame, so recovery must truncate by log address,
        not by max position — otherwise the annotation frame is cut."""
        from repro.storage.provdb import ProvenanceDatabase

        storage = DurableStorage(tmp_path)
        db = ProvenanceDatabase(store=storage.records)
        for i in range(3):
            db.insert({"record_id": f"r{i}", "subject": "s",
                       "timestamp": i})
        db.annotate("r0", anchor_id="anchor-000")  # position 0, not last
        storage.close()

        storage2 = DurableStorage(tmp_path)
        assert storage2.recovered_records == 0
        db2 = ProvenanceDatabase(store=storage2.records)
        assert len(db2) == 3
        assert db2.get("r0")["anchor_id"] == "anchor-000"
        assert db2.get("r2")["timestamp"] == 2
        storage2.close()

    def test_crash_after_annotation_keeps_it(self, tmp_path):
        from repro.storage.provdb import ProvenanceDatabase

        storage = DurableStorage(tmp_path)
        db = ProvenanceDatabase(store=storage.records)
        for i in range(3):
            db.insert({"record_id": f"r{i}", "subject": "s",
                       "timestamp": i})
        db.annotate("r1", anchor_id="anchor-001")
        storage.record_log.fail_after_bytes = 5
        with pytest.raises(CrashPoint):
            db.insert({"record_id": "doomed", "subject": "s",
                       "timestamp": 9})
        storage.close()

        storage2 = DurableStorage(tmp_path)
        db2 = ProvenanceDatabase(store=storage2.records)
        assert len(db2) == 3
        assert db2.get("r1")["anchor_id"] == "anchor-001"
        assert not db2.contains("doomed")
        storage2.close()

    def test_annotation_survives_reopen(self, tmp_path):
        from repro.storage.provdb import ProvenanceDatabase

        storage = DurableStorage(tmp_path)
        db = ProvenanceDatabase(store=storage.records)
        db.insert({"record_id": "r1", "subject": "s", "timestamp": 1})
        db.annotate("r1", anchor_id="anchor-007")
        assert db.get("r1")["anchor_id"] == "anchor-007"
        storage.close()

        storage2 = DurableStorage(tmp_path)
        db2 = ProvenanceDatabase(store=storage2.records)
        assert db2.get("r1")["anchor_id"] == "anchor-007"
        # The sqlite record_id → position column survives too.
        assert storage2._conn.execute(
            "SELECT position FROM records WHERE record_id = 'r1'"
        ).fetchone() == (0,)
        storage2.close()

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
