"""Storage tiering: compaction swap, cold-block archival, and the
compressed frames a store written by the former zlib write mode holds.

Crash discipline under test: the generation swap *is* one sqlite
transaction, so a kill at any byte of the rewrite — or right after the
commit, before cleanup — reconciles to exactly one committed generation
on reopen; archival is one cold-log group whose transaction also deletes
the hot rows, so a kill at any byte of it leaves orphan cold frames the
cold log's recovery walk truncates, and a kill after its commit leaves
hot dead weight the next compaction drops.  A tiered (pruned) deployment
must still reopen with zero replay, serve verified queries for archived
heights, and serve snapshot-sync offers.  Frames are written raw only,
but the reader still inflates flagged frames: such a store reopens and
verifies, and a damaged compressed frame is dropped like any torn write.
"""

from __future__ import annotations

import os
import shutil
import struct
import zlib

import pytest

from repro.chain import Blockchain, ChainParams, Transaction, TxKind
from repro.errors import SyncError
from repro.network import ChainNode, LatencyModel, SimNet
from repro.obs.runtime import telemetry
from repro.persist import DurableStorage, ProvenanceDatabase
from repro.persist.segment import CrashPoint, SegmentLog
from repro.sharding import ShardedChain
from repro.sync import SnapshotServer


def grow(chain: Blockchain, blocks: int, txs_per_block: int = 3,
         tag: str = "") -> None:
    for _ in range(blocks):
        height = chain.height + 1
        txs = [
            Transaction("alice", TxKind.DATA,
                        {"key": f"{tag}b{height}t{j}",
                         "value": f"payload-{height}-{j}" * 4}).seal()
            for j in range(txs_per_block)
        ]
        chain.append_block(chain.build_block(txs, timestamp=height))


def build_store(directory: str, dead_weight: bool = True) -> dict:
    """A durable chain of 18 blocks.  With ``dead_weight``, blocks 0–4
    are archived but the hot log not compacted, so it still holds their
    frames — what compaction exists to reclaim.  Returns the commitments
    reopen must reproduce."""
    storage = DurableStorage(directory)
    chain = Blockchain(ChainParams(chain_id="tier"), store=storage.blocks,
                       snapshot_store=storage.state)
    grow(chain, 18)
    chain.checkpoint()
    if dead_weight:
        assert storage.archive_blocks(keep_tail=14)["archived"] == 5
    out = {
        "height": chain.height,
        "head": chain.head.block_hash,
        "root": chain.state.state_root(),
    }
    chain.close()
    return out


def reopen_and_verify(directory: str, expect: dict) -> None:
    storage = DurableStorage(directory)
    chain = Blockchain(ChainParams(chain_id="tier"), store=storage.blocks,
                       snapshot_store=storage.state)
    assert chain.blocks_replayed_on_open == 0
    assert chain.height == expect["height"]
    assert chain.head.block_hash == expect["head"]
    assert chain.state.state_root() == expect["root"]
    for height in range(1, chain.height + 1):
        assert chain.block_at(height).height == height
    chain.verify(deep=True)
    chain.close()


class TestCompactionCrash:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("compact-base")
        expect = build_store(str(directory / "store"))
        return str(directory / "store"), expect

    @pytest.mark.parametrize("offset", [1, 2, 7, 33, 200, 1_500, 9_000])
    def test_kill_at_any_byte_of_rewrite_reconciles(self, base, tmp_path,
                                                    offset):
        source, expect = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)
        with pytest.raises(CrashPoint):
            storage.compact(fail_after_bytes=offset)
        storage.close()
        # The index never left the old generation: reopen sweeps the
        # half-written rewrite and everything reads back.
        reopen_and_verify(work, expect)
        # And the interrupted compaction can simply run again, and
        # reclaims the archived blocks' hot frames.
        storage = DurableStorage(work)
        stats = storage.compact()
        assert stats["bytes_after"] < stats["bytes_before"]
        storage.close()
        reopen_and_verify(work, expect)

    def test_crash_after_commit_before_cleanup(self, base, tmp_path):
        source, expect = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)
        with pytest.raises(CrashPoint):
            storage.compact(crash_before_cleanup=True)
        storage.close()
        # The swap transaction committed: the new generation is the
        # truth, the orphaned old directory is swept on reopen.
        assert os.path.isdir(os.path.join(work, "blocks-log"))
        reopen_and_verify(work, expect)
        assert not os.path.isdir(os.path.join(work, "blocks-log"))
        assert os.path.isdir(os.path.join(work, "blocks-log.g1"))

    def test_compaction_reclaims_archived_frames(self, base, tmp_path):
        # The dead weight compaction reclaims comes from archival moving
        # cold rows to the cold log — here a second pass on top of the
        # one build_store left uncompacted.
        source, expect = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)
        assert storage.archive_blocks(keep_tail=6)["archived"] > 0
        stats = storage.compact()
        assert stats["bytes_after"] < stats["bytes_before"]
        storage.close()
        reopen_and_verify(work, expect)


def add_records(directory: str) -> list[dict]:
    """Give a store 40 records beside its blocks; returns what reopen
    must read back."""
    storage = DurableStorage(directory)
    db = ProvenanceDatabase(store=storage.records)
    db.insert_many([{"record_id": f"r{i:02d}", "subject": f"s{i % 4}",
                     "timestamp": i, "body": f"payload-{i}" * 6}
                    for i in range(40)])
    expect = list(db.records())
    storage.close()
    return expect


class TestCompactionKeepsRecords:
    """The compaction crash points seen from the rest of the store:
    whenever the hot block log is being rewritten, blocks *and* records
    read back unchanged after every crash."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("compact-both") / "store")
        expect = build_store(directory)
        return directory, expect, add_records(directory)

    def _verify(self, work: str, expect: dict, records: list) -> None:
        reopen_and_verify(work, expect)
        storage = DurableStorage(work)
        assert storage.recovered_blocks == storage.recovered_records == 0
        assert list(storage.records.iter_records()) == records
        storage.close()

    @pytest.mark.parametrize("offset", [1, 9, 200, 1_500])
    def test_kill_at_any_byte_of_rewrite_reconciles(self, base, tmp_path,
                                                    offset):
        source, expect, records = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)
        with pytest.raises(CrashPoint):
            storage.compact(fail_after_bytes=offset)
        storage.close()
        assert os.path.isdir(os.path.join(work, "blocks-log.g1"))
        self._verify(work, expect, records)
        assert not os.path.isdir(os.path.join(work, "blocks-log.g1"))
        storage = DurableStorage(work)
        stats = storage.compact()
        assert stats["generation"] == 1
        assert stats["bytes_after"] < stats["bytes_before"]
        storage.close()
        self._verify(work, expect, records)

    def test_crash_after_commit_before_cleanup(self, base, tmp_path):
        source, expect, records = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)
        with pytest.raises(CrashPoint):
            storage.compact(crash_before_cleanup=True)
        storage.close()
        assert os.path.isdir(os.path.join(work, "blocks-log"))
        self._verify(work, expect, records)
        assert not os.path.isdir(os.path.join(work, "blocks-log"))
        assert os.path.isdir(os.path.join(work, "blocks-log.g1"))

    def test_compaction_drops_only_dead_frames(self, base, tmp_path):
        source, expect, records = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)
        records_log = storage.record_log.directory
        stats = storage.compact()
        live = storage._conn.execute(
            "SELECT COUNT(*) FROM blocks").fetchone()[0]
        assert stats["live_frames"] == live
        # The records log is append-only: compaction leaves it alone.
        assert storage.record_log.directory == records_log
        storage.close()
        self._verify(work, expect, records)


def _tables(work: str) -> tuple[list[int], list[int]]:
    """Heights in ``cold_blocks`` and in ``blocks``."""
    storage = DurableStorage(work)
    try:
        return tuple([height for (height,) in storage._conn.execute(
            f"SELECT height FROM {table} ORDER BY height")]
            for table in ("cold_blocks", "blocks"))
    finally:
        storage.close()


class TestArchivalCrash:
    """``archive_blocks`` is one cold-log group through the log's
    byte-exact crash hook: wherever it dies, the store reopens to the
    same heads and roots, and a retry archives each height exactly
    once."""

    KEEP = 6

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("archive-base") / "store")
        return directory, build_store(directory, dead_weight=False)

    def _retry_archives_once(self, work: str, expect: dict,
                             already: int) -> None:
        # Heights 0 (genesis) through the boundary, inclusive.
        boundary = expect["height"] - self.KEEP
        storage = DurableStorage(work)
        archived = storage.tier(keep_tail=self.KEEP)["archived"]
        assert archived == {"archived": boundary + 1 - already,
                            "boundary": boundary}
        assert storage.archive_blocks(keep_tail=self.KEEP) == \
            {"archived": 0, "boundary": boundary}
        storage.close()
        assert _tables(work) == (list(range(boundary + 1)),
                                 list(range(boundary + 1,
                                            expect["height"] + 1)))
        reopen_and_verify(work, expect)

    @pytest.mark.parametrize("offset", [0, 1, 9, 200, 1_500, 6_000])
    def test_kill_at_any_byte_of_the_cold_group(self, base, tmp_path,
                                                offset):
        source, expect = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)
        storage._cold.log.fail_after_bytes = offset
        with pytest.raises(CrashPoint):
            storage.archive_blocks(keep_tail=self.KEEP)
        storage.close()
        # Nothing committed: the torn cold frames are cut off on reopen
        # and every height is still hot.
        reopen_and_verify(work, expect)
        assert _tables(work) == ([], list(range(expect["height"] + 1)))
        cold_dir = os.path.join(work, "cold_blocks-log")
        assert sum(os.path.getsize(os.path.join(cold_dir, name))
                   for name in os.listdir(cold_dir)) == 0
        self._retry_archives_once(work, expect, already=0)

    def test_kill_after_the_archival_commit_before_compaction(
            self, base, tmp_path, monkeypatch):
        source, expect = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)

        def crash(*args, **kwargs):
            raise CrashPoint("injected crash before the hot compaction")

        monkeypatch.setattr(storage, "compact", crash)
        with pytest.raises(CrashPoint):
            storage.tier(keep_tail=self.KEEP)
        storage.close()
        reopen_and_verify(work, expect)
        self._retry_archives_once(
            work, expect, already=expect["height"] - self.KEEP + 1)

    def test_one_pass_is_one_fsync_and_one_segment_file(
            self, base, tmp_path, monkeypatch):
        """13 blocks archive with 1 fsync and 1 new file (the file-per-
        frame cold tier took 2N + 1 = 27 fsyncs and N + 1 = 14 files)."""
        source, expect = base
        work = str(tmp_path / "store")
        shutil.copytree(source, work)
        storage = DurableStorage(work)

        def files():
            return {os.path.relpath(os.path.join(root, name), work)
                    for root, _, names in os.walk(work) for name in names}

        before = files()
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        counter = telemetry().registry.counter("persist_fsyncs_total")
        counted = counter.value
        archived = storage.archive_blocks(keep_tail=self.KEEP)
        assert archived["archived"] == 13
        assert len(fsyncs) == 1 and counter.value - counted == 1
        monkeypatch.undo()
        new = files() - before
        storage.close()
        assert new == {os.path.join("cold_blocks-log", "seg-00000000.log")}

    def test_tier_is_idempotent(self, tmp_path):
        expect = build_store(str(tmp_path / "store"))
        storage = DurableStorage(str(tmp_path / "store"))
        first = storage.tier(keep_tail=6)
        again = storage.tier(keep_tail=6)
        assert first["archived"]["archived"] > 0
        assert again["archived"]["archived"] == 0
        assert again["archived"]["boundary"] == \
            first["archived"]["boundary"]
        storage.close()
        reopen_and_verify(str(tmp_path / "store"), expect)


def _sealed_source(store_dir: str) -> ShardedChain:
    """A durable 2-shard facade with 12 sealed rounds of 6 txs."""
    sc = ShardedChain(2, storage_dir=store_dir)
    n = 0
    for r in range(12):
        for _ in range(6):
            sc.submit(Transaction(
                sender=f"acct-{n % 5}", kind=TxKind.DATA,
                payload={"key": f"k{n}", "value": f"v{n}" * 8},
                nonce=n, timestamp=100 + n).seal())
            n += 1
        sc.seal_round(timestamp=10_000 + r)
    return sc


class TestPrunedDeployment:
    def test_pruned_replica_reopens_queries_and_serves_sync(
            self, tmp_path):
        store_dir = str(tmp_path / "sharded")
        sc = _sealed_source(store_dir)
        sc.checkpoint()
        stats = sc.tier_storage(keep_tail=4)
        assert all(st["archived"]["archived"] > 0
                   for st in stats.values())
        heights = [sc.shard(s).chain.height for s in range(2)]
        roots = [sc.shard(s).chain.state.state_root() for s in range(2)]
        head = sc.shard(0).chain.head.block_hash
        sc.close()

        pruned = ShardedChain(2, storage_dir=store_dir)
        for s in range(2):
            chain = pruned.shard(s).chain
            assert chain.blocks_replayed_on_open == 0
            assert chain.height == heights[s]
            assert chain.state.state_root() == roots[s]
            # Archived heights still serve — verified — from the cold log.
            for height in range(1, chain.height + 1):
                assert chain.block_at(height).height == height
            chain.verify()

        # The pruned source still serves snapshot-sync offers (a
        # replica starts from the state image) and raw frames for the
        # hot tail; cold history is refused over sync.
        net = SimNet(LatencyModel(base=1, jitter=0), seed=9)
        gateway = ChainNode("gateway", net)
        server = SnapshotServer(pruned)
        gateway.serve_sync(server)
        offer = server.offer(0)
        assert offer["manifest"]["height"] == heights[0]
        assert offer["manifest"]["block_hash"] == head
        boundary = pruned.shard(0).storage.blocks.archived_boundary()
        assert boundary == heights[0] - 4       # exactly keep_tail hot
        tail = server.tail(0, boundary + 1, 64, heights[0])
        assert len(tail["items"]) == heights[0] - boundary
        with pytest.raises(SyncError, match="archived") as cold:
            server.tail(0, 1, 64, heights[0])
        assert cold.value.reason == "cold_history"
        pruned.close()

    def test_replica_fails_over_from_a_tiered_peer(self, tmp_path):
        # A fresh replica asks for the tail from height 1.  The tiered
        # peer's refusal must reach it as a structured SyncError — never
        # the peer's own StorageError raised through net.run() — so it
        # can fail over to a peer that still holds the full history.
        tiered = _sealed_source(str(tmp_path / "tiered"))
        tiered.checkpoint()
        tiered.tier_storage(keep_tail=4)
        full = _sealed_source(str(tmp_path / "full"))
        head = full.shard(0).chain.head.block_hash
        assert tiered.shard(0).chain.head.block_hash == head

        net = SimNet(LatencyModel(base=1, jitter=0), seed=9)
        ChainNode("tiered", net).serve_sync(SnapshotServer(tiered))
        ChainNode("full", net).serve_sync(SnapshotServer(full))
        replica = full.spawn_replica(
            0, str(tmp_path / "replica"), net, node_id="rep",
            peers=["tiered", "full"])
        report = replica.catch_up()
        assert report.peer == "full"
        assert [(e["peer"], e["reason"]) for e in report.errors] == \
            [("tiered", "cold_history")]
        assert replica.chain.head.block_hash == head
        assert replica.chain.state.state_root() == \
            full.shard(0).chain.state.state_root()
        replica.close()

        # With nobody to fail over to it is still a SyncError.
        alone = full.spawn_replica(
            0, str(tmp_path / "alone"), net, node_id="alone",
            peers=["tiered"])
        with pytest.raises(SyncError) as err:
            alone.catch_up()
        assert err.value.reason == "cold_history"
        alone.close()
        full.close()
        tiered.close()


_FLAG_COMPRESSED = 0x8000_0000


def zlib_frame(payload: bytes) -> bytes:
    """A frame as the former ``codec="zlib"`` writer laid it down: the
    length word flagged in bit 31, the deflated body, the CRC-32 of the
    stored (deflated) bytes."""
    stored = zlib.compress(payload, 6)
    assert len(stored) < len(payload)
    return (struct.pack("<I", len(stored) | _FLAG_COMPRESSED) + stored
            + struct.pack("<I", zlib.crc32(stored)))


def open_chain(directory: str) -> tuple[DurableStorage, Blockchain]:
    storage = DurableStorage(directory)
    return storage, Blockchain(ChainParams(chain_id="tier"),
                               store=storage.blocks,
                               snapshot_store=storage.state)


def frame_of(storage: DurableStorage, height: int) -> tuple[str, int, int]:
    """``(segment file, offset, length)`` of a hot block's frame."""
    segment, offset, length = storage._conn.execute(
        "SELECT segment, offset, length FROM blocks WHERE height = ?",
        (height,)).fetchone()
    return (os.path.join(storage.block_log.directory,
                         f"seg-{segment:08d}.log"), offset, length)


def is_compressed(storage: DurableStorage, height: int) -> bool:
    path, offset, _ = frame_of(storage, height)
    with open(path, "rb") as fh:
        fh.seek(offset)
        (word,) = struct.unpack("<I", fh.read(4))
    return bool(word & _FLAG_COMPRESSED)


class TestCompressedFramesStillRead:
    """Heights 1..4 framed raw, 5..7 framed by the former zlib writer."""

    RAW, ZLIB = range(1, 5), range(5, 8)

    @pytest.fixture
    def legacy(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "store")
        storage, chain = open_chain(directory)
        grow(chain, len(self.RAW))
        monkeypatch.setattr(SegmentLog, "_frame", staticmethod(zlib_frame))
        grow(chain, len(self.ZLIB))
        monkeypatch.undo()
        chain.checkpoint()
        expect = {"height": chain.height, "head": chain.head.block_hash,
                  "root": chain.state.state_root()}
        assert [is_compressed(storage, h) for h in (*self.RAW, *self.ZLIB)
                ] == [False] * 4 + [True] * 3
        chain.close()
        return directory, expect

    def test_store_reopens_and_verifies_deep(self, legacy):
        directory, expect = legacy
        reopen_and_verify(directory, expect)
        storage = DurableStorage(directory)
        assert storage.recovered_blocks == 0
        storage.close()

    def test_next_append_is_raw(self, legacy):
        directory, expect = legacy
        storage, chain = open_chain(directory)
        grow(chain, 1)
        assert not is_compressed(storage, expect["height"] + 1)
        assert all(is_compressed(storage, h) for h in self.ZLIB)
        chain.close()
        storage, chain = open_chain(directory)
        assert chain.height == expect["height"] + 1
        chain.verify(deep=True)
        chain.close()

    @pytest.mark.parametrize("damage", ["crc", "deflate"])
    def test_damaged_compressed_tail_is_dropped(self, legacy, damage):
        directory, expect = legacy
        storage = DurableStorage(directory)
        path, offset, length = frame_of(storage, expect["height"])
        storage.close()
        with open(path, "rb+") as fh:
            fh.seek(offset + 4)
            body = fh.read(length - 8)
            if damage == "crc":
                # A flipped body byte: the CRC, checked before inflating,
                # no longer matches.
                fh.seek(offset + 4)
                fh.write(bytes([body[0] ^ 0xFF]))
            else:
                # A CRC-valid body that is not a deflate stream.
                fh.seek(offset + 4)
                garbage = b"\x00" * len(body)
                fh.write(garbage + struct.pack("<I", zlib.crc32(garbage)))

        storage, chain = open_chain(directory)
        assert storage.recovered_blocks == 1
        assert chain.height == expect["height"] - 1
        # The log is cut at the dropped frame: nothing after it is kept.
        assert os.path.getsize(path) == offset
        chain.verify(deep=True)
        grow(chain, 1)
        assert not is_compressed(storage, expect["height"])
        chain.close()

    def test_compaction_rewrites_compressed_frames_raw(self, legacy):
        directory, expect = legacy
        storage = DurableStorage(directory)
        storage.compact()
        assert not any(is_compressed(storage, h)
                       for h in (*self.RAW, *self.ZLIB))
        storage.close()
        reopen_and_verify(directory, expect)
