"""Stores tiered by older builds open here with their cold tier folded back.

Two goldens hold the same deployment — :func:`build_deployment`'s 12
seeded rounds on 2 durable shards — tiered with ``keep_tail=4`` by the
build of its day and closed:

* ``tests/golden/parent_tiered_store.tar.gz``, written at b1ac7f8, whose
  cold tier was a file-per-frame CAS: its archived blocks are one file
  each under ``archive/`` and their ``blocks`` rows say ``segment = -1``
  plus a ``cas_key`` (unnumbered, placed as store format 2);
* ``tests/golden/parent_cold_store.tar.gz``, written at 517e5c0, store
  format 5: its archived blocks are the ``cold_blocks`` log and table,
  and its block log was compacted into ``blocks-log.g1``.

The ``.json`` beside each holds what that deployment committed —
heights, block hashes, state roots, the beacon head, the archival
boundary per shard and the digests of 20 federated proofs.  Both were
written with this module's script, :func:`commitments` and
:func:`proof_digests` as they stood at those commits; no later build can
write one, as none has a cold tier.

The first open folds every archived frame back into the block log.  The
step 2 → 3 moves the CAS files into the ``cold_blocks`` log (one group,
failing closed on a frame whose hash is not its row's) and removes
``archive/``; the step 5 → 6 checks every cold frame against its row's
block hash the same way, writes the cold and hot frames in height order
into the block log's next generation, takes the rows over and drops
``cold_blocks`` in one sqlite transaction, then removes the old
directories.  A kill at any byte of either log write, after either
commit but before the old directories go, or after that but before the
stamp, reopens to the same store — and that store is, frame for frame,
what the same script writes here without ever tiering.  The steps
3 → 4, 4 → 5 and 5 → 6 killed at every statement are in
``tests/test_crash_matrix.py``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import shutil
import sqlite3
import struct
import tarfile
import zlib

import pytest

from repro.chain import Transaction, TxKind
from repro.errors import StorageError
from repro.network import ChainNode, LatencyModel, SimNet
from repro.obs.runtime import telemetry
from repro.persist import DurableStorage
from repro.persist.codec import transaction_embedded
from repro.persist.durable import IndexedLog
from repro.persist.segment import CrashPoint, SegmentLog
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain, ShardedQueryEngine
from repro.sync import SnapshotServer
from repro.verify import bundle_to_mapping

from .test_crash_matrix import open_fds_under

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDENS = ("parent_tiered_store", "parent_cold_store")
SHARDS = ("shard-0", "shard-1")
N_PROOFS = 20


def open_deployment(store: str) -> ShardedChain:
    return ShardedChain(2, storage_dir=store, anchor_batch_size=4,
                        executor="serial")


def build_deployment(store: str) -> None:
    """12 seeded rounds of transactions and records on a durable 2-shard
    deployment, then ``close`` — the goldens' script, less the tiering
    pass their builds ran before the close."""
    rng = random.Random(2505)
    sharded = open_deployment(store)
    for r in range(12):
        sharded.submit_many([
            Transaction(f"acct-{rng.randrange(5)}", TxKind.DATA,
                        {"subject": f"ns{rng.randrange(9)}/obj{i % 4}",
                         "key": f"k{r}-{i}", "value": rng.randrange(1000)},
                        nonce=r * 1000 + i, timestamp=r).seal()
            for i in range(rng.randrange(4, 12))])
        sharded.ingest_records([
            {"record_id": f"rec-{r:02d}-{i:02d}",
             "subject": f"ns{rng.randrange(9)}/obj{i % 4}",
             "actor": f"a{rng.randrange(4)}", "operation": "write",
             "timestamp": r * 1000 + i}
            for i in range(rng.randrange(2, 9))])
        sharded.seal_round(timestamp=r + 1)
    sharded.close()


def proof_digest(proof) -> str:
    """sha256 of a whole :class:`~repro.sharding.FederatedProof`."""
    bundle = proof.anchor_bundle
    return hashlib.sha256(canonical_encode({
        "shard_id": proof.shard_id,
        "record_id": proof.record_id,
        "anchor_bundle": {
            "record_proof": dataclasses.asdict(bundle.record_proof),
            "batch_root": bundle.batch_root,
            "anchor_tx": transaction_embedded(bundle.anchor_tx),
            "tx_proof": dataclasses.asdict(bundle.tx_proof),
            "block_height": bundle.block_height,
        },
        "shard_header": proof.shard_header.to_canonical(),
        "beacon_bundle": bundle_to_mapping(proof.beacon_bundle),
    })).hexdigest()


def proof_digests(sharded: ShardedChain,
                  ingested: list[tuple[str, str]]) -> list[list[str]]:
    """``[record_id, subject, proof digest]`` of the first
    :data:`N_PROOFS` anchored records; every proof verifies against its
    beacon header."""
    engine = ShardedQueryEngine(sharded)
    digests = []
    for record_id, subject in ingested:
        shard = sharded.shard_for_subject(subject)
        if not shard.anchor.is_anchored(record_id):
            continue
        proof = engine.federated_proof(record_id, subject)
        header = sharded.beacon.chain.block_at(proof.beacon_height).header
        assert proof.verify(shard.database.get(record_id), header)
        digests.append([record_id, subject, proof_digest(proof)])
        if len(digests) == N_PROOFS:
            break
    return digests


def commitments(sharded: ShardedChain) -> dict:
    shards = []
    for shard in sharded.shards:
        chain = shard.chain
        shards.append({
            "height": chain.height,
            "block_hashes": [chain.block_at(h).block_hash.hex()
                             for h in range(chain.height + 1)],
            "state_root": chain.state.state_root().hex(),
        })
    return {"shards": shards,
            "beacon_head": sharded.beacon.chain.head.block_hash.hex(),
            "beacon_height": sharded.beacon.chain.height}


def extract(tmp_path, golden: str) -> tuple[str, dict]:
    with open(os.path.join(GOLDEN_DIR, f"{golden}.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    with tarfile.open(os.path.join(GOLDEN_DIR, f"{golden}.tar.gz")) as tar:
        tar.extractall(tmp_path, filter="data")
    return str(tmp_path / golden), manifest


def layout(store: str) -> list[dict]:
    """Per shard store: its format, which heights each block table holds
    (``None``: no such table), the legacy marker and the directories
    beside ``index.db``."""
    out = []
    for name in SHARDS:
        directory = os.path.join(store, name)
        conn = sqlite3.connect(os.path.join(directory, "index.db"))
        try:
            present = {name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            tables = {table: [h for (h,) in conn.execute(
                          f"SELECT height FROM {table} ORDER BY height")]
                      if table in present else None
                      for table in ("cold_blocks", "blocks")}
            marker = conn.execute("SELECT COUNT(*) FROM meta WHERE key = "
                                  "'blocks_archived'").fetchone()[0]
            (version,) = conn.execute("PRAGMA user_version").fetchone()
        finally:
            conn.close()
        dirs = sorted(entry for entry in os.listdir(directory)
                      if os.path.isdir(os.path.join(directory, entry)))
        out.append({**tables, "marker": marker, "version": version,
                    "dirs": dirs})
    return out


def index_rows(store: str) -> list[dict]:
    """Per shard store: the block table's columns (b1ac7f8's also had
    a ``cas_key``, which the step 2 → 3 drops), its rows, the tx rows
    and the derived rows."""
    out = []
    for name in SHARDS:
        conn = sqlite3.connect(os.path.join(store, name, "index.db"))
        try:
            out.append({
                "blocks_columns": conn.execute(
                    "PRAGMA table_info(blocks)").fetchall(),
                "blocks": conn.execute(
                    "SELECT * FROM blocks ORDER BY height").fetchall(),
                "txs": conn.execute(
                    "SELECT * FROM txs ORDER BY tx_id").fetchall(),
                "derived": conn.execute(
                    "SELECT * FROM meta WHERE key LIKE 'derived/%' "
                    "ORDER BY key").fetchall(),
            })
        finally:
            conn.close()
    return out


def block_logs(store: str) -> list[str]:
    """Per shard store: sha256 over the segment files of its one block
    log directory, whichever generation it is."""
    out = []
    for name in SHARDS:
        directory = os.path.join(store, name)
        (log,) = [entry for entry in os.listdir(directory)
                  if entry.startswith("blocks-log")]
        digest = hashlib.sha256()
        for segment in sorted(os.listdir(os.path.join(directory, log))):
            with open(os.path.join(directory, log, segment), "rb") as fh:
                digest.update(fh.read())
        out.append(digest.hexdigest())
    return out


def assert_folded(store: str, manifest: dict) -> None:
    """Opened, the deployment reads every height, verifies deep and
    proves what the parent proved; closed, each shard store is at
    format 7 with every height in ``blocks``, one block log and nothing
    of a cold tier."""
    sharded = open_deployment(store)
    try:
        got = commitments(sharded)
        assert got == {key: manifest[key] for key in got}
        sharded.verify_all(deep=True)
        ingested = [(record_id, subject)
                    for record_id, subject, _ in manifest["proofs"]]
        assert proof_digests(sharded, ingested) == manifest["proofs"]
    finally:
        sharded.close()
    for shard, want in zip(layout(store), manifest["shards"]):
        assert shard["version"] == 7 and shard["cold_blocks"] is None
        assert shard["blocks"] == list(range(want["height"] + 1))
        assert shard["marker"] == 0
        assert [entry.partition(".")[0] for entry in shard["dirs"]] \
            == ["blocks-log", "records-log"]


def upgrades() -> tuple[int, ...]:
    counter = telemetry().registry.counter
    return tuple(counter("store_format_upgrades_total",
                         **{"from": start, "to": start + 1}).value
                 for start in (2, 3, 4, 5, 6))


def tx_rows(store: str) -> list[list[tuple]]:
    """Per shard store: ``(tx_id as hex, height, pos)`` of every tx,
    read from whichever format the store is at (the id is a hex string
    up to format 4, its 32 bytes from 5)."""
    out = []
    for name in SHARDS:
        conn = sqlite3.connect(os.path.join(store, name, "index.db"))
        try:
            out.append(conn.execute(
                "SELECT CASE typeof(tx_id) WHEN 'blob' THEN "
                "lower(hex(tx_id)) ELSE tx_id END, height, pos FROM txs "
                "ORDER BY 1").fetchall())
        finally:
            conn.close()
    return out


class TestParentTieredStore:
    """The file-per-frame cold tier: the step 2 → 3's kill points."""

    def test_opens_upgraded_once(self, tmp_path):
        store, manifest = extract(tmp_path, "parent_tiered_store")
        before = layout(store)
        for shard, boundary in zip(before,
                                   manifest["archived_boundaries"]):
            assert shard["cold_blocks"] is None and shard["marker"] == 1
            assert "archive" in shard["dirs"] and shard["version"] == 0
            assert shard["blocks"][:boundary + 1] == \
                list(range(boundary + 1))
        txs = tx_rows(store)
        assert all(txs)
        was = upgrades()
        assert_folded(store, manifest)
        # 2 → 3 → 4 → 5 → 6 → 7 on the beacon and both shards.
        assert [now - then for now, then in zip(upgrades(), was)] \
            == [3, 3, 3, 3, 3]
        assert tx_rows(store) == txs
        folded = layout(store), index_rows(store), block_logs(store)
        assert_folded(store, manifest)          # a second open ...
        assert (layout(store), index_rows(store), block_logs(store)) \
            == folded                           # ... changes nothing
        assert [now - then for now, then in zip(upgrades(), was)] \
            == [3, 3, 3, 3, 3]

    @pytest.mark.parametrize("offset", [0, 7, 300, 2_000])
    def test_kill_inside_the_upgrade_log_write(self, tmp_path, monkeypatch,
                                               offset):
        store, manifest = extract(tmp_path, "parent_tiered_store")
        opened = IndexedLog.__init__

        def armed(self, conn, directory, table, *args, **kwargs):
            opened(self, conn, directory, table, *args, **kwargs)
            if table == "cold_blocks":
                self.log.fail_after_bytes = offset

        monkeypatch.setattr(IndexedLog, "__init__", armed)
        with pytest.raises(CrashPoint):
            DurableStorage(os.path.join(store, "shard-0"))
        monkeypatch.undo()
        shard = layout(store)[0]
        assert shard["cold_blocks"] == [] and shard["marker"] == 1
        assert "archive" in shard["dirs"] and shard["version"] == 0
        assert_folded(store, manifest)

    def test_a_damaged_archived_frame_fails_the_open_closed(self, tmp_path):
        store, manifest = extract(tmp_path, "parent_tiered_store")
        directory = os.path.join(store, "shard-0")
        conn = sqlite3.connect(os.path.join(directory, "index.db"))
        (cas_key,) = conn.execute(
            "SELECT cas_key FROM blocks WHERE height = 3").fetchone()
        (prev_hash,) = conn.execute(
            "SELECT block_hash FROM blocks WHERE height = 2").fetchone()
        conn.close()
        digest = cas_key.partition(":")[2]
        path = os.path.join(directory, "archive", "blobs", digest[:2],
                            digest)
        with open(path, "rb") as fh:
            frame = bytearray(fh.read())
        frame[frame.index(prev_hash)] ^= 1      # decodes, hashes wrong
        with open(path, "wb") as fh:
            fh.write(frame)
        with pytest.raises(StorageError, match="block hash"):
            DurableStorage(directory)
        shard = layout(store)[0]
        assert shard["cold_blocks"] is None and shard["marker"] == 1
        assert "archive" in shard["dirs"] and shard["version"] == 0

    def test_kill_after_the_upgrade_commit(self, tmp_path, monkeypatch):
        store, manifest = extract(tmp_path, "parent_tiered_store")
        remove = shutil.rmtree

        def crash_on_archive(path, *args, **kwargs):
            if os.path.basename(path) == "archive" and os.path.isdir(path):
                raise CrashPoint("injected crash before archive/ is gone")
            remove(path, *args, **kwargs)

        monkeypatch.setattr(shutil, "rmtree", crash_on_archive)
        with pytest.raises(CrashPoint):
            DurableStorage(os.path.join(store, "shard-0"))
        monkeypatch.undo()
        shard = layout(store)[0]
        assert shard["cold_blocks"] == list(
            range(manifest["archived_boundaries"][0] + 1))
        assert shard["marker"] == 0 and "archive" in shard["dirs"]
        assert shard["version"] == 0
        assert_folded(store, manifest)

    def test_kill_after_archive_is_gone_before_the_format_stamp(
            self, tmp_path, monkeypatch):
        store, manifest = extract(tmp_path, "parent_tiered_store")
        remove = shutil.rmtree

        def crash_after_archive(path, *args, **kwargs):
            remove(path, *args, **kwargs)
            if os.path.basename(path) == "archive":
                raise CrashPoint("injected crash before the format stamp")

        monkeypatch.setattr(shutil, "rmtree", crash_after_archive)
        with pytest.raises(CrashPoint):
            DurableStorage(os.path.join(store, "shard-0"))
        monkeypatch.undo()
        shard = layout(store)[0]
        assert shard["cold_blocks"] == list(
            range(manifest["archived_boundaries"][0] + 1))
        assert shard["marker"] == 0 and "archive" not in shard["dirs"]
        assert shard["version"] == 0
        assert_folded(store, manifest)


@pytest.fixture(params=GOLDENS)
def golden(request, tmp_path) -> tuple[str, dict]:
    return extract(tmp_path, request.param)


class TestFold:
    """The step 5 → 6 on both goldens: every kill point reopens to the
    store an uninterrupted open leaves, and that store is the one the
    untiered script writes, serving every height."""

    @staticmethod
    def _at_the_fold(store: str, manifest: dict, committed: bool) -> dict:
        """Shard 0 stopped inside the step: format 5, the steps before
        it done, and the cold rows in ``blocks`` once it committed."""
        shard = layout(store)[0]
        assert shard["version"] == 5 and shard["marker"] == 0
        assert "archive" not in shard["dirs"]
        boundary = manifest["archived_boundaries"][0]
        assert shard["cold_blocks"] == (
            None if committed else list(range(boundary + 1)))
        assert shard["blocks"] == list(range(
            0 if committed else boundary + 1,
            manifest["shards"][0]["height"] + 1))
        return shard

    # The fold writes 11 754 bytes into shard 0's new generation.
    @pytest.mark.parametrize("offset", [0, 1, 7, 300, 2_000, 9_000, 11_000])
    def test_kill_at_any_byte_of_the_fold_write(self, golden, monkeypatch,
                                                offset):
        store, manifest = golden
        opened = SegmentLog.__init__

        def armed(self, directory, *args, **kwargs):
            fresh = not os.path.isdir(directory)
            opened(self, directory, *args, **kwargs)
            if fresh and os.path.basename(directory).startswith(
                    "blocks-log.g"):
                self.fail_after_bytes = offset

        monkeypatch.setattr(SegmentLog, "__init__", armed)
        with pytest.raises(CrashPoint):
            DurableStorage(os.path.join(store, "shard-0"))
        monkeypatch.undo()
        shard = self._at_the_fold(store, manifest, committed=False)
        assert {"blocks-log.g1", "blocks-log.g2", "cold_blocks-log"} \
            <= set(shard["dirs"])
        assert_folded(store, manifest)

    def test_kill_after_the_fold_commit_before_the_old_directories_go(
            self, golden, monkeypatch):
        store, manifest = golden
        remove = shutil.rmtree

        def crash_on_old_log(path, *args, **kwargs):
            if os.path.basename(path) == "blocks-log.g1":
                raise CrashPoint("injected crash before the old log goes")
            remove(path, *args, **kwargs)

        monkeypatch.setattr(shutil, "rmtree", crash_on_old_log)
        with pytest.raises(CrashPoint):
            DurableStorage(os.path.join(store, "shard-0"))
        monkeypatch.undo()
        shard = self._at_the_fold(store, manifest, committed=True)
        assert {"blocks-log.g1", "blocks-log.g2", "cold_blocks-log"} \
            <= set(shard["dirs"])
        assert_folded(store, manifest)

    def test_kill_after_the_old_directories_go_before_the_stamp(
            self, golden, monkeypatch):
        store, manifest = golden
        remove = shutil.rmtree

        def crash_after_cold_log(path, *args, **kwargs):
            remove(path, *args, **kwargs)
            if os.path.basename(path) == "cold_blocks-log":
                raise CrashPoint("injected crash before the format stamp")

        monkeypatch.setattr(shutil, "rmtree", crash_after_cold_log)
        with pytest.raises(CrashPoint):
            DurableStorage(os.path.join(store, "shard-0"))
        monkeypatch.undo()
        shard = self._at_the_fold(store, manifest, committed=True)
        assert [entry.partition(".")[0] for entry in shard["dirs"]] \
            == ["blocks-log", "records-log"]
        assert_folded(store, manifest)

    def test_the_same_script_here_writes_the_same_store(self, golden,
                                                        tmp_path):
        """Never tiered, the script commits and proves what the parent
        did, and its block log, block table columns and index rows are
        byte for byte the folded golden's: the fold writes every frame
        in height order."""
        store, manifest = golden
        assert_folded(store, manifest)
        fresh = str(tmp_path / "fresh")
        build_deployment(fresh)
        assert_folded(fresh, manifest)
        assert block_logs(fresh) == block_logs(store)
        assert index_rows(fresh) == index_rows(store)

    def test_a_folded_node_serves_every_height_to_a_fresh_replica(
            self, golden, tmp_path):
        """What a tiered node refused (the whole history below its hot
        tail) a folded one serves: a fresh replica of each shard catches
        up from it alone, and its block log is the source's, byte for
        byte."""
        store, manifest = golden
        sharded = open_deployment(store)
        net = SimNet(LatencyModel(base=1, jitter=0), seed=9)
        ChainNode("folded", net).serve_sync(SnapshotServer(sharded))
        replicas = str(tmp_path / "replicas")
        try:
            for shard in sharded.shards:
                chain = shard.chain
                items = chain.store.raw_block_items(0, chain.height + 1)
                assert [item["height"] for item in items] \
                    == list(range(chain.height + 1))
                replica = sharded.spawn_replica(
                    shard.shard_id,
                    os.path.join(replicas, f"shard-{shard.shard_id}"), net,
                    node_id=f"replica-{shard.shard_id}", peers=["folded"])
                report = replica.catch_up()
                assert report.peer == "folded" and report.errors == []
                assert replica.chain.head.block_hash == chain.head.block_hash
                assert replica.chain.state.state_root() \
                    == chain.state.state_root()
                replica.close()
        finally:
            sharded.close()
        assert block_logs(replicas) == block_logs(store)

    def test_sync_unwinds_below_where_the_cold_tier_was(self, golden):
        """No boundary refuses a truncation: a tail unwound below the
        heights the cold tier held installs back to the same store."""
        store, manifest = golden
        storage = DurableStorage(os.path.join(store, "shard-0"))
        try:
            height = storage.blocks.height()
            items = storage.blocks.raw_block_items(0, height + 1)
            cut = manifest["archived_boundaries"][0] - 3
            storage.blocks.truncate_above(cut)
            assert storage.blocks.height() == cut
            assert storage.blocks.raw_block_items(0, height + 1) \
                == items[:cut + 1]
            storage.blocks.install_raw(items[cut + 1:])
            assert storage.blocks.raw_block_items(0, height + 1) == items
        finally:
            storage.close()
        assert_folded(store, manifest)

    def test_a_torn_block_log_tail_is_dropped_before_the_fold(self, golden):
        """The block log's recovery walk runs before its frames are
        copied: a torn newest frame is dropped with its tx rows, counted
        in ``recovered_blocks``, and every other height folds."""
        store, manifest = golden
        directory = os.path.join(store, "shard-0")
        segment = os.path.join(directory, "blocks-log.g1",
                               "seg-00000000.log")
        os.truncate(segment, os.path.getsize(segment) - 3)
        want = manifest["shards"][0]
        storage = DurableStorage(directory)
        try:
            assert storage.recovered_blocks == 1
            assert storage.blocks.height() == want["height"] - 1
            assert [storage.blocks.block_at(h).block_hash.hex()
                    for h in range(want["height"])] \
                == want["block_hashes"][:-1]
            assert storage.blocks.raw_block_items(
                want["height"] - 1, 2)[-1]["height"] == want["height"] - 1
        finally:
            storage.close()
        shard = layout(store)[0]
        assert shard["version"] == 7 and shard["cold_blocks"] is None
        assert shard["blocks"] == list(range(want["height"]))


@pytest.mark.parametrize("damage", ["hash", "crc", "torn"])
def test_a_damaged_cold_frame_fails_the_open_closed(tmp_path, damage):
    """A cold frame that does not hash to its row's block hash, fails
    its CRC or is cut short stops the open before the fold writes
    anything — the older build's recovery walk would have dropped a
    torn one — and every open after it fails the same way."""
    store, manifest = extract(tmp_path, "parent_cold_store")
    directory = os.path.join(store, "shard-0")
    conn = sqlite3.connect(os.path.join(directory, "index.db"))
    segment, offset, length = conn.execute(
        "SELECT segment, offset, length FROM cold_blocks WHERE height = 3"
    ).fetchone()
    (prev_hash,) = conn.execute(
        "SELECT block_hash FROM cold_blocks WHERE height = 2").fetchone()
    conn.close()
    path = os.path.join(directory, "cold_blocks-log",
                        f"seg-{segment:08d}.log")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    payload = data[offset + 4:offset + length - 4]
    payload[payload.index(prev_hash)] ^= 1
    crc = zlib.crc32(payload) if damage == "hash" else \
        struct.unpack("<I", data[offset + length - 4:offset + length])[0]
    if damage == "torn":
        del data[offset + length - 2:]
    else:
        data[offset + 4:offset + length] = payload + struct.pack("<I", crc)
    with open(path, "wb") as fh:
        fh.write(data)
    before = layout(store)[0]
    assert before["version"] == 5 and before["cold_blocks"]
    for _ in range(2):
        gc.disable()
        try:
            with pytest.raises(StorageError, match="block hash" if
                               damage == "hash" else "invalid frame"):
                DurableStorage(directory)
            assert open_fds_under(store) == []
        finally:
            gc.enable()
        assert layout(store)[0] == before
