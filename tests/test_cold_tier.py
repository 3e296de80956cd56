"""A store tiered by the previous cold-tier format opens here, upgraded.

``tests/golden/parent_tiered_store.tar.gz`` is a 2-shard durable
deployment built by :func:`build_tiered` on commit b1ac7f8 (the last one
whose cold tier was a file-per-frame CAS), then tiered
(``tier_storage(keep_tail=4)``) and closed: its archived blocks are one
file each under ``archive/`` and their ``blocks`` rows say
``segment = -1`` plus a ``cas_key``.  ``parent_tiered_store.json`` holds
what that deployment committed — heights, block hashes, state roots, the
archival boundary per shard and the digests of 20 federated proofs.
Both were written by ``PYTHONPATH=src python tests/test_cold_tier.py
<out dir>`` in a checkout of that commit.

The first open runs the store-format step 2 → 3: it moves every
archived frame into the ``cold_blocks`` log (one group, failing closed on
a frame whose hash is not its row's), deletes the marker and
``archive/``, then stamps format 3; a kill inside that step — mid log
write, after its commit but before ``archive/`` is gone, or after that
but before the stamp — reopens to the same store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import sqlite3
import sys
import tarfile

import pytest

from repro.chain import Transaction, TxKind
from repro.errors import StorageError
from repro.obs.runtime import telemetry
from repro.persist import DurableStorage
from repro.persist.codec import transaction_embedded
from repro.persist.durable import IndexedLog
from repro.persist.segment import CrashPoint
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain, ShardedQueryEngine
from repro.sync.codec import bundle_to_mapping

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
N_PROOFS = 20


def open_tiered(store: str) -> ShardedChain:
    return ShardedChain(2, storage_dir=store, anchor_batch_size=4,
                        reorg_journal_depth=3, executor="serial")


def build_tiered(store: str) -> list[tuple[str, str]]:
    """12 seeded rounds of transactions and records on a durable 2-shard
    deployment, then ``tier_storage(keep_tail=4)`` and ``close``;
    returns ``(record_id, subject)`` of every ingested record."""
    rng = random.Random(2505)
    sharded = open_tiered(store)
    ingested = []
    for r in range(12):
        sharded.submit_many([
            Transaction(f"acct-{rng.randrange(5)}", TxKind.DATA,
                        {"subject": f"ns{rng.randrange(9)}/obj{i % 4}",
                         "key": f"k{r}-{i}", "value": rng.randrange(1000)},
                        nonce=r * 1000 + i, timestamp=r).seal()
            for i in range(rng.randrange(4, 12))])
        records = [{"record_id": f"rec-{r:02d}-{i:02d}",
                    "subject": f"ns{rng.randrange(9)}/obj{i % 4}",
                    "actor": f"a{rng.randrange(4)}", "operation": "write",
                    "timestamp": r * 1000 + i}
                   for i in range(rng.randrange(2, 9))]
        sharded.ingest_records(records)
        ingested.extend((rec["record_id"], rec["subject"])
                        for rec in records)
        sharded.seal_round(timestamp=r + 1)
    sharded.tier_storage(keep_tail=4)
    sharded.close()
    return ingested


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


def write_fixture(out_dir: str) -> None:
    """Build the tiered store under ``out_dir`` and write the tarball
    and manifest next to it."""
    store = os.path.join(out_dir, "parent_tiered_store")
    ingested = build_tiered(store)
    with tarfile.open(os.path.join(out_dir, "parent_tiered_store.tar.gz"),
                      "w:gz") as tar:
        tar.add(store, arcname="parent_tiered_store")
    boundaries = []
    for name in ("shard-0", "shard-1"):
        conn = sqlite3.connect(os.path.join(store, name, "index.db"))
        boundaries.append(conn.execute(
            "SELECT MAX(height) FROM blocks WHERE segment < 0"
        ).fetchone()[0])
        conn.close()
    sharded = open_tiered(store)
    manifest = commitments(sharded)
    manifest["archived_boundaries"] = boundaries
    manifest["proofs"] = proof_digests(sharded, ingested)
    sharded.close()
    with open(os.path.join(out_dir, "parent_tiered_store.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def extract(tmp_path) -> tuple[str, dict]:
    with open(os.path.join(GOLDEN_DIR, "parent_tiered_store.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    with tarfile.open(os.path.join(GOLDEN_DIR,
                                   "parent_tiered_store.tar.gz")) as tar:
        tar.extractall(tmp_path, filter="data")
    return str(tmp_path / "parent_tiered_store"), manifest


def layout(store: str) -> list[dict]:
    """Per shard store: its format, which heights each table holds
    (``None``: no such table), the legacy marker and directory, and the
    cold log's bytes."""
    out = []
    for name in ("shard-0", "shard-1"):
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
        cold_dir = os.path.join(directory, "cold_blocks-log")
        cold = hashlib.sha256()
        for segment in sorted(os.listdir(cold_dir)
                              if os.path.isdir(cold_dir) else []):
            with open(os.path.join(cold_dir, segment), "rb") as fh:
                cold.update(fh.read())
        out.append({**tables, "marker": marker, "version": version,
                    "archive": os.path.isdir(os.path.join(directory,
                                                          "archive")),
                    "cold_bytes": cold.hexdigest()})
    return out


def index_rows(store: str) -> list[dict]:
    """Per shard store: the tx, receipt and derived rows, as stored."""
    out = []
    for name in ("shard-0", "shard-1"):
        conn = sqlite3.connect(os.path.join(store, name, "index.db"))
        try:
            out.append({
                "txs": conn.execute(
                    "SELECT * FROM txs ORDER BY tx_id").fetchall(),
                "receipts": conn.execute(
                    "SELECT * FROM receipts ORDER BY tx_id").fetchall(),
                "derived": conn.execute(
                    "SELECT * FROM meta WHERE key LIKE 'derived/%' "
                    "ORDER BY key").fetchall(),
            })
        finally:
            conn.close()
    return out


def assert_upgraded(store: str, manifest: dict) -> None:
    """Opened, the deployment reads every height, verifies deep and
    proves what the parent proved; closed, the shard stores hold the
    parent's archived heights in their cold tables and nothing of the
    old format."""
    sharded = open_tiered(store)
    try:
        got = commitments(sharded)
        assert got == {key: manifest[key] for key in got}
        assert [s.storage.blocks.archived_boundary()
                for s in sharded.shards] == manifest["archived_boundaries"]
        sharded.verify_all(deep=True)
        ingested = [(record_id, subject)
                    for record_id, subject, _ in manifest["proofs"]]
        assert proof_digests(sharded, ingested) == manifest["proofs"]
    finally:
        sharded.close()
    for shard, boundary, want in zip(layout(store),
                                     manifest["archived_boundaries"],
                                     manifest["shards"]):
        assert shard["cold_blocks"] == list(range(boundary + 1))
        assert shard["blocks"] == list(range(boundary + 1,
                                             want["height"] + 1))
        assert shard["marker"] == 0 and not shard["archive"]
        assert shard["version"] == 3


def upgrades() -> int:
    return telemetry().registry.counter("store_format_upgrades_total",
                                        **{"from": 2, "to": 3}).value


class TestParentTieredStore:
    def test_opens_upgraded_once(self, tmp_path):
        store, manifest = extract(tmp_path)
        before = layout(store)
        for shard, boundary in zip(before,
                                   manifest["archived_boundaries"]):
            assert shard["cold_blocks"] is None and shard["marker"] == 1
            assert shard["archive"] and shard["version"] == 0
            assert shard["blocks"][:boundary + 1] == \
                list(range(boundary + 1))
        was = upgrades()
        assert_upgraded(store, manifest)
        assert upgrades() - was == 3            # beacon and both shards
        upgraded = layout(store)
        assert_upgraded(store, manifest)        # a second open ...
        assert layout(store) == upgraded        # ... changes nothing
        assert upgrades() - was == 3

    @pytest.mark.parametrize("offset", [0, 7, 300, 2_000])
    def test_kill_inside_the_upgrade_log_write(self, tmp_path, monkeypatch,
                                               offset):
        store, manifest = extract(tmp_path)
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
        assert shard["archive"] and shard["version"] == 0
        assert_upgraded(store, manifest)

    def test_the_same_script_here_writes_the_same_store(self, tmp_path):
        """Tiered on this tree, the script commits what the parent did,
        and its cold log is byte for byte the upgraded parent's."""
        store, manifest = extract(tmp_path)
        assert_upgraded(store, manifest)
        fresh = str(tmp_path / "fresh")
        build_tiered(fresh)
        assert_upgraded(fresh, manifest)
        assert layout(fresh) == layout(store)
        assert index_rows(fresh) == index_rows(store)

    def test_a_damaged_archived_frame_fails_the_open_closed(self, tmp_path):
        store, manifest = extract(tmp_path)
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
        assert shard["cold_blocks"] == [] and shard["marker"] == 1
        assert shard["archive"]

    def test_kill_after_the_upgrade_commit(self, tmp_path, monkeypatch):
        store, manifest = extract(tmp_path)
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
        assert shard["marker"] == 0 and shard["archive"]
        assert shard["version"] == 0
        assert_upgraded(store, manifest)

    def test_kill_after_archive_is_gone_before_the_format_stamp(
            self, tmp_path, monkeypatch):
        store, manifest = extract(tmp_path)
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
        assert shard["marker"] == 0 and not shard["archive"]
        assert shard["version"] == 0
        assert_upgraded(store, manifest)


if __name__ == "__main__":
    write_fixture(sys.argv[1])
