"""Snapshot sync: codec round trips, verified catch-up, byzantine
servers, crash-resume, and convergence under injected network faults.

The byzantine suite runs the full rejection matrix from the ISSUE: a
corrupt chunk, a truncated tail, a forged head hash, a forged state
image, a wrong-height offer, and a stale snapshot must each fail closed
with a structured :class:`~repro.errors.SyncError` — and a client given
a second, honest peer must then converge anyway.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Block, ChainParams, Transaction, TxKind
from repro.chain.block import GENESIS_PREV_HASH
from repro.errors import ShardError, SyncError
from repro.network import ChainNode, LatencyModel, SimNet
from repro.persist import DurableStorage
from repro.persist.codec import decode_block, encode_block
from repro.persist.segment import CrashPoint
from repro.sharding import ShardedChain, ShardedQueryEngine
from repro.sharding.router import namespace_of
from repro.sync import (
    SnapshotManifest,
    SnapshotServer,
    chunk_digest,
    decode_image,
    encode_image,
    scan_block_frame,
    split_chunks,
)

from .test_transport import log_files


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def make_records(n: int, tag: str = "r") -> list[dict]:
    return [
        {"record_id": f"{tag}{i:04d}", "subject": f"org{i % 8}/asset-{i % 5}",
         "actor": f"actor-{i % 4}", "operation": "update", "timestamp": i}
        for i in range(n)
    ]


def make_txs(n: int, tag: str = "t") -> list[Transaction]:
    return [
        Transaction(f"org{i % 8}/acct", TxKind.DATA,
                    {"key": f"{tag}{i}", "value": i}, timestamp=i).seal()
        for i in range(n)
    ]


def build_source(storage_dir=None, n_shards=2, n_records=64,
                 n_txs=96) -> tuple[ShardedChain, list[dict]]:
    sharded = ShardedChain(
        n_shards, max_block_txs=8, anchor_batch_size=16,
        storage_dir=None if storage_dir is None else str(storage_dir),
    )
    records = make_records(n_records)
    sharded.ingest_records(records)
    sharded.flush_anchors()
    report = sharded.submit_many(make_txs(n_txs))
    assert report.rejected_total == 0
    while sharded.mempool_backlog:
        sharded.seal_round(blocks_per_shard=4)
    for shard in sharded.shards:
        assert shard.chain.height > 0
        assert sharded.beacon.is_anchored(shard.shard_id,
                                          shard.chain.height)
    return sharded, records


class Env:
    """One SimNet + gateway + server around a (shared) source facade."""

    def __init__(self, sharded, seed=7, server_cls=SnapshotServer,
                 latency=None, **server_kw):
        self.sharded = sharded
        self.net = SimNet(latency=latency or LatencyModel(base=2, jitter=1),
                          seed=seed)
        self.gateway = ChainNode("gateway", self.net)
        self.server = server_cls(sharded, **server_kw)
        self.gateway.serve_sync(self.server)

    def add_peer(self, node_id, server) -> None:
        node = ChainNode(node_id, self.net)
        node.serve_sync(server)

    def replica(self, tmp_path, shard_id=0, name="rep",
                peers=("gateway",), **kw):
        return self.sharded.spawn_replica(
            shard_id, str(tmp_path / name), self.net,
            node_id=name, peers=list(peers), **kw,
        )


@pytest.fixture(scope="module")
def source(tmp_path_factory):
    root = tmp_path_factory.mktemp("sync-source")
    sharded, records = build_source(root / "store")
    yield sharded, records
    sharded.close()


# ---------------------------------------------------------------------------
# Chunk / manifest codec (hypothesis round trips)
# ---------------------------------------------------------------------------
class TestChunkCodec:
    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=4096), st.integers(min_value=1, max_value=777))
    def test_split_reassemble_round_trip(self, data, chunk_size):
        chunks = split_chunks(data, chunk_size)
        assert b"".join(chunks) == data
        assert all(len(c) <= chunk_size for c in chunks)
        assert len(chunks) == max(1, -(-len(data) // chunk_size))

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=512),
           st.integers(min_value=1, max_value=64))
    def test_chunk_digest_detects_any_flip(self, data, seed):
        pos = seed % len(data)
        flipped = bytes(
            b ^ (1 if i == pos else 0) for i, b in enumerate(data)
        )
        assert chunk_digest(flipped) != chunk_digest(data)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10),
           st.binary(min_size=32, max_size=32),
           st.binary(min_size=32, max_size=32),
           st.binary(max_size=2048),
           st.integers(min_value=1, max_value=500))
    def test_manifest_mapping_round_trip(self, shard_id, block_hash,
                                         state_root, image, chunk_size):
        manifest, chunks = SnapshotManifest.for_image(
            shard_id=shard_id, chain_id="shard-x", height=17,
            block_hash=block_hash, state_root=state_root,
            image=image, chunk_size=chunk_size,
        )
        assert manifest.chunk_count == len(chunks)
        assert manifest.total_bytes == len(image)
        again = SnapshotManifest.from_mapping(manifest.to_mapping())
        assert again == manifest
        assert again.digest() == manifest.digest()
        for chunk, expected in zip(chunks, manifest.chunk_hashes):
            assert chunk_digest(chunk) == expected

    def test_manifest_rejects_garbage(self):
        with pytest.raises(SyncError) as err:
            SnapshotManifest.from_mapping({"height": 3})
        assert err.value.reason == "bad_manifest"

    record_values = st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.text(max_size=8), st.binary(max_size=8)),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=6,
    )

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6),
                           record_values), max_size=6),
        st.lists(st.dictionaries(st.text(min_size=1, max_size=6),
                                 record_values, max_size=4), max_size=4),
    )
    def test_image_round_trip(self, entries, records):
        image = decode_image(encode_image(entries, records))
        assert image["state"] == [(ns, k, v) for ns, k, v in entries]
        assert set(image) == {"state", "records"}   # no proof state
        assert image["records"] == records

    def test_image_rejects_non_image(self):
        from repro.serialization import canonical_encode

        with pytest.raises(SyncError) as err:
            decode_image(b"\x00garbage")
        assert err.value.reason == "corrupt_image"
        with pytest.raises(SyncError):
            decode_image(canonical_encode({"not": "an image"}))


class TestFrameScan:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=6),
           st.text(max_size=12))
    def test_scan_matches_full_decode(self, height, n_txs, proposer):
        txs = [
            Transaction(f"s{j}", TxKind.DATA,
                        {"key": f"k{j}", "value": [j, {"x": j}]},
                        timestamp=j).seal()
            for j in range(n_txs)
        ]
        block = Block(height=height, prev_hash=b"\x01" * 32,
                      transactions=txs, timestamp=height,
                      proposer=proposer,
                      consensus_meta={"chain_id": "scan-test"})
        scanned = scan_block_frame(encode_block(block))
        assert scanned.height == block.height
        assert scanned.tx_count == len(txs)
        assert scanned.block_hash == block.block_hash
        assert scanned.header.prev_hash == block.header.prev_hash
        assert scanned.header.merkle_root == block.header.merkle_root

    def test_scan_rejects_truncated_frame(self):
        from repro.errors import SerializationError

        frame = encode_block(Block(1, b"\x00" * 32, [make_txs(1)[0]]))
        with pytest.raises(SerializationError):
            scan_block_frame(frame[:40])      # cut inside the header
        with pytest.raises(SerializationError):
            scan_block_frame(frame[:-2] + b"x")   # closing markers gone
        with pytest.raises(SerializationError):
            scan_block_frame(frame + b"x")
        with pytest.raises(SerializationError):
            scan_block_frame(b"l0:e")
        with pytest.raises(SerializationError):
            # A mapping with no transaction list at all.
            from repro.serialization import canonical_encode

            scan_block_frame(canonical_encode({"height": 1}))

    def test_header_tamper_changes_scanned_hash(self):
        block = Block(3, b"\x02" * 32, make_txs(2), proposer="p")
        frame = encode_block(block)
        tampered = frame.replace(b"\x02" * 32, b"\x03" * 32)
        assert scan_block_frame(tampered).block_hash != block.block_hash


# ---------------------------------------------------------------------------
# Happy-path catch-up
# ---------------------------------------------------------------------------
class TestCatchUp:
    def test_replica_reaches_source_head(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        replica = env.replica(tmp_path)
        report = replica.catch_up()
        shard = sharded.shard(0)
        assert replica.chain.height == shard.chain.height
        assert replica.chain.head.block_hash == shard.chain.head.block_hash
        assert report.height == shard.chain.height
        assert report.blocks_installed == shard.chain.height + 1
        replica.close()

    def test_zero_genesis_replay(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        replica = env.replica(tmp_path)
        replica.catch_up()
        # The freshly opened stack did not replay: the synced snapshot
        # covers the head.
        assert replica.chain.blocks_replayed_on_open == 0
        # And a full close/reopen of the same directory stays at zero.
        replica.shard.close()
        storage = DurableStorage(str(tmp_path / "rep"))
        from repro.chain import Blockchain

        reopened = Blockchain(
            ChainParams(chain_id="shard-0", max_block_txs=8),
            store=storage.blocks, snapshot_store=storage.state,
        )
        assert reopened.blocks_replayed_on_open == 0
        assert reopened.height == sharded.shard(0).chain.height
        storage.close()
        replica.shard = None
        replica.close()

    def test_state_and_receipts_identical(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        replica = env.replica(tmp_path)
        replica.catch_up()
        shard = sharded.shard(0)
        assert replica.chain.state.state_root() == \
            shard.chain.state.state_root()
        assert replica.chain.state.dump_entries() == \
            shard.chain.state.dump_entries()
        some_tx = shard.chain.block_at(1).transactions[0]
        assert replica.chain.receipt_for(some_tx.tx_id).tx_id == \
            shard.chain.receipt_for(some_tx.tx_id).tx_id
        replica.close()

    def test_queries_byte_identical(self, source, tmp_path):
        sharded, records = source
        env = Env(sharded)
        replica = env.replica(tmp_path)
        replica.catch_up()
        shard = sharded.shard(0)
        subjects = {r["subject"] for r in records
                    if sharded.router.shard_for(
                        namespace_of(r["subject"])) == 0}
        assert subjects, "fixture must place records on shard 0"
        for subject in sorted(subjects):
            assert replica.history(subject) == \
                shard.query.history(subject)
        assert replica.query.by_actor("actor-1") == \
            shard.query.by_actor("actor-1")
        assert replica.query.time_range(5, 40) == \
            shard.query.time_range(5, 40)
        replica.close()

    def test_federated_proofs_identical_and_verify(self, source, tmp_path):
        sharded, records = source
        env = Env(sharded)
        replica = env.replica(tmp_path)
        replica.catch_up()
        engine = ShardedQueryEngine(sharded)
        checked = 0
        for record in records:
            if sharded.router.shard_for(
                    namespace_of(record["subject"])) != 0:
                continue
            if not sharded.shard(0).anchor.is_anchored(
                    record["record_id"]):
                continue
            src = engine.federated_proof(record["record_id"],
                                         subject=record["subject"])
            rep = replica.federated_proof(record["record_id"])
            assert src.shard_header.block_hash == \
                rep.shard_header.block_hash
            assert src.anchor_bundle.batch_root == \
                rep.anchor_bundle.batch_root
            assert src.anchor_bundle.record_proof == \
                rep.anchor_bundle.record_proof
            assert src.beacon_bundle.shard_proof == \
                rep.beacon_bundle.shard_proof
            header = sharded.beacon.chain.block_at(
                src.beacon_height).header
            assert rep.verify(record, header)
            checked += 1
            if checked >= 5:
                break
        assert checked >= 1
        replica.close()

    def test_replica_chain_verifies_deep(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        replica = env.replica(tmp_path)
        replica.catch_up()
        replica.chain.verify(deep=True)     # raises on any forged byte
        replica.close()

    def test_every_shard_is_replicable(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        for shard_id in range(sharded.n_shards):
            replica = env.replica(tmp_path, shard_id=shard_id,
                                  name=f"rep{shard_id}")
            replica.catch_up()
            assert replica.chain.head.block_hash == \
                sharded.shard(shard_id).chain.head.block_hash
            replica.close()

    def test_in_memory_source_served_via_encode_fallback(self, tmp_path):
        sharded, _ = build_source(storage_dir=None)   # memory backend
        env = Env(sharded)
        replica = env.replica(tmp_path)
        report = replica.catch_up()
        assert report.blocks_installed > 0
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash

    def test_incremental_resync_fetches_only_the_delta(self, tmp_path):
        sharded, records = build_source(tmp_path / "src")
        env = Env(sharded)
        replica = env.replica(tmp_path)
        first = replica.catch_up()
        # Source advances: more records (one annotated) and more blocks.
        extra = make_records(10, tag="x")
        sharded.ingest_records(extra)
        shard0 = sharded.shard(0)
        annotated = next(
            r["record_id"] for r in records
            if sharded.router.shard_for(namespace_of(r["subject"])) == 0
        )
        shard0.database.annotate(annotated, note="amended")
        sharded.flush_anchors()
        sharded.submit_many(make_txs(40, tag="x"))
        while sharded.mempool_backlog:
            sharded.seal_round(blocks_per_shard=4)
        second = replica.catch_up()
        assert second.height > first.height
        assert second.blocks_installed == second.height - first.height
        assert replica.chain.head.block_hash == \
            shard0.chain.head.block_hash
        assert replica.shard.database.get(annotated)["note"] == "amended"
        assert replica.chain.state.state_root() == \
            shard0.chain.state.state_root()
        replica.close()
        sharded.close()

    def test_report_accounting(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        replica = env.replica(tmp_path)
        report = replica.catch_up()
        assert report.chunks_downloaded >= 1
        assert report.bytes_received > 0
        assert report.requests >= report.chunks_downloaded + 1
        assert not report.resumed
        assert report.errors == []
        replica.close()


class TestTailIsTheStoresOwn:
    """``BlockStore.raw_block_items`` is the one source of a tail reply:
    a memory-backed source frames on demand what a durable one reads
    off its log, byte for byte."""

    def test_memory_and_durable_sources_serve_the_same_tail(
            self, tmp_path):
        in_memory, _ = build_source()
        durable, _ = build_source(tmp_path / "store")
        try:
            replicas = {}
            for name, sharded in (("memory", in_memory),
                                  ("durable", durable)):
                env = Env(sharded)
                replica = env.replica(tmp_path, name=name)
                replica.catch_up()
                assert replica.chain.head.block_hash == \
                    sharded.shard(0).chain.head.block_hash
                replica.close()
                replicas[name] = log_files(str(tmp_path / name))
            assert replicas["memory"] == replicas["durable"]
            assert replicas["memory"]

            for shard_id in range(2):
                height = durable.shard(shard_id).chain.height
                assert height == in_memory.shard(shard_id).chain.height
                for start, count in ((1, 512), (1, 3), (height - 1, 5),
                                     (height, 1), (height + 1, 4)):
                    replies = [
                        SnapshotServer(sharded).tail(
                            shard_id, start, count, height)
                        for sharded in (in_memory, durable)]
                    assert replies[0] == replies[1]
                    items = replies[0]["items"]
                    assert [item["height"] for item in items] == list(
                        range(start, min(start + count, height + 1)))
                whole = SnapshotServer(durable).tail(
                    shard_id, 1, 512, height)["items"]
                assert any(item["derived"] is not None for item in whole)
                assert all(item["crc"] == zlib.crc32(item["frame"])
                           and len(item["receipts"]) == len(item["tx_ids"])
                           and None not in item["receipts"]
                           for item in whole)
        finally:
            in_memory.close()
            durable.close()


class TestSpawnValidation:
    def test_bad_shard_id(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        with pytest.raises(ShardError):
            sharded.spawn_replica(99, str(tmp_path / "x"), env.net)

    def test_no_peers(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        with pytest.raises(SyncError) as err:
            sharded.spawn_replica(0, str(tmp_path / "x"), env.net,
                                  node_id="x", peers=[])
        assert err.value.reason == "no_peers"

    def test_unanchored_head_is_refused(self, tmp_path):
        sharded = ShardedChain(1, max_block_txs=8)
        sharded.ingest_records(make_records(4))
        sharded.flush_anchors()    # head block exists but is unanchored
        env = Env(sharded)
        replica = env.replica(tmp_path)
        with pytest.raises(SyncError) as err:
            replica.catch_up()
        assert err.value.reason == "unanchored_head"


# ---------------------------------------------------------------------------
# Byzantine servers: the rejection matrix
# ---------------------------------------------------------------------------
class ByzantineServer(SnapshotServer):
    """A server that lies in one configurable way."""

    def __init__(self, sharded, mode: str, **kw):
        super().__init__(sharded, **kw)
        self.mode = mode

    def offer(self, shard_id):
        resp = super().offer(shard_id)
        manifest = dict(resp["manifest"])
        if self.mode == "forged_head":
            manifest["block_hash"] = b"\xEE" * 32
        elif self.mode == "wrong_height":
            manifest["height"] = manifest["height"] - 1
        elif self.mode == "forged_state_root":
            manifest["state_root"] = b"\xEE" * 32
        resp["manifest"] = manifest
        # The bundle crosses as a mapping: forge *that*.
        bundle = dict(resp["bundle"])
        proof = dict(bundle["shard_proof"])
        if self.mode == "bundle_missing":
            del resp["bundle"]
            return resp
        if self.mode == "bundle_not_a_mapping":
            bundle = [1, 2, 3]
        elif self.mode == "bundle_field_dropped":
            del proof["round_root"]
        elif self.mode == "bundle_field_wrong_type":
            proof["block_hash"] = 10 ** 12     # bytes(n) would allocate
        elif self.mode == "bundle_anchor_tx_garbage":
            bundle["anchor_tx"] = {"not": "a tx"}
        elif self.mode == "bundle_decodes_but_does_not_verify":
            # Every field well-typed and self-consistent with the
            # manifest; the audit path just leads somewhere else.
            path = [list(step) for step in
                    proof["merkle_proof"]["path"]] or [[b"\x00" * 32, True]]
            path[0][0] = bytes(b ^ 0xFF for b in path[0][0])
            proof["merkle_proof"] = dict(proof["merkle_proof"], path=path)
        elif self.mode == "bundle_for_another_round":
            proof["beacon_height"] = proof["beacon_height"] + 1000
        if isinstance(bundle, dict):
            bundle["shard_proof"] = proof
        resp["bundle"] = bundle
        return resp

    def chunk(self, shard_id, height, index):
        resp = super().chunk(shard_id, height, index)
        if self.mode == "corrupt_chunk":
            data = bytearray(resp["data"])
            data[len(data) // 2] ^= 0xFF
            resp = dict(resp, data=bytes(data))
        return resp

    def tail(self, shard_id, start, count, upto):
        resp = super().tail(shard_id, start, count, upto)
        if self.mode == "truncated_tail" and start > 1:
            # Serve the first batch honestly, then claim there is
            # nothing more — the head stays unreached.
            resp = dict(resp, items=[])
        elif self.mode == "corrupt_tail_frame":
            # Accidental corruption: bytes flipped, CRC left as-is.
            items = [dict(i) for i in resp["items"]]
            if items:
                frame = bytearray(items[-1]["frame"])
                frame[len(frame) // 2] ^= 0xFF
                items[-1]["frame"] = bytes(frame)
            resp = dict(resp, items=items)
        elif self.mode == "forged_tail_header":
            items = [dict(i) for i in resp["items"]]
            if items:
                items[-1]["frame"] = _tamper_prev_hash(
                    items[-1]["frame"]
                )
                items[-1]["crc"] = zlib.crc32(items[-1]["frame"])
            resp = dict(resp, items=items)
        elif self.mode == "tail_overrun":
            # Serve the honest tail PLUS extra self-consistent blocks
            # past the beacon-verified head (ignoring `upto`) — these
            # chain correctly off the genuine head but are anchored
            # nowhere.
            items = [dict(i) for i in resp["items"]]
            if items and items[-1]["height"] >= upto:
                prev = scan_block_frame(items[-1]["frame"])
                from repro.persist.codec import encode_block

                rogue = Block(
                    height=prev.height + 1,
                    prev_hash=prev.block_hash,
                    transactions=make_txs(2, tag="rogue"),
                    proposer="byzantine",
                )
                frame = encode_block(rogue)
                items.append({
                    "height": rogue.height,
                    "block_hash": rogue.block_hash,
                    "frame": frame,
                    "crc": zlib.crc32(frame),
                    "tx_ids": [tx.tx_id for tx in rogue.transactions],
                    "receipts": [None, None],
                })
            resp = dict(resp, items=items)
        elif self.mode == "forged_tail_body":
            # A *deliberate* forgery recomputes the transport CRC.
            items = [dict(i) for i in resp["items"]]
            for victim in items:
                tampered = _tamper_tx_body(victim["frame"])
                if tampered is not None:
                    victim["frame"] = tampered
                    victim["crc"] = zlib.crc32(tampered)
                    break
            resp = dict(resp, items=items)
        return resp


def _tamper_prev_hash(frame: bytes) -> bytes:
    scanned = scan_block_frame(frame)
    prev = scanned.header.prev_hash
    if prev == GENESIS_PREV_HASH:
        return frame
    flipped = bytes([prev[0] ^ 0xFF]) + prev[1:]
    return frame.replace(prev, flipped, 1)


def _tamper_tx_body(frame: bytes) -> bytes | None:
    """Flip one character inside a transaction payload string, keeping
    the canonical structure (and the header bytes!) intact — the attack
    a header-only scan cannot see."""
    pos = frame.find(b"key")
    if pos < 0:
        return None
    # DATA payload values look like  s<len>:t<i>  — flip the tag letter.
    tag = frame.find(b":t", pos)
    if tag < 0:
        return None
    return frame[:tag + 1] + b"q" + frame[tag + 2:]


class TestByzantine:
    def _attempt(self, sharded, tmp_path, mode, name, **catch_kw):
        env = Env(sharded, server_cls=ByzantineServer, mode=mode)
        replica = env.replica(tmp_path, name=name)
        with pytest.raises(SyncError) as err:
            replica.catch_up(**catch_kw)
        return err.value, replica

    def test_corrupt_chunk_rejected(self, source, tmp_path):
        sharded, _ = source
        err, _ = self._attempt(sharded, tmp_path, "corrupt_chunk", "bz1")
        assert err.reason == "corrupt_chunk"
        assert err.shard_id == 0 and err.peer == "gateway"

    def test_forged_head_hash_rejected(self, source, tmp_path):
        sharded, _ = source
        err, _ = self._attempt(sharded, tmp_path, "forged_head", "bz2")
        assert err.reason == "forged_offer"

    def test_wrong_height_image_rejected(self, source, tmp_path):
        sharded, _ = source
        err, _ = self._attempt(sharded, tmp_path, "wrong_height", "bz3")
        assert err.reason == "forged_offer"

    def test_forged_state_root_rejected(self, source, tmp_path):
        sharded, _ = source
        err, _ = self._attempt(sharded, tmp_path,
                               "forged_state_root", "bz4")
        assert err.reason == "forged_offer"

    @pytest.mark.parametrize("mode", [
        "bundle_missing", "bundle_not_a_mapping", "bundle_field_dropped",
        "bundle_field_wrong_type", "bundle_anchor_tx_garbage",
        "bundle_decodes_but_does_not_verify", "bundle_for_another_round",
    ])
    def test_forged_bundle_mapping_rejected(self, source, tmp_path, mode):
        sharded, _ = source
        err, replica = self._attempt(sharded, tmp_path, mode, "bzb")
        assert err.reason == "forged_offer"
        assert err.peer == "gateway"
        # Nothing was fetched on the strength of a forged offer.
        assert replica.node.net.stats.by_topic.get("sync/chunk", 0) == 0

    def test_truncated_tail_rejected_and_rolled_back(self, source,
                                                     tmp_path):
        sharded, _ = source
        err, replica = self._attempt(sharded, tmp_path,
                                     "truncated_tail", "bz5",
                                     tail_batch=4)
        assert err.reason == "truncated_tail"
        # Fail-closed: nothing from the aborted attempt survives.
        storage = DurableStorage(str(tmp_path / "bz5"))
        assert storage.blocks.height() == -1
        storage.close()

    def test_corrupt_tail_frame_fails_crc(self, source, tmp_path):
        sharded, _ = source
        err, _ = self._attempt(sharded, tmp_path,
                               "corrupt_tail_frame", "bz9", tail_batch=4)
        assert err.reason == "corrupt_block"

    def test_forged_tail_header_breaks_hash_chain(self, source, tmp_path):
        sharded, _ = source
        err, _ = self._attempt(sharded, tmp_path,
                               "forged_tail_header", "bz6", tail_batch=4)
        assert err.reason == "forged_tail"

    def test_blocks_beyond_verified_head_rejected(self, source, tmp_path):
        # Self-consistent blocks chained past the beacon-verified head
        # must never install — they are anchored nowhere.
        sharded, _ = source
        err, replica = self._attempt(sharded, tmp_path,
                                     "tail_overrun", "bz10")
        assert err.reason == "forged_tail"
        storage = DurableStorage(str(tmp_path / "bz10"))
        assert storage.blocks.height() == -1     # rolled back to base
        storage.close()

    def test_forged_tail_body_caught_by_deep_verify(self, source,
                                                    tmp_path):
        sharded, _ = source
        err, _ = self._attempt(sharded, tmp_path, "forged_tail_body",
                               "bz7", deep_verify=True)
        assert err.reason == "forged_tail"

    def test_forged_tail_body_fails_closed_on_read(self, source,
                                                   tmp_path):
        # Without deep verification the forged body installs (headers
        # chain correctly), but the store's read path decodes against
        # the indexed hash, so the forgery can never serve a block.
        sharded, _ = source
        env = Env(sharded, server_cls=ByzantineServer,
                  mode="forged_tail_body")
        replica = env.replica(tmp_path, name="bz8")
        from repro.errors import StorageError, TamperDetected

        try:
            replica.catch_up()
        except SyncError:
            return      # tamper already surfaced during install: fine
        with pytest.raises((StorageError, TamperDetected)):
            replica.chain.verify(deep=True)
            for height in range(replica.chain.height + 1):
                replica.chain.block_at(height)

    def test_stale_snapshot_rejected(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded)
        replica = env.replica(tmp_path, name="stale")
        head = sharded.shard(0).chain.height
        with pytest.raises(SyncError) as err:
            replica.catch_up(min_height=head + 100)
        assert err.value.reason == "stale_snapshot"

    def test_failover_to_honest_peer(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded, server_cls=ByzantineServer,
                  mode="corrupt_chunk")
        env.add_peer("honest", SnapshotServer(sharded))
        replica = env.replica(tmp_path, name="fo",
                              peers=("gateway", "honest"))
        report = replica.catch_up()
        assert report.peer == "honest"
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash
        # The byzantine attempt left a structured trace.
        assert replica.last_report.peer == "honest"
        replica.close()

    def test_malformed_request_gets_error_response(self, source):
        sharded, _ = source
        env = Env(sharded)
        from repro.network import NetMessage
        from repro.rpc import decode_frame_payload
        from repro.serialization import canonical_encode

        got = []
        env.net.register("probe", lambda m: got.append(dict(m.body)))
        env.net.send(NetMessage("probe", "gateway", "sync/chunk", {
            "frame": canonical_encode({"op": "sync/chunk", "seq": 1}),
        }))
        env.net.run()
        assert len(got) == 1 and set(got[0]) == {"reply"}
        reply = decode_frame_payload(got[0]["reply"])
        assert reply["op"] == "error" and reply["seq"] == 1
        assert reply["reason"] == "bad_request"


# ---------------------------------------------------------------------------
# Crash-and-resume
# ---------------------------------------------------------------------------
class TestResume:
    def test_crash_mid_chunk_download_resumes(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded, chunk_size=512)   # force several chunks
        replica = env.replica(tmp_path, name="cr")
        with pytest.raises(CrashPoint):
            replica.catch_up(crash_after_chunks=2)
        report = replica.catch_up()
        assert report.resumed
        assert report.chunks_reused >= 2
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash
        assert replica.chain.blocks_replayed_on_open == 0
        replica.close()

    def test_crash_mid_tail_resumes_from_installed_height(
            self, source, tmp_path, monkeypatch):
        from repro.persist.durable import DurableBlockStore

        sharded, _ = source
        env = Env(sharded)
        replica = env.replica(tmp_path, name="ct")
        calls = {"install": 0}
        original = DurableBlockStore.install_raw

        def dying_install(store, batch):
            calls["install"] += 1
            if calls["install"] == 2:
                raise RuntimeError("simulated process death")
            return original(store, batch)

        with monkeypatch.context() as patch:
            patch.setattr(DurableBlockStore, "install_raw", dying_install)
            with pytest.raises(RuntimeError):
                # The replica process dies between two tail batches;
                # installed blocks stay (a crash, not a forgery).
                replica.catch_up(tail_batch=4)
        storage = DurableStorage(str(tmp_path / "ct"))
        installed = storage.blocks.height()
        storage.close()
        assert installed >= 3      # first batch landed
        report = replica.catch_up(tail_batch=4)
        assert report.resumed
        assert report.blocks_installed == \
            sharded.shard(0).chain.height - installed
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash
        replica.close()

    def test_peer_handler_crash_is_a_sync_error_not_ours(self, source,
                                                         tmp_path):
        # Whatever blows up inside the *peer's* handler crosses the wire
        # as an error frame: the replica sees a SyncError, rolls back,
        # and its own stack never carries the peer's exception.
        sharded, _ = source
        env = Env(sharded)
        replica = env.replica(tmp_path, name="pc")

        def exploding_tail(shard_id, start, count, upto):
            raise RuntimeError("peer bug")

        env.server.tail = exploding_tail
        with pytest.raises(SyncError) as err:
            replica.catch_up()
        assert err.value.reason == "internal"
        assert "peer bug" in str(err.value)
        storage = DurableStorage(str(tmp_path / "pc"))
        assert storage.blocks.height() == -1
        storage.close()

    def test_staging_for_old_image_is_discarded(self, tmp_path):
        sharded, _ = build_source(tmp_path / "src")
        env = Env(sharded, chunk_size=512)
        replica = env.replica(tmp_path, name="st")
        with pytest.raises(CrashPoint):
            replica.catch_up(crash_after_chunks=1)
        # Source advances before the client comes back.
        sharded.submit_many(make_txs(16, tag="s"))
        while sharded.mempool_backlog:
            sharded.seal_round(blocks_per_shard=4)
        report = replica.catch_up()
        assert report.chunks_reused == 0      # stale staging discarded
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash
        replica.close()
        sharded.close()


# ---------------------------------------------------------------------------
# Convergence under injected network faults
# ---------------------------------------------------------------------------
class TestFaultyNetwork:
    def test_converges_under_chunk_and_tail_loss(self, source, tmp_path):
        sharded, _ = source
        env = Env(sharded, seed=11, chunk_size=1024)
        env.net.inject_faults("sync/chunk", drop=0.3)
        env.net.inject_faults("sync/tail", drop=0.3)
        replica = env.replica(tmp_path, name="dr")
        report = replica.catch_up(tail_batch=4, max_retries=30)
        assert report.retries > 0
        assert env.net.stats.messages_dropped > 0
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash
        replica.close()

    def test_converges_under_duplication_and_reorder(self, source,
                                                     tmp_path):
        sharded, _ = source
        env = Env(sharded, seed=13, chunk_size=1024)
        for topic in ("sync/offer", "sync/chunk", "sync/tail"):
            env.net.inject_faults(topic, duplicate=0.4, reorder=0.4,
                                  reorder_delay=40)
        replica = env.replica(tmp_path, name="dup")
        replica.catch_up(tail_batch=4, max_retries=30)
        assert env.net.stats.messages_duplicated > 0
        assert env.net.stats.messages_reordered > 0
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash
        assert replica.chain.state.state_root() == \
            sharded.shard(0).chain.state.state_root()
        replica.close()

    def test_deterministic_given_seed(self, source, tmp_path):
        sharded, _ = source

        def run(name):
            env = Env(sharded, seed=42, chunk_size=1024)
            env.net.inject_faults("sync/chunk", drop=0.25,
                                  duplicate=0.25)
            replica = env.replica(tmp_path, name=name)
            report = replica.catch_up(tail_batch=8, max_retries=30)
            stats = env.net.stats
            replica.close()
            return (report.requests, report.retries,
                    stats.messages_dropped, stats.messages_duplicated)

        assert run("seed-a") == run("seed-b")
