"""Kill-at-every-round matrix: no evidence is lost, ever.

Proof state (anchor batches, beacon rounds, the facade's watermarks)
commits with the block that creates it, so a fail-stop anywhere in the
uncheckpointed tail must lose none of it.  For r in 0..16 rounds past a
checkpoint — records ingested, anchors flushed mid-round — the store is
crashed and reopened, and:

* every record a beacon header covered before the crash still yields a
  :class:`~repro.sharding.query.FederatedProof` that verifies offline;
* no beacon ``anchor_id`` and no shard ``anchor-<chain>-NNNNNN`` id is on
  its chain twice, no shard block is beacon-anchored twice,
  ``rounds_sealed == beacon.rounds_anchored == beacon.height`` and every
  ``anchored_height`` is the beacon's own;
* the records that were pending are pending again — exactly those — and
  the next flush anchors each exactly once; a further round seals.

The same holds with a 2PC handoff in flight, with a log fault cutting an
anchor block's frame, and on a fresh replica brought up by snapshot sync
(whose image no longer carries any proof state): a peer's forged proof
row fails closed.  Counted guards pin ``persist_fsyncs_total`` and the
sqlite ``COMMIT`` count of a fixed script to the parent commit's numbers.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import sqlite3
import tarfile

import pytest

from repro.chain import Transaction, TxKind
from repro.chaos.runner import check_invariants
from repro.errors import AnchorError, StorageError, SyncError
from repro.network import ChainNode, LatencyModel, SimNet
from repro.obs import Telemetry
from repro.obs.runtime import telemetry as default_telemetry
from repro.persist import DurableStorage
from repro.persist.codec import canonical_decode
from repro.persist.segment import CrashPoint
from repro.serialization import canonical_encode
from repro.sharding import (
    CrossShardCoordinator,
    ShardedChain,
    ShardedQueryEngine,
)
from repro.sync import SnapshotServer, decode_image

N_SHARDS = 4
BATCH = 8
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def build(path) -> ShardedChain:
    return ShardedChain(N_SHARDS, storage_dir=str(path),
                        anchor_batch_size=BATCH, telemetry=Telemetry())


def make_txs(r: int, n: int = 12) -> list[Transaction]:
    return [
        Transaction(f"org{i % 8}/acct", TxKind.DATA,
                    {"subject": f"org{i % 8}/asset-{i % 5}",
                     "key": f"t{r}-{i}", "value": i},
                    nonce=r * 1000 + i, timestamp=r).seal()
        for i in range(n)
    ]


def make_records(r: int, n: int = 20) -> list[dict]:
    return [
        {"record_id": f"rec-{r:03d}-{i:03d}",
         "subject": f"org{i % 8}/asset-{i % 5}", "actor": f"actor-{i % 4}",
         "operation": "update", "timestamp": r * 1000 + i}
        for i in range(n)
    ]


def drive(sc: ShardedChain, r: int, known: list[dict]):
    """One round: txs, records (20 over 4 shards at batch 8 — anchors
    flush mid-round and leave a pending remainder), seal."""
    sc.submit_many(make_txs(r))
    records = make_records(r)
    sc.ingest_records(records)
    known.extend(records)
    return sc.seal_round(timestamp=1000 + r)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A store two rounds old, closed at a checkpoint; every case works
    on its own copy."""
    root = tmp_path_factory.mktemp("crash-base") / "store"
    sc = build(root)
    known: list[dict] = []
    for r in range(2):
        drive(sc, r, known)
    heights = [shard.chain.height for shard in sc.shards]
    sc.close()
    return root, known, heights


def reopen_copy(base, tmp_path) -> tuple[ShardedChain, list[dict], str]:
    root, known, _ = base
    store = str(tmp_path / "store")
    shutil.copytree(root, store)
    return build(store), list(known), store


# ---------------------------------------------------------------------------
# What must hold
# ---------------------------------------------------------------------------
def evidence(sc: ShardedChain, known: list[dict]) -> dict:
    """What the deployment can prove right now."""
    receipts, covered, pending = {}, [], set()
    for record in known:
        shard = sc.shard_for_subject(record["subject"])
        receipt = shard.anchor.receipt_for(record["record_id"])
        if receipt is None:
            pending.add(record["record_id"])
            continue
        receipts[record["record_id"]] = receipt
        if receipt.block_height <= shard.anchored_height:
            covered.append(record)
    return {
        "receipts": receipts,
        "covered": covered,
        "pending": pending,
        "heads": [s.chain.head.block_hash for s in sc.shards],
        "beacon_head": sc.beacon.chain.head.block_hash,
    }


def assert_proves(sc: ShardedChain, records, prover=None) -> None:
    """Each record's federated proof verifies offline against nothing
    but the beacon header it names."""
    engine = ShardedQueryEngine(sc)
    for record in records:
        if prover is None:
            proof = engine.federated_proof(record["record_id"],
                                           subject=record["subject"])
        else:
            proof = prover(record["record_id"])
        header = sc.beacon.chain.block_at(proof.beacon_height).header
        assert proof.verify(record, header), record["record_id"]


def assert_consistent(sc: ShardedChain) -> None:
    """Nothing anchored twice; derived counters agree with the beacon."""
    beacon_txs = [tx for block in sc.beacon.chain
                  for tx in block.transactions]
    beacon_ids = [tx.payload["anchor_id"] for tx in beacon_txs]
    assert len(beacon_ids) == len(set(beacon_ids))
    assert sc.rounds_sealed == sc.beacon.rounds_anchored \
        == sc.beacon.height
    # Every shard block under exactly one beacon leaf.
    assert sum(tx.payload["leaf_count"] for tx in beacon_txs) \
        == sum(shard.anchored_height for shard in sc.shards)
    for shard in sc.shards:
        sid = shard.shard_id
        anchor_ids = [tx.payload["anchor_id"] for block in shard.chain
                      for tx in block.transactions
                      if tx.kind == TxKind.PROVENANCE]
        assert len(anchor_ids) == len(set(anchor_ids))
        assert anchor_ids == [r.anchor_id for r in shard.anchor.receipts]
        assert shard.anchored_height == sc.beacon.anchored_height(sid)
        assert all(sc.beacon.is_anchored(sid, h)
                   for h in range(1, shard.anchored_height + 1))
        assert not any(
            sc.beacon.is_anchored(sid, h)
            for h in range(shard.anchored_height + 1,
                           shard.chain.height + 1))


def assert_recovered(sc: ShardedChain, before: dict,
                     known: list[dict]) -> None:
    """The reopened deployment proves what the crashed one did and
    queues exactly what it had queued."""
    assert [s.chain.head.block_hash for s in sc.shards] == before["heads"]
    assert sc.beacon.chain.head.block_hash == before["beacon_head"]
    assert_consistent(sc)
    after = evidence(sc, known)
    assert after["receipts"] == before["receipts"]
    assert after["pending"] == before["pending"]
    assert sum(s.anchor.pending_count for s in sc.shards) \
        == len(before["pending"])
    assert sum(s.anchor.anchored_count for s in sc.shards) \
        == len(before["receipts"])
    assert_proves(sc, before["covered"])
    for record in known:    # anchored or pending: never queued again
        with pytest.raises(AnchorError):
            sc.shard_for_subject(record["subject"]).anchor.enqueue(record)


def assert_moves_on(sc: ShardedChain, known: list[dict], r: int) -> None:
    """The next flush anchors every pending record exactly once and a
    further round seals; then everything ever ingested proves."""
    sc.flush_anchors()
    report = drive(sc, r, known)
    assert report.txs_sealed >= 12
    if sc.flush_anchors():
        sc.seal_round(timestamp=5000 + r)
    assert sum(s.anchor.pending_count for s in sc.shards) == 0
    assert sum(s.anchor.anchored_count for s in sc.shards) == len(known)
    assert sum(r.record_count for s in sc.shards
               for r in s.anchor.receipts) == len(known)
    assert_consistent(sc)
    assert_proves(sc, known)
    sc.verify_all(deep=True)


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------
class TestKillAtEveryRound:
    @pytest.mark.parametrize("rounds", range(17))
    def test_crash_r_rounds_past_a_checkpoint(self, base, tmp_path, rounds):
        sc, known, store = reopen_copy(base, tmp_path)
        for r in range(2, 2 + rounds):
            drive(sc, r, known)
        before = evidence(sc, known)
        assert len(before["covered"]) >= 16
        sc.crash()
        sc = build(store)
        try:
            # The state image is the base's; only the tail replays.
            assert [s.chain.blocks_replayed_on_open for s in sc.shards] \
                == [s.chain.height - h
                    for s, h in zip(sc.shards, base[2])]
            assert_recovered(sc, before, known)
            assert_moves_on(sc, known, 2 + rounds)
        finally:
            sc.close()

    def test_crash_between_anchor_flush_and_its_beacon_round(
            self, base, tmp_path):
        """Anchor blocks no beacon header covers yet: their batches'
        receipts survive, and the next round beacon-anchors those blocks
        once."""
        sc, known, store = reopen_copy(base, tmp_path)
        drive(sc, 2, known)
        records = make_records(3)
        sc.ingest_records(records)
        known.extend(records)
        sc.flush_anchors()
        before = evidence(sc, known)
        assert len(before["receipts"]) > len(before["covered"])
        assert not before["pending"]
        sc.crash()
        sc = build(store)
        try:
            assert_recovered(sc, before, known)
            assert_moves_on(sc, known, 4)
        finally:
            sc.close()

    def test_log_fault_cuts_an_anchor_blocks_frame(self, base, tmp_path):
        sc, known, store = reopen_copy(base, tmp_path)
        drive(sc, 2, known)
        victim = sc.shards[1]
        before = evidence(sc, known)
        # Fill the victim's pending batch to the brim: the flush's
        # anchor block dies nine bytes into its frame.
        subject = next(f"cut{i}/asset" for i in range(64)
                       if sc.router.shard_for_subject(f"cut{i}/asset") == 1)
        fill = [{"record_id": f"cut-{i}", "subject": subject,
                 "actor": "a", "operation": "update", "timestamp": i}
                for i in range(BATCH - victim.anchor.pending_count)]
        victim.storage.block_log.fail_after_bytes = 9
        with pytest.raises(CrashPoint):
            sc.ingest_records(fill)
        known.extend(fill)      # stored; their anchor block was not
        before["pending"] |= {r["record_id"] for r in fill}
        sc.crash()
        sc = build(store)
        try:
            assert sc.shards[1].storage.recovered_blocks == 0   # no row
            assert_recovered(sc, before, known)
            assert sc.shards[1].anchor.pending_count == BATCH
            assert_moves_on(sc, known, 3)
        finally:
            sc.close()

    @pytest.mark.parametrize("step", ["commit_leg", "finalizing",
                                      "finalized"])
    def test_crash_with_a_handoff_in_flight(self, base, tmp_path, step):
        sc, known, store = reopen_copy(base, tmp_path)
        coord = CrossShardCoordinator(sc)
        source = "org0/asset-0"
        target = next(f"org{i}/asset-9" for i in range(1, 8)
                      if sc.router.shard_for_subject(f"org{i}/asset-9")
                      != sc.router.shard_for_subject(source))
        drive(sc, 2, known)
        transfer = coord.begin(source, target, {"qty": 1}, timestamp=77)
        coord.crash_at_step = step
        with pytest.raises(CrashPoint):
            for r in range(3, 8):
                sc.seal_round(timestamp=1000 + r)
        before = evidence(sc, known)
        sc.crash()
        sc = build(store)
        try:
            coord = CrossShardCoordinator(sc)       # replays the WAL
            assert not coord.active
            audit = check_invariants(sc, {transfer.xid})
            assert audit["ok"], audit["issues"]
            pair = [sc.shard(s).database.get(f"{transfer.xid}{suffix}")
                    for s, suffix in ((transfer.source_shard, ":out"),
                                      (transfer.target_shard, ":in"))
                    if audit["committed"]]
            assert len(pair) == (2 if step != "commit_leg" else 0)
            # Recovery's abort/commit legs and the re-materialized pair
            # are new work; everything from before the crash stands.
            assert_consistent(sc)
            after = evidence(sc, known)
            assert before["receipts"].items() <= after["receipts"].items()
            assert_proves(sc, before["covered"])
            known.extend(pair)
            while sc.mempool_backlog:   # settle the recovery's legs
                sc.seal_round(timestamp=2000)
            assert_moves_on(sc, known, 8)
        finally:
            sc.close()


# ---------------------------------------------------------------------------
# Replicas: proof state arrives with verified frames, not in the image
# ---------------------------------------------------------------------------
class ForgingServer(SnapshotServer):
    """Byzantine peer: ``forge`` rewrites the first proof row served."""

    forge = None

    def tail(self, shard_id, start, count, upto):
        reply = super().tail(shard_id, start, count, upto)
        for item in reply["items"]:
            if item["derived"] is not None:
                item["derived"] = self.forge(item["derived"])
                break
        return reply


def _flip_digest(encoded: bytes) -> bytes:
    anchor_id, tx_id, root, digests = canonical_decode(encoded)
    return canonical_encode(
        [anchor_id, tx_id, root, bytes(32) + digests[32:]])


def _consistent_forgery(encoded: bytes) -> bytes:
    """Digests and root agree with each other — not with the chain."""
    from repro.crypto.merkle import MerkleTree

    anchor_id, tx_id, _, digests = canonical_decode(encoded)
    digests = bytes(32) + digests[32:]
    root = MerkleTree(
        [digests[i:i + 32] for i in range(0, len(digests), 32)]).root
    return canonical_encode([anchor_id, tx_id, root, digests])


class TestReplicaAfterCrash:
    @pytest.mark.parametrize("rounds", [0, 3, 16])
    def test_fresh_replica_proves_what_the_source_proved(
            self, base, tmp_path, rounds):
        sc, known, store = reopen_copy(base, tmp_path)
        for r in range(2, 2 + rounds):
            drive(sc, r, known)
        before = evidence(sc, known)
        sc.crash()
        sc = build(store)
        net = SimNet(latency=LatencyModel(base=2, jitter=1), seed=7)
        server = SnapshotServer(sc)
        ChainNode("gateway", net).serve_sync(server)
        try:
            drive(sc, 2 + rounds, known)    # anchor the heads again
            for shard in sc.shards:
                sid = shard.shard_id
                replica = sc.spawn_replica(
                    sid, str(tmp_path / f"replica-{sid}"), net,
                    peers=["gateway"])
                replica.catch_up()
                image = decode_image(
                    b"".join(server._images[sid][-1].chunks))
                assert set(image) == {"records", "state"}
                assert replica.chain.blocks_replayed_on_open == 0
                assert replica.shard.anchor.receipts \
                    == shard.anchor.receipts
                assert replica.shard.anchor.pending_count \
                    == shard.anchor.pending_count
                assert_proves(
                    sc, [r for r in before["covered"]
                         if sc.shard_for_subject(r["subject"]) is shard],
                    prover=replica.federated_proof)
                replica.close()
        finally:
            sc.close()

    @pytest.mark.parametrize("forge", [
        _flip_digest, _consistent_forgery, lambda encoded: b"junk",
        lambda encoded: canonical_encode({"digests": 7}),
        lambda encoded: canonical_encode(
            canonical_decode(encoded) + [["x"], "extra"]),
    ])
    def test_forged_proof_row_fails_closed(self, base, tmp_path, forge):
        sc, known, _ = reopen_copy(base, tmp_path)
        net = SimNet(latency=LatencyModel(base=2, jitter=1), seed=7)
        byzantine = ForgingServer(sc)
        byzantine.forge = forge
        ChainNode("byzantine", net).serve_sync(byzantine)
        ChainNode("honest", net).serve_sync(SnapshotServer(sc))
        try:
            drive(sc, 2, known)
            alone = sc.spawn_replica(0, str(tmp_path / "alone"), net,
                                     peers=["byzantine"])
            with pytest.raises(SyncError) as err:
                alone.catch_up()
            assert err.value.reason == "forged_tail"
            storage = DurableStorage(str(tmp_path / "alone"))
            assert storage.blocks.height() <= 0     # nothing kept
            assert list(storage.blocks.derived_rows()) == []
            storage.close()
            alone.close()
            # With an honest second peer the replica converges anyway.
            replica = sc.spawn_replica(0, str(tmp_path / "two"), net,
                                       peers=["byzantine", "honest"])
            report = replica.catch_up()
            assert report.peer == "honest"
            assert [e["reason"] for e in report.errors] == ["forged_tail"]
            covered = [r for r in evidence(sc, known)["covered"]
                       if sc.shard_for_subject(r["subject"]).shard_id == 0]
            assert_proves(sc, covered, prover=replica.federated_proof)
            replica.close()
        finally:
            sc.close()


# ---------------------------------------------------------------------------
# Store formats, observability, counted guards
# ---------------------------------------------------------------------------
def _counter(name: str, **labels) -> int:
    return default_telemetry().registry.counter(name, **labels).value


class TestOpenReportsAndUpgrades:
    def test_recovery_publishes_what_it_did(self, base, tmp_path):
        sc, known, store = reopen_copy(base, tmp_path)
        for r in range(2, 5):
            drive(sc, r, known)
        before = evidence(sc, known)
        anchors = sum(len(s.anchor.receipts) for s in sc.shards)
        rounds = sc.beacon.rounds_anchored
        sc.crash()

        def spans():
            return [s for s in default_telemetry().tracer.spans()
                    if s.name == "recovery.load_proof_state"
                    and s.attrs["store"].startswith(store)]

        earlier = len(spans())
        was = (_counter("proof_rows_loaded_total", kind="anchor"),
               _counter("proof_rows_loaded_total", kind="round"),
               _counter("anchor_pending_requeued_total"),
               _counter("store_format_upgrades_total", **{"from": 2,
                                                         "to": 3}))
        sc = build(store)
        try:
            assert _counter("proof_rows_loaded_total", kind="anchor") \
                - was[0] == anchors
            assert _counter("proof_rows_loaded_total", kind="round") \
                - was[1] == rounds
            assert _counter("anchor_pending_requeued_total") - was[2] \
                == len(before["pending"])
            assert _counter("store_format_upgrades_total",
                            **{"from": 2, "to": 3}) == was[3]
            spans = spans()[earlier:]
            assert sorted(s.attrs["store"] for s in spans) == sorted(
                os.path.join(store, name) for name in
                ["beacon"] + [f"shard-{i}" for i in range(N_SHARDS)])
            assert sum(s.attrs["rows"] for s in spans) == anchors + rounds
            assert sum(s.attrs["requeued"] for s in spans) \
                == len(before["pending"])
        finally:
            sc.close()

    def test_store_written_before_derived_rows_is_refused(self, tmp_path):
        """``tests/golden/pr16_store.tar.gz`` keeps proof state in meta
        blobs (store format 1): no upgrade path leads from it, and the
        open says so instead of guessing."""
        store = extract_pr16_store(tmp_path)
        with pytest.raises(StorageError) as err:
            ShardedChain(n_shards=2, storage_dir=store, anchor_batch_size=4,
                         checkpoint_every_rounds=2, telemetry=Telemetry())
        assert err.value.reason == "format_too_old"


def extract_pr16_store(tmp_path) -> str:
    with tarfile.open(os.path.join(GOLDEN_DIR, "pr16_store.tar.gz")) as tar:
        tar.extractall(tmp_path, filter="data")
    return str(tmp_path / "parent_store")


def store_files(store: str) -> dict[str, str]:
    """sha256 of every file under ``store`` but sqlite's -wal/-shm."""
    out = {}
    for root, _, names in os.walk(store):
        for name in names:
            if not name.endswith(("-wal", "-shm")):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, store)] = \
                        hashlib.sha256(fh.read()).hexdigest()
    return out


def open_fds_under(store: str) -> list[str]:
    out = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(store + os.sep):
            out.append(target)
    return out


class TestFormatRefusals:
    """A store no upgrade path leads from is refused before anything is
    written: a newer format (stamped on the last store a deployment
    opens, so the refusal also unwinds the stores opened before it) and
    the format that kept proof state in meta blobs."""

    @pytest.mark.parametrize("opener", ["storage", "sharded"])
    @pytest.mark.parametrize("case,reason", [
        ("newer", "format_too_new"), ("pr16", "format_too_old")])
    def test_refused_open_changes_nothing_and_leaks_nothing(
            self, base, tmp_path, case, reason, opener):
        if case == "newer":
            store = str(tmp_path / "store")
            shutil.copytree(base[0], store)
            n_shards, batch, last = N_SHARDS, BATCH, f"shard-{N_SHARDS - 1}"
            conn = sqlite3.connect(os.path.join(store, last, "index.db"))
            conn.execute("PRAGMA user_version = 4")
            conn.close()
        else:
            store = extract_pr16_store(tmp_path)
            n_shards, batch, last = 2, 4, "shard-1"
        before = store_files(store)
        gc.disable()
        try:
            with pytest.raises(StorageError) as err:
                if opener == "storage":
                    DurableStorage(os.path.join(store, last))
                else:
                    ShardedChain(n_shards, storage_dir=store,
                                 anchor_batch_size=batch,
                                 telemetry=Telemetry())
            assert err.value.reason == reason
            assert open_fds_under(store) == []
        finally:
            gc.enable()
        assert store_files(store) == before


class TestCountedGuards:
    """Exact against the parent commit (8188936) on this script: 196
    fsyncs and 248 sqlite COMMITs, of which the two checkpoint rounds
    took 17 + 18 each.  Opening every stack on a ``Storage`` bundle and
    writing both tables through the one indexed log may not add one of
    either."""

    PARENT_FSYNCS = 196
    PARENT_COMMITS = 248
    PARENT_ROUND = (12, 8)          # worst non-checkpoint round
    PARENT_CHECKPOINT_ROUND = (18, 17)

    def test_fsyncs_and_commits_do_not_rise(self, tmp_path):
        sc = ShardedChain(4, storage_dir=str(tmp_path / "store"),
                          anchor_batch_size=16, checkpoint_every_rounds=8,
                          telemetry=Telemetry())
        commits = [0]

        def trace(statement: str) -> None:
            if statement.lstrip().upper().startswith("COMMIT"):
                commits[0] += 1

        for storage in [s.storage for s in sc.shards] \
                + [sc.beacon.storage]:
            storage._conn.set_trace_callback(trace)
        fsyncs = default_telemetry().registry.counter(
            "persist_fsyncs_total")
        start = fsyncs.value
        per_round = []
        for r in range(20):
            c0, f0 = commits[0], fsyncs.value
            sc.submit_many([
                Transaction(f"acct-{i % 7}", TxKind.DATA,
                            {"subject": f"ns{i % 13}/obj{i % 29}",
                             "key": f"k{r}-{i}", "value": i},
                            nonce=r * 1000 + i, timestamp=r).seal()
                for i in range(100)])
            sc.ingest_records([
                {"record_id": f"rec-{r:03d}-{i:04d}",
                 "subject": f"ns{i % 13}/obj{i % 29}",
                 "actor": f"a{i % 5}", "operation": "write",
                 "timestamp": r * 1000 + i} for i in range(40)])
            sc.seal_round(timestamp=r + 1)
            per_round.append((commits[0] - c0, fsyncs.value - f0))
        sc.flush_anchors()
        sc.seal_round(timestamp=21)
        sc.close()
        assert fsyncs.value - start <= self.PARENT_FSYNCS
        assert commits[0] <= self.PARENT_COMMITS
        for r, counted in enumerate(per_round):
            limit = self.PARENT_CHECKPOINT_ROUND if r % 8 == 7 \
                else self.PARENT_ROUND
            assert counted[0] <= limit[0] and counted[1] <= limit[1], r
        # A checkpoint fsyncs each log that has been written to once —
        # four shards' block and record logs, the beacon's block log —
        # where the parent synced every block log twice.
        assert per_round[7][1] - per_round[6][1] == 2 * 4 + 1

    PARENT_FRESH_OPEN_COMMITS = 7
    PARENT_REOPEN_STATEMENTS = 139  # 12 of them the two per-open probes

    def test_an_open_reads_the_format_once(self, tmp_path, monkeypatch):
        """The sqlite statements of a 2-shard deployment's open: a fresh
        one may add one COMMIT per store (stamping its format), a reopen
        of a current store drops the probes for nine fewer statements."""
        statements: list[str] = []
        connect = sqlite3.connect

        def traced(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        def open_traced() -> tuple[ShardedChain, list[str]]:
            statements.clear()
            monkeypatch.setattr(sqlite3, "connect", traced)
            try:
                return ShardedChain(2, storage_dir=str(tmp_path / "store"),
                                    anchor_batch_size=4,
                                    checkpoint_every_rounds=2,
                                    telemetry=Telemetry()), list(statements)
            finally:
                monkeypatch.undo()

        sc, fresh = open_traced()
        for r in range(4):
            sc.submit_many([
                Transaction(f"acct-{i % 7}", TxKind.DATA,
                            {"subject": f"ns{i % 13}/obj{i % 29}",
                             "key": f"k{r}-{i}", "value": i},
                            nonce=r * 1000 + i, timestamp=r).seal()
                for i in range(20)])
            sc.ingest_records([
                {"record_id": f"rec-{r:03d}-{i:04d}",
                 "subject": f"ns{i % 13}/obj{i % 29}",
                 "actor": f"a{i % 5}", "operation": "write",
                 "timestamp": r * 1000 + i} for i in range(10)])
            sc.seal_round(timestamp=r + 1)
        sc.close()
        sc, reopen = open_traced()
        sc.close()
        commits = sum(s.lstrip().upper().startswith("COMMIT") for s in fresh)
        assert commits <= self.PARENT_FRESH_OPEN_COMMITS + 3
        assert len(reopen) <= self.PARENT_REOPEN_STATEMENTS - 9
