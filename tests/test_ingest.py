"""Ingestion pipeline: queues, watermarks, backpressure, batch
admission, group-commit durability, and parallel sealing.

The equivalence suite pins the pipeline's core promise: a pipelined,
batched, group-committed ingest run commits the same chain state,
provenance records, and verifiable proofs as the synchronous
``submit_many`` path — including through a durable close + reopen.
The crash suite drives the segment log's fault-injection hook through
the *group* write path, so a kill at any byte of a group commit must
recover to a consistent log + index.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain, ChainParams, Mempool, Transaction, TxKind
from repro.crypto.signatures import KeyPair, verify_encoded_batch
from repro.errors import (
    RETRY_AFTER_FLOOR_S, InvalidBlock, QueueFull, ShardError,
)
from repro.ingest import IngestPipeline
from repro.persist import CrashPoint, DurableStorage, SegmentLog
from repro.sharding import CrossShardCoordinator, ShardedChain
from repro.storage.provdb import ProvenanceDatabase


def data_tx(i: int, tenant: str = "t0", sender: str = "alice",
            fee: int = 0) -> Transaction:
    return Transaction(
        sender=sender, kind=TxKind.DATA,
        payload={"subject": f"{tenant}/obj", "key": f"k{i}", "value": i},
        timestamp=i, fee=fee,
    ).seal()


def record_for(i: int, tenant: str = "t0") -> dict:
    return {"record_id": f"r{i}", "subject": f"{tenant}/obj",
            "actor": "alice", "operation": "update", "timestamp": i}


def shard_heads(sharded: ShardedChain) -> list[bytes]:
    return [s.chain.head.block_hash for s in sharded.shards]


def shard_state_roots(sharded: ShardedChain) -> list[bytes]:
    return [s.chain.state.state_root() for s in sharded.shards]


# ---------------------------------------------------------------------------
# Queues, watermarks, and backpressure signals
# ---------------------------------------------------------------------------
class TestQueueBackpressure:
    def test_submit_routes_and_counts(self):
        sharded = ShardedChain(n_shards=4)
        pipe = IngestPipeline(sharded, queue_capacity=64)
        txs = [data_tx(i, tenant=f"t{i % 5}") for i in range(20)]
        shard_ids = [pipe.submit(tx) for tx in txs]
        assert pipe.backlog == 20
        for tx, sid in zip(txs, shard_ids):
            assert sharded.router.route(tx) == sid
        assert sum(pipe.queue_stats(s).depth for s in range(4)) == 20

    def test_queue_full_raises_structured_signal(self):
        sharded = ShardedChain(n_shards=1)
        pipe = IngestPipeline(sharded, queue_capacity=4,
                              high_watermark=0.5)
        for i in range(4):
            pipe.submit(data_tx(i))
        with pytest.raises(QueueFull) as exc_info:
            pipe.submit(data_tx(99))
        signal = exc_info.value
        assert signal.shard_id == 0
        assert signal.depth == 4
        assert signal.capacity == 4
        assert signal.high_watermark == 2
        assert signal.retry_after_rounds >= 1
        assert signal.retry_after_s >= 0.0
        assert signal.as_dict()["capacity"] == 4
        # The rejection is counted, never silent.
        assert pipe.queue_stats(0).total_rejected == 1

    def test_watermark_observable_before_full(self):
        sharded = ShardedChain(n_shards=1)
        pipe = IngestPipeline(sharded, queue_capacity=10,
                              high_watermark=0.5)
        for i in range(4):
            pipe.submit(data_tx(i))
        assert pipe.backpressure(0) is None
        assert not pipe.queue_stats(0).over_watermark
        pipe.submit(data_tx(4))
        signal = pipe.backpressure(0)
        assert signal is not None and signal.depth == 5
        assert pipe.queue_stats(0).over_watermark
        assert pipe.queue_stats(0).saturation == 0.5
        # Still accepts until actually full.
        for i in range(5, 10):
            pipe.submit(data_tx(i))
        with pytest.raises(QueueFull):
            pipe.submit(data_tx(11))

    def test_submit_many_partitions_input_exactly(self):
        sharded = ShardedChain(n_shards=1)
        pipe = IngestPipeline(sharded, queue_capacity=8)
        txs = [data_tx(i) for i in range(12)]
        report = pipe.submit_many(txs)
        assert report.queued_total == 8
        assert report.rejected_total == 4
        assert report.queued_total + report.rejected_total == len(txs)
        for tx, signal in report.rejected:
            assert isinstance(signal, QueueFull)
            assert signal.retry_after_rounds >= 1
        summary = report.backpressure_summary()
        assert summary[0]["queued"] == 8
        assert summary[0]["rejected"] == 4

    def test_rejected_txs_are_resubmittable(self):
        sharded = ShardedChain(n_shards=1, max_block_txs=8)
        pipe = IngestPipeline(sharded, queue_capacity=8)
        txs = [data_tx(i) for i in range(12)]
        report = pipe.submit_many(txs)
        pending = [tx for tx, _ in report.rejected]
        while pending or pipe.backlog or sharded.mempool_backlog:
            pipe.seal_round()
            pending = [tx for tx, _ in
                       pipe.submit_many(pending).rejected]
        assert sharded.total_txs_committed == 12

    def test_mempool_full_is_structured(self):
        pool = Mempool(capacity=2)
        pool.add(data_tx(0))
        pool.add(data_tx(1))
        with pytest.raises(QueueFull) as exc_info:
            pool.add(data_tx(2))
        assert "mempool full" in str(exc_info.value)
        assert exc_info.value.depth == 2
        assert exc_info.value.capacity == 2

    def test_facade_submit_many_rejects_with_retry_after(self):
        sharded = ShardedChain(n_shards=1, max_block_txs=4)
        sharded.shards[0].mempool.capacity = 4
        report = sharded.submit_many([data_tx(i) for i in range(6)])
        assert report.accepted_total == 4
        assert report.rejected_total == 2
        _, signal = report.rejected[0]
        assert signal.shard_id == 0
        assert signal.retry_after_rounds >= 1
        assert report.min_retry_after_s() >= 0.0

    def test_constructor_validation(self):
        sharded = ShardedChain(n_shards=1)
        with pytest.raises(ShardError):
            IngestPipeline(sharded, queue_capacity=0)
        with pytest.raises(ShardError):
            IngestPipeline(sharded, high_watermark=0.0)
        with pytest.raises(ShardError):
            IngestPipeline(sharded, max_blocks_per_round=0)
        with pytest.raises(ShardError):
            ShardedChain(n_shards=1, seal_workers=0)


# ---------------------------------------------------------------------------
# Batch admission
# ---------------------------------------------------------------------------
class TestBatchAdmission:
    def test_add_batch_counts(self):
        pool = Mempool()
        txs = [data_tx(i) for i in range(5)]
        accepted, duplicates = pool.add_batch(txs + txs[:2])
        assert accepted == 5
        assert duplicates == 2
        assert len(pool) == 5
        assert pool.total_accepted == 5

    def test_add_batch_is_all_or_nothing_on_overflow(self):
        pool = Mempool(capacity=3)
        with pytest.raises(QueueFull):
            pool.add_batch([data_tx(i) for i in range(4)])
        assert len(pool) == 0

    def test_add_batch_duplicates_take_no_capacity(self):
        pool = Mempool(capacity=3)
        known = [data_tx(0), data_tx(1)]
        pool.add_batch(known)
        # 2 duplicates + 1 novel fits in the single free slot.
        accepted, duplicates = pool.add_batch(known + [data_tx(2)])
        assert (accepted, duplicates) == (1, 2)
        assert len(pool) == 3

    def test_add_batch_priority_matches_add(self):
        a, b = Mempool(), Mempool()
        txs = [data_tx(i, fee=i % 3) for i in range(9)]
        for tx in txs:
            a.add(tx)
        b.add_batch(txs)
        assert [t.tx_id for t in a.pop_batch(9)] == \
            [t.tx_id for t in b.pop_batch(9)]

    def test_batch_signature_verification(self):
        keys = KeyPair.generate("batch-signer")
        good = [
            Transaction(keys.address, TxKind.DATA,
                        {"key": f"k{i}", "value": i}).seal().sign_with(keys)
            for i in range(3)
        ]
        forged = Transaction(keys.address, TxKind.DATA,
                             {"key": "evil", "value": 1}).seal()
        forged.signature = b"\x00" * 32
        forged.signer = keys.public
        verdicts = verify_encoded_batch(
            [(tx._encoded_body(), tx.signature, tx.signer)
             for tx in good + [forged]]
        )
        assert verdicts == [True, True, True, False]

    def test_pipeline_rejects_bad_signatures_on_admission(self):
        keys = KeyPair.generate("pipeline-signer")
        sharded = ShardedChain(n_shards=1)
        pipe = IngestPipeline(sharded, verify_signatures=True)
        good = Transaction(keys.address, TxKind.DATA,
                           {"key": "ok", "value": 1}).seal().sign_with(keys)
        unsigned = Transaction(keys.address, TxKind.DATA,
                               {"key": "no-sig", "value": 2}).seal()
        pipe.submit_many([good, unsigned])
        pipe.run_until_drained()
        assert sharded.total_txs_committed == 1
        assert list(pipe.invalid_txs) == [unsigned]
        assert pipe.stats.invalid == 1

    def test_pump_quarantines_malformed_without_losing_batch(self):
        sharded = ShardedChain(n_shards=1)
        pipe = IngestPipeline(sharded, queue_capacity=64)
        good = [data_tx(i) for i in range(5)]
        poison = Transaction("alice", TxKind.DATA,
                             {"key": "bad", "value": 1}, fee=-5).seal()
        for tx in good[:3] + [poison] + good[3:]:
            pipe.submit(tx)
        pipe.run_until_drained()
        # Healthy batch-mates of the malformed tx all committed; the
        # poison tx is quarantined, not lost.
        assert sharded.total_txs_committed == 5
        assert list(pipe.invalid_txs) == [poison]
        assert pipe.stats.invalid == 1

    def test_submit_raises_shard_tagged_mempool_signal(self):
        sharded = ShardedChain(n_shards=1)
        sharded.shards[0].mempool.capacity = 2
        sharded.submit(data_tx(0))
        sharded.submit(data_tx(1))
        with pytest.raises(QueueFull) as exc_info:
            sharded.submit(data_tx(2))
        assert exc_info.value.shard_id == 0
        assert exc_info.value.retry_after_rounds >= 1


# ---------------------------------------------------------------------------
# Equivalence with the synchronous path
# ---------------------------------------------------------------------------
class TestPipelineEquivalence:
    def test_single_block_rounds_match_exactly(self):
        txs = [data_tx(i, tenant=f"t{i % 7}", fee=i % 3)
               for i in range(120)]
        sync = ShardedChain(n_shards=3, max_block_txs=16)
        sync.submit_many(txs)
        sync.seal_until_drained()

        piped = ShardedChain(n_shards=3, max_block_txs=16)
        pipe = IngestPipeline(piped, queue_capacity=1024,
                              max_blocks_per_round=1)
        pipe.submit_many(txs)
        # Admit everything before sealing so fee prioritization sees the
        # same backlog the synchronous mempools did, then seal
        # single-block rounds — block-for-block identical chains.
        pipe.pump(max_batches_per_shard=1024)
        pipe.run_until_drained()
        assert shard_heads(piped) == shard_heads(sync)
        assert piped.beacon.chain.head.block_hash == \
            sync.beacon.chain.head.block_hash

    def test_deep_pipelining_matches_state_and_records(self):
        txs = [data_tx(i, tenant=f"t{i % 5}") for i in range(150)]
        records = [record_for(i, tenant=f"t{i % 5}") for i in range(40)]

        sync = ShardedChain(n_shards=3, max_block_txs=8,
                            anchor_batch_size=4)
        for record in records:
            sync.ingest_record(record)
        sync.submit_many(txs)
        sync.flush_anchors()
        sync.seal_until_drained()

        piped = ShardedChain(n_shards=3, max_block_txs=8,
                             anchor_batch_size=4)
        pipe = IngestPipeline(piped, queue_capacity=1024,
                              max_blocks_per_round=8)
        piped.ingest_records(records)
        pipe.submit_many(txs)
        piped.flush_anchors()
        pipe.run_until_drained()

        assert shard_state_roots(piped) == shard_state_roots(sync)
        assert piped.total_txs_committed == sync.total_txs_committed
        for s_sync, s_piped in zip(sync.shards, piped.shards):
            assert set(s_piped.chain.receipts) >= {
                tx.tx_id for block in s_sync.chain.blocks
                for tx in block.transactions
                if tx.kind == TxKind.DATA
            }
            assert sorted(r["record_id"] for r in s_piped.database.records()) \
                == sorted(r["record_id"] for r in s_sync.database.records())

    @settings(max_examples=10, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),   # tenant
            st.integers(min_value=0, max_value=3),   # fee
            st.integers(min_value=0, max_value=10 ** 6),  # value
        ),
        min_size=1, max_size=60,
    ))
    def test_pipelined_durable_equals_synchronous_memory(
            self, tmp_path_factory, plan):
        """Pipelined + group-committed + reopened == synchronous."""
        txs = [
            Transaction("hyp", TxKind.DATA,
                        {"subject": f"t{tenant}/obj", "key": f"k{i}",
                         "value": value},
                        timestamp=i, fee=fee).seal()
            for i, (tenant, fee, value) in enumerate(plan)
        ]
        sync = ShardedChain(n_shards=3, max_block_txs=8)
        sync.submit_many(txs)
        sync.seal_until_drained()

        directory = str(tmp_path_factory.mktemp("pipe-equiv"))
        piped = ShardedChain(n_shards=3, max_block_txs=8,
                             storage_dir=directory)
        pipe = IngestPipeline(piped, queue_capacity=4096,
                              max_blocks_per_round=4)
        report = pipe.submit_many(txs)
        assert report.rejected_total == 0
        pipe.run_until_drained()
        piped.close()

        reopened = ShardedChain(n_shards=3, max_block_txs=8,
                                storage_dir=directory)
        assert shard_state_roots(reopened) == shard_state_roots(sync)
        assert reopened.total_txs_committed == sync.total_txs_committed
        for s_sync, s_re in zip(sync.shards, reopened.shards):
            assert set(s_re.chain.receipts) == set(s_sync.chain.receipts)
        reopened.verify_all(deep=True)
        reopened.close()

    def test_proofs_survive_pipelined_durable_reopen(self, tmp_path):
        directory = str(tmp_path / "proofs")
        piped = ShardedChain(n_shards=3, max_block_txs=8,
                             anchor_batch_size=4, storage_dir=directory)
        pipe = IngestPipeline(piped, queue_capacity=1024)
        records = [record_for(i, tenant=f"t{i % 5}") for i in range(20)]
        piped.ingest_records(records)
        pipe.submit_many([data_tx(i, tenant=f"t{i % 5}")
                          for i in range(40)])
        piped.flush_anchors()
        pipe.run_until_drained()
        piped.close()

        from repro.sharding import ShardedQueryEngine
        reopened = ShardedChain(n_shards=3, max_block_txs=8,
                                anchor_batch_size=4,
                                storage_dir=directory)
        queries = ShardedQueryEngine(reopened)
        for i in (0, 7, 19):
            proof = queries.federated_proof(f"r{i}")
            record = next(r for r in queries.history(f"t{i % 5}/obj")
                          if r["record_id"] == f"r{i}")
            header = reopened.beacon.chain.block_at(
                proof.beacon_height).header
            assert proof.verify(record, header)
            assert not proof.verify(dict(record, actor="mallory"), header)
        reopened.close()


# ---------------------------------------------------------------------------
# Locks and parallel sealing
# ---------------------------------------------------------------------------
class TestPumpAndSealing:
    def test_pump_defers_locked_transactions(self):
        sharded = ShardedChain(n_shards=4)
        pipe = IngestPipeline(sharded, queue_capacity=256)
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=50)
        source = "tenant-a/lot-1"
        target_ns = next(
            f"tenant-{c}" for c in "bcdefgh"
            if sharded.router.shard_for(f"tenant-{c}")
            != sharded.router.shard_for("tenant-a")
        )
        transfer = coordinator.begin(source, f"{target_ns}/lot-1")
        locked_tx = Transaction(
            "alice", TxKind.DATA,
            {"subject": source, "key": "later", "value": 1},
        ).seal()
        pipe.submit(locked_tx)
        pipe.pump()
        assert pipe.backlog == 1          # rotated back, not dropped
        assert pipe.queue_stats(
            sharded.router.route(locked_tx)).total_deferred == 1
        while transfer.state not in ("committed", "aborted"):
            pipe.seal_round()
        assert transfer.state == "committed"
        pipe.run_until_drained()
        assert sharded.shard_for_subject(source).chain.find_transaction(
            locked_tx.tx_id) is not None

    def test_parallel_and_serial_rounds_agree(self):
        txs = [data_tx(i, tenant=f"t{i % 9}", fee=i % 4)
               for i in range(200)]
        serial = ShardedChain(n_shards=4, max_block_txs=16,
                              executor="serial")
        serial.submit_many(txs)
        while serial.mempool_backlog:
            serial.seal_round()

        threaded = ShardedChain(n_shards=4, max_block_txs=16,
                                seal_workers=4, executor="thread")
        threaded.submit_many(txs)
        while threaded.mempool_backlog:
            threaded.seal_round()
        assert shard_heads(threaded) == shard_heads(serial)
        assert threaded.beacon.chain.head.block_hash == \
            serial.beacon.chain.head.block_hash
        threaded.verify_all(deep=True)

    def test_durable_deployment_defaults_to_pool(self, tmp_path):
        durable = ShardedChain(n_shards=4,
                               storage_dir=str(tmp_path / "auto"))
        assert durable.seal_workers == 4
        durable.close()
        memory = ShardedChain(n_shards=4)
        assert memory.seal_workers == 1

    def test_multi_block_rounds_drain_deep_backlogs(self):
        sharded = ShardedChain(n_shards=2, max_block_txs=8)
        sharded.submit_many([data_tx(i, tenant=f"t{i % 3}")
                             for i in range(100)])
        report = sharded.seal_round(blocks_per_shard=8)
        assert max(s.blocks_produced for s in report.per_shard.values()) > 1
        sharded.seal_until_drained()
        assert sharded.total_txs_committed == 100
        sharded.verify_all(deep=True)


# ---------------------------------------------------------------------------
# Group-commit surfaces
# ---------------------------------------------------------------------------
class TestGroupCommit:
    def test_append_blocks_matches_sequential(self, tmp_path):
        def build(chain, n):
            blocks = []
            for b in range(n):
                txs = [data_tx(b * 10 + j) for j in range(3)]
                block = chain.build_block(txs, timestamp=b + 1)
                chain.append_block(block)
                blocks.append(block)
            return blocks

        template = Blockchain(ChainParams(chain_id="grp"))
        blocks = build(template, 9)

        seq = Blockchain(ChainParams(chain_id="grp"))
        for block in blocks:
            seq.append_block(block)
        storage = DurableStorage(tmp_path / "grp")
        grouped = Blockchain(ChainParams(chain_id="grp"),
                             store=storage.blocks)
        assert grouped.append_blocks([]) == []
        grouped.append_blocks(blocks[:4])
        grouped.append_blocks(blocks[4:])
        assert grouped.head.block_hash == seq.head.block_hash
        assert grouped.state.state_root() == seq.state.state_root()
        assert set(grouped.receipts) == set(seq.receipts)
        grouped.verify(deep=True)
        storage.close()

    def test_append_blocks_validates_linkage(self):
        template = Blockchain(ChainParams(chain_id="lk"))
        first = template.build_block([data_tx(1)], timestamp=1)
        template.append_block(first)
        second = template.build_block([data_tx(2)], timestamp=2)
        other = Blockchain(ChainParams(chain_id="lk"))
        with pytest.raises(InvalidBlock):
            other.append_blocks([second])   # skips height 1
        assert other.height == 0

    def test_ingest_records_duplicate_commits_nothing(self):
        sharded = ShardedChain(n_shards=3)
        sharded.ingest_record(record_for(7, tenant="t1"))
        batch = [record_for(100, tenant="t0"),
                 record_for(7, tenant="t1")]      # dup on another shard
        with pytest.raises(ShardError):
            sharded.ingest_records(batch)
        # The valid record's shard committed nothing either.
        assert not any(s.database.contains("r100") for s in sharded.shards)
        # The whole batch is retryable once corrected.
        sharded.ingest_records([record_for(100, tenant="t0")])

    def test_ingest_record_rejects_like_the_batch_path(self):
        """Single-record ingest shares the batch validation: the same
        defects raise the same ShardError, before anything is stored."""
        sharded = ShardedChain(n_shards=3)
        sharded.ingest_record(record_for(7, tenant="t1"))
        for bad in (record_for(7, tenant="t1"),               # duplicate
                    {"subject": "t0/obj", "actor": "alice"},  # no id
                    {"record_id": "r9", "actor": "alice"}):   # no subject
            with pytest.raises(ShardError):
                sharded.ingest_record(bad)
            with pytest.raises(ShardError):
                sharded.ingest_records([bad])
        assert sum(len(s.database) for s in sharded.shards) == 1
        shard_id, receipt = sharded.ingest_record(
            record_for(8, tenant="t1"))
        assert sharded.shards[shard_id].database.contains("r8")
        assert receipt is None       # anchor batch not full yet

    def test_record_group_commit_equals_loop(self, tmp_path):
        records = [record_for(i, tenant=f"t{i % 4}") for i in range(30)]
        s1 = DurableStorage(tmp_path / "loop")
        looped = ProvenanceDatabase(store=s1.records)
        for record in records:
            looped.insert(record)
        s2 = DurableStorage(tmp_path / "grouped")
        grouped = ProvenanceDatabase(store=s2.records)
        grouped.insert_many(records)
        for tenant in range(4):
            assert grouped.by_subject(f"t{tenant}/obj") == \
                looped.by_subject(f"t{tenant}/obj")
        s1.close()
        s2.close()
        s3 = DurableStorage(tmp_path / "grouped")
        reopened = ProvenanceDatabase(store=s3.records)
        assert len(reopened) == 30
        assert reopened.get("r7") == looped.get("r7")
        s3.close()

    def test_append_blocks_unwinds_without_journal(self, tmp_path):
        """depth=0 must still get the all-or-nothing group unwind."""
        from repro.chain.receipts import TransactionReceipt

        calls = {"n": 0}

        def exploding_executor(tx, state, chain):
            calls["n"] += 1
            if calls["n"] > 4:     # fails inside the second group block
                raise RuntimeError("executor blew up")
            state.set("data", str(tx.payload["key"]), tx.payload["value"])
            return TransactionReceipt(tx_id=tx.tx_id, success=True,
                                      gas_used=1)

        template = Blockchain(ChainParams(chain_id="nz"))
        blocks = []
        for b in range(2):
            block = template.build_block([data_tx(b * 10 + j)
                                          for j in range(3)],
                                         timestamp=b + 1)
            template.append_block(block)
            blocks.append(block)
        chain = Blockchain(ChainParams(chain_id="nz",
                                       reorg_journal_depth=0),
                           executor=exploding_executor)
        root_before = chain.state.state_root()
        with pytest.raises(RuntimeError):
            chain.append_blocks(blocks)
        assert chain.height == 0
        assert chain.state.state_root() == root_before
        assert chain.state.open_snapshots == 0

    def test_group_crash_hook_counts_across_segment_rolls(self, tmp_path):
        from repro.persist import CrashPoint

        log = SegmentLog(tmp_path / "roll", max_segment_bytes=64)
        payloads = [bytes([i]) * 40 for i in range(4)]   # 48-byte frames
        log.fail_after_bytes = 100                        # second chunk
        with pytest.raises(CrashPoint):
            log.append_many(payloads)
        # 96 bytes (one full chunk) landed, then 4 more of the next.
        assert log.segment_size(0) == 96
        assert log.segment_size(log.current_segment) == 4
        log.close()

    def test_segment_append_many_layout(self, tmp_path):
        log = SegmentLog(tmp_path / "log", max_segment_bytes=64)
        payloads = [bytes([i]) * 10 for i in range(8)]
        locations = log.append_many(payloads)
        assert len(locations) == 8
        assert log.current_segment > 0        # rolled mid-group
        for payload, loc in zip(payloads, locations):
            assert log.read(loc.segment, loc.offset) == payload
        scanned = [p for _, p in log.scan()]
        assert scanned == payloads
        log.close()


# ---------------------------------------------------------------------------
# Crash during a group commit
# ---------------------------------------------------------------------------
class TestGroupCommitCrash:
    @pytest.mark.parametrize("cut_bytes", [1, 7, 30, 61, 120])
    def test_record_group_crash_recovers(self, tmp_path, cut_bytes):
        directory = tmp_path / f"crash-{cut_bytes}"
        storage = DurableStorage(directory)
        db = ProvenanceDatabase(store=storage.records)
        db.insert_many([record_for(i) for i in range(5)])

        storage.record_log.fail_after_bytes = cut_bytes
        with pytest.raises(CrashPoint):
            db.insert_many([record_for(100 + i, tenant="t9")
                            for i in range(5)])
        storage.close()

        recovered = DurableStorage(directory)
        reopened = ProvenanceDatabase(store=recovered.records)
        # The group's index transaction never committed, so recovery
        # truncates every partial frame: exactly the pre-crash records.
        assert len(reopened) == 5
        assert sorted(r["record_id"] for r in reopened.records()) == \
            [f"r{i}" for i in range(5)]
        # The store keeps working at the recovered boundary.
        reopened.insert_many([record_for(200 + i) for i in range(3)])
        assert len(reopened) == 8
        recovered.close()

    @pytest.mark.parametrize("cut_bytes", [2, 50, 200, 500])
    def test_block_group_crash_recovers(self, tmp_path, cut_bytes):
        directory = tmp_path / f"blk-crash-{cut_bytes}"
        storage = DurableStorage(directory)
        chain = Blockchain(ChainParams(chain_id="gc"),
                           store=storage.blocks,
                           snapshot_store=storage.state)
        template = Blockchain(ChainParams(chain_id="gc"))
        blocks = []
        for b in range(6):
            block = template.build_block([data_tx(b * 10 + j)
                                          for j in range(2)],
                                         timestamp=b + 1)
            template.append_block(block)
            blocks.append(block)
        chain.append_blocks(blocks[:3])
        pre_crash_root = chain.state.state_root()

        storage.block_log.fail_after_bytes = cut_bytes
        with pytest.raises(CrashPoint):
            chain.append_blocks(blocks[3:])
        # In-memory state unwound: the group is all-or-nothing.
        assert chain.state.state_root() == pre_crash_root
        storage.close()

        recovered = DurableStorage(directory)
        reopened = Blockchain(ChainParams(chain_id="gc"),
                              store=recovered.blocks,
                              snapshot_store=recovered.state)
        assert reopened.height == 3
        reopened.verify(deep=True)
        # The same suffix group-commits cleanly after recovery.
        reopened.append_blocks(blocks[3:])
        assert reopened.head.block_hash == template.head.block_hash
        assert reopened.state.state_root() == template.state.state_root()
        recovered.close()

    def test_failed_round_requeues_txs_and_reanchors(self, tmp_path):
        """A seal round that raises must lose nothing: the popped batch
        returns to the mempool, and blocks another shard already
        committed are still beacon-anchored by the next round."""
        sharded = ShardedChain(n_shards=2, max_block_txs=8,
                               storage_dir=str(tmp_path / "retry"))
        t0 = next(f"t{c}" for c in "abcdefgh"
                  if sharded.router.shard_for(f"t{c}") == 0)
        t1 = next(f"t{c}" for c in "abcdefgh"
                  if sharded.router.shard_for(f"t{c}") == 1)
        sharded.submit_many([data_tx(i, tenant=t0) for i in range(4)]
                            + [data_tx(100 + i, tenant=t1)
                               for i in range(4)])
        sharded.shards[1].storage.block_log.fail_after_bytes = 7
        with pytest.raises(CrashPoint):
            sharded.seal_round()
        # Shard 1's popped batch is back in its mempool; shard 0 may
        # have committed its block, but its anchored watermark did not
        # advance — the beacon never saw this round.
        assert len(sharded.shards[1].mempool) == 4
        assert [s.anchored_height for s in sharded.shards] == [0, 0]
        report = sharded.seal_round()
        assert report.beacon_receipt is not None
        # Every committed shard block is now covered by the beacon.
        for shard in sharded.shards:
            assert shard.anchored_height == shard.chain.height
            assert shard.chain.height >= 1
        assert sharded.total_txs_committed == 8
        sharded.verify_all(deep=True)

    def test_sharded_pipeline_crash_mid_round(self, tmp_path):
        directory = str(tmp_path / "sharded-crash")
        sharded = ShardedChain(n_shards=2, max_block_txs=8,
                               storage_dir=directory,
                               checkpoint_every_rounds=1)
        pipe = IngestPipeline(sharded, queue_capacity=256)
        pipe.submit_many([data_tx(i, tenant=f"t{i % 3}")
                          for i in range(40)])
        while pipe.backlog or sharded.mempool_backlog:
            pipe.seal_round()
        committed = sharded.total_txs_committed
        assert committed == 40

        # Crash the shard-0 block log mid-group on the next round; the
        # burst targets a tenant homed on shard 0.
        tenant = next(f"t{c}" for c in "abcdefgh"
                      if sharded.router.shard_for(f"t{c}") == 0)
        victim = sharded.shards[0]
        victim.storage.block_log.fail_after_bytes = 11
        pipe.submit_many([data_tx(100 + i, tenant=tenant)
                          for i in range(16)])
        with pytest.raises(CrashPoint):
            pipe.seal_round()

        # Simulated hard kill: no close/checkpoint on the old facade.
        reopened = ShardedChain(n_shards=2, max_block_txs=8,
                                storage_dir=directory)
        assert reopened.total_txs_committed == committed
        reopened.verify_all(deep=True)
        reopened.close()


# ---------------------------------------------------------------------------
# PR-4 gap coverage: round-pace EWMA and parallel-seal failure retry
# ---------------------------------------------------------------------------
class TestRoundPaceEwma:
    def test_pre_first_seal_window_clamps_to_the_floor(self):
        # Before any round has been sealed there is no pace estimate;
        # the wall hint must still be non-zero (a remote client honoring
        # retry_after_s verbatim would otherwise hot-loop) — it clamps
        # to the configured floor instead of reporting 0.0.
        sharded = ShardedChain(n_shards=1, max_block_txs=8)
        signal = sharded.backpressure_signal(0, depth=20, capacity=20,
                                             high_watermark=10)
        assert signal.retry_after_rounds >= 1
        assert signal.retry_after_s >= RETRY_AFTER_FLOOR_S
        assert signal.retry_after_s == pytest.approx(
            signal.retry_after_rounds * RETRY_AFTER_FLOOR_S)

    def test_retry_floor_is_configurable(self):
        sharded = ShardedChain(n_shards=1, max_block_txs=8,
                               retry_floor_s=0.25)
        signal = sharded.backpressure_signal(0, depth=20, capacity=20,
                                             high_watermark=10)
        assert signal.retry_after_s == pytest.approx(
            signal.retry_after_rounds * 0.25)
        with pytest.raises(ShardError):
            ShardedChain(n_shards=1, retry_floor_s=0.0)

    def test_first_round_seeds_the_estimate(self):
        sharded = ShardedChain(n_shards=1, max_block_txs=8)
        sharded.submit_many([data_tx(i) for i in range(8)])
        sharded.seal_round()
        assert sharded._round_pace_s > 0.0
        signal = sharded.backpressure_signal(0, depth=20, capacity=20,
                                             high_watermark=10)
        assert signal.retry_after_s == pytest.approx(max(
            signal.retry_after_rounds * sharded._round_pace_s,
            RETRY_AFTER_FLOOR_S))
        assert signal.retry_after_s >= RETRY_AFTER_FLOOR_S

    def test_ewma_decays_toward_a_faster_pace(self):
        sharded = ShardedChain(n_shards=1, max_block_txs=8)
        sharded.submit_many([data_tx(i) for i in range(8)])
        sharded.seal_round()                   # seed with a real pace
        sharded._round_pace_s = 10.0           # pretend rounds were slow
        sharded.submit_many([data_tx(100 + i) for i in range(8)])
        sharded.seal_round()                   # a fast round
        # pace' = 0.8 * 10.0 + 0.2 * round_s with round_s << 10.
        assert 8.0 <= sharded._round_pace_s < 9.0

    def test_ewma_rises_from_an_underestimate(self):
        sharded = ShardedChain(n_shards=1, max_block_txs=8)
        sharded.submit_many([data_tx(i) for i in range(8)])
        sharded.seal_round()
        sharded._round_pace_s = 1e-12          # absurdly optimistic
        sharded.submit_many([data_tx(100 + i) for i in range(8)])
        sharded.seal_round()
        # 0.2 * (a real round's wall time) dominates the stale estimate.
        assert sharded._round_pace_s > 1e-9

    def test_retry_after_scales_with_backlog_depth(self):
        sharded = ShardedChain(n_shards=1, max_block_txs=8)
        sharded._round_pace_s = 2.0
        shallow = sharded.backpressure_signal(0, depth=9, capacity=64,
                                              high_watermark=8)
        deep = sharded.backpressure_signal(0, depth=64, capacity=64,
                                           high_watermark=8)
        # over = 2 -> 1 round; over = 57 -> ceil(57 / 8) = 8 rounds.
        assert shallow.retry_after_rounds == 1
        assert deep.retry_after_rounds == 8
        assert shallow.retry_after_s == pytest.approx(2.0)
        assert deep.retry_after_s == pytest.approx(16.0)


class TestParallelSealFailure:
    def test_failed_shard_retries_and_survivors_still_anchor(self):
        sharded = ShardedChain(n_shards=3, max_block_txs=8,
                               seal_workers=3, executor="thread")
        txs = [data_tx(i, tenant=f"t{i % 9}") for i in range(60)]
        report = sharded.submit_many(txs)
        assert report.rejected_total == 0
        victim = sharded.shards[1]
        original = victim.chain.append_blocks

        def exploding(blocks):
            raise RuntimeError("disk died mid-seal")

        victim.chain.append_blocks = exploding
        with pytest.raises(RuntimeError):
            sharded.seal_round(blocks_per_shard=2)
        victim.chain.append_blocks = original
        # The failed round anchored nothing: surviving shards' new
        # blocks wait for the next successful round.
        for shard in (sharded.shards[0], sharded.shards[2]):
            if shard.chain.height > 0:
                assert not sharded.beacon.is_anchored(
                    shard.shard_id, shard.chain.height)
        # Retry: every shard's blocks (including the survivors' from the
        # failed round) get beacon-anchored, and nothing was lost.
        sharded.seal_round(blocks_per_shard=2)
        sharded.seal_until_drained()
        assert sharded.total_txs_committed == 60
        for shard in sharded.shards:
            for height in range(1, shard.chain.height + 1):
                assert sharded.beacon.is_anchored(shard.shard_id, height)
        sharded.verify_all(deep=True)
