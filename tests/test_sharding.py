"""Sharded execution subsystem: router, beacon, 2PC, federated queries.

Pins the subsystem's contracts:

* routing is deterministic, total, and namespace-stable;
* every shard block lands under exactly one beacon header and verifies
  against it (full-node and header-only light paths, tamper rejected);
* cross-shard 2PC commits atomically, aborts-and-unlocks on timeout,
  and handoff provenance exists *only* after full commit;
* federated verified answers compound anchored proofs with beacon
  proofs, and the packaged :class:`FederatedProof` verifies against a
  single beacon header.
"""

import pytest

from repro.chain import Transaction, TxKind
from repro.errors import InvalidTransaction, QueryError, ShardError
from repro.network import ChainNode, SimNet
from repro.sharding import (
    ABORTED,
    COMMITTED,
    PREPARING,
    CrossShardCoordinator,
    FederatedProof,
    ShardedChain,
    ShardedQueryEngine,
    ShardRouter,
    namespace_of,
)
from repro.verify import LightClient
from repro.workloads import MultiTenantShardWorkload


def record_tx(subject: str, i: int = 0, actor: str = "agent") -> Transaction:
    return Transaction(sender=actor, kind=TxKind.DATA,
                       payload={"subject": subject, "key": f"{subject}#{i}",
                                "value": i},
                       timestamp=i)


def distinct_shard_namespaces(router: ShardRouter,
                              count: int = 2) -> list[str]:
    """Namespaces guaranteed to land on ``count`` different shards."""
    picked: list[str] = []
    seen: set[int] = set()
    i = 0
    while len(picked) < count:
        candidate = f"org-{i:03d}"
        i += 1
        shard = router.shard_for(candidate)
        if shard not in seen:
            seen.add(shard)
            picked.append(candidate)
    return picked


@pytest.fixture
def sharded() -> ShardedChain:
    return ShardedChain(n_shards=4, max_block_txs=8)


class TestRouter:
    def test_routing_is_deterministic_and_stable(self):
        a, b = ShardRouter(4), ShardRouter(4)
        for i in range(50):
            ns = f"tenant-{i}"
            assert a.shard_for(ns) == b.shard_for(ns)
            assert a.shard_for(ns) == a.shard_for(ns)

    def test_namespace_prefix_rule(self):
        assert namespace_of("orgA/lot-1") == "orgA"
        assert namespace_of("bare-subject") == "bare-subject"
        router = ShardRouter(8)
        assert (router.shard_for_subject("orgA/x")
                == router.shard_for_subject("orgA/y"))

    def test_key_precedence_namespace_subject_sender(self):
        router = ShardRouter(4)
        tx = Transaction(sender="s", kind=TxKind.DATA,
                         payload={"namespace": "explicit",
                                  "subject": "other/x"})
        assert router.key_for(tx) == "explicit"
        assert router.key_for(record_tx("orgA/x")) == "orgA"
        bare = Transaction(sender="s", kind=TxKind.DATA, payload={"k": 1})
        assert router.key_for(bare) == "s"

    def test_partition_is_total(self):
        router = ShardRouter(4)
        txs = [record_tx(f"t{i}/obj", i) for i in range(40)]
        buckets = router.partition(txs)
        assert sum(len(b) for b in buckets.values()) == 40
        assert set(buckets) <= set(range(4))

    def test_rejects_zero_shards(self):
        with pytest.raises(ShardError):
            ShardRouter(0)


class TestShardedChainSealing:
    def test_submit_routes_to_home_shard(self, sharded):
        tx = record_tx("orgA/x")
        shard_id = sharded.submit(tx)
        assert shard_id == sharded.router.shard_for("orgA")
        assert [t.tx_id for t in sharded.shard(shard_id).mempool.pop_batch(
            10)] == [tx.tx_id]

    def test_seal_round_commits_and_beacon_anchors(self, sharded):
        report = sharded.submit_many(
            [record_tx(f"t{i % 7}/obj", i) for i in range(30)]
        )
        assert sum(report.accepted.values()) == 30
        assert not report.deferred
        sharded.seal_until_drained()
        assert sharded.total_txs_committed == 30
        beacon = sharded.beacon
        for shard in sharded.shards:
            for height in range(1, shard.chain.height + 1):
                assert beacon.anchored_entry(
                    shard.shard_id, height) is not None
        sharded.verify_all(deep=True)

    def test_anchor_flush_blocks_are_beacon_anchored_next_round(self, sharded):
        sharded.ingest_record({"record_id": "r1", "subject": "orgA/x",
                               "actor": "a", "operation": "create",
                               "timestamp": 1})
        receipts = sharded.flush_anchors()
        [(shard_id, receipt)] = receipts.items()
        assert sharded.beacon.anchored_entry(
            shard_id, receipt.block_height) is None
        sharded.seal_round()
        assert sharded.beacon.anchored_entry(
            shard_id, receipt.block_height) is not None

    def test_each_ingested_record_is_routed_once(self, sharded,
                                                 monkeypatch):
        routed: list[str] = []
        route = ShardRouter.shard_for_subject

        def counted(router, subject):
            routed.append(subject)
            return route(router, subject)

        monkeypatch.setattr(ShardRouter, "shard_for_subject", counted)
        records = [{"record_id": f"r{i}", "subject": f"t{i % 5}/obj",
                    "actor": "a", "operation": "create", "timestamp": i}
                   for i in range(12)]
        sharded.ingest_records(records[:11])
        sharded.ingest_record(records[11])
        assert routed == [r["subject"] for r in records]
        for record in records:
            home = sharded.shards[route(sharded.router, record["subject"])]
            assert home.database.get(record["record_id"]) == record

    def test_round_report_timing_model(self, sharded):
        sharded.submit_many([record_tx(f"t{i}/o", i) for i in range(16)])
        report = sharded.seal_round()
        assert report.txs_sealed == 16
        assert 0 < report.critical_path_s <= report.serial_s
        assert report.beacon_receipt is not None

    def test_empty_round_skips_beacon(self, sharded):
        report = sharded.seal_round()
        assert report.beacon_receipt is None
        assert sharded.beacon.height == 0


class TestBeacon:
    def test_shard_block_proof_roundtrip(self, sharded):
        sharded.submit_many([record_tx(f"t{i}/o", i) for i in range(12)])
        sharded.seal_round()
        beacon = sharded.beacon
        shard = next(s for s in sharded.shards if s.chain.height > 0)
        block = shard.chain.block_at(1)
        bundle = beacon.prove_shard_block(shard.shard_id, 1,
                                          block.block_hash)
        proof = bundle.shard_proof
        assert (proof.shard_id, proof.height, proof.block_hash) \
            == (shard.shard_id, 1, block.block_hash)
        # A full node checks the bundle against its own beacon header.
        assert bundle.verify(
            beacon.chain.block_at(proof.beacon_height).header)

    def test_wrong_block_hash_rejected(self, sharded):
        sharded.submit(record_tx("orgA/x"))
        sharded.seal_round()
        beacon = sharded.beacon
        shard_id = sharded.router.shard_for("orgA")
        with pytest.raises(ShardError):
            beacon.prove_shard_block(shard_id, 1, b"\x00" * 32)

    def test_light_bundle_verifies_against_header_only(self, sharded):
        sharded.submit_many([record_tx(f"t{i}/o", i) for i in range(12)])
        sharded.seal_round()
        shard = next(s for s in sharded.shards if s.chain.height > 0)
        block = shard.chain.block_at(1)
        bundle = sharded.beacon.prove_shard_block(shard.shard_id, 1,
                                                  block.block_hash)
        client = LightClient("beacon")
        client.sync_from(sharded.beacon.chain)
        header = client.header_at(bundle.shard_proof.beacon_height)
        assert bundle.verify(header)
        # The wrong header must not verify.
        assert not bundle.verify(client.header_at(0))

    def test_double_anchor_rejected(self, sharded):
        sharded.submit(record_tx("orgA/x"))
        sharded.seal_round()
        shard_id = sharded.router.shard_for("orgA")
        block_hash = sharded.shard(shard_id).chain.block_at(1).block_hash
        with pytest.raises(ShardError):
            sharded.beacon.anchor_round([(shard_id, 1, block_hash, b"")])

    def test_duplicate_entry_within_round_rejected(self, sharded):
        with pytest.raises(ShardError):
            sharded.beacon.anchor_round(
                [(0, 1, b"\x01" * 32, b""), (0, 1, b"\x02" * 32, b"")]
            )


class TestCrossShard2PC:
    def _handoff_pair(self, sharded):
        ns_a, ns_b = distinct_shard_namespaces(sharded.router)
        return f"{ns_a}/lot-1", f"{ns_b}/lot-1"

    def test_commit_path(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=3)
        source, target = self._handoff_pair(sharded)
        transfer = coordinator.begin(source, target, {"qty": 5},
                                     actor="alice", timestamp=7)
        assert transfer.state == PREPARING
        assert transfer.is_cross_shard
        for _ in range(3):
            sharded.seal_round()
        assert transfer.state == COMMITTED
        assert transfer.outcome.completed
        assert coordinator.committed == 1
        # Handoff records landed on both home shards.
        src_shard = sharded.shard_for_subject(source)
        dst_shard = sharded.shard_for_subject(target)
        assert src_shard.database.get(f"{transfer.xid}:out")[
            "operation"] == "handoff-out"
        assert dst_shard.database.get(f"{transfer.xid}:in")[
            "operation"] == "handoff-in"
        # Locks released: regular traffic flows again.
        sharded.submit(record_tx(source, 99))

    def test_lock_blocks_conflicting_writes_until_commit(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=3)
        source, target = self._handoff_pair(sharded)
        coordinator.begin(source, target)
        with pytest.raises(ShardError):
            sharded.submit(record_tx(source, 1))
        report = sharded.submit_many([record_tx(target, 2)])
        assert len(report.deferred) == 1
        assert sum(report.accepted.values()) == 0

    def test_a_lock_conflict_is_classified_for_reports(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=3)
        source, target = self._handoff_pair(sharded)
        coordinator.begin(source, target)
        with pytest.raises(ShardError) as refused:
            sharded.submit(record_tx(source, 1))
        assert refused.value.as_dict() == {
            "reason": "lock_conflict", "shard_id": None,
            "message": str(refused.value)}
        assert ShardError("down", shard_id=2).as_dict() == {
            "reason": "shard_error", "shard_id": 2, "message": "down"}

    def test_transfers_are_looked_up_by_xid(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=3)
        source, target = self._handoff_pair(sharded)
        transfer = coordinator.begin(source, target)
        assert coordinator.transfers[transfer.xid] is transfer
        assert coordinator.active == [transfer]
        assert "xfer-unknown" not in coordinator.transfers

    def test_submit_report_totals_count_each_outcome(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=3)
        source, target = self._handoff_pair(sharded)
        free = next(f"free-{i}/x" for i in range(64)
                    if sharded.router.shard_for_subject(f"free-{i}/x")
                    not in (sharded.router.shard_for_subject(source),
                            sharded.router.shard_for_subject(target)))
        coordinator.begin(source, target)
        report = sharded.submit_many([record_tx(target, 2),
                                      record_tx(target, 3),
                                      record_tx(free, 4)])
        assert len(report.deferred) == 2
        assert sum(report.accepted.values()) == 1
        assert report.rejected_total == 0

    def test_abort_on_timeout_unlocks(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=2)
        source, target = self._handoff_pair(sharded)
        transfer = coordinator.begin(source, target)
        stalled = sharded.router.shard_for_subject(source)
        live = [i for i in range(sharded.n_shards) if i != stalled]
        # The source shard never seals, so the prepare phase cannot
        # complete; the deadline passes and the coordinator aborts.
        for _ in range(4):
            sharded.seal_round(shard_ids=live)
        assert transfer.state == ABORTED
        assert transfer.outcome.status == "aborted"
        assert transfer.outcome.extra["reason"] == "prepare_timeout"
        assert coordinator.aborted == 1
        # Unlocked: both subjects accept writes again.
        sharded.submit(record_tx(source, 1))
        sharded.submit(record_tx(target, 2))
        # No half-transfer ever materialized.
        for shard in sharded.shards:
            assert not shard.database.contains(f"{transfer.xid}:out")
            assert not shard.database.contains(f"{transfer.xid}:in")

    def test_lock_conflict_aborts_second_transfer(self, sharded):
        coordinator = CrossShardCoordinator(sharded)
        source, target = self._handoff_pair(sharded)
        first = coordinator.begin(source, target)
        second = coordinator.begin(source, f"{namespace_of(target)}/lot-2")
        assert first.state == PREPARING
        assert second.state == ABORTED
        assert second.outcome.extra["reason"] == "lock_conflict"

    def test_payload_cannot_override_protocol_fields(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=3)
        source, target = self._handoff_pair(sharded)
        transfer = coordinator.begin(
            source, target,
            {"operation": "evil", "subject": "other/x",
             "record_id": "collide", "note": "kept"},
        )
        for _ in range(3):
            sharded.seal_round()
        assert transfer.state == COMMITTED
        out = sharded.shard_for_subject(source).database.get(
            f"{transfer.xid}:out")
        assert out["operation"] == "handoff-out"
        assert out["subject"] == source
        assert out["note"] == "kept"        # benign payload keys survive

    def test_tx_queued_before_lock_does_not_seal_mid_2pc(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=3)
        source, target = self._handoff_pair(sharded)
        early = record_tx(source, 42)
        sharded.submit(early)               # admitted before the lock
        transfer = coordinator.begin(source, target)
        src_chain = sharded.shard_for_subject(source).chain
        sharded.seal_round()
        # The queued write was held back, not committed alongside the
        # lock leg.
        assert transfer.state != COMMITTED
        assert src_chain.find_transaction(early.tx_id) is None
        for _ in range(3):
            sharded.seal_round()
        assert transfer.state == COMMITTED
        sharded.seal_until_drained()        # lock released: it seals now
        assert src_chain.find_transaction(early.tx_id) is not None

    def test_ingest_record_respects_locks(self, sharded):
        coordinator = CrossShardCoordinator(sharded)
        source, target = self._handoff_pair(sharded)
        coordinator.begin(source, target)
        with pytest.raises(ShardError):
            sharded.ingest_record({"record_id": "r", "subject": source,
                                   "actor": "a", "operation": "update",
                                   "timestamp": 1})

    def test_failed_leg_submit_releases_locks(self, sharded, monkeypatch):
        """A leg that cannot even be queued must not leak the locks."""
        coordinator = CrossShardCoordinator(sharded)
        source, target = self._handoff_pair(sharded)

        def full_mempool(shard_id, tx):
            raise InvalidTransaction("mempool full")

        monkeypatch.setattr(sharded, "submit_to", full_mempool)
        transfer = coordinator.begin(source, target)
        assert transfer.state == ABORTED
        assert transfer.outcome.extra["reason"] == "submit_failed"
        monkeypatch.undo()
        sharded.submit(record_tx(source, 1))   # unlocked again

    def test_same_shard_transfer_commits(self, sharded):
        coordinator = CrossShardCoordinator(sharded)
        ns = distinct_shard_namespaces(sharded.router, 1)[0]
        transfer = coordinator.begin(f"{ns}/a", f"{ns}/b")
        assert not transfer.is_cross_shard
        assert transfer.participants == (
            sharded.router.shard_for(ns),
        )
        for _ in range(3):
            sharded.seal_round()
        assert transfer.state == COMMITTED


class TestFederatedQueries:
    def _committed_handoff(self, sharded):
        coordinator = CrossShardCoordinator(sharded, timeout_rounds=3)
        source, target = (f"{ns}/lot-9" for ns in
                          distinct_shard_namespaces(sharded.router))
        for i in range(3):
            sharded.ingest_record({
                "record_id": f"pre-{i}", "subject": source,
                "actor": "alice", "operation": "update", "timestamp": i,
            })
        transfer = coordinator.begin(source, target, actor="alice",
                                     timestamp=10)
        for _ in range(3):
            sharded.seal_round()
        assert transfer.state == COMMITTED
        sharded.flush_anchors()
        sharded.seal_round()
        return transfer, source, target

    def test_history_merges_across_shards_in_time_order(self, sharded):
        engine = ShardedQueryEngine(sharded)
        transfer, source, target = self._committed_handoff(sharded)
        rows = engine.trace_verified(source, target).records
        assert [r["record_id"] for r in rows[-2:]] == \
            [f"{transfer.xid}:in", f"{transfer.xid}:out"] or \
            [r["record_id"] for r in rows[-2:]] == \
            [f"{transfer.xid}:out", f"{transfer.xid}:in"]
        timestamps = [r.get("timestamp", 0) for r in rows]
        assert timestamps == sorted(timestamps)

    def test_trace_verified_compounds_anchor_and_beacon(self, sharded):
        engine = ShardedQueryEngine(sharded)
        transfer, source, target = self._committed_handoff(sharded)
        answer = engine.trace_verified(source, target)
        assert answer.verified
        assert len(answer.records) == 5      # 3 updates + out + in
        assert all(answer.beacon_verified)
        assert len(set(answer.shard_ids)) == 2
        assert not answer.unanchored

    def test_actor_and_time_range_merge_across_shards(self, sharded):
        a, b = distinct_shard_namespaces(sharded.router)
        sharded.ingest_records([
            {"record_id": f"r{i}", "subject": f"{(a, b)[i % 2]}/x",
             "actor": ("ann", "bob")[i % 3 == 0], "operation": "update",
             "timestamp": 10 - i}
            for i in range(8)])
        engine = ShardedQueryEngine(sharded)
        by_ann = engine.by_actor("ann")
        assert [r["record_id"] for r in by_ann] == \
            ["r7", "r5", "r4", "r2", "r1"]
        assert {r["subject"] for r in by_ann} == {f"{a}/x", f"{b}/x"}
        assert [r["record_id"] for r in engine.time_range(4, 8)] == \
            ["r6", "r5", "r4", "r3"]

    def test_unflushed_record_fails_verification(self, sharded):
        engine = ShardedQueryEngine(sharded)
        sharded.ingest_record({"record_id": "r0", "subject": "orgA/x",
                               "actor": "a", "operation": "create",
                               "timestamp": 0})
        answer = engine.history_verified("orgA/x")
        assert not answer.verified
        assert answer.unanchored == ("r0",)

    def test_anchored_but_not_beacon_committed_fails(self, sharded):
        engine = ShardedQueryEngine(sharded)
        sharded.ingest_record({"record_id": "r0", "subject": "orgA/x",
                               "actor": "a", "operation": "create",
                               "timestamp": 0})
        sharded.flush_anchors()     # anchored on the shard...
        answer = engine.history_verified("orgA/x")
        assert not answer.verified  # ...but no beacon header covers it yet
        assert answer.proofs[0] is not None
        assert answer.beacon_verified == (False,)
        sharded.seal_round()
        assert engine.history_verified("orgA/x").verified

    def test_federated_proof_verifies_against_beacon_header(self, sharded):
        engine = ShardedQueryEngine(sharded)
        transfer, source, target = self._committed_handoff(sharded)
        record_id = f"{transfer.xid}:in"
        proof = engine.federated_proof(record_id)
        assert isinstance(proof, FederatedProof)
        record = next(r for r in engine.history(target)
                      if r["record_id"] == record_id)
        client = LightClient("beacon")
        client.sync_from(sharded.beacon.chain)
        header = client.header_at(proof.beacon_height)
        assert proof.verify(record, header)
        # Tampered record and wrong header both fail.
        tampered = dict(record, actor="mallory")
        assert not proof.verify(tampered, header)
        assert not proof.verify(record, client.header_at(0))

    def test_federated_proof_subject_hint_resolves_home_shard(self, sharded):
        engine = ShardedQueryEngine(sharded)
        transfer, source, target = self._committed_handoff(sharded)
        proof = engine.federated_proof(f"{transfer.xid}:in", subject=target)
        assert proof.shard_id == sharded.router.shard_for_subject(target)
        with pytest.raises(QueryError):
            # :in lives on the target's shard, not the source's.
            engine.federated_proof(f"{transfer.xid}:in", subject=source)


class TestShardGatewayNode:
    def test_shard_tx_topic_routes_into_sharded_chain(self):
        net = SimNet(seed=3)
        sharded = ShardedChain(n_shards=4, max_block_txs=8)
        gateway = ChainNode("gateway", net)
        client = ChainNode("client", net)
        gateway.serve_shards(sharded)
        tx = record_tx("orgA/x", 1)
        assert client.send_shard_transaction("gateway", tx)
        net.run()
        home = sharded.router.shard_for("orgA")
        assert len(sharded.shard(home).mempool) == 1
        sharded.seal_round()
        assert sharded.shard(home).chain.find_transaction(tx.tx_id)

    def test_gateway_drops_conflicting_tx_without_killing_net(self):
        net = SimNet(seed=3)
        sharded = ShardedChain(n_shards=4, max_block_txs=8)
        coordinator = CrossShardCoordinator(sharded)
        gateway = ChainNode("gateway", net)
        client = ChainNode("client", net)
        gateway.serve_shards(sharded)
        ns_a, ns_b = distinct_shard_namespaces(sharded.router)
        coordinator.begin(f"{ns_a}/x", f"{ns_b}/x")
        client.send_shard_transaction("gateway", record_tx(f"{ns_a}/x", 1))
        ok = record_tx(f"{ns_a}/free", 2)
        client.send_shard_transaction("gateway", ok)
        net.run()   # the conflicting tx is dropped, not loop-fatal
        home = sharded.router.shard_for(ns_a)
        assert ok.tx_id in [t.tx_id for t in
                            sharded.shard(home).mempool.pop_batch(100)]


class TestMultiTenantWorkload:
    def test_deterministic_for_seed(self):
        a = list(MultiTenantShardWorkload(seed=5).generate(200))
        b = list(MultiTenantShardWorkload(seed=5).generate(200))
        assert a == b
        c = list(MultiTenantShardWorkload(seed=6).generate(200))
        assert a != c

    def test_shapes_and_timestamps(self):
        ops = list(MultiTenantShardWorkload(
            n_tenants=8, cross_shard_ratio=0.3, seed=1
        ).generate(300))
        assert len(ops) == 300
        assert [op.timestamp for op in ops] == list(range(300))
        for op in ops:
            assert op.subject.startswith(op.namespace + "/")
            if op.kind == "cross":
                assert op.target_namespace != op.namespace
                assert op.target_subject.startswith(
                    op.target_namespace + "/")
            else:
                assert op.operation in ("update", "create", "derive")

    def test_cross_ratio_is_respected(self):
        ops = list(MultiTenantShardWorkload(
            n_tenants=16, cross_shard_ratio=0.2, seed=2
        ).generate(2000))
        crosses = sum(1 for op in ops if op.kind == "cross")
        assert 0.12 < crosses / len(ops) < 0.28

    def test_zipf_skew_concentrates_tenants(self):
        ops = list(MultiTenantShardWorkload(
            n_tenants=64, zipf_s=1.1, cross_shard_ratio=0.0, seed=3
        ).generate(2000))
        counts: dict[str, int] = {}
        for op in ops:
            counts[op.namespace] = counts.get(op.namespace, 0) + 1
        top = max(counts.values())
        assert top / len(ops) > 0.05       # a hot tenant exists
        assert len(counts) > 20            # but the tail is populated

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            MultiTenantShardWorkload(cross_shard_ratio=1.5)
        with pytest.raises(ValueError):
            MultiTenantShardWorkload(n_tenants=1, cross_shard_ratio=0.1)
