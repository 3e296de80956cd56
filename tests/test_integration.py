"""End-to-end integration tests spanning multiple subsystems.

Each test is one of the paper's scenarios run through the whole stack —
the FIG1 story (single entity → intra-chain collaboration → multi-chain)
expressed as executable assertions.
"""

import pytest

from repro import (
    Blockchain,
    ChainParams,
    ProvChain,
    SciLedger,
    SimClock,
    Transaction,
    TxKind,
)
from repro.consensus import PBFTCluster
from repro.errors import AccessDenied
from repro.network import SimNet
from repro.systems import ForensiCross, PrivChain, SynergyChain, Vassago
from repro.workloads import WorkflowShape


class TestRQ1SingleEntityStory:
    """A lone cloud user audits their own files (paper §3)."""

    def test_full_audit_cycle_over_every_operation_kind(self):
        system = ProvChain(difficulty_bits=4, batch_size=8)
        ops = [("create", "user-00", "obj-0", b"x" * 64),
               ("create", "user-01", "obj-1", b"x" * 32),
               ("create", "user-00", "obj-2", b"x" * 128),
               ("read", "user-00", "obj-0", None),
               ("update", "user-00", "obj-0", b"y" * 96),
               ("share", "user-00", "obj-2", "user-01"),
               ("read", "user-01", "obj-2", None),
               ("update", "user-01", "obj-2", b"z" * 40),
               ("read", "user-01", "obj-0", None),       # not shared
               ("update", "user-01", "obj-1", b"w" * 8),
               ("read", "user-00", "obj-0", None)]
        applied = 0
        for op, user, key, arg in ops:
            try:
                if op == "read":
                    system.read(user, key)
                else:
                    getattr(system, op)(user, key, arg)
                applied += 1
            except AccessDenied:
                continue    # a refused operation is neither captured nor audited
        assert applied == len(ops) - 1
        system.finalize()
        assert system.records_captured == applied
        # Every object's audit verifies against the chain.
        for key in ("obj-0", "obj-1", "obj-2"):
            assert system.audit_object(key).verified
        assert [r["operation"] for r in system.audit_object("obj-2").records] \
            == ["create", "share", "read", "update"]
        system.chain.verify()


class TestRQ2CollaborationStory:
    """Institutions collaborate on one chain (paper §4)."""

    def test_workflow_collaboration_with_invalidation_storm(self):
        ledger = SciLedger(["uni-a", "uni-b", "uni-c"], batch_size=16)
        ledger.create_workflow("w", "pi")
        for spec in WorkflowShape(n_tasks=25, fanout=3, seed=7).tasks():
            ledger.design_task("w", spec["task_id"], spec["user_id"],
                               spec["inputs"], spec["outputs"])
        ledger.run_workflow("w")
        all_results = set(ledger.valid_results("w"))
        assert len(all_results) == 25
        # A root task turns out wrong: cascade, re-execute, re-verify.
        cascade = ledger.invalidate("task-0000")
        assert len(cascade) >= 1
        ledger.re_execute(cascade)
        assert set(ledger.valid_results("w")) == all_results
        for artifact in list(all_results)[:5]:
            assert ledger.provenance_of(artifact).verified

    def test_privacy_preserving_supply_chain_settlement(self):
        system = PrivChain({"acme", "globex"}, verifier="fda")
        readings = [
            system.commit_reading("acme", f"lot-{i}", "truck",
                                  value=30 + i * 7)
            for i in range(4)
        ]
        paid = refunded = 0
        for reading in readings:
            bounty = system.request_range_proof(
                "pharmacy", reading.reading_id, lo=25, hi=60, bounty=5
            )
            try:
                proof = system.produce_proof(reading.reading_id,
                                             lo=25, hi=60, n_bits=7)
                outcome = system.settle(bounty, reading.reading_id, proof)
            except Exception:
                # Out-of-band reading: prover cannot prove; verifier
                # settles against an empty/invalid proof.
                outcome = "refunded"
            if outcome == "paid":
                paid += 1
            else:
                refunded += 1
        # values 30, 37, 44, 51 are in [25, 60]: all pass.
        assert paid == 4 and refunded == 0
        system.chain.verify()


class TestRQ3MultiChainStory:
    """Organizations with separate chains collaborate (paper §5)."""

    def test_cross_chain_forensics_full_case(self):
        system = ForensiCross(["us", "eu"])
        actors = {"us": "smith", "eu": "mueller"}
        system.open_joint_case("JC", actors)
        system.sync_stage("JC", actors)         # preservation
        system.orgs["us"].collect_evidence("JC", "us-ev-1", "smith",
                                           b"disk image", "image")
        system.orgs["eu"].collect_evidence("JC", "eu-ev-1", "mueller",
                                           b"router logs", "log")
        assert system.share_evidence("JC", "us", "eu", "us-ev-1", "smith")
        for _ in range(3):                       # collection..reporting
            system.sync_stage("JC", actors)
        bundle = system.extract_cross_chain("JC", actors)
        assert bundle["all_verified"]
        assert bundle["bridge_messages"] >= 5    # 4 syncs + 1 share
        for org in ("us", "eu"):
            system.orgs[org].chain.verify()

    def test_vassago_query_over_synergychain_style_workload(self):
        system = Vassago([f"org-{i}" for i in range(4)])
        # A dependency chain weaving through all four organizations.
        tip = system.commit_tx("org-0", "u", {"op": "genesis"})
        for i in range(1, 12):
            tip = system.commit_tx(f"org-{i % 4}", "u",
                                   {"op": f"step-{i}"}, depends_on=[tip])
        hops = system.query_provenance(tip)
        assert len(hops) == 12
        assert all(h.proof_valid for h in hops)
        guided_cost = system.last_query_cost.txs_examined
        system.query_provenance_naive(tip)
        naive_cost = system.last_query_cost.txs_examined
        assert naive_cost > 5 * guided_cost

    def test_aggregation_tier_consistency_under_load(self):
        system = SynergyChain(["a", "b"])
        system.rbac.assign("admin", "admin")
        for org in ("a", "b"):
            for i in range(50):
                system.submit(org, {
                    "record_id": f"{org}-{i}",
                    "domain": "generic",
                    "subject": f"s{i % 7}",
                    "actor": "w",
                    "operation": "op",
                    "timestamp": i,
                })
        for subject in (f"s{i}" for i in range(7)):
            agg = system.query_aggregated("admin", subject)
            seq = system.query_sequential("admin", subject)
            assert len(agg) == len(seq)


class TestConsensusBackedProvenance:
    """Provenance anchoring driven by a real agreement cluster."""

    def test_pbft_committed_anchors(self):
        net = SimNet(seed=5)
        cluster = PBFTCluster(net, n_replicas=4, chain_id="prov-pbft")
        records = [
            {"record_id": f"r{i}", "subject": "s", "op": "write"}
            for i in range(6)
        ]
        from repro.crypto.merkle import MerkleTree
        from repro.provenance.records import record_digest

        tree = MerkleTree([record_digest(r) for r in records])
        tx = Transaction(
            sender="anchor", kind=TxKind.PROVENANCE,
            payload={"anchor_id": "a0", "merkle_root": tree.root,
                     "record_count": len(records)},
        )
        metrics = cluster.propose([tx])
        assert metrics.committed
        # Every replica independently holds the anchor.
        for replica in cluster.replicas:
            anchored = replica.chain.state.get("provenance", "a0")
            assert anchored is not None
            assert anchored["merkle_root"] == tree.root


class TestChainInteropSmoke:
    def test_two_chain_handoff_preserves_total_value(self):
        from repro.crosschain import HTLCManager, AtomicSwap, SwapParty

        clock = SimClock()
        a = Blockchain(ChainParams(chain_id="ia"))
        b = Blockchain(ChainParams(chain_id="ib"))
        a.state.credit("alice", 100)
        b.state.credit("bob", 100)
        swap = AtomicSwap(
            parties=[SwapParty("alice", 25, HTLCManager(a, clock)),
                     SwapParty("bob", 40, HTLCManager(b, clock))],
            clock=clock,
        )
        swap.execute()
        total_a = sum(a.state.balance(acc) for acc in ("alice", "bob"))
        total_b = sum(b.state.balance(acc) for acc in ("alice", "bob"))
        assert total_a == 100 and total_b == 100
        a.verify()
        b.verify()
