"""Contract runtime: gas, revert atomicity, events on receipts, and the
registry and escrow contracts."""

import pytest

from repro.chain import Blockchain, Transaction, TxKind
from repro.contracts import (
    Contract,
    ContractRuntime,
    IncentiveEscrow,
    ProvenanceRegistry,
    call_payload,
    deploy_payload,
    method,
    view,
)
from repro.errors import ContractReverted


class Counter(Contract):
    """A test contract exercising gas + revert behaviour."""

    def setup(self, start: int = 0) -> None:
        self.storage.set("count", int(start))

    @method
    def bump(self, by: int = 1) -> int:
        self.charge(1)
        value = int(self.storage.get("count", 0)) + by
        self.storage.set("count", value)
        self.emit("bumped", value=value)
        return value

    @method
    def bump_then_fail(self) -> None:
        self.charge(1)
        self.storage.set("count", 10_000)
        self.require(False, "deliberate failure")

    @method
    def burn_gas(self) -> None:
        while True:
            self.charge(100)

    @view
    def current(self) -> int:
        self.charge(1)
        return int(self.storage.get("count", 0))

    @view
    def sneaky_write(self) -> None:
        self.storage.set("count", -1)


@pytest.fixture
def rig():
    runtime = ContractRuntime()
    for cls in (Counter, ProvenanceRegistry, IncentiveEscrow):
        runtime.register(cls)
    chain = Blockchain()
    runtime.attach(chain)
    return runtime, chain


def deploy(chain, name, sender="deployer", **args):
    tx = Transaction(sender=sender, kind=TxKind.CONTRACT_DEPLOY,
                     payload=deploy_payload(name, **args))
    receipts = chain.append_block(chain.build_block([tx]))
    assert receipts[0].success, receipts[0].error
    return receipts[0].output


def call(chain, address, entry, sender="caller", **args):
    tx = Transaction(sender=sender, kind=TxKind.CONTRACT_CALL,
                     payload=call_payload(address, entry, **args))
    receipts = chain.append_block(chain.build_block([tx]))
    return receipts[0]


class TestRuntime:
    def test_deploy_and_call(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "Counter", start=5)
        receipt = call(chain, addr, "bump", by=3)
        assert receipt.success and receipt.output == 8
        assert runtime.query(chain, addr, "current") == 8

    def test_unknown_contract_class(self, rig):
        _, chain = rig
        tx = Transaction(sender="d", kind=TxKind.CONTRACT_DEPLOY,
                         payload=deploy_payload("Nope"))
        receipts = chain.append_block(chain.build_block([tx]))
        assert not receipts[0].success

    def test_unknown_entry_point(self, rig):
        _, chain = rig
        addr = deploy(chain, "Counter")
        receipt = call(chain, addr, "no_such_method")
        assert not receipt.success

    def test_revert_rolls_back_state(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "Counter", start=1)
        receipt = call(chain, addr, "bump_then_fail")
        assert not receipt.success
        assert runtime.query(chain, addr, "current") == 1

    def test_out_of_gas_reverts(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "Counter", start=1)
        receipt = call(chain, addr, "burn_gas")
        assert not receipt.success
        assert runtime.query(chain, addr, "current") == 1

    def test_view_cannot_write(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "Counter", start=3)
        with pytest.raises(ContractReverted):
            runtime.query(chain, addr, "sneaky_write")
        assert runtime.query(chain, addr, "current") == 3

    def test_events_reach_receipts(self, rig):
        _, chain = rig
        addr = deploy(chain, "Counter")
        receipt = call(chain, addr, "bump")
        assert [(e.name, e.source, e.data) for e in receipt.events] == [
            ("bumped", addr, {"value": 1})]
        # A reverted call's events are dropped with its writes.
        failed = call(chain, addr, "bump_then_fail")
        assert not failed.success and failed.events == []

    def test_two_instances_isolated(self, rig):
        runtime, chain = rig
        a1 = deploy(chain, "Counter", start=1)
        a2 = deploy(chain, "Counter", start=100)
        call(chain, a1, "bump")
        assert runtime.query(chain, a1, "current") == 2
        assert runtime.query(chain, a2, "current") == 100

    def test_entry_points_abi(self):
        assert Counter.entry_points() == {
            "bump": "method", "bump_then_fail": "method",
            "burn_gas": "method", "current": "view", "sneaky_write": "view"}

    def test_a_contract_without_setup_deploys(self, rig):
        runtime, chain = rig

        class Bare(Contract):
            @view
            def ping(self) -> str:
                return "pong"

        runtime.register(Bare)
        addr = deploy(chain, "Bare")
        assert runtime.query(chain, addr, "ping") == "pong"

    def test_a_setup_that_raises_leaves_no_frame(self, rig):
        """A setup that writes and then fails with an error that is not
        a revert: the deploy fails, its write is undone, and its frame
        is gone — it would otherwise sit on the commit group's snapshot,
        which the group releases as the top frame."""
        runtime, chain = rig

        class Broken(Contract):
            def setup(self) -> None:
                self.storage.set("half", 1)
                raise RuntimeError("setup broke")

        runtime.register(Broken)
        before = chain.state.state_root()
        tx = Transaction(sender="d", kind=TxKind.CONTRACT_DEPLOY,
                         payload=deploy_payload("Broken"))
        receipts = chain.append_block(chain.build_block([tx]))
        assert not receipts[0].success
        assert "setup broke" in receipts[0].error
        assert chain.height == 1
        assert chain.state.open_snapshots == 0
        assert chain.state.state_root() == before
        deploy(chain, "Counter")
        assert chain.height == 2

    def test_gas_and_calls_are_accounted(self, rig):
        runtime, chain = rig
        tx = Transaction(sender="d", kind=TxKind.CONTRACT_DEPLOY,
                         payload=deploy_payload("Counter"))
        receipts = chain.append_block(chain.build_block([tx]))
        addr = receipts[0].output
        receipts += [call(chain, addr, "bump"),
                     call(chain, addr, "bump_then_fail")]
        assert runtime.calls_executed == 3
        assert all(r.gas_used > 0 for r in receipts[:2])
        assert runtime.total_gas_used == sum(r.gas_used for r in receipts)


class TestProvenanceRegistry:
    def test_register_and_verify(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "ProvenanceRegistry")
        call(chain, addr, "register", sender="alice",
             record_id="r1", content_hash="aa")
        assert runtime.query(chain, addr, "verify",
                             record_id="r1", content_hash="aa")
        assert not runtime.query(chain, addr, "verify",
                                 record_id="r1", content_hash="bb")

    def test_duplicate_rejected(self, rig):
        _, chain = rig
        addr = deploy(chain, "ProvenanceRegistry")
        call(chain, addr, "register", record_id="r1", content_hash="aa")
        receipt = call(chain, addr, "register", record_id="r1",
                       content_hash="cc")
        assert not receipt.success

    def test_history_follows_prev_links(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "ProvenanceRegistry")
        call(chain, addr, "register", record_id="v1", content_hash="a")
        call(chain, addr, "register", record_id="v2", content_hash="b",
             prev_record_id="v1")
        call(chain, addr, "register", record_id="v3", content_hash="c",
             prev_record_id="v2")
        history = runtime.query(chain, addr, "history", record_id="v3")
        assert [h["record_id"] for h in history] == ["v3", "v2", "v1"]

    def test_only_owner_transfers(self, rig):
        _, chain = rig
        addr = deploy(chain, "ProvenanceRegistry")
        call(chain, addr, "register", sender="alice",
             record_id="r1", content_hash="aa")
        bad = call(chain, addr, "transfer_ownership", sender="mallory",
                   record_id="r1", new_owner="mallory")
        assert not bad.success
        good = call(chain, addr, "transfer_ownership", sender="alice",
                    record_id="r1", new_owner="bob")
        assert good.success

    def test_count_tracks_registrations(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "ProvenanceRegistry")
        assert runtime.query(chain, addr, "count") == 0
        call(chain, addr, "register", record_id="r1", content_hash="a")
        call(chain, addr, "register", record_id="r2", content_hash="b",
             prev_record_id="r1")
        refused = call(chain, addr, "register", record_id="r1",
                       content_hash="c")
        assert not refused.success
        assert runtime.query(chain, addr, "count") == 2


class TestIncentiveEscrow:
    def test_bounty_paid_on_valid_proof(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "IncentiveEscrow", sender="verifier")
        call(chain, addr, "open_bounty", sender="consumer",
             bounty_id="b1", amount=10, prover="farmer")
        receipt = call(chain, addr, "submit_result", sender="verifier",
                       bounty_id="b1", proof_valid=True)
        assert receipt.output == "paid"
        assert runtime.query(chain, addr, "payable_to",
                             account="farmer") == 10

    def test_bounty_refunded_on_invalid_proof(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "IncentiveEscrow", sender="verifier")
        call(chain, addr, "open_bounty", sender="consumer",
             bounty_id="b1", amount=10, prover="farmer")
        call(chain, addr, "submit_result", sender="verifier",
             bounty_id="b1", proof_valid=False)
        assert runtime.query(chain, addr, "payable_to",
                             account="consumer") == 10

    def test_only_verifier_settles(self, rig):
        _, chain = rig
        addr = deploy(chain, "IncentiveEscrow", sender="verifier")
        call(chain, addr, "open_bounty", sender="c",
             bounty_id="b1", amount=5, prover="p")
        receipt = call(chain, addr, "submit_result", sender="impostor",
                       bounty_id="b1", proof_valid=True)
        assert not receipt.success

    def test_prover_withdraws_once(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "IncentiveEscrow", sender="verifier")
        call(chain, addr, "open_bounty", sender="consumer",
             bounty_id="b1", amount=10, prover="farmer")
        call(chain, addr, "submit_result", sender="verifier",
             bounty_id="b1", proof_valid=True)
        paid = call(chain, addr, "withdraw", sender="farmer")
        assert paid.success and paid.output == 10
        assert [e.name for e in paid.events] == ["withdrawn"]
        assert runtime.query(chain, addr, "payable_to",
                             account="farmer") == 0
        assert not call(chain, addr, "withdraw", sender="farmer").success

    def test_bounty_status_follows_settlement(self, rig):
        runtime, chain = rig
        addr = deploy(chain, "IncentiveEscrow", sender="verifier")
        call(chain, addr, "open_bounty", sender="c", bounty_id="b1",
             amount=5, prover="p")
        assert runtime.query(chain, addr, "bounty_status",
                             bounty_id="b1") == "open"
        call(chain, addr, "submit_result", sender="verifier",
             bounty_id="b1", proof_valid=False)
        assert runtime.query(chain, addr, "bounty_status",
                             bounty_id="b1") == "refunded"
        again = call(chain, addr, "submit_result", sender="verifier",
                     bounty_id="b1", proof_valid=True)
        assert not again.success
        with pytest.raises(ContractReverted):
            runtime.query(chain, addr, "bounty_status", bounty_id="b9")
