"""Blockchain substrate: blocks, linkage, tamper detection, reorgs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Block, Blockchain, ChainParams, Transaction, TxKind
from repro.chain.block import GENESIS_PREV_HASH
from repro.crypto.signatures import KeyPair
from repro.errors import (
    ChainError,
    ForkError,
    InvalidBlock,
    InvalidTransaction,
    TamperDetected,
)
from .conftest import data_tx


class TestTransaction:
    def test_id_depends_on_payload(self):
        assert data_tx(1).tx_id != data_tx(2).tx_id

    def test_id_stable(self):
        assert data_tx(1).tx_id == data_tx(1).tx_id

    def test_sign_and_verify(self):
        kp = KeyPair.generate("signer")
        tx = Transaction(sender=kp.address, kind=TxKind.DATA,
                         payload={"k": "v"})
        tx.sign_with(kp)
        assert tx.verify_signature()

    def test_sign_with_wrong_key_rejected(self):
        kp = KeyPair.generate("signer2")
        tx = Transaction(sender="not-the-key", kind=TxKind.DATA, payload={})
        with pytest.raises(InvalidTransaction):
            tx.sign_with(kp)

    def test_tampered_payload_breaks_signature(self):
        kp = KeyPair.generate("signer3")
        tx = Transaction(sender=kp.address, kind=TxKind.DATA,
                         payload={"k": 1})
        tx.sign_with(kp)
        tx.payload = {"k": 2}
        assert not tx.verify_signature()

    def test_validate_rejects_negative_fee(self):
        tx = Transaction(sender="a", kind=TxKind.DATA, payload={}, fee=-1)
        with pytest.raises(InvalidTransaction):
            tx.validate()

    def test_validate_requires_signature_when_asked(self):
        tx = Transaction(sender="a", kind=TxKind.DATA, payload={})
        with pytest.raises(InvalidTransaction):
            tx.validate(require_signature=True)


class TestBlockStructure:
    def test_genesis_linkage(self, chain):
        assert chain.height == 0
        assert chain.head.header.prev_hash == GENESIS_PREV_HASH

    def test_merkle_root_commits_transactions(self):
        b1 = Block(1, b"\x00" * 32, [data_tx(1)])
        b2 = Block(1, b"\x00" * 32, [data_tx(2)])
        assert b1.header.merkle_root != b2.header.merkle_root

    def test_verify_structure_detects_mutation(self):
        block = Block(1, b"\x00" * 32, [data_tx(1), data_tx(2)])
        block.verify_structure()
        block.transactions[0].payload = {"key": "k1", "value": 999}
        with pytest.raises(InvalidBlock):
            block.verify_structure()

    def test_inclusion_proof(self):
        txs = [data_tx(i) for i in range(7)]
        block = Block(1, b"\x00" * 32, txs)
        proof = block.prove_inclusion(4)
        assert Blockchain.verify_transaction_proof(
            block.header.merkle_root, txs[4], proof
        )
        assert not Blockchain.verify_transaction_proof(
            block.header.merkle_root, txs[5], proof
        )


class TestAppendAndExecute:
    def test_append_advances_height(self, chain):
        chain.append_block(chain.build_block([data_tx(1)]))
        assert chain.height == 1

    def test_wrong_prev_hash_rejected(self, chain):
        orphan = Block(1, b"\xff" * 32, [])
        with pytest.raises(InvalidBlock):
            chain.append_block(orphan)

    def test_wrong_height_rejected(self, chain):
        block = Block(5, chain.head.block_hash, [])
        with pytest.raises(InvalidBlock):
            chain.append_block(block)

    def test_transfer_executes(self, funded_chain):
        tx = Transaction(sender="alice", kind=TxKind.TRANSFER,
                         payload={"to": "bob", "amount": 100})
        receipts = funded_chain.append_block(funded_chain.build_block([tx]))
        assert receipts[0].success
        assert funded_chain.state.balance("bob") == 1_100
        assert funded_chain.state.balance("alice") == 900

    def test_failed_transfer_reports_error(self, funded_chain):
        tx = Transaction(sender="alice", kind=TxKind.TRANSFER,
                         payload={"to": "bob", "amount": 10_000})
        receipts = funded_chain.append_block(funded_chain.build_block([tx]))
        assert not receipts[0].success
        assert "insufficient" in receipts[0].error

    def test_tx_index_lookup(self, chain):
        tx = data_tx(9)
        chain.append_block(chain.build_block([tx]))
        found = chain.find_transaction(tx.tx_id)
        assert found is not None
        block, located = found
        assert block.height == 1 and located.tx_id == tx.tx_id

    def test_block_size_limit(self):
        chain = Blockchain(ChainParams(max_block_txs=2))
        with pytest.raises(InvalidBlock):
            chain.build_block([data_tx(i) for i in range(3)])

    def test_subscriber_called_per_block(self, chain):
        seen = []
        chain.subscribe(lambda block, receipts: seen.append(block.height))
        chain.append_block(chain.build_block([data_tx(0)]))
        chain.append_block(chain.build_block([data_tx(1)]))
        assert seen == [1, 2]


class TestTamperDetection:
    """The Figure-2 scenario: any mutation breaks the chain downstream.
    ``verify``, ``is_intact`` and ``first_broken_height`` are one walk, so
    every case asserts all three agree on where the chain breaks."""

    def _grow(self, chain, blocks=5):
        for i in range(blocks):
            chain.append_block(chain.build_block([data_tx(i)]))

    def _assert_broken_at(self, chain, height):
        assert not chain.is_intact()
        assert chain.first_broken_height() == height
        with pytest.raises(TamperDetected) as exc:
            chain.verify()
        assert exc.value.height == height

    def test_intact_chain_verifies(self, chain):
        self._grow(chain)
        chain.verify()
        assert chain.is_intact()
        assert chain.first_broken_height() is None

    def test_mutated_tx_detected_at_its_height(self, chain):
        self._grow(chain)
        chain.blocks[3].transactions[0].payload = {"key": "evil", "value": 1}
        self._assert_broken_at(chain, 3)

    def test_mutated_header_breaks_next_link(self, chain):
        self._grow(chain)
        chain.blocks[2].header.timestamp = 999_999
        # Block 2's hash changed, so block 3 no longer links to it.
        self._assert_broken_at(chain, 3)

    def test_swapped_blocks_detected(self, chain):
        self._grow(chain)
        blocks = list(chain.blocks)
        blocks[2], blocks[3] = blocks[3], blocks[2]
        chain.blocks = blocks
        # Position 2 now holds block 3, whose prev-hash names block 2.
        self._assert_broken_at(chain, 3)

    def test_relinked_header_detected_at_its_height(self, chain):
        self._grow(chain)
        chain.blocks[4].header.prev_hash = bytes(32)
        self._assert_broken_at(chain, 4)

    def test_blocks_view_is_read_only(self, chain):
        self._grow(chain, 2)
        with pytest.raises(TypeError):
            chain.blocks[1] = chain.blocks[2]


class TestReorg:
    def _fork(self, chain, at_height: int, new_len: int) -> list:
        suffix = []
        prev = chain.blocks[at_height].block_hash
        for i in range(new_len):
            block = Block(at_height + 1 + i, prev,
                          [data_tx(100 + i, sender="forker")])
            suffix.append(block)
            prev = block.block_hash
        return suffix

    def test_longer_fork_accepted(self, chain):
        for i in range(3):
            chain.append_block(chain.build_block([data_tx(i)]))
        suffix = self._fork(chain, at_height=1, new_len=4)
        chain.reorg_to(suffix, fork_height=1)
        assert chain.height == 5
        assert chain.is_intact()

    def test_equal_length_fork_rejected(self, chain):
        for i in range(3):
            chain.append_block(chain.build_block([data_tx(i)]))
        suffix = self._fork(chain, at_height=1, new_len=2)
        with pytest.raises(ForkError):
            chain.reorg_to(suffix, fork_height=1)

    def test_state_rebuilt_after_reorg(self, funded_chain):
        tx = Transaction(sender="alice", kind=TxKind.TRANSFER,
                         payload={"to": "bob", "amount": 500})
        funded_chain.append_block(funded_chain.build_block([tx]))
        assert funded_chain.state.balance("bob") == 1_500
        # Reorg to a fork where the transfer never happened: the undo
        # journal rewinds to the exact fork-point state, so the transfer
        # is undone while the fixture's pre-chain credits survive.
        suffix = self._fork(funded_chain, at_height=0, new_len=2)
        funded_chain.reorg_to(suffix, fork_height=0)
        assert funded_chain.state.balance("bob") == 1_000
        assert funded_chain.state.balance("alice") == 1_000

    def test_journal_and_replay_reorgs_agree(self):
        """O(delta) journal rollback and full replay must land on the
        same chain and the same state root."""
        def build(depth: int) -> Blockchain:
            c = Blockchain(ChainParams(chain_id="agree",
                                       reorg_journal_depth=depth))
            for i in range(6):
                c.append_block(c.build_block([data_tx(i), data_tx(100 + i)],
                                             timestamp=i))
            return c

        journaled, replayed = build(depth=64), build(depth=0)
        assert journaled.head.block_hash == replayed.head.block_hash
        for chain in (journaled, replayed):
            suffix = self._fork(chain, at_height=3, new_len=4)
            chain.reorg_to(suffix, fork_height=3)
        assert journaled.head.block_hash == replayed.head.block_hash
        assert journaled.state.state_root() == replayed.state.state_root()
        assert journaled.is_intact() and replayed.is_intact()


class TestStateStore:
    def test_nested_snapshots(self, chain):
        state = chain.state
        state.credit("a", 100)
        outer = state.snapshot()
        state.debit("a", 10)
        inner = state.snapshot()
        state.debit("a", 20)
        state.rollback(inner)
        assert state.balance("a") == 90
        state.rollback(outer)
        assert state.balance("a") == 100

    def test_commit_folds_into_parent(self, chain):
        state = chain.state
        state.credit("a", 100)
        outer = state.snapshot()
        inner = state.snapshot()
        state.debit("a", 30)
        state.commit_snapshot(inner)
        state.rollback(outer)     # must undo the committed inner change
        assert state.balance("a") == 100

    def test_out_of_order_rollback_rejected(self, chain):
        state = chain.state
        outer = state.snapshot()
        state.snapshot()
        with pytest.raises(ChainError):
            state.rollback(outer)

    def test_debit_over_balance(self, chain):
        with pytest.raises(ChainError):
            chain.state.debit("nobody", 1)

    def test_state_root_changes(self, chain):
        r0 = chain.state.state_root()
        chain.state.set("ns", "k", "v")
        assert chain.state.state_root() != r0

    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                              st.integers(min_value=1, max_value=50)),
                    max_size=20))
    def test_total_balance_conserved_by_transfers(self, moves):
        chain = Blockchain()
        chain.state.credit("a", 1_000)
        chain.state.credit("b", 1_000)
        for dst, amount in moves:
            src = "b" if dst == "a" else "a"
            try:
                chain.state.transfer(src, dst, amount)
            except ChainError:
                pass
        assert chain.state.balance("a") + chain.state.balance("b") == 2_000


class TestMempool:
    def test_dedup(self, make_tx):
        from repro.chain import Mempool

        pool = Mempool()
        assert pool.add(make_tx(1))
        assert not pool.add(make_tx(1))
        assert len(pool) == 1

    def test_fee_priority_then_fifo(self):
        from repro.chain import Mempool

        pool = Mempool()
        low = Transaction(sender="a", kind=TxKind.DATA,
                          payload={"v": 1}, fee=1)
        high = Transaction(sender="a", kind=TxKind.DATA,
                           payload={"v": 2}, fee=10)
        mid1 = Transaction(sender="a", kind=TxKind.DATA,
                           payload={"v": 3}, fee=5)
        mid2 = Transaction(sender="a", kind=TxKind.DATA,
                           payload={"v": 4}, fee=5)
        for tx in (low, mid1, mid2, high):
            pool.add(tx)
        batch = pool.pop_batch(4)
        assert [tx.payload["v"] for tx in batch] == [2, 3, 4, 1]

    def test_capacity_enforced(self, make_tx):
        from repro.chain import Mempool

        pool = Mempool(capacity=2)
        pool.add(make_tx(1))
        pool.add(make_tx(2))
        with pytest.raises(InvalidTransaction):
            pool.add(make_tx(3))

    def test_remove_then_pop_skips_stale(self, make_tx):
        from repro.chain import Mempool

        pool = Mempool()
        tx1, tx2 = make_tx(1), make_tx(2)
        pool.add(tx1)
        pool.add(tx2)
        pool.remove([tx1.tx_id])
        batch = pool.pop_batch(5)
        assert [t.tx_id for t in batch] == [tx2.tx_id]

    def test_peek_does_not_remove(self, make_tx):
        from repro.chain import Mempool

        pool = Mempool()
        pool.add(make_tx(1))
        assert len(pool.peek_batch(5)) == 1
        assert len(pool) == 1
