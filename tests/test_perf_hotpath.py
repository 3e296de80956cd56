"""Hot-path caching invariants: incremental Merkle trees, the
transaction seal discipline, and the incremental state root.

These tests pin the contracts the perf layer relies on:

* incremental append/extend produce *exactly* the tree a from-scratch
  build produces, across every size 0–65 (odd-promotion edge cases);
* sealed transactions are immutable and their caches can never go stale;
* unsealed transactions invalidate their hash caches on assignment, so
  tamper detection is unchanged;
* the incremental state root is content-determined and rollback-safe.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain, ChainParams, Transaction, TxKind
from repro.chain.state import StateStore
from repro.crypto.merkle import MerkleTree, verify_proof
from repro.errors import ChainError, SealedMutation


def fresh_tree(leaves):
    """From-scratch reference build (the seed's construction path)."""
    return MerkleTree(leaves)


class TestIncrementalMerkle:
    def test_incremental_equals_rebuild_all_sizes(self):
        """Sizes 0–65 cover every odd-promotion shape up to depth 7."""
        incremental = MerkleTree()
        for n in range(66):
            reference = fresh_tree(list(range(n)))
            assert incremental.root == reference.root, f"size {n}"
            assert incremental._levels == reference._levels, f"size {n}"
            incremental.append(n)

    def test_extend_equals_rebuild(self):
        tree = MerkleTree(["a", "b", "c"])
        tree.extend(["d", "e", "f", "g"])
        assert tree.root == fresh_tree(["a", "b", "c", "d", "e", "f", "g"]).root

    def test_incremental_proofs_verify(self):
        tree = MerkleTree()
        values = [f"v{i}" for i in range(33)]
        for v in values:
            tree.append(v)
        for i, v in enumerate(values):
            assert verify_proof(tree.root, v, tree.prove(i))

    @settings(max_examples=40)
    @given(st.lists(st.binary(max_size=8), max_size=48))
    def test_incremental_equals_rebuild_property(self, values):
        incremental = MerkleTree()
        for v in values:
            incremental.append(v)
        assert incremental.root == fresh_tree(values).root

    def test_append_after_bulk_construction(self):
        tree = MerkleTree(list("abcde"))
        tree.append("f")
        assert tree.root == fresh_tree(list("abcdef")).root

    def test_prefix_root_still_consistent_after_incremental_growth(self):
        tree = MerkleTree(["a", "b", "c"])
        old_root = tree.root
        for v in ["d", "e", "f"]:
            tree.append(v)
        assert tree.is_append_of(old_root, 3)


class TestSealDiscipline:
    def _tx(self):
        return Transaction(sender="alice", kind=TxKind.DATA,
                           payload={"key": "k", "value": 1})

    def test_mutating_sealed_transaction_raises(self):
        tx = self._tx().seal()
        with pytest.raises(SealedMutation):
            tx.payload = {"key": "evil"}
        with pytest.raises(SealedMutation):
            tx.fee = 99

    def test_sealed_payload_is_read_only(self):
        tx = self._tx().seal()
        with pytest.raises(TypeError):
            tx.payload["key"] = "evil"

    def test_seal_is_idempotent_and_hash_stable(self):
        tx = self._tx()
        before = tx.tx_hash
        assert tx.seal() is tx
        assert tx.seal().tx_hash == before
        assert tx.is_sealed

    def test_seal_does_not_change_identity(self):
        assert self._tx().seal().tx_hash == self._tx().tx_hash

    def test_seal_snapshots_caller_dict(self):
        payload = {"key": "k", "value": 1}
        tx = Transaction(sender="alice", kind=TxKind.DATA, payload=payload)
        tx.seal()
        h = tx.tx_hash
        payload["value"] = 999  # caller's reference must not reach the tx
        assert tx.tx_hash == h
        assert tx.compute_tx_hash() == h

    def test_unsealed_assignment_invalidates_cache(self):
        tx = self._tx()
        h = tx.tx_hash
        tx.payload = {"key": "k", "value": 2}
        assert tx.tx_hash != h
        assert tx.tx_hash == tx.compute_tx_hash()

    def test_sealed_transaction_commits_and_verifies(self):
        chain = Blockchain(ChainParams(chain_id="seal"))
        tx = self._tx().seal()
        chain.append_block(chain.build_block([tx]))
        chain.verify()
        chain.verify(deep=True)
        assert chain.find_transaction(tx.tx_id) is not None

    def test_tamper_on_committed_tx_still_detected(self):
        """The acceptance-criterion scenario: caches must not mask the
        Figure-2 mutation."""
        chain = Blockchain(ChainParams(chain_id="tamper"))
        for i in range(5):
            tx = Transaction(sender="alice", kind=TxKind.DATA,
                             payload={"key": f"k{i}", "value": i})
            chain.append_block(chain.build_block([tx]))
        victim = chain.blocks[3].transactions[0]
        _ = victim.tx_hash  # populate the cache first
        victim.payload = {"key": "evil", "value": -1}
        assert chain.first_broken_height() == 3
        assert chain.first_broken_height(deep=True) == 3


class TestIncrementalStateRoot:
    def test_root_is_content_determined(self):
        a, b = StateStore(), StateStore()
        a.set("ns", "x", 1)
        a.set("ns", "y", 2)
        b.set("ns", "y", 2)
        b.set("ns", "x", 0)
        b.set("ns", "x", 1)  # overwrite converges to the same content
        assert a.state_root() == b.state_root()

    def test_root_tracks_deletes(self):
        s = StateStore()
        empty = s.state_root()
        s.set("ns", "x", 1)
        assert s.state_root() != empty
        s.delete("ns", "x")
        assert s.state_root() == empty

    def test_root_survives_rollback(self):
        s = StateStore()
        s.set("ns", "x", 1)
        before = s.state_root()
        snap = s.snapshot()
        s.set("ns", "x", 2)
        s.set("ns", "y", 3)
        s.rollback(snap)
        assert s.state_root() == before

    def test_release_keeps_changes_in_one_step(self):
        """The commit group's release: the top frame goes, its changes
        stay, and nothing is copied into the frame below (which can no
        longer undo them).  Only the top frame can be released."""
        s = StateStore()
        outer = s.snapshot()
        s.set("ns", "a", 1)
        group = s.snapshot()
        s.set("ns", "b", 2)
        s.set("ns", "c", 3)
        with pytest.raises(ChainError):
            s.release_snapshots(outer)
        s.release_snapshots(group)
        assert s.open_snapshots == 1
        s.rollback(outer)
        assert s.get("ns", "a") is None
        assert (s.get("ns", "b"), s.get("ns", "c")) == (2, 3)
        assert s.open_snapshots == 0
        with pytest.raises(ChainError):
            s.release_snapshots(group)

    def test_root_after_released_groups_matches_fresh_load(self):
        """Groups that commit (released) and groups that fail (rolled
        back), one after another past 64 of them: the incremental root
        is the root of a store loaded fresh from the surviving entries."""
        s = StateStore()
        for group in range(80):
            handle = s.snapshot()
            for i in range(3):
                s.set("ns", f"k{(group * 3 + i) % 11}", group)
            if group % 4 == 0:
                s.delete("ns", f"k{group % 11}")
            if group % 5 == 0:
                s.rollback(handle)
            else:
                s.release_snapshots(handle)
            assert s.open_snapshots == 0
        fresh = StateStore()
        fresh.load_entries(s.dump_entries())
        assert fresh.state_root() == s.state_root()
        assert fresh.dump_entries() == s.dump_entries()
