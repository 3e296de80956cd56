"""Merkle tree invariants: proofs verify, forgeries fail."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleTree,
    root_of,
    verify_proof,
)


class TestConstruction:
    def test_empty_tree_root(self):
        assert MerkleTree().root == EMPTY_ROOT

    def test_single_leaf(self):
        tree = MerkleTree(["only"])
        proof = tree.prove(0)
        assert proof.path == ()
        assert verify_proof(tree.root, "only", proof)

    def test_root_changes_with_content(self):
        assert MerkleTree(["a", "b"]).root != MerkleTree(["a", "c"]).root

    def test_root_changes_with_order(self):
        assert MerkleTree(["a", "b"]).root != MerkleTree(["b", "a"]).root

    def test_odd_leaf_promotion_no_duplicate_ambiguity(self):
        # [a, b, c] must differ from [a, b, c, c] (Bitcoin's CVE trap).
        assert MerkleTree(["a", "b", "c"]).root != \
            MerkleTree(["a", "b", "c", "c"]).root

    def test_append_returns_index_and_changes_root(self):
        tree = MerkleTree(["a"])
        old_root = tree.root
        index = tree.append("b")
        assert index == 1
        assert tree.root != old_root

    def test_root_of_one_shot(self):
        assert root_of(["x", "y"]) == MerkleTree(["x", "y"]).root

    def test_prove_out_of_range(self):
        with pytest.raises(IndexError):
            MerkleTree(["a"]).prove(5)


class TestVerification:
    def test_wrong_value_fails(self):
        tree = MerkleTree(["a", "b", "c", "d"])
        proof = tree.prove(2)
        assert verify_proof(tree.root, "c", proof)
        assert not verify_proof(tree.root, "x", proof)

    def test_wrong_root_fails(self):
        tree = MerkleTree(["a", "b", "c", "d"])
        other = MerkleTree(["w", "x", "y", "z"])
        proof = tree.prove(1)
        assert not verify_proof(other.root, "b", proof)

    def test_proof_for_wrong_position_fails(self):
        tree = MerkleTree(["a", "b", "c", "d"])
        proof_for_a = tree.prove(0)
        assert not verify_proof(tree.root, "b", proof_for_a)

    def test_proof_size_grows_logarithmically(self):
        small = MerkleTree(range(8)).prove(0)
        large = MerkleTree(range(1024)).prove(0)
        assert len(small.path) == 3
        assert len(large.path) == 10


class TestProperties:
    @settings(max_examples=40)
    @given(st.lists(st.integers(), min_size=1, max_size=64))
    def test_all_leaves_provable(self, values):
        tree = MerkleTree(values)
        for i, value in enumerate(values):
            assert verify_proof(tree.root, value, tree.prove(i))

    @settings(max_examples=40)
    @given(st.lists(st.text(max_size=10), min_size=2, max_size=32),
           st.data())
    def test_cross_leaf_forgery_fails(self, values, data):
        tree = MerkleTree(values)
        i = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
        proof_i = tree.prove(i)
        if values[j] != values[i]:
            assert not verify_proof(tree.root, values[j], proof_i)

    @settings(max_examples=30)
    @given(st.lists(st.binary(max_size=16), min_size=1, max_size=32))
    def test_rebuild_determinism(self, values):
        assert MerkleTree(values).root == MerkleTree(values).root

    @settings(max_examples=30)
    @given(st.lists(st.integers(), min_size=1, max_size=24),
           st.integers())
    def test_append_preserves_previous_leaf_proofs(self, values, extra):
        tree = MerkleTree(values)
        tree.append(extra)
        # Proofs must be regenerated against the new root — and work.
        for i, value in enumerate(values):
            assert verify_proof(tree.root, value, tree.prove(i))


def _directions(proof) -> list[bool]:
    return [is_right for _, is_right in proof.path]


# One tree per size, to read the honest path shape of any leaf from.
_TREES = {size: MerkleTree(range(size)) for size in range(1, 71)}


class TestProofShape:
    """``(leaf_index, tree_size)`` fix a path's length and every
    direction: a proof is read as the leaf it was made for."""

    @settings(max_examples=80, deadline=None)
    @given(size=st.integers(min_value=1, max_value=65), data=st.data())
    def test_only_the_honest_shape_verifies(self, size, data):
        tree = _TREES[size]
        index = data.draw(st.integers(min_value=0, max_value=size - 1))
        proof = tree.prove(index)
        assert verify_proof(tree.root, index, proof)

        def verifies(**changed) -> bool:
            return verify_proof(tree.root, index,
                                dataclasses.replace(proof, **changed))

        for moved in [-1, *range(size + 2)]:
            assert verifies(leaf_index=moved) == (moved == index)
        # The root does not commit to the size: another size passes only
        # where this leaf's path has exactly the same shape (which the
        # anchor transaction's count then rules out).
        assert not verifies(tree_size=0)
        for other, other_tree in _TREES.items():
            same_shape = (index < other and _directions(
                other_tree.prove(index)) == _directions(proof))
            assert verifies(tree_size=other) == (other == size or same_shape)
        path = proof.path
        for k, (sibling, is_right) in enumerate(path):
            flipped = (*path[:k], (sibling, not is_right), *path[k + 1:])
            assert not verifies(path=flipped)
            assert not verifies(path=path[:k] + path[k + 1:])
        for k in range(len(path) + 1):
            for is_right in (True, False):
                extra = (*path[:k], (b"\x01" * 32, is_right), *path[k:])
                assert not verifies(path=extra)

    def test_leaf_two_of_five_is_no_other_leaf(self):
        tree = MerkleTree(range(5))
        proof = tree.prove(2)
        for leaf_index, tree_size in ((0, 5), (7, 1000), (2, 1)):
            assert not verify_proof(
                tree.root, 2, dataclasses.replace(
                    proof, leaf_index=leaf_index, tree_size=tree_size))

    def test_size_bytes_is_the_path_on_the_wire(self):
        """What the storage benches charge per proof: one 33-byte step
        per level plus the fixed index/size header."""
        for size in (1, 2, 5, 1024):
            proof = MerkleTree([f"leaf-{i}" for i in range(size)]).prove(0)
            assert len(proof.path) == (size - 1).bit_length()
            assert proof.size_bytes == 33 * len(proof.path) + 16


class TestAppendOnlyAudit:
    def test_prefix_root_matches_historical_root(self):
        values = list(range(10))
        old = MerkleTree(values[:6])
        grown = MerkleTree(values)
        assert grown.prefix_root(6) == old.root
        assert grown.is_append_of(old.root, 6)

    def test_rewritten_history_detected(self):
        old = MerkleTree(["a", "b", "c"])
        tampered = MerkleTree(["a", "X", "c", "d"])
        assert not tampered.is_append_of(old.root, 3)

    def test_shrunk_log_detected(self):
        old = MerkleTree(["a", "b", "c", "d"])
        shrunk = MerkleTree(["a", "b"])
        assert not shrunk.is_append_of(old.root, 4)

    def test_prefix_bounds(self):
        tree = MerkleTree(["a"])
        with pytest.raises(IndexError):
            tree.prefix_root(5)

    @settings(max_examples=25)
    @given(st.lists(st.integers(), min_size=1, max_size=30),
           st.lists(st.integers(), max_size=10))
    def test_property_every_extension_audits_clean(self, base, extra):
        old = MerkleTree(base)
        grown = MerkleTree(base + extra)
        assert grown.is_append_of(old.root, len(base))
