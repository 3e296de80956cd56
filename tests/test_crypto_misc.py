"""Hash chains, distributed Merkle forest, signatures, commitments."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.commitment import commit, open_commitment
from repro.crypto.distributed_merkle import CaseForest
from repro.crypto.hashing import HashChain, ZERO_HASH, hash_bytes
from repro.crypto.signatures import KeyPair, sign, verify, verify_or_raise
from repro.errors import CryptoError, InvalidProof, InvalidSignature, UnknownEntity


class TestHashChain:
    def test_replay_matches(self):
        chain = HashChain()
        for item in ("a", "b", "c"):
            chain.append(item)
        assert HashChain.replay(["a", "b", "c"]) == chain.head

    def test_order_sensitivity(self):
        assert HashChain.replay(["a", "b"]) != HashChain.replay(["b", "a"])

    def test_empty_chain_head_is_genesis(self):
        assert HashChain().head == ZERO_HASH

    def test_length_tracked(self):
        chain = HashChain()
        chain.append(1)
        chain.append(2)
        assert chain.length == 2

    def test_domain_separated_from_plain_hash(self):
        chain = HashChain()
        head = chain.append("x")
        assert head != hash_bytes(b"x")


class TestCaseForest:
    def test_multi_stage_roots_differ(self):
        forest = CaseForest()
        forest.add("collect", {"e": 1})
        forest.add("analyze", {"e": 1})
        assert forest.stage_root("collect") != forest.stage_root("analyze") or \
            forest.stage_root("collect") == forest.stage_root("analyze")
        # Same record, but stage name is committed in the top tree:
        assert forest.stages == ["collect", "analyze"]

    def test_proof_roundtrip(self):
        forest = CaseForest()
        for i in range(5):
            forest.add("s1", {"n": i})
        proof = forest.prove("s1", 3)
        assert forest.verify({"n": 3}, proof)
        assert not forest.verify({"n": 4}, proof)

    def test_verify_against_stale_root_fails_after_growth(self):
        forest = CaseForest()
        forest.add("s1", {"n": 0})
        old_root = forest.root
        proof = forest.prove("s1", 0)
        forest.add("s1", {"n": 1})
        # Old proof no longer matches the new root...
        assert not forest.verify({"n": 0}, proof)
        # ...but still verifies against the root it was issued under.
        assert CaseForest.verify_against(old_root, {"n": 0}, proof)

    def test_unknown_stage_raises(self):
        with pytest.raises(UnknownEntity):
            CaseForest().prove("nope", 0)

    def test_verify_or_raise(self):
        forest = CaseForest()
        forest.add("s", "rec")
        proof = forest.prove("s", 0)
        forest.verify_or_raise("rec", proof)
        with pytest.raises(InvalidProof):
            forest.verify_or_raise("other", proof)

    def test_root_commits_stage_names(self):
        f1 = CaseForest()
        f1.add("alpha", "x")
        f2 = CaseForest()
        f2.add("beta", "x")
        assert f1.root != f2.root

    @settings(max_examples=20)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.integers()), min_size=1, max_size=30))
    def test_every_entry_provable(self, entries):
        forest = CaseForest()
        positions = []
        for stage, value in entries:
            index = forest.add(stage, value)
            positions.append((stage, index, value))
        for stage, index, value in positions:
            proof = forest.prove(stage, index)
            assert forest.verify(value, proof)


class TestSignatures:
    def test_roundtrip(self):
        kp = KeyPair.generate("tester")
        tag = sign("message", kp.private)
        assert verify("message", tag, kp.public)

    def test_wrong_message_fails(self):
        kp = KeyPair.generate("tester2")
        tag = sign("message", kp.private)
        assert not verify("other", tag, kp.public)

    def test_wrong_key_fails(self):
        kp1 = KeyPair.generate("a")
        kp2 = KeyPair.generate("b")
        tag = sign("msg", kp1.private)
        assert not verify("msg", tag, kp2.public)

    def test_deterministic_keypairs(self):
        assert KeyPair.generate("same").address == \
            KeyPair.generate("same").address

    def test_address_is_computed_once_and_is_not_a_field(self):
        import pickle

        fresh, read = KeyPair.generate("addr"), KeyPair.generate("addr")
        address = read.address
        assert address == read.public.address \
            == read.public.key_bytes.hex()[:40]
        assert read.address is address and read.public.address is address
        assert fresh == read and hash(fresh) == hash(read)
        assert repr(fresh) == repr(read)
        assert fresh.public == read.public \
            and hash(fresh.public) == hash(read.public)
        assert pickle.loads(pickle.dumps(read)) == fresh
        with pytest.raises(AttributeError):
            read.public.address = "other"

    def test_unknown_public_key_raises(self):
        from repro.crypto.signatures import PublicKey

        with pytest.raises(CryptoError):
            verify("m", b"tag", PublicKey(b"\x00" * 32))

    def test_verify_or_raise(self):
        kp = KeyPair.generate("x")
        with pytest.raises(InvalidSignature):
            verify_or_raise("m", b"\x00" * 32, kp.public)


class TestHashCommitments:
    def test_open_roundtrip(self):
        commitment, salt = commit({"v": 42}, seed="s")
        assert open_commitment(commitment, {"v": 42}, salt)

    def test_wrong_value_fails(self):
        commitment, salt = commit(42, seed="s")
        assert not open_commitment(commitment, 43, salt)

    def test_wrong_salt_fails(self):
        commitment, _ = commit(42, seed="s")
        assert not open_commitment(commitment, 42, b"\x01" * 32)

    def test_hiding_different_salts_differ(self):
        c1, _ = commit(42, seed="s1")
        c2, _ = commit(42, seed="s2")
        assert c1.digest != c2.digest
