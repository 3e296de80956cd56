"""Privacy layer: commitments, range proofs, group signatures, encryption."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DecryptionError, PrivacyError
from repro.privacy import (
    ABEAuthority,
    GroupManager,
    PseudonymManager,
    SearchableIndex,
    SymmetricKey,
    decrypt,
    encrypt,
)
from repro.privacy.commitment import PedersenCommitment
from repro.privacy.rangeproof import prove_range, verify_range


class TestPedersen:
    def test_open_roundtrip(self):
        c, r = PedersenCommitment.commit(123, seed=b"a")
        assert c.open(123, r)
        assert not c.open(124, r)

    def test_hiding_across_seeds(self):
        c1, _ = PedersenCommitment.commit(5, seed=b"x")
        c2, _ = PedersenCommitment.commit(5, seed=b"y")
        assert c1.value != c2.value

    def test_additive_homomorphism(self):
        c1, r1 = PedersenCommitment.commit(10, seed=b"a")
        c2, r2 = PedersenCommitment.commit(32, seed=b"b")
        assert (c1 * c2).open(42, r1 + r2)

    def test_subtractive_homomorphism(self):
        c1, r1 = PedersenCommitment.commit(50, seed=b"a")
        c2, r2 = PedersenCommitment.commit(8, seed=b"b")
        assert (c1 / c2).open(42, r1 - r2)

    def test_scalar_multiplication(self):
        c, r = PedersenCommitment.commit(7, seed=b"a")
        assert (c ** 3).open(21, 3 * r)

    def test_shift(self):
        c, r = PedersenCommitment.commit(7, seed=b"a")
        assert c.shift(5).open(12, r)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30),
           st.integers(min_value=0, max_value=2**30))
    def test_property_homomorphism(self, a, b):
        ca, ra = PedersenCommitment.commit(a, seed=b"pa")
        cb, rb = PedersenCommitment.commit(b, seed=b"pb")
        assert (ca * cb).open(a + b, ra + rb)


class TestRangeProof:
    def test_valid_proof_verifies(self):
        c, r = PedersenCommitment.commit(42, seed=b"v")
        proof = prove_range(42, r, lo=0, hi=100, n_bits=8)
        assert verify_range(c, proof)

    def test_boundary_values(self):
        for value in (20, 80):
            c, r = PedersenCommitment.commit(value, seed=b"b%d" % value)
            proof = prove_range(value, r, lo=20, hi=80, n_bits=8)
            assert verify_range(c, proof)

    def test_false_statement_unprovable(self):
        _, r = PedersenCommitment.commit(150, seed=b"v")
        with pytest.raises(PrivacyError):
            prove_range(150, r, lo=0, hi=100, n_bits=8)

    def test_proof_bound_to_commitment(self):
        c, r = PedersenCommitment.commit(42, seed=b"v")
        proof = prove_range(42, r, lo=0, hi=100, n_bits=8)
        other, _ = PedersenCommitment.commit(42, seed=b"other")
        # Same value, different randomness: proof must not transfer.
        assert not verify_range(other, proof)

    def test_tampered_proof_fails(self):
        c, r = PedersenCommitment.commit(42, seed=b"v")
        proof = prove_range(42, r, lo=0, hi=100, n_bits=8)
        import dataclasses

        bad_bit = dataclasses.replace(proof.lower_bits[0],
                                      z0=proof.lower_bits[0].z0 + 1)
        bad = dataclasses.replace(
            proof, lower_bits=(bad_bit, *proof.lower_bits[1:])
        )
        assert not verify_range(c, bad)

    def test_range_too_wide_rejected(self):
        _, r = PedersenCommitment.commit(1, seed=b"v")
        with pytest.raises(PrivacyError):
            prove_range(1, r, lo=0, hi=10**9, n_bits=8)

    def test_empty_range_rejected(self):
        _, r = PedersenCommitment.commit(1, seed=b"v")
        with pytest.raises(PrivacyError):
            prove_range(1, r, lo=10, hi=5)

    def test_proof_size_linear_in_bits(self):
        c, r = PedersenCommitment.commit(3, seed=b"v")
        p8 = prove_range(3, r, lo=0, hi=200, n_bits=8)
        p16 = prove_range(3, r, lo=0, hi=200, n_bits=16)
        assert p16.size_bytes == pytest.approx(2 * p8.size_bytes, rel=0.1)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=255))
    def test_property_all_in_range_values_provable(self, value):
        c, r = PedersenCommitment.commit(value, seed=b"pv")
        proof = prove_range(value, r, lo=0, hi=255, n_bits=8)
        assert verify_range(c, proof)


class TestGroupSignatures:
    @pytest.fixture
    def group(self):
        manager = GroupManager("hospital")
        for member in ("dr-a", "dr-b"):
            manager.enroll(member)
        return manager

    def test_member_signature_verifies(self, group):
        sig = group.sign("dr-a", "diagnosis-1")
        assert group.verify("diagnosis-1", sig)

    def test_non_member_cannot_sign(self, group):
        with pytest.raises(PrivacyError):
            group.sign("outsider", "msg")

    def test_message_binding(self, group):
        sig = group.sign("dr-a", "msg-1")
        assert not group.verify("msg-2", sig)

    def test_unlinkability(self, group):
        sig1 = group.sign("dr-a", "m1")
        sig2 = group.sign("dr-a", "m2")
        assert not group.are_linkable(sig1, sig2)

    def test_manager_opens_to_signer(self, group):
        sig = group.sign("dr-b", "m")
        assert group.open(sig) == "dr-b"

    def test_membership_roster(self, group):
        assert group.is_member("dr-a") and not group.is_member("outsider")
        assert group.member_count == 2
        group.enroll("dr-c")
        assert group.is_member("dr-c") and group.member_count == 3

    def test_double_enrollment_rejected(self, group):
        with pytest.raises(PrivacyError):
            group.enroll("dr-a")

    def test_wrong_group_rejected(self, group):
        other = GroupManager("clinic")
        other.enroll("dr-a")
        sig = other.sign("dr-a", "m")
        assert not group.verify("m", sig)


class TestSymmetricEncryption:
    def test_roundtrip(self):
        key = SymmetricKey.derive("k")
        assert decrypt(key, encrypt(key, b"secret")) == b"secret"

    def test_wrong_key_fails(self):
        blob = encrypt(SymmetricKey.derive("k1"), b"secret")
        with pytest.raises(DecryptionError):
            decrypt(SymmetricKey.derive("k2"), blob)

    def test_tamper_detected(self):
        key = SymmetricKey.derive("k")
        blob = bytearray(encrypt(key, b"secret data here"))
        blob[20] ^= 0xFF
        with pytest.raises(DecryptionError):
            decrypt(key, bytes(blob))

    def test_empty_plaintext(self):
        key = SymmetricKey.derive("k")
        assert decrypt(key, encrypt(key, b"")) == b""

    @settings(max_examples=25)
    @given(st.binary(max_size=2000))
    def test_property_roundtrip(self, plaintext):
        key = SymmetricKey.derive("prop")
        assert decrypt(key, encrypt(key, plaintext)) == plaintext


class TestABE:
    @pytest.fixture
    def authority(self):
        authority = ABEAuthority()
        authority.issue_key("cardio-doc", ["doctor", "cardiology"])
        authority.issue_key("nurse", ["nurse"])
        return authority

    def test_satisfying_attributes_decrypt(self, authority):
        ct = authority.encrypt(b"ehr", ["doctor"])
        assert authority.decrypt("cardio-doc", ct) == b"ehr"

    def test_missing_attribute_fails(self, authority):
        ct = authority.encrypt(b"ehr", ["doctor", "oncology"])
        with pytest.raises(DecryptionError):
            authority.decrypt("cardio-doc", ct)

    def test_no_key_fails(self, authority):
        ct = authority.encrypt(b"ehr", ["doctor"])
        with pytest.raises(DecryptionError):
            authority.decrypt("stranger", ct)

    def test_revoked_key_fails(self, authority):
        ct = authority.encrypt(b"ehr", ["doctor"])
        authority.revoke_key("cardio-doc")
        with pytest.raises(DecryptionError):
            authority.decrypt("cardio-doc", ct)

    def test_empty_policy_rejected(self, authority):
        with pytest.raises(PrivacyError):
            authority.encrypt(b"x", [])


class TestSearchableEncryption:
    def test_search_matches_indexed(self):
        index = SearchableIndex(SymmetricKey.derive("s"))
        index.index_document("d1", ["covid", "xray"])
        index.index_document("d2", ["covid"])
        index.index_document("d3", ["mri"])
        assert index.search_keyword("covid") == {"d1", "d2"}
        assert index.search_keyword("mri") == {"d3"}
        assert index.search_keyword("absent") == set()

    def test_server_sees_only_tokens(self):
        index = SearchableIndex(SymmetricKey.derive("s"))
        index.index_document("d1", ["secret-term"])
        token = index.trapdoor("secret-term")
        assert b"secret-term" not in token
        assert index.search(token) == {"d1"}

    def test_different_keys_incompatible(self):
        index1 = SearchableIndex(SymmetricKey.derive("k1"))
        index2 = SearchableIndex(SymmetricKey.derive("k2"))
        index1.index_document("d1", ["kw"])
        assert index1.search(index2.trapdoor("kw")) == set()


class TestPseudonyms:
    def test_deterministic_per_epoch(self):
        pm = PseudonymManager()
        assert pm.pseudonym("alice", 3) == pm.pseudonym("alice", 3)

    def test_unlinkable_across_epochs(self):
        pm = PseudonymManager()
        assert pm.pseudonym("alice", 0) != pm.pseudonym("alice", 1)

    def test_outsider_links_only_equal_pseudonyms(self):
        pm = PseudonymManager()
        now, later = pm.pseudonym("alice", 0), pm.pseudonym("alice", 1)
        assert PseudonymManager.are_linkable(now, pm.pseudonym("alice", 0))
        assert not PseudonymManager.are_linkable(now, later)
        # Linking across epochs takes the authority's mapping.
        assert pm.reidentify(now)[0] == pm.reidentify(later)[0]

    def test_reidentification(self):
        pm = PseudonymManager()
        name = pm.pseudonym("alice", 5)
        assert pm.reidentify(name) == ("alice", 5)

    def test_unknown_pseudonym_raises(self):
        with pytest.raises(PrivacyError):
            PseudonymManager().reidentify("anon-nope")

    def test_pseudonymize_record(self):
        pm = PseudonymManager()
        record = {"record_id": "r", "actor": "alice", "subject": "s"}
        masked = pm.pseudonymize_record(record)
        assert masked["actor"].startswith("anon-")
        assert masked["subject"] == "s"
        assert record["actor"] == "alice"   # original untouched
