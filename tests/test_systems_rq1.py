"""RQ1 reference systems: ProvChain, BlockCloud, IPFSProvenance."""

import pytest

from repro.errors import StorageError
from repro.storage import ProvenanceDatabase
from repro.systems import BlockCloud, IPFSProvenance, ProvChain


class TestProvChain:
    @pytest.fixture
    def system(self):
        return ProvChain(difficulty_bits=4, batch_size=4)

    def test_operations_audited_and_verified(self, system):
        system.create("alice", "doc", b"v1")
        system.update("alice", "doc", b"v2")
        system.read("alice", "doc")
        answer = system.audit_object("doc")
        assert answer.verified
        assert [r["operation"] for r in answer.records] == \
            ["create", "update", "read"]

    def test_audit_is_clean_once_every_record_is_anchored(self, system):
        system.create("alice", "doc", b"v1")
        # finalize() inside the audit anchors the pending batch first.
        assert system.anchors.pending_count == 1
        assert system.audit_is_clean("doc")
        assert system.anchors.pending_count == 0
        assert not system.audit_is_clean("never-stored")

    def test_audit_covers_shares(self, system):
        system.create("alice", "doc", b"v1")
        system.share("alice", "doc", "bob")
        answer = system.audit_object("doc")
        assert any(r["operation"] == "share" for r in answer.records)

    def test_pseudonymized_actors(self, system):
        system.create("alice", "doc", b"v1")
        answer = system.audit_object("doc")
        actor = answer.records[0]["actor"]
        assert actor.startswith("anon-")
        assert system.reidentify(actor) == "alice"

    def test_tampering_database_detected_by_audit(self, system):
        system.create("alice", "doc", b"v1")
        system.update("alice", "doc", b"v2")
        system.finalize()
        assert system.audit_object("doc").verified
        # An attacker who controls the database the auditor reads
        # serves a rewritten history...
        forged = ProvenanceDatabase()
        forged.insert_many([
            dict(record, operation="never-happened")
            if record["operation"] == "create" else record
            for record in system.database.records()])
        system.query_engine.database = forged
        answer = system.audit_object("doc")
        # ...but the anchored Merkle proof no longer matches.
        assert "never-happened" in [r["operation"] for r in answer.records]
        assert not answer.verified

    def test_chain_grows_with_batches(self, system):
        for i in range(9):
            system.create("alice", f"f{i}", b"x")
        system.finalize()
        assert system.blocks_sealed >= 2
        assert system.records_captured == 9

    def test_pow_work_performed(self, system):
        system.create("alice", "doc", b"v1")
        system.finalize()
        meta = system.chain.head.header.consensus_meta
        assert meta["algo"] == "pow"
        system.engine.validate_called = True
        # Sealed block actually meets the declared target.
        assert int.from_bytes(system.chain.head.block_hash, "big") < \
            system.engine.target


class TestBlockCloud:
    def test_same_pipeline_pos_sealing(self):
        system = BlockCloud(batch_size=2)
        system.create("bob", "f", b"1")
        system.update("bob", "f", b"2")
        answer = system.audit_object("f")
        assert answer.verified
        meta = system.chain.head.header.consensus_meta
        assert meta["algo"] == "pos"

    def test_pos_cheaper_than_pow(self):
        # The BlockCloud claim: far less sealing work than ProvChain.
        pow_system = ProvChain(difficulty_bits=8, batch_size=1)
        pos_system = BlockCloud(batch_size=1)
        pow_system.create("u", "f", b"x")
        pos_system.create("u", "f", b"x")
        pow_system.finalize()
        pos_system.finalize()
        # PoW expected ~2^8 hash attempts; PoS exactly one selection.
        assert pow_system.engine.estimated_hashes() >= 256

    def test_proposers_are_registered_validators(self):
        system = BlockCloud(batch_size=1)
        for i in range(4):
            system.create("u", f"f{i}", b"x")
        system.finalize()
        validator_ids = {v.validator_id for v in system.validators}
        for block in system.chain.blocks[1:]:
            assert block.header.proposer in validator_ids


class TestIPFSProvenance:
    @pytest.fixture
    def system(self):
        return IPFSProvenance(batch_size=2, chunk_size=64)

    def test_add_get_verify(self, system):
        blob = bytes(range(250)) * 2
        cid = system.add_file("alice", "data", blob)
        assert system.get_file("alice", "data") == blob
        # The anchored CID is the integrity check: a chunk altered in
        # the CAS is refused on the way out.
        chunk = system.cas._manifests[cid.digest][1]
        system.cas._blobs[chunk] = b"EVIL"
        with pytest.raises(StorageError):
            system.get_file("alice", "data")

    def test_versioning(self, system):
        system.add_file("alice", "f", b"v0")
        system.update_file("alice", "f", b"v1")
        assert system.get_file("alice", "f", version=0) == b"v0"
        assert system.get_file("alice", "f") == b"v1"

    def test_duplicate_add_rejected(self, system):
        system.add_file("alice", "f", b"x")
        with pytest.raises(StorageError):
            system.add_file("alice", "f", b"y")

    def test_audit_history_verified(self, system):
        system.add_file("alice", "f", b"v0")
        system.update_file("alice", "f", b"v1")
        system.get_file("alice", "f")
        answer = system.audit_history("f")
        assert answer.verified
        assert len(answer.records) == 3

    def test_availability_audit_detects_dangling_cid(self, system):
        system.add_file("alice", "f", b"data")
        # The CAS operator unpins and collects the content...
        latest_cid = system._cids["f"][-1]
        system.cas.unpin(latest_cid)
        system.cas.collect_garbage()
        # ...the on-chain record still exists, and the audit flags it.
        assert system.availability_audit() == ["f"]

    def test_storage_split_hash_on_chain_bytes_off_chain(self, system):
        # Distinct counters in every chunk so dedup cannot shrink it.
        blob = b"".join(i.to_bytes(4, "big") for i in range(1000))
        system.add_file("alice", "big", blob)
        system.anchors.flush()
        assert system.stored_bytes_off_chain >= 4000
        # On-chain cost is a constant-size anchor, far below payload.
        assert system.bytes_on_chain < 1000
