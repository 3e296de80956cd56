"""Extension features: EO chain, light client, multi-modal tokenization,
PoW retargeting, partition failure injection."""

import pytest

from repro.chain import Blockchain, ChainParams, LightClient, Transaction, TxKind
from repro.consensus import PBFTCluster, ProofOfWork
from repro.errors import ChainError, DomainError, ProvenanceError, TamperDetected, UnknownEntity
from repro.network import SimNet
from repro.provenance import MultiModalTokenizer
from repro.provenance.anchor import AnchorService
from repro.provenance.capture import CaptureSink
from repro.storage.provdb import ProvenanceDatabase
from repro.systems import EOChain
from .conftest import data_tx


class TestEOChain:
    @pytest.fixture
    def eo(self):
        return EOChain(["esa", "nasa", "jaxa"])

    def test_upload_and_verified_fetch(self, eo):
        eo.upload("esa", "S2-001", b"sentinel tile bytes")
        assert eo.fetch("S2-001") == b"sentinel tile bytes"

    def test_derived_dag_traceability(self, eo):
        eo.upload("esa", "raw-a", b"a" * 100)
        eo.upload("nasa", "raw-b", b"b" * 100)
        eo.derive("jaxa", "mosaic", b"m" * 50, parents=["raw-a", "raw-b"])
        eo.derive("esa", "ndvi", b"n" * 25, parents=["mosaic"])
        trace = eo.trace("ndvi")
        ids = [g.granule_id for g in trace]
        assert ids[0] == "ndvi"
        assert set(ids) == {"ndvi", "mosaic", "raw-a", "raw-b"}
        # Raw acquisitions end the walk.
        assert all(g.kind == "acquisition" for g in trace
                   if not g.parents)

    def test_derivation_requires_known_parents(self, eo):
        with pytest.raises(UnknownEntity):
            eo.derive("esa", "x", b"x", parents=["ghost"])

    def test_essential_info_on_chain_for_every_granule(self, eo):
        eo.upload("esa", "g1", b"data")
        registered = eo.runtime.query(
            eo._leader_chain(), eo.registry_address, "lookup",
            record_id="g1",
        )
        assert registered is not None
        assert registered["meta"]["center"] == "esa"

    def test_consortium_replicas_consistent(self, eo):
        for i in range(4):
            eo.upload("esa", f"g{i}", b"d%d" % i)
        assert eo.replicated_consistently()
        assert eo.consortium_height >= 5   # deploy + 4 registrations

    def test_missing_ancestor_breaks_trace(self, eo):
        eo.upload("esa", "raw", b"r" * 10)
        eo.derive("nasa", "prod", b"p", parents=["raw"])
        # The raw granule's store loses the data.
        granule = eo.granules["raw"]
        eo.centers["esa"].unpin(granule.cid)
        eo.centers["esa"].collect_garbage()
        with pytest.raises(DomainError):
            eo.trace("prod")

    def test_needs_three_centers(self):
        with pytest.raises(DomainError):
            EOChain(["solo", "duo"])


class TestLightClient:
    @pytest.fixture
    def rig(self):
        chain = Blockchain(ChainParams(chain_id="lc"))
        database = ProvenanceDatabase()
        service = AnchorService(chain, batch_size=4)
        sink = CaptureSink(database, service)
        for i in range(8):
            sink.deliver({"record_id": f"r{i}", "domain": "generic",
                          "subject": "s", "actor": "a", "operation": "w",
                          "timestamp": i})
        service.flush()
        client = LightClient("lc")
        client.sync_from(chain)
        return chain, database, service, client

    def test_sync_tracks_height(self, rig):
        chain, _, _, client = rig
        assert client.height == chain.height

    def test_tx_verification_with_headers_only(self, rig):
        chain, _, _, client = rig
        tx = chain.blocks[1].transactions[0]
        _, proof = chain.prove_transaction(tx.tx_id)
        assert client.verify_transaction(tx, proof, height=1)

    def test_anchored_record_verification(self, rig):
        chain, database, service, client = rig
        record = database.get("r2")
        bundle = service.prove_for_light_client("r2")
        assert client.verify_anchored_record(record, bundle)

    # Forged record / bundle against the wrong height: rows of the
    # tamper matrix in tests/test_anchoring.py.

    def test_header_linkage_enforced(self, rig):
        chain, _, _, _ = rig
        client = LightClient("lc")
        client.submit_header(chain.blocks[0].header)
        with pytest.raises(TamperDetected):
            forged = Blockchain(ChainParams(chain_id="other"))
            forged.append_block(forged.build_block([data_tx(1)]))
            client.submit_header(forged.blocks[1].header)

    def test_cannot_skip_headers(self, rig):
        chain, _, _, _ = rig
        client = LightClient("lc")
        client.submit_header(chain.blocks[0].header)
        with pytest.raises(ChainError):
            client.submit_header(chain.blocks[2].header)

    def test_incremental_sync(self, rig):
        chain, _, service, client = rig
        before = client.height
        chain.append_block(chain.build_block([data_tx(99)]))
        assert client.sync_from(chain) == 1
        assert client.height == before + 1


class TestMultiModal:
    @pytest.fixture
    def tokenizer(self):
        return MultiModalTokenizer()

    def test_text_format_invariance(self, tokenizer):
        a = tokenizer.tokenize("text", b"The Quick  Brown Fox")
        b = tokenizer.tokenize("text", b"the quick brown fox")
        assert a.digest == b.digest

    def test_text_edit_detected_but_similar(self, tokenizer):
        original = b"alpha beta gamma delta epsilon zeta eta theta"
        edited = b"alpha beta gamma delta epsilon zeta eta IOTA"
        similarity = tokenizer.match("text", original, edited)
        assert 0.0 < similarity < 1.0

    def test_unrelated_texts_dissimilar(self, tokenizer):
        similarity = tokenizer.match(
            "text", b"one two three four five six",
            b"seven eight nine ten eleven twelve",
        )
        assert similarity == 0.0

    def test_image_identity_stable(self, tokenizer):
        image = bytes(range(256)) * 8
        assert tokenizer.tokenize("image", image).digest == \
            tokenizer.tokenize("image", image).digest

    def test_video_clip_shares_segments(self, tokenizer):
        source = bytes(i % 251 for i in range(8192))
        clip = source[1024:3072]            # segment-aligned excerpt
        full = tokenizer.tokenize("video", source)
        part = tokenizer.tokenize("video", clip)
        shared = set(full.feature_digests) & set(part.feature_digests)
        assert shared, "an excised clip must share segment features"

    def test_modalities_never_match(self, tokenizer):
        text = tokenizer.tokenize("text", b"hello world")
        binary = tokenizer.tokenize("binary", b"hello world")
        assert text.similarity(binary) == 0.0

    def test_unknown_modality_rejected(self, tokenizer):
        with pytest.raises(ProvenanceError):
            tokenizer.tokenize("hologram", b"x")

    def test_invalid_text_rejected(self, tokenizer):
        with pytest.raises(ProvenanceError):
            tokenizer.tokenize("text", b"\xff\xfe\xfd")

    def test_record_fields(self, tokenizer):
        fields = tokenizer.to_record_fields("text", b"a b c d e")
        assert fields["modality"] == "text"
        assert fields["token_id"].startswith("text:")

    def test_custom_tokenizer_registration(self, tokenizer):
        from repro.provenance.multimodal import ModalToken, tokenize_binary

        tokenizer.register("pointcloud",
                           lambda b: ModalToken("pointcloud",
                                                tokenize_binary(b).digest))
        token = tokenizer.tokenize("pointcloud", b"xyz")
        assert token.modality == "pointcloud"


class TestPoWRetarget:
    def _mine(self, engine, chain, timestamp):
        block, _ = engine.seal(chain, [data_tx(timestamp)],
                               timestamp=timestamp)
        chain.append_block(block)

    def test_fast_blocks_raise_difficulty(self):
        engine = ProofOfWork(difficulty_bits=4)
        chain = Blockchain(ChainParams(chain_id="rt1"))
        for t in range(0, 9):                 # spacing 1 << target 10
            self._mine(engine, chain, t)
        assert engine.retarget(chain, window=8, target_spacing=10) == 5

    def test_slow_blocks_lower_difficulty(self):
        engine = ProofOfWork(difficulty_bits=4)
        chain = Blockchain(ChainParams(chain_id="rt2"))
        for t in range(0, 9 * 50, 50):        # spacing 50 >> target 10
            self._mine(engine, chain, t)
        assert engine.retarget(chain, window=8, target_spacing=10) == 3

    def test_on_target_unchanged(self):
        engine = ProofOfWork(difficulty_bits=4)
        chain = Blockchain(ChainParams(chain_id="rt3"))
        for t in range(0, 9 * 10, 10):        # spacing == target
            self._mine(engine, chain, t)
        assert engine.retarget(chain, window=8, target_spacing=10) == 4

    def test_short_chain_unchanged(self):
        engine = ProofOfWork(difficulty_bits=4)
        chain = Blockchain(ChainParams(chain_id="rt4"))
        self._mine(engine, chain, 0)
        assert engine.retarget(chain, window=8) == 4


class TestPartitionFaults:
    """Safety under partitions: a minority partition cannot commit."""

    def test_pbft_minority_partition_stalls_not_forks(self):
        net = SimNet(seed=3)
        cluster = PBFTCluster(net, n_replicas=4)
        cluster.propose([data_tx(1)])
        # Cut the view-1 primary's side into a minority.
        net.partition({"pbft-0", "pbft-1"}, {"pbft-2", "pbft-3"})
        import pytest as _pytest

        from repro.errors import ConsensusError

        with _pytest.raises(ConsensusError):
            cluster.propose([data_tx(2)], max_view_changes=2)
        # Safety: no replica committed a second block.
        assert all(h == 1 for h in cluster.heights().values())
        # Heal and progress resumes for everyone.
        net.heal()
        cluster.propose([data_tx(3)])
        assert all(h == 2 for h in cluster.heights().values())

    def test_raft_partitioned_majority_continues(self):
        from repro.consensus import RaftCluster

        net = SimNet(seed=4)
        cluster = RaftCluster(net, n_nodes=5)
        cluster.propose([data_tx(1)])
        leader = cluster.leader_id
        majority = {n.node_id for n in cluster.nodes[:3]}
        minority = {n.node_id for n in cluster.nodes[3:]}
        if leader not in majority:
            majority, minority = minority, majority
            if len(majority) < 3:
                majority, minority = minority, majority
        net.partition(majority, minority)
        if leader in majority and len(majority) >= 3:
            metrics = cluster.propose([data_tx(2)])
            assert metrics.committed
            # The cut-off nodes are behind, not forked.
            for node in cluster.nodes:
                if node.node_id in minority:
                    assert node.chain.height <= 2
        net.heal()
