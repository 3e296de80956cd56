"""ProvChain [47]: blockchain-based cloud-storage provenance.

The RQ1 reference design: a cloud storage application is hooked so that
"data operations are audited ... providing real-time cloud data
provenance by monitoring user operations".  Concretely:

* a :class:`~repro.storage.cloudstore.CloudObjectStore` emits every
  operation,
* a store-mediated capture pathway turns operations into records,
* records are Merkle-batched and anchored on a blockchain,
* users are recorded under rotating pseudonyms (the paper credits
  ProvChain with "enhanced privacy" but criticizes its unclear node
  trust; the pseudonym layer is the privacy half of that story),
* auditors run verified queries against the anchors.

``CloudProvenanceSystem`` is the shared machinery;
:class:`ProvChain` specializes it with PoW sealing (ProvChain ran on a
public-style chain) and :class:`~repro.systems.blockcloud.BlockCloud`
with PoS (its stated contribution was "PoS ... to decrease computational
requirements compared to traditional PoW").
"""

from __future__ import annotations

from ..chain import Blockchain, ChainParams
from ..clock import SimClock
from ..consensus.base import ConsensusEngine
from ..consensus.pow import ProofOfWork
from ..privacy.anonymity import PseudonymManager
from ..provenance.anchor import AnchorService
from ..provenance.capture import CaptureSink, StoreMediatedCapture
from ..provenance.query import ProvenanceQueryEngine, QueryCache, VerifiedAnswer
from ..storage.cloudstore import CloudObjectStore, StoreOperation
from ..storage.provdb import ProvenanceDatabase


class CloudProvenanceSystem:
    """Cloud store + capture + anchoring + verified audit queries."""

    def __init__(
        self,
        engine: ConsensusEngine,
        clock: SimClock | None = None,
        chain_id: str = "cloud-prov",
        batch_size: int = 16,
        pseudonymize: bool = True,
        visibility: str = "public",
    ) -> None:
        self.clock = clock or SimClock()
        self.engine = engine
        self.chain = Blockchain(ChainParams(chain_id=chain_id,
                                            visibility=visibility))
        self.store = CloudObjectStore(self.clock)
        self.database = ProvenanceDatabase()
        self.anchors = AnchorService(self.chain, sealer=engine,
                                     batch_size=batch_size)
        self.sink = CaptureSink(self.database, self.anchors)
        self.pseudonyms = PseudonymManager() if pseudonymize else None
        self.capture = StoreMediatedCapture(
            self.sink, self.store,
            record_builder=self._build_record,
            record_prefix=chain_id,
        )
        self.query_engine = ProvenanceQueryEngine(
            self.database, self.anchors, cache=QueryCache()
        )
        self._op_counter = 0

    # ------------------------------------------------------------------
    def _build_record(self, op: StoreOperation) -> dict:
        actor = op.user
        if self.pseudonyms is not None:
            # Epoch rotates per operation burst: correlation between a
            # record and the data owner requires the manager's mapping.
            actor = self.pseudonyms.pseudonym(op.user, epoch=op.op_id // 32)
        record = {
            "record_id": f"{self.chain.chain_id}-{op.op_id:08d}",
            "domain": "cloud_storage",
            "subject": op.object_key,
            "actor": actor,
            "operation": op.op,
            "timestamp": op.timestamp,
            "version": op.version,
            "content_hash": op.content_hash.hex(),
        }
        return record

    # ------------------------------------------------------------------
    # User-facing storage operations (each auto-captured)
    # ------------------------------------------------------------------
    def create(self, user: str, key: str, content: bytes) -> None:
        self.store.create(user, key, content)
        self.clock.advance(1)

    def read(self, user: str, key: str) -> bytes:
        content, _ = self.store.read(user, key)
        self.clock.advance(1)
        return content

    def update(self, user: str, key: str, content: bytes) -> None:
        self.store.update(user, key, content)
        self.clock.advance(1)

    def share(self, user: str, key: str, with_user: str) -> None:
        self.store.share(user, key, with_user)
        self.clock.advance(1)

    # ------------------------------------------------------------------
    # Audit interface
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Anchor any pending capture batch (end of an audit period)."""
        self.anchors.flush()
        self.query_engine.notify_write()

    def audit_object(self, key: str) -> VerifiedAnswer:
        """Verified history of one stored object."""
        self.finalize()
        return self.query_engine.history_verified(key)

    def audit_is_clean(self, key: str) -> bool:
        answer = self.audit_object(key)
        return answer.verified and not answer.unanchored

    def reidentify(self, pseudonym: str) -> str:
        """Auditor-with-mapping de-anonymization."""
        if self.pseudonyms is None:
            return pseudonym
        user, _ = self.pseudonyms.reidentify(pseudonym)
        return user

    # ------------------------------------------------------------------
    @property
    def blocks_sealed(self) -> int:
        return self.chain.height

    @property
    def records_captured(self) -> int:
        return len(self.database)


class ProvChain(CloudProvenanceSystem):
    """ProvChain proper: PoW-sealed, public-style chain."""

    def __init__(self, difficulty_bits: int = 10,
                 clock: SimClock | None = None, batch_size: int = 16) -> None:
        super().__init__(
            engine=ProofOfWork(difficulty_bits=difficulty_bits,
                               miner_id="provchain-miner"),
            clock=clock,
            chain_id="provchain",
            batch_size=batch_size,
            pseudonymize=True,
            visibility="public",
        )
