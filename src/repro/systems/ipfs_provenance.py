"""IPFS + blockchain provenance ([33], Hasan et al.).

The design: file bodies go to IPFS (content-addressed, so the identifier
is an integrity check); the chain records ``(file key, CID, owner,
operation)`` provenance.  Integrity *and* availability are separated
concerns: the chain proves what the content hash was, the CAS serves the
bytes, and a pin audit detects the dangling-CID failure mode.
"""

from __future__ import annotations

from ..chain import Blockchain, ChainParams
from ..clock import SimClock
from ..consensus.poa import ProofOfAuthority
from ..errors import ObjectNotFound, StorageError
from ..provenance.anchor import AnchorService
from ..provenance.capture import CaptureSink, DirectCapture
from ..provenance.query import ProvenanceQueryEngine
from ..storage.cas import CID, ContentAddressedStore
from ..storage.provdb import ProvenanceDatabase


class IPFSProvenance:
    """Off-chain CAS bodies, on-chain anchored provenance records."""

    def __init__(
        self,
        clock: SimClock | None = None,
        authorities: list[str] | None = None,
        batch_size: int = 8,
        chunk_size: int = 4096,
    ) -> None:
        self.clock = clock or SimClock()
        self.cas = ContentAddressedStore(chunk_size=chunk_size)
        self.chain = Blockchain(ChainParams(chain_id="ipfs-prov",
                                            visibility="private"))
        self.engine = ProofOfAuthority(authorities or ["gw-0", "gw-1"])
        self.database = ProvenanceDatabase()
        self.anchors = AnchorService(self.chain, sealer=self.engine,
                                     batch_size=batch_size)
        self.sink = CaptureSink(self.database, self.anchors)
        self.capture = DirectCapture(self.sink)
        self.query_engine = ProvenanceQueryEngine(self.database, self.anchors)
        self._cids: dict[str, list[CID]] = {}    # key -> version CIDs
        self._counter = 0

    # ------------------------------------------------------------------
    def _record(self, user: str, key: str, operation: str, cid: CID) -> dict:
        record = {
            "record_id": f"ipfs-{self._counter:08d}",
            "domain": "cloud_storage",
            "subject": key,
            "actor": user,
            "operation": operation,
            "timestamp": self.clock.now(),
            "cid": cid.hex,
            "cid_kind": cid.kind,
        }
        self._counter += 1
        self.capture.record_operation(record)
        self.clock.advance(1)
        return record

    # ------------------------------------------------------------------
    # Storage API
    # ------------------------------------------------------------------
    def add_file(self, user: str, key: str, content: bytes) -> CID:
        if key in self._cids:
            raise StorageError(f"file {key!r} already exists; use update")
        cid = self.cas.put(content)
        self._cids[key] = [cid]
        self._record(user, key, "create", cid)
        return cid

    def update_file(self, user: str, key: str, content: bytes) -> CID:
        if key not in self._cids:
            raise ObjectNotFound(f"no file {key!r}")
        cid = self.cas.put(content)
        self._cids[key].append(cid)
        self._record(user, key, "update", cid)
        return cid

    def get_file(self, user: str, key: str,
                 version: int | None = None) -> bytes:
        versions = self._cids.get(key)
        if not versions:
            raise ObjectNotFound(f"no file {key!r}")
        index = len(versions) - 1 if version is None else version
        cid = versions[index]
        content = self.cas.get(cid)
        self._record(user, key, "read", cid)
        return content

    # ------------------------------------------------------------------
    # Integrity & availability audits
    # ------------------------------------------------------------------
    def audit_history(self, key: str):
        """Verified provenance history of a file."""
        self.anchors.flush()
        return self.query_engine.history_verified(key)

    def availability_audit(self) -> list[str]:
        """Keys whose latest CID is no longer retrievable (dangling
        on-chain references — the RQ1 availability hazard)."""
        missing = []
        for key, versions in self._cids.items():
            if not self.cas.has(versions[-1]):
                missing.append(key)
        return sorted(missing)

    @property
    def stored_bytes_off_chain(self) -> int:
        return self.cas.stored_bytes

    @property
    def bytes_on_chain(self) -> int:
        return self.anchors.bytes_on_chain
