"""Header-only light client.

RQ1 raises "issues such as online or offline querying and determining
who can query and verify the provenance" (§1).  A light client answers
the *offline verifier* case: it syncs only block headers (32-byte-ish
each), yet can verify

* that a transaction was committed (header Merkle root + inclusion
  proof), and
* that a provenance record was anchored (record → batch root via the
  record proof, batch root → anchor transaction, anchor transaction →
  header via the transaction proof),

without trusting the full node that served the proofs.  The second check
is :func:`repro.chain.anchoring.verify_anchored` — the one three-hop
check of the anchoring mechanism — against a header this client holds;
the client adds the header sync and what the leaf is (a record's digest).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.merkle import MerkleProof, verify_proof
from ..errors import ChainError, TamperDetected
from .anchoring import verify_anchored
from .block import BlockHeader, GENESIS_PREV_HASH
from .transaction import Transaction


@dataclass(frozen=True)
class LightAnchorBundle:
    """Everything a light client needs to verify one anchored record."""

    record_proof: MerkleProof       # record digest -> batch merkle root
    batch_root: bytes
    anchor_tx: Transaction          # carries the batch root on-chain
    tx_proof: MerkleProof           # anchor tx -> header merkle root
    block_height: int


class LightClient:
    """Tracks a chain's headers and verifies proofs against them."""

    def __init__(self, chain_id: str) -> None:
        self.chain_id = chain_id
        self._headers: list[BlockHeader] = []
        # Hash of the current head, computed once per accepted header so
        # linkage checks never re-hash history (headers may be shared
        # with a full node whose own caches we do not rely on).
        self._head_hash: bytes | None = None

    # ------------------------------------------------------------------
    # Header sync
    # ------------------------------------------------------------------
    def submit_header(self, header: BlockHeader) -> None:
        """Accept the next header; linkage is verified on arrival, so a
        forged or out-of-order header is rejected immediately."""
        if not self._headers:
            if header.height != 0 or header.prev_hash != GENESIS_PREV_HASH:
                raise ChainError("first header must be a genesis header")
        else:
            head = self._headers[-1]
            if header.height != head.height + 1:
                raise ChainError(
                    f"expected header height {head.height + 1}, "
                    f"got {header.height}"
                )
            if header.prev_hash != self._head_hash:
                raise TamperDetected(
                    f"header {header.height} does not link to our head",
                    height=header.height)
        self._headers.append(header)
        self._head_hash = header.block_hash

    def sync_from(self, chain) -> int:
        """Pull any headers we are missing from a full node."""
        pulled = 0
        for block in chain.blocks[len(self._headers):]:
            self.submit_header(block.header)
            pulled += 1
        return pulled

    @property
    def height(self) -> int:
        return len(self._headers) - 1

    def header_at(self, height: int) -> BlockHeader:
        if not 0 <= height < len(self._headers):
            raise ChainError(f"light client has no header at {height}")
        return self._headers[height]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify_transaction(self, tx: Transaction, proof: MerkleProof,
                           height: int) -> bool:
        """Was ``tx`` committed at ``height``?  Needs only the header."""
        header = self.header_at(height)
        return verify_proof(header.merkle_root, tx.tx_hash, proof)

    def verify_anchored_record(self, record: dict,
                               bundle: LightAnchorBundle) -> bool:
        """Three-hop verification of an anchored provenance record.

        1. the record digest is under the bundle's batch root;
        2. the anchor transaction commits exactly that batch root;
        3. the anchor transaction is in the header we hold for the
           claimed height.
        """
        from ..provenance.records import record_digest

        return verify_anchored(
            record_digest(record), bundle.record_proof, bundle.batch_root,
            bundle.anchor_tx, bundle.tx_proof,
            self.header_at(bundle.block_height), bundle.block_height)
