"""Anchoring provenance records to a blockchain.

The storage-locus decision the paper's §6.1 highlights: storing full
records on-chain is simple but expensive; the scalable design batches
record *hashes* into a Merkle tree and anchors only the root in a chain
transaction.  A record is then provable with:

* the record itself (from the off-chain database),
* a Merkle inclusion proof against the anchored root,
* the block header containing the anchor transaction.

``AnchorService`` implements the batched design (and, for the EVAL-STORE
ablation, an ``inline`` mode that puts whole records on-chain).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..chain import Blockchain, Transaction, TxKind
from ..crypto.merkle import MerkleProof, MerkleTree, verify_proof
from ..errors import AnchorError
from .records import record_digest


@dataclass(frozen=True)
class AnchorReceipt:
    """Where one batch landed on-chain."""

    anchor_id: str
    merkle_root: bytes
    block_height: int
    tx_id: str
    record_count: int


@dataclass(frozen=True)
class AnchoredProof:
    """Everything needed to verify a record against the chain."""

    anchor_id: str
    merkle_proof: MerkleProof
    merkle_root: bytes
    block_height: int
    tx_id: str

    @property
    def size_bytes(self) -> int:
        return self.merkle_proof.size_bytes + len(self.merkle_root) + 48


@dataclass
class _PendingBatch:
    records: list[dict] = field(default_factory=list)
    digests: list[bytes] = field(default_factory=list)
    # Pending ids mirrored in a set so per-enqueue dedup is O(1) instead
    # of a scan over the pending batch.
    ids: set[str] = field(default_factory=set)


class AnchorService:
    """Batches provenance records and anchors them on a chain.

    ``mode``:

    * ``"batched"`` (default) — Merkle root per batch on-chain, bodies
      off-chain;
    * ``"inline"`` — every record fully on-chain (the expensive baseline).

    The service tracks, per record id, which anchor covers it and the
    record's leaf index, so proofs are O(log batch) to produce.
    """

    def __init__(
        self,
        chain: Blockchain,
        sealer=None,
        batch_size: int = 64,
        mode: str = "batched",
        sender: str = "anchor-service",
    ) -> None:
        if mode not in ("batched", "inline"):
            raise AnchorError(f"unknown anchor mode {mode!r}")
        if batch_size < 1:
            raise AnchorError("batch_size must be >= 1")
        self.chain = chain
        self.sealer = sealer            # ConsensusEngine or None (direct append)
        self.batch_size = batch_size
        self.mode = mode
        self.sender = sender
        self._pending = _PendingBatch()
        self._anchor_count = 0
        self.receipts: list[AnchorReceipt] = []
        # record_id -> (anchor position in receipts, leaf index, digest)
        self._locator: dict[str, tuple[int, int, bytes]] = {}
        self._trees: list[MerkleTree] = []
        self.bytes_on_chain = 0

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def enqueue(self, record: Mapping[str, Any],
                encoded: bytes | None = None) -> AnchorReceipt | None:
        """Queue a record; flushes automatically at ``batch_size``.

        ``encoded`` is the record's canonical bytes from a caller that
        owns the dict and gives it away: the batch keeps the record
        itself, and :func:`record_digest` hashes those bytes instead of
        re-encoding it.

        Returns the receipt when this enqueue triggered a flush.
        """
        if encoded is None:
            record = dict(record)
        record_id = str(record.get("record_id", ""))
        if not record_id:
            raise AnchorError("record lacks record_id")
        if record_id in self._locator or record_id in self._pending.ids:
            raise AnchorError(f"record {record_id!r} already anchored/pending")
        self._pending.records.append(record)
        self._pending.digests.append(record_digest(record, encoded))
        self._pending.ids.add(record_id)
        if len(self._pending.records) >= self.batch_size:
            return self.flush()
        return None

    def flush(self) -> AnchorReceipt | None:
        """Anchor whatever is pending; returns the receipt (or ``None``
        when nothing was pending)."""
        if not self._pending.records:
            return None
        batch, self._pending = self._pending, _PendingBatch()
        anchor_id = f"anchor-{self.chain.chain_id}-{self._anchor_count:06d}"
        self._anchor_count += 1
        tree = MerkleTree(batch.digests)
        payload: dict[str, Any] = {
            "anchor_id": anchor_id,
            "merkle_root": tree.root,
            "record_count": len(batch.records),
            "mode": self.mode,
        }
        if self.mode == "inline":
            payload["records"] = batch.records
        # Sealed: the anchor tx is hashed (id), sized (bytes_on_chain),
        # and Merkle-hashed (block build) — sealing pins one canonical
        # encoding for all three and freezes the payload.
        tx = Transaction(
            sender=self.sender,
            kind=TxKind.PROVENANCE,
            payload=payload,
            timestamp=self.chain.head.header.timestamp,
        ).seal()
        if self.sealer is not None:
            block, _ = self.sealer.seal(self.chain, [tx])
            self.chain.append_block(block)
        else:
            self.chain.append_block(self.chain.build_block([tx]))
        receipt = AnchorReceipt(
            anchor_id=anchor_id,
            merkle_root=tree.root,
            block_height=self.chain.height,
            tx_id=tx.tx_id,
            record_count=len(batch.records),
        )
        position = len(self.receipts)
        self.receipts.append(receipt)
        self._trees.append(tree)
        for index, record in enumerate(batch.records):
            self._locator[str(record["record_id"])] = (
                position, index, batch.digests[index]
            )
        self.bytes_on_chain += tx.size_bytes
        return receipt

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def is_anchored(self, record_id: str) -> bool:
        return record_id in self._locator

    def receipt_for(self, record_id: str) -> AnchorReceipt | None:
        loc = self._locator.get(record_id)
        return self.receipts[loc[0]] if loc else None

    def prove(self, record_id: str) -> AnchoredProof:
        """Produce the inclusion proof for an anchored record."""
        loc = self._locator.get(record_id)
        if loc is None:
            raise AnchorError(f"record {record_id!r} is not anchored")
        position, index, _ = loc
        receipt = self.receipts[position]
        return AnchoredProof(
            anchor_id=receipt.anchor_id,
            merkle_proof=self._trees[position].prove(index),
            merkle_root=receipt.merkle_root,
            block_height=receipt.block_height,
            tx_id=receipt.tx_id,
        )

    def verify(self, record: Mapping[str, Any], proof: AnchoredProof) -> bool:
        """Full verification against the live chain:

        1. the record's digest is under the proof's Merkle root;
        2. that root is what the anchor transaction committed on-chain;
        3. the anchor transaction is in the block the proof claims.
        """
        digest = record_digest(dict(record))
        if proof.merkle_proof.root_from(
            _leaf(digest)
        ) != proof.merkle_root:
            return False
        found = self.chain.find_transaction(proof.tx_id)
        if found is None:
            return False
        block, tx = found
        if block.height != proof.block_height:
            return False
        return tx.payload.get("merkle_root") == proof.merkle_root

    def verify_or_raise(self, record: Mapping[str, Any],
                        proof: AnchoredProof) -> None:
        if not self.verify(record, proof):
            raise AnchorError(
                f"anchored proof failed for record "
                f"{record.get('record_id')!r}"
            )

    def prove_for_light_client(self, record_id: str):
        """Produce the header-only verification bundle for a record.

        Unlike :meth:`prove`/:meth:`verify`, the result is checkable by a
        :class:`~repro.chain.lightclient.LightClient` holding nothing but
        the chain's headers.
        """
        from ..chain.lightclient import LightAnchorBundle

        loc = self._locator.get(record_id)
        if loc is None:
            raise AnchorError(f"record {record_id!r} is not anchored")
        position, index, _ = loc
        receipt = self.receipts[position]
        located = self.chain.prove_transaction(receipt.tx_id)
        if located is None:
            raise AnchorError(
                f"anchor transaction {receipt.tx_id[:12]} not on chain"
            )
        block, tx_proof = located
        anchor_tx = block.find_transaction(receipt.tx_id)[1]
        return LightAnchorBundle(
            record_proof=self._trees[position].prove(index),
            batch_root=receipt.merkle_root,
            anchor_tx=anchor_tx,
            tx_proof=tx_proof,
            block_height=block.height,
        )

    # ------------------------------------------------------------------
    # Durability (state dump/restore for persistent deployments)
    # ------------------------------------------------------------------
    def dump_state(self) -> dict:
        """Everything needed to rebuild the service after a restart, as a
        canonical-encodable mapping: anchored batch membership (record
        ids + digests, from which the Merkle trees are rebuilt), receipt
        fields, and the pending batch.  The anchor *transactions* are not
        here — they live on the chain, which has its own store."""
        batches: list[list] = [
            [None] * receipt.record_count for receipt in self.receipts
        ]
        for record_id, (pos, index, digest) in self._locator.items():
            batches[pos][index] = [record_id, digest]
        return {
            "anchor_count": self._anchor_count,
            "bytes_on_chain": self.bytes_on_chain,
            "receipts": [
                {
                    "anchor_id": r.anchor_id,
                    "merkle_root": r.merkle_root,
                    "block_height": r.block_height,
                    "tx_id": r.tx_id,
                    "record_count": r.record_count,
                }
                for r in self.receipts
            ],
            "batches": batches,
            "pending_records": list(self._pending.records),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Inverse of :meth:`dump_state`; replaces all service state."""
        self._anchor_count = int(state["anchor_count"])
        self.bytes_on_chain = int(state["bytes_on_chain"])
        self.receipts = [
            AnchorReceipt(
                anchor_id=r["anchor_id"],
                merkle_root=r["merkle_root"],
                block_height=r["block_height"],
                tx_id=r["tx_id"],
                record_count=r["record_count"],
            )
            for r in state["receipts"]
        ]
        self._trees = []
        self._locator = {}
        for position, members in enumerate(state["batches"]):
            digests = [digest for _, digest in members]
            self._trees.append(MerkleTree(digests))
            for index, (record_id, digest) in enumerate(members):
                self._locator[str(record_id)] = (position, index, digest)
        self._pending = _PendingBatch()
        for record in state["pending_records"]:
            self._pending.records.append(dict(record))
            self._pending.digests.append(record_digest(dict(record)))
            self._pending.ids.add(str(record["record_id"]))

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending.records)

    @property
    def anchored_count(self) -> int:
        return len(self._locator)


def _leaf(digest: bytes) -> bytes:
    from ..crypto.merkle import leaf_hash

    return leaf_hash(digest)
