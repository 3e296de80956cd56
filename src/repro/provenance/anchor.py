"""Anchoring provenance records to a blockchain.

The storage-locus decision the paper's §6.1 highlights: storing full
records on-chain is simple but expensive; the scalable design batches
record *hashes* into a Merkle tree and anchors only the root in a chain
transaction.  A record is then provable with:

* the record itself (from the off-chain database),
* a Merkle inclusion proof against the anchored root,
* the block header containing the anchor transaction.

The mechanism — committed batches, lazy trees, the locator — is
:mod:`repro.chain.anchoring`, shared with the beacon one level up; the
one :class:`~repro.verify.AnchoredProof` that :meth:`AnchorService.
prove` returns, and every verifier checks against a block header, is
:mod:`repro.verify`'s.
``AnchorService`` adds what is particular to records: the 32-byte
:func:`~repro.provenance.records.record_digest` leaves keyed by record
id, the pending batch that fills up to ``batch_size``, the anchor
transaction's payload (and, for the EVAL-STORE ablation, an ``inline``
mode that puts whole records on-chain), and the derived-row layout.

Durability
----------

Nothing here is checkpointed.  :meth:`AnchorService.flush` commits the
batch's proof state — the row ``[anchor_id, tx_id, merkle_root, leaf
digests]``, 32 bytes per record — as the anchor block's derived row, so
it exists iff that block does.  :meth:`AnchorService.load_proof_state`
reads the rows back on open (O(anchors)) and takes the record *ids* from
the record store in position order: every production path stores a
record and enqueues it in the same order, so batch *k* covers the next
``record_count`` stored records, and what lies beyond the covered prefix
**is** the pending batch.  (A format-2 store may also hold rows with a
fifth element, the batch's record ids, written when it was upgraded
from the checkpointed format and possibly anchored out of position
order; that row layout stays readable.)  An anchor block is final, so
a batch, once committed, covers its records for good.  A snapshot client
installs a peer's row only after :func:`verify_batch_row`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..chain import Blockchain, Transaction, TxKind
from ..chain.anchoring import BatchAnchors
from ..crypto.hashing import HASH_SIZE
from ..crypto.merkle import MerkleTree
from ..errors import AnchorError
from ..serialization import own
from ..verify import AnchoredProof, commits_root
from .records import record_digest


@dataclass(frozen=True)
class AnchorReceipt:
    """Where one batch landed on-chain."""

    anchor_id: str
    merkle_root: bytes
    block_height: int
    tx_id: str
    record_count: int


def _leaf_digests(blob: bytes) -> list[bytes]:
    return [blob[i:i + HASH_SIZE] for i in range(0, len(blob), HASH_SIZE)]


def covered_leaves(rows, record_ids):
    """Pair each leaf of the batch ``rows`` (``(height, row)``, height
    order) with the record id it covers, the way a reopen does: a row
    that names its ids (the format-2 layout) by name, every other row
    the next ids of ``record_ids`` (position order) that no row names.
    Returns per row its ``(leaf digest, record id)`` pairs — fewer than
    its leaves when the ids run out — and the ids no row covers."""
    named = {rid for _, row in rows for ids in row[4:] for rid in ids}
    unnamed = (rid for rid in record_ids if rid not in named)
    covered = [list(zip(_leaf_digests(blob), ids[0] if ids else unnamed))
               for _, (_, _, _, blob, *ids) in rows]
    return covered, list(unnamed)


def verify_batch_row(row, block) -> None:
    """Fail closed on a batch row from outside (a snapshot peer): it must
    be well formed and its digests must hash to the root ``block``'s
    anchor transaction committed on-chain, or :class:`AnchorError`."""
    try:
        anchor_id, tx_id, root, blob, *named = row
        digests, ids = _leaf_digests(blob), named[0] if named else []
        ok = (commits_root(block.find_transaction(tx_id)[1], root,
                           MerkleTree(digests).root)
              and type(anchor_id) is str and len(named) < 2
              and type(ids) is list and len(ids) in (0, len(digests))
              and all(type(record_id) is str for record_id in ids))
    except (KeyError, TypeError, ValueError):
        ok = False
    if not ok:
        raise AnchorError(
            f"proof row of block {block.height} does not hash to the "
            "root its anchor transaction committed")


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

    Which anchor covers a record id, and at which leaf, is the
    :class:`~repro.chain.anchoring.BatchAnchors` index's business, so
    proofs are O(log batch) to produce.
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
        self._batches = BatchAnchors(chain)
        self.receipts: list[AnchorReceipt] = self._batches.receipts

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def enqueue(self, record: Mapping[str, Any],
                encoded: bytes | None = None) -> AnchorReceipt | None:
        """Queue a record; flushes automatically at ``batch_size``.
        The record must already pass the record rule
        (:func:`~repro.persist.codec.check_record`): the doors that
        store records run it, and this queue does not repeat it.

        ``encoded`` is the record's canonical bytes from a caller that
        owns the dict and gives it away: the batch keeps the record
        itself, and :func:`record_digest` hashes those bytes instead of
        re-encoding it.

        Returns the receipt when this enqueue triggered a flush.
        """
        if encoded is None:
            record = own(record)
        record_id = record["record_id"]
        if record_id in self._batches or record_id in self._pending.ids:
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
        batch = self._pending
        if not batch.records:
            return None
        anchor_id = f"anchor-{self.chain.chain_id}-{len(self.receipts):06d}"
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
        else:
            block = self.chain.build_block([tx])
        receipt = self._batches.commit(
            block,
            [anchor_id, tx.tx_id, tree.root, b"".join(batch.digests)],
            AnchorReceipt(anchor_id, tree.root, block.height, tx.tx_id,
                          len(batch.records)),
            tree, (record["record_id"] for record in batch.records))
        # Only now is the batch anchored: a failed append leaves it
        # pending (and its anchor id unused).
        self._pending = _PendingBatch()
        return receipt

    def load_proof_state(self, database) -> tuple[int, int]:
        """Reload after a reopen (see the module docstring): one receipt
        per derived row on the chain's store, record ids from
        ``database`` in position order, the uncovered rest queued again.
        Returns ``(rows loaded, records re-queued)``."""
        rows = list(self._batches.stored_rows())
        covered, uncovered = covered_leaves(rows, database.record_ids())
        for (height, (anchor_id, tx_id, root, blob, *_)), pairs in zip(
                rows, covered):
            digests = _leaf_digests(blob)
            self._batches.index(
                AnchorReceipt(anchor_id, root, height, tx_id, len(digests)),
                digests, [rid for _, rid in pairs])
        # Queued again, not flushed: a replica's pending batch stays
        # pending.
        batch = self._pending
        for record_id in uncovered:
            record = database.get(record_id)
            batch.records.append(record)
            batch.digests.append(record_digest(record))
            batch.ids.add(record_id)
        return len(rows), len(batch.records)

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def is_anchored(self, record_id: str) -> bool:
        return record_id in self._batches

    def receipt_for(self, record_id: str) -> AnchorReceipt | None:
        return self._batches.receipt_for(record_id)

    def prove(self, record_id: str) -> AnchoredProof:
        """The record's evidence, checkable against the header of its
        anchor block alone — by :meth:`verify` here and by a
        :class:`~repro.verify.LightClient` alike."""
        found = self._batches.prove(record_id)
        if found is None:
            raise AnchorError(f"record {record_id!r} is not anchored")
        receipt, record_proof = found
        anchor_tx, tx_proof = self._batches.light_material(receipt)
        return AnchoredProof(
            record_proof=record_proof,
            batch_root=receipt.merkle_root,
            anchor_tx=anchor_tx,
            tx_proof=tx_proof,
            block_height=receipt.block_height,
        )

    def verify(self, record: Mapping[str, Any], proof: AnchoredProof) -> bool:
        """:meth:`AnchoredProof.verify` of the record's digest against
        this chain's own header at the claimed height (``False`` for a
        height the chain does not have)."""
        height = proof.block_height
        return (0 <= height <= self.chain.height
                and proof.verify(record_digest(dict(record)),
                                 self.chain.block_at(height).header))

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending.records)

    @property
    def bytes_on_chain(self) -> int:
        """Total size of the anchor transactions this service committed
        (read off the chain; nothing is accumulated or persisted)."""
        return sum(self.chain.block_at(r.block_height)
                   .find_transaction(r.tx_id)[1].size_bytes
                   for r in self.receipts)
