"""Anchoring provenance records to a blockchain.

The storage-locus decision the paper's §6.1 highlights: storing full
records on-chain is simple but expensive; the scalable design batches
record *hashes* into a Merkle tree and anchors only the root in a chain
transaction.  A record is then provable with:

* the record itself (from the off-chain database),
* a Merkle inclusion proof against the anchored root,
* the block header containing the anchor transaction.

The mechanism — committed batches, lazy trees, the locator, proofs and
the checks behind :meth:`AnchorService.verify` — is
:mod:`repro.chain.anchoring`, shared with the beacon one level up.
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
order; that row layout stays readable.)  A reorg that orphans anchor
blocks ends in the same place: their batches are forgotten and, with a
database loaded, the records they covered are pending again.  A snapshot client
installs a peer's row only after :func:`verify_batch_row`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Mapping

from ..chain import Blockchain, LightAnchorBundle, Transaction, TxKind
from ..chain.anchoring import BatchAnchors, commits_root
from ..crypto.hashing import HASH_SIZE
from ..crypto.merkle import MerkleProof, MerkleTree
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


def _leaf_digests(blob: bytes) -> list[bytes]:
    return [blob[i:i + HASH_SIZE] for i in range(0, len(blob), HASH_SIZE)]


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
        # The record database load_proof_state read the record ids from
        # (None: no reopen happened, nothing to re-queue from).
        self._database = None
        chain.subscribe_reorg(self._on_reorg)

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
            tree, (str(record["record_id"]) for record in batch.records))
        # Only now is the batch anchored: a failed append leaves it
        # pending (and its anchor id unused).
        self._pending = _PendingBatch()
        return receipt

    def load_proof_state(self, database) -> tuple[int, int]:
        """Reload after a reopen (see the module docstring): one receipt
        per derived row on the chain's store, record ids from
        ``database`` in position order, the uncovered rest queued again.
        Returns ``(rows loaded, records re-queued)``."""
        self._database = database
        rows = list(self._batches.stored_rows())
        named = {rid for _, row in rows for ids in row[4:] for rid in ids}
        unnamed = (rid for rid in database.record_ids()
                   if rid not in named)
        for height, (anchor_id, tx_id, root, blob, *ids) in rows:
            digests = _leaf_digests(blob)
            self._batches.index(
                AnchorReceipt(anchor_id, root, height, tx_id, len(digests)),
                digests, ids[0] if ids else islice(unnamed, len(digests)))
        return len(rows), self._requeue(unnamed)

    def _requeue(self, record_ids) -> int:
        """Queue stored records again — queued, not flushed: a replica's
        pending batch stays pending."""
        batch = self._pending
        for record_id in record_ids:
            record = self._database.get(record_id)
            batch.records.append(record)
            batch.digests.append(record_digest(record))
            batch.ids.add(record_id)
        return len(batch.records)

    def _on_reorg(self, fork_height: int) -> None:
        """The chain dropped its blocks above ``fork_height``: forget
        their batches; what the database holds uncovered is pending, as
        a reopen would find it."""
        if self._batches.forget_above(fork_height) \
                and self._database is not None:
            self._pending = _PendingBatch()
            self._requeue(rid for rid in self._database.record_ids()
                          if rid not in self._batches)

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def is_anchored(self, record_id: str) -> bool:
        return record_id in self._batches

    def receipt_for(self, record_id: str) -> AnchorReceipt | None:
        return self._batches.receipt_for(record_id)

    def _located(self, record_id: str) -> tuple[AnchorReceipt, MerkleProof]:
        found = self._batches.prove(record_id)
        if found is None:
            raise AnchorError(f"record {record_id!r} is not anchored")
        return found

    def prove(self, record_id: str) -> AnchoredProof:
        """Produce the inclusion proof for an anchored record."""
        receipt, merkle_proof = self._located(record_id)
        return AnchoredProof(
            anchor_id=receipt.anchor_id,
            merkle_proof=merkle_proof,
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
        return self._batches.verify(
            record_digest(dict(record)), proof.merkle_proof,
            proof.merkle_root, proof.tx_id, proof.block_height)

    def verify_or_raise(self, record: Mapping[str, Any],
                        proof: AnchoredProof) -> None:
        if not self.verify(record, proof):
            raise AnchorError(
                f"anchored proof failed for record "
                f"{record.get('record_id')!r}"
            )

    def prove_for_light_client(self, record_id: str) -> LightAnchorBundle:
        """Produce the header-only verification bundle for a record.

        Unlike :meth:`prove`/:meth:`verify`, the result is checkable by a
        :class:`~repro.chain.lightclient.LightClient` holding nothing but
        the chain's headers.
        """
        receipt, record_proof = self._located(record_id)
        anchor_tx, tx_proof = self._batches.light_material(receipt.tx_id)
        return LightAnchorBundle(
            record_proof=record_proof,
            batch_root=receipt.merkle_root,
            anchor_tx=anchor_tx,
            tx_proof=tx_proof,
            block_height=receipt.block_height,
        )

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending.records)

    @property
    def anchored_count(self) -> int:
        return len(self._batches)

    @property
    def bytes_on_chain(self) -> int:
        """Total size of the anchor transactions this service committed
        (read off the chain; nothing is accumulated or persisted)."""
        return sum(self.chain.find_transaction(r.tx_id)[1].size_bytes
                   for r in self.receipts)

