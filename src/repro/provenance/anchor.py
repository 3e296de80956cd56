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

Durability
----------

Nothing here is checkpointed.  :meth:`AnchorService.flush` passes the
batch's proof state — the row ``[anchor_id, tx_id, merkle_root, leaf
digests]``, 32 bytes per record — to ``append_block(derived=)``, so it
commits in the anchor block's own store transaction and exists iff that
block does.  :meth:`AnchorService.load_proof_state` reads the rows back
on open (O(anchors)) and takes the record *ids* from the record store in
position order: every production path stores a record and enqueues it in
the same order, so batch *k* covers the next ``record_count`` stored
records, and what lies beyond the covered prefix **is** the pending
batch.  (A store upgraded from the checkpointed format appends a fifth
element, the batch's record ids: it may have anchored out of position
order.)  Merkle trees are rebuilt on the first proof a batch serves.  A
snapshot client installs a peer's row only after :func:`verify_batch_row`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Mapping

from ..chain import Blockchain, Transaction, TxKind
from ..crypto.hashing import HASH_SIZE
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


def _leaf_digests(blob: bytes) -> list[bytes]:
    return [blob[i:i + HASH_SIZE] for i in range(0, len(blob), HASH_SIZE)]


def verify_batch_row(row, block) -> None:
    """Fail closed on a batch row from outside (a snapshot peer): it must
    be well formed and its digests must hash to the root ``block``'s
    anchor transaction committed on-chain, or :class:`AnchorError`."""
    try:
        anchor_id, tx_id, root, blob, *named = row
        digests, ids = _leaf_digests(blob), named[0] if named else []
        ok = (block.find_transaction(tx_id)[1].payload["merkle_root"]
              == root == MerkleTree(digests).root
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
        self.receipts: list[AnchorReceipt] = []
        # record_id -> (anchor position in receipts, leaf index)
        self._locator: dict[str, tuple[int, int]] = {}
        # Per receipt: the batch's Merkle tree, or (for a batch loaded
        # from its derived row) the leaf digests it is built from on the
        # first proof.
        self._trees: list[MerkleTree | list[bytes]] = []

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
        self.chain.append_block(block, derived=[
            anchor_id, tx.tx_id, tree.root, b"".join(batch.digests)])
        # Only now is the batch anchored: a failed append leaves it
        # pending (and its anchor id unused).
        self._pending = _PendingBatch()
        return self._index_batch(
            AnchorReceipt(anchor_id, tree.root, self.chain.height,
                          tx.tx_id, len(batch.records)),
            tree, (str(record["record_id"]) for record in batch.records))

    def _index_batch(self, receipt: AnchorReceipt, tree,
                     record_ids) -> AnchorReceipt:
        position = len(self.receipts)
        self.receipts.append(receipt)
        self._trees.append(tree)
        for index, record_id in enumerate(record_ids):
            self._locator[record_id] = (position, index)
        return receipt

    def load_proof_state(self, database) -> tuple[int, int]:
        """Reload after a reopen (see the module docstring): one receipt
        per derived row on the chain's store, record ids from
        ``database`` in position order, the uncovered rest queued again.
        Returns ``(rows loaded, records re-queued)``."""
        rows = list(self.chain.store.derived_rows())
        named = {rid for _, row in rows for ids in row[4:] for rid in ids}
        unnamed = (rid for rid in database.record_ids()
                   if rid not in named)
        for height, (anchor_id, tx_id, root, blob, *ids) in rows:
            digests = _leaf_digests(blob)
            self._index_batch(
                AnchorReceipt(anchor_id, root, height, tx_id, len(digests)),
                digests, ids[0] if ids else islice(unnamed, len(digests)))
        # Queued, not flushed: a replica's pending batch stays pending.
        batch = self._pending
        for record_id in unnamed:
            record = database.get(record_id)
            batch.records.append(record)
            batch.digests.append(record_digest(record))
            batch.ids.add(record_id)
        return len(rows), len(batch.records)

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
        position, index = loc
        receipt = self.receipts[position]
        return AnchoredProof(
            anchor_id=receipt.anchor_id,
            merkle_proof=self._tree(position).prove(index),
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
        position, index = loc
        receipt = self.receipts[position]
        located = self.chain.prove_transaction(receipt.tx_id)
        if located is None:
            raise AnchorError(
                f"anchor transaction {receipt.tx_id[:12]} not on chain"
            )
        block, tx_proof = located
        anchor_tx = block.find_transaction(receipt.tx_id)[1]
        return LightAnchorBundle(
            record_proof=self._tree(position).prove(index),
            batch_root=receipt.merkle_root,
            anchor_tx=anchor_tx,
            tx_proof=tx_proof,
            block_height=block.height,
        )

    def _tree(self, position: int) -> MerkleTree:
        """The batch's Merkle tree; a batch loaded from its derived row
        builds it here, once."""
        tree = self._trees[position]
        if not isinstance(tree, MerkleTree):
            tree = self._trees[position] = MerkleTree(tree)
        return tree

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        return len(self._pending.records)

    @property
    def anchored_count(self) -> int:
        return len(self._locator)

    @property
    def bytes_on_chain(self) -> int:
        """Total size of the anchor transactions this service committed
        (read off the chain; nothing is accumulated or persisted)."""
        return sum(self.chain.find_transaction(r.tx_id)[1].size_bytes
                   for r in self.receipts)


def _leaf(digest: bytes) -> bytes:
    from ..crypto.merkle import leaf_hash

    return leaf_hash(digest)
