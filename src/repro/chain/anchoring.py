"""Batch anchoring: many leaves, one Merkle root, one chain transaction.

The paper's §6.1 storage-locus answer — hash a batch into a Merkle tree,
put only the root on-chain, prove a member with *leaf → root → anchor
transaction → header* — lives here once, for every level that uses it:
:class:`~repro.provenance.anchor.AnchorService` anchors record digests
on a shard chain, :class:`~repro.sharding.beacon.BeaconChain` anchors
shard blocks on the beacon.

:class:`BatchAnchors` is one chain's committed batches: a receipt per
batch, the batch's Merkle tree (built on the first proof it serves), and
the ``key → (batch, leaf index)`` locator.  A batch commits with its
anchor block — :meth:`BatchAnchors.commit` appends the block with the
batch's derived row and indexes only afterwards, so a failed append
indexes nothing — and reloads from ``store.derived_rows()`` on open.  A
sealed block is final, so a committed batch is never forgotten: its
receipt, and every proof served from it, holds for good.  What
a level adds — leaf content, key type, the anchor transaction, who seals
the block, the row layout, pending batches — stays in that level; this
module never asks which one is calling.

:meth:`BatchAnchors.light_material` reads a proof's anchor transaction
from the block its receipt names, never from a transaction index.  The
proofs a level builds from it, and the one header-only check they all
reduce to, are :mod:`repro.verify`'s — a party that did not write the
evidence checks it without importing this module.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

from ..crypto.merkle import MerkleProof, MerkleTree
from ..errors import ChainError
from .block import Block
from .transaction import Transaction


class BatchAnchors:
    """The committed batches of one chain (see the module docstring).

    A *receipt* is the owning level's record of where a batch landed;
    this class reads its ``tx_id``, ``merkle_root`` and ``block_height``.
    """

    def __init__(self, chain) -> None:
        self.chain = chain
        #: One receipt per committed batch, in block-height order.  The
        #: list is only ever appended to: the owning service hands the
        #: same object out as its ``receipts``.
        self.receipts: list = []
        # Per batch: its Merkle tree, or the leaves it is built from on
        # the first proof (a batch reloaded from its derived row).
        self._trees: list[MerkleTree | Iterable[Any]] = []
        # key -> (position in receipts, leaf index)
        self._locator: dict[Hashable, tuple[int, int]] = {}

    # -- committing and reloading ---------------------------------------
    def commit(self, block: Block, row: Any, receipt, tree: MerkleTree,
               keys: Iterable[Hashable]):
        """Append ``block`` (it carries the batch's anchor transaction)
        with ``row`` as its derived row, then index the batch."""
        self.chain.append_block(block, derived=row)
        return self.index(receipt, tree, keys)

    def index(self, receipt, leaves: MerkleTree | Iterable[Any],
              keys: Iterable[Hashable]):
        """Index one committed batch: ``keys[i]`` is leaf ``i``."""
        position = len(self.receipts)
        self.receipts.append(receipt)
        self._trees.append(leaves)
        for index, key in enumerate(keys):
            self._locator[key] = (position, index)
        return receipt

    def stored_rows(self) -> Iterator[tuple[int, Any]]:
        """``(height, derived row)`` of every batch the chain's store
        holds — what the owner turns back into :meth:`index` calls on
        open."""
        return self.chain.store.derived_rows()

    # -- lookup -----------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return key in self._locator

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._locator)

    def locate(self, key: Hashable) -> tuple[int, int] | None:
        """``(batch position, leaf index)`` of ``key``, if anchored."""
        return self._locator.get(key)

    def receipt_for(self, key: Hashable):
        loc = self._locator.get(key)
        return self.receipts[loc[0]] if loc else None

    # -- proofs -----------------------------------------------------------
    def prove(self, key: Hashable) -> tuple[Any, MerkleProof] | None:
        """``(receipt, leaf → root proof)`` for an anchored key."""
        loc = self._locator.get(key)
        if loc is None:
            return None
        position, index = loc
        tree = self._trees[position]
        if not isinstance(tree, MerkleTree):
            tree = self._trees[position] = MerkleTree(tree)
        return self.receipts[position], tree.prove(index)

    def light_material(self, receipt) -> tuple[Transaction, MerkleProof]:
        """What a header check needs beside the leaf proof: the anchor
        transaction, read from the block ``receipt`` names, and its
        inclusion proof under that block's header."""
        block = self.chain.block_at(receipt.block_height)
        found = block.find_transaction(receipt.tx_id)
        if found is None:
            raise ChainError(f"anchor transaction {receipt.tx_id[:12]} not "
                             f"in block {receipt.block_height}")
        position, anchor_tx = found
        return anchor_tx, block.prove_inclusion(position)
