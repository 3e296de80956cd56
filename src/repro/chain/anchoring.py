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
indexes nothing — reloads from ``store.derived_rows()`` on open, and is
forgotten when a reorg orphans its block (:meth:`BatchAnchors.
forget_above`, which the owning service subscribes to the chain).  What
a level adds — leaf content, key type, the anchor transaction, who seals
the block, the row layout, pending batches — stays in that level; this
module never asks which one is calling.

:func:`verify_anchored` is the header-only three-hop check every
verifier reduces to; :func:`commits_root` is its first two hops, for a
full node that located the anchor transaction through its own index.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator

from ..crypto.merkle import MerkleProof, MerkleTree, leaf_hash, verify_proof
from ..errors import ChainError
from .block import Block, BlockHeader
from .transaction import Transaction


def commits_root(anchor_tx: Transaction, root: bytes,
                 computed_root: bytes) -> bool:
    """What the evidence hashes to is the root it claims, and that root
    is the one ``anchor_tx`` committed on-chain."""
    return computed_root == root == anchor_tx.payload.get("merkle_root")


def verify_anchored(leaf: Any, proof: MerkleProof, root: bytes,
                    anchor_tx: Transaction, tx_proof: MerkleProof,
                    header: BlockHeader, height: int) -> bool:
    """The three-hop check, against a block header and nothing else:

    1. ``leaf`` is under ``root`` via ``proof``;
    2. ``anchor_tx`` commits exactly that root;
    3. ``anchor_tx`` is in ``header``, the header of the claimed height.
    """
    return (commits_root(anchor_tx, root, proof.root_from(leaf_hash(leaf)))
            and header.height == height
            and verify_proof(header.merkle_root, anchor_tx.tx_hash,
                             tx_proof))


class BatchAnchors:
    """The committed batches of one chain (see the module docstring).

    A *receipt* is the owning level's record of where a batch landed;
    this class reads its ``tx_id``, ``merkle_root`` and ``block_height``.
    """

    def __init__(self, chain) -> None:
        self.chain = chain
        #: One receipt per committed batch, in block-height order.  The
        #: list is only ever mutated in place: the owning service hands
        #: the same object out as its ``receipts``.
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

    def forget_above(self, height: int) -> int:
        """Drop every batch anchored above ``height`` (a reorg orphaned
        those blocks and the store dropped their rows with them);
        returns how many were dropped."""
        keep = sum(r.block_height <= height for r in self.receipts)
        dropped = len(self.receipts) - keep
        if dropped:
            del self.receipts[keep:], self._trees[keep:]
            self._locator = {key: loc for key, loc in self._locator.items()
                             if loc[0] < keep}
        return dropped

    # -- lookup -----------------------------------------------------------
    def __contains__(self, key: Hashable) -> bool:
        return key in self._locator

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._locator)

    def __len__(self) -> int:
        return len(self._locator)

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

    def verify(self, leaf: Any, proof: MerkleProof, root: bytes,
               tx_id: str, height: int) -> bool:
        """Full-node check against the live chain: ``leaf`` is under
        ``root``, and ``root`` is what the transaction ``tx_id`` — found
        in the block at ``height`` — committed."""
        found = self.chain.find_transaction(tx_id)
        return (found is not None and found[0].height == height
                and commits_root(found[1], root,
                                 proof.root_from(leaf_hash(leaf))))

    def light_material(self, tx_id: str) -> tuple[Transaction, MerkleProof]:
        """What a header-only verifier needs beside the leaf proof: the
        anchor transaction and its inclusion proof under its block's
        header."""
        located = self.chain.prove_transaction(tx_id)
        if located is None:
            raise ChainError(f"anchor transaction {tx_id[:12]} not on chain")
        block, tx_proof = located
        return block.find_transaction(tx_id)[1], tx_proof
