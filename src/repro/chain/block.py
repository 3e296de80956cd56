"""Blocks: header + transaction body (the paper's Figure 2).

A block header commits to

* its position (``height``) and parent (``prev_hash``),
* the transactions via ``merkle_root``,
* the proposer and consensus-specific metadata (PoW nonce/difficulty,
  PoS stake proof, PBFT view, …).

Any mutation of any transaction changes the Merkle root and hence the
header hash, which invalidates the ``prev_hash`` of the next block — the
chain-of-hashes immutability argument the paper summarizes in §2.1.

Caching invariants
------------------

``BlockHeader.block_hash`` is computed once and cached; assigning *any*
header field invalidates the cache, so a tampered header re-hashes to its
current content on the next read (the chain-break the auditor detects).
``Block`` builds its Merkle tree once at construction from the (cached)
transaction hashes.  The fast integrity check used on the append hot path
(``verify_structure(use_cached_tree=True)``) trusts that tree; the auditor
paths (:meth:`verify_structure` default, :meth:`recompute_merkle_root`)
rebuild the tree from the transaction hashes, and ``deep=True`` recomputes
even those from the raw payload bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..crypto.hashing import DOMAIN_BLOCK, ZERO_HASH, hash_canonical
from ..crypto.merkle import MerkleProof, MerkleTree, leaf_hash
from ..errors import InvalidBlock
from .transaction import Transaction

GENESIS_PREV_HASH = ZERO_HASH

# Every header field participates in the header hash.
_HEADER_FIELDS = frozenset(
    {"height", "prev_hash", "merkle_root", "timestamp", "proposer",
     "consensus_meta", "nonce"}
)


@dataclass
class BlockHeader:
    """Canonical block header.

    The header hash is cached after first computation; assigning any
    field drops the cache (invalidate-on-assign, mirroring
    :class:`~repro.chain.transaction.Transaction`).
    """

    height: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    proposer: str
    consensus_meta: Mapping[str, Any] = field(default_factory=dict)
    nonce: int = 0

    def __setattr__(self, name: str, value: Any) -> None:
        if name in _HEADER_FIELDS:
            self.__dict__.pop("_cache_hash", None)
            self.__dict__.pop("_cache_id", None)
        object.__setattr__(self, name, value)

    def to_canonical(self) -> dict:
        return {
            "height": self.height,
            "prev_hash": self.prev_hash,
            "merkle_root": self.merkle_root,
            "timestamp": self.timestamp,
            "proposer": self.proposer,
            "consensus_meta": dict(self.consensus_meta),
            "nonce": self.nonce,
        }

    def compute_block_hash(self) -> bytes:
        """Recompute the hash of the current content, bypassing the cache
        (auditor primitive, used by ``Blockchain.verify(deep=True)``)."""
        return hash_canonical(self.to_canonical(), DOMAIN_BLOCK)

    @property
    def block_hash(self) -> bytes:
        h = self.__dict__.get("_cache_hash")
        if h is None:
            h = self.compute_block_hash()
            self.__dict__["_cache_hash"] = h
        return h

    @property
    def block_id(self) -> str:
        i = self.__dict__.get("_cache_id")
        if i is None:
            i = self.block_hash.hex()
            self.__dict__["_cache_id"] = i
        return i


class Block:
    """A block binds a header to its transaction body.

    The Merkle tree over transactions is built once at construction and
    cached so inclusion proofs are cheap.
    """

    def __init__(
        self,
        height: int,
        prev_hash: bytes,
        transactions: Sequence[Transaction],
        timestamp: int = 0,
        proposer: str = "",
        consensus_meta: Mapping[str, Any] | None = None,
        nonce: int = 0,
    ) -> None:
        self.transactions: list[Transaction] = list(transactions)
        self._tree = MerkleTree([tx.tx_hash for tx in self.transactions])
        self.header = BlockHeader(
            height=height,
            prev_hash=prev_hash,
            merkle_root=self._tree.root,
            timestamp=timestamp,
            proposer=proposer,
            consensus_meta=dict(consensus_meta or {}),
            nonce=nonce,
        )

    # ------------------------------------------------------------------
    # Identity & access
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self.header.height

    @property
    def block_hash(self) -> bytes:
        return self.header.block_hash

    @property
    def block_id(self) -> str:
        return self.header.block_id

    def __len__(self) -> int:
        return len(self.transactions)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def recompute_merkle_root(self, deep: bool = False) -> bytes:
        """Root over the *current* transaction list (tamper check).

        The tree is always rebuilt node-by-node; with ``deep=True`` even
        the transaction hashes are recomputed from the raw payloads
        (paranoid audit — catches in-place payload-dict mutation that the
        invalidate-on-assign caches cannot see).
        """
        if deep:
            leaves = [tx.compute_tx_hash() for tx in self.transactions]
        else:
            leaves = [tx.tx_hash for tx in self.transactions]
        return MerkleTree(leaves).root

    def verify_structure(self, *, use_cached_tree: bool = False,
                         deep: bool = False) -> None:
        """Check internal consistency; raises :class:`InvalidBlock`.

        The default mode rebuilds the Merkle root and catches the
        Figure-2 attack: a transaction in the body was mutated after the
        header was formed.  ``use_cached_tree=True`` is the append-path
        fast mode: instead of rebuilding interior nodes it checks each
        transaction's (cached, invalidate-on-assign) hash against the
        tree's leaves — no SHA work for untouched blocks, but a
        transaction list or field mutated between build and append is
        still rejected, which matters when the appender received the
        block from another (possibly byzantine) node.  In-place mutation
        of an unsealed payload *mapping* is the one case only
        ``deep=True`` sees.
        """
        if use_cached_tree and not deep:
            if len(self._tree) != len(self.transactions):
                raise InvalidBlock(
                    f"block {self.height}: transaction list changed "
                    "since construction"
                )
            for i, tx in enumerate(self.transactions):
                if self._tree.leaf(i) != leaf_hash(tx.tx_hash):
                    raise InvalidBlock(
                        f"block {self.height}: transaction {i} changed "
                        "since construction"
                    )
            root = self._tree.root
        else:
            root = self.recompute_merkle_root(deep=deep)
        if root != self.header.merkle_root:
            raise InvalidBlock(
                f"block {self.height}: merkle root mismatch "
                "(transaction body was modified)"
            )
        if self.header.height < 0:
            raise InvalidBlock("negative height")

    def prove_inclusion(self, index: int) -> MerkleProof:
        """Merkle inclusion proof for the transaction at ``index``."""
        return self._tree.prove(index)

    def find_transaction(self, tx_id: str) -> tuple[int, Transaction] | None:
        for i, tx in enumerate(self.transactions):
            if tx.tx_id == tx_id:
                return i, tx
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(height={self.height}, txs={len(self.transactions)}, "
            f"id={self.block_id[:10]}…)"
        )
