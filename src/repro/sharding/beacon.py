"""Beacon chain: one root of trust over N independent shard chains.

Each sealing round, the per-shard block hashes produced in that round are
batched into a Merkle tree and the root is committed in a single beacon
transaction — :mod:`repro.chain.anchoring`, the mechanism shards anchor
records with, one level up: shards anchor records, the beacon anchors
shards.  A verifier holding only the *beacon* headers can then check any
shard block with a :class:`~repro.verify.BeaconLightBundle` — shard
block hash → round root → beacon anchor transaction → beacon header —
without trusting any shard full node, or importing this module.
``BeaconChain`` adds what is particular to this level:
:func:`~repro.verify.shard_block_leaf` leaves keyed by ``(shard,
height)``, the round's
entries (a proof needs the state root a leaf committed), the beacon
transaction's payload, and the refusal to anchor a shard block twice.

Durability
----------

Nothing here is checkpointed.  :meth:`BeaconChain.anchor_round` commits
the row ``[tx_id, merkle_root, [(shard, height, block_hash, state_root),
...]]`` as the beacon block's derived row, in that block's own store
transaction; :meth:`BeaconChain.load_proof_state` reloads one round per
row on open (O(rounds)).  Round numbers, the facade's ``rounds_sealed``
and every shard's ``anchored_height`` follow from those rows, so after a
crash they agree with the beacon chain by construction.  A beacon block
is final, so a round, once committed, anchors its shard blocks for good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..chain import Blockchain, ChainParams, Transaction, TxKind
from ..chain.anchoring import BatchAnchors
from ..crypto.merkle import MerkleTree
from ..errors import ShardError
from ..persist.stores import Storage
from ..verify import BeaconLightBundle, ShardBlockProof, shard_block_leaf


def _normalize_entries(
    entries: Sequence[Sequence],
) -> list[tuple[int, int, bytes, bytes]]:
    """``(shard, height, hash, state_root)`` tuples out of a caller's
    entries or a derived row's decoded lists."""
    return [(int(sid), int(h), bh, sr) for sid, h, bh, sr in entries]


def _keys(entries) -> list[tuple[int, int]]:
    """What a round's leaves are located by: ``(shard, height)``."""
    return [(sid, h) for sid, h, _, _ in entries]


@dataclass(frozen=True)
class BeaconReceipt:
    """Where one round's shard-root commitment landed on the beacon."""

    round_no: int
    merkle_root: bytes
    block_height: int           # beacon chain height of the anchor tx
    tx_id: str
    leaf_count: int


class BeaconChain:
    """A :class:`Blockchain` whose payload is shard-root commitments."""

    SENDER = "beacon-sealer"    # inside every anchor tx's bytes

    def __init__(self, storage: Storage,
                 params: ChainParams | None = None) -> None:
        self.storage = storage
        self.chain = Blockchain(params or ChainParams(chain_id="beacon"),
                                store=storage.blocks)
        self._batches = BatchAnchors(self.chain)
        self.receipts: list[BeaconReceipt] = self._batches.receipts
        # Per-round (shard_id, height, block_hash, state_root) entries.
        self._round_entries: list[list[tuple[int, int, bytes, bytes]]] = []

    def load_proof_state(self) -> tuple[int, int]:
        """Reload after a reopen: one round per derived row on the
        chain's store.  Returns ``(rows loaded, 0)``."""
        for height, (tx_id, root, entries) in self._batches.stored_rows():
            entries = _normalize_entries(entries)
            # The leaves are built when a proof first needs the tree.
            self._batches.index(
                BeaconReceipt(len(self.receipts), root, height, tx_id,
                              len(entries)),
                (shard_block_leaf(*entry) for entry in entries),
                _keys(entries))
            self._round_entries.append(entries)
        return len(self.receipts), 0

    def checkpoint(self) -> None:
        """Make the store durable (state rows committed with each
        block)."""
        self.storage.sync()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self.chain.height

    @property
    def rounds_anchored(self) -> int:
        return len(self.receipts)

    def anchored_height(self, shard_id: int) -> int:
        """Highest height of ``shard_id`` any round committed (0: none);
        a scan of the anchored keys, for the facade's reopen."""
        return max((h for sid, h in self._batches if sid == shard_id),
                   default=0)

    def anchored_entry(
        self, shard_id: int, height: int
    ) -> tuple[int, int, bytes, bytes] | None:
        """The committed ``(shard, height, block_hash, state_root)``
        entry for one shard block, or ``None`` when not anchored."""
        loc = self._batches.locate((shard_id, height))
        if loc is None:
            return None
        return self._round_entries[loc[0]][loc[1]]

    # ------------------------------------------------------------------
    # Anchoring
    # ------------------------------------------------------------------
    def anchor_round(
        self,
        entries: Sequence[tuple],
        timestamp: int = 0,
    ) -> BeaconReceipt:
        """Commit one round's shard blocks: ``(shard_id, height, hash,
        state_root)`` tuples (``b""``: no state commitment).

        One beacon transaction per round, regardless of shard count —
        the beacon's load grows with *rounds*, not with traffic.
        """
        if not entries:
            raise ShardError("cannot anchor an empty round")
        entries = _normalize_entries(entries)
        round_no = len(self.receipts)
        keys = _keys(entries)
        in_batch: set[tuple[int, int]] = set()
        for sid, h in keys:
            if (sid, h) in self._batches or (sid, h) in in_batch:
                raise ShardError(
                    f"shard {sid} block {h} is already beacon-anchored"
                )
            in_batch.add((sid, h))
        tree = MerkleTree(shard_block_leaf(*entry) for entry in entries)
        tx = Transaction(
            sender=self.SENDER,
            kind=TxKind.PROVENANCE,
            payload={
                "anchor_id": f"beacon-round-{round_no:06d}",
                "merkle_root": tree.root,
                "round": round_no,
                "leaf_count": len(entries),
                "mode": "shard_roots",
            },
            timestamp=timestamp,
        ).seal()
        block = self.chain.build_block([tx], timestamp=timestamp,
                                       proposer=self.SENDER)
        receipt = self._batches.commit(
            block, [tx.tx_id, tree.root, entries],
            BeaconReceipt(round_no, tree.root, block.height, tx.tx_id,
                          len(entries)),
            tree, keys)
        self._round_entries.append(entries)
        return receipt

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def prove_shard_block(self, shard_id: int, height: int,
                          block_hash: bytes) -> BeaconLightBundle:
        """The bundle proving one shard block (check it with
        :meth:`BeaconLightBundle.verify`); :class:`ShardError` if that
        block, with that hash, is not beacon-anchored."""
        entry = self.anchored_entry(shard_id, height)
        if entry is None:
            raise ShardError(
                f"shard {shard_id} block {height} is not beacon-anchored"
            )
        if entry[2] != block_hash:
            raise ShardError(
                f"shard {shard_id} block {height}: supplied hash does not "
                "match the anchored commitment"
            )
        receipt, merkle_proof = self._batches.prove((shard_id, height))
        anchor_tx, tx_proof = self._batches.light_material(receipt)
        return BeaconLightBundle(
            shard_proof=ShardBlockProof(
                shard_id=shard_id,
                height=height,
                block_hash=block_hash,
                merkle_proof=merkle_proof,
                round_root=receipt.merkle_root,
                round_no=receipt.round_no,
                beacon_height=receipt.block_height,
                beacon_tx_id=receipt.tx_id,
                state_root=entry[3],
            ),
            anchor_tx=anchor_tx,
            tx_proof=tx_proof,
        )
