"""Beacon chain: one root of trust over N independent shard chains.

Each sealing round, the per-shard block hashes produced in that round are
batched into a Merkle tree and the root is committed in a single beacon
transaction — :mod:`repro.chain.anchoring`, the mechanism shards anchor
records with, one level up: shards anchor records, the beacon anchors
shards.  A verifier holding only the *beacon* headers can then check any
shard block with a :class:`BeaconLightBundle` — shard block hash → round
root → beacon anchor transaction → beacon header — without trusting any
shard full node.  ``BeaconChain`` adds what is particular to this level:
:func:`shard_block_leaf` leaves keyed by ``(shard, height)``, the round's
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
crash they agree with the beacon chain by construction; a beacon reorg
forgets the rounds it orphans, whose entries can then be anchored again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..chain import Blockchain, BlockHeader, ChainParams, Transaction, TxKind
from ..chain.anchoring import BatchAnchors, verify_anchored
from ..crypto.merkle import MerkleProof, MerkleTree
from ..errors import ShardError
from ..persist.stores import Storage


def shard_block_leaf(shard_id: int, height: int, block_hash: bytes,
                     state_root: bytes = b"") -> dict:
    """Canonical leaf content committing one shard block to the beacon.

    ``state_root`` commits the shard's post-execution state at this
    block when known (sealing rounds tag the shard's head block with
    it); ``b""`` means "not committed".  Snapshot sync relies on this:
    a state image downloaded from an untrusted peer is accepted only if
    its recomputed root matches the beacon-anchored commitment.

    The key is *omitted* when there is no commitment, so leaves anchored
    before state roots existed keep their exact hash — rounds persisted
    by older deployments still verify after restore.  (The two forms
    cannot be confused: the key set is part of the canonical encoding.)
    """
    leaf = {"shard": shard_id, "height": height, "block_hash": block_hash}
    if state_root:
        leaf["state_root"] = state_root
    return leaf


def _normalize_entries(
    entries: Sequence[tuple],
) -> list[tuple[int, int, bytes, bytes]]:
    """Accept ``(shard, height, hash)`` or ``(..., state_root)`` tuples."""
    out = []
    for entry in entries:
        if len(entry) == 3:
            sid, h, bh = entry
            out.append((int(sid), int(h), bh, b""))
        else:
            sid, h, bh, sr = entry
            out.append((int(sid), int(h), bh, sr))
    return out


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


@dataclass(frozen=True)
class ShardBlockProof:
    """Full-node proof that a shard block is anchored in the beacon."""

    shard_id: int
    height: int                 # shard chain height
    block_hash: bytes
    merkle_proof: MerkleProof   # leaf → round root
    round_root: bytes
    round_no: int
    beacon_height: int
    beacon_tx_id: str
    state_root: bytes = b""     # anchored state commitment (b"" = none)

    @property
    def leaf(self) -> dict:
        return shard_block_leaf(self.shard_id, self.height,
                                self.block_hash, self.state_root)


@dataclass(frozen=True)
class BeaconLightBundle:
    """Header-only verification of one shard block.

    Mirrors :class:`~repro.chain.lightclient.LightAnchorBundle`, one
    level up: the "record" is a shard block hash and the "batch" is a
    sealing round.
    """

    shard_proof: ShardBlockProof
    anchor_tx: Transaction      # beacon tx carrying the round root
    tx_proof: MerkleProof       # anchor tx → beacon header merkle root

    def verify(self, beacon_header: BlockHeader) -> bool:
        """Three-hop check against a beacon block header.

        1. the shard block leaf is under the round root;
        2. the beacon anchor transaction commits exactly that root;
        3. the anchor transaction is in the given beacon header.
        """
        proof = self.shard_proof
        return verify_anchored(proof.leaf, proof.merkle_proof,
                               proof.round_root, self.anchor_tx,
                               self.tx_proof, beacon_header,
                               proof.beacon_height)


class BeaconChain:
    """A :class:`Blockchain` whose payload is shard-root commitments."""

    def __init__(self, storage: Storage, params: ChainParams | None = None,
                 sender: str = "beacon-sealer") -> None:
        self.storage = storage
        self.chain = Blockchain(params or ChainParams(chain_id="beacon"),
                                store=storage.blocks,
                                snapshot_store=storage.state)
        self.sender = sender
        self._batches = BatchAnchors(self.chain)
        self.receipts: list[BeaconReceipt] = self._batches.receipts
        # Per-round (shard_id, height, block_hash, state_root) entries.
        self._round_entries: list[list[tuple[int, int, bytes, bytes]]] = []
        self.chain.subscribe_reorg(self._on_reorg)

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

    def _on_reorg(self, fork_height: int) -> None:
        self._batches.forget_above(fork_height)
        del self._round_entries[len(self.receipts):]

    def checkpoint(self) -> None:
        """Persist the state image and make the store durable."""
        self.chain.save_state_image()
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

    def is_anchored(self, shard_id: int, height: int) -> bool:
        return (shard_id, height) in self._batches

    def anchored_height(self, shard_id: int) -> int:
        """Highest height of ``shard_id`` any round committed (0: none);
        a scan of the anchored keys, for the facade's reopen."""
        return max((h for sid, h in self._batches if sid == shard_id),
                   default=0)

    def receipt_for(self, shard_id: int, height: int) -> BeaconReceipt | None:
        return self._batches.receipt_for((shard_id, height))

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
        """Commit one round's shard blocks: ``(shard_id, height, hash)``
        or ``(shard_id, height, hash, state_root)`` tuples.

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
            sender=self.sender,
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
                                       proposer=self.sender)
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
                          block_hash: bytes) -> ShardBlockProof:
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
        return ShardBlockProof(
            shard_id=shard_id,
            height=height,
            block_hash=block_hash,
            merkle_proof=merkle_proof,
            round_root=receipt.merkle_root,
            round_no=receipt.round_no,
            beacon_height=receipt.block_height,
            beacon_tx_id=receipt.tx_id,
            state_root=entry[3],
        )

    def verify_shard_block(self, proof: ShardBlockProof) -> bool:
        """Full-node verification against the live beacon chain."""
        return self._batches.verify(
            proof.leaf, proof.merkle_proof, proof.round_root,
            proof.beacon_tx_id, proof.beacon_height)

    def light_bundle(self, shard_id: int, height: int,
                     block_hash: bytes) -> BeaconLightBundle:
        """Everything a beacon-header-only verifier needs for one shard
        block (check with :meth:`BeaconLightBundle.verify`)."""
        proof = self.prove_shard_block(shard_id, height, block_hash)
        anchor_tx, tx_proof = self._batches.light_material(
            proof.beacon_tx_id)
        return BeaconLightBundle(
            shard_proof=proof, anchor_tx=anchor_tx, tx_proof=tx_proof
        )
