"""The verifier: every proof type and check a party runs on evidence it
did not write.

RQ1 asks "who can query and verify the provenance" (§1).  The answer
here is anyone holding block headers: a full node passes its own, a
light client, replica or remote auditor headers it synced.  This module
is what such a party needs and nothing more — it imports the decode
side of the codec, the block and transaction types, the Merkle
primitives and the record digest, and none of the modules that *write*
evidence (the chain, the anchor service, the beacon, sync, the
gateway).  ``make lint-layers`` and ``tests/test_verify_closure.py``
keep it that way.

* :func:`tx_in_header` — a transaction is in the block a header heads.
* :func:`commits_root` / :func:`verify_anchored` — the §6.1 three-hop
  check (leaf → batch root → anchor transaction → header) every
  anchoring level reduces to.
* :class:`AnchoredProof` — a record on its shard chain;
  :class:`ShardBlockProof` + :class:`BeaconLightBundle` — a shard block
  on the beacon; :class:`FederatedProof` — both, spliced at the shard
  header, checkable against one beacon header.
* :class:`LightClient` — a header-only node: hash-chains headers as
  they arrive and checks the proofs above against them.
* The bundle wire codec (:func:`bundle_to_mapping`,
  :func:`bundle_from_mapping`, :func:`typed`): a beacon bundle off the
  wire is rebuilt fail-closed before it is checked.

Each proof also binds its batch metadata to the anchor transaction that
committed the batch: the leaf proof's ``tree_size`` is the count the
transaction carries, and a beacon bundle's round number and transaction
id are the transaction's own.  A Merkle path is bound to its
``(leaf_index, tree_size)`` by :meth:`MerkleProof.root_from`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from .chain.block import GENESIS_PREV_HASH, BlockHeader
from .chain.transaction import Transaction
from .crypto.merkle import MerkleProof, leaf_hash, verify_proof
from .errors import ChainError, ReproError, SyncError, TamperDetected
from .persist.codec import transaction_embedded, transaction_from_mapping


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------
def tx_in_header(header, tx: Transaction, proof: MerkleProof) -> bool:
    """Is ``tx`` in the block ``header`` heads?  ``proof`` is its path to
    the header's ``merkle_root``, the only field read."""
    return verify_proof(header.merkle_root, tx.tx_hash, proof)


def commits_root(anchor_tx: Transaction, root: bytes,
                 computed_root: bytes | None) -> bool:
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
            and tx_in_header(header, anchor_tx, tx_proof))


# ---------------------------------------------------------------------------
# One proof per anchoring level
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AnchoredProof:
    """Everything needed to check one anchored leaf against the header
    of the block that carries its anchor transaction."""

    record_proof: MerkleProof       # leaf -> batch merkle root
    batch_root: bytes
    anchor_tx: Transaction          # carries the batch root on-chain
    tx_proof: MerkleProof           # anchor tx -> header merkle root
    block_height: int

    def verify(self, leaf: Any, header: BlockHeader) -> bool:
        """:func:`verify_anchored` of ``leaf`` against ``header``, for a
        leaf proof sized as the batch the anchor transaction counted."""
        return (self.record_proof.tree_size
                == self.anchor_tx.payload.get("record_count")
                and verify_anchored(leaf, self.record_proof, self.batch_root,
                                    self.anchor_tx, self.tx_proof, header,
                                    self.block_height))

    @property
    def size_bytes(self) -> int:
        return self.record_proof.size_bytes + len(self.batch_root) + 48


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


@dataclass(frozen=True)
class ShardBlockProof:
    """Which shard block a :class:`BeaconLightBundle` proves, its leaf's
    path to the round root, and where that round landed on the beacon."""

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
    """The one proof that a shard block is beacon-anchored, checked
    against a beacon header: the beacon's own (a full node) or one a
    light client synced.

    Mirrors :class:`AnchoredProof`, one level up: the "record" is a
    shard block hash and the "batch" is a sealing round.
    """

    shard_proof: ShardBlockProof
    anchor_tx: Transaction      # beacon tx carrying the round root
    tx_proof: MerkleProof       # anchor tx → beacon header merkle root

    def verify(self, beacon_header: BlockHeader) -> bool:
        """Three-hop check against a beacon block header.

        1. the shard block leaf is under the round root;
        2. the beacon anchor transaction commits exactly that root — for
           a round of the size, number and transaction id it names;
        3. the anchor transaction is in the given beacon header.
        """
        proof, payload = self.shard_proof, self.anchor_tx.payload
        return (proof.merkle_proof.tree_size == payload.get("leaf_count")
                and proof.round_no == payload.get("round")
                and proof.beacon_tx_id == self.anchor_tx.tx_id
                and verify_anchored(proof.leaf, proof.merkle_proof,
                                    proof.round_root, self.anchor_tx,
                                    self.tx_proof, beacon_header,
                                    proof.beacon_height))


@dataclass(frozen=True)
class FederatedProof:
    """Offline evidence for one record, rooted in one beacon header.

    ``anchor_bundle`` walks record → batch root → anchor tx → shard
    header; ``beacon_bundle`` walks shard block hash → round root →
    beacon anchor tx → beacon header.  ``shard_header`` is the splice
    point, bound on both sides by hash.
    """

    shard_id: int
    record_id: str
    anchor_bundle: AnchoredProof
    shard_header: BlockHeader
    beacon_bundle: BeaconLightBundle

    def verify(self, record: dict, beacon_header: BlockHeader) -> bool:
        """Check ``record`` against a beacon header and nothing else."""
        # The record package imports its anchor service, which builds
        # proofs of this module: read the digest function at call time.
        from .provenance.records import record_digest

        # Hops 1-2: record digest → batch root → anchor transaction →
        # the shard header we were given.
        if not self.anchor_bundle.verify(record_digest(record),
                                         self.shard_header):
            return False
        # Hop 3: that shard header is beacon-committed.
        shard_proof = self.beacon_bundle.shard_proof
        return (shard_proof.shard_id == self.shard_id
                and shard_proof.height == self.shard_header.height
                and shard_proof.block_hash == self.shard_header.block_hash
                and self.beacon_bundle.verify(beacon_header))

    @property
    def beacon_height(self) -> int:
        """Which beacon header to fetch for :meth:`verify`."""
        return self.beacon_bundle.shard_proof.beacon_height


# ---------------------------------------------------------------------------
# A header-only node
# ---------------------------------------------------------------------------
class LightClient:
    """Tracks a chain's headers and verifies proofs against them.

    It syncs only block headers, yet can verify that a transaction was
    committed (:meth:`verify_transaction`) and that a provenance record
    was anchored (:meth:`verify_anchored_record`) without trusting the
    full node that served the proofs.
    """

    def __init__(self, chain_id: str) -> None:
        self.chain_id = chain_id
        self._headers: list[BlockHeader] = []
        # Hash of the current head, computed once per accepted header so
        # linkage checks never re-hash history (headers may be shared
        # with a full node whose own caches we do not rely on).
        self._head_hash: bytes | None = None

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

    def verify_transaction(self, tx: Transaction, proof: MerkleProof,
                           height: int) -> bool:
        """Was ``tx`` committed at ``height``?  Needs only the header."""
        return tx_in_header(self.header_at(height), tx, proof)

    def verify_anchored_record(self, record: dict,
                               proof: AnchoredProof) -> bool:
        """:meth:`AnchoredProof.verify` of the record's digest against
        the header held for the claimed height (:class:`ChainError` if
        none is held)."""
        from .provenance.records import record_digest

        return proof.verify(record_digest(record),
                            self.header_at(proof.block_height))


# ---------------------------------------------------------------------------
# A beacon bundle on the wire
# ---------------------------------------------------------------------------
def typed(value, kind: type):
    """``value`` if it is exactly a ``kind`` (what the strict decoder
    produces), else ``TypeError`` — a coercing ``bytes(n)`` / ``int(s)``
    on a peer-supplied field would allocate or parse on its say-so."""
    if type(value) is not kind:
        raise TypeError(
            f"expected {kind.__name__}, got {type(value).__name__}")
    return value


_SHARD_PROOF_FIELDS = {
    "shard_id": int, "height": int, "block_hash": bytes,
    "round_root": bytes, "round_no": int, "beacon_height": int,
    "beacon_tx_id": str, "state_root": bytes,
}


def bundle_to_mapping(bundle: BeaconLightBundle) -> dict:
    """Canonical-encodable form of a beacon light bundle."""
    return {
        "shard_proof": asdict(bundle.shard_proof),
        "anchor_tx": transaction_embedded(bundle.anchor_tx),
        "tx_proof": asdict(bundle.tx_proof),
    }


def _proof_from_mapping(m: dict) -> MerkleProof:
    return MerkleProof(
        leaf_index=typed(m["leaf_index"], int),
        tree_size=typed(m["tree_size"], int),
        path=tuple((typed(sibling, bytes), typed(is_right, bool))
                   for sibling, is_right in m["path"]),
    )


def bundle_from_mapping(m) -> BeaconLightBundle:
    """Inverse of :func:`bundle_to_mapping` for a mapping off the wire;
    raises :class:`SyncError` (``forged_offer``) on anything that is not
    one.  A bundle that decodes proves nothing until it verifies."""
    try:
        proof = m["shard_proof"]
        return BeaconLightBundle(
            shard_proof=ShardBlockProof(
                merkle_proof=_proof_from_mapping(proof["merkle_proof"]),
                **{name: typed(proof[name], kind)
                   for name, kind in _SHARD_PROOF_FIELDS.items()},
            ),
            anchor_tx=transaction_from_mapping(m["anchor_tx"]),
            tx_proof=_proof_from_mapping(m["tx_proof"]),
        )
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise SyncError(
            f"offer carries a malformed beacon bundle: "
            f"{type(exc).__name__}: {exc}", reason="forged_offer",
        ) from exc
