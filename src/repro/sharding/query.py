"""Federated provenance queries over a sharded chain.

Scatter-gathers the per-shard :class:`ProvenanceQueryEngine`\\ s and
merges the results into one answer.  Verified queries compound three
layers of evidence per record:

1. the record's anchored Merkle proof on its home shard (the existing
   :class:`~repro.provenance.anchor.AnchoredProof` machinery),
2. a beacon proof that the shard block holding the anchor transaction is
   committed under a beacon header
   (:class:`~repro.sharding.beacon.ShardBlockProof`),
3. for offline verifiers, :meth:`federated_proof` packages both hops
   into a :class:`FederatedProof` checkable against a **single beacon
   block header** — the verifier needs no shard state at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..chain import BlockHeader
from ..chain.lightclient import LightAnchorBundle
from ..crypto.merkle import leaf_hash, verify_proof
from ..errors import QueryError, ShardError
from ..provenance.anchor import AnchoredProof
from ..provenance.records import record_digest
from .beacon import BeaconChain, BeaconLightBundle
from .shardchain import Shard, ShardedChain


@dataclass(frozen=True)
class ShardedVerifiedAnswer:
    """A federated query result with per-record, per-shard evidence.

    Parallel tuples: ``records[i]`` came from shard ``shard_ids[i]``,
    carries anchored proof ``proofs[i]``, and its anchor block is
    beacon-committed iff ``beacon_verified[i]``.  ``verified`` is True
    only when every record passed *both* layers.
    """

    records: tuple[dict, ...]
    proofs: tuple[AnchoredProof | None, ...]
    shard_ids: tuple[int, ...]
    beacon_verified: tuple[bool, ...]
    verified: bool
    unanchored: tuple[str, ...] = ()


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
    anchor_bundle: LightAnchorBundle
    shard_header: BlockHeader
    beacon_bundle: BeaconLightBundle

    def verify(self, record: dict, beacon_header: BlockHeader) -> bool:
        """Check ``record`` against a beacon header and nothing else."""
        bundle = self.anchor_bundle
        # Hop 1: record digest under the anchor batch root.
        if bundle.record_proof.root_from(
            leaf_hash(record_digest(record))
        ) != bundle.batch_root:
            return False
        # Hop 2: the anchor transaction commits that batch root and sits
        # in the shard header we were given.
        if bundle.anchor_tx.payload.get("merkle_root") != bundle.batch_root:
            return False
        if self.shard_header.height != bundle.block_height:
            return False
        if not verify_proof(self.shard_header.merkle_root,
                            bundle.anchor_tx.tx_hash, bundle.tx_proof):
            return False
        # Hop 3: that shard header is beacon-committed.
        shard_proof = self.beacon_bundle.shard_proof
        if shard_proof.shard_id != self.shard_id:
            return False
        if shard_proof.height != self.shard_header.height:
            return False
        if shard_proof.block_hash != self.shard_header.block_hash:
            return False
        return self.beacon_bundle.verify(beacon_header)

    @property
    def beacon_height(self) -> int:
        """Which beacon header to fetch for :meth:`verify`."""
        return self.beacon_bundle.shard_proof.beacon_height


def package_federated_proof(shard: Shard, beacon: BeaconChain,
                            record_id: str) -> FederatedProof:
    """Package one record's evidence chain from the shard that anchored
    it and a beacon full node — for the source facade and a replica
    alike (verification then needs beacon headers only)."""
    if not shard.anchor.is_anchored(record_id):
        raise QueryError(
            f"record {record_id!r} is not anchored on shard "
            f"{shard.shard_id}"
        )
    anchor_bundle = shard.anchor.prove_for_light_client(record_id)
    shard_header = shard.chain.block_at(anchor_bundle.block_height).header
    return FederatedProof(
        shard_id=shard.shard_id,
        record_id=record_id,
        anchor_bundle=anchor_bundle,
        shard_header=shard_header,
        beacon_bundle=beacon.light_bundle(
            shard.shard_id, shard_header.height, shard_header.block_hash
        ),
    )


class ShardedQueryEngine:
    """Scatter-gather queries across every shard's query engine."""

    def __init__(self, sharded: ShardedChain) -> None:
        self.sharded = sharded
        self.queries = 0
        self.shards_hit = 0

    # ------------------------------------------------------------------
    # Unverified federation
    # ------------------------------------------------------------------
    def _gather(
        self, run: Callable[[Shard], list[dict]]
    ) -> list[tuple[int, dict]]:
        """Run a per-shard query everywhere and merge chronologically.

        Handoffs put records about related subjects on *different*
        shards, so federated queries always fan out; single-shard
        fast paths belong to the per-shard engines.
        """
        self.queries += 1
        merged: list[tuple[int, dict]] = []
        for shard in self.sharded.shards:
            rows = run(shard)
            if rows:
                self.shards_hit += 1
                merged.extend((shard.shard_id, row) for row in rows)
        merged.sort(key=lambda pair: (pair[1].get("timestamp", 0),
                                      str(pair[1].get("record_id", ""))))
        return merged

    def history(self, subject: str) -> list[dict]:
        """All records about ``subject`` across every shard, oldest
        first."""
        return [row for _, row in
                self._gather(lambda s: s.query.history(subject))]

    def by_actor(self, actor: str) -> list[dict]:
        return [row for _, row in
                self._gather(lambda s: s.query.by_actor(actor))]

    def time_range(self, start: int, end: int) -> list[dict]:
        return [row for _, row in
                self._gather(lambda s: s.query.time_range(start, end))]

    def trace(self, *subjects: str) -> list[dict]:
        """Union of the subjects' histories (a cross-shard handoff chain:
        pass every identity the object had along the way)."""
        if not subjects:
            raise QueryError("trace needs at least one subject")
        wanted = set(subjects)
        return [row for _, row in self._gather(
            lambda s: [r for subject in wanted
                       for r in s.query.history(subject)]
        )]

    # ------------------------------------------------------------------
    # Verified federation
    # ------------------------------------------------------------------
    def history_verified(self, subject: str) -> ShardedVerifiedAnswer:
        return self._verified(lambda s: s.query.history(subject))

    def trace_verified(self, *subjects: str) -> ShardedVerifiedAnswer:
        if not subjects:
            raise QueryError("trace needs at least one subject")
        wanted = set(subjects)
        return self._verified(
            lambda s: [r for subject in wanted
                       for r in s.query.history(subject)]
        )

    def _verified(
        self, run: Callable[[Shard], list[dict]]
    ) -> ShardedVerifiedAnswer:
        rows = self._gather(run)
        records: list[dict] = []
        proofs: list[AnchoredProof | None] = []
        shard_ids: list[int] = []
        beacon_ok: list[bool] = []
        unanchored: list[str] = []
        all_good = bool(rows)
        for shard_id, record in rows:
            shard = self.sharded.shard(shard_id)
            record_id = str(record.get("record_id"))
            records.append(record)
            shard_ids.append(shard_id)
            if not shard.anchor.is_anchored(record_id):
                proofs.append(None)
                beacon_ok.append(False)
                unanchored.append(record_id)
                all_good = False
                continue
            proof = shard.anchor.prove(record_id)
            proofs.append(proof)
            if not shard.anchor.verify(record, proof):
                all_good = False
            beacon_ok.append(self._beacon_check(shard, proof))
            if not beacon_ok[-1]:
                all_good = False
        return ShardedVerifiedAnswer(
            records=tuple(records),
            proofs=tuple(proofs),
            shard_ids=tuple(shard_ids),
            beacon_verified=tuple(beacon_ok),
            verified=all_good,
            unanchored=tuple(unanchored),
        )

    def _beacon_check(self, shard: Shard, proof: AnchoredProof) -> bool:
        """Is the shard block holding this anchor beacon-committed?"""
        beacon = self.sharded.beacon
        height = proof.block_height
        try:
            block_hash = shard.chain.block_at(height).block_hash
            shard_proof = beacon.prove_shard_block(
                shard.shard_id, height, block_hash
            )
        except ShardError:
            return False
        return beacon.verify_shard_block(shard_proof)

    # ------------------------------------------------------------------
    # Offline proof packaging
    # ------------------------------------------------------------------
    def federated_proof(self, record_id: str,
                        subject: str | None = None) -> FederatedProof:
        """Package one record's full evidence chain for a verifier that
        holds only beacon headers (e.g. a
        :class:`~repro.chain.lightclient.LightClient` synced to the
        beacon).

        Record ids are unique per shard, not globally; pass the record's
        ``subject`` to resolve it on its home shard when tenants on
        different shards may reuse ids.
        """
        if subject is not None:
            shard = self.sharded.shard_for_subject(subject)
        else:
            for shard in self.sharded.shards:
                if shard.anchor.is_anchored(record_id):
                    break
            else:
                raise QueryError(f"record {record_id!r} is not anchored "
                                 "on any shard")
        return package_federated_proof(shard, self.sharded.beacon,
                                       record_id)
