"""Federated provenance queries over a sharded chain.

Scatter-gathers the per-shard :class:`ProvenanceQueryEngine`\\ s and
merges the results into one answer.  Verified queries compound three
layers of evidence per record:

1. the record's anchored Merkle proof on its home shard (produced and
   checked by that shard's own query engine, proof memo included),
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

from ..chain import BlockHeader, LightAnchorBundle
from ..chain.anchoring import verify_anchored
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
        # Hops 1-2: record digest → batch root → anchor transaction →
        # the shard header we were given.
        if not verify_anchored(
                record_digest(record), bundle.record_proof,
                bundle.batch_root, bundle.anchor_tx, bundle.tx_proof,
                self.shard_header, bundle.block_height):
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
        proofs: list[AnchoredProof | None] = []
        beacon_ok: list[bool] = []
        unanchored: list[str] = []
        all_good = bool(rows)
        for shard_id, record in rows:
            shard = self.sharded.shard(shard_id)
            answer = shard.query.verify_records([record])
            proof = answer.proofs[0]
            proofs.append(proof)
            beacon_ok.append(proof is not None
                             and self._beacon_check(shard, proof))
            unanchored.extend(answer.unanchored)
            all_good = all_good and answer.verified and beacon_ok[-1]
        return ShardedVerifiedAnswer(
            records=tuple(record for _, record in rows),
            proofs=tuple(proofs),
            shard_ids=tuple(shard_id for shard_id, _ in rows),
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
