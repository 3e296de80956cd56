"""Federated provenance queries over a sharded chain.

Scatter-gathers the per-shard :class:`ProvenanceQueryEngine`\\ s and
merges the results into one answer.  Verified queries compound two
proofs per record, one per anchoring level, each the proof an offline
verifier would get and checked the way it would check it — against a
block header, here the node's own:

1. the record's :class:`~repro.verify.AnchoredProof` on its home shard
   (produced and checked by that shard's own query engine, proof memo
   included) against the shard's header,
2. the :class:`~repro.verify.BeaconLightBundle` of the shard block
   holding the anchor transaction against the beacon's header.

For offline verifiers, :meth:`ShardedQueryEngine.federated_proof`
packages the same two proofs into a :class:`~repro.verify.
FederatedProof` checkable against a **single beacon block header** —
the verifier needs no shard state at all, and no module of this
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import QueryError, ShardError
from ..verify import AnchoredProof, FederatedProof
from .beacon import BeaconChain
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
    anchor_bundle = shard.anchor.prove(record_id)
    shard_header = shard.chain.block_at(anchor_bundle.block_height).header
    return FederatedProof(
        shard_id=shard.shard_id,
        record_id=record_id,
        anchor_bundle=anchor_bundle,
        shard_header=shard_header,
        beacon_bundle=beacon.prove_shard_block(
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

    # ------------------------------------------------------------------
    # Verified federation
    # ------------------------------------------------------------------
    def history_verified(self, subject: str) -> ShardedVerifiedAnswer:
        return self._verified(lambda s: s.query.history(subject))

    def trace_verified(self, *subjects: str) -> ShardedVerifiedAnswer:
        """Union of the subjects' histories (a cross-shard handoff chain:
        pass every identity the object had along the way), verified."""
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
        """Is the shard block holding this anchor beacon-committed?  Its
        bundle, checked against the beacon's own header."""
        beacon = self.sharded.beacon
        height = proof.block_height
        try:
            bundle = beacon.prove_shard_block(
                shard.shard_id, height, shard.chain.block_at(height).block_hash
            )
        except ShardError:
            return False
        return bundle.verify(
            beacon.chain.block_at(bundle.shard_proof.beacon_height).header)

    # ------------------------------------------------------------------
    # Offline proof packaging
    # ------------------------------------------------------------------
    def federated_proof(self, record_id: str,
                        subject: str | None = None) -> FederatedProof:
        """Package one record's full evidence chain for a verifier that
        holds only beacon headers (e.g. a
        :class:`~repro.verify.LightClient` synced to the beacon).

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
