"""Sharded execution: scale-out over independent provenance chains.

Design note
-----------

One :class:`~repro.chain.blockchain.Blockchain` serializes all traffic;
the SOK's capture-heavy workloads (HPC provenance in SciChain, IoT
streams in Sigwart et al.) outgrow that long before they outgrow the
cryptography.  This package partitions the system by **provenance
namespace** (tenant / organization prefix of a subject id) while keeping
a single verifiable root of trust:

* :class:`ShardRouter` — stable SHA-based namespace → shard placement;
  whole namespaces co-reside so the common queries stay single-shard.
* :class:`Shard` / :class:`ShardedChain` — each shard is a full vertical
  stack (chain + mempool + provenance DB + anchor service + query
  engine) sharing nothing with its siblings; the facade batches ingest
  (``submit_many``), seals every loaded shard per round
  (``seal_round``), and reports per-shard timings so the scaling bench
  can model the real deployment's critical path (slowest shard + beacon
  commit — shards seal concurrently on separate machines).
* :class:`BeaconChain` — per round, the new shard block hashes are
  Merkle-batched and the root lands in ONE beacon transaction
  (:mod:`repro.chain.anchoring`, the batch-anchor mechanism each shard's
  ``AnchorService`` stands on, one level up).  Beacon load grows with
  rounds, not traffic; any shard block verifies against one beacon
  header.
* :class:`CrossShardCoordinator` — two-phase lock/commit for handoffs
  spanning shards, with on-chain lock/commit/abort legs and
  abort-and-unlock on sealing-round timeout.  Handoff provenance records
  materialize only on full commit.  The coordinator WALs every state
  transition through the facade's meta surface and replays it
  presumed-abort on :meth:`~CrossShardCoordinator.recover`; locks carry
  lease rounds and a holder epoch, and participant shards fence legs
  from older coordinator generations.
* :class:`ShardedQueryEngine` — scatter-gather federation of the
  per-shard query engines; verified answers compound the record's
  anchored Merkle proof with a beacon proof of its anchor block, and
  :meth:`~ShardedQueryEngine.federated_proof` packages the whole chain
  of evidence for a verifier holding nothing but beacon headers.

Trust recap: record → batch root → anchor tx → shard header → round
root → beacon anchor tx → beacon header.  Tampering anywhere under a
beacon header breaks one of those six hops — two runs of the same
three-hop check (:func:`repro.chain.anchoring.verify_anchored`), spliced
at the shard header by :class:`FederatedProof`.

Layout: ``shardchain.py`` — the facade is *wiring* (routing,
checkpointing, the ``seal_round`` skeleton with its one failure loop).
``locks.py`` — :class:`LockTable`, the whole lock policy, called
directly as ``sharded.locks``.  ``engines.py`` / :mod:`repro.exec.engine`
— *where* a shard's round runs: the engine chosen at construction
returns, per shard, ``(ShardSealStats, entries, height)`` or the
exception — never a failure decision.
"""

from .beacon import (
    BeaconChain,
    BeaconLightBundle,
    BeaconReceipt,
    ShardBlockProof,
)
from .locks import LockEntry, LockTable
from .query import FederatedProof, ShardedQueryEngine, ShardedVerifiedAnswer
from .router import NAMESPACE_SEP, ShardRouter, namespace_of
from .shardchain import (
    RoundReport,
    Shard,
    ShardedChain,
    ShardSealStats,
    SubmitReport,
)
from .twophase import (
    ABORTED,
    ABORTING,
    COMMITTED,
    COMMITTING,
    FINALIZING,
    PREPARING,
    WAL_STEPS,
    CrossShardCoordinator,
    CrossShardTransfer,
)

__all__ = [
    "BeaconChain",
    "BeaconLightBundle",
    "BeaconReceipt",
    "ShardBlockProof",
    "FederatedProof",
    "ShardedQueryEngine",
    "ShardedVerifiedAnswer",
    "NAMESPACE_SEP",
    "ShardRouter",
    "namespace_of",
    "LockEntry",
    "LockTable",
    "RoundReport",
    "Shard",
    "ShardedChain",
    "ShardSealStats",
    "SubmitReport",
    "ABORTED",
    "ABORTING",
    "COMMITTED",
    "COMMITTING",
    "FINALIZING",
    "PREPARING",
    "WAL_STEPS",
    "CrossShardCoordinator",
    "CrossShardTransfer",
]
