"""Seeded chaos harness: crash + network fault injection for the 2PC layer.

Design note
-----------

The crash-safety argument in :mod:`repro.sharding.twophase` (durable
transfer WAL, presumed-abort recovery, lock leases, epoch fencing) is
only as good as the fault schedule it has been tested under.  This
package composes the library's existing fault hooks into **seeded,
schedulable fault plans** and runs them end to end:

* coordinator death at persisted WAL step boundaries — the
  ``crash_after_wal_writes`` / ``crash_at_step`` hooks raise
  :class:`~repro.persist.segment.CrashPoint` immediately *after* a WAL
  write commits, the same boundary a real process kill exposes (and the
  same idiom as ``SegmentLog.fail_after_bytes`` and the sync client's
  ``crash_after_chunks``);
* simulated-network faults — :meth:`~repro.network.simnet.SimNet.
  inject_faults` drop / duplicate / reorder on selected topics, sampled
  from the net's seeded RNG, shaking the gateway ingest path and the
  :mod:`repro.net_retry` backoff loop while transfers are in flight.

Fault-plan schema (:class:`~repro.chaos.plan.FaultPlan`)
~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~

``FaultPlan(seed, net_faults, kills, transfers, ...)`` where

* ``seed`` — drives the SimNet RNG, the plan generator, and nothing
  else; two runs of the same plan are bit-for-bit comparable.
* ``net_faults`` — tuple of :class:`~repro.chaos.plan.NetFault`
  ``(topic, drop, duplicate, reorder, reorder_delay)`` applied to the
  simulated fabric for the whole run.
* ``kills`` — tuple of :class:`~repro.chaos.plan.CoordinatorKill`
  ``(after_wal_writes,)`` consumed in order: before each transfer the
  runner arms the next kill relative to the coordinator's current WAL
  write counter; when it fires, the facade fail-stops
  (:meth:`~repro.sharding.shardchain.ShardedChain.crash`), reopens, and
  a fresh coordinator (next epoch) runs
  :meth:`~repro.sharding.twophase.CrossShardCoordinator.recover`.
* ``transfers`` / ``rounds_per_transfer`` / ``n_shards`` — workload
  shape (cross-shard handoffs driven alongside faulty background
  traffic).

:func:`~repro.chaos.plan.seeded_plan` derives a whole plan from one
integer seed.

Invariants checked (:func:`~repro.chaos.runner.check_invariants`)
~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~~

After every run — including after each crash/recovery cycle — the
runner asserts, over every transfer the harness ever started:

1. **no permanently locked subject** — the facade lock table is empty
   once all transfers settle (leases + recovery sweeps freed every
   crash-orphaned lock);
2. **no half-handoff record pair** — for each xid, the ``{xid}:out`` /
   ``{xid}:in`` records either both exist (committed) or neither does
   (aborted); one without the other is the atomicity violation the
   paper's provenance guarantees forbid;
3. **proofs survive recovery byte-identically** — every materialized
   handoff record yields a verifying :class:`~repro.verify.
   FederatedProof`, and the digest over all of them is identical when
   the store is closed and reopened cleanly;
4. **determinism** — the report signature (commits, aborts, crashes,
   recovery resolutions, proof digest) is identical across repeated
   runs of the same seed (asserted by ``python -m repro.chaos`` and the
   ``make check`` smoke).
"""

from .plan import CoordinatorKill, FaultPlan, NetFault, seeded_plan
from .runner import ChaosReport, ChaosRunner, check_invariants, proof_digest

__all__ = [
    "CoordinatorKill",
    "FaultPlan",
    "NetFault",
    "seeded_plan",
    "ChaosReport",
    "ChaosRunner",
    "check_invariants",
    "proof_digest",
]
