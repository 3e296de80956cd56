"""Chaos-harness tests: the crash matrix, leases, fencing, and seeded
fault-plan determinism.  (Quarantine is covered per round engine in
``test_engines.py``.)

The crash matrix is the heart of the robustness story: kill the 2PC
coordinator immediately after *every* persisted WAL step boundary,
reopen the store, and assert that presumed-abort recovery restores the
atomicity invariants (no leaked lock, no half-handoff pair, subjects
usable again).
"""

from __future__ import annotations

import pytest

from repro.chain import Transaction, TxKind
from repro.chaos import (
    ChaosRunner,
    CoordinatorKill,
    FaultPlan,
    NetFault,
    check_invariants,
    proof_digest,
    seeded_plan,
)
from repro.errors import ShardError, SyncError
from repro.net_retry import RetryPolicy, failover
from repro.obs.runtime import telemetry
from repro.persist.segment import CrashPoint
from repro.sharding import (
    ABORTED,
    COMMITTED,
    CrossShardCoordinator,
    ShardedChain,
)


def record_tx(subject: str, i: int = 0) -> Transaction:
    return Transaction(sender="chaos-test", kind=TxKind.DATA,
                       payload={"subject": subject,
                                "key": f"{subject}#{i}", "value": i},
                       timestamp=i)


def cross_pair(sharded: ShardedChain, tag: str = "t") -> tuple[str, str]:
    """Two subjects guaranteed to live on different shards."""
    src = f"{tag}-src/asset"
    src_shard = sharded.router.shard_for_subject(src)
    j = 0
    while True:
        tgt = f"{tag}-tgt-{j}/asset"
        if sharded.router.shard_for_subject(tgt) != src_shard:
            return src, tgt
        j += 1


def durable(tmp_path, **kwargs) -> ShardedChain:
    kwargs.setdefault("n_shards", 4)
    kwargs.setdefault("max_block_txs", 16)
    kwargs.setdefault("anchor_batch_size", 4)
    kwargs.setdefault("checkpoint_every_rounds", 1)
    kwargs.setdefault("executor", "serial")
    return ShardedChain(storage_dir=str(tmp_path / "store"), **kwargs)


def drive(sharded: ShardedChain, transfer, rounds: int = 8) -> None:
    for _ in range(rounds):
        if transfer.state in (COMMITTED, ABORTED):
            return
        sharded.seal_round(timestamp=sharded.rounds_sealed)


class _Deployment:
    """Where a crash-matrix scenario runs: ``open()`` the deployment,
    ``after_crash(sharded)`` the one its successor coordinator sees —
    on disk a reopen of the same directory, in memory the surviving
    process (lock table and mempools included) whose coordinator died.
    Either way the WAL the successor recovers from is ``sharded.meta``."""

    def __init__(self, tmp_path=None) -> None:
        self.tmp_path = tmp_path

    def open(self) -> ShardedChain:
        if self.tmp_path is not None:
            return durable(self.tmp_path)
        return ShardedChain(4, max_block_txs=16, anchor_batch_size=4,
                            checkpoint_every_rounds=1, executor="serial")

    def after_crash(self, sharded: ShardedChain) -> ShardedChain:
        sharded.crash()
        return self.open() if self.tmp_path is not None else sharded


def kill_at_wal_boundary(deployment: _Deployment, kill_after: int) -> None:
    sharded = deployment.open()
    coord = CrossShardCoordinator(sharded)
    src, tgt = cross_pair(sharded)
    coord.crash_after_wal_writes = kill_after
    with pytest.raises(CrashPoint):
        transfer = coord.begin(src, tgt, {"qty": 1}, timestamp=1)
        drive(sharded, transfer)

    reopened = deployment.after_crash(sharded)
    coord2 = CrossShardCoordinator(reopened)
    summary = coord2.last_recovery
    if kill_after <= 6:
        # Lock / committing / commit-leg boundaries: the commit
        # legs were not all on-chain yet — presumed abort.
        assert summary["aborted"] and not summary["finalized"]
    elif kill_after == 7:
        # Crashed after "finalizing": both commit legs are on-chain,
        # recovery replays the idempotent finalize.
        assert summary["finalized"] and not summary["aborted"]
    else:
        # Crashed after the terminal "finalized" write but before
        # the active-list cleanup: recovery just sweeps the entry.
        assert summary["cleaned"]

    xids = set(coord2.transfers) | {
        xid for bucket in ("finalized", "aborted", "cleaned")
        for xid in summary[bucket]
    }
    assert xids, "recovery must have seen the crashed transfer"
    inv = check_invariants(reopened, xids)
    assert inv["ok"], inv["issues"]

    # The subjects must be writable and transferable again.
    retry = coord2.begin(src, tgt, {"qty": 2}, timestamp=2)
    drive(reopened, retry)
    assert retry.state == COMMITTED
    reopened.close()


def kill_at_named_step(deployment: _Deployment, step: str,
                       resolution: str) -> None:
    sharded = deployment.open()
    coord = CrossShardCoordinator(sharded, timeout_rounds=1)
    src, tgt = cross_pair(sharded)
    coord.crash_at_step = step
    if step == "aborting":
        # Starve the prepare phase so the deadline passes and the
        # abort path runs: seal only non-participant shards.
        with pytest.raises(CrashPoint):
            transfer = coord.begin(src, tgt, timestamp=1)
            participants = set(transfer.participants)
            others = [sid for sid in range(len(sharded.shards))
                      if sid not in participants]
            for _ in range(4):
                sharded.seal_round(shard_ids=others,
                                   timestamp=sharded.rounds_sealed)
    else:
        with pytest.raises(CrashPoint):
            transfer = coord.begin(src, tgt, timestamp=1)
            drive(sharded, transfer)

    reopened = deployment.after_crash(sharded)
    coord2 = CrossShardCoordinator(reopened)
    assert coord2.last_recovery[resolution]
    inv = check_invariants(reopened, set(coord2.transfers))
    assert inv["ok"], inv["issues"]
    reopened.close()


NAMED_STEPS = [
    ("begin", "aborted"),
    ("committing", "aborted"),
    ("finalizing", "finalized"),
    ("aborting", "aborted"),
]


class TestCrashMatrix:
    """Kill after every WAL write a 2-shard transfer makes (8 on the
    happy path: begin, 2 lock legs, committing, 2 commit legs,
    finalizing, finalized) and recover."""

    @pytest.mark.parametrize("kill_after", range(1, 9))
    def test_kill_at_every_wal_boundary(self, tmp_path, kill_after):
        kill_at_wal_boundary(_Deployment(tmp_path), kill_after)

    @pytest.mark.parametrize("step,resolution", NAMED_STEPS)
    def test_kill_at_named_step(self, tmp_path, step, resolution):
        kill_at_named_step(_Deployment(tmp_path), step, resolution)

    @pytest.mark.parametrize("kill_after", range(1, 9))
    def test_kill_at_every_wal_boundary_in_memory(self, kill_after):
        kill_at_wal_boundary(_Deployment(), kill_after)

    @pytest.mark.parametrize("step,resolution", NAMED_STEPS)
    def test_kill_at_named_step_in_memory(self, step, resolution):
        kill_at_named_step(_Deployment(), step, resolution)

    def test_recovered_proofs_verify(self, tmp_path):
        """A transfer finalized *by recovery* must yield the same
        verifying federated proofs as a clean commit."""
        sharded = durable(tmp_path)
        coord = CrossShardCoordinator(sharded)
        src, tgt = cross_pair(sharded)
        coord.crash_after_wal_writes = 7     # after "finalizing"
        with pytest.raises(CrashPoint):
            transfer = coord.begin(src, tgt, {"qty": 9}, timestamp=3)
            drive(sharded, transfer)
        sharded.crash()

        reopened = durable(tmp_path)
        coord2 = CrossShardCoordinator(reopened)
        xid = coord2.last_recovery["finalized"][0]
        reopened.flush_anchors()
        reopened.seal_round(timestamp=99)
        digest = proof_digest(reopened, [xid])
        assert digest
        # Byte-stable across a clean close/reopen.
        reopened.close()
        again = durable(tmp_path)
        assert proof_digest(again, [xid]) == digest
        again.close()

    def test_recovery_counters(self, tmp_path):
        sharded = durable(tmp_path)
        coord = CrossShardCoordinator(sharded)
        src, tgt = cross_pair(sharded)
        coord.crash_after_wal_writes = 4
        with pytest.raises(CrashPoint):
            transfer = coord.begin(src, tgt, timestamp=1)
            drive(sharded, transfer)
        sharded.crash()
        reopened = durable(tmp_path)
        coord2 = CrossShardCoordinator(reopened)
        registry = telemetry().registry
        assert registry.counter("xshard_transfers_recovered_total",
                                resolution="aborted").value >= 1
        assert registry.counter(
            "xshard_aborts_total", reason="recovered_presumed_abort"
        ).value >= 1
        assert coord2.recovered >= 1
        reopened.close()


class TestLeasesAndFencing:
    def test_orphaned_lock_lease_expires(self):
        sharded = ShardedChain(4, lock_lease_rounds=2)
        src, tgt = cross_pair(sharded)
        shard_id = sharded.router.shard_for_subject(src)
        assert sharded.locks.acquire([(shard_id, src)], "xid-dead",
                                     now=0, epoch=1)
        # No coordinator is renewing this lease; a normal write to the
        # subject is refused until the lease runs out.
        with pytest.raises(ShardError):
            sharded.submit(record_tx(src))
        # Lease taken at round 0 expires once rounds_sealed passes
        # expires_round: the sweep at the start of round lease+2 drops it.
        for _ in range(4):
            sharded.seal_round(timestamp=sharded.rounds_sealed)
        assert not sharded.locks.blocks(shard_id, src, None)
        assert (telemetry().registry
                .counter("xshard_lock_leases_expired_total").value >= 1)
        sharded.submit(record_tx(src))   # flows again

    def test_active_transfer_lease_is_renewed(self):
        """A *live* coordinator renews its leases every round, so a
        transfer outlives the nominal lease length."""
        sharded = ShardedChain(4, lock_lease_rounds=1)
        coord = CrossShardCoordinator(sharded, timeout_rounds=8)
        src, tgt = cross_pair(sharded)
        transfer = coord.begin(src, tgt, timestamp=1)
        drive(sharded, transfer)
        assert transfer.state == COMMITTED

    def test_fenced_coordinator_cannot_start_transfers(self, tmp_path):
        sharded = durable(tmp_path)
        stale = CrossShardCoordinator(sharded)
        sharded.detach_coordinator(stale)
        fresh = CrossShardCoordinator(sharded)
        assert fresh.epoch == stale.epoch + 1
        src, tgt = cross_pair(sharded)
        # The zombie's protocol legs are stamped with the fenced epoch
        # and refused at submit; its abort legs are refused too, which
        # the outcome audits instead of silently dropping.
        doomed = stale.begin(src, tgt, timestamp=1)
        assert doomed.state == ABORTED
        assert doomed.outcome.extra["reason"] == "submit_failed"
        assert doomed.outcome.extra["abort_legs_lost"] == 2
        assert (telemetry().registry
                .counter("xshard_abort_legs_lost_total").value >= 2)
        # The current-epoch coordinator is unaffected.
        good = fresh.begin(src, tgt, timestamp=2)
        drive(sharded, good)
        assert good.state == COMMITTED
        sharded.close()

    def test_xids_never_collide_across_restarts(self, tmp_path):
        xids: set[str] = set()
        for generation in range(3):
            sharded = durable(tmp_path)
            coord = CrossShardCoordinator(sharded)
            src, tgt = cross_pair(sharded, tag=f"g{generation}")
            transfer = coord.begin(src, tgt, timestamp=generation)
            assert transfer.xid not in xids
            xids.add(transfer.xid)
            drive(sharded, transfer)
            assert transfer.state == COMMITTED
            sharded.close()
        assert len(xids) == 3


class TestNetRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(max_backoff_ticks=50)
        ticks = [policy.backoff_ticks(k) for k in range(5)]
        assert ticks == [0, 8, 16, 32, 50]

    def test_failover_tries_peers_in_order(self):
        calls = []

        def attempt(peer):
            calls.append(peer)
            if peer != "c":
                raise SyncError(f"{peer} down", reason="peer_unresponsive")
            return peer

        assert failover(["a", "b", "c"], attempt) == "c"
        assert calls == ["a", "b", "c"]

    def test_failover_empty_and_exhausted(self):
        with pytest.raises(SyncError) as exc:
            failover([], lambda peer: peer)
        assert exc.value.reason == "no_peers"
        with pytest.raises(SyncError) as exc:
            failover(["a"], lambda peer: (_ for _ in ()).throw(
                SyncError("down", reason="peer_unresponsive")))
        assert exc.value.reason == "peer_unresponsive"


class TestSeededPlans:
    def test_seeded_plan_is_pure(self):
        assert seeded_plan(7) == seeded_plan(7)
        assert seeded_plan(7) != seeded_plan(8)
        plan = seeded_plan(7)
        assert plan.seed == 7
        assert all(0.0 <= f.drop < 1.0 for f in plan.net_faults)

    def test_chaos_run_is_deterministic_per_seed(self, tmp_path):
        plan = FaultPlan(
            seed=101,
            net_faults=(NetFault("shard_tx", drop=0.15, duplicate=0.1,
                                 reorder=0.2, reorder_delay=30),
                        NetFault("ops/metrics", drop=0.2)),
            kills=(CoordinatorKill(4), CoordinatorKill(7)),
            transfers=3,
        )
        first = ChaosRunner(plan, str(tmp_path / "a")).run()
        second = ChaosRunner(plan, str(tmp_path / "b")).run()
        assert first.invariants_ok, first.invariants
        assert second.invariants_ok
        assert first.signature() == second.signature()
        assert first.crashes == 2
        assert first.proof_digest == first.reopen_digest

    def test_chaos_run_invariants_hold_without_kills(self, tmp_path):
        plan = FaultPlan(
            seed=5,
            net_faults=(NetFault("shard_tx", drop=0.3, duplicate=0.25,
                                 reorder=0.4, reorder_delay=40),),
            kills=(),
            transfers=2,
        )
        report = ChaosRunner(plan, str(tmp_path)).run()
        assert report.invariants_ok, report.invariants
        assert report.crashes == 0
        assert report.committed == 2
