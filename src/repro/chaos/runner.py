"""The chaos runner: drive a fault plan end to end and audit the wreck.

One :class:`ChaosRunner` owns a durable :class:`~repro.sharding.
shardchain.ShardedChain`, a :class:`~repro.network.simnet.SimNet` seeded
from the plan (with the plan's topic faults injected), a gateway node
fronting the facade, and a client node that pushes background traffic
and polls ``ops`` through the lossy fabric.  It then starts the
plan's cross-shard transfers, arming the next coordinator kill before
each one; when a kill fires the facade fail-stops
(:meth:`~repro.sharding.shardchain.ShardedChain.crash`), reopens from
disk, and a fresh coordinator recovers under a new epoch.

The run ends with :func:`check_invariants` (no leaked lock, no
half-handoff pair) and :func:`proof_digest` (every materialized handoff
record must carry a verifying :class:`~repro.sharding.query.
FederatedProof`); the digest is recomputed after a clean close/reopen
and must not move.  Everything a determinism check needs is collapsed
into :meth:`ChaosReport.signature`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from ..chain import Transaction, TxKind
from ..errors import GatewayError, ShardError
from ..network.node import ChainNode
from ..network.simnet import SimNet
from ..persist.segment import CrashPoint
from ..rpc import OP_OPS
from ..serialization import canonical_encode
from ..sharding.query import ShardedQueryEngine
from ..sharding.router import ShardRouter
from ..sharding.shardchain import ShardedChain
from ..sharding.twophase import ABORTED, COMMITTED, CrossShardCoordinator
from .plan import FaultPlan


@dataclass
class ChaosReport:
    """What one chaos run did and whether the invariants held."""

    seed: int
    transfers_started: int = 0
    committed: int = 0
    aborted: int = 0
    crashes: int = 0
    recovered_finalized: int = 0
    recovered_aborted: int = 0
    recovered_cleaned: int = 0
    locks_dropped: int = 0
    ops_polls: int = 0
    ops_failures: int = 0
    rounds: int = 0
    proof_digest: str = ""
    reopen_digest: str = ""
    invariants: dict = field(default_factory=dict)

    @property
    def invariants_ok(self) -> bool:
        return (bool(self.invariants.get("ok"))
                and self.proof_digest == self.reopen_digest)

    def signature(self) -> tuple:
        """The deterministic fingerprint: identical for identical runs
        of the same seed."""
        return (
            self.seed,
            self.transfers_started,
            self.committed,
            self.aborted,
            self.crashes,
            self.recovered_finalized,
            self.recovered_aborted,
            self.recovered_cleaned,
            self.rounds,
            self.ops_failures,
            self.proof_digest,
        )

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "transfers_started": self.transfers_started,
            "committed": self.committed,
            "aborted": self.aborted,
            "crashes": self.crashes,
            "recovered_finalized": self.recovered_finalized,
            "recovered_aborted": self.recovered_aborted,
            "recovered_cleaned": self.recovered_cleaned,
            "locks_dropped": self.locks_dropped,
            "ops_polls": self.ops_polls,
            "ops_failures": self.ops_failures,
            "rounds": self.rounds,
            "proof_digest": self.proof_digest,
            "reopen_digest": self.reopen_digest,
            "invariants": self.invariants,
        }


def check_invariants(sharded: ShardedChain, xids) -> dict:
    """Audit the settled store against the 2PC atomicity contract.

    * no leaked lock: every lease was released or reclaimed;
    * no half-handoff pair: for every transfer ever started, the
      ``{xid}:out`` / ``{xid}:in`` records exist both-or-neither.
    """
    issues: list[str] = []
    locks = sharded.health_report().get("locks_active", 0)
    if locks:
        issues.append(f"{locks} lock(s) still held after settlement")
    committed: list[str] = []
    aborted: list[str] = []
    for xid in sorted(xids):
        sides = {
            suffix: [shard.shard_id for shard in sharded.shards
                     if shard.database.contains(f"{xid}{suffix}")]
            for suffix in (":out", ":in")
        }
        n_out, n_in = len(sides[":out"]), len(sides[":in"])
        if n_out == n_in == 1:
            committed.append(xid)
        elif n_out == n_in == 0:
            aborted.append(xid)
        else:
            issues.append(
                f"half handoff for {xid}: out on {sides[':out']}, "
                f"in on {sides[':in']}"
            )
    return {
        "ok": not issues,
        "issues": issues,
        "committed": committed,
        "aborted": aborted,
    }


def proof_digest(sharded: ShardedChain, xids) -> str:
    """SHA-256 over every committed handoff record's full federated
    evidence chain (record bytes, batch root, shard header, beacon
    header), in sorted xid order.  Every proof must verify; a record
    that exists but cannot prove itself raises :class:`ShardError`."""
    engine = ShardedQueryEngine(sharded)
    digest = hashlib.sha256()
    for xid in sorted(xids):
        for suffix in (":out", ":in"):
            record_id = f"{xid}{suffix}"
            for shard in sharded.shards:
                if not shard.database.contains(record_id):
                    continue
                record = shard.database.get(record_id)
                proof = engine.federated_proof(
                    record_id, subject=str(record["subject"])
                )
                header = sharded.beacon.chain.block_at(
                    proof.beacon_height
                ).header
                if not proof.verify(record, header):
                    raise ShardError(
                        f"federated proof for {record_id} failed to "
                        "verify after chaos run",
                        reason="proof_invalid", shard_id=shard.shard_id,
                    )
                digest.update(canonical_encode({
                    "record": record,
                    "shard": proof.shard_id,
                    "batch_root": proof.anchor_bundle.batch_root,
                    "shard_block": proof.shard_header.block_hash,
                    "beacon_block": header.block_hash,
                }))
                break
    return digest.hexdigest()


class ChaosRunner:
    """Run one :class:`~repro.chaos.plan.FaultPlan` (see module doc)."""

    def __init__(self, plan: FaultPlan, base_dir: str) -> None:
        self.plan = plan
        self.base_dir = base_dir
        self.storage_dir = os.path.join(base_dir, f"store-{plan.seed}")
        self.xids: set[str] = set()
        self._ts = 0

    # -- construction ---------------------------------------------------
    def _build(self) -> ShardedChain:
        return ShardedChain(
            self.plan.n_shards,
            max_block_txs=32,
            anchor_batch_size=4,
            storage_dir=self.storage_dir,
            checkpoint_every_rounds=1,
            executor="serial",
            lock_lease_rounds=8,
        )

    def _transfer_pairs(self) -> list[tuple[str, str]]:
        """Deterministic cross-shard subject pairs, one per transfer."""
        router = ShardRouter(self.plan.n_shards)
        pairs: list[tuple[str, str]] = []
        for i in range(self.plan.transfers):
            src = f"chaos-src-{i:03d}/asset"
            src_shard = router.shard_for_subject(src)
            j = 0
            while True:
                tgt = f"chaos-tgt-{i:03d}-{j:03d}/asset"
                if router.shard_for_subject(tgt) != src_shard:
                    break
                j += 1
            pairs.append((src, tgt))
        return pairs

    # -- the run --------------------------------------------------------
    def run(self) -> ChaosReport:
        plan = self.plan
        report = ChaosReport(seed=plan.seed)
        net = SimNet(seed=plan.seed)
        for fault in plan.net_faults:
            net.inject_faults(
                fault.topic, drop=fault.drop, duplicate=fault.duplicate,
                reorder=fault.reorder, reorder_delay=fault.reorder_delay,
            )
        pairs = self._transfer_pairs()
        sharded = self._build()
        gateway = ChainNode("chaos-gw", net)
        gateway.serve_shards(sharded)
        client = ChainNode("chaos-client", net)
        coord = CrossShardCoordinator(sharded)
        self._absorb_recovery(coord, report)
        kills = list(plan.kills)
        for i, (src, tgt) in enumerate(pairs):
            # Background traffic through the faulted fabric: some of it
            # is dropped, duplicated, or arrives late — the mempools and
            # round contents still settle deterministically per seed.
            for k in range(plan.background_txs):
                client.send_shard_transaction("chaos-gw", Transaction(
                    sender="chaos-client", kind=TxKind.DATA,
                    payload={"subject": f"chaos-bg-{i:03d}/rec",
                             "key": f"bg-{i}-{k}", "value": k},
                    timestamp=self._next_ts(),
                ))
            net.run()
            if kills and coord.crash_after_wal_writes is None:
                kill = kills.pop(0)
                coord.crash_after_wal_writes = (
                    coord.wal_writes + kill.after_wal_writes
                )
            try:
                transfer = coord.begin(
                    src, tgt, {"index": i, "qty": i + 1},
                    timestamp=self._next_ts(),
                )
                report.transfers_started += 1
                self.xids.add(transfer.xid)
                for _ in range(plan.rounds_per_transfer):
                    if transfer.state in (COMMITTED, ABORTED):
                        break
                    sharded.seal_round(timestamp=self._next_ts())
                    net.run()
            except CrashPoint:
                sharded, coord = self._recover(sharded, gateway, report)
            self._poll_ops(client, report)
        # Drain: give every still-active transfer time to settle (a
        # late-armed kill may still fire here — recover and keep going).
        guard = plan.transfers * plan.rounds_per_transfer + 8
        while coord.active and guard > 0:
            guard -= 1
            try:
                sharded.seal_round(timestamp=self._next_ts())
                net.run()
            except CrashPoint:
                sharded, coord = self._recover(sharded, gateway, report)
        # Anchor every materialized record and beacon-commit the flush,
        # so federated proofs can be packaged for all of them.
        coord.crash_after_wal_writes = None
        sharded.flush_anchors()
        sharded.seal_round(timestamp=self._next_ts())
        net.run()
        report.rounds = sharded.rounds_sealed
        report.invariants = check_invariants(sharded, self.xids)
        if coord.active:
            report.invariants["ok"] = False
            report.invariants["issues"].append(
                f"{len(coord.active)} transfer(s) never settled"
            )
        committed = report.invariants["committed"]
        report.committed = len(committed)
        report.aborted = len(report.invariants["aborted"])
        report.proof_digest = proof_digest(sharded, committed)
        # Proofs must survive a *clean* restart byte-identically too.
        sharded.close()
        reopened = self._build()
        try:
            report.reopen_digest = proof_digest(reopened, committed)
        finally:
            reopened.close()
        return report

    # -- helpers --------------------------------------------------------
    def _next_ts(self) -> int:
        self._ts += 1
        return self._ts

    def _recover(self, crashed: ShardedChain, gateway: ChainNode,
                 report: ChaosReport) -> tuple[ShardedChain,
                                               CrossShardCoordinator]:
        """Fail-stop + reopen + recover under a fresh coordinator."""
        report.crashes += 1
        crashed.crash()
        sharded = self._build()
        gateway.serve_shards(sharded)
        coord = CrossShardCoordinator(sharded)
        self._absorb_recovery(coord, report)
        return sharded, coord

    def _absorb_recovery(self, coord: CrossShardCoordinator,
                         report: ChaosReport) -> None:
        summary = coord.last_recovery or {}
        for key, attr in (("finalized", "recovered_finalized"),
                          ("aborted", "recovered_aborted"),
                          ("cleaned", "recovered_cleaned")):
            xids = summary.get(key, [])
            setattr(report, attr, getattr(report, attr) + len(xids))
            # A transfer killed inside begin() never returned its xid to
            # us; the recovery summary is where we learn it existed.
            self.xids.update(xids)
        report.locks_dropped += int(summary.get("locks_dropped", 0))

    def _poll_ops(self, client: ChainNode, report: ChaosReport) -> None:
        """Exercise the channel's retry/backoff loop through the drops."""
        report.ops_polls += 1
        try:
            client.channel("chaos-gw").call({"op": OP_OPS})
        except GatewayError:
            report.ops_failures += 1
