"""After the main phase: check what it left behind (every workload); crash
and reopen the deployment and bring fresh replicas to the beacon-verified
head (``audit_restart``)."""

from __future__ import annotations

import os
import random
import time

from deployment import (
    CHECKPOINT_EVERY_ROUNDS,
    FRAME_EVENTS,
    Deployment,
    Inputs,
)
from harness import Spans, Tally, median
from repro.errors import ReproError
from repro.network import ChainNode, LatencyModel, SimNet
from repro.sync import SnapshotServer

PROOF_SAMPLES = 200
# One crash cycle seals the longest tail a crash can lose (15 one-frame
# rounds past a checkpoint), then one frame after the reopen.
TAIL_ROUNDS = CHECKPOINT_EVERY_ROUNDS - 1
CYCLE_FRAMES = TAIL_ROUNDS + 1
CRASH_CYCLES = 5


def check_live(deployment: Deployment, events: Inputs, seed: int,
               spans: Spans, tally: Tally, layer: dict) -> None:
    """Correctness of what the main phase left behind, on the live
    deployment: chains verify, sampled records prove offline against
    beacon headers, nothing was quarantined, no 2PC residue."""
    sharded = deployment.sharded
    t0 = time.perf_counter()
    try:
        sharded.verify_all()
        ok = True
    except ReproError:
        ok = False
    layer["chain.verify_all_s"] = time.perf_counter() - t0
    tally.check("verify_all", ok)

    rng = random.Random(seed + 1)
    sample = rng.sample(events.records,
                        min(PROOF_SAMPLES, len(events.records)))
    prove_s, verify_s, bad = [], [], 0
    for record in sample:
        t_op = time.perf_counter()
        try:
            proof = deployment.query.federated_proof(
                record["record_id"], subject=record["subject"])
            t_proved = time.perf_counter()
            header = sharded.beacon.chain.block_at(
                proof.beacon_height).header
            good = proof.verify(record, header)
        except ReproError:
            bad += 1
            continue
        prove_s.append(t_proved - t_op)
        verify_s.append(time.perf_counter() - t_proved)
        bad += not good
    tally.add("proof", len(sample), bad)
    # The auditor's main phase already measured these on far more proofs.
    layer.setdefault("sharding.query.federated_proof_us",
                     median(prove_s) * 1e6)
    layer.setdefault("sharding.query.proof_verify_us",
                     median(verify_s) * 1e6)

    tally.check("ingest_invalid", deployment.pipeline.stats.invalid == 0)
    tally.check("no_active_transfer", not deployment.coordinator.active)
    tally.check("no_held_lock",
                sharded.health_report()["locks_active"] == 0)

    with spans.span("checkpoint"):
        t0 = time.perf_counter()
        sharded.checkpoint()
        layer["persist.checkpoint_ms"] = (time.perf_counter() - t0) * 1e3


def _beacon_committed(deployment: Deployment, records: list[dict]) -> list:
    """Records whose anchor block a beacon header already covers."""
    sharded = deployment.sharded
    covered = {
        int(sid): info["anchored_height"]
        for sid, info in sharded.health_report()["per_shard"].items()
    }
    committed = []
    for record in records:
        shard = sharded.shard_for_subject(record["subject"])
        receipt = shard.anchor.receipt_for(record["record_id"])
        if receipt is not None \
                and receipt.block_height <= covered[shard.shard_id]:
            committed.append(record)
    return committed


def _unverifiable(deployment: Deployment, records) -> int:
    """How many of ``records`` no longer carry beacon-verified evidence."""
    wanted: dict[str, set] = {}
    for record in records:
        wanted.setdefault(record["subject"], set()).add(
            record["record_id"])
    lost = 0
    for subject, ids in wanted.items():
        answer = deployment.query.history_verified(subject)
        good = set()
        for i, record in enumerate(answer.records):
            proof = answer.proofs[i]
            if proof is None or not answer.beacon_verified[i]:
                continue
            if answer.verified or deployment.sharded.shard(
                    answer.shard_ids[i]).anchor.verify(record, proof):
                good.add(record["record_id"])
        lost += len(ids - good)
    return lost


def crash_cycles(deployment: Deployment, main: Inputs, tail: Inputs,
                 spans: Spans, tally: Tally, layer: dict) -> Deployment:
    """``CRASH_CYCLES`` times: ``crash()`` after the longest uncheckpointed
    tail, reopen, first verified answer, first new event committed.  Then
    account for every record a beacon header covered before a crash.
    Returns the reopened deployment (all of ``tail`` committed)."""
    tail_subjects = {r["subject"] for r in tail.records}
    probe_subject = next(r["subject"] for r in main.records
                         if r["subject"] not in tail_subjects)
    known = list(main.records)
    frames = iter(range(0, len(tail), FRAME_EVENTS))

    def commit_next_frame(target: Deployment) -> int:
        start = next(frames)
        events = tail.slice(start, start + FRAME_EVENTS)
        known.extend(events.records)
        return target.commit_in_process(events)

    recovery_s, reopen_s, replayed = [], [], 0
    evidence: dict[str, dict] = {}
    for _ in range(CRASH_CYCLES):
        # Empty rounds up to the next checkpoint, so the tail is the same
        # length whatever the main phase left.
        while deployment.sharded.rounds_sealed % CHECKPOINT_EVERY_ROUNDS:
            deployment.pipeline.seal_round()
        for _ in range(TAIL_ROUNDS):
            commit_next_frame(deployment)
        for record in _beacon_committed(deployment, known):
            evidence[record["record_id"]] = record
        store_dir = deployment.store_dir

        t_crash = time.perf_counter()
        with spans.span("crash"):
            deployment.sharded.crash()
        with spans.span("reopen"):
            deployment = Deployment(store_dir)
        t_open = time.perf_counter()
        with spans.span("first_answer"):
            answer = deployment.query.history_verified(probe_subject)
        with spans.span("first_commit"):
            sealed = commit_next_frame(deployment)
        recovery_s.append(time.perf_counter() - t_crash)
        reopen_s.append(t_open - t_crash)
        replayed += sum(s.chain.blocks_replayed_on_open
                        for s in deployment.sharded.shards)
        tally.check("answer_after_reopen", answer.verified)
        tally.check("commit_after_reopen", sealed >= FRAME_EVENTS)
        tally.check("no_active_transfer",
                    not deployment.coordinator.active)
    layer["recovery_s"] = median(recovery_s)
    layer["persist.reopen_s"] = median(reopen_s)
    layer["persist.blocks_replayed_on_open"] = replayed / CRASH_CYCLES
    # Nothing re-anchors a record, so one pass after the last reopen
    # finds what any of the crashes cost.
    layer["evidence_lost_records"] = _unverifiable(
        deployment, evidence.values())
    return deployment


def replicate(deployment: Deployment, seed: int, work_dir: str,
              spans: Spans, tally: Tally, layer: dict) -> None:
    """Fresh replicas of every shard catch up to the beacon-verified head
    over a simulated network, trusting beacon headers only."""
    sharded = deployment.sharded
    deployment.seal_until_drained()
    net = SimNet(LatencyModel(base=3, jitter=2), seed=seed)
    ChainNode("snapshot-gateway", net).serve_sync(SnapshotServer(sharded))
    per_shard_s, reports = [], []
    t0 = time.perf_counter()
    for shard in sharded.shards:
        t_shard = time.perf_counter()
        with spans.span("catch_up"):
            replica = sharded.spawn_replica(
                shard.shard_id,
                os.path.join(work_dir, f"replica-{shard.shard_id}"),
                net, peers=["snapshot-gateway"])
            reports.append(replica.catch_up())
        per_shard_s.append(time.perf_counter() - t_shard)
        tally.check("replica_at_head", (
            replica.chain.head.block_hash == shard.chain.head.block_hash
            and replica.chain.blocks_replayed_on_open == 0))
        replica.close()
    total_s = time.perf_counter() - t0
    layer["replica_catchup_s"] = total_s
    layer["sync.catchup_s_per_shard_p50"] = median(per_shard_s)
    layer["sync.image_mib_per_s"] = \
        sum(r.bytes_received for r in reports) / total_s / (1 << 20)
    layer["sync.tail_blocks_per_s"] = \
        sum(r.blocks_installed for r in reports) / total_s
    layer["sync.requests"] = sum(r.requests for r in reports)
    layer["sync.retries"] = sum(r.retries for r in reports)
