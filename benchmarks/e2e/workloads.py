"""The four workloads.

Every workload is: set up (``SETUP_REPEATS`` times, see
``harness.SetupTimer``) -> main phase (what ``--seconds`` sizes) -> checks
on the live deployment; then, for ``audit_restart``, crash/reopen cycles
and replica catch-up.  Every time but ``setup_s`` is the wall time as
measured.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import time
from dataclasses import dataclass

import epilogue
import probes
from deployment import (
    FRAME_EVENTS,
    Deployment,
    Handoff,
    Inputs,
    NodeLoop,
    TimingProxy,
    generate_inputs,
)
from harness import (
    SetupTimer,
    Spans,
    Tally,
    cpu_seconds,
    dir_bytes,
    histogram_quantile,
    median,
    percentile,
)
from repro.crypto import signatures
from repro.errors import GatewayError
from repro.gateway import AsyncGatewayClient, GatewayServer
from repro.obs.runtime import reset_default_telemetry, telemetry
from repro.workloads import ZipfSampler

CONNECTIONS = 2
IN_FLIGHT_EVENTS = 4096
DRAIN_TIMEOUT_S = 60.0
GENERATOR_LATE_LIMIT_MS = 20.0
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Plan:
    """Why each workload exists is in ``BENCHMARK.json``."""

    events_per_s: int                 # main-phase events per --seconds
    rate: float | None = None         # offered ops/s; None = closed loop
    cross_shard_ratio: float = 0.0
    audit: bool = False               # populate in set-up, then audit,
    #                                   crash cycles and replica catch-up


PLANS = {
    "capture_saturated": Plan(events_per_s=4000),
    "capture_paced": Plan(events_per_s=1000, rate=1000.0),
    "handoff_mix": Plan(events_per_s=285, rate=300.0,
                        cross_shard_ratio=0.05),
    "audit_restart": Plan(events_per_s=600, audit=True),
}


# ----------------------------------------------------------------------
# Set-up and tear-down
# ----------------------------------------------------------------------
def _generate(plan: Plan, seed: int,
              seconds: float) -> tuple[Inputs, Inputs]:
    """The main phase's events (and handoffs), and the events the crash
    cycles commit afterwards."""
    n_main = max(FRAME_EVENTS, int(plan.events_per_s * seconds))
    n_main -= n_main % FRAME_EVENTS
    n_tail = epilogue.CRASH_CYCLES * epilogue.CYCLE_FRAMES * FRAME_EVENTS \
        if plan.audit else 0
    main = generate_inputs(seed, n_main, plan.cross_shard_ratio)
    tail = generate_inputs(seed + 1, n_tail, first_position=10 * n_main)
    return main, tail


def _open_deployment(work_dir: str, rep: int) -> Deployment:
    reset_default_telemetry()
    return Deployment(os.path.join(work_dir, f"store-{rep}"))


def _discard(deployment: Deployment) -> None:
    deployment.sharded.close()
    shutil.rmtree(deployment.store_dir)


def _park_driver_heap() -> None:
    """The load generator shares the node's process, and its inputs are
    not the node's garbage.  Left in the collector's reach they are walked
    by every full collection the node triggers, which stalls the open-loop
    generator (lateness p99 20-85 ms against 7-13 ms parked, so most paced
    runs would be invalid) and bills the driver's heap to the program."""
    gc.collect()
    gc.freeze()


def _populate(deployment: Deployment, events: Inputs) -> None:
    """Audit set-up: commit the events in process, synchronously, so every
    count downstream repeats exactly."""
    for start in range(0, len(events), 16 * FRAME_EVENTS):
        deployment.commit_in_process(
            events.slice(start, start + 16 * FRAME_EVENTS))
    deployment.seal_until_drained()


async def _connect(deployment: Deployment, traced: bool):
    proxy = TimingProxy(deployment.pipeline) if traced else None
    server = GatewayServer(proxy or deployment.pipeline, auto_seal=False)
    host, port = await server.start()
    clients = [
        await AsyncGatewayClient.connect(host, port, tenant=f"capture-{i}")
        for i in range(CONNECTIONS)
    ]
    return server, clients, proxy


async def _disconnect(server, clients) -> None:
    for client in clients:
        await client.close()
    await server.drain(drain_pipeline=False)


# ----------------------------------------------------------------------
# Main phase: capture over the gateway (closed or open loop)
# ----------------------------------------------------------------------
async def _capture(plan: Plan, seed: int, seconds: float, spans: Spans,
                   work_dir: str, tally: Tally):
    setups = SetupTimer()
    for rep in range(SETUP_REPEATS):
        if rep:
            await _disconnect(server, clients)
            _discard(deployment)
        with setups.repeat():
            main, tail = _generate(plan, seed, seconds)
            deployment = _open_deployment(work_dir, rep)
            server, clients, proxy = await _connect(deployment,
                                                    spans.enabled)
    _park_driver_heap()

    n_main = len(main)
    frames = [(i, i + FRAME_EVENTS) for i in range(0, n_main, FRAME_EVENTS)]
    rate = plan.rate
    handoffs = [Handoff(due=position / rate, op=op)
                for position, op in main.handoffs]
    loop = asyncio.get_running_loop()
    progress = asyncio.Event()
    node = NodeLoop(
        deployment, main, handoffs, spans, idle_s=server.seal_interval_s,
        on_progress=lambda: loop.call_soon_threadsafe(progress.set),
    )
    frame_due = [0.0] * len(frames)
    late_s: list[float] = []
    ack_s: list[float] = []
    state = {"next": 0, "sent": 0, "expected": n_main, "retries": 0}

    async def sender(client) -> None:
        while state["next"] < len(frames):
            k = state["next"]
            state["next"] += 1
            start, stop = frames[k]
            if rate is None:
                # Closed loop on commit: a bounded number of events the
                # beacon has not covered yet.
                while (state["sent"] - node.committed
                       > IN_FLIGHT_EVENTS - FRAME_EVENTS
                       and node.error is None):
                    progress.clear()
                    await progress.wait()
                due = time.perf_counter()
            else:
                # Open loop: the frame is due when its last event is.
                due = t0 + main.positions[stop - 1] / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                late_s.append(max(0.0, time.perf_counter() - due))
            frame_due[k] = due
            state["sent"] += FRAME_EVENTS
            node.incoming.append(main.records[start:stop])
            t_send = time.perf_counter()
            try:
                result = await client.submit_with_retry(
                    main.txs[start:stop])
            except GatewayError as exc:
                refused = len(getattr(exc, "pending", ())) or FRAME_EVENTS
                state["expected"] -= refused
                tally.add("event_refused", 0, refused)
                continue
            ack_s.append(time.perf_counter() - t_send)
            state["retries"] += result.attempts - 1

    t0, cpu0 = time.perf_counter(), cpu_seconds()
    node.start(t0)
    await asyncio.gather(*(sender(client) for client in clients))
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    while (node.error is None and time.perf_counter() < deadline
           and not (node.committed >= state["expected"] and node.idle)):
        progress.clear()
        try:
            await asyncio.wait_for(progress.wait(), 0.02)
        except asyncio.TimeoutError:
            pass
    node.stop()
    cpu_s = cpu_seconds() - cpu0
    with spans.span("flush_anchors"):
        deployment.sharded.flush_anchors()
    deployment.pipeline.seal_round()
    snapshot = telemetry().registry.snapshot()
    await _disconnect(server, clients)

    committed = [i for i, t in enumerate(node.commit_t) if t]
    tally.add("event", n_main,
              n_main - len(committed) + node.double_commits)
    tally.add("handoff", len(handoffs),
              sum(h.state == "pending" for h in handoffs))
    for handoff in (h for h in handoffs if h.state == "committed"):
        transfer = handoff.transfer
        tally.check("handoff_records", all(
            deployment.sharded.shard(sid).database.contains(
                f"{transfer.xid}:{side}")
            for sid, side in ((transfer.source_shard, "out"),
                              (transfer.target_shard, "in"))))

    latencies = [node.commit_t[i] - frame_due[i // FRAME_EVENTS]
                 for i in committed]
    layer = _capture_layers(node, proxy, spans, snapshot, handoffs,
                            latencies, ack_s, late_s, state["retries"])
    if handoffs:
        settle_s = [h.settled - (t0 + h.due) for h in handoffs
                    if h.state == "committed"]
        layer["handoff_settle_p50_ms"] = median(settle_s) * 1e3
        layer["handoff_settle_p90_ms"] = percentile(settle_s, 0.9) * 1e3
        layer["handoff.commit_p90_ms"] = layer["commit_p90_ms"]
    # Committed events over wall, drain included: first frame due -> last
    # commit stamped.
    layer["events_per_s"] = len(committed) / (max(node.commit_t) - t0)
    layer["cpu_ms_per_event"] = cpu_s / len(committed) * 1e3
    layer.update(setups.metrics())
    return deployment, main, tail, layer


def _capture_layers(node, proxy, spans, snapshot, handoffs, latencies,
                    ack_s, late_s, retries) -> dict:
    """Per-layer numbers of a capture main phase, from the driver's spans
    (a), the timing proxy (b) and what the program publishes (c)."""
    histograms, counters = snapshot["histograms"], snapshot["counters"]

    def busy(name: str) -> float:
        return histograms[name]["sum"] if name in histograms else 0.0

    reports = node.reports
    round_s = spans.durations("seal_round")
    shard_busy = sum(s.duration_s for r in reports
                     for s in r.per_shard.values())
    slowest = sum(max((s.duration_s for s in r.per_shard.values()),
                      default=0.0) for r in reports)
    done = [h for h in handoffs if h.state == "committed"]
    aborted = sum(h.state == "aborted" for h in handoffs)
    sig_caches = signatures.cache_stats().values()
    sig_hits = sum(c["hits"] for c in sig_caches)
    sig_probes = sig_hits + sum(c["misses"] for c in sig_caches)
    return {
        "gateway.ack_p50_ms": median(ack_s) * 1e3,
        "gateway.ack_p99_ms": percentile(ack_s, 0.99) * 1e3,
        "gateway.server_submit_busy_s": busy("gateway_submit_seconds"),
        "gateway.retry_after_frames": retries,
        "gateway.generator_late_p99_ms": percentile(late_s, 0.99) * 1e3,
        "ingest.submit_many_busy_s":
            proxy.submit_many_busy_s if proxy else 0.0,
        "ingest.admission_busy_s": busy("ingest_admission_seconds"),
        "ingest.verify_busy_s": busy("ingest_verify_seconds"),
        "ingest.queue_depth_max": max(
            node.queue_depth_max, proxy.queue_depth_max if proxy else 0),
        "ingest.events_per_round_p50":
            median([r.txs_sealed for r in reports]),
        "ingest.deferred_total": node.deployment.pipeline.stats.deferred,
        "ingest.records_waiting_on_lock_max": node.waiting_max,
        "crypto.verify_cache_hit_ratio":
            sig_hits / sig_probes if sig_probes else 0.0,
        "sharding.round_p50_ms": median(round_s) * 1e3,
        "sharding.round_p99_ms": percentile(round_s, 0.99) * 1e3,
        "sharding.rounds": len(reports),
        "sharding.seal_shard_busy_s": shard_busy,
        "sharding.slowest_shard_share":
            slowest / shard_busy if shard_busy else 0.0,
        "sharding.beacon_commit_busy_s":
            sum(r.beacon_duration_s for r in reports),
        "sharding.twophase.rounds_to_settle_p50": median(
            [h.transfer.outcome.latency_ticks for h in done]),
        "sharding.twophase.aborted_ratio":
            aborted / len(handoffs) if handoffs else 0.0,
        "sharding.twophase.begin_ms_p50":
            median(spans.durations("twophase.begin")) * 1e3,
        "sharding.locks_active_max": node.locks_max,
        "chain.txs_per_block_p50": median(node.txs_per_block),
        "chain.blocks_sealed": len(node.txs_per_block),
        "persist.fsyncs_per_1k_events":
            1e3 * counters.get("persist_fsyncs_total", 0) / node.committed
            if node.committed else 0.0,
        "persist.fsync_busy_s": busy("persist_fsync_seconds"),
        "persist.fsync_p50_ms": histogram_quantile(
            histograms.get("persist_fsync_seconds"), 0.5) * 1e3,
        "storage.provdb.insert_us_per_record":
            1e6 * spans.busy_s("ingest_records") / node.records_ingested
            if node.records_ingested else 0.0,
        "provenance.anchor.flush_ms": spans.busy_s("flush_anchors") * 1e3,
        "provenance.anchor.pending_max": node.anchor_pending_max,
        "commit_p50_ms": median(latencies) * 1e3,
        "commit_p90_ms": percentile(latencies, 0.9) * 1e3,
        "capture.commit_p99_ms": percentile(latencies, 0.99) * 1e3,
        "capture.commit_max_ms": max(latencies, default=0.0) * 1e3,
        "trace.node_loop_coverage": spans.coverage("node_loop"),
    }


# ----------------------------------------------------------------------
# Main phase: the auditor (closed loop, one thread, no gateway)
# ----------------------------------------------------------------------
def _audit(plan: Plan, seed: int, seconds: float, work_dir: str,
           tally: Tally):
    setups = SetupTimer()
    for rep in range(SETUP_REPEATS):
        if rep:
            _discard(deployment)
        with setups.repeat():
            main, tail = _generate(plan, seed, seconds)
            deployment = _open_deployment(work_dir, rep)
            _populate(deployment, main)
    _park_driver_heap()

    records = main.records
    # Zipf rank 0 is the subject with the longest history: what is written
    # most is read most, and the hot set's size does not hang on the seed.
    history_len: dict[str, int] = {}
    for record in records:
        history_len[record["subject"]] = \
            history_len.get(record["subject"], 0) + 1
    subjects = sorted(history_len, key=lambda s: (-history_len[s], s))
    actors = sorted({r["actor"] for r in records})
    rng = random.Random(seed)
    hot_subjects = ZipfSampler(len(subjects), s=1.1, seed=seed)
    query, beacon = deployment.query, deployment.sharded.beacon
    history_s, prove_s, verify_s, scan_s = [], [], [], []
    answers = unverified = rows_returned = 0

    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline:
        draw = rng.random()
        t_op = time.perf_counter()
        if draw < 0.70:
            answer = query.history_verified(
                subjects[hot_subjects.sample()])
            history_s.append(time.perf_counter() - t_op)
            ok = answer.verified
            rows_returned += len(answer.records)
        elif draw < 0.95:
            record = records[rng.randrange(len(records))]
            proof = query.federated_proof(record["record_id"],
                                          subject=record["subject"])
            t_proved = time.perf_counter()
            header = beacon.chain.block_at(proof.beacon_height).header
            ok = proof.verify(record, header)
            prove_s.append(t_proved - t_op)
            verify_s.append(time.perf_counter() - t_proved)
            rows_returned += 1
        else:
            if rng.random() < 0.5:
                rows = query.by_actor(actors[rng.randrange(len(actors))])
            else:
                start = rng.randrange(len(records))
                rows = query.time_range(start, start + 200)
            scan_s.append(time.perf_counter() - t_op)
            ok = bool(rows)
            rows_returned += len(rows)
        answers += 1
        unverified += not ok
    wall_s = time.perf_counter() - t0
    tally.add("answer", answers, unverified)
    layer = {
        "verified_answers_per_s": answers / wall_s,
        "history_p50_ms": median(history_s) * 1e3,
        "history_p90_ms": percentile(history_s, 0.9) * 1e3,
        "sharding.query.history_busy_s": sum(history_s),
        "sharding.query.federated_proof_us": median(prove_s) * 1e6,
        "sharding.query.proof_verify_us": median(verify_s) * 1e6,
        "sharding.query.scan_ms_p50": median(scan_s) * 1e3,
        "sharding.query.records_per_answer":
            rows_returned / answers if answers else 0.0,
    }
    layer.update(setups.metrics())
    return deployment, main, tail, layer


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 work_dir: str) -> dict:
    """Run one workload once; ``measured`` holds every metric it produced
    (the caller prints the end-to-end or the per-layer subset; the layer
    numbers are complete in a traced run only)."""
    plan = PLANS[name]
    spans = Spans(traced)
    tally = Tally()
    if plan.audit:
        deployment, main, tail, measured = _audit(
            plan, seed, seconds, work_dir, tally)
    else:
        deployment, main, tail, measured = asyncio.run(_capture(
            plan, seed, seconds, spans, work_dir, tally))
    measured["exec.mode_resolved"] = probes.resolved_mode(deployment.sharded)
    epilogue.check_live(deployment, main, seed, spans, tally, measured)
    # After the explicit checkpoint that ends the checks, before the crash
    # cycles add their one-frame rounds.
    stored = dir_bytes(deployment.store_dir)
    if plan.audit:
        deployment = epilogue.crash_cycles(deployment, main, tail, spans,
                                           tally, measured)
        epilogue.replicate(deployment, seed, work_dir, spans, tally,
                           measured)
    deployment.sharded.close()
    if traced:
        probes.probe_layers(main, work_dir, tally, measured)

    measured["stored_bytes_per_event"] = stored / len(main)
    measured["failed_ops_ratio"] = \
        tally.total_failed / tally.total_attempted
    late_ms = measured.get("gateway.generator_late_p99_ms", 0.0)
    return {
        "correct": tally.total_failed == 0,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "failures": dict(tally.failed),
        "invalid": late_ms > GENERATOR_LATE_LIMIT_MS,
        "measured": measured,
    }
