#!/usr/bin/env python3
"""Gateway benchmark: O(1000) socket capture clients vs in-process.

Measures what the socket front door (:mod:`repro.gateway`) costs and
guarantees when a large simulated capture fleet streams transactions
over real loopback TCP into one ingest pipeline:

* **fleet vs in-process** — the headline.  The in-process baseline
  drives the identical workload — same batches, same shard layout,
  same wire codec round trip (encode frame → decode frame → submit)
  — straight into ``IngestPipeline.submit_many`` and seals to
  drained; serialization is part of the capture workload either way,
  so the ratio isolates what the *network* costs.  The gateway run
  terminates ~1000 concurrent asyncio clients, each speaking framed
  batched submits, with sealing overlapped off-loop.
  ``throughput_ratio`` (gateway / in-process events committed per
  second) is asserted ``>= 0.5`` in full mode: asyncio scheduling and
  socket hops for a thousand clients may cost at most half the
  in-process rate.
* **submit ack latency** — p50/p99 of a client's submit→report round
  trip under full fleet contention.  At saturation the fair-share ack
  time is ``outstanding txs / gateway throughput`` (every batch waits
  its turn behind one frame from each peer), so the bound is a
  *fairness* bound: p99 must stay within ``3x`` fair share — a LIFO
  or starvation-prone server fails it even at identical throughput.
* **QueueFull storm** — tiny queues, greedy clients, every submission
  bounced at least once: the never-drop contract.  ``lost`` (sent
  minus committed) is asserted ``== 0`` in full mode; drops are
  backpressured-and-retried, never silent.

Results go to ``BENCH_gateway.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_gateway.py [--smoke]``
(``make bench-gateway`` / smoke in ``make check``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import time

from _harness import finish_bench, parse_bench_args
from repro.chain import Transaction, TxKind
from repro.gateway import AsyncGatewayClient, GatewayServer, encode_frame
from repro.gateway.frames import decode_frame_payload, frame_to_txs, txs_to_frame_body
from repro.ingest import IngestPipeline
from repro.net_retry import RetryPolicy
from repro.obs.runtime import reset_default_telemetry
from repro.sharding import ShardedChain

N_SHARDS = 4
MAX_BLOCK_TXS = 256


def make_txs(client_idx: int, n: int, salt: str = "") -> list[Transaction]:
    return [
        Transaction(
            f"sensor-{client_idx % 97}", TxKind.DATA,
            {"subject": f"t{(client_idx + i) % 41}/obj{salt}",
             "key": f"c{client_idx}k{i}", "value": i},
            timestamp=i, fee=client_idx * n + i,
        ).seal()
        for i in range(n)
    ]


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    return ordered[int(p * (len(ordered) - 1))]


def bench_in_process(n_clients: int, per_client: int,
                     batch: int) -> dict:
    reset_default_telemetry()
    sharded = ShardedChain(n_shards=N_SHARDS, max_block_txs=MAX_BLOCK_TXS)
    pipe = IngestPipeline(sharded, queue_capacity=256 * 1024,
                          max_blocks_per_round=32)
    payloads = [make_txs(c, per_client) for c in range(n_clients)]
    gc.collect()
    # Same wire codec round trip the gateway path pays: the capture
    # workload arrives serialized either way.
    t0 = time.perf_counter()
    for txs in payloads:
        for i in range(0, len(txs), batch):
            frame = encode_frame(txs_to_frame_body(txs[i:i + batch], 1))
            pipe.submit_many(frame_to_txs(decode_frame_payload(frame[4:])))
    pipe.run_until_drained()
    total_s = time.perf_counter() - t0
    committed = sharded.total_txs_committed
    assert committed == n_clients * per_client
    return {
        "total_s": round(total_s, 4),
        "events_per_s": round(committed / total_s),
        "txs_committed": committed,
    }


def bench_gateway_fleet(n_clients: int, per_client: int,
                        batch: int) -> dict:
    telemetry = reset_default_telemetry()
    sharded = ShardedChain(n_shards=N_SHARDS, max_block_txs=MAX_BLOCK_TXS)
    pipe = IngestPipeline(sharded, queue_capacity=256 * 1024,
                          max_blocks_per_round=32)
    server = GatewayServer(pipe, auto_seal=True)
    latencies: list[float] = []

    async def scenario() -> float:
        host, port = await server.start()

        async def connect(idx: int) -> AsyncGatewayClient:
            return await AsyncGatewayClient.connect(
                host, port, tenant=f"fleet-{idx % 32}")

        # Connect the fleet in slices to keep accept bursts sane.
        clients: list[AsyncGatewayClient] = []
        for start in range(0, n_clients, 200):
            clients.extend(await asyncio.gather(
                *(connect(i)
                  for i in range(start, min(start + 200, n_clients)))))

        async def capture(idx: int, client: AsyncGatewayClient):
            txs = make_txs(idx, per_client)
            queued = 0
            for i in range(0, len(txs), batch):
                t0 = time.perf_counter()
                result = await client.submit(txs[i:i + batch])
                latencies.append(time.perf_counter() - t0)
                queued += result.queued
            assert queued == per_client, "fleet bench saw backpressure"

        gc.collect()
        t0 = time.perf_counter()
        await asyncio.gather(*(capture(i, c)
                               for i, c in enumerate(clients)))
        for client in clients:
            await client.close()
        await server.drain()
        return time.perf_counter() - t0

    total_s = asyncio.run(scenario())
    committed = sharded.total_txs_committed
    assert committed == n_clients * per_client
    snap = telemetry.registry.snapshot()["counters"]
    return {
        "n_clients": n_clients,
        "total_s": round(total_s, 4),
        "events_per_s": round(committed / total_s),
        "txs_committed": committed,
        "submit_ack_latency": {
            "p50_ms": round(percentile(latencies, 0.50) * 1e3, 2),
            "p99_ms": round(percentile(latencies, 0.99) * 1e3, 2),
            "max_ms": round(max(latencies) * 1e3, 2),
        },
        "connections": snap.get("gateway_connections_total", 0),
        "frames_sent": snap.get("gateway_frames_sent_total", 0),
        "undeliverable": sum(
            v for k, v in snap.items()
            if k.startswith("gateway_frames_undeliverable_total")),
    }


def bench_queuefull_storm(n_clients: int, per_client: int) -> dict:
    """Greedy fleet vs tiny queues: everything bounces, nothing drops."""
    telemetry = reset_default_telemetry()
    sharded = ShardedChain(n_shards=2, max_block_txs=64)
    pipe = IngestPipeline(sharded, queue_capacity=64)
    server = GatewayServer(pipe, auto_seal=True)
    policy = RetryPolicy(max_retries=200, tick_s=0.001,
                         max_backoff_ticks=64)

    async def scenario() -> tuple[float, list[int]]:
        host, port = await server.start()

        async def flood(idx: int) -> int:
            async with await AsyncGatewayClient.connect(
                    host, port, policy=policy) as client:
                txs = make_txs(idx, per_client, salt="storm")
                result = await client.submit_with_retry(txs)
                assert result.queued == per_client
                return result.attempts

        t0 = time.perf_counter()
        attempts = await asyncio.gather(
            *(flood(i) for i in range(n_clients)))
        await server.drain()
        return time.perf_counter() - t0, list(attempts)

    total_s, attempts = asyncio.run(scenario())
    sent = n_clients * per_client
    committed = sharded.total_txs_committed
    snap = telemetry.registry.snapshot()["counters"]
    return {
        "n_clients": n_clients,
        "sent": sent,
        "committed": committed,
        "lost": sent - committed,
        "total_s": round(total_s, 4),
        "rejected_then_retried": snap.get(
            "gateway_txs_rejected_total", 0),
        "server_pauses": snap.get("gateway_pauses_total", 0),
        "max_client_attempts": max(attempts),
        "mean_client_attempts": round(
            sum(attempts) / len(attempts), 1),
    }


def main() -> None:
    args = parse_bench_args(__doc__)

    if args.smoke:
        n_clients, per_client, batch = 100, 20, 10
        storm_clients, storm_per_client = 20, 40
    else:
        n_clients, per_client, batch = 1_000, 60, 20
        storm_clients, storm_per_client = 100, 100

    in_proc = bench_in_process(n_clients, per_client, batch)
    fleet = bench_gateway_fleet(n_clients, per_client, batch)
    storm = bench_queuefull_storm(storm_clients, storm_per_client)

    ratio = round(fleet["events_per_s"] / in_proc["events_per_s"], 3)
    p99_s = fleet["submit_ack_latency"]["p99_ms"] / 1e3
    # Fair-share ack time at saturation: every batch waits behind one
    # outstanding frame from each of the other clients.
    fair_share_s = (n_clients * batch) / fleet["events_per_s"]
    p99_bound_s = round(3.0 * fair_share_s, 3)
    result = {
        "mode": "smoke" if args.smoke else "full",
        "model": (
            f"{n_clients} concurrent asyncio capture clients over "
            f"loopback TCP, framed batched submits ({batch}/frame) "
            f"into a {N_SHARDS}-shard in-memory deployment with "
            "off-loop sealing; baseline = identical workload through "
            "IngestPipeline.submit_many in process; storm = "
            f"{storm_clients} greedy clients vs 64-deep queues, "
            "retrying on structured RETRY_AFTER hints"
        ),
        "config": {
            "n_clients": n_clients, "per_client": per_client,
            "batch": batch, "n_shards": N_SHARDS,
            "max_block_txs": MAX_BLOCK_TXS,
            "storm_clients": storm_clients,
            "storm_per_client": storm_per_client,
        },
        "in_process": in_proc,
        "gateway_fleet": fleet,
        "throughput_ratio": ratio,
        "queuefull_storm": storm,
        "floors": {
            "throughput_ratio": 0.5,
            "submit_ack_fair_share_s": round(fair_share_s, 3),
            "submit_ack_p99_bound_s": p99_bound_s,
            "storm_lost": 0,
        },
    }
    print(json.dumps(result, indent=2))
    finish_bench(result, "BENCH_gateway.json", args, floors=[
        ("gateway/in-process throughput", ratio, 0.5),
        ("submit ack p99 within 3x fair share", p99_bound_s - p99_s, 0.0),
        ("storm zero loss", float(storm["lost"] == 0), 1.0),
    ])


if __name__ == "__main__":
    main()
