#!/usr/bin/env python3
"""Remote capture: an IoT fleet rides out a QueueFull storm.

Walkthrough of the socket front door (``repro.gateway``):

1. a 2-shard deployment starts a ``GatewayServer`` on loopback TCP —
   real sockets, length-prefixed frames over the canonical codec, the
   same ``IngestPipeline`` admission path as in-process submits;
2. a fleet of asyncio sensor clients connects and streams batched
   capture transactions; the ingest queues are kept deliberately tiny,
   so the fleet slams into ``QueueFull`` almost immediately;
3. nothing is dropped: every bounced transaction comes back as a
   structured ``RETRY_AFTER`` frame carrying the server's sealing-pace
   hint, ``submit_with_retry`` sleeps exactly that long and resubmits
   the bounced tail — while repeat offenders get their socket paused
   so the kernel's TCP buffer does the throttling;
4. one blocking (non-asyncio) client shows the same protocol working
   from a plain ``socket`` — no event loop required on the edge;
5. the server drains gracefully: in-flight submits are pumped through
   sealing, new connections are refused, and the books balance —
   every acknowledged reading is committed, byte-for-byte the same
   chain an in-process submitter would have produced.

Run:  python examples/remote_capture.py
"""

import asyncio

from repro.chain import Transaction, TxKind
from repro.gateway import AsyncGatewayClient, GatewayClient, GatewayServer
from repro.ingest import IngestPipeline
from repro.net_retry import RetryPolicy
from repro.sharding import ShardedChain

FLEET = 24          # asyncio sensor clients
READINGS = 40       # readings per sensor
BATCH = 10          # readings per frame
QUEUE_DEPTH = 48    # deliberately tiny: provoke the storm


def readings_for(sensor: int) -> list[Transaction]:
    return [
        Transaction(
            f"edge/sensor-{sensor:03d}", TxKind.DATA,
            {"subject": f"plant-{sensor % 5}/line-{i % 3}",
             "key": f"temp/{i}", "value": 20 + (sensor * 7 + i) % 15},
            timestamp=1_700_000_000 + i,
            fee=sensor * READINGS + i,   # unique fees: total order
        ).seal()
        for i in range(READINGS)
    ]


async def sensor_task(host: str, port: int, sensor: int,
                      policy: RetryPolicy) -> tuple[int, int]:
    """One sensor: stream readings in batches, obeying RETRY_AFTER."""
    acked = attempts = 0
    async with await AsyncGatewayClient.connect(
            host, port, tenant=f"plant-{sensor % 5}",
            policy=policy) as client:
        txs = readings_for(sensor)
        for i in range(0, len(txs), BATCH):
            result = await client.submit_with_retry(txs[i:i + BATCH])
            acked += result.queued
            attempts += result.attempts
    return acked, attempts


async def main() -> None:
    sharded = ShardedChain(n_shards=2, max_block_txs=32)
    pipeline = IngestPipeline(sharded, queue_capacity=QUEUE_DEPTH)
    server = GatewayServer(pipeline, auto_seal=True)
    host, port = await server.start()
    print(f"gateway listening on {host}:{port} "
          f"(queues {QUEUE_DEPTH} deep — storm guaranteed)")

    # -- 1. the asyncio fleet, storming the tiny queues ----------------
    policy = RetryPolicy(max_retries=120, tick_s=0.001,
                         max_backoff_ticks=64)
    results = await asyncio.gather(
        *(sensor_task(host, port, s, policy) for s in range(FLEET)))
    acked = sum(a for a, _ in results)
    attempts = sum(n for _, n in results)
    sent = FLEET * READINGS
    print(f"fleet: {FLEET} sensors x {READINGS} readings = {sent} sent, "
          f"{acked} acked over {attempts} submit attempts")
    assert acked == sent, "a retried fleet never loses a reading"

    # -- 2. the same protocol from a plain blocking socket -------------
    # (in a thread: this example's server shares our event loop, and a
    # real edge device has its own process anyway)
    extra = [
        Transaction("edge/laptop", TxKind.DATA,
                    {"subject": "plant-0/manual", "key": f"note/{i}",
                     "value": i},
                    timestamp=1_700_000_100 + i,
                    fee=10_000 + i).seal()
        for i in range(20)
    ]

    def field_laptop():
        with GatewayClient(host, port, tenant="field-laptop",
                           policy=policy) as edge:
            return edge.submit_with_retry(extra), edge.ops()

    result, ops = await asyncio.get_running_loop().run_in_executor(
        None, field_laptop)
    print(f"blocking client: {result.queued} queued in "
          f"{result.attempts} attempts (no event loop on the edge)")

    # -- 3. ops without HTTP: health + counters over the same socket ---
    counters = ops["snapshot"]["counters"]
    bounced = sum(v for k, v in counters.items()
                  if k.startswith("gateway_txs_rejected_total"))
    pauses = counters.get("gateway_pauses_total", 0)
    print(f"storm debris: {bounced} submissions bounced with RETRY_AFTER, "
          f"{pauses} socket pauses for repeat offenders")
    assert bounced > 0, "the tiny queues must have bounced someone"

    # -- 4. graceful drain: pump in-flight, refuse new, say goodbye ----
    await server.drain()
    committed = sharded.total_txs_committed
    print(f"drained: {committed} committed == {sent + len(extra)} acked; "
          f"beacon height {sharded.beacon.height}, "
          f"{sharded.rounds_sealed} rounds sealed")
    assert committed == sent + len(extra)
    try:
        await AsyncGatewayClient.connect(host, port)
    except OSError:
        print("post-drain connect refused — the front door is closed")


if __name__ == "__main__":
    asyncio.run(main())
