"""Socket gateway: the network front door to the ingest pipeline.

The gateway turns the pipeline's admission contract into a wire
protocol so O(1000) real capture processes — IoT sensors, supply-chain
scanners, audit shims — can stream transactions over TCP into one chain
deployment, with the same never-drop, backpressure-first semantics as
in-process :meth:`~repro.ingest.pipeline.IngestPipeline.submit`.

Design note
===========

Frames and ops
--------------

The gateway is the TCP carrier of :mod:`repro.rpc`'s one
request/response grammar, plus five ops of its own.  One frame is
``u32 big-endian payload length || payload``; the payload is
:func:`repro.serialization.canonical_encode` of a str-keyed mapping.
That is deliberately the codec every hash and signature already uses
(:mod:`repro.persist.codec` adds the inverse), so the wire format
inherits the storage format's round-trip guarantee: a transaction
decoded off the socket re-encodes to the exact bytes it is hashed and
signed over — signatures verify server-side with no re-signing, and a
gateway-submitted batch seals to byte-identical blocks, Merkle roots,
and shard-beacon commitments as the same batch submitted in process
(``tests/test_gateway.py`` pins this).

The grammar on top is :mod:`repro.rpc`'s: a request carries ``op`` and
``seq``, replies echo ``seq`` and end at one marked ``final`` or at a
structured ``error`` frame, and one dispatcher
(:meth:`repro.rpc.Service.dispatch`) turns *any* failure into that frame
— the connection loop only reads payloads and writes replies.  What it
cannot read (a prefix above the 16 MiB ceiling, a truncated frame, a
payload still missing :data:`~repro.gateway.frames.FRAME_READ_TIMEOUT_S`
after its prefix) and what is not a request (undecodable bytes, ``op`` /
``seq`` of the wrong type, a ``hello`` for another protocol version)
gets one ``error`` frame, a hang-up, and a tick on
``gateway_connections_aborted_total``; idling *between* frames is fine.

====================  ===================================================
client → server       ``hello`` (proto + tenant), ``submit`` (a batch of
                      transaction mappings), ``ops``, ``ping``, ``bye``
server → client       ``hello_ok``, streamed ``retry_after`` chunks +
                      one final ``report`` per submit, ``ops_ok``,
                      ``pong``, ``error``, ``goodbye`` (to ``bye``)
====================  ===================================================

:meth:`GatewayServer.serve <repro.gateway.server.GatewayServer.serve>`
attaches other services (snapshot sync) to the same connections, and
``ChainNode.serve(server.service)`` answers these ops over SimNet.

Backpressure state machine
--------------------------

A SUBMIT batch goes through ``pipeline.submit_many`` — bounded queues,
never blocking, never dropping.  Per connection the server then walks:

``OPEN`` —(submit, all queued)→ ``OPEN`` (final ``report`` only,
``strikes := 0``)

``OPEN`` —(submit, some bounced)→ ``OPEN``: each bounced transaction
rides a ``retry_after`` chunk carrying the full structured
:class:`~repro.errors.QueueFull` mapping (depth, capacity, watermark,
``retry_after_s`` — EWMA round pace × rounds, clamped to the
:data:`~repro.errors.RETRY_AFTER_FLOOR_S` floor so a client honoring it
verbatim never hot-loops); ``strikes += 1``.

``OPEN`` —(strikes ≥ ``PAUSE_AFTER``)→ ``PAUSED``: the server stops
*reading* the connection for the advertised retry-after (capped at
``PAUSE_CAP_S``; both are :class:`~repro.gateway.server.GatewayServer`
class constants, 3 strikes and 0.5 s), so a client that ignores hints
is throttled by its own kernel socket buffer instead of monopolizing
the event loop; counted in ``gateway_pauses_total``.  Any fully-queued
submit resets to ``OPEN``.

Client side, :meth:`~repro.gateway.client.AsyncGatewayClient.
submit_with_retry` sleeps the larger of the server hint and
:class:`~repro.net_retry.RetryPolicy`'s exponential schedule
(:func:`~repro.net_retry.sleep_backoff`), resubmits only the bounced
tail, and — when the attempt budget runs out — raises
``GatewayError(reason="backpressure_budget")`` with the still-pending
transactions attached.  Between the queues' never-drop and the client's
pending-or-queued invariant, a capture event is only ever *somewhere*:
queued, sealed, or explicitly handed back.

Drain semantics
---------------

:meth:`~repro.gateway.server.GatewayServer.drain` is the graceful
shutdown, in contract order: (1) the acceptor closes — new connects are
refused at the socket; (2) in-flight submits finish and their streamed
reports flush, while later submits get ``error/"draining"`` frames;
(3) the pipeline pumps and seals until queues and mempools are empty;
(4) every surviving client receives one more ``error/"draining"`` frame
and is closed.  A peer that disconnects mid-reply is counted — every
unflushed frame lands on ``gateway_frames_undeliverable_total`` (the
same series :class:`~repro.network.simnet.SimNet` uses for replies
racing an ``unregister``) — and never aborts the accept loop.
"""

from .client import AsyncGatewayClient, GatewayClient, SubmitResult
from .frames import (
    FRAME_READ_TIMEOUT_S,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    read_payload,
)
from .server import GatewayServer

__all__ = [
    "AsyncGatewayClient",
    "GatewayClient",
    "GatewayServer",
    "SubmitResult",
    "FRAME_READ_TIMEOUT_S",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "encode_frame",
    "read_payload",
]
