"""``GatewayServer``: the asyncio network front door.

Terminates O(1000) concurrent framed-socket capture clients into one
:class:`~repro.ingest.pipeline.IngestPipeline`.  The package docstring
has the ops, the backpressure state machine and the drain semantics;
this module is the TCP carrier's server end — one reader task per
connection that reads a payload, hands it to
:meth:`repro.rpc.Service.dispatch` with the connection as the
:class:`~repro.rpc.Session`, writes the reply payloads, and does the
not-reading a handler asked for (``pause_s``) — plus the gateway's own
handlers and the off-loop sealer (``auto_seal=True`` keeps admission
latency decoupled from round sealing).

Every structural event lands in the shared telemetry registry under
``gateway_*`` names with per-tenant labels, and sampled submits open
``gateway.submit`` root spans — the same observability surface as the
in-process path.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import asdict
from typing import Any

from ..errors import GatewayError, ReproError
from ..obs.runtime import telemetry as default_telemetry
from ..rpc import Service, Session, ops_handler
from . import frames
from .frames import (
    OP_BYE,
    OP_GOODBYE,
    OP_HELLO,
    OP_HELLO_OK,
    OP_OPS,
    OP_PING,
    OP_PONG,
    OP_REPORT,
    OP_RETRY_AFTER,
    OP_SUBMIT,
    PROTOCOL_VERSION,
    frame_payload,
    frame_to_txs,
    read_payload,
)


class _ConnectionGone(Exception):
    """Internal: the peer vanished while we were writing to it."""


class _Connection(Session):
    """The TCP carrier's session: the peer plus its socket."""

    __slots__ = ("writer", "alive")

    def __init__(self, writer, conn_id: int) -> None:
        super().__init__(f"conn-{conn_id}", conn_id)
        self.writer = writer
        self.alive = True         # false once a write found the peer gone


class GatewayServer:
    """Asyncio front door for one ingest pipeline (module docstring)."""

    def __init__(
        self,
        pipeline,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        auto_seal: bool = False,
        seal_interval_s: float = 0.005,
        report_chunk: int = 512,
        pause_after: int = 3,
        pause_cap_s: float = 0.5,
        telemetry=None,
    ) -> None:
        if report_chunk < 1:
            raise GatewayError("report_chunk must be >= 1")
        if pause_after < 1:
            raise GatewayError("pause_after must be >= 1")
        self.pipeline = pipeline
        self.host = host
        self.port = port
        self.auto_seal = auto_seal
        self.seal_interval_s = seal_interval_s
        self.report_chunk = report_chunk
        self.pause_after = pause_after
        self.pause_cap_s = pause_cap_s
        self.telemetry = telemetry if telemetry is not None \
            else default_telemetry()
        self._server: asyncio.AbstractServer | None = None
        self._sealer_task: asyncio.Task | None = None
        self._connections: dict[int, _Connection] = {}
        self._conn_seq = 0
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._stopped = False
        # Serializes seal rounds across the executor thread and drain.
        self._seal_lock = threading.Lock()
        registry = self.telemetry.registry
        self._tracer = self.telemetry.tracer
        self._m_conns = registry.counter("gateway_connections_total")
        self._m_active = registry.gauge("gateway_connections_active")
        self._m_aborted = registry.counter(
            "gateway_connections_aborted_total"
        )
        self._m_frames_out = registry.counter("gateway_frames_sent_total")
        self._m_undeliverable = registry.counter(
            "gateway_frames_undeliverable_total", transport="socket"
        )
        self._m_txs_rejected = registry.counter(
            "gateway_txs_rejected_total"
        )
        self._m_pauses = registry.counter("gateway_pauses_total")
        self._m_pause_s = registry.counter("gateway_pause_seconds_total")
        self._m_seal_errors = registry.counter("gateway_seal_errors_total")
        self._m_submit_s = registry.histogram("gateway_submit_seconds")
        self._m_batch_txs = registry.histogram(
            "gateway_submit_batch_txs",
            buckets=(1, 8, 32, 128, 512, 2048),
        )
        self._m_tenant_txs: dict[str, Any] = {}
        self.service = Service()
        self.serve(Service({
            OP_HELLO: self._handle_hello,
            OP_SUBMIT: self._handle_submit,
            OP_PING: lambda body, _: [{"op": OP_PONG,
                                       "t": body.get("t", 0.0)}],
            OP_BYE: self._handle_bye,
            OP_OPS: ops_handler(
                self.telemetry,
                health=lambda: self.pipeline.sharded.health_report(),
                ingest=lambda: asdict(self.pipeline.stats),
                gateway=self._status,
            ),
        }))

    def serve(self, service: Service) -> None:
        """Answer every op of ``service`` on this server's connections,
        counting each op's requests on ``gateway_frames_total``."""
        for op, handler in service.handlers.items():
            self.service.handlers[op] = self._counted(op, handler)

    def _counted(self, op: str, handler):
        counter = self.telemetry.registry.counter(
            "gateway_frames_total", op=op)

        def counted(body, session):
            counter.inc()
            return handler(body, session)

        return counted

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise GatewayError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        if self.auto_seal:
            self._sealer_task = asyncio.ensure_future(self._sealer())
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    @property
    def active_connections(self) -> int:
        return len(self._connections)

    @property
    def draining(self) -> bool:
        return self._draining

    async def _sealer(self) -> None:
        """Background sealing: pump + seal whenever there is backlog,
        off the event loop so admission keeps its microsecond acks."""
        loop = asyncio.get_running_loop()
        pipeline = self.pipeline
        while not self._stopped:
            if pipeline.backlog or pipeline.sharded.mempool_backlog:
                try:
                    await loop.run_in_executor(None, self._seal_once)
                except ReproError:
                    self._m_seal_errors.inc()
            else:
                await asyncio.sleep(self.seal_interval_s)

    def _seal_once(self) -> None:
        with self._seal_lock:
            self.pipeline.seal_round()

    def _drain_pipeline_blocking(self) -> None:
        with self._seal_lock:
            if (self.pipeline.backlog
                    or self.pipeline.sharded.mempool_backlog):
                self.pipeline.run_until_drained()

    async def drain(self, drain_pipeline: bool = True) -> None:
        """Graceful shutdown: refuse new connections, finish in-flight
        submits, pump the queues dry, dismiss every client.

        Order matters and is part of the contract:

        1. the acceptor closes — a new ``connect()`` is refused at the
           socket level;
        2. submits already *being handled* finish and their reports
           flush (``_inflight`` reaches zero); submits arriving after
           this point are answered with a structured
           ``error/"draining"`` frame, which well-behaved clients
           surface as :class:`~repro.errors.GatewayError`;
        3. the pipeline is pumped and sealed until queues and mempools
           are empty (``drain_pipeline=False`` skips this for callers
           that own sealing);
        4. every surviving connection gets one ``error/"draining"``
           frame and is closed.  Nothing submitted-and-acked is lost:
           it was either sealed in step 3 or sits in the mempool of a
           facade the caller keeps.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        if self._sealer_task is not None:
            self._stopped = True
            await self._sealer_task
            self._sealer_task = None
        if drain_pipeline:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self._drain_pipeline_blocking)
        for conn in list(self._connections.values()):
            try:
                await self._send_payloads(conn, self.service.refusal(
                    GatewayError("gateway drained the connection",
                                 reason="draining")))
            except _ConnectionGone:
                pass   # already counted undeliverable; just close
            await self._close_connection(conn)

    async def stop(self) -> None:
        """Drain, then fully stop (idempotent)."""
        if not self._stopped or self._connections:
            await self.drain()
        self._stopped = True

    # ------------------------------------------------------------------
    # Frame plumbing
    # ------------------------------------------------------------------
    def _tenant_counter(self, tenant: str):
        counter = self._m_tenant_txs.get(tenant)
        if counter is None:
            counter = self.telemetry.registry.counter(
                "gateway_txs_submitted_total", tenant=tenant
            )
            self._m_tenant_txs[tenant] = counter
        return counter

    async def _send_payloads(self, conn: _Connection,
                             payloads: list[bytes]) -> None:
        """Write reply payloads to one client; a peer that vanished
        mid-reply (disconnect during a batched/streamed response) is
        *counted* — every unflushed frame lands on
        ``gateway_frames_undeliverable_total`` — never raised through
        the event loop."""
        if not conn.alive:
            self._m_undeliverable.inc(len(payloads))
            raise _ConnectionGone()
        for i, payload in enumerate(payloads):
            try:
                conn.writer.write(frame_payload(payload))
                await conn.writer.drain()
                self._m_frames_out.inc()
            except (ConnectionError, OSError):
                conn.alive = False
                self._m_undeliverable.inc(len(payloads) - i)
                raise _ConnectionGone() from None

    async def _close_connection(self, conn: _Connection) -> None:
        conn.alive = False
        if self._connections.pop(conn.conn_id, None) is not None:
            self._m_active.dec()
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Connection handler
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        self._conn_seq += 1
        conn = _Connection(writer, self._conn_seq)
        self._connections[conn.conn_id] = conn
        self._m_conns.inc()
        self._m_active.inc()
        try:
            while conn.open:
                try:
                    payload = await read_payload(reader)
                except GatewayError as exc:
                    # Truncated / oversize / stalled frame: the client
                    # died mid-write or is speaking something else.
                    # Best-effort error frame, hang up.
                    conn.abort()
                    if exc.reason != "connection_closed":
                        await self._send_payloads(
                            conn, self.service.refusal(exc))
                    break
                if payload is None:
                    break  # clean EOF between frames
                self._inflight += 1
                self._idle.clear()
                try:
                    await self._send_payloads(
                        conn, self.service.dispatch(payload, conn))
                    if conn.pause_s > 0:
                        pause, conn.pause_s = conn.pause_s, 0.0
                        await asyncio.sleep(pause)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
        except _ConnectionGone:
            pass
        finally:
            if conn.aborted:
                self._m_aborted.inc()
            await self._close_connection(conn)

    # ------------------------------------------------------------------
    # Handlers (op -> reply bodies; see repro.rpc.Service)
    # ------------------------------------------------------------------
    def _handle_hello(self, body: dict, conn: Session) -> list[dict]:
        proto = body.get("proto")
        if type(proto) is not int or proto != PROTOCOL_VERSION:
            conn.abort()
            raise GatewayError(
                f"protocol version {proto!r} unsupported "
                f"(server speaks {PROTOCOL_VERSION})", reason="protocol",
            )
        conn.tenant = str(body.get("tenant", "default"))
        return [{
            "op": OP_HELLO_OK,
            "proto": PROTOCOL_VERSION,
            "conn_id": conn.conn_id,
            "max_frame": frames.MAX_FRAME_BYTES,
            "draining": self._draining,
        }]

    def _handle_bye(self, body: dict, conn: Session) -> list[dict]:
        conn.open = False
        return [{"op": OP_GOODBYE}]

    def _status(self) -> dict:
        return {
            "connections_active": len(self._connections),
            "draining": self._draining,
            "inflight_submits": self._inflight,
        }

    # ------------------------------------------------------------------
    # Submit: the hot path
    # ------------------------------------------------------------------
    def _handle_submit(self, body: dict, conn: Session) -> list[dict]:
        if self._draining:
            raise GatewayError("gateway is draining; no new submissions",
                               reason="draining")
        txs = frame_to_txs(body)
        t0 = time.perf_counter()
        if self._tracer.should_sample():
            with self._tracer.root_span("gateway.submit",
                                        sampled=True) as span:
                span.set_attr("conn", conn.conn_id)
                span.set_attr("tenant", conn.tenant)
                span.set_attr("batch", len(txs))
                report = self.pipeline.submit_many(txs)
            if txs:
                self._tracer.bind_tx(txs[0].tx_id, span.ctx)
        else:
            report = self.pipeline.submit_many(txs)
        self._tenant_counter(conn.tenant).inc(len(txs))
        self._m_batch_txs.observe(len(txs))
        replies = self._submit_replies(report)
        self._note_backpressure(conn, report)
        self._m_submit_s.observe(time.perf_counter() - t0)
        return replies

    def _submit_replies(self, report) -> list[dict]:
        """The streamed ack: chunked RETRY_AFTER frames for the bounced
        tail, then one final REPORT frame with totals."""
        rejected = report.rejected
        bodies: list[dict] = []
        for start in range(0, len(rejected), self.report_chunk):
            chunk = rejected[start:start + self.report_chunk]
            bodies.append({
                "op": OP_RETRY_AFTER,
                "chunk": start // self.report_chunk,
                "rejected": [
                    dict(signal.as_dict(), tx_id=tx.tx_id)
                    for tx, signal in chunk
                ],
            })
        bodies.append({
            "op": OP_REPORT,
            "queued": report.queued_total,
            "queued_by_shard": {str(sid): n
                                for sid, n in report.queued.items()},
            "rejected": len(rejected),
            "retry_after_s": (report.min_retry_after_s()
                              if rejected else 0.0),
        })
        if rejected:
            self._m_txs_rejected.inc(len(rejected))
        return bodies

    def _note_backpressure(self, conn: Session, report) -> None:
        """The repeat-offender half of backpressure: a connection whose
        submits keep bouncing stops being read for the advertised
        retry-after (capped), so its kernel socket buffer — not the
        event loop — absorbs its optimism.  The handler only asks
        (``conn.pause_s``); the connection loop does the not-reading."""
        if not report.rejected:
            conn.strikes = 0
            return
        conn.strikes += 1
        if conn.strikes < self.pause_after:
            return
        pause = min(report.min_retry_after_s(), self.pause_cap_s)
        if pause <= 0:
            return
        self._m_pauses.inc()
        self._m_pause_s.inc(max(1, int(pause * 1000)) / 1000)
        conn.pause_s = pause
