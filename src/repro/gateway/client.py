"""Gateway clients: the TCP carrier's client end.

:class:`AsyncGatewayClient` is a *channel* in :mod:`repro.rpc`'s sense
(``peer`` / ``call`` / ``requests`` / ``retries``) over one framed
connection, with the gateway's own ops on top of :meth:`call`; a bounced
submit is data (:class:`SubmitResult`), not an exception, and the retry
loop hands back what it could not place rather than dropping it.
:class:`GatewayClient` drives the same object from code without an event
loop (the IoT-fleet example, a snapshot-sync replica, REPL poking).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from ..errors import GatewayError
from ..net_retry import RetryPolicy, sleep_backoff
from ..rpc import Call
from .frames import (
    OP_BYE,
    OP_HELLO,
    OP_HELLO_OK,
    OP_OPS,
    OP_REPORT,
    OP_RETRY_AFTER,
    PROTOCOL_VERSION,
    frame_payload,
    read_payload,
    txs_to_frame_body,
)

__all__ = ["SubmitResult", "AsyncGatewayClient", "GatewayClient"]


@dataclass
class SubmitResult:
    """Outcome of one submit round trip (or one retry loop).

    ``rejected`` pairs each bounced tx id with the structured
    backpressure mapping off the wire (``retry_after_s``, ``depth``,
    ``capacity``, ...); ``retry_after_s`` is the server's soonest-retry
    hint for the whole batch (0.0 when nothing bounced)."""

    queued: int = 0
    queued_by_shard: dict = field(default_factory=dict)
    rejected: list = field(default_factory=list)
    retry_after_s: float = 0.0
    attempts: int = 1
    waited_s: float = 0.0

    @property
    def rejected_ids(self) -> list[str]:
        return [entry["tx_id"] for entry in self.rejected]


def _submit_result(replies: list[dict]) -> SubmitResult:
    """Fold a submit's reply bodies into a :class:`SubmitResult`."""
    result = SubmitResult()
    for body in replies:
        op = body["op"]
        if op == OP_RETRY_AFTER:
            result.rejected.extend(body.get("rejected", []))
        elif op == OP_REPORT:
            result.queued = int(body.get("queued", 0))
            result.queued_by_shard = {
                int(sid): int(n)
                for sid, n in body.get("queued_by_shard", {}).items()
            }
            result.retry_after_s = float(body.get("retry_after_s", 0.0))
        else:
            raise GatewayError(f"unexpected reply op {op!r} to a submit",
                               reason="protocol")
    return result


def _expect(replies: list[dict], op: str) -> dict:
    body = replies[-1]
    if body["op"] != op:
        raise GatewayError(f"expected {op}, got {body['op']!r}",
                           reason="protocol")
    return body


class AsyncGatewayClient:
    """One framed connection to a :class:`~repro.gateway.server.
    GatewayServer`, asyncio flavour.  Construct via :meth:`connect`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, tenant: str,
                 policy: RetryPolicy | None = None) -> None:
        self._reader = reader
        self._writer = writer
        self.tenant = tenant
        self.policy = policy or RetryPolicy()
        self.peer = "%s:%s" % writer.get_extra_info("peername")[:2]
        self.requests = 0         # doubles as the last seq stamped
        self.retries = 0
        self.conn_id: int | None = None
        self.server_draining = False

    @classmethod
    async def connect(cls, host: str, port: int, tenant: str = "default",
                      policy: RetryPolicy | None = None
                      ) -> "AsyncGatewayClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, tenant, policy)
        body = _expect(await client.call({
            "op": OP_HELLO, "proto": PROTOCOL_VERSION, "tenant": tenant,
        }), OP_HELLO_OK)
        client.conn_id = int(body.get("conn_id", 0))
        client.server_draining = bool(body.get("draining", False))
        return client

    async def call(self, body: dict) -> list[dict]:
        """One exchange: send ``body`` (``seq`` is stamped here), read
        replies until the final one, return their bodies.  An ``error``
        reply raises :class:`~repro.errors.GatewayError` with the
        server's reason."""
        self.requests += 1
        call = Call(body, self.requests)
        self._writer.write(frame_payload(call.payload))
        await self._writer.drain()
        while True:
            payload = await read_payload(self._reader)
            if payload is None:
                raise GatewayError("server closed the connection",
                                   reason="connection_closed")
            if call.feed(payload):
                return call.result()

    async def submit(self, txs) -> SubmitResult:
        """One batched submit round trip (no retries — see
        :meth:`submit_with_retry`)."""
        # call() stamps the real seq over the placeholder.
        return _submit_result(await self.call(txs_to_frame_body(txs, 0)))

    async def submit_with_retry(self, txs) -> SubmitResult:
        """Submit until everything is queued or the budget runs out.

        Sleeps :meth:`RetryPolicy.backoff_s` between attempts — the
        larger of the server's ``RETRY_AFTER`` hint and the exponential
        schedule.  Exhausting the budget raises
        :class:`~repro.errors.GatewayError`
        (``reason="backpressure_budget"``) with the still-pending
        transactions on ``exc.pending`` — nothing is silently dropped.
        """
        pending = list(txs)
        total = SubmitResult(attempts=0)
        for attempt in range(self.policy.max_retries + 1):
            if attempt:
                self.retries += 1
                total.waited_s += await sleep_backoff(
                    self.policy, attempt, hint_s=total.retry_after_s)
            total.attempts += 1
            result = await self.submit(pending)
            total.queued += result.queued
            for sid, n in result.queued_by_shard.items():
                total.queued_by_shard[sid] = \
                    total.queued_by_shard.get(sid, 0) + n
            total.retry_after_s = result.retry_after_s
            bounced = set(result.rejected_ids)
            pending = [tx for tx in pending if tx.tx_id in bounced]
            if not pending:
                total.rejected = []
                return total
            total.rejected = result.rejected
        raise GatewayError(
            f"{len(pending)} transaction(s) still backpressured after "
            f"{total.attempts} attempts; resubmit exc.pending",
            reason="backpressure_budget",
            pending=pending,
        )

    async def ops(self) -> dict:
        """The operator surface: registry snapshot + health rollup."""
        return (await self.call({"op": OP_OPS}))[-1]

    async def close(self) -> None:
        """Polite goodbye; tolerates a server that already hung up."""
        try:
            await self.call({"op": OP_BYE})
        except (GatewayError, ConnectionError, OSError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncGatewayClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


def _blocking(name: str, bounded: bool = True):
    """The blocking form of ``AsyncGatewayClient.<name>``."""
    method = getattr(AsyncGatewayClient, name)

    def driven(self, *args, **kwargs):
        return self._run(method(self._client, *args, **kwargs), bounded)

    driven.__name__ = name
    driven.__doc__ = method.__doc__
    return driven


class GatewayClient:
    """Blocking driver of an :class:`AsyncGatewayClient` on a private
    event loop: same protocol, same retry discipline, no frame I/O of
    its own.  Every call but :meth:`submit_with_retry` (bounded by its
    policy's attempt budget instead) gives up after ``TIMEOUT_S``.
    Must not be used on a thread that is running an event loop."""

    TIMEOUT_S = 30.0

    def __init__(self, host: str, port: int, tenant: str = "default",
                 policy: RetryPolicy | None = None) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._run(
                AsyncGatewayClient.connect(host, port, tenant, policy))
        except BaseException:
            self._loop.close()
            raise

    def _run(self, coro, bounded: bool = True):
        if bounded:
            coro = asyncio.wait_for(coro, self.TIMEOUT_S)
        return self._loop.run_until_complete(coro)

    def __getattr__(self, name: str):
        # peer / requests / retries / conn_id / tenant / policy / ...
        if name == "_client":       # connect() failed: nothing to ask
            raise AttributeError(name)
        return getattr(self._client, name)

    call = _blocking("call")
    submit = _blocking("submit")
    submit_with_retry = _blocking("submit_with_retry", bounded=False)
    ops = _blocking("ops")

    def close(self) -> None:
        try:
            self._run(self._client.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
