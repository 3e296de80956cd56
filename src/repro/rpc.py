"""One request/response protocol: the frame grammar, its one dispatcher
and its one reply fold.  Carriers only move the bytes.

A *frame payload* is :func:`~repro.serialization.canonical_encode` of a
str-keyed mapping carrying ``op: str``.  A request also carries
``seq: int``, which every reply echoes.  An exchange is one request and
one or more replies, ending at the reply marked ``final`` or at an
``error`` frame whose fields are the failing exception's
:meth:`~repro.errors.ReproError.as_dict` (always ``reason``, ``message``).

Server: :meth:`Service.dispatch` is the only place a request is decoded,
routed on ``op`` and — whatever goes wrong — turned into an ``error``
frame: undecodable bytes are ``corrupt_frame``; a bad ``op`` / ``seq``
envelope or an unknown op ``protocol``; a handler tripping on a
peer-supplied field (``KeyError`` / ``TypeError`` / ``ValueError``)
``bad_request``; a :class:`~repro.errors.ReproError` keeps its own
reason; anything else is ``internal``.  Client: :class:`Call` stamps the
request and folds reply payloads (error frame → raise, ``final`` → done,
another ``seq`` → a duplicate or straggler, ignored).

Two carriers.  asyncio TCP (:mod:`repro.gateway`): ``u32``-prefixed
payloads, the connection is the :class:`Session`.  SimNet
(:meth:`ChainNode.serve <repro.network.node.ChainNode.serve>` /
:meth:`~repro.network.node.ChainNode.channel`): one
:class:`~repro.network.message.NetMessage` per payload, ``topic=op``,
body ``{"frame": payload}`` for a request and ``{"reply": payload}`` for
a reply — so a topic's fault plan and the seeded ordering cover both
directions, and the message is sized by SimNet's one encoding of that
body.  The client end of either is a *channel*: ``peer`` (a name for
reports), ``call(body) -> list[dict]`` (reply bodies, final last) and
the plain counters ``requests`` / ``retries``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from .errors import GatewayError, ReproError, SerializationError
from .obs.runtime import telemetry
from .persist.codec import decode_frame
from .serialization import canonical_encode

OP_ERROR = "error"
OP_OPS = "ops"
OP_OPS_OK = "ops_ok"

Handler = Callable[[dict, "Session"], Iterable[dict]]


def decode_frame_payload(payload: bytes) -> dict:
    """Decode one frame payload back to its body mapping (fail-closed);
    sealed transactions it carries come back built (see
    :func:`repro.persist.codec.decode_frame`)."""
    try:
        body = decode_frame(payload)
    except SerializationError as exc:
        raise GatewayError(f"corrupt frame payload: {exc}",
                           reason="corrupt_frame") from None
    if not isinstance(body, dict) or "op" not in body:
        raise GatewayError("frame payload is not an op mapping",
                           reason="corrupt_frame")
    return body


class Session:
    """One peer as handlers see it.  Handlers set the fields, the
    carrier acts: one with a connection stops reading it for ``pause_s``
    seconds once the replies are flushed and hangs up when ``open`` is
    false (counted aborted if ``aborted``: the peer broke protocol); a
    connectionless one makes a session per request and ignores them."""

    __slots__ = ("peer", "conn_id", "tenant", "strikes", "pause_s",
                 "open", "aborted")

    def __init__(self, peer: str, conn_id: int = 0) -> None:
        self.peer = peer
        self.conn_id = conn_id
        self.tenant = "unknown"
        self.strikes = 0          # consecutive submits that got bounced
        self.pause_s = 0.0
        self.open = True
        self.aborted = False

    def abort(self) -> None:
        """The peer is not speaking the protocol: answer, then hang up."""
        self.open = False
        self.aborted = True


class Service:
    """An ``op -> handler`` table and the dispatcher over it.  A handler
    takes the decoded request body and the peer's :class:`Session` and
    returns the reply bodies in order; the dispatcher stamps ``seq`` on
    each and ``final`` on the last."""

    def __init__(self, handlers: Mapping[str, Handler] = ()) -> None:
        self.handlers: dict[str, Handler] = dict(handlers)

    def dispatch(self, payload: bytes, session: Session) -> list[bytes]:
        """Serve one request payload; returns the reply payloads."""
        try:
            body = decode_frame_payload(payload)
            op, seq = body["op"], body.get("seq")
            if type(op) is not str or type(seq) is not int:
                raise GatewayError("a request carries op: str and seq: int",
                                   reason="protocol")
        except GatewayError as exc:
            session.abort()
            return self.refusal(exc)
        try:
            handler = self.handlers.get(op)
            if handler is None:
                raise GatewayError(f"unknown op {op!r}", reason="protocol")
            replies = list(handler(body, session))
            replies[-1]["final"] = True
            for reply in replies:
                reply["seq"] = seq
            return [canonical_encode(reply) for reply in replies]
        except ReproError as exc:
            return self.refusal(exc, seq)
        except (KeyError, TypeError, ValueError) as exc:
            return self.refusal(GatewayError(
                f"malformed request: {type(exc).__name__}: {exc}",
                reason="bad_request"), seq)
        except Exception as exc:  # noqa: BLE001 - the carrier keeps running
            telemetry().registry.counter(
                "rpc_handler_failures_total").inc()
            return self.refusal(GatewayError(
                f"handler failed: {type(exc).__name__}: {exc}",
                reason="internal"), seq)

    @staticmethod
    def refusal(exc: ReproError, seq: int | None = None) -> list[bytes]:
        """The one ``error`` reply for ``exc`` — also what a carrier
        sends when it cannot even read a request (oversize, stalled)."""
        body = {"op": OP_ERROR, **ReproError.as_dict(exc), **exc.as_dict()}
        if seq is not None:
            body["seq"] = seq
        return [canonical_encode(body)]


class Call:
    """Client half of one exchange: the stamped request payload and the
    fold of its replies.  Feed it reply payloads until :meth:`feed`
    returns true, then take :meth:`result`."""

    def __init__(self, body: Mapping[str, Any], seq: int) -> None:
        self.op = body["op"]
        self.seq = seq
        self.payload = canonical_encode({**body, "seq": seq})
        self.done = False
        self._replies: list[dict] = []
        self._error: GatewayError | None = None

    def feed(self, payload: bytes) -> bool:
        """Fold one reply payload; true once the exchange is over.
        Never raises — a carrier may be mid-delivery."""
        if self.done:
            return True
        try:
            body = decode_frame_payload(payload)
            seq = body.get("seq")
            if seq is not None and seq != self.seq:
                return False  # a duplicate or straggler of an older call
            if body["op"] == OP_ERROR:
                raise GatewayError(
                    str(body.get("message", "peer error")),
                    reason=str(body.get("reason", "peer_error")))
        except GatewayError as exc:
            self._error = exc
            self.done = True
            return True
        self._replies.append(body)
        self.done = body.get("final") is True
        return self.done

    def result(self) -> list[dict]:
        """The reply bodies (final last), or the exchange's error."""
        if self._error is not None:
            raise self._error
        return self._replies


def ops_handler(**sections) -> Handler:
    """Handler for the ``ops`` op, the operator surface of either
    carrier: the process telemetry's registry snapshot, taken when the
    request is answered, plus one entry per section — a plain
    canonical-encodable value, or a zero-arg callable producing one at
    request time (a facade's ``health_report``, a replica's status)."""

    def handle(body: dict, session: Session) -> list[dict]:
        return [{
            "op": OP_OPS_OK,
            "snapshot": telemetry().registry.snapshot(),
            **{name: source() if callable(source) else source
               for name, source in sections.items()},
        }]

    return handle
