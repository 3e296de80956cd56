"""Length-prefixed framing for the TCP carrier, and the gateway's ops.

One frame is ``u32 big-endian payload length || payload``; the payload
is a :mod:`repro.rpc` frame payload — the canonical byte encoding of a
str-keyed mapping, the format every hash, signature and segment-log
record already uses, so a transaction decoded off the socket re-encodes
to the exact bytes it is hashed and signed over.

This module owns what is particular to a byte stream (the prefix, the
16 MiB ceiling, the stalled-payload deadline), the ``OP_*`` names of the
gateway's ops, and the batched-submit body (``"txs"``).  Fail-closed: an
oversized prefix or a truncated or stalled payload raises
:class:`~repro.errors.GatewayError` here, a payload that is not an op
mapping raises it in :func:`repro.rpc.decode_frame_payload`.
"""

from __future__ import annotations

import asyncio
import struct

from ..errors import GatewayError
from ..persist.codec import transaction_embedded, transaction_from_mapping
from ..rpc import OP_OPS, decode_frame_payload
from ..serialization import canonical_encode

__all__ = [
    "MAX_FRAME_BYTES",
    "FRAME_READ_TIMEOUT_S",
    "encode_frame",
    "frame_payload",
    "decode_frame_payload",
    "read_payload",
    "frame_to_txs",
    "txs_to_frame_body",
]

# Hard ceiling on one frame's payload.  A 4-byte prefix could announce
# 4 GiB; a gateway terminating thousands of untrusted capture clients
# must bound what a single frame can make it buffer.
MAX_FRAME_BYTES = 16 * 1024 * 1024

# Once a length prefix is read the payload is owed: a peer that announces
# a frame and stalls would otherwise hold a connection and its buffer
# forever.  Idling *between* frames is not bounded — capture clients
# keep long-lived connections.
FRAME_READ_TIMEOUT_S = 10.0

_LEN = struct.Struct(">I")

# Client → server ops.
OP_HELLO = "hello"
OP_SUBMIT = "submit"
OP_PING = "ping"
OP_BYE = "bye"
# Server → client ops (``error`` and ``ops_ok`` are :mod:`repro.rpc`'s).
OP_HELLO_OK = "hello_ok"
OP_RETRY_AFTER = "retry_after"
OP_REPORT = "report"
OP_PONG = "pong"
OP_GOODBYE = "goodbye"

# Wire protocol version: a HELLO carrying a different major version is
# refused with a structured error instead of mis-parsing frames.
PROTOCOL_VERSION = 1


def frame_payload(payload: bytes) -> bytes:
    """One wire frame around an already-encoded ``payload``."""
    if len(payload) > MAX_FRAME_BYTES:
        raise GatewayError(
            f"frame payload {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling", reason="frame_too_large",
        )
    return _LEN.pack(len(payload)) + payload


def encode_frame(body: dict) -> bytes:
    """One wire frame for ``body`` (length prefix + canonical bytes)."""
    return frame_payload(canonical_encode(body))


async def read_payload(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame's payload from ``reader``.

    Returns ``None`` on a clean EOF at a frame boundary (the peer hung
    up between frames — a normal disconnect).  EOF *inside* a frame is
    a truncated write from a dying peer (``connection_closed``), a
    prefix above the ceiling is ``frame_too_large``, and a payload that
    has not arrived :data:`FRAME_READ_TIMEOUT_S` after its prefix is
    ``read_timeout`` — each a :class:`~repro.errors.GatewayError` the
    caller counts as an aborted connection.
    """
    try:
        raw_len = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise GatewayError("peer closed mid-frame (truncated length)",
                           reason="connection_closed") from None
    (length,) = _LEN.unpack(raw_len)
    if length > MAX_FRAME_BYTES:
        raise GatewayError(
            f"peer announced a {length}-byte frame (ceiling "
            f"{MAX_FRAME_BYTES})", reason="frame_too_large",
        )
    try:
        async with asyncio.timeout(FRAME_READ_TIMEOUT_S):
            return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise GatewayError("peer closed mid-frame (truncated payload)",
                           reason="connection_closed") from None
    except TimeoutError:
        raise GatewayError(
            f"peer announced {length} bytes and stalled for "
            f"{FRAME_READ_TIMEOUT_S} s", reason="read_timeout",
        ) from None


# ---------------------------------------------------------------------------
# Batched submits: one frame = many encoded transactions
# ---------------------------------------------------------------------------
def txs_to_frame_body(txs, seq: int) -> dict:
    """A SUBMIT body carrying a whole batch of transactions."""
    return {
        "op": OP_SUBMIT,
        "seq": seq,
        "txs": [transaction_embedded(tx) for tx in txs],
    }


def frame_to_txs(body: dict) -> list:
    """A SUBMIT body's batch as transactions; malformed entries fail the
    frame (the gateway answers with a structured error, never a
    half-batch).  Sealed transactions were already built, pinned to
    their wire bytes, when :func:`repro.rpc.decode_frame_payload` decoded
    the frame; only unsealed ones are still mappings here."""
    raw = body.get("txs")
    if not isinstance(raw, list):
        raise GatewayError("submit frame carries no transaction list",
                           reason="protocol")
    try:
        return [transaction_from_mapping(m) for m in raw]
    except (KeyError, TypeError, ValueError) as exc:
        raise GatewayError(
            f"submit frame carries a malformed transaction: "
            f"{type(exc).__name__}: {exc}", reason="corrupt_frame",
        ) from None
