"""Network message envelope and the one-way body helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..chain import Block, Transaction
from ..errors import ReproError
from ..persist.codec import (
    canonical_decode,
    decode_block,
    encode_block,
    transaction_embedded,
    transaction_from_mapping,
)
from ..serialization import canonical_encode


@dataclass(frozen=True)
class NetMessage:
    """A typed message between two simulated nodes.

    ``topic`` routes the message to a handler on the receiving node
    (e.g. ``"shard_tx"``, ``"raft/append"``, ``"pbft/prepare"``).
    ``body`` is a canonically encodable mapping: :meth:`SimNet.send
    <repro.network.simnet.SimNet.send>` encodes it once, sizes the
    message by that encoding, and every delivery hands the recipient a
    body decoded from those bytes — never the sender's objects.  A
    block rides as :func:`block_body`, a transaction as :func:`tx_body`.
    A request/response exchange (:mod:`repro.rpc`) rides as one encoded
    frame payload per message: ``{"frame": bytes}`` for a request,
    ``{"reply": bytes}`` for a reply, ``topic`` the request's op.
    """

    sender: str
    recipient: str
    topic: str
    body: Mapping[str, Any] = field(default_factory=dict)


def block_body(block: Block) -> dict:
    """The body that carries ``block``: its :func:`encode_block` frame."""
    return {"block": encode_block(block)}


def block_from_body(body: Mapping) -> Block | None:
    """The receiver's own block from a :func:`block_body`; ``None`` when
    the body holds no well-formed block frame."""
    try:
        return decode_block(body["block"])
    except (KeyError, TypeError, ValueError, ReproError):
        return None


def tx_body(tx: Transaction) -> dict:
    """The body that carries ``tx``: the bytes a block frame embeds for
    it (:func:`~repro.persist.codec.transaction_embedded`)."""
    return {"tx": canonical_encode(transaction_embedded(tx))}


def tx_from_body(body: Mapping) -> Transaction | None:
    """The receiver's own transaction from a :func:`tx_body`; ``None``
    when the body holds no well-typed transaction."""
    try:
        tx = transaction_from_mapping(canonical_decode(body["tx"]))
    except (KeyError, TypeError, ValueError, ReproError):
        return None
    # A sealed transaction's payload is a read-only view, so any Mapping.
    typed = type(tx.sender) is str and isinstance(tx.payload, Mapping) \
        and all(type(v) is int for v in (tx.nonce, tx.timestamp, tx.fee))
    return tx if typed else None
