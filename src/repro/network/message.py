"""Network message envelope."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..serialization import canonical_encode


@dataclass(frozen=True)
class NetMessage:
    """A typed message between two simulated nodes.

    ``topic`` routes the message to a handler on the receiving node
    (e.g. ``"tx"``, ``"block"``, ``"pbft/prepare"``, ``"bridge/vote"``).
    A request/response exchange (:mod:`repro.rpc`) rides as one encoded
    frame payload per message: ``{"frame": bytes}`` for a request,
    ``{"reply": bytes}`` for a reply, ``topic`` the request's op.
    """

    sender: str
    recipient: str
    topic: str
    body: Mapping[str, Any] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        body = self.body
        payload = body.get("frame") or body.get("reply")
        if type(payload) is bytes:
            return len(payload)
        # One-way simulation topics may carry in-process object
        # references (blocks, transactions): estimate their serialized
        # size instead of failing canonical encoding.
        total = len(self.topic) + 16
        for key, value in body.items():
            total += len(key)
            try:
                total += len(canonical_encode(value))
            except Exception:  # noqa: BLE001 - best-effort accounting
                total += 64
        return total

    def to_canonical(self) -> dict:
        return {
            "sender": self.sender,
            "recipient": self.recipient,
            "topic": self.topic,
            "body": dict(self.body),
        }
