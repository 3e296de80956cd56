"""Cross-chain message and outcome types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..crypto.hashing import DOMAIN_XCHAIN, hash_canonical
from ..sharding.twophase import TransferOutcome  # noqa: F401 - re-export


@dataclass(frozen=True)
class CrossChainMessage:
    """A datum moving between chains (asset transfer or data/provenance).

    ``kind`` examples: ``"transfer"``, ``"header"``, ``"provenance"``,
    ``"stage_sync"``.
    """

    message_id: str
    source_chain: str
    target_chain: str
    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    timestamp: int = 0

    def to_canonical(self) -> dict:
        return {
            "message_id": self.message_id,
            "source_chain": self.source_chain,
            "target_chain": self.target_chain,
            "kind": self.kind,
            "payload": dict(self.payload),
            "timestamp": self.timestamp,
        }

    def digest(self) -> bytes:
        return hash_canonical(self.to_canonical(), DOMAIN_XCHAIN)
