"""Hashing helpers with domain separation.

All hashes in the library are SHA-256.  Each *kind* of hash (transaction,
block header, Merkle leaf, Merkle interior node, provenance record) is
domain-separated with a one-byte tag so that, e.g., a Merkle leaf can never
be reinterpreted as an interior node — the classic second-preimage attack
on naive Merkle trees (CVE-2012-2459 style).
"""

from __future__ import annotations

import hashlib
from typing import Any

from ..serialization import canonical_encode

# Domain-separation tags.  One byte each; listed here so the whole
# namespace is visible at a glance.
DOMAIN_LEAF = b"\x00"
DOMAIN_NODE = b"\x01"
DOMAIN_TX = b"\x02"
DOMAIN_BLOCK = b"\x03"
DOMAIN_RECORD = b"\x04"
DOMAIN_SIG = b"\x05"
# b"\x06" (hash commitments) is retired and never reassigned.
DOMAIN_KEY = b"\x07"
DOMAIN_XCHAIN = b"\x08"
DOMAIN_SHARD = b"\x09"

HASH_SIZE = 32
ZERO_HASH = b"\x00" * HASH_SIZE


def hash_bytes(data: bytes, domain: bytes = b"") -> bytes:
    """SHA-256 of ``domain || data`` as raw bytes."""
    h = hashlib.sha256()
    h.update(domain)
    h.update(data)
    return h.digest()


def hash_canonical(value: Any, domain: bytes = b"") -> bytes:
    """Hash an arbitrary canonical-encodable value."""
    return hash_bytes(canonical_encode(value), domain)


def hash_hex(value: Any, domain: bytes = b"") -> str:
    """Hex digest of :func:`hash_canonical` — the form stored in headers."""
    return hash_canonical(value, domain).hex()


class HashChain:
    """An append-only hash chain: ``h_i = H(h_{i-1} || item_i)``.

    This is the primitive behind both the block header chain and
    tamper-evident operation logs.  ``head`` commits to the entire
    history; replaying the items recomputes it.

    >>> chain = HashChain()
    >>> h1 = chain.append("op-1")
    >>> h2 = chain.append("op-2")
    >>> chain.head == h2
    True
    >>> HashChain.replay(["op-1", "op-2"]) == chain.head
    True
    """

    __slots__ = ("head", "length")

    def __init__(self, genesis: bytes = ZERO_HASH) -> None:
        self.head = genesis
        self.length = 0

    def append(self, item: Any) -> bytes:
        """Fold ``item`` into the chain and return the new head."""
        encoded = canonical_encode(item)
        self.head = hash_bytes(self.head + encoded, DOMAIN_RECORD)
        self.length += 1
        return self.head

    @classmethod
    def replay(cls, items: list, genesis: bytes = ZERO_HASH) -> bytes:
        """Recompute the head over ``items`` (integrity verification)."""
        chain = cls(genesis)
        for item in items:
            chain.append(item)
        return chain.head
