"""Typed, signable transactions.

A transaction is the unit every higher layer reduces to: a provenance
record anchor, a contract invocation, a cross-chain transfer leg — all are
transactions of a particular :class:`TxKind` with a structured payload.

Caching / seal invariants (the hot-path contract)
-------------------------------------------------

``tx_hash`` / ``tx_id`` / ``size_bytes`` and the canonical encoding of the
signing body are computed **once** and cached on the instance.  The caches
are kept honest two ways:

* **Invalidate-on-assign** — assigning any hash-covered field (``sender``,
  ``kind``, ``payload``, ``nonce``, ``timestamp``, ``fee``) drops every
  cache, so a mutated transaction always re-hashes to its *current*
  content.  This is what keeps tamper detection intact: overwriting a
  committed transaction's payload changes its ``tx_hash`` on the next
  read, which breaks the block's Merkle root.
* **Seal discipline** — :meth:`seal` freezes the transaction: the payload
  is snapshotted behind a read-only mapping proxy, the canonical encoding
  is pinned (shared by signing, hashing, and size accounting via the
  identity-keyed encode cache in :mod:`repro.serialization`), and any
  further assignment to a hash-covered field raises
  :class:`~repro.errors.SealedMutation`.

What is pinned, by whom, on which side.  A sealed transaction carries
``_cache_encoded`` (= ``_canonical_cache``, the bytes the encoder splices
when the transaction is embedded), ``_cache_hash`` and ``_cache_id``, and
exactly two places may set them:

* the **constructing side** — :meth:`Transaction.seal` touches each thing
  once: one payload snapshot; the six-key signing body written from a
  fixed key-order template (``_encode_signing_body``, which
  ``_encoded_body`` shares) in which only the payload goes through the
  generic encoder and a type-exact ``int`` zero ``fee`` / ``nonce`` is a
  constant entry; then hash and id taken straight from those bytes and
  stored over whatever an unsealed read had cached — no cache is
  consulted, popped or reached through a property on the way.  The bytes
  equal ``canonical_encode(signing_body())``, which ``compute_tx_hash``
  keeps using as the independent recomputation.  :meth:`sign_with` then
  reads the pinned bytes and writes ``signature`` / ``signer``, which no
  hash covers, past ``__setattr__``;
* the **decoding side** — :meth:`Transaction.from_sealed_encoding`, called
  only by the strict decoder in :mod:`repro.persist.codec`, pins the very
  slice the fields were just decoded from (strict decoding guarantees the
  fields re-encode to it), so a block read back, a submit off the socket
  or a synced anchor never re-encodes a body to learn its hash.

Either way the pinned bytes are the canonical encoding of the frozen
content, which is the only thing anyone downstream may assume.

The one hole left open by design: mutating the payload *dict in place* on
an **unsealed** transaction after its hash was read is not detected by the
cached fast path — sealed transactions make that impossible, and the
auditor paths (``Blockchain.verify(deep=True)``) recompute from scratch.

``HASH_CACHING_ENABLED`` is a module-level switch the hot-path benchmark
flips off to measure the recompute-every-read baseline; leave it on.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping

from ..crypto.hashing import DOMAIN_TX, hash_bytes
from ..crypto.signatures import (
    KeyPair,
    PublicKey,
    sign_encoded,
    verify_encoded,
)
from ..errors import InvalidTransaction, SealedMutation
from ..serialization import canonical_encode

# Benchmark lever: when False, every hash/encode read recomputes from
# scratch (the seed's behavior).  Production code never touches this.
HASH_CACHING_ENABLED = True

# Fields covered by the transaction hash and signature.  Assigning any of
# them invalidates the caches (or raises, once sealed).
_HASH_FIELDS = frozenset(
    {"sender", "kind", "payload", "nonce", "timestamp", "fee"}
)

# LRU of signature checks that already passed, keyed by
# (tx_id, signer key bytes, tag).  A sealed transaction is re-validated
# at queue admission, mempool admission, and block seal; the first check
# pays the HMAC, the rest pay one dict probe.  Only sealed transactions
# are cached — their tx_id provably pins the signed content.  Guarded by
# a lock: the parallel sealing round validates from worker threads.
_VERIFIED_SIGNATURES: OrderedDict[tuple[str, bytes, bytes], bool] = \
    OrderedDict()
_VERIFIED_SIGNATURES_MAX = 8192
_VERIFIED_SIGNATURES_LOCK = threading.Lock()

# Hit/miss counters are registry-backed (see repro.obs); the accessor
# below keeps its historical shape.  Handles are cached per default-
# telemetry instance, same pattern as repro.crypto.signatures.
_COUNTER_HANDLES: tuple | None = None


def _signature_cache_counters():
    global _COUNTER_HANDLES
    from ..obs.runtime import telemetry

    tel = telemetry()
    handles = _COUNTER_HANDLES
    if handles is None or handles[0] is not tel:
        registry = tel.registry
        handles = (
            tel,
            registry.counter("sig_verify_cache_hits_total",
                             cache="verify_signature"),
            registry.counter("sig_verify_cache_misses_total",
                             cache="verify_signature"),
        )
        _COUNTER_HANDLES = handles
    return handles


def _signature_cache_stats() -> dict:
    """Counters for :func:`repro.crypto.signatures.cache_stats`."""
    _, hits, misses = _signature_cache_counters()
    with _VERIFIED_SIGNATURES_LOCK:
        return {
            "hits": hits.value,
            "misses": misses.value,
            "size": len(_VERIFIED_SIGNATURES),
            "capacity": _VERIFIED_SIGNATURES_MAX,
        }


def _reset_signature_cache_stats() -> None:
    _, hits, misses = _signature_cache_counters()
    with _VERIFIED_SIGNATURES_LOCK:
        hits.reset()
        misses.reset()


class TxKind(str, Enum):
    """Payload discriminator.

    The set is open-ended in spirit; these cover every use in the library.
    """

    TRANSFER = "transfer"             # value transfer between accounts
    DATA = "data"                     # opaque data blob (on-chain storage)
    PROVENANCE = "provenance"         # a provenance record or batch anchor
    CONTRACT_DEPLOY = "contract_deploy"
    CONTRACT_CALL = "contract_call"
    CROSS_CHAIN = "cross_chain"       # bridge / relay / notary messages
    GOVERNANCE = "governance"         # validator-set & policy changes


# The signing body is a six-key mapping, so its canonical encoding is
# ``d6:`` and the entries in sorted key order.  ``_encoded_body`` writes
# that order out by hand, and :mod:`repro.persist.codec` splices and pins
# the entries behind ``SIGNING_BODY_HEAD`` next to the three keys the wire
# mapping adds.  Both lean on the facts asserted at the end of this
# module: the key set is these six in this order, and the wire keys sort,
# in the order written, before all of them.
SIGNING_BODY_HEAD = b"d6:"
SIGNING_BODY_KEYS = ("fee", "kind", "nonce", "payload", "sender", "timestamp")
_WIRE_KEYS = ("_sealed", "_sig", "_signer")


def _entry(prefix: bytes, value: Any) -> bytes:
    """One ``<key><value>`` entry of the signing body; ``int`` and ``str``
    values (every field but a hand-built exotic one) are spelled inline."""
    t = type(value)
    if t is int:
        body = b"%d" % value
        return b"%bi%d:%b" % (prefix, len(body), body)
    if t is str:
        body = value.encode("utf-8")
        return b"%bs%d:%b" % (prefix, len(body), body)
    return prefix + canonical_encode(value)


_KIND_ENTRIES = {kind: _entry(b"s4:kind", kind.value) for kind in TxKind}
_FEE_ZERO = _entry(b"s3:fee", 0)
_NONCE_ZERO = _entry(b"s5:nonce", 0)


def _encode_signing_body(d: dict) -> bytes:
    """The signing body of the transaction whose ``__dict__`` is ``d``,
    written from the fixed key order: only the payload goes through the
    generic encoder, and the usual zero ``fee`` / ``nonce`` are constants
    (an ``int`` zero only: ``False`` is falsy too and encodes as ``F``)."""
    payload = d["payload"]
    if type(payload) is not MappingProxyType and type(payload) is not dict:
        payload = dict(payload)
    fee, kind, nonce = d["fee"], d["kind"], d["nonce"]
    return b"%b%b%b%bs7:payload%b%b%be" % (
        SIGNING_BODY_HEAD,
        _FEE_ZERO if type(fee) is int and not fee
        else _entry(b"s3:fee", fee),
        _KIND_ENTRIES.get(kind) or _entry(b"s4:kind", kind.value),
        _NONCE_ZERO if type(nonce) is int and not nonce
        else _entry(b"s5:nonce", nonce),
        canonical_encode(payload),
        _entry(b"s6:sender", d["sender"]),
        _entry(b"s9:timestamp", d["timestamp"]),
    )


@dataclass(init=False)
class Transaction:
    """An immutable-once-signed ledger transaction.

    ``payload`` must be canonically encodable (see
    :mod:`repro.serialization`); its schema is defined by ``kind``.
    """

    sender: str
    kind: TxKind
    payload: Mapping[str, Any]
    nonce: int = 0
    timestamp: int = 0
    fee: int = 0
    signature: bytes | None = field(default=None, compare=False)
    signer: PublicKey | None = field(default=None, compare=False)

    def __init__(self, sender: str, kind: TxKind,
                 payload: Mapping[str, Any], nonce: int = 0,
                 timestamp: int = 0, fee: int = 0,
                 signature: bytes | None = None,
                 signer: PublicKey | None = None) -> None:
        # What the generated __init__ did, minus eight trips through
        # __setattr__: a new object has no cache to drop and no seal.
        d = self.__dict__
        d["sender"] = sender
        d["kind"] = kind
        d["payload"] = payload
        d["nonce"] = nonce
        d["timestamp"] = timestamp
        d["fee"] = fee
        d["signature"] = signature
        d["signer"] = signer

    @classmethod
    def from_sealed_encoding(cls, body: bytes, sender: str, kind: TxKind,
                             payload: dict, nonce: int, timestamp: int,
                             fee: int, signature: bytes | None = None,
                             signer: PublicKey | None = None
                             ) -> "Transaction":
        """The sealed transaction whose signing body *is* ``body``.

        The decode-side twin of :meth:`seal`, for the strict decoder in
        :mod:`repro.persist.codec` only: it has just parsed the fields
        out of ``body`` and guarantees ``canonical_encode`` of them gives
        ``body`` back, so the bytes are pinned instead of rebuilt.
        ``payload`` must be a dict nobody else holds; it goes behind the
        read-only proxy uncopied.
        """
        tx = cls(sender, kind, MappingProxyType(payload), nonce, timestamp,
                 fee, signature, signer)
        d = tx.__dict__
        d["_cache_encoded"] = d["_canonical_cache"] = body
        d["_cache_hash"] = tx_hash = hash_bytes(body, DOMAIN_TX)
        d["_cache_id"] = tx_hash.hex()
        d["_sealed"] = True
        return tx

    # ------------------------------------------------------------------
    # Cache discipline
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any) -> None:
        if name in _HASH_FIELDS:
            d = self.__dict__
            if d.get("_sealed", False):
                raise SealedMutation(
                    f"transaction {d.get('_cache_id', '?')[:12]} is sealed; "
                    f"cannot assign {name!r}"
                )
            d.pop("_cache_encoded", None)
            d.pop("_cache_hash", None)
            d.pop("_cache_id", None)
        object.__setattr__(self, name, value)

    @property
    def is_sealed(self) -> bool:
        return self.__dict__.get("_sealed", False)

    def seal(self) -> "Transaction":
        """Freeze the transaction and pin its caches.

        The payload is snapshotted behind a read-only proxy (in-place
        mutation through ``self.payload`` becomes impossible), the
        canonical encoding and hash are precomputed, and later assignment
        to hash-covered fields raises :class:`SealedMutation`.  Idempotent.
        """
        d = self.__dict__
        if d.get("_sealed", False):
            return self
        # Snapshot the payload so a caller-held reference to the original
        # dict can no longer reach the sealed content.  The one copy: the
        # encoder walks the proxy itself.
        d["payload"] = MappingProxyType(dict(d["payload"]))
        # Encoded from the snapshot, never taken from a cache an unsealed
        # read may have left stale; also the identity-keyed encode cache
        # hook (see repro.serialization): a sealed transaction embedded in
        # a larger structure encodes from these pinned bytes.
        d["_cache_encoded"] = d["_canonical_cache"] = encoded = \
            _encode_signing_body(d)
        d["_cache_hash"] = tx_hash = hash_bytes(encoded, DOMAIN_TX)
        d["_cache_id"] = tx_hash.hex()
        d["_sealed"] = True
        return self

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def signing_body(self) -> dict:
        """The canonical content covered by the hash and signature."""
        return {
            "sender": self.sender,
            "kind": self.kind.value,
            "payload": dict(self.payload),
            "nonce": self.nonce,
            "timestamp": self.timestamp,
            "fee": self.fee,
        }

    def _encoded_body(self) -> bytes:
        """Canonical encoding of the signing body, computed once.

        Shared by hashing (``tx_hash``), signing (:meth:`sign_with` /
        :meth:`verify_signature`), and size accounting (``size_bytes``).
        Same bytes as ``canonical_encode(self.signing_body())`` (what
        :meth:`compute_tx_hash` hashes), written from the fixed key
        order: only the payload goes through the generic encoder.
        """
        d = self.__dict__
        encoded = d.get("_cache_encoded")
        if encoded is None or not HASH_CACHING_ENABLED:
            d["_cache_encoded"] = encoded = _encode_signing_body(d)
        return encoded

    @property
    def tx_hash(self) -> bytes:
        h = self.__dict__.get("_cache_hash")
        if h is None or not HASH_CACHING_ENABLED:
            h = hash_bytes(self._encoded_body(), DOMAIN_TX)
            self.__dict__["_cache_hash"] = h
        return h

    @property
    def tx_id(self) -> str:
        """Hex transaction id (prefix of the hash, collision-safe enough
        for in-process simulation sizes)."""
        i = self.__dict__.get("_cache_id")
        if i is None or not HASH_CACHING_ENABLED:
            i = self.tx_hash.hex()
            self.__dict__["_cache_id"] = i
        return i

    def compute_tx_hash(self) -> bytes:
        """Recompute the hash of the *current* content, bypassing caches.

        This is the auditor primitive: ``Blockchain.verify(deep=True)``
        uses it so even in-place payload mutation cannot hide behind a
        stale cache.  Does not touch the caches.
        """
        return hash_bytes(canonical_encode(self.signing_body()), DOMAIN_TX)

    def to_canonical(self) -> dict:
        return self.signing_body()

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------
    def sign_with(self, keypair: KeyPair) -> "Transaction":
        """Attach a signature; the sender must match the key's address."""
        d = self.__dict__
        public = keypair.public
        if d["sender"] != public.address:
            raise InvalidTransaction(
                f"sender {d['sender']!r} does not match signing key "
                f"address {public.address!r}"
            )
        # Neither field is hash-covered: nothing to invalidate or refuse.
        d["signature"] = sign_encoded(self._encoded_body(), keypair.private)
        d["signer"] = public
        return self

    def verify_signature(self) -> bool:
        """True iff the transaction carries a valid signature.

        Routes through :func:`~repro.crypto.signatures.verify_encoded`
        with the seal-time pinned encoding (never a re-encode), and
        memoizes passing checks per ``(tx_id, signer, tag)`` so
        re-validation along the ingest path costs one dict probe.
        """
        if self.signature is None or self.signer is None:
            return False
        if self.signer.address != self.sender:
            return False
        sealed = self.is_sealed and HASH_CACHING_ENABLED
        if sealed:
            _, cache_hits, cache_misses = _signature_cache_counters()
            key = (self.tx_id, self.signer.key_bytes, self.signature)
            with _VERIFIED_SIGNATURES_LOCK:
                if _VERIFIED_SIGNATURES.get(key):
                    _VERIFIED_SIGNATURES.move_to_end(key)
                    cache_hits.inc()
                    return True
                cache_misses.inc()
        ok = verify_encoded(self._encoded_body(), self.signature,
                            self.signer)
        if ok and sealed:
            with _VERIFIED_SIGNATURES_LOCK:
                _VERIFIED_SIGNATURES[key] = True
                _VERIFIED_SIGNATURES.move_to_end(key)
                while len(_VERIFIED_SIGNATURES) > _VERIFIED_SIGNATURES_MAX:
                    _VERIFIED_SIGNATURES.popitem(last=False)
        return ok

    def validate(self, require_signature: bool = False) -> None:
        """Structural validation; raises :class:`InvalidTransaction`."""
        if not self.sender:
            raise InvalidTransaction("transaction has no sender")
        if self.fee < 0:
            raise InvalidTransaction("negative fee")
        if self.nonce < 0:
            raise InvalidTransaction("negative nonce")
        if require_signature and not self.verify_signature():
            raise InvalidTransaction(
                f"transaction {self.tx_id[:12]} is unsigned or badly signed"
            )

    # ------------------------------------------------------------------
    # Size accounting (storage-overhead benches)
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        base = len(self._encoded_body())
        if self.signature is not None:
            base += len(self.signature) + 32
        return base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.kind.value}, sender={self.sender[:8]}…, "
            f"id={self.tx_id[:10]}…)"
        )


_probe = Transaction("", TxKind.DATA, {})
assert tuple(sorted(_probe.signing_body())) == SIGNING_BODY_KEYS
assert _probe._encoded_body() == canonical_encode(_probe.signing_body())
assert _probe._encoded_body().startswith(SIGNING_BODY_HEAD)
assert _WIRE_KEYS == tuple(sorted(_WIRE_KEYS))
assert _WIRE_KEYS[-1] < SIGNING_BODY_KEYS[0]
del _probe
