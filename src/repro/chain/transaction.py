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

The signature verdict rides the same way: :meth:`verify_signature` leaves
the ``(signature, signer)`` pair that passed on a *sealed* transaction, and
a re-check of that object carrying that pair is one probe.  It binds to the
instance and the pair — a decoded copy or a re-signed one verifies for real
— and only a sealed one is marked: unsealed content can change under it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping

from ..crypto.hashing import DOMAIN_TX, hash_bytes
from ..crypto.signatures import (
    KeyPair,
    PublicKey,
    sign_encoded,
    verdict_counters,
    verify_encoded,
)
from ..errors import InvalidTransaction, SealedMutation
from ..serialization import canonical_encode

# Fields covered by the transaction hash and signature.  Assigning any of
# them invalidates the caches (or raises, once sealed).
_HASH_FIELDS = frozenset(
    {"sender", "kind", "payload", "nonce", "timestamp", "fee"}
)


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

        The payload's *top level* is snapshotted behind a read-only proxy
        (assigning ``self.payload[k]`` becomes impossible), the canonical
        encoding and hash are precomputed, and later assignment to
        hash-covered fields raises :class:`SealedMutation`.  A ``dict`` or
        ``list`` nested inside the payload is not copied: editing one
        afterwards leaves the pinned bytes and hash as sealed, and is
        caught by :meth:`compute_tx_hash`, hence by
        ``Blockchain.verify(deep=True)`` (:class:`TamperDetected`) — so
        nothing downstream may keep a reference into a payload (the
        executor stores its own copy).  Idempotent.
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
        if encoded is None:
            d["_cache_encoded"] = encoded = _encode_signing_body(d)
        return encoded

    @property
    def tx_hash(self) -> bytes:
        h = self.__dict__.get("_cache_hash")
        if h is None:
            h = hash_bytes(self._encoded_body(), DOMAIN_TX)
            self.__dict__["_cache_hash"] = h
        return h

    @property
    def tx_id(self) -> str:
        """Hex transaction id (prefix of the hash, collision-safe enough
        for in-process simulation sizes)."""
        i = self.__dict__.get("_cache_id")
        if i is None:
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

        Checked by :func:`~repro.crypto.signatures.verify_encoded` over
        the pinned encoding (never a re-encode).  A sealed transaction
        that passes keeps the exact ``(signature, signer)`` pair it
        passed with, so re-validating the same object along the ingest
        path costs one dict probe; any other pair verifies for real.
        """
        d = self.__dict__
        signature, signer = d["signature"], d["signer"]
        if signature is None or signer is None:
            return False
        if signer.address != d["sender"]:
            return False
        sealed = d.get("_sealed", False)
        if sealed:
            _, hits, misses = verdict_counters()
            pair = (signature, signer)
            if d.get("_verified") == pair:
                hits.inc()
                return True
            misses.inc()
        ok = verify_encoded(self._encoded_body(), signature, signer)
        if ok and sealed:
            d["_verified"] = pair
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
