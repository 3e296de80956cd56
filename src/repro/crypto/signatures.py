"""Digital signatures (API-faithful simulation).

The library needs signatures for transactions, provenance records, notary
attestations, and bridge votes.  Real asymmetric cryptography is outside
this reproduction's scope (DESIGN.md §2), so we simulate:

* a :class:`PrivateKey` is 32 random-looking bytes derived from a seed;
* the matching :class:`PublicKey` is a hash of the private key;
* ``sign(message, sk)`` is ``HMAC-like: H(sk || H(message))``;
* ``verify`` recomputes the tag — which requires the private key, so the
  *simulation* verifier keeps a registry mapping public→private keys.

The crucial property preserved is the one every caller relies on: a
signature verifies **iff** it was produced over exactly that message by the
holder of the key matching the public key, and signatures are
deterministic.  What is *not* preserved is public verifiability without the
registry — acceptable because the whole system runs in one process.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable

from ..errors import CryptoError, InvalidSignature
from ..obs.runtime import telemetry
from ..serialization import canonical_encode
from .hashing import DOMAIN_KEY, DOMAIN_SIG, hash_bytes


@dataclass(frozen=True)
class PublicKey:
    """A verification key.  Hex form is used as an address."""

    key_bytes: bytes

    @cached_property
    def address(self) -> str:
        """Short printable address derived from the key (computed once:
        not a field, so equality, hash and ``repr`` never see it)."""
        return self.key_bytes.hex()[:40]

    def to_canonical(self) -> dict:
        return {"pub": self.key_bytes}


@dataclass(frozen=True)
class PrivateKey:
    """A signing key.  Never serialize this into records."""

    key_bytes: bytes

    def public_key(self) -> PublicKey:
        return PublicKey(hash_bytes(self.key_bytes, DOMAIN_KEY))


# Registry mapping public key bytes -> private key bytes.  In-process
# simulation of public verifiability; see module docstring.
_KEY_REGISTRY: dict[bytes, bytes] = {}


@dataclass(frozen=True)
class KeyPair:
    """Convenience bundle of a private key and its public key."""

    private: PrivateKey
    public: PublicKey

    @classmethod
    def generate(cls, seed: Any) -> "KeyPair":
        """Deterministically derive a keypair from ``seed``.

        Two calls with the same seed return the same pair, which keeps
        workloads reproducible.
        """
        material = canonical_encode(seed)
        sk_bytes = hashlib.sha256(b"seed-key:" + material).digest()
        private = PrivateKey(sk_bytes)
        public = private.public_key()
        _KEY_REGISTRY[public.key_bytes] = sk_bytes
        return cls(private=private, public=public)

    @cached_property
    def address(self) -> str:
        return self.public.address

    def sign(self, message: Any) -> bytes:
        return sign(message, self.private)


@dataclass(frozen=True)
class Signature:
    """A detached signature over a canonical message."""

    tag: bytes
    signer: PublicKey

    def to_canonical(self) -> dict:
        return {"tag": self.tag, "signer": self.signer.key_bytes}


def sign(message: Any, private: PrivateKey) -> bytes:
    """Sign ``message`` (any canonical-encodable value)."""
    return sign_encoded(canonical_encode(message), private)


def sign_encoded(encoded: bytes, private: PrivateKey) -> bytes:
    """Sign already-canonically-encoded bytes.

    Fast path for callers that cache their canonical encoding (sealed
    transactions): produces exactly the same tag as ``sign`` over the
    decoded value, without re-encoding.
    """
    digest = hash_bytes(encoded, DOMAIN_SIG)
    return hmac.new(private.key_bytes, digest, hashlib.sha256).digest()


def verify(message: Any, tag: bytes, public: PublicKey) -> bool:
    """Return ``True`` iff ``tag`` is ``public``'s signature on ``message``."""
    return verify_encoded(canonical_encode(message), tag, public)


# Hit/miss counters of the one place a signature verdict is kept: the
# mark :meth:`Transaction.verify_signature` leaves on a sealed
# transaction it has checked (a hit is a re-check answered by the mark,
# a miss a check that went to :func:`verify_encoded`).  They live in the
# telemetry registry so an ``ops`` snapshot sees them.  Handles are
# cached per default-telemetry instance — the identity check keeps the
# probe off the registry's label path, and a test that resets the
# default picks up fresh counters.
_COUNTER_HANDLES: tuple | None = None


def verdict_counters():
    """``(telemetry, hits, misses)`` of the verified-signature mark."""
    global _COUNTER_HANDLES
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


def clear_verify_cache() -> None:
    """Nothing to drop: a verdict lives on the transaction it is about
    and goes when that object does.  The name stays callable because
    ``benchmarks/e2e/probes.py:45`` calls it before its cold verify
    pass (and ``workloads.py:272`` reads :func:`cache_stats`)."""


def cache_stats() -> dict:
    """Hit/miss counters of the verified-signature mark, one entry per
    layer that keeps verdicts — there is one."""
    _, hits, misses = verdict_counters()
    return {"verify_signature": {"hits": hits.value,
                                 "misses": misses.value}}


def reset_cache_stats() -> None:
    """Zero the hit/miss counters (marks are untouched)."""
    _, hits, misses = verdict_counters()
    hits.reset()
    misses.reset()


def key_material(public: PublicKey) -> bytes | None:
    """Registry lookup: the signing bytes for ``public``, or ``None``
    for an unregistered key.  Exec jobs carry it for their signers, so
    fork timing never makes a registered key "unknown" in a worker."""
    return _KEY_REGISTRY.get(public.key_bytes)


def verify_encoded(encoded: bytes, tag: bytes, public: PublicKey) -> bool:
    """Verify a tag against already-canonically-encoded bytes — the one
    place a verification HMAC is computed.  Nothing is remembered here;
    a sealed transaction carries its own verdict (see
    :meth:`repro.chain.transaction.Transaction.verify_signature`)."""
    sk_bytes = _KEY_REGISTRY.get(public.key_bytes)
    if sk_bytes is None:
        raise CryptoError(
            "unknown public key; keypair was not generated via KeyPair.generate"
        )
    expected = hmac.new(sk_bytes, hash_bytes(encoded, DOMAIN_SIG),
                        hashlib.sha256).digest()
    return hmac.compare_digest(expected, tag)


def verify_encoded_batch(
    items: Iterable[tuple[bytes, bytes, PublicKey]],
) -> list[bool]:
    """Verify ``(encoded, tag, public)`` triples in one pass, every
    item getting its own verdict through :func:`verify_encoded` (the
    e2e probe's cold verify pass, ``benchmarks/e2e/probes.py:47``)."""
    return [verify_encoded(encoded, tag, public)
            for encoded, tag, public in items]


def verify_or_raise(message: Any, tag: bytes, public: PublicKey) -> None:
    """Raise :class:`InvalidSignature` when verification fails."""
    if not verify(message, tag, public):
        raise InvalidSignature(f"bad signature from {public.address}")
