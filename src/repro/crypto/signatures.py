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
import threading
from collections import OrderedDict
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


# Bounded memo of verification outcomes keyed by
# (message digest, public key, tag).  Ingest re-verifies the same sealed
# transaction at admission, seal, and audit time; the digest pins the
# exact message bytes, so a hit is sound — the HMAC would recompute the
# same verdict.  Only successful verifications are cached: failures are
# cold-path and should stay loud and re-checkable.  Guarded by a lock:
# the parallel sealing round verifies from worker threads.
_VERIFY_CACHE: OrderedDict[tuple[bytes, bytes, bytes], bool] = OrderedDict()
_VERIFY_CACHE_MAX = 8192
_VERIFY_CACHE_LOCK = threading.Lock()

# Hit/miss counters live in the telemetry registry (ISSUE 7) so an
# ``ops`` snapshot sees them; `cache_stats()` keeps its old shape by
# reading them back.  Handles are cached per default-telemetry instance
# — the identity check keeps the probe off the registry's label path,
# and a test that resets the default picks up fresh counters.
_COUNTER_HANDLES: tuple | None = None


def _cache_counters():
    global _COUNTER_HANDLES
    tel = telemetry()
    handles = _COUNTER_HANDLES
    if handles is None or handles[0] is not tel:
        registry = tel.registry
        handles = (
            tel,
            registry.counter("sig_verify_cache_hits_total",
                             cache="verify_encoded"),
            registry.counter("sig_verify_cache_misses_total",
                             cache="verify_encoded"),
        )
        _COUNTER_HANDLES = handles
    return handles


def _verify_cache_hit(key: tuple[bytes, bytes, bytes]) -> bool:
    _, hits, misses = _cache_counters()
    with _VERIFY_CACHE_LOCK:
        if _VERIFY_CACHE.get(key):
            _VERIFY_CACHE.move_to_end(key)
            hits.inc()
            return True
        misses.inc()
    return False


def _verify_cache_put(key: tuple[bytes, bytes, bytes]) -> None:
    with _VERIFY_CACHE_LOCK:
        _VERIFY_CACHE[key] = True
        _VERIFY_CACHE.move_to_end(key)
        while len(_VERIFY_CACHE) > _VERIFY_CACHE_MAX:
            _VERIFY_CACHE.popitem(last=False)


def clear_verify_cache() -> None:
    """Drop the verification memo (tests and benchmarks)."""
    with _VERIFY_CACHE_LOCK:
        _VERIFY_CACHE.clear()


def cache_stats() -> dict:
    """Hit/miss/size counters for both signature-verification LRUs —
    this module's digest-keyed memo and the transaction layer's
    ``(tx_id, signer, tag)`` memo."""
    from ..chain import transaction as tx_mod

    _, hits, misses = _cache_counters()
    with _VERIFY_CACHE_LOCK:
        verify_encoded_stats = {
            "hits": hits.value,
            "misses": misses.value,
            "size": len(_VERIFY_CACHE),
            "capacity": _VERIFY_CACHE_MAX,
        }
    return {
        "verify_encoded": verify_encoded_stats,
        "verify_signature": tx_mod._signature_cache_stats(),
    }


def reset_cache_stats() -> None:
    """Zero the hit/miss counters (cache contents are untouched)."""
    from ..chain import transaction as tx_mod

    _, hits, misses = _cache_counters()
    with _VERIFY_CACHE_LOCK:
        hits.reset()
        misses.reset()
    tx_mod._reset_signature_cache_stats()


def key_material(public: PublicKey) -> bytes | None:
    """Registry lookup: the signing bytes for ``public``, or ``None``
    for an unregistered key.  Exec jobs carry it for their signers, so
    fork timing never makes a registered key "unknown" in a worker."""
    return _KEY_REGISTRY.get(public.key_bytes)


def verify_encoded(encoded: bytes, tag: bytes, public: PublicKey) -> bool:
    """Verify a tag against already-canonically-encoded bytes.

    Successful verifications are memoized on the message digest, so
    re-validating a sealed transaction later in the pipeline is one
    cache probe instead of an HMAC recompute.
    """
    sk_bytes = _KEY_REGISTRY.get(public.key_bytes)
    if sk_bytes is None:
        raise CryptoError(
            "unknown public key; keypair was not generated via KeyPair.generate"
        )
    digest = hash_bytes(encoded, DOMAIN_SIG)
    key = (digest, public.key_bytes, tag)
    if _verify_cache_hit(key):
        return True
    expected = hmac.new(sk_bytes, digest, hashlib.sha256).digest()
    ok = hmac.compare_digest(expected, tag)
    if ok:
        _verify_cache_put(key)
    return ok


def verify_encoded_batch(
    items: Iterable[tuple[bytes, bytes, PublicKey]],
) -> list[bool]:
    """Verify ``(encoded, tag, public)`` triples in one pass.

    The batch surface the ingest pipeline's admission step uses: one
    call per admitted batch instead of one per transaction, with every
    item still getting an individual verdict — one bad signature never
    poisons its batch.  Each item goes through :func:`verify_encoded`
    so the cache and registry rules live in exactly one place.
    """
    return [verify_encoded(encoded, tag, public)
            for encoded, tag, public in items]


def verify_or_raise(message: Any, tag: bytes, public: PublicKey) -> None:
    """Raise :class:`InvalidSignature` when verification fails."""
    if not verify(message, tag, public):
        raise InvalidSignature(f"bad signature from {public.address}")
