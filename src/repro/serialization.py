"""Canonical serialization for hashing and signing.

Blockchain integrity rests on every node hashing *exactly* the same bytes
for the same logical value.  Python's ``repr``/``str`` are not stable enough
(dict ordering, float formatting), so this module defines a small canonical
encoding:

* deterministic — independent of insertion order and interning,
* typed — ``1`` and ``"1"`` and ``True`` encode differently,
* closed — only JSON-ish types plus ``bytes`` are accepted; anything else
  raises :class:`~repro.errors.SerializationError` rather than silently
  producing an unstable encoding.

The encoding is a type-tagged, length-prefixed byte string, similar in
spirit to bencoding / RFC 8785 (JSON Canonicalization Scheme) but simpler
because we control both producer and consumer.

One encoder, two speeds
-----------------------

:func:`canonical_encode` sits under every hash, signature, segment frame,
IPC job and wire frame, so it is a single pass that collects byte parts
and joins them once.

* **Fast path** — dispatch on the *exact* ``type(value)``: ``str``,
  ``int``, ``dict``/``MappingProxyType``, ``list``/``tuple``, ``bytes``,
  ``None``, ``bool``, ``float``, :class:`Pinned`.  Exact types cannot
  overlap, so the order of these tests is frequency, not semantics.
* **Shape plan** — almost every mapping the system writes has one of a
  few fixed key sets (transaction payloads, records, receipts, block
  headers, state and snapshot rows).  An exact ``dict`` /
  ``MappingProxyType`` is looked up by its key tuple (insertion order)
  in a table of *plans*: the ``d<n>:`` head and, in sorted key order,
  each key with its pre-encoded ``s<n>:<key>`` entry prefix.  A hit
  skips the per-key type check, the sort and the key encoding; the
  values still go through the encoder.  Plans are built only for
  shapes whose keys are all exact ``str``, at most
  :data:`_PLAN_MAX_KEYS` wide, and only while the table holds fewer
  than :data:`_PLAN_CAP` of them — both constants, because key sets
  also arrive from peers (records, payloads) and must not be able to
  grow the table.  Every other mapping takes the loop below the plan:
  same bytes, same :class:`SerializationError` for a non-``str`` key.
* **Fallback** — everything else (subclasses such as ``OrderedDict`` or
  the ``str``-mixin :class:`~repro.chain.transaction.TxKind`,
  ``bytearray``, other ``Mapping``/``Sequence`` implementations, hook
  objects, and the error cases) walks the ``isinstance`` ladder in its
  historical order — ``int``, ``float``, ``str``, bytes-likes,
  ``Mapping``, ``Sequence``, ``_canonical_cache``, ``to_canonical()`` —
  and ends in :class:`SerializationError`.  The bytes are the same on
  both paths; only the cost differs.

The splice invariant
--------------------

An object whose ``_canonical_cache`` attribute is ``bytes`` is emitted as
exactly those bytes (:class:`Pinned` is the bare carrier).  Whoever sets
the attribute vouches that the bytes *are* the canonical encoding of an
immutable value.  :mod:`repro.persist.codec` uses this to embed a sealed
transaction in a block, submit or job frame without re-walking it: the
wire mapping is the signing body plus ``_sealed``/``_sig``/``_signer``,
those three keys sort before every signing-body key (asserted at import
in :mod:`repro.chain.transaction`), so the mapping's encoding is a
``d<6+k>:`` head, the extra entries, and the seal-time pinned body minus
its own ``d6:`` head.  Sealed-only: an unsealed transaction can still
change, so it takes the mapping path.  The decoder runs the same splice
backwards: :func:`repro.persist.codec.decode_frame` pins the slice a
sealed transaction's fields were strictly decoded from as that
transaction's encoding, vouching for it by the round-trip guarantee
below.

Strict decoding
---------------

:func:`repro.persist.codec.canonical_decode` accepts *only* what this
encoder emits — shortest decimal integers and lengths, ``repr`` floats,
valid UTF-8, strictly ascending mapping keys, bounded nesting — so
``canonical_encode(canonical_decode(b)) == b`` for every ``b`` that
decodes, and anything else raises :class:`SerializationError`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, Sequence

from .errors import SerializationError


class Pinned:
    """Carrier for bytes that already *are* a canonical encoding: the
    encoder splices ``_canonical_cache`` verbatim (see the module
    docstring for who may vouch for such bytes)."""

    __slots__ = ("_canonical_cache",)

    def __init__(self, encoded: bytes) -> None:
        self._canonical_cache = encoded


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Accepted types: ``None``, ``bool``, ``int``, ``float``, ``str``,
    ``bytes``, and (nested) sequences (``list``/``tuple``) and mappings
    with string keys.  Mappings are encoded with keys sorted
    lexicographically, so two dicts with the same items always encode
    identically.

    >>> canonical_encode({"b": 1, "a": 2}) == canonical_encode({"a": 2, "b": 1})
    True
    >>> canonical_encode(1) == canonical_encode("1")
    False
    """
    parts: list[bytes] = []
    _encode_into(value, parts.append)
    return b"".join(parts)


def own(value: Any) -> Any:
    """An unshared copy of ``value``: the containers this codec knows
    (``dict``/``MappingProxyType`` as ``dict``, ``list``, ``tuple``)
    copied all the way down, atoms — and a tuple of atoms, which cannot
    change — as they are.  The one copy rule for
    a value that is evidence: committed state, a stored record, an
    answer handed out — whoever holds the original, or the copy, cannot
    edit the other.  ``seal()`` freezes a payload's top level only, so a
    one-level copy would still share every nested value."""
    t = type(value)
    if t is dict or t is MappingProxyType:
        if _ATOMS.issuperset(map(type, value.values())):
            return dict(value)          # a flat record: one C-level copy
        return {key: own(item) for key, item in value.items()}
    if t is list or t is tuple:
        if _ATOMS.issuperset(map(type, value)):
            return list(value) if t is list else value
        items = [own(item) for item in value]
        return items if t is list else tuple(items)
    if t in _ATOMS:
        return value
    # Subclasses and other containers the encoder's ladder accepts.
    if isinstance(value, Mapping):
        return {key: own(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [own(item) for item in value]
    return value


def flat_records(value: Any) -> bool:
    """Is ``value`` a list of ``dict`` records whose fields are all
    atoms — one whose :func:`own` copy is ``[dict(r) for r in value]``?
    A caller that hands the same value out many times (the query cache)
    asks once and then copies at the cost of ``dict()``."""
    return type(value) is list and all(
        type(record) is dict
        and _ATOMS.issuperset(map(type, record.values()))
        for record in value)


_ATOMS = frozenset((str, int, float, bool, bytes, type(None)))


def _encode_into(value: Any, append) -> None:
    t = type(value)
    if t is str:
        body = value.encode("utf-8")
        append(b"s%d:" % len(body))
        append(body)
    elif t is int:
        body = b"%d" % value
        append(b"i%d:" % len(body))
        append(body)
    elif t is dict or t is MappingProxyType:
        shape = tuple(value)
        plan = _PLANS.get(shape) or _plan_for(shape)
        if plan is None:
            _encode_mapping(value, append)
        else:
            append(plan[0])
            for key, prefix in plan[1]:
                append(prefix)
                _encode_into(value[key], append)
            append(b"e")
    elif t is list or t is tuple:
        append(b"l%d:" % len(value))
        for item in value:
            _encode_into(item, append)
        append(b"e")
    elif t is bytes:
        append(b"b%d:" % len(value))
        append(value)
    elif value is None:
        append(b"N")
    elif t is bool:
        append(b"T" if value else b"F")
    elif t is float:
        # repr() of a float is the shortest string that round-trips in
        # CPython (PEP 3101 era guarantee), which makes it canonical for
        # our single-implementation purposes.
        body = repr(value).encode("ascii")
        append(b"f%d:" % len(body))
        append(body)
    elif t is Pinned:
        append(value._canonical_cache)
    # Not an exact builtin: the isinstance ladder, in its historical
    # order (bool cannot be subclassed, so it needs no rung).  A rung
    # re-enters with the exact value where that cannot change the bytes.
    elif isinstance(value, int):
        # The number itself: an int-mixin Enum member's str() is its
        # "Class.NAME", which is not an integer body.
        _encode_into(int(value), append)
    elif isinstance(value, float):
        body = repr(value).encode("ascii")
        append(b"f%d:" % len(body))
        append(body)
    elif isinstance(value, str):
        body = value.encode("utf-8")
        append(b"s%d:" % len(body))
        append(body)
    elif isinstance(value, (bytes, bytearray)):
        _encode_into(bytes(value), append)
    elif isinstance(value, Mapping):
        _encode_mapping(value, append)
    elif isinstance(value, Sequence):
        _encode_into(tuple(value), append)
    else:
        # Sealed objects may carry their canonical bytes, precomputed once
        # at seal time (identity-keyed encode cache: the bytes live on the
        # object itself, so cache lifetime equals object lifetime and two
        # equal-but-distinct objects never alias).  Only immutable (sealed)
        # objects may set this — see Transaction.seal().
        cached = getattr(value, "_canonical_cache", None)
        if type(cached) is bytes:
            append(cached)
            return
        # Objects may opt in by providing a to_canonical() mapping.
        to_canonical = getattr(value, "to_canonical", None)
        if callable(to_canonical):
            _encode_into(to_canonical(), append)
            return
        raise SerializationError(
            f"cannot canonically encode {type(value).__name__}"
        )


# Shape plans: key tuple (insertion order) -> (head, ((key, prefix), ...))
# with the pairs in sorted key order.  Never evicted and never grown past
# the cap, so a hit is one dict probe and a peer cannot make the table
# large (racing first encodes of distinct shapes may overshoot the cap by
# one entry per thread).  A str-subclass key tuple that equals and hashes
# like a planned one reuses its plan, which is the bytes ``str.encode``
# and ``str.__lt__`` give it below.
_PLAN_CAP = 256
_PLAN_MAX_KEYS = 32
_PLANS: dict[tuple, tuple] = {}


def _plan_for(shape: tuple):
    """The plan for ``shape``, built (and kept, below the cap) when every
    key is an exact ``str``; ``None`` sends the caller to the loop."""
    if len(shape) > _PLAN_MAX_KEYS or len(_PLANS) >= _PLAN_CAP:
        return None
    for key in shape:
        if type(key) is not str:
            return None
    pairs = []
    for key in sorted(shape):
        body = key.encode("utf-8")
        pairs.append((key, b"s%d:%b" % (len(body), body)))
    plan = _PLANS[shape] = (b"d%d:" % len(shape), tuple(pairs))
    return plan


def _encode_mapping(value: Mapping, append) -> None:
    for key in value:
        if type(key) is not str and not isinstance(key, str):
            raise SerializationError(
                f"mapping keys must be str, got {type(key).__name__}"
            )
    keys = sorted(value)
    append(b"d%d:" % len(keys))
    for key in keys:
        body = key.encode("utf-8")
        append(b"s%d:" % len(body))
        append(body)
        _encode_into(value[key], append)
    append(b"e")
