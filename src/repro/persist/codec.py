"""Byte codec for durable storage.

The repo already has one canonical, deterministic byte encoding — the
type-tagged, length-prefixed format in :mod:`repro.serialization` that
every hash and signature is computed over.  Durable storage reuses it as
the *wire format* of the segment logs: the encoding is self-describing
(every value carries its tag and length), so this module adds the exact
inverse, :func:`canonical_decode`, plus mapping converters for the three
object kinds the stores persist — blocks (with their transactions),
execution receipts, and provenance records.

Using the hash encoding as the storage encoding is what makes the
round-trip guarantees cheap to state: a decoded transaction re-encodes to
the *same bytes* it was hashed over, so a block read back from disk
recomputes the same Merkle root and block hash it had when sealed, and
any on-disk corruption surfaces as a hash mismatch rather than silently
different data.

The decoder is one loop (:func:`_run`): a container is one call over its
items, scalars and length prefixes are parsed in place, every strictness
check of :func:`canonical_decode`'s contract is kept.  For the frames
that carry transactions, :func:`decode_frame` also keeps the bytes: a
sealed transaction is hashed from the slice it was decoded from, never
re-encoded (*The decode-side splice*, under "Transactions" below).
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import lt as _lt
from typing import Any

from ..chain.block import Block
from ..chain.receipts import Event, TransactionReceipt
from ..chain.transaction import (
    SIGNING_BODY_HEAD,
    SIGNING_BODY_KEYS,
    Transaction,
    TxKind,
)
from ..crypto.signatures import PublicKey
from ..errors import SerializationError, StorageError
from ..serialization import Pinned, canonical_encode

__all__ = [
    "MAX_DEPTH",
    "canonical_decode",
    "decode_at",
    "decode_frame",
    "read_length",
    "encode_block",
    "decode_block",
    "encode_record",
    "decode_record",
    "receipt_to_mapping",
    "receipt_from_mapping",
    "transaction_to_mapping",
    "transaction_from_mapping",
    "transaction_embedded",
]


# ---------------------------------------------------------------------------
# canonical_decode — inverse of repro.serialization.canonical_encode
# ---------------------------------------------------------------------------
# Containers may nest this deep.  Frames arrive from untrusted peers, and
# the decoder recurses once per level: the bound turns a hostile
# ``l1:l1:l1:...`` into a SerializationError instead of a RecursionError.
# (The encoder has no such bound; nothing the system writes comes close.)
MAX_DEPTH = 64

_TAG_NONE, _TAG_TRUE, _TAG_FALSE = b"NTF"
_TAG_STR, _TAG_INT, _TAG_BYTES, _TAG_FLOAT = b"sibf"
_TAG_MAP, _TAG_LIST, _TAG_END = b"dle"
_COLON, _ZERO = b":0"
_COLON_LOW = _COLON - _ZERO
_STR_ONLY = {str}


def canonical_decode(data: bytes) -> Any:
    """Decode canonical bytes back into the value that produced them.

    Exact inverse of :func:`repro.serialization.canonical_encode` for
    every value that function accepts (sequences come back as lists,
    mappings as dicts), and strict: only the encoder's own spelling
    decodes, so ``canonical_encode(canonical_decode(data)) == data``
    whenever this returns.  Trailing bytes, truncation, an unknown tag,
    a malformed or non-canonical scalar, unsorted or repeated mapping
    keys and nesting beyond :data:`MAX_DEPTH` all raise
    :class:`SerializationError` — corruption never decodes.
    """
    return _decode_whole(data, False)


def decode_frame(data: bytes) -> Any:
    """:func:`canonical_decode` for the frames that carry transactions —
    block frames and :mod:`repro.rpc` payloads.  A sealed transaction
    comes back as the :class:`Transaction`, pinned to the slice it was
    decoded from (see *The decode-side splice* below); everything else
    comes back as :func:`canonical_decode` returns it."""
    return _decode_whole(data, True)


def _decode_whole(data: bytes, frame: bool) -> Any:
    values, end = _decode_run(data, 0, 1, 0, frame)
    if end != len(data):
        raise SerializationError(
            f"trailing bytes after canonical value ({len(data) - end})"
        )
    return values[0]


def read_length(data: bytes, pos: int) -> tuple[int, int]:
    """Parse the ``<digits>:`` length prefix starting at ``pos``;
    returns ``(length, position after the colon)``."""
    colon = data.find(b":", pos)
    if colon < 0:
        raise SerializationError("truncated length prefix")
    digits = data[pos:colon]
    if not digits.isdigit() or (colon - pos > 1
                                and digits.startswith(b"0")):
        raise SerializationError(f"bad length prefix {digits!r}")
    return int(digits), colon + 1


def decode_at(data: bytes, pos: int, depth: int = 0) -> tuple[Any, int]:
    """Decode the one canonical value that starts at ``data[pos]``;
    returns ``(value, position after it)``.  The prefix form of
    :func:`canonical_decode`, for callers that walk a frame themselves
    (:func:`repro.sync.codec.scan_block_frame`)."""
    values, end = _decode_run(data, pos, 1, depth, False)
    return values[0], end


def _decode_run(data: bytes, pos: int, count: int, depth: int,
                frame: bool) -> tuple[list, int]:
    """Decode ``count`` consecutive values starting at ``data[pos]``;
    returns ``(values, position after the last)``.

    The whole decoder: a container is one call of this function over its
    items (a mapping is a run of ``2n`` values, keys at the even places),
    scalars are parsed in the loop.  ``depth`` is how many containers
    enclose the run.  Reading past the end and malformed scalar bodies
    surface as ``IndexError`` / ``ValueError`` and are turned into
    :class:`SerializationError` here, at the outermost call.
    """
    try:
        return _run(data, pos, count, depth, frame)
    except IndexError:
        raise SerializationError("truncated canonical value") from None
    except ValueError as exc:       # UnicodeDecodeError is one
        raise SerializationError(f"malformed scalar body: {exc}") from None


def _run(data: bytes, pos: int, count: int, depth: int,
         frame: bool) -> tuple[list, int]:
    values: list = []
    append = values.append
    for _ in range(count):
        tag = data[pos]
        if tag < _TAG_BYTES:            # the unprefixed (upper-case) tags
            if tag == _TAG_NONE:
                append(None)
            elif tag == _TAG_TRUE:
                append(True)
            elif tag == _TAG_FALSE:
                append(False)
            else:
                raise SerializationError(
                    f"unknown canonical tag {bytes([tag])!r}")
            pos += 1
            continue
        # Length prefix; one and two digits (nearly all) are read in
        # place, anything else — longer or malformed — by read_length.
        high = data[pos + 1] - _ZERO
        low = data[pos + 2] - _ZERO
        if low == _COLON_LOW and 0 <= high <= 9:
            length = high
            pos += 3
        elif data[pos + 3] == _COLON and 0 < high <= 9 and 0 <= low <= 9:
            length = high * 10 + low
            pos += 4
        else:
            length, pos = read_length(data, pos + 1)
        if tag == _TAG_STR:
            end = pos + length
            body = data[pos:end]
            if len(body) != length:
                raise SerializationError("truncated scalar body")
            append(body.decode("utf-8"))
            pos = end
        elif tag == _TAG_INT:
            end = pos + length
            body = data[pos:end]
            value = int(body)
            # Also refuses a short body: its digits cannot spell it.
            if len(body) != length or b"%d" % value != body:
                raise SerializationError(
                    f"non-canonical integer {body[:32]!r}")
            append(value)
            pos = end
        elif tag == _TAG_MAP:
            if depth >= MAX_DEPTH:
                raise SerializationError(
                    f"canonical value nests deeper than {MAX_DEPTH}")
            if frame and depth == _TX_DEPTH \
                    and data.startswith(_SEALED_ENTRY, pos):
                found = _sealed_transaction_at(data, pos, length, depth + 1)
                if found is not None:
                    append(found[0])
                    pos = found[1]
                    continue
            flat, pos = _run(data, pos, 2 * length, depth + 1, frame)
            if data[pos] != _TAG_END:
                raise SerializationError("unterminated container")
            pos += 1
            keys = flat[0::2]
            if length and set(map(type, keys)) != _STR_ONLY:
                raise SerializationError("mapping key must decode to str")
            # Strictly ascending = sorted and free of duplicates.
            if length > 1 and not all(map(_lt, keys, keys[1:])):
                raise SerializationError(
                    "mapping keys out of canonical order")
            append(dict(zip(keys, flat[1::2])))
        elif tag == _TAG_LIST:
            if depth >= MAX_DEPTH:
                raise SerializationError(
                    f"canonical value nests deeper than {MAX_DEPTH}")
            items, pos = _run(data, pos, length, depth + 1, frame)
            if data[pos] != _TAG_END:
                raise SerializationError("unterminated container")
            pos += 1
            append(items)
        elif tag == _TAG_BYTES:
            end = pos + length
            body = data[pos:end]
            if len(body) != length:
                raise SerializationError("truncated scalar body")
            append(bytes(body))
            pos = end
        elif tag == _TAG_FLOAT:
            end = pos + length
            body = data[pos:end]
            value = float(body)
            if len(body) != length \
                    or repr(value).encode("ascii") != body:
                raise SerializationError(
                    f"non-canonical float {body[:32]!r}")
            append(value)
            pos = end
        else:
            raise SerializationError(
                f"unknown canonical tag {bytes([tag])!r}")
    return values, pos


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------
# The decode-side splice (mirror of transaction_embedded below)
# -------------------------------------------------------------
# A sealed transaction's wire mapping is ``_sealed: True``, optionally
# ``_sig``/``_signer``, then the six signing-body entries — and those six
# entries plus the closing ``e`` are, byte for byte, the signing body's own
# encoding minus its ``d6:`` head (the key-order facts are asserted in
# repro.chain.transaction).  The strict decoder only returns values that
# re-encode to the bytes they came from, so once the entries have decoded,
# ``d6:`` + that slice IS ``canonical_encode(signing_body)``: the decoder
# hands the slice to ``Transaction.from_sealed_encoding`` to pin as the
# transaction's encoding, and nothing on the read side re-encodes it to
# learn its hash.  Whoever strictly decoded the slice vouches for it —
# the same rule as serialization's splice invariant, met from the other
# side.
#
# Recognition is by position, not by shape alone.  Frames carry
# transactions exactly two containers down (``transactions: [tx, ...]``
# of a block frame, ``txs: [tx, ...]`` of a submit, ``bundle: {anchor_tx:
# tx}`` of a sync offer), so only decode_frame looks, and only at that
# depth, for a mapping that opens with ``_sealed: True`` (the key sorts
# first and no other frame member carries it) and has exactly the shape
# above with a known ``kind`` and a mapping payload.  The same bytes
# anywhere else — inside a payload, a record, a state value — are
# attacker-chosen data and decode to a plain dict, as does a look-alike
# that misses the shape; transaction_from_mapping then refuses a dict
# that claims ``_sealed``, so a sealed transaction is built here or not
# at all.
_TX_DEPTH = 2
_SEALED_ENTRY = b"s7:_sealedT"
_SIGNED_KEYS = ["_sig", "_signer"]
_BODY_KEYS = list(SIGNING_BODY_KEYS)
_KINDS = {kind.value: kind for kind in TxKind}


def _sealed_transaction_at(data: bytes, pos: int, count: int,
                           depth: int) -> tuple[Transaction, int] | None:
    """The sealed transaction whose ``count``-entry mapping has its first
    key at ``data[pos]`` (known to be ``_sealed: True``) and the position
    after the mapping; ``None`` if the mapping is not exactly one."""
    pos += len(_SEALED_ENTRY)
    signature = signer = None
    if count == 9:
        flat, pos = _run(data, pos, 4, depth, False)
        signature, key = flat[1], flat[3]
        if flat[0::2] != _SIGNED_KEYS or type(signature) is not bytes \
                or type(key) is not bytes:
            return None
        signer = PublicKey(key)
    elif count != 7:
        return None
    flat, end = _run(data, pos, 12, depth, False)
    if flat[0::2] != _BODY_KEYS or data[end] != _TAG_END:
        return None
    fee, kind, nonce, payload, sender, timestamp = flat[1::2]
    if type(payload) is not dict or type(kind) is not str \
            or kind not in _KINDS:
        return None
    end += 1
    return Transaction.from_sealed_encoding(
        SIGNING_BODY_HEAD + data[pos:end], sender, _KINDS[kind], payload,
        nonce, timestamp, fee, signature, signer), end


def _transaction_to_mapping(tx: Transaction) -> dict:
    m = tx.signing_body()
    if tx.signature is not None and tx.signer is not None:
        m["_sig"] = tx.signature
        m["_signer"] = tx.signer.key_bytes
    if tx.is_sealed:
        m["_sealed"] = True
    return m


def _transaction_from_mapping(m: dict | Transaction) -> Transaction:
    if type(m) is Transaction:      # decode_frame already built it
        return m
    if "_sealed" in m and m["_sealed"]:
        # A caller's own dict, or a look-alike decode_frame declined:
        # sealed transactions have one way in, so go through it.
        encoded = canonical_encode(m)
        count, pos = read_length(encoded, 1)
        found = encoded.startswith(_SEALED_ENTRY, pos) \
            and _sealed_transaction_at(encoded, pos, count, 1)
        if not found:
            raise ValueError("mapping is not a sealed transaction's")
        return found[0]
    tx = Transaction(
        sender=m["sender"],
        kind=TxKind(m["kind"]),
        payload=m["payload"],
        nonce=m["nonce"],
        timestamp=m["timestamp"],
        fee=m["fee"],
    )
    if "_sig" in m:
        tx.signature = m["_sig"]
        tx.signer = PublicKey(m["_signer"])
    return tx


def transaction_embedded(tx: Transaction) -> dict | Pinned:
    """What a block, submit or job frame embeds for ``tx``; encodes to
    the same bytes as :func:`transaction_to_mapping`'s mapping.

    A sealed transaction already pins the canonical bytes of its signing
    body, so its mapping's encoding is spliced instead of re-walked:
    mapping head, the ``_sealed``/``_sig``/``_signer`` entries, then the
    pinned body minus its own head.  Unsealed transactions can still
    change and take the mapping path.
    """
    if not tx.is_sealed:
        return _transaction_to_mapping(tx)
    sig = tx.signature
    if sig is None or tx.signer is None:
        head = b"d7:s7:_sealedT"
    else:
        key = tx.signer.key_bytes
        if type(sig) is not bytes or type(key) is not bytes:
            return _transaction_to_mapping(tx)
        head = b"d9:s7:_sealedTs4:_sigb%d:%bs7:_signerb%d:%b" % (
            len(sig), sig, len(key), key)
    return Pinned(head + tx._encoded_body()[len(SIGNING_BODY_HEAD):])


# Public aliases: the mapping form is also the *wire* form — the
# gateway (repro.gateway) batches many of these inside one canonical
# length-prefixed frame, so a transaction decoded off the socket
# re-encodes to the same bytes it is hashed and signed over.
def transaction_to_mapping(tx: Transaction) -> dict:
    """Canonical-encodable mapping for one transaction (signature,
    signer key, and seal flag included when present)."""
    return _transaction_to_mapping(tx)


def transaction_from_mapping(m: dict | Transaction) -> Transaction:
    """Exact inverse of :func:`transaction_to_mapping`; a transaction
    :func:`decode_frame` already built passes through."""
    return _transaction_from_mapping(m)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------
def encode_block(block: Block) -> bytes:
    """Canonical bytes for one block (header fields + transactions)."""
    header = block.header
    return canonical_encode({
        "height": header.height,
        "prev_hash": header.prev_hash,
        "merkle_root": header.merkle_root,
        "timestamp": header.timestamp,
        "proposer": header.proposer,
        "consensus_meta": dict(header.consensus_meta),
        "nonce": header.nonce,
        "transactions": [transaction_embedded(tx)
                         for tx in block.transactions],
    })


def decode_block(payload: bytes, expected_hash: bytes | None = None) -> Block:
    """Rebuild a block from :func:`encode_block` bytes.

    The block is reconstructed through the normal constructor, so its
    Merkle tree is rebuilt from the decoded transactions; a mismatch with
    the stored ``merkle_root`` (or with ``expected_hash``, when the index
    recorded one) means the bytes were corrupted and raises
    :class:`StorageError` rather than returning a silently different
    block.
    """
    m = decode_frame(payload)
    block = Block(
        height=m["height"],
        prev_hash=m["prev_hash"],
        transactions=[_transaction_from_mapping(t)
                      for t in m["transactions"]],
        timestamp=m["timestamp"],
        proposer=m["proposer"],
        consensus_meta=m["consensus_meta"],
        nonce=m["nonce"],
    )
    if block.header.merkle_root != m["merkle_root"]:
        raise StorageError(
            f"stored block {m['height']} fails Merkle-root check "
            "(on-disk corruption)"
        )
    if expected_hash is not None and block.block_hash != expected_hash:
        raise StorageError(
            f"stored block {m['height']} does not hash to its indexed "
            "block hash (on-disk corruption)"
        )
    return block


# ---------------------------------------------------------------------------
# Receipts
# ---------------------------------------------------------------------------
def receipt_to_mapping(receipt: TransactionReceipt) -> dict:
    m: dict[str, Any] = {
        "tx_id": receipt.tx_id,
        "success": receipt.success,
        "gas_used": receipt.gas_used,
        "events": [e.to_canonical() for e in receipt.events],
    }
    if receipt.error is not None:
        m["error"] = receipt.error
    if receipt.block_height is not None:
        m["block_height"] = receipt.block_height
    if receipt.output is not None:
        try:
            # Encoding it is the only way to learn whether it encodes;
            # keep the bytes so the receipt frame does not walk it again.
            m["output"] = Pinned(canonical_encode(receipt.output))
        except SerializationError:
            pass  # non-encodable outputs (live objects) are not persisted
    return m


def receipt_from_mapping(m: dict) -> TransactionReceipt:
    return TransactionReceipt(
        tx_id=m["tx_id"],
        success=m["success"],
        gas_used=m["gas_used"],
        output=m.get("output"),
        error=m.get("error"),
        events=[Event(name=e["name"], source=e["source"], data=e["data"])
                for e in m["events"]],
        block_height=m.get("block_height"),
    )


def encode_receipt(receipt: TransactionReceipt) -> bytes:
    return canonical_encode(receipt_to_mapping(receipt))


def decode_receipt(payload: bytes) -> TransactionReceipt:
    return receipt_from_mapping(canonical_decode(payload))


class EncodedReceipts(Sequence):
    """One block's receipts as the bodies an exec worker returned,
    decoded on first access: a store that commits the bodies verbatim
    never pays for objects nobody reads."""

    def __init__(self, bodies: Sequence[bytes]) -> None:
        self._bodies = bodies
        self._decoded: list[TransactionReceipt] | None = None

    def __len__(self) -> int:
        return len(self._bodies)

    def __getitem__(self, index):
        if self._decoded is None:
            self._decoded = [decode_receipt(b) for b in self._bodies]
        return self._decoded[index]


# ---------------------------------------------------------------------------
# Provenance records (plain canonical dicts)
# ---------------------------------------------------------------------------
def encode_record(record: dict) -> bytes:
    return canonical_encode(record)


def decode_record(payload: bytes) -> dict:
    record = canonical_decode(payload)
    if not isinstance(record, dict):
        raise StorageError("stored record did not decode to a mapping")
    return record
