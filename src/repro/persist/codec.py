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
"""

from __future__ import annotations

from typing import Any

from ..chain.block import Block
from ..chain.receipts import Event, TransactionReceipt
from ..chain.transaction import Transaction, TxKind
from ..crypto.signatures import PublicKey
from ..errors import SerializationError, StorageError
from ..serialization import Pinned, canonical_encode

__all__ = [
    "MAX_DEPTH",
    "canonical_decode",
    "decode_at",
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
    value, end = decode_at(data, 0)
    if end != len(data):
        raise SerializationError(
            f"trailing bytes after canonical value ({len(data) - end})"
        )
    return value


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
    if pos >= len(data):
        raise SerializationError("truncated canonical value")
    tag = data[pos]
    if tag == _TAG_NONE:
        return None, pos + 1
    if tag == _TAG_TRUE:
        return True, pos + 1
    if tag == _TAG_FALSE:
        return False, pos + 1
    length, pos = read_length(data, pos + 1)
    if tag == _TAG_MAP or tag == _TAG_LIST:
        if depth >= MAX_DEPTH:
            raise SerializationError(
                f"canonical value nests deeper than {MAX_DEPTH}")
        depth += 1
        if tag == _TAG_LIST:
            value: Any = []
            for _ in range(length):
                item, pos = decode_at(data, pos, depth)
                value.append(item)
        else:
            value = {}
            previous = None
            for _ in range(length):
                key, pos = decode_at(data, pos, depth)
                if type(key) is not str:
                    raise SerializationError(
                        "mapping key must decode to str")
                # Strictly ascending = sorted and free of duplicates.
                if value and key <= previous:
                    raise SerializationError(
                        f"mapping key {key!r} out of canonical order")
                previous = key
                value[key], pos = decode_at(data, pos, depth)
        if pos >= len(data) or data[pos] != _TAG_END:
            raise SerializationError("unterminated container")
        return value, pos + 1
    end = pos + length
    body = data[pos:end]
    if len(body) != length:
        raise SerializationError("truncated scalar body")
    try:
        if tag == _TAG_STR:
            return body.decode("utf-8"), end
        if tag == _TAG_BYTES:
            return bytes(body), end
        if tag == _TAG_INT:
            value = int(body)
            spelled = b"%d" % value
        elif tag == _TAG_FLOAT:
            value = float(body)
            spelled = repr(value).encode("ascii")
        else:
            raise SerializationError(
                f"unknown canonical tag {bytes([tag])!r}")
    except ValueError:          # UnicodeDecodeError is one
        raise SerializationError(
            f"malformed scalar body {body[:32]!r}") from None
    if spelled != body:
        raise SerializationError(f"non-canonical number {body[:32]!r}")
    return value, end


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------
def _transaction_to_mapping(tx: Transaction) -> dict:
    m = tx.signing_body()
    if tx.signature is not None and tx.signer is not None:
        m["_sig"] = tx.signature
        m["_signer"] = tx.signer.key_bytes
    if tx.is_sealed:
        m["_sealed"] = True
    return m


def _transaction_from_mapping(m: dict) -> Transaction:
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
    if m.get("_sealed"):
        tx.seal()
    return tx


# The splice below leans on two facts about the mapping form, checked
# once here: the signing body is a six-entry mapping (its encoding opens
# with _BODY_HEAD), and the three keys the mapping adds sort, in the
# order written, before every one of its keys.
_BODY_HEAD = b"d6:"
_body_keys = Transaction("", TxKind.DATA, {}).signing_body().keys()
assert len(_body_keys) == 6
assert "_sealed" < "_sig" < "_signer" < min(_body_keys)


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
    return Pinned(head + tx._encoded_body()[len(_BODY_HEAD):])


# Public aliases: the mapping form is also the *wire* form — the
# gateway (repro.gateway) batches many of these inside one canonical
# length-prefixed frame, so a transaction decoded off the socket
# re-encodes to the same bytes it is hashed and signed over.
def transaction_to_mapping(tx: Transaction) -> dict:
    """Canonical-encodable mapping for one transaction (signature,
    signer key, and seal flag included when present)."""
    return _transaction_to_mapping(tx)


def transaction_from_mapping(m: dict) -> Transaction:
    """Exact inverse of :func:`transaction_to_mapping`."""
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
    m = canonical_decode(payload)
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
