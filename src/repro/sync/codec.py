"""Wire codec for snapshot sync: image chunking, manifests, frame scans.

Three concerns, all byte-exact:

* **Image encoding** — one shard's snapshot material (state entries,
  provenance records) as a single canonical byte string, split into
  fixed-size chunks that are downloaded, verified, and resumed
  independently.
* **Manifest** — the contract the client holds the server to: the
  snapshot's shard / height / head block hash / state root plus the
  domain-separated hash of every chunk.  The manifest itself is *not*
  trusted as received — the client cross-checks its height, head hash,
  and state root against a beacon-anchored commitment before any chunk
  is accepted.  That commitment — the offer's beacon bundle — crosses
  the wire in :mod:`repro.verify`'s codec
  (:func:`~repro.verify.bundle_from_mapping`), not this module's.
* **Header scan** — a structural parse of a raw block frame (the
  canonical block encoding the segment logs store) that extracts the
  header fields *without* constructing ``Transaction`` objects or
  rebuilding the Merkle tree.  Hash-chaining scanned headers from
  genesis to the beacon-verified head is how the client verifies a
  2 000-block tail at a small fraction of full-decode cost; the frame
  bytes are installed verbatim, so every later read still runs the full
  ``decode_block`` integrity check against the indexed hash.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.block import BlockHeader
from ..crypto.hashing import hash_bytes, hash_canonical
from ..errors import SerializationError, SyncError
from ..persist.codec import canonical_decode, decode_at, read_length
from ..serialization import canonical_encode
from ..verify import typed

# Domain separation for sync artifacts (string prefixes, like the state
# root's "state-root-v2:" — these never collide with the one-byte tags).
CHUNK_DOMAIN = b"sync-chunk-v1:"
MANIFEST_DOMAIN = b"sync-manifest-v1:"

DEFAULT_CHUNK_SIZE = 256 * 1024


def chunk_digest(data: bytes) -> bytes:
    """Domain-separated digest of one chunk's raw bytes."""
    return hash_bytes(data, CHUNK_DOMAIN)


def split_chunks(data: bytes, chunk_size: int) -> list[bytes]:
    """Split ``data`` into ``chunk_size`` pieces (last may be short).
    An empty payload still yields one (empty) chunk so the manifest
    always has at least one verifiable unit."""
    if chunk_size < 1:
        raise SyncError("chunk_size must be >= 1", reason="bad_manifest")
    if not data:
        return [b""]
    return [data[i:i + chunk_size]
            for i in range(0, len(data), chunk_size)]


@dataclass(frozen=True)
class SnapshotManifest:
    """Hash-bound description of one shard snapshot image.

    ``height`` / ``block_hash`` / ``state_root`` tie the image to one
    specific beacon-anchored shard head; ``chunk_hashes`` tie every
    downloadable chunk to the image.  ``chain_id`` pins the shard chain
    the image belongs to (a replica refuses an image for a different
    deployment).
    """

    shard_id: int
    chain_id: str
    height: int
    block_hash: bytes
    state_root: bytes
    chunk_size: int
    total_bytes: int
    chunk_hashes: tuple[bytes, ...]

    def to_mapping(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "chain_id": self.chain_id,
            "height": self.height,
            "block_hash": self.block_hash,
            "state_root": self.state_root,
            "chunk_size": self.chunk_size,
            "total_bytes": self.total_bytes,
            "chunk_hashes": list(self.chunk_hashes),
        }

    @classmethod
    def from_mapping(cls, m: dict) -> "SnapshotManifest":
        try:
            return cls(
                shard_id=typed(m["shard_id"], int),
                chain_id=typed(m["chain_id"], str),
                height=typed(m["height"], int),
                block_hash=typed(m["block_hash"], bytes),
                state_root=typed(m["state_root"], bytes),
                chunk_size=typed(m["chunk_size"], int),
                total_bytes=typed(m["total_bytes"], int),
                chunk_hashes=tuple(typed(h, bytes)
                                   for h in m["chunk_hashes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SyncError(f"malformed manifest: {exc}",
                            reason="bad_manifest") from exc

    def digest(self) -> bytes:
        """Identity of this manifest (staging-resume match key)."""
        return hash_canonical(self.to_mapping(), MANIFEST_DOMAIN)

    @classmethod
    def for_image(cls, *, shard_id: int, chain_id: str, height: int,
                  block_hash: bytes, state_root: bytes,
                  image: bytes,
                  chunk_size: int = DEFAULT_CHUNK_SIZE,
                  ) -> tuple["SnapshotManifest", list[bytes]]:
        """Chunk ``image`` and build the matching manifest."""
        chunks = split_chunks(image, chunk_size)
        manifest = cls(
            shard_id=shard_id,
            chain_id=chain_id,
            height=height,
            block_hash=block_hash,
            state_root=state_root,
            chunk_size=chunk_size,
            total_bytes=len(image),
            chunk_hashes=tuple(chunk_digest(c) for c in chunks),
        )
        return manifest, chunks


# ---------------------------------------------------------------------------
# Image payload (state + records, one canonical value)
# ---------------------------------------------------------------------------
def encode_image(state_entries, records) -> bytes:
    """One shard's snapshot material as canonical bytes."""
    return canonical_encode({
        "records": list(records),
        "state": [[ns, key, value] for ns, key, value in state_entries],
    })


def decode_image(data: bytes) -> dict:
    """Inverse of :func:`encode_image`; raises :class:`SyncError` when
    the bytes are not a well-formed image."""
    try:
        image = canonical_decode(data)
    except SerializationError as exc:
        raise SyncError(f"image does not decode: {exc}",
                        reason="corrupt_image") from exc
    if (not isinstance(image, dict)
            or not {"records", "state"} <= set(image)
            or type(image["records"]) is not list):
        raise SyncError("image lacks state/records sections",
                        reason="corrupt_image")
    image["state"] = [(str(ns), str(key), value)
                      for ns, key, value in image["state"]]
    return image


# ---------------------------------------------------------------------------
# Raw block-frame header scan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScannedBlock:
    """Header-level view of one raw block frame."""

    header: BlockHeader
    tx_count: int

    @property
    def block_hash(self) -> bytes:
        return self.header.block_hash

    @property
    def height(self) -> int:
        return self.header.height


def scan_block_frame(payload: bytes) -> ScannedBlock:
    """Parse the header of a raw block frame (canonical block encoding)
    without constructing transactions.

    The frame is the mapping :func:`repro.persist.codec.encode_block`
    writes with its keys in canonical (sorted) order, which puts
    ``transactions`` *last*: every header field is decoded normally,
    then only the transaction list's item count is read from its prefix
    — the list body itself is never walked.  The returned header
    recomputes the block hash from exactly the scanned content, so
    hash-chaining scanned headers is as trustworthy as hash-chaining
    decoded blocks at ~one SHA per block instead of one per
    transaction.  Transaction *bytes* are covered by the tail stream's
    CRC at install time and by the full ``decode_block`` hash check on
    every later read; the scan deliberately does not re-validate them.
    """
    if payload[:1] != b"d":
        raise SerializationError("block frame is not a canonical mapping")
    count, pos = read_length(payload, 1)
    fields: dict = {}
    tx_count = None
    for _ in range(count):
        key, pos = decode_at(payload, pos)
        if key == "transactions":
            if payload[pos:pos + 1] != b"l":
                raise SerializationError("transactions is not a sequence")
            tx_count, pos = read_length(payload, pos + 1)
            # Sorted keys make "transactions" the final entry: its body
            # runs to the frame's closing markers ("e" for the list,
            # "e" for the outer mapping).
            if payload[-2:] != b"ee":
                raise SerializationError("unterminated block frame")
            pos = len(payload) - 1
            break
        fields[key], pos = decode_at(payload, pos)
    if payload[pos:pos + 1] != b"e" or pos + 1 != len(payload):
        raise SerializationError("trailing bytes after block frame")
    if tx_count is None:
        raise SerializationError("block frame lacks a transaction list")
    try:
        header = BlockHeader(
            height=int(fields["height"]),
            prev_hash=bytes(fields["prev_hash"]),
            merkle_root=bytes(fields["merkle_root"]),
            timestamp=int(fields["timestamp"]),
            proposer=str(fields["proposer"]),
            consensus_meta=dict(fields["consensus_meta"]),
            nonce=int(fields["nonce"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"block frame lacks a header field: {exc}"
        ) from exc
    return ScannedBlock(header=header, tx_count=tx_count)
