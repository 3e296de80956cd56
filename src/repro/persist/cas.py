"""Content-addressed store — the in-memory IPFS stand-in of the survey.

The surveyed systems (HealthBlock, Ahmed et al., the IPFS designs of
[33]) keep bulky data off-chain and anchor only its hash; this store is
what their reproductions and ``bench_eval_storage`` put that data in,
re-exported as :mod:`repro.storage.cas`.  No chain stack stores anything
here: a durable store's cold tier is a segment log of block frames
(:mod:`repro.persist.durable`).

Preserves the contract the surveyed designs rely on: ``put`` returns a
content identifier (CID) that is a hash of the content, so the CID stored
on-chain *is* an integrity check for the off-chain bytes.  Large blobs are
chunked and addressed through a root manifest, mirroring IPFS's DAG
layout closely enough that chunk-level dedup shows up in the storage
benches.

Pinning and garbage collection are included because provenance systems
must argue *availability*, not just integrity: unpinned content can be
collected, and a dangling on-chain CID is precisely the failure mode the
paper's RQ1 challenges section warns about.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hashing import hash_bytes
from ..errors import ObjectNotFound, StorageError

DEFAULT_CHUNK_SIZE = 4096
_CHUNK_DOMAIN = b"\x10"
_MANIFEST_DOMAIN = b"\x11"


@dataclass(frozen=True)
class CID:
    """A content identifier: hash of the addressed bytes."""

    digest: bytes
    kind: str = "raw"  # "raw" chunk or "manifest"

    @property
    def hex(self) -> str:
        return self.digest.hex()

    def __str__(self) -> str:
        return f"cid:{self.kind}:{self.hex[:16]}"

    def to_canonical(self) -> dict:
        return {"digest": self.digest, "kind": self.kind}


class ContentAddressedStore:
    """In-memory content-addressed blob store with chunking and GC."""

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self._blobs: dict[bytes, bytes] = {}          # digest -> bytes
        self._manifests: dict[bytes, list[bytes]] = {}  # digest -> chunk digests
        self._pins: set[bytes] = set()
        self.puts = 0
        self.gets = 0
        self.dedup_hits = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, content: bytes, pin: bool = True) -> CID:
        """Store ``content``; returns its CID.

        Content at or under the chunk size is stored as a single raw
        blob; larger content is chunked and addressed via a manifest.
        """
        if not isinstance(content, (bytes, bytearray)):
            raise StorageError("CAS stores bytes; encode first")
        content = bytes(content)
        self.puts += 1
        if len(content) <= self.chunk_size:
            cid = self._put_chunk(content)
        else:
            chunk_digests = []
            for offset in range(0, len(content), self.chunk_size):
                chunk = content[offset:offset + self.chunk_size]
                chunk_digests.append(self._put_chunk(chunk).digest)
            manifest_digest = hash_bytes(b"".join(chunk_digests),
                                         _MANIFEST_DOMAIN)
            self._manifests[manifest_digest] = chunk_digests
            cid = CID(manifest_digest, kind="manifest")
        if pin:
            self._pins.add(cid.digest)
        return cid

    def _put_chunk(self, chunk: bytes) -> CID:
        digest = hash_bytes(chunk, _CHUNK_DOMAIN)
        if digest in self._blobs:
            self.dedup_hits += 1
        else:
            self._blobs[digest] = chunk
        return CID(digest, kind="raw")

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, cid: CID) -> bytes:
        """Fetch content by CID; verifies integrity on the way out."""
        self.gets += 1
        if cid.kind == "raw":
            blob = self._blobs.get(cid.digest)
            if blob is None:
                raise ObjectNotFound(f"no blob for {cid}")
            if hash_bytes(blob, _CHUNK_DOMAIN) != cid.digest:
                raise StorageError(f"stored blob corrupted for {cid}")
            return blob
        chunk_digests = self._manifests.get(cid.digest)
        if chunk_digests is None:
            raise ObjectNotFound(f"no manifest for {cid}")
        parts = []
        for digest in chunk_digests:
            chunk = self._blobs.get(digest)
            if chunk is None:
                raise ObjectNotFound(
                    f"manifest {cid} references a collected chunk"
                )
            # Latent-bug fix: the manifest path used to skip the per-chunk
            # integrity check the raw path performs, silently returning
            # corrupted bytes for multi-chunk content.
            if hash_bytes(chunk, _CHUNK_DOMAIN) != digest:
                raise StorageError(f"stored chunk corrupted under {cid}")
            parts.append(chunk)
        return b"".join(parts)

    def has(self, cid: CID) -> bool:
        if cid.kind == "raw":
            return cid.digest in self._blobs
        return cid.digest in self._manifests

    def verify(self, cid: CID, content: bytes) -> bool:
        """Does ``content`` hash to ``cid``? (Integrity check against an
        on-chain anchor without touching the store.)"""
        if cid.kind == "raw":
            return hash_bytes(content, _CHUNK_DOMAIN) == cid.digest
        digests = []
        for offset in range(0, len(content), self.chunk_size):
            chunk = content[offset:offset + self.chunk_size]
            digests.append(hash_bytes(chunk, _CHUNK_DOMAIN))
        return hash_bytes(b"".join(digests), _MANIFEST_DOMAIN) == cid.digest

    # ------------------------------------------------------------------
    # Pinning & GC
    # ------------------------------------------------------------------
    def pin(self, cid: CID) -> None:
        if not self.has(cid):
            raise ObjectNotFound(f"cannot pin unknown {cid}")
        self._pins.add(cid.digest)

    def unpin(self, cid: CID) -> None:
        self._pins.discard(cid.digest)

    def collect_garbage(self) -> int:
        """Drop every blob/manifest not reachable from a pin.

        Returns the number of objects removed.
        """
        live_chunks: set[bytes] = set()
        live_manifests: set[bytes] = set()
        for digest in self._pins:
            if digest in self._manifests:
                live_manifests.add(digest)
                live_chunks.update(self._manifests[digest])
            elif digest in self._blobs:
                live_chunks.add(digest)
        removed = 0
        for digest in list(self._blobs):
            if digest not in live_chunks:
                del self._blobs[digest]
                removed += 1
        for digest in list(self._manifests):
            if digest not in live_manifests:
                del self._manifests[digest]
                removed += 1
        return removed

    # ------------------------------------------------------------------
    @property
    def stored_bytes(self) -> int:
        return sum(len(b) for b in self._blobs.values())

    @property
    def object_count(self) -> int:
        return len(self._blobs) + len(self._manifests)

