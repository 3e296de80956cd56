"""Content-addressed store — the IPFS stand-in.

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

import os
from collections.abc import MutableMapping, MutableSet
from dataclasses import dataclass
from typing import Iterable, Iterator

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

    def put_many(self, blobs: Iterable[bytes]) -> list[CID]:
        return [self.put(blob) for blob in blobs]


# ----------------------------------------------------------------------
# File-backed CAS (cold-block archival)
# ----------------------------------------------------------------------
_DIGEST_LEN = 32


class _FileMap(MutableMapping):
    """digest → bytes mapping laid out as ``root/<hex[:2]>/<hex>``.

    Writes are tmp-file + ``os.replace`` + fsync, so every visible file
    is complete — a crash mid-put leaves at most an orphan tmp file,
    never a torn object (the CID *is* the integrity check anyway; the
    atomic write just keeps the failure loud instead of a hash
    mismatch on read)."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, digest: bytes) -> str:
        hexd = digest.hex()
        return os.path.join(self.root, hexd[:2], hexd)

    def __getitem__(self, digest: bytes) -> bytes:
        try:
            with open(self._path(digest), "rb") as fh:
                return fh.read()
        except OSError:
            raise KeyError(digest) from None

    def __setitem__(self, digest: bytes, value: bytes) -> None:
        path = self._path(digest)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(value)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        dir_fd = os.open(parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def __delitem__(self, digest: bytes) -> None:
        try:
            os.unlink(self._path(digest))
        except OSError:
            raise KeyError(digest) from None

    def __contains__(self, digest: object) -> bool:
        return isinstance(digest, bytes) and \
            os.path.exists(self._path(digest))

    def __iter__(self) -> Iterator[bytes]:
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".tmp"):
                    continue
                try:
                    yield bytes.fromhex(name)
                except ValueError:
                    continue

    def __len__(self) -> int:
        return sum(1 for _ in self)


class _ManifestFileMap(_FileMap):
    """Manifests are concatenated 32-byte chunk digests on disk."""

    def __getitem__(self, digest: bytes) -> list[bytes]:
        packed = super().__getitem__(digest)
        if len(packed) % _DIGEST_LEN:
            raise StorageError(
                f"manifest file for {digest.hex()[:16]} is torn"
            )
        return [packed[i:i + _DIGEST_LEN]
                for i in range(0, len(packed), _DIGEST_LEN)]

    def __setitem__(self, digest: bytes, value) -> None:
        super().__setitem__(digest, b"".join(value))


class _PinLog(MutableSet):
    """Pin set persisted as an append-only ``+hex``/``-hex`` line log,
    replayed on open; a torn trailing line is ignored (the pin it was
    recording simply did not happen)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._pins: set[bytes] = set()
        self._fh = None
        try:
            with open(path, "r", encoding="ascii") as fh:
                for line in fh:
                    line = line.strip()
                    if len(line) != 1 + 2 * _DIGEST_LEN:
                        continue
                    try:
                        digest = bytes.fromhex(line[1:])
                    except ValueError:
                        continue
                    if line[0] == "+":
                        self._pins.add(digest)
                    elif line[0] == "-":
                        self._pins.discard(digest)
        except OSError:
            pass

    def _append(self, op: str, digest: bytes) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="ascii")
        self._fh.write(f"{op}{digest.hex()}\n")
        self._fh.flush()

    def add(self, digest: bytes) -> None:
        if digest not in self._pins:
            self._pins.add(digest)
            self._append("+", digest)

    def discard(self, digest: bytes) -> None:
        if digest in self._pins:
            self._pins.discard(digest)
            self._append("-", digest)

    def __contains__(self, digest: object) -> bool:
        return digest in self._pins

    def __iter__(self) -> Iterator[bytes]:
        return iter(set(self._pins))

    def __len__(self) -> int:
        return len(self._pins)

    def sync(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class FileCAS(ContentAddressedStore):
    """Disk-backed CAS with the exact semantics of the in-memory store.

    The archival tier's backend: cold block frames move here and the
    sqlite index repoints at CAS keys.  All of
    :class:`ContentAddressedStore`'s logic (chunking, manifests, dedup,
    GC, verification) is inherited unchanged — only the three backing
    containers are swapped for file-backed ones, so the two stores can
    never drift semantically.

    The default chunk size is much larger than the in-memory store's:
    archival moves whole block frames (kilobytes), and on disk every
    chunk is a file — pathological chunk counts cost inodes, not bytes.
    """

    DEFAULT_DIR_CHUNK_SIZE = 1 << 20

    def __init__(self, directory: str | os.PathLike,
                 chunk_size: int = DEFAULT_DIR_CHUNK_SIZE) -> None:
        super().__init__(chunk_size=chunk_size)
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._blobs = _FileMap(os.path.join(self.directory, "blobs"))
        self._manifests = _ManifestFileMap(
            os.path.join(self.directory, "manifests"))
        self._pins = _PinLog(os.path.join(self.directory, "pins.log"))

    def sync(self) -> None:
        """Make the pin log power-loss durable (blob files already are:
        each is fsynced before its atomic rename)."""
        self._pins.sync()

    def close(self) -> None:
        self._pins.close()
