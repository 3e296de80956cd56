"""Snapshot client: verified catch-up against an untrusted peer.

Trust model — the serving peer is assumed byzantine; the only trust
root is a source of **beacon block headers** (``beacon_header_for``).
The client talks to the peer through a *channel* (:mod:`repro.rpc`:
SimNet or TCP, it cannot tell) and everything that comes back is reply
bytes it decodes itself.  Every accepted artifact is walked back to the
trust root:

1. *Offer*: the manifest's ``(shard, height, head hash, state root)``
   must be proven by the accompanying beacon light bundle — a mapping
   :func:`~repro.verify.bundle_from_mapping` rebuilds fail-closed —
   against a beacon header the client fetched from its own trust root.
2. *Chunks*: each chunk must hash to its manifest entry; the assembled
   image's state entries must recompute exactly the beacon-anchored
   state root.
3. *Tail*: raw block frames are header-scanned (no decode) and
   hash-chained from the replica's current base to the head; the final
   hash must equal the beacon-verified head hash, or everything
   installed by this attempt is truncated away before the error
   surfaces.  Frames are installed byte-identical, so later reads still
   run the full ``decode_block`` integrity check.
4. *Records*: the replica's own records must be the image's prefix
   (records are append-only: none is ever rewritten), and every image
   record an installed anchor row covers must hash to its leaf, or
   nothing is appended and the tail is truncated away
   (``forged_record``).

Crash resumability — downloaded chunks are staged under the replica's
store directory and re-verified (against the *new* offer) on restart;
installed blocks persist in the store, and a ``sync_base`` meta marker
remembers where this sync started so a crashed-and-resumed attempt (or
a failover to a second peer) can always wipe back to pre-sync state.
The image becomes the store's state rows last, after the tail and the
records: until then the rows lag the installed head (a reopen would
replay it), and a wipe below them drops them with the blocks they
described.
The ``crash_after_chunks`` hook injects a mid-download kill the same
way ``SegmentLog.fail_after_bytes`` injects mid-write crashes.
"""

from __future__ import annotations

import os
import shutil
import zlib
from dataclasses import dataclass, field

from ..chain.block import GENESIS_PREV_HASH
from ..chain.state import StateStore
from ..crypto.hashing import HASH_SIZE
from ..crypto.merkle import root_of
from ..errors import AnchorError, GatewayError, RecordValidationError, \
    SerializationError, StorageError, SyncError
from ..obs.runtime import telemetry as default_telemetry
from ..persist.codec import canonical_decode, check_records, decode_block, \
    encode_record
from ..persist.durable import DurableStorage
from ..persist.segment import CrashPoint
from ..provenance.anchor import covered_leaves, verify_batch_row
from ..provenance.records import record_digest
from ..verify import BeaconLightBundle, bundle_from_mapping, typed
from .codec import SnapshotManifest, chunk_digest, decode_image, \
    scan_block_frame
from .server import OP_CHUNK, OP_OFFER, OP_TAIL

_STAGING_DIR = "sync-staging"
_MANIFEST_FILE = "manifest.bin"
_BASE_META_KEY = "sync_base"


@dataclass
class SyncReport:
    """What one :meth:`SnapshotClient.sync` actually did."""

    shard_id: int
    peer: str
    height: int = 0
    head_hash: bytes = b""
    blocks_installed: int = 0
    chunks_downloaded: int = 0
    chunks_reused: int = 0
    state_entries: int = 0
    records_installed: int = 0
    bytes_received: int = 0
    requests: int = 0
    retries: int = 0
    resumed: bool = False
    errors: list[dict] = field(default_factory=list)


class SnapshotClient:
    """Catches one shard replica's store up to a beacon-verified head:
    one client, one :meth:`sync` against one peer."""

    def __init__(
        self,
        channel,
        shard_id: int,
        storage_dir: str,
        beacon_header_for,
        chain_id: str | None = None,
        min_height: int = 1,
        tail_batch: int = 64,
        deep_verify: bool = False,
        crash_after_chunks: int | None = None,
    ) -> None:
        self.channel = channel
        self.peer = channel.peer
        self.shard_id = shard_id
        self.storage_dir = os.fspath(storage_dir)
        self.beacon_header_for = beacon_header_for
        self.chain_id = chain_id
        self.min_height = min_height
        self.tail_batch = tail_batch
        self.deep_verify = deep_verify
        self.crash_after_chunks = crash_after_chunks
        self.report = SyncReport(shard_id=shard_id, peer=self.peer)

    def _fail(self, message: str, reason: str, detail: str = "") -> SyncError:
        err = SyncError(message, reason=reason, shard_id=self.shard_id,
                        peer=self.peer, detail=detail)
        self.report.errors.append(err.as_dict())
        return err

    def _request(self, op: str, **fields) -> dict:
        """One exchange with the peer; its refusal, silence or garbage
        all surface as this client's :class:`SyncError`."""
        try:
            return self.channel.call(
                {"op": op, "shard_id": self.shard_id, **fields})[-1]
        except GatewayError as exc:
            raise self._fail(f"{op} to peer {self.peer} failed: {exc}",
                             reason=exc.reason) from exc

    # ------------------------------------------------------------------
    # The sync pipeline
    # ------------------------------------------------------------------
    def sync(self) -> SyncReport:
        """Run offer → chunks → tail → install; returns the report.

        Fails closed: on any verification error the store is restored to
        its pre-sync base before :class:`~repro.errors.SyncError`
        propagates.

        Telemetry: the whole attempt runs under an (always-sampled —
        syncs are rare) ``sync.catch_up`` root span with fetch child
        spans, and the report's progress counters are mirrored into the
        registry even when the attempt fails mid-flight.
        """
        tel = default_telemetry()
        self._tracer = tel.tracer
        channel = self.channel
        requests, retries = channel.requests, channel.retries
        with self._tracer.root_span("sync.catch_up", sampled=True) as span:
            span.set_attr("shard", self.shard_id)
            span.set_attr("peer", self.peer)
            try:
                report = self._sync_impl()
            finally:
                self.report.requests = channel.requests - requests
                self.report.retries = channel.retries - retries
                self._publish_metrics(tel.registry)
            span.set_attr("height", report.height)
            span.set_attr("blocks", report.blocks_installed)
            return report

    def _publish_metrics(self, registry) -> None:
        report = self.report
        for name, value in (
            ("sync_chunks_downloaded_total", report.chunks_downloaded),
            ("sync_chunks_reused_total", report.chunks_reused),
            ("sync_tail_blocks_installed_total", report.blocks_installed),
            ("sync_bytes_received_total", report.bytes_received),
            ("sync_requests_total", report.requests),
            ("sync_retries_total", report.retries),
        ):
            if value > 0:
                registry.counter(name, shard=str(self.shard_id)).inc(value)

    def _sync_impl(self) -> SyncReport:
        storage = DurableStorage(self.storage_dir)
        try:
            manifest, bundle = self._verified_offer()
            base = storage.get_meta(_BASE_META_KEY)
            if base is None:
                base = storage.blocks.height()
                storage.put_meta(_BASE_META_KEY, base)
            else:
                base = int(base)
                self.report.resumed = True
            try:
                with self._tracer.span("sync.fetch_image") as fetch_span:
                    image = self._fetch_image(manifest)
                    fetch_span.set_attr(
                        "chunks", self.report.chunks_downloaded
                    )
                entries = self._verified_state(manifest, image)
                with self._tracer.span("sync.fetch_tail"):
                    self._fetch_tail(storage, manifest)
                self._install_image(storage, manifest, entries, base)
            except SyncError:
                # Wipe whatever this (or a crashed previous) attempt
                # installed so a failover to another peer starts clean.
                if storage.blocks.height() > base:
                    storage.blocks.truncate_above(base)
                raise
            storage.put_meta(_BASE_META_KEY, None)
            storage.sync()
            self._clear_staging()
            self.report.height = manifest.height
            self.report.head_hash = manifest.block_hash
            return self.report
        finally:
            # The image (every state entry + record, decoded) must not
            # outlive the sync.
            self._image = None
            storage.close()

    # -- offer ---------------------------------------------------------
    def _verified_offer(self) -> tuple[SnapshotManifest, BeaconLightBundle]:
        resp = self._request(OP_OFFER)
        try:
            manifest = SnapshotManifest.from_mapping(resp.get("manifest"))
            bundle = bundle_from_mapping(resp.get("bundle"))
        except SyncError as exc:
            raise self._fail(str(exc), reason=exc.reason) from exc
        if manifest.shard_id != self.shard_id:
            raise self._fail(
                f"offer is for shard {manifest.shard_id}, "
                f"wanted {self.shard_id}", reason="forged_offer",
            )
        if self.chain_id is not None and manifest.chain_id != self.chain_id:
            raise self._fail(
                f"offer is for chain {manifest.chain_id!r}, "
                f"wanted {self.chain_id!r}", reason="forged_offer",
            )
        if manifest.height < self.min_height:
            raise self._fail(
                f"stale snapshot: offered height {manifest.height} "
                f"below required {self.min_height}",
                reason="stale_snapshot",
            )
        proof = bundle.shard_proof
        if (proof.shard_id != manifest.shard_id
                or proof.height != manifest.height
                or proof.block_hash != manifest.block_hash
                or not manifest.state_root
                or proof.state_root != manifest.state_root):
            raise self._fail(
                "beacon bundle does not cover the offered "
                "(height, head hash, state root)", reason="forged_offer",
            )
        try:
            header = self.beacon_header_for(proof.beacon_height)
        except Exception as exc:  # noqa: BLE001 - any trust-root miss
            raise self._fail(
                f"no trusted beacon header at height "
                f"{proof.beacon_height}: {exc}", reason="forged_offer",
            ) from exc
        if header is None or not bundle.verify(header):
            raise self._fail(
                "offer head is not anchored under the trusted beacon "
                "header", reason="forged_offer",
            )
        return manifest, bundle

    # -- chunks (staged, resumable) -------------------------------------
    def _staging_path(self, *parts: str) -> str:
        return os.path.join(self.storage_dir, _STAGING_DIR, *parts)

    def _clear_staging(self) -> None:
        shutil.rmtree(self._staging_path(), ignore_errors=True)

    def _fetch_image(self, manifest: SnapshotManifest) -> bytes:
        staging = self._staging_path()
        manifest_path = self._staging_path(_MANIFEST_FILE)
        digest = manifest.digest()
        if os.path.isdir(staging):
            try:
                with open(manifest_path, "rb") as fh:
                    stale = fh.read() != digest
            except OSError:
                stale = True
            if stale:
                # The staged download belongs to a different image
                # (source advanced, or another peer's chunking).
                self._clear_staging()
        os.makedirs(staging, exist_ok=True)
        with open(manifest_path, "wb") as fh:
            fh.write(digest)
        chunks: list[bytes] = []
        downloaded = 0
        for index, expected in enumerate(manifest.chunk_hashes):
            path = self._staging_path(f"chunk-{index:06d}.bin")
            data = None
            try:
                with open(path, "rb") as fh:
                    staged = fh.read()
                if chunk_digest(staged) == expected:
                    data = staged
                    self.report.chunks_reused += 1
            except OSError:
                pass
            if data is None:
                data = self._request(OP_CHUNK, height=manifest.height,
                                     index=index).get("data")
                if type(data) is not bytes \
                        or chunk_digest(data) != expected:
                    raise self._fail(
                        f"chunk {index} does not hash to its manifest "
                        "entry", reason="corrupt_chunk",
                    )
                with open(path, "wb") as fh:
                    fh.write(data)
                self.report.bytes_received += len(data)
                self.report.chunks_downloaded += 1
                downloaded += 1
                if self.crash_after_chunks is not None \
                        and downloaded >= self.crash_after_chunks:
                    self.crash_after_chunks = None
                    raise CrashPoint(
                        f"injected client crash after {downloaded} "
                        "chunk downloads"
                    )
            chunks.append(data)
        image = b"".join(chunks)
        if len(image) != manifest.total_bytes:
            raise self._fail(
                f"assembled image is {len(image)} bytes; manifest "
                f"promises {manifest.total_bytes}", reason="corrupt_image",
            )
        return image

    # -- state verification ---------------------------------------------
    def _verified_state(self, manifest: SnapshotManifest,
                        image_bytes: bytes) -> list:
        try:
            image = decode_image(image_bytes)
        except SyncError as exc:
            self.report.errors.append(exc.as_dict())
            raise
        entries = image["state"]
        probe = StateStore()
        probe.load_entries(entries)
        if probe.state_root() != manifest.state_root:
            raise self._fail(
                "state image does not recompute the beacon-anchored "
                "state root", reason="state_root_mismatch",
            )
        self._image = image
        return entries

    # -- tail ------------------------------------------------------------
    def _fetch_tail(self, storage: DurableStorage,
                    manifest: SnapshotManifest) -> None:
        store = storage.blocks
        local = store.height()
        if local > manifest.height:
            raise self._fail(
                f"local store is at height {local}, beyond the offered "
                f"snapshot {manifest.height}", reason="stale_snapshot",
            )
        prev_hash = GENESIS_PREV_HASH if local < 0 \
            else store.head_block().block_hash
        while local < manifest.height:
            start = local + 1
            resp = self._request(OP_TAIL, start=start,
                                 count=self.tail_batch,
                                 upto=manifest.height)
            try:
                items = [
                    (typed(item["height"], int),
                     typed(item["frame"], bytes),
                     typed(item["crc"], int),
                     [typed(t, bytes) for t in item["tx_ids"]],
                     None if item.get("derived") is None
                     else typed(item["derived"], bytes))
                    for item in typed(resp["items"], list)
                ]
            except (KeyError, TypeError) as exc:
                raise self._fail(f"malformed tail batch: {exc}",
                                 reason="corrupt_block") from exc
            batch: list[dict] = []
            for height, frame, crc, tx_ids, derived in items:
                if height != start + len(batch):
                    raise self._fail(
                        f"tail item height {height} out of sequence "
                        f"(expected {start + len(batch)})",
                        reason="forged_tail",
                    )
                if height > manifest.height:
                    # Nothing above the beacon-verified head is ever
                    # installed: blocks up there have no anchored hash
                    # to terminate the chain check against.
                    raise self._fail(
                        f"tail block {height} is beyond the offered "
                        f"head {manifest.height}", reason="forged_tail",
                    )
                # Byte-exactness first: the CRC covers the whole frame
                # (the header scan below only walks header fields), so
                # any accidental corruption of transaction bytes is
                # rejected here; forged-but-consistent bytes are the
                # hash chain's and decode-on-read's problem.
                if zlib.crc32(frame) != crc:
                    raise self._fail(
                        f"tail frame at height {height} fails its CRC",
                        reason="corrupt_block",
                    )
                try:
                    scanned = scan_block_frame(frame)
                except SerializationError as exc:
                    raise self._fail(
                        f"tail frame at height {height} does not scan: "
                        f"{exc}", reason="corrupt_block",
                    ) from exc
                if scanned.height != height \
                        or scanned.header.prev_hash != prev_hash:
                    raise self._fail(
                        f"tail block {height} does not hash-chain to "
                        "its predecessor", reason="forged_tail",
                    )
                # The tx-index rows are the leaves of the header's
                # Merkle root, in order, or they are not installed.
                if root_of(tx_ids) != scanned.header.merkle_root:
                    raise self._fail(
                        f"tail block {height} transaction index does not "
                        "hash to its header's Merkle root",
                        reason="forged_tail",
                    )
                block_hash = scanned.block_hash
                if self.deep_verify or derived is not None:
                    # A proof row is never installed on the peer's word:
                    # its block is decoded and the row must hash to the
                    # root the anchor transaction in it committed.
                    try:
                        block = decode_block(frame,
                                             expected_hash=block_hash)
                        if derived is not None:
                            verify_batch_row(canonical_decode(derived),
                                             block)
                    except (SerializationError, StorageError,
                            AnchorError) as exc:
                        raise self._fail(
                            f"tail block {height} fails deep "
                            f"verification: {exc}", reason="forged_tail",
                        ) from exc
                batch.append({
                    "height": height,
                    "block_hash": block_hash,
                    "frame": frame,
                    "tx_ids": tx_ids,
                    "derived": derived,
                })
                prev_hash = block_hash
                self.report.bytes_received += len(frame)
            if not batch:
                raise self._fail(
                    f"peer served an empty tail batch at height {start} "
                    f"(head {manifest.height} unreached)",
                    reason="truncated_tail",
                )
            if batch[-1]["height"] == manifest.height \
                    and batch[-1]["block_hash"] != manifest.block_hash:
                raise self._fail(
                    "tail does not terminate at the beacon-verified "
                    "head hash", reason="forged_tail",
                )
            store.install_raw(batch)
            self.report.blocks_installed += len(batch)
            local = store.height()

    # -- final install ----------------------------------------------------
    def _install_image(self, storage: DurableStorage,
                       manifest: SnapshotManifest, entries: list,
                       base: int) -> None:
        """Append the image's new records, then install its state as
        the store's state rows at the offered height.

        The records are checked first against what the replica already
        trusts.  Its own records must be the image's prefix, as stored:
        records are never rewritten.  Every new record must pass the
        record rule (:func:`~repro.persist.codec.check_records`: its
        shape, its domain's schema, an id no other image record has).
        Every anchor row the store holds (each verified against its
        block's anchor transaction when the tail installed it) pairs
        its leaves with records the way a reopen does
        (:func:`covered_leaves`), and each leaf must have its record in
        the image.  A new record must hash to its leaf, and so must a
        stored one whose row this sync's tail brought (it was pending
        when installed).  Records past the last leaf — the source's
        pending batch — are shape-checked but not leaf-checked: nothing
        on-chain commits to them yet.  The replica's anchor service
        queues them as pending, no proof is served for them, and the
        catch-up that brings their row checks them.  Anything else
        fails closed with ``forged_record`` before a record is
        written."""
        records = self._image["records"]
        existing = len(storage.records)
        if existing > len(records):
            raise self._fail(
                f"replica already holds {existing} records; image has "
                f"only {len(records)}", reason="stale_snapshot",
            )
        if records[:existing] != list(storage.records.iter_records()):
            raise self._fail("image records do not extend the replica's",
                             reason="forged_record")
        ids = {record["record_id"]: position      # record id -> position
               for position, record in enumerate(records[:existing])}
        try:
            check_records(records[existing:],
                          lambda record: record["record_id"] in ids)
        except RecordValidationError as exc:
            raise self._fail(f"image record refused: {exc}",
                             reason="forged_record") from exc
        ids.update((record["record_id"], position) for position, record
                   in enumerate(records[existing:], existing))
        encoded = [encode_record(record) for record in records[existing:]]
        rows = list(storage.blocks.derived_rows())
        for (height, row), pairs in zip(rows, covered_leaves(rows, ids)[0]):
            leaves = [(leaf, ids.get(record_id, -1))
                      for leaf, record_id in pairs]
            if len(leaves) * HASH_SIZE != len(row[3]) or any(
                    i < 0 or (i >= existing or height > base)
                    and leaf != record_digest(records[i], encoded[i - existing]
                                              if i >= existing else None)
                    for leaf, i in leaves):
                raise self._fail(
                    f"image records do not match the leaves the anchor row "
                    f"of block {height} commits", reason="forged_record")
        storage.records.append_many(records[existing:], encoded)
        self.report.records_installed = len(records) - existing
        self.report.state_entries = len(entries)
        storage.blocks.install_state(manifest.height, entries)
