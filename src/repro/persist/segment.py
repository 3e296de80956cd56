"""Append-only segment log — the durable backend's byte layer.

A log is a directory of numbered segment files (``seg-00000000.log``,
``seg-00000001.log``, …).  Entries are framed as

    [4-byte LE payload length][payload][4-byte LE CRC-32 of payload]

and addressed by ``(segment, offset)``.  Frames are always written raw;
the reader also accepts the zlib-compressed frames an older writer could
produce (see :data:`_FLAG_COMPRESSED`).  Frames never span segments:
when the current segment would exceed ``max_segment_bytes`` it is
*sealed* — flushed, fsynced, closed — and a new segment starts.
``sync()`` fsyncs the live segment on demand (the chain layer calls it at
checkpoints).

Crash recovery contract: a frame is *valid* iff its length prefix fits in
the file and the CRC matches.  A crash mid-write leaves a partial or
garbled tail; :meth:`frame_at` reports it invalid and the index layer
truncates back to the last entry it committed.  The ``fail_after_bytes``
fault-injection hook makes that scenario reproducible in tests: it is a
byte budget that counts down across writes, and the write that would
exceed it lands only the budgeted prefix and raises :class:`CrashPoint`,
exactly what ``kill -9`` mid-``write`` leaves behind.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import StorageError

# Telemetry handles, cached per default-telemetry instance (same
# pattern as repro.crypto.signatures).  Every durability point routes
# through _timed_fsync: the fsync latency histogram is the persist
# layer's headline metric, and the "persist.fsync" span implicitly
# nests under whatever seal/commit span is active on this thread.
_TELEMETRY_HANDLES: tuple | None = None


def _fsync_instruments() -> tuple:
    global _TELEMETRY_HANDLES
    from ..obs.runtime import telemetry

    tel = telemetry()
    handles = _TELEMETRY_HANDLES
    if handles is None or handles[0] is not tel:
        handles = (
            tel,
            tel.registry.histogram("persist_fsync_seconds"),
            tel.registry.counter("persist_fsyncs_total"),
            tel.tracer,
        )
        _TELEMETRY_HANDLES = handles
    return handles


def _timed_fsync(fd: int) -> None:
    _, hist, count, tracer = _fsync_instruments()
    with tracer.span("persist.fsync"):
        t0 = time.perf_counter()
        os.fsync(fd)
        hist.observe(time.perf_counter() - t0)
    count.inc()

_LEN = struct.Struct("<I")
FRAME_OVERHEAD = 8          # 4-byte length + 4-byte CRC
_MAX_PAYLOAD = 1 << 28      # 256 MiB sanity bound on the length prefix

# Bit 31 of the length word marks a zlib-compressed frame body.  The
# sanity bound leaves bits 28..31 clear in every raw frame, so the flag
# is unambiguous.  This build writes raw frames only, but a store written
# with the former zlib write mode still holds flagged frames: the reader
# keeps inflating them (CRC over the stored bytes, checked first), or the
# recovery walk would take them for torn writes and truncate evidence.
_FLAG_COMPRESSED = 0x8000_0000
_LEN_MASK = 0x7FFF_FFFF


class CrashPoint(StorageError):
    """Raised by the fault-injection hook to simulate a mid-write crash."""


@dataclass(frozen=True)
class LogLocation:
    """Address of one frame: segment number, byte offset, total frame length."""

    segment: int
    offset: int
    length: int

    @property
    def end_offset(self) -> int:
        return self.offset + self.length


def _segment_name(segment: int) -> str:
    return f"seg-{segment:08d}.log"


class SegmentLog:
    """Append-only, CRC-framed, segment-rolled byte log."""

    def __init__(self, directory: str | os.PathLike,
                 max_segment_bytes: int = 4 * 1024 * 1024) -> None:
        if max_segment_bytes < FRAME_OVERHEAD + 1:
            raise StorageError("max_segment_bytes is too small to hold a frame")
        self.directory = os.fspath(directory)
        self.max_segment_bytes = max_segment_bytes
        os.makedirs(self.directory, exist_ok=True)
        # Fault injection: a byte budget counted down across writes; the
        # write that would exceed it lands only the budgeted prefix,
        # flushes, and raises CrashPoint.
        self.fail_after_bytes: int | None = None
        self.appends = 0
        self.segments_sealed = 0
        # Fork guard: exec workers inherit this object (and possibly its
        # open write fd) across fork, but must never write — a child and
        # the parent sharing one append fd would interleave frames.  The
        # read path is fork-safe (fresh handle per read).
        self._owner_pid = os.getpid()
        segments = self._discover()
        self._current = segments[-1] if segments else 0
        # Size of the live segment, tracked in memory so the append hot
        # path never stats the filesystem.
        self._current_size = self.segment_size(self._current)
        self._write_fh = None   # opened lazily by append/truncate

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _discover(self) -> list[int]:
        found = []
        for name in os.listdir(self.directory):
            if name.startswith("seg-") and name.endswith(".log"):
                try:
                    found.append(int(name[4:-4]))
                except ValueError:
                    continue
        return sorted(found)

    def _path(self, segment: int) -> str:
        return os.path.join(self.directory, _segment_name(segment))

    def segment_size(self, segment: int) -> int:
        try:
            return os.path.getsize(self._path(segment))
        except OSError:
            return 0

    @property
    def current_segment(self) -> int:
        return self._current

    def end_location(self) -> tuple[int, int]:
        """``(segment, offset)`` one past the last byte written."""
        return self._current, self._current_size

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _open_for_append(self):
        if os.getpid() != self._owner_pid:
            raise StorageError(
                "segment log crossed a fork: only the owning process "
                "may append (exec workers hold no durable handles)"
            )
        if self._write_fh is None:
            self._write_fh = open(self._path(self._current), "ab")
        return self._write_fh

    def _seal_current(self) -> None:
        """Flush + fsync + close the live segment and start the next."""
        fh = self._open_for_append()
        fh.flush()
        _timed_fsync(fh.fileno())
        fh.close()
        self._write_fh = None
        self._current += 1
        self._current_size = 0
        self.segments_sealed += 1

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        """Frame one payload: length word, payload, CRC-32."""
        if len(payload) > _MAX_PAYLOAD:
            raise StorageError("payload exceeds the frame sanity bound")
        return _LEN.pack(len(payload)) + payload + _LEN.pack(
            zlib.crc32(payload))

    def append(self, payload: bytes) -> LogLocation:
        """Frame and append ``payload``; returns its address.  A group of
        one: flushed to the OS (readable by any other handle), with the
        fsync deferred to the next group, seal, sync or close."""
        return self.append_many([payload], fsync=False)[0]

    def append_many(self, payloads: Sequence[bytes],
                    fsync: bool = True) -> list[LogLocation]:
        """Group-commit append: frame every payload, write each segment's
        share as **one** buffered write, and (by default) fsync once at
        the end — the batch becomes the durability point.

        A group of N frames costs one write per segment touched, and
        with ``fsync`` the caller knows the whole group is on stable
        storage when the call returns.  Frames never span segments.

        The ``fail_after_bytes`` crash hook is honored across the
        *concatenated* group: the injected crash leaves a byte-exact
        prefix of the group on disk, so recovery tests can kill a group
        commit at any byte, including between two frames.
        """
        locations: list[LogLocation] = []
        chunk: list[bytes] = []
        chunk_bytes = 0
        for payload in payloads:
            if self._current_size + chunk_bytes >= self.max_segment_bytes \
                    and chunk:
                self._write_chunk(b"".join(chunk), fsync=False)
                chunk, chunk_bytes = [], 0
            if self._current_size >= self.max_segment_bytes:
                self._seal_current()
            frame = self._frame(payload)
            locations.append(LogLocation(
                self._current, self._current_size + chunk_bytes, len(frame)
            ))
            chunk.append(frame)
            chunk_bytes += len(frame)
        if chunk:
            self._write_chunk(b"".join(chunk), fsync=fsync)
        elif fsync:
            self.sync()
        self.appends += len(locations)
        return locations

    def _write_chunk(self, data: bytes, fsync: bool) -> None:
        """One buffered write of several already-framed entries into the
        live segment (crash hook honored byte-exactly: the budget counts
        down across the group's chunks, so a crash point beyond a
        segment roll lands at exactly the requested byte)."""
        fh = self._open_for_append()
        if self.fail_after_bytes is not None:
            if self.fail_after_bytes <= len(data):
                cut = self.fail_after_bytes
                self.fail_after_bytes = None
                fh.write(data[:cut])
                fh.flush()
                self._current_size += cut
                raise CrashPoint(
                    f"injected crash after {cut}/{len(data)} chunk bytes"
                )
            self.fail_after_bytes -= len(data)
        fh.write(data)
        fh.flush()
        self._current_size += len(data)
        if fsync:
            _timed_fsync(fh.fileno())

    def sync(self) -> None:
        """Flush + fsync the live segment (checkpoint durability)."""
        if self._write_fh is not None:
            self._write_fh.flush()
            _timed_fsync(self._write_fh.fileno())

    def close(self) -> None:
        if self._write_fh is not None:
            self._write_fh.flush()
            _timed_fsync(self._write_fh.fileno())
            self._write_fh.close()
            self._write_fh = None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def frame_info_at(self, segment: int,
                      offset: int) -> tuple[bytes, int] | None:
        """``(payload, on_disk_frame_length)`` for the frame at
        ``(segment, offset)``, or ``None`` if the frame is partial,
        garbled, or absent (CRC checked before decompression).

        The on-disk length is what the index stores in its ``length``
        column; for a compressed frame an older writer left it differs
        from ``len(payload) + FRAME_OVERHEAD``, so recovery must compare
        against this, never against the decoded payload size.
        """
        if self._write_fh is not None:
            self._write_fh.flush()
        path = self._path(segment)
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                head = fh.read(4)
                if len(head) != 4:
                    return None
                (word,) = _LEN.unpack(head)
                length = word & _LEN_MASK
                if length > _MAX_PAYLOAD:
                    return None
                body = fh.read(length + 4)
                if len(body) != length + 4:
                    return None
                stored, crc_bytes = body[:length], body[length:]
                if zlib.crc32(stored) != _LEN.unpack(crc_bytes)[0]:
                    return None
                if word & _FLAG_COMPRESSED:
                    stored = zlib.decompress(stored)
                return stored, FRAME_OVERHEAD + length
        except (OSError, zlib.error):
            return None

    def frame_at(self, segment: int, offset: int) -> bytes | None:
        """Payload of the frame at ``(segment, offset)``, or ``None`` if
        the frame is partial, garbled, or absent (CRC checked)."""
        info = self.frame_info_at(segment, offset)
        return None if info is None else info[0]

    def read(self, segment: int, offset: int) -> bytes:
        """Payload at an address the index vouches for; raises on damage."""
        payload = self.frame_at(segment, offset)
        if payload is None:
            raise StorageError(
                f"invalid frame at segment {segment} offset {offset} "
                "(index and log disagree — run recovery)"
            )
        return payload

    def scan(self, start: tuple[int, int] = (0, 0)
             ) -> Iterator[tuple[LogLocation, bytes]]:
        """Iterate valid frames from ``start``, stopping at the first
        invalid one (the recovery boundary)."""
        segment, offset = start
        while True:
            info = self.frame_info_at(segment, offset)
            if info is None:
                # End of this segment: advance iff a later segment exists.
                nxt = segment + 1
                if (offset == self.segment_size(segment)
                        and os.path.exists(self._path(nxt))):
                    segment, offset = nxt, 0
                    continue
                return
            payload, frame_length = info
            loc = LogLocation(segment, offset, frame_length)
            yield loc, payload
            offset = loc.end_offset

    # ------------------------------------------------------------------
    # Truncation (recovery + reorgs)
    # ------------------------------------------------------------------
    def truncate_to(self, segment: int, offset: int) -> None:
        """Discard every byte at/after ``(segment, offset)``.

        Used two ways: recovery truncates a garbled tail, and reorgs cut
        the log back to the fork point before appending the new suffix.
        """
        self.close()
        for seg in self._discover():
            if seg > segment:
                os.unlink(self._path(seg))
        path = self._path(segment)
        if os.path.exists(path):
            with open(path, "rb+") as fh:
                fh.truncate(offset)
        elif offset != 0:
            raise StorageError(
                f"cannot truncate into missing segment {segment}"
            )
        self._current = segment
        self._current_size = offset
