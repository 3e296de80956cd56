"""The storage layer: one ``Storage`` shape, memory or durable.

Design note
-----------

The SOK paper's provenance systems assume the ledger *survives*: SciChain
makes durable, auditable storage the core of trustworthy scientific
provenance, and the smart-contract provenance managers it surveys all
depend on a persistent, tamper-evident store.  This package is that
store, and nothing in it imports the layers built on it (``sharding``,
``sync``, the survey-facing ``storage`` name).

**One shape.**  Every chain stack — a shard, the beacon, a replica —
opens on one :class:`~repro.persist.stores.Storage` bundle and never asks
which kind it got:

* ``blocks`` — a :class:`BlockStore`: committed blocks, the tx index,
  receipts, and each block's *derived row* (proof state a service
  computes from the block, committed and dropped with it);
* ``records`` — a :class:`RecordStore`: the append-only provenance record
  list :class:`~repro.persist.provdb.ProvenanceDatabase` indexes;
* ``state`` — a :class:`StateSnapshotStore` for the checkpointed state
  image (``None`` in memory: there is nothing to reopen from, so a
  checkpoint copies nothing);
* the :class:`MetaStore` surface (``put_meta`` / ``get_meta``) for state
  no block creates — the shard layout, the 2PC transfer WAL, the sync
  client's resume marker;
* ``sync()`` / ``close()`` / ``tier()``.

:class:`MemoryStorage` keeps lists and dicts (meta values still
round-trip through the canonical codec, so coordinator recovery reads
what it would read from disk).  :class:`DurableStorage` keeps one
directory: three segment logs (length-prefixed canonical encodings,
per-frame CRC-32; :mod:`repro.persist.segment`) and one sqlite database.

**One indexed log.**  Hot blocks, cold blocks and records are the same
structure on disk: a segment log whose live frames are located by the
rows of one sqlite table (``blocks`` and ``cold_blocks`` by height,
``records`` by position).  :class:`~repro.persist.durable.IndexedLog` is
that structure, used three times, and holds the only copy of everything
that keeps log and table in step:

* the group write — frames first (flushed, fsynced when the caller says
  so), then every index row in one transaction, so the sqlite commit is
  the commit point and a group is on disk entirely or not at all;
* the recovery walk run on open — back from the highest-*addressed* row
  past rows whose frames fail CRC (with a per-table hook for the rows
  that share a dropped key's fate: a block's txs, receipts and derived
  row), then truncate the log to the last indexed frame.  Address order,
  not key order, because annotation (``replace``) repoints an old record
  at the newest frame; for blocks the two orders coincide;
* compaction — rewrite live frames into the next *generation* directory,
  repoint every row and bump the generation in one transaction;
* the read side — row lookup, frame read, one LRU of decoded values.

Truncation (reorg) deletes rows first and cuts the log second, so a crash
at *any* byte of either leaves the log ahead of the index, which is the
one state the walk reconciles — the property ``tests/test_persist.py``
and ``tests/test_tiering.py`` exercise byte by byte on every table.

**The cold tier is a log too.**  ``tier()`` moves blocks below the hot
tail into the ``cold_blocks`` log as one group whose transaction also
deletes their hot rows, then compacts the hot log; the store reads a
height from whichever table holds it.  An archived frame is therefore
the same CRC-framed bytes a header scan finds and the same walk
recovers — no second format, no pin set, no per-frame file.  Snapshot
sync serves raw frames from the hot tail only (``ColdHistory`` below
it).  The in-memory :class:`ContentAddressedStore` is the survey's IPFS
stand-in; no chain stack uses it.

**Formats.**  A durable store carries one format number, sqlite's
``PRAGMA user_version``: 1 kept proof state as checkpointed meta blobs
(refused, ``format_too_old``: no upgrade path leads from it); 2 commits
it as derived rows; 3 keeps the cold tier in the ``cold_blocks`` log.
A store that reads 0 was written before the number existed and is
placed once, by format 1's blobs (a fresh store is 2), and a number
above the build's is refused (``format_too_new``) — both before
anything is written.  Every upgrade runs at one site, the open: an
ordered tuple of ``(from_version, step)`` entries, so a new format is
one more entry and no new probe.  The crash rule: a step is idempotent
from its start version and the number moves only after its last
effect, so a crash leaves either version and the next open converges.

**Why the hash encoding is the wire format.**  Frames hold the *same*
canonical bytes every hash and signature already commits to
(:mod:`repro.serialization`), and :func:`repro.persist.codec.canonical_decode`
is its exact inverse.  A block read back from disk therefore re-hashes to
the block hash the index recorded — corruption surfaces as a hash
mismatch, never as silently different data, which is precisely the
tamper-evidence argument the chain itself makes.

**Restart without replay.**  ``checkpoint()`` saves the state image at
the head, and a chain reopened on the same bundle restores it and
re-executes only blocks above it (``blocks_replayed_on_open`` — 0 after a
clean close).  Anchor batches and beacon rounds commit with their blocks
as derived rows, so a restarted deployment serves identical query and
proof results with no genesis replay, wherever it died.
"""

from .cas import CID, ContentAddressedStore
from .codec import canonical_decode, decode_block, encode_block
from .durable import (
    DurableBlockStore,
    DurableRecordStore,
    DurableStateSnapshotStore,
    DurableStorage,
)
from .provdb import ProvenanceDatabase
from .segment import FRAME_OVERHEAD, CrashPoint, LogLocation, SegmentLog
from .stores import (
    BlockSequenceView,
    BlockStore,
    MemoryBlockStore,
    MemoryRecordStore,
    MemoryStorage,
    MetaStore,
    RecordStore,
    StateSnapshotStore,
    Storage,
)

__all__ = [
    "canonical_decode",
    "encode_block",
    "decode_block",
    "SegmentLog",
    "LogLocation",
    "CrashPoint",
    "FRAME_OVERHEAD",
    "Storage",
    "BlockStore",
    "RecordStore",
    "StateSnapshotStore",
    "MetaStore",
    "MemoryStorage",
    "MemoryBlockStore",
    "MemoryRecordStore",
    "BlockSequenceView",
    "DurableStorage",
    "DurableBlockStore",
    "DurableRecordStore",
    "DurableStateSnapshotStore",
    "ProvenanceDatabase",
    "ContentAddressedStore",
    "CID",
]
