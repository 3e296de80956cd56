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

* ``blocks`` — a :class:`BlockStore`: committed blocks, the tx index
  (no receipts: a commit returns them and nothing reads one back), each
  block's *derived row* (proof state a service computes from the block,
  committed and dropped with it) and the *state rows* (the chain state
  at the height they name, committed with every group; none in memory,
  where the live state is the only image);
* ``records`` — a :class:`RecordStore`: the append-only provenance record
  list :class:`~repro.persist.provdb.ProvenanceDatabase` indexes;
* the :class:`MetaStore` surface (``put_meta`` / ``get_meta``) for state
  no block creates — the shard layout, the 2PC transfer WAL, the sync
  client's resume marker;
* ``sync()`` / ``close()``.

:class:`MemoryStorage` keeps lists and dicts (meta values still
round-trip through the canonical codec, so coordinator recovery reads
what it would read from disk).  :class:`DurableStorage` keeps one
directory: two segment logs (length-prefixed canonical encodings,
per-frame CRC-32; :mod:`repro.persist.segment`) and one sqlite database.

**One indexed log.**  Blocks and records are the same structure on
disk: a segment log whose live frames are located by the rows of one
sqlite table (``blocks`` by height, ``records`` by position).
:class:`~repro.persist.durable.IndexedLog` is that structure, used
twice, and holds the only copy of everything that keeps log and table in
step:

* the group write — frames first (flushed, fsynced when the caller says
  so), then every index row in one transaction (for blocks: the tx
  rows, derived rows and the group's state rows), so the sqlite commit
  is the commit point and a group is on disk entirely or not at all;
* the recovery walk run on open — back from the highest-*addressed* row
  past rows whose frames fail CRC (with a per-table hook for the rows
  that share a dropped key's fate: a block's tx rows and derived row,
  and the state rows if they describe it),
  then truncate the log to the last indexed frame.  Every log this build
  writes is append-only, so address order is key order; the walk still
  goes by address because a records log an older binary annotated (an
  old position pointed at a newer frame) must recover too;
* the generation directory — ``<table>-log``, or ``<table>-log.g<N>``
  once a rewrite moved it (an older build's compaction; the fold of a
  cold tier below): the committed N says which is live, and any other
  is swept on open.  Blocks and records are only appended, so no log
  gathers dead frames to drop, and a records log an older binary
  annotated keeps the ones it already has;
* the read side — row lookup, frame read, one LRU of decoded values.

A sealed block is final; the one truncation is snapshot sync's unwind
of a tail it failed to install.  It deletes rows first and cuts the log
second, so a crash at *any* byte of either leaves the log ahead of the
index, which is the one state the walk reconciles — the property
``tests/test_persist.py`` exercises byte by byte on every table.

**Blocks stay where they are written.**  A ledger is worth keeping
because anyone can replicate and check its history, so every full node
holds every block in its one block log and serves any height to a
replica or an auditor: there is no cold tier, no archival and no
compaction.  The in-memory :class:`ContentAddressedStore` is the
survey's IPFS stand-in; no chain stack uses it.

**Formats.**  A durable store carries one format number, sqlite's
``PRAGMA user_version``: 1 kept proof state as checkpointed meta blobs
(refused, ``format_too_old``: no upgrade path leads from it); 2 commits
it as derived rows; 3 keeps the cold tier in a segment log of its own; 4
keeps one index row per transaction — its receipt rides its ``txs`` row,
where 3 kept a second ``receipts`` table with its own key and height
index; 5 stores no receipt, and a ``txs`` row is three fixed-width
columns keyed by the 32-byte transaction hash (``WITHOUT ROWID``); 6
has no cold tier — the step 5 → 6 folds that log, in height order, into
the block log's next generation and drops its table; 7 commits the state
rows with each group — the step 6 → 7 drops the block hash that bound a
checkpointed image to its block, and the image with it when that hash
names no block the store holds.
A fresh store is born at the current format (stamped in its
schema transaction, no step run).  A store that reads 0 was written
before the number existed and is placed once, by format 1's blobs, and a
number above the build's is refused (``format_too_new``) — both before
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

**Restart without replay.**  Nothing derived is checkpointed.  A commit
group hands its store the group's net state change, and the durable
store upserts and deletes those ``state_entries`` rows and records the
group's head as the height they describe, in the group's own sqlite
transaction — so the rows always describe a block the store holds, and
``checkpoint()`` only fsyncs the logs and flushes the WAL.  A chain
reopened on the bundle loads the rows and re-executes only blocks above
their height (``blocks_replayed_on_open`` — 0 after a clean close and
after a process crash alike).  The rows lag the head only in a store
written before they committed with their blocks, or after a tail
installed without execution; recovery that drops the block they
describe drops them too, and the chain replays from genesis.  That is
the cost of a power loss at the wrong moment: an anchor or beacon block
is appended without an fsync (the next sealed round or checkpoint makes
it durable), so a power loss that keeps its group's sqlite commit but
not its frame drops the block and the rows with it.  A replay writes
its result back, so the next open replays nothing.  Anchor batches and
beacon rounds commit with their blocks as derived rows, so a restarted
deployment serves identical query and proof results.
"""

from .cas import CID, ContentAddressedStore
from .codec import canonical_decode, decode_block, encode_block
from .durable import (
    DurableBlockStore,
    DurableRecordStore,
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
    "MetaStore",
    "MemoryStorage",
    "MemoryBlockStore",
    "MemoryRecordStore",
    "BlockSequenceView",
    "DurableStorage",
    "DurableBlockStore",
    "DurableRecordStore",
    "ProvenanceDatabase",
    "ContentAddressedStore",
    "CID",
]
