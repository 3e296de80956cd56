"""High-throughput ingestion pipeline (design note).

The paper frames provenance capture as a continuous, high-rate stream —
IoT sensor readings, supply-chain scan events — that the ledger must
absorb without stalling the capture source.  The synchronous path
(:meth:`~repro.sharding.shardchain.ShardedChain.submit_many`) couples the
capture source to admission: every submit pays routing, validation, and
mempool insertion inline, and a full mempool used to surface as an
opaque ``mempool full`` exception.  This package decouples the two.

Queue model
-----------
One bounded FIFO queue **per shard** sits between submission and
admission (:class:`~repro.ingest.pipeline.IngestPipeline`).  ``submit``
routes a transaction (one router pass per batch, memoized namespace
hash) and parks it in its home shard's queue in O(1) — the capture
source never waits on admission, executor work, or storage.  A *pump*
step later drains each queue in admission batches: one signature-
verification pass per batch (``tx.verify_signature()``, which leaves its
verdict on the transaction for every later re-check of that object),
then the shard's edge — one
:meth:`~repro.sharding.shardchain.Shard.admit` call per batch, the same
function behind the synchronous ``submit`` doors, which holds back
lock-conflicted transactions, validates, de-duplicates, fits the
mempool's capacity and counts the time into the shard's round.  The
pipeline keeps only its own policy for what admission refuses:
lock-conflicted transactions and a full mempool's overflow rotate back
to the queue head for the next round, and an invalid transaction is
quarantined.  Admission order per shard is queue order, so a pipelined
stream commits the same per-shard transaction sequence the synchronous
path would.

Backpressure contract
---------------------
A full queue **never drops silently**.  ``submit`` raises — and
``submit_many`` returns, paired per transaction — a structured
:class:`~repro.errors.QueueFull` signal carrying the queue's depth,
capacity, high watermark, and a retry-after estimate (rounds, and wall
time derived from the facade's recent round pace).  Watermark
accounting is explicit: each queue's depth and high watermark are
published as the ``ingest_queue_depth`` and
``ingest_queue_high_watermark`` gauges, so sources can shed load before
a queue is full.  The
:class:`~repro.sharding.shardchain.SubmitReport` buckets — accepted /
queued / deferred / rejected / duplicates — partition every submitted
transaction; ``backpressure_summary()`` gives the per-shard counters a
capture source throttles on.

Group-commit durability points
------------------------------
Sealing drains mempools through the chain's group-commit surface
(:meth:`~repro.chain.blockchain.Blockchain.append_blocks`): a round's
blocks per shard go down as **one** buffered segment-log write finished
by **one** fsync, then **one** sqlite transaction covers every
height/tx row (``executemany``).  The fsync is the durability
point: when ``seal_round`` returns, the sealed blocks are on stable
storage — strictly stronger than a single append (the same write as a
group of one, with ``fsync=False`` deferring durability to the next
group or checkpoint), and cheaper, because the group amortizes the
write and index round-trips.  A crash anywhere inside a
group leaves either no index rows or all of them (frames are fsynced
before the index commit), so recovery truncates to a consistent
log+index boundary exactly as for single appends.  Record ingest group-
commits the same way through
:meth:`~repro.persist.durable.DurableRecordStore.append_many`.

Shards seal one after another inside the round, in shard order (a
thread pool measured slower: the shards' GIL holds serialise anyway) —
see :meth:`~repro.sharding.shardchain.ShardedChain.seal_round`.
"""

from .pipeline import IngestPipeline, IngestStats

__all__ = ["IngestPipeline", "IngestStats"]
