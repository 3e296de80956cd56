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
verdict on the transaction for every later re-check of that object), one
:meth:`~repro.chain.mempool.Mempool.add_batch` call per shard, and
lock-conflicted transactions rotate back to the queue head for the next
round.  Admission order per shard is queue order, so a pipelined stream
commits the same per-shard transaction sequence the synchronous path
would.

Backpressure contract
---------------------
A full queue **never drops silently**.  ``submit`` raises — and
``submit_many`` returns, paired per transaction — a structured
:class:`~repro.errors.QueueFull` signal carrying the queue's depth,
capacity, high watermark, and a retry-after estimate (rounds, and wall
time derived from the facade's recent round pace).  Watermark
accounting is explicit: a queue past its high watermark reports
saturated before it is full, so sources can shed load early.  The
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
height/tx/receipt row (``executemany``).  The fsync is the durability
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

Shards seal concurrently via the facade's thread pool (sqlite3, fsync,
and large hashes release the GIL), so wall-clock round time approaches
the slowest shard rather than the sum — see
:meth:`~repro.sharding.shardchain.ShardedChain.seal_round`.
"""

from .pipeline import IngestPipeline, IngestStats, QueueStats

__all__ = ["IngestPipeline", "IngestStats", "QueueStats"]
