"""Process-pool execution engine: beat the GIL on CPU-bound sealing.

Thread-pool sealing (PR 4) scales only because fsync and sqlite release
the GIL — Python-side validate/execute work still serializes.  This
package moves that work into worker *processes*:

* :class:`~repro.exec.pool.ProcessExecPool` — worker lifecycle, one-job-
  in-flight dispatch, death detection + epoch bookkeeping;
* :mod:`~repro.exec.worker` — the child-side loop: per-chain state
  replicas and block execution.

Design note: one commit skeleton, and the codec **is** the IPC format
---------------------------------------------------------------------

A worker executes; only the parent commits, and it commits through the
same skeleton as every other path
(:meth:`~repro.chain.blockchain.Blockchain._commit_group`).  The worker
runs :func:`~repro.chain.blockchain.execute_block` — the function the
chain itself executes with — against its replica under one snapshot and
returns the group's one net ``delta`` and the post-group state root.
Receipts are not stored, so a worker returns none, and a chain with
subscribers executes its own blocks.
:meth:`~repro.chain.blockchain.Blockchain.apply_executed_blocks` then
supplies the skeleton with three things: the ``delta`` to apply instead
of executing, the ``expected_state_root`` check that runs before
install, and ``encoded`` = the job frames the engine already holds.
Linkage validation, the group's one snapshot, its net state change
handed to the store as its state rows, the unwind or release and
subscriber fan-out are the skeleton's, so serial and process sealing
leave identical chain/state shape — and identical state rows — by
construction rather than by mirroring.  A round is fsynced
(``fsync=True``): it is a group commit like any other.

Jobs and results cross the pipe as canonical-codec payloads
(:mod:`repro.persist.codec` — the exact bytes the durable segment log
stores).  That buys three things:

1. **No second serialization format.**  Block frames encoded for the
   wire are byte-identical to the frames the durable store would write,
   so the parent encodes each block once and hands the same bytes to the
   worker job and, as ``encoded``, to the store's one write
   (:meth:`~repro.persist.stores.BlockStore.append_blocks`).  A store
   that keeps no bytes (the in-memory one) ignores them; nobody asks a
   store what it can do.
2. **The codec's round-trip discipline is already tested.**  Pickle
   would silently ship live objects (open handles, locks, the whole
   object graph); the canonical codec is closed over encodable values
   and *raises* on anything else — exactly the property an IPC boundary
   wants: a state delta either crosses byte-exact or the job fails.
3. **Validation for free.**  ``decode_block`` re-checks the merkle root
   and expected hash, so a corrupted or truncated IPC payload is
   detected at the boundary, same as a corrupted log frame.

Telemetry does not cross the pipe.  A job frame carries no trace
context and an ``ok`` reply no span or counter: it carries ``exec_s``,
the seconds its execution took, beside the delta, root and height.
The parent counts ``exec_worker_blocks_total`` /
``exec_worker_txs_total`` from the replies it commits and records
``exec.apply_blocks`` from ``exec_s`` under the round's trace context
(:meth:`~repro.obs.trace.Tracer.record_span`), so the round's trace
still chains submit → exec → commit → fsync and the worker keeps no
registry anyone reads.

Why beacon commitments stay byte-identical
------------------------------------------

A beacon leaf commits ``(shard, height, block_hash[, state_root])``:

* **Block hashes are execution-independent** — a block hash covers the
  header (merkle root over transactions, prev hash, height, ...), never
  receipts or post-state.  The parent builds the blocks; workers only
  execute them; the hashes are fixed before the job is sent.
* **State roots are content-determined and order-independent** —
  :meth:`~repro.chain.state.StateStore.state_root` folds per-entry
  digests, so a parent that *applies the worker's net group delta*
  holds entry-for-entry the same store as serial execution and produces
  the same root.  The parent recomputes its own root after the delta
  replay and refuses to commit on mismatch
  (:meth:`~repro.chain.blockchain.Blockchain.apply_executed_blocks`),
  so a diverging worker can never anchor state the parent did not
  reproduce.
* **Merge order is shard order** — exactly as in the in-process engine:
  results are committed as workers finish, but round entries are
  collected per shard and concatenated in shard order before the beacon
  anchor, so the round tree is independent of completion order.

Who verifies signatures: the parent
-----------------------------------

A job frame carries blocks, a base height and root, and maybe a state
image — never key material.  A worker checks each block's structure and
executes it; before it applies the delta,
:meth:`~repro.chain.blockchain.Blockchain.apply_executed_blocks` runs
the same per-transaction check :meth:`~repro.chain.blockchain.Blockchain.append_blocks`
runs, signature included when the chain requires one.  For a
transaction admission verified that check is one probe of the mark
admission left.  A bad signature fails it, and the shard's round falls
back in-process, where it fails the same way: the outcome is the
serial engine's.

Fallback: a worker that dies mid-round (or answers ``need_state`` /
``error``) costs nothing but time — the popped blocks are re-executed
in-process through the exact serial path, and the shard's replica is
re-imaged on the next round.  Replica staleness is detected by
``(worker epoch, base height, base state root)`` comparison, never
assumed.
"""

from .pool import ProcessExecPool
from .worker import in_worker, worker_main

__all__ = ["ProcessExecPool", "in_worker", "worker_main"]
