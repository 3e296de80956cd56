"""Snapshot sync: verified replica catch-up from an untrusted peer.

Design note
-----------

The paper's consortium deployments assume late joiners — a new member
org, a restarted node, an external auditor — can reach the current head
*without* replaying the chain from genesis and *without* trusting the
node that serves them.  State images, durable block logs and beacon
receipts are the local ingredients; this package is the protocol: three
ops in :mod:`repro.rpc`'s one request/response grammar.
:attr:`SnapshotServer.service` attaches to either carrier
(``ChainNode.serve_sync`` on SimNet, ``GatewayServer.serve`` on TCP) and
:class:`SnapshotClient` takes the matching channel (``ChainNode.channel``
or a :class:`~repro.gateway.client.GatewayClient`); neither end can tell
which carrier it is on, and nothing but encoded bytes crosses.

* ``sync/offer`` — :class:`SnapshotServer` answers with a
  :class:`~repro.sync.codec.SnapshotManifest` (shard, height, head
  hash, state root, per-chunk hashes) plus a
  :class:`~repro.sharding.beacon.BeaconLightBundle`, as a mapping,
  proving that exact ``(height, head hash, state root)`` triple is
  committed under a beacon header.  Sealing rounds tag each shard's
  head with its post-execution
  :meth:`~repro.chain.state.StateStore.state_root`, so the beacon — not
  the peer — vouches for the image.
* ``sync/chunk`` — the image (state entries + provenance records, one
  canonical byte string; **no proof state** — that travels with the
  blocks, below) in fixed-size chunks, each hash-checked against the
  manifest; downloads are staged on disk and resume by chunk index
  across client crashes.
* ``sync/tail`` — the block history as **raw segment-log frames**
  (served without decoding, installed without executing).  The client
  header-scans each frame (:func:`~repro.sync.codec.scan_block_frame`,
  no transaction objects, ~one SHA per block) and hash-chains genesis →
  head; the chain must terminate at the beacon-verified head hash or
  everything the attempt installed is truncated away.  An anchor
  block's frame arrives with its *derived row* (the batch's leaf
  digests, :mod:`repro.provenance.anchor`); the client decodes that
  block and installs the row only if it hashes to the root the anchor
  transaction committed (``reason="forged_tail"`` otherwise), and the
  replica's anchor service reloads from those rows exactly as a
  reopened source shard does.  A tiered source refuses heights it has
  archived (``reason="cold_history"``).

Trust recap — the serving peer is byzantine until proven otherwise:
chunk ⇒ manifest hash ⇒ beacon-anchored state root; frame ⇒ header
hash-chain ⇒ beacon-anchored head hash; proof row ⇒ Merkle root in that
frame's anchor transaction; anything else (forged offer,
stale snapshot, truncated tail, corrupt chunk, a field of the wrong
type, the peer's own ``error`` frame, its silence) fails closed with a
structured :class:`~repro.errors.SyncError` and
:meth:`~repro.sync.replica.ShardReplica.catch_up` retries the next
peer, keeping each refusal in the final report's ``errors``.  Record bodies, execution receipts, and the tail's tx-id index
rows are transport-checked (chunk hashes / frame CRCs) rather than
chain-committed — this chain commits none of them in block headers, so
that is exactly the trust level a source full node offers; pass
``deep_verify=True`` to additionally recompute every tail block's
transactions and tx ids from the frame bytes, and note that every
*verified* query on the replica still proves records against beacon
headers, so a forged image cannot produce a verified answer.
Installed frames are byte-identical to the source's log, so reads
re-run the full ``decode_block`` hash check and the replica serves
byte-identical query and proof results.

The payoff measured by ``benchmarks/bench_sync.py``: catch-up installs
state by :meth:`~repro.chain.state.StateStore.load_entries` and blocks
by raw-frame group commit, so a replica reaches a 2 000-block head with
``blocks_replayed_on_open == 0`` several times faster than the only
pre-sync alternative, re-executing every block from genesis.
"""

from .client import SnapshotClient, SyncReport
from .codec import (
    DEFAULT_CHUNK_SIZE,
    ScannedBlock,
    SnapshotManifest,
    chunk_digest,
    decode_image,
    encode_image,
    scan_block_frame,
    split_chunks,
)
from .replica import ShardReplica
from .server import SYNC_OPS, SnapshotServer

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "SYNC_OPS",
    "ScannedBlock",
    "ShardReplica",
    "SnapshotClient",
    "SnapshotManifest",
    "SnapshotServer",
    "SyncReport",
    "chunk_digest",
    "decode_image",
    "encode_image",
    "scan_block_frame",
    "split_chunks",
]
