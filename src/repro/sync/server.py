"""Snapshot server: serves one shard's image + block tail to replicas.

The server is deliberately *untrusted* by its clients: everything it
serves is either hash-bound to the manifest (chunks), hash-chained to
the head (tail frames), or beacon-anchored (the head itself, via the
:class:`~repro.sharding.beacon.BeaconLightBundle` mapping shipped with
every offer).  A correct client therefore accepts nothing on the
server's word alone — see :mod:`repro.sync.client`.

:attr:`SnapshotServer.service` is the :class:`~repro.rpc.Service` with
the three ``sync/*`` ops; attach it to either carrier
(:meth:`~repro.network.node.ChainNode.serve_sync`,
:meth:`~repro.gateway.server.GatewayServer.serve`).

Serving is cheap by construction:

* the image (state entries + records) is built once per head and
  cached; chunk requests are list lookups;
* tail blocks are the store's own wire material
  (:meth:`~repro.persist.stores.BlockStore.raw_block_items`): straight
  off a durable store's segment log as raw frames — no decode — and
  framed on demand by an in-memory one.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ColdHistory, ShardError, SyncError
from ..obs.runtime import telemetry as default_telemetry
from ..rpc import Service
from .codec import (
    DEFAULT_CHUNK_SIZE,
    SnapshotManifest,
    bundle_to_mapping,
    encode_image,
    typed,
)

OP_OFFER, OP_CHUNK, OP_TAIL = SYNC_OPS = \
    ("sync/offer", "sync/chunk", "sync/tail")


@dataclass
class _CachedImage:
    manifest: SnapshotManifest
    chunks: list[bytes]


class SnapshotServer:
    """Serves snapshot offers, image chunks, and block tails for every
    shard of one :class:`~repro.sharding.shardchain.ShardedChain`.

    ``offer`` / ``chunk`` / ``tail`` build the reply fields;
    :attr:`service` puts them on the wire.
    """

    def __init__(self, sharded, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 max_tail_blocks: int = 512) -> None:
        self.sharded = sharded
        self.chunk_size = chunk_size
        self.max_tail_blocks = max_tail_blocks
        # Per shard, the most recent images (newest last).  Keeping the
        # previous head's image alive lets a client that started
        # downloading before the source sealed another round finish its
        # chunks instead of failing over mid-sync.
        self._images: dict[int, list[_CachedImage]] = {}
        self._images_kept = 2
        # Plain-int attrs are the accessor API the tests/benches read;
        # the registry counters mirror them per serve (serving is cold
        # path — one inc per network request costs nothing that
        # matters).
        self.offers_served = 0
        self.chunks_served = 0
        self.tail_blocks_served = 0
        registry = default_telemetry().registry
        self._m_offers = registry.counter("sync_offers_served_total")
        self._m_chunks = registry.counter("sync_chunks_served_total")
        self._m_tail = registry.counter("sync_tail_blocks_served_total")

        def handler(name: str, *fields: str):
            # Looked up on ``self`` per request, so a subclass (or a
            # test's patched method) is what gets served.
            return lambda body, _: [dict(
                getattr(self, name)(*(typed(body[f], int) for f in fields)),
                op=f"sync/{name}_ok")]

        self.service = Service({
            OP_OFFER: handler("offer", "shard_id"),
            OP_CHUNK: handler("chunk", "shard_id", "height", "index"),
            OP_TAIL: handler("tail", "shard_id", "start", "count", "upto"),
        })

    # ------------------------------------------------------------------
    # Offers
    # ------------------------------------------------------------------
    def offer(self, shard_id: int) -> dict:
        """Build (or refresh) the shard's snapshot image and return the
        manifest plus the beacon light bundle proving its head."""
        try:
            shard = self.sharded.shard(shard_id)
        except ShardError as exc:
            raise SyncError(str(exc), reason="bad_request",
                            shard_id=shard_id) from exc
        height = shard.chain.height
        if height < 1:
            raise SyncError(
                f"shard {shard_id} has no blocks beyond genesis",
                reason="stale_snapshot", shard_id=shard_id,
            )
        entry = self.sharded.beacon.anchored_entry(shard_id, height)
        if entry is None or not entry[3]:
            raise SyncError(
                f"shard {shard_id} head {height} is not beacon-anchored "
                "with a state commitment; seal a round first",
                reason="unanchored_head", shard_id=shard_id,
            )
        head_hash = shard.chain.head.block_hash
        image = self._image_for(shard, height, head_hash, entry[3])
        bundle = self.sharded.beacon.light_bundle(
            shard_id, height, head_hash
        )
        self.offers_served += 1
        self._m_offers.inc()
        return {
            "manifest": image.manifest.to_mapping(),
            "bundle": bundle_to_mapping(bundle),
        }

    def _image_for(self, shard, height: int, head_hash: bytes,
                   state_root: bytes) -> _CachedImage:
        kept = self._images.setdefault(shard.shard_id, [])
        for cached in kept:
            if cached.manifest.height == height \
                    and cached.manifest.block_hash == head_hash:
                return cached
        image_bytes = encode_image(
            shard.chain.state.dump_entries(),
            shard.database.records(),
        )
        manifest, chunks = SnapshotManifest.for_image(
            shard_id=shard.shard_id,
            chain_id=shard.chain.chain_id,
            height=height,
            block_hash=head_hash,
            state_root=state_root,
            image=image_bytes,
            chunk_size=self.chunk_size,
        )
        cached = _CachedImage(manifest=manifest, chunks=chunks)
        kept.append(cached)
        del kept[:-self._images_kept]
        return cached

    # ------------------------------------------------------------------
    # Chunks
    # ------------------------------------------------------------------
    def chunk(self, shard_id: int, height: int, index: int) -> dict:
        cached = next(
            (c for c in self._images.get(shard_id, ())
             if c.manifest.height == height), None,
        )
        if cached is None:
            raise SyncError(
                f"no current image for shard {shard_id} at height "
                f"{height}; re-request an offer",
                reason="stale_snapshot", shard_id=shard_id,
            )
        if not 0 <= index < len(cached.chunks):
            raise SyncError(f"chunk index {index} out of range",
                            reason="bad_request", shard_id=shard_id)
        self.chunks_served += 1
        self._m_chunks.inc()
        return {"index": index, "data": cached.chunks[index]}

    # ------------------------------------------------------------------
    # Block tail
    # ------------------------------------------------------------------
    def tail(self, shard_id: int, start: int, count: int,
             upto: int) -> dict:
        try:
            shard = self.sharded.shard(shard_id)
        except ShardError as exc:
            raise SyncError(str(exc), reason="bad_request",
                            shard_id=shard_id) from exc
        upto = min(upto, shard.chain.height)
        count = max(1, min(count, self.max_tail_blocks))
        span = min(start + count, upto + 1) - start
        try:
            items = shard.chain.store.raw_block_items(start, max(0, span))
        except ColdHistory as exc:
            raise SyncError(str(exc), reason="cold_history",
                            shard_id=shard_id) from exc
        self.tail_blocks_served += len(items)
        self._m_tail.inc(len(items))
        return {"start": start, "items": items,
                "head_height": shard.chain.height}
