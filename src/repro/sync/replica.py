"""Shard replica: a durable shard stack stood up by snapshot sync.

``ShardReplica`` owns a SimNet endpoint (a
:class:`~repro.network.node.ChainNode` that serves ``ops``), a store
directory, and — after :meth:`catch_up` — a fully opened
:class:`~repro.sharding.shardchain.Shard` stack (chain + provenance database + anchor service + query
engine) at the source's beacon-verified head, with **zero** genesis
replay: the chain reopens from the synced image, installed as the
store's state rows at the head (``blocks_replayed_on_open == 0``).

``catch_up`` fails over across peers: a byzantine or unreachable peer
surfaces as a structured :class:`~repro.errors.SyncError`, the store is
rolled back to its pre-sync base, and the next peer is tried.  Proof
*packaging* (:meth:`federated_proof`) uses the trusted beacon full
node the replica was spawned with; proof *verification* needs only
beacon headers, exactly as on the source.
"""

from __future__ import annotations

from ..chain import ChainParams
from ..errors import SyncError
from ..net_retry import RetryPolicy, failover
from ..network.node import ChainNode
from ..persist.durable import DurableStorage
from ..rpc import OP_OPS, Service, ops_handler
from ..sharding.query import package_federated_proof
from ..sharding.shardchain import Shard
from ..verify import FederatedProof
from .client import SnapshotClient, SyncReport


class ShardReplica:
    """One shard's catch-up-capable replica (see the module docstring)."""

    def __init__(
        self,
        shard_id: int,
        params: ChainParams,
        storage_dir: str,
        net,
        node_id: str,
        peers,
        beacon,
        anchor_batch_size: int,
    ) -> None:
        if not peers:
            raise SyncError("replica needs at least one peer to sync from",
                            reason="no_peers", shard_id=shard_id)
        self.shard_id = shard_id
        self.params = params
        self.storage_dir = storage_dir
        self.peers = list(peers)
        self.beacon = beacon
        self.anchor_batch_size = anchor_batch_size
        self.node = ChainNode(node_id, net)
        self.shard: Shard | None = None
        self.last_report: SyncReport | None = None
        # Replicas answer ``ops`` too: the process default registry
        # snapshot plus this replica's own sync status.
        self.node.serve(Service({OP_OPS: ops_handler(
            node=node_id, health=self.health)}))

    def health(self) -> dict:
        """Canonical-encodable status served on ``ops``."""
        shard = self.shard
        report = self.last_report
        return {
            "shard_id": self.shard_id,
            "synced": shard is not None,
            "height": shard.chain.height if shard is not None else 0,
            "last_sync_height": report.height if report is not None else 0,
            "last_sync_peer": report.peer if report is not None else "",
            "blocks_installed": (report.blocks_installed
                                 if report is not None else 0),
        }

    # ------------------------------------------------------------------
    # Catch-up
    # ------------------------------------------------------------------
    def catch_up(self, min_height: int = 1, deep_verify: bool = False,
                 max_retries: int = 8, tail_batch: int = 64,
                 crash_after_chunks: int | None = None) -> SyncReport:
        """Sync the store to the peers' beacon-anchored head and (re)open
        the shard stack on it.  Tries each peer in order; raises the last
        peer's :class:`~repro.errors.SyncError` if all fail.  The report
        of the peer that succeeded keeps, in ``errors``, what the peers
        before it were refused for."""
        local_height = self._local_height()
        if self.shard is not None:
            self.shard.close()
            self.shard = None
        if min_height <= 1 and local_height > 0:
            # Re-sync: never accept an offer behind what we already have.
            min_height = local_height

        policy = RetryPolicy(max_retries=max_retries)
        errors: list[dict] = []     # shared by every peer's report

        def sync_from(peer: str) -> SyncReport:
            client = SnapshotClient(
                channel=self.node.channel(peer, policy),
                shard_id=self.shard_id,
                storage_dir=self.storage_dir,
                beacon_header_for=self._beacon_header,
                chain_id=self.params.chain_id,
                min_height=min_height,
                tail_batch=tail_batch,
                deep_verify=deep_verify,
                crash_after_chunks=crash_after_chunks,
            )
            client.report.errors = errors
            return client.sync()

        self.last_report = failover(self.peers, sync_from)
        self._open()
        return self.last_report

    def _local_height(self) -> int:
        shard = self.shard
        return shard.chain.height if shard is not None else 0

    def _beacon_header(self, height: int):
        return self.beacon.chain.block_at(height).header

    def _open(self) -> None:
        self.shard = Shard(
            self.shard_id,
            self.params,
            DurableStorage(self.storage_dir),
            anchor_batch_size=self.anchor_batch_size,
        )

    def close(self) -> None:
        if self.shard is not None:
            self.shard.close()
            self.shard = None
        self.node.net.unregister(self.node.node_id)

    # ------------------------------------------------------------------
    # Serving (the replica answers the same queries as its source shard)
    # ------------------------------------------------------------------
    def _require_open(self) -> Shard:
        if self.shard is None:
            raise SyncError("replica has not caught up yet",
                            reason="not_synced", shard_id=self.shard_id)
        return self.shard

    @property
    def chain(self):
        return self._require_open().chain

    def history(self, subject: str) -> list[dict]:
        return self._require_open().query.history(subject)

    def federated_proof(self, record_id: str) -> FederatedProof:
        """Package one record's full evidence chain, exactly as the
        source facade's :meth:`~repro.sharding.query.ShardedQueryEngine.
        federated_proof` would."""
        return package_federated_proof(self._require_open(), self.beacon,
                                       record_id)
