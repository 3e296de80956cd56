"""A blockchain node: chain replica + mempool + message dispatch.

``ChainNode`` is the unit the consensus clusters coordinate.  Each node
holds its own :class:`~repro.chain.blockchain.Blockchain` replica and
mempool; the consensus layer decides when a node may seal a block and how
commits propagate.

One-way topics (``tx``, ``block``, ``shard_tx``, gossip, consensus) carry
whatever their handlers agree on.  Anything that expects an answer speaks
:mod:`repro.rpc`'s frame grammar, and this module is its SimNet carrier:
:meth:`ChainNode.serve` feeds ``{"frame": payload}`` messages on topic
``op`` to :meth:`~repro.rpc.Service.dispatch` and sends each reply
payload back on the same topic as ``{"reply": payload}`` (so a topic's
fault plan shakes both directions); :meth:`ChainNode.channel` is the
client end, a stop-and-wait :class:`SimChannel`.  Replies are routed to
the waiting call in :meth:`ChainNode.dispatch`, ahead of topic handlers,
so a node can serve and call the same op.
"""

from __future__ import annotations

from typing import Callable

from ..chain import Block, Blockchain, ChainParams, Mempool, Transaction
from ..errors import ChainError, GatewayError
from ..net_retry import RetryPolicy, count_retry
from ..obs.runtime import telemetry as default_telemetry
from ..rpc import OP_OPS, Call, Service, Session, ops_handler
from .gossip import GossipProtocol
from .message import NetMessage
from .simnet import SimNet

TopicHandler = Callable[[NetMessage], None]


class ChainNode:
    """One network participant maintaining a chain replica."""

    def __init__(
        self,
        node_id: str,
        net: SimNet,
        params: ChainParams | None = None,
        region: str = "default",
    ) -> None:
        self.node_id = node_id
        self.net = net
        self.chain = Blockchain(params)
        self.mempool = Mempool()
        self._topic_handlers: dict[str, TopicHandler] = {}
        self.gossip: GossipProtocol | None = None
        self._sharded = None       # set by serve_shards()
        self.service = Service()   # filled by serve()
        self._seq = 0              # request seqs, unique per node
        self._waiting: SimChannel | None = None
        net.register(node_id, self.dispatch, region=region)
        self.on_topic("tx", self._handle_tx)
        self.on_topic("block", self._handle_block)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def on_topic(self, topic: str, handler: TopicHandler) -> None:
        """Register the handler for ``topic``.

        A topic has exactly one handler.  Registering a *different*
        handler on an occupied topic raises :class:`ChainError` instead
        of silently shadowing the first one.  Re-registering the *same*
        handler is an idempotent no-op, so ``serve``/``serve_shards``
        can be called again after a facade reopen.
        """
        existing = self._topic_handlers.get(topic)
        if existing is not None and existing != handler:
            raise ChainError(
                f"node {self.node_id}: topic {topic!r} already has a "
                f"handler ({existing!r})"
            )
        self._topic_handlers[topic] = handler

    def dispatch(self, msg: NetMessage) -> None:
        reply = msg.body.get("reply")
        if reply is not None:
            waiting = self._waiting
            if waiting is not None and msg.sender == waiting.peer:
                waiting.pending.feed(reply)
            return      # nobody is waiting: a straggler, dropped
        if msg.topic == "gossip" and self.gossip is not None:
            self.gossip.handle(self.node_id, msg)
            return
        handler = self._topic_handlers.get(msg.topic)
        if handler is not None:
            handler(msg)
        # Unknown topics are silently ignored, as on a real P2P network.

    def join_gossip(self, gossip: GossipProtocol) -> None:
        self.gossip = gossip
        gossip.attach(self.node_id, self._gossip_deliver)

    def _gossip_deliver(self, item_id: str, body: dict) -> None:
        if body.get("kind") == "tx":
            tx = _tx_from_body(body)
            self.mempool.add(tx)

    # ------------------------------------------------------------------
    # Built-in handlers
    # ------------------------------------------------------------------
    def _handle_tx(self, msg: NetMessage) -> None:
        self.mempool.add(_tx_from_body(dict(msg.body)))

    def _handle_shard_tx(self, msg: NetMessage) -> None:
        # A gateway node fronting a sharded chain routes client
        # transactions into the right shard's mempool.  Routine rejects
        # (lock conflicts, full mempool) are the sender's problem to
        # retry, not grounds to abort the network's event loop.
        if self._sharded is None:
            return
        try:
            self._sharded.submit(_tx_from_body(dict(msg.body)))
        except (ChainError, TypeError):
            # TypeError: malformed body carrying no transaction.
            pass

    def _handle_block(self, msg: NetMessage) -> None:
        # Direct block push is used by the simpler consensus engines; the
        # body carries an in-process reference (simulation convenience —
        # structural validation still runs in append_block).
        block = msg.body.get("_block_ref")
        if isinstance(block, Block) and block.height == self.chain.height + 1:
            self.chain.append_block(block)
            self.mempool.remove(tx.tx_id for tx in block.transactions)

    # ------------------------------------------------------------------
    # Client-side operations
    # ------------------------------------------------------------------
    def serve(self, service: Service) -> None:
        """Answer every op of ``service`` (see the module docstring).
        Serving an op again replaces its handler — a reopened facade
        takes over from the crashed one."""
        self.service.handlers.update(service.handlers)
        for op in service.handlers:
            self.on_topic(op, self._serve_frame)

    def _serve_frame(self, msg: NetMessage) -> None:
        frame = msg.body.get("frame")
        if type(frame) is not bytes:
            return      # not a request; ignored like an unknown topic
        for payload in self.service.dispatch(frame, Session(msg.sender)):
            self.net.send(NetMessage(sender=self.node_id,
                                     recipient=msg.sender,
                                     topic=msg.topic,
                                     body={"reply": payload}))

    def serve_sync(self, server) -> None:
        """Become a snapshot-sync peer: answer the ``sync/*`` ops of a
        :class:`~repro.sync.server.SnapshotServer`."""
        self.serve(server.service)

    def serve_shards(self, sharded_chain) -> None:
        """Become a shard gateway: route one-way ``"shard_tx"`` messages
        into a :class:`~repro.sharding.shardchain.ShardedChain` and
        answer ``ops`` with the facade's telemetry snapshot and
        :meth:`~repro.sharding.shardchain.ShardedChain.health_report`
        rollup."""
        self._sharded = sharded_chain
        self.on_topic("shard_tx", self._handle_shard_tx)
        self.serve(Service({OP_OPS: ops_handler(
            sharded_chain.telemetry, node=self.node_id,
            health=sharded_chain.health_report,
        )}))

    def channel(self, peer: str,
                policy: RetryPolicy | None = None) -> "SimChannel":
        """The client end of the SimNet carrier towards ``peer``."""
        return SimChannel(self, peer, policy or RetryPolicy())

    def send_shard_transaction(self, gateway_id: str, tx: Transaction) -> bool:
        """Client-side: submit a transaction to a shard gateway node."""
        return self.net.send(
            NetMessage(sender=self.node_id, recipient=gateway_id,
                       topic="shard_tx", body=_tx_to_body(tx))
        )

    def submit_transaction(self, tx: Transaction, gossip: bool = False) -> None:
        """Accept a client transaction locally and optionally gossip it."""
        self.mempool.add(tx)
        if gossip and self.gossip is not None:
            self.gossip.publish(
                self.node_id, f"tx:{tx.tx_id}", _tx_to_body(tx)
            )

    def push_block(self, block: Block) -> None:
        """Send a committed block to every peer (proposer's broadcast)."""
        for peer in self.net.node_ids:
            if peer == self.node_id:
                continue
            self.net.send(
                NetMessage(
                    sender=self.node_id,
                    recipient=peer,
                    topic="block",
                    body={"height": block.height, "_block_ref": block},
                )
            )


class SimChannel:
    """Stop-and-wait :mod:`repro.rpc` calls from one node to one peer.

    ``call`` raises :class:`~repro.errors.GatewayError` with the peer's
    reason when it answers with an ``error`` frame, and with
    ``reason="peer_unresponsive"`` when the retry budget runs out."""

    def __init__(self, node: ChainNode, peer: str,
                 policy: RetryPolicy) -> None:
        self.node = node
        self.peer = peer
        self.policy = policy
        self.requests = 0
        self.retries = 0
        self.pending: Call | None = None

    def call(self, body: dict) -> list[dict]:
        node, net, policy = self.node, self.node.net, self.policy
        node._seq += 1
        call = self.pending = Call(body, node._seq)
        op = call.op
        registry = default_telemetry().registry
        node._waiting = self
        try:
            for attempt in range(policy.max_retries + 1):
                if attempt:
                    ticks = policy.backoff_ticks(attempt, net.rng)
                    net.clock.advance(ticks)
                    count_retry(op, ticks)
                    self.retries += 1
                registry.counter("net_requests_total", topic=op).inc()
                self.requests += 1
                net.send(NetMessage(sender=node.node_id,
                                    recipient=self.peer, topic=op,
                                    body={"frame": call.payload}))
                # Drain the event loop: with backoff applied the clock
                # has moved past held (reordered) deliveries, so
                # stragglers land too.
                net.run()
                if call.done:
                    return call.result()
        finally:
            node._waiting = None
        registry.counter("net_requests_unanswered_total", topic=op).inc()
        raise GatewayError(
            f"peer {self.peer} did not answer {op} after "
            f"{policy.max_retries + 1} attempts",
            reason="peer_unresponsive",
        )


def _tx_to_body(tx: Transaction) -> dict:
    return {"kind": "tx", "_tx_ref": tx}


def _tx_from_body(body: dict) -> Transaction:
    tx = body.get("_tx_ref")
    if not isinstance(tx, Transaction):
        raise TypeError("message body does not carry a transaction")
    return tx
