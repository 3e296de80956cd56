"""A SimNet endpoint: frame dispatch, served ops, channels, ``shard_tx``.

``ChainNode`` is what every networked caller uses: the snapshot-sync
gateway, each :class:`~repro.sync.replica.ShardReplica`, and the chaos
harness's gateway and client.  It holds no chain of its own; a node
that fronts a :class:`~repro.sharding.shardchain.ShardedChain` routes
``shard_tx`` into it (:meth:`ChainNode.serve_shards`).

Nodes share bytes, never objects: :class:`SimNet` encodes every body
and delivers a decoded copy.  The one-way ``shard_tx`` topic carries a
transaction as :func:`~repro.network.message.tx_body`; the handler drops
what it cannot decode or admit and counts it in
``net_messages_refused_total{topic, reason}``.  Anything that expects
an answer speaks :mod:`repro.rpc`'s frame grammar, and this module is
its SimNet carrier:
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

from ..chain import Transaction
from ..errors import ChainError, GatewayError, QueueFull, ShardError
from ..net_retry import RetryPolicy, count_retry
from ..obs.runtime import telemetry
from ..rpc import OP_OPS, Call, Service, Session, ops_handler
from .message import NetMessage, tx_body, tx_from_body
from .simnet import SimNet

TopicHandler = Callable[[NetMessage], None]


class ChainNode:
    """One network participant: a SimNet endpoint."""

    def __init__(self, node_id: str, net: SimNet) -> None:
        self.node_id = node_id
        self.net = net
        self._topic_handlers: dict[str, TopicHandler] = {}
        self._sharded = None       # set by serve_shards()
        self.service = Service()   # filled by serve()
        self._seq = 0              # request seqs, unique per node
        self._waiting: SimChannel | None = None
        net.register(node_id, self.dispatch)

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
        handler = self._topic_handlers.get(msg.topic)
        if handler is not None:
            handler(msg)
        # Unknown topics are silently ignored, as on a real P2P network.

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, msg: NetMessage) -> None:
        """Route the transaction a ``shard_tx`` body carries into the
        fronted sharded chain.  What cannot be decoded or admitted is
        dropped and counted, never raised: a reject is the sender's
        problem to retry, not grounds to abort the network's event
        loop."""
        tx = tx_from_body(msg.body)
        if tx is None:
            reason = "malformed"
        else:
            try:
                self._sharded.submit(tx)
                return
            except QueueFull:
                reason = "full"
            except ShardError as exc:
                reason = "lock_conflict" if exc.reason == "lock_conflict" \
                    else "malformed"
            except ChainError:
                reason = "malformed"
        self.net.refuse(msg.topic, reason)

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
        answer ``ops`` with the process telemetry snapshot and
        :meth:`~repro.sharding.shardchain.ShardedChain.health_report`
        rollup."""
        self._sharded = sharded_chain
        self.on_topic("shard_tx", self._admit)
        self.serve(Service({OP_OPS: ops_handler(
            node=self.node_id, health=sharded_chain.health_report,
        )}))

    def channel(self, peer: str,
                policy: RetryPolicy | None = None) -> "SimChannel":
        """The client end of the SimNet carrier towards ``peer``."""
        return SimChannel(self, peer, policy or RetryPolicy())

    def send_shard_transaction(self, gateway_id: str, tx: Transaction) -> bool:
        """Client-side: submit a transaction to a shard gateway node."""
        return self.net.send(
            NetMessage(sender=self.node_id, recipient=gateway_id,
                       topic="shard_tx", body=tx_body(tx))
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
        registry = telemetry().registry
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
