"""Gossip (flooding) dissemination protocol.

Public-chain style propagation: a node that first sees an item forwards it
to ``fanout`` random peers; duplicates are ignored.  The EVAL-NET bench
(``benchmarks/bench_eval_network.py``) and ``tests/test_network.py`` use
it to measure coverage versus message overhead (the dissemination
trade-off the paper's evaluation axis "network size" touches); each
registers a SimNet handler per node that calls :meth:`~GossipProtocol.handle`.
"""

from __future__ import annotations

import random
from typing import Callable

from .message import NetMessage
from .simnet import SimNet

OnDeliver = Callable[[str, dict], None]


class GossipProtocol:
    """Flooding gossip among a fixed peer set.

    Each participating node must call :meth:`attach` once, and its SimNet
    handler passes ``"gossip"`` messages to :meth:`handle`, so the mesh
    composes with other traffic on the same :class:`SimNet`.
    """

    def __init__(self, net: SimNet, fanout: int = 4, seed: int = 0) -> None:
        self.net = net
        self.fanout = fanout
        self.rng = random.Random(seed)
        self._peers: dict[str, list[str]] = {}
        self._seen: dict[str, set[str]] = {}
        self._on_deliver: dict[str, OnDeliver] = {}

    def attach(self, node_id: str, on_deliver: OnDeliver) -> None:
        """Join ``node_id`` to the gossip mesh."""
        self._peers[node_id] = []
        self._seen[node_id] = set()
        self._on_deliver[node_id] = on_deliver
        self._rebuild_meshes()

    def _rebuild_meshes(self) -> None:
        members = sorted(self._peers)
        for node_id in members:
            others = [m for m in members if m != node_id]
            self._peers[node_id] = others

    def publish(self, origin: str, item_id: str, body: dict) -> None:
        """Inject a new item at ``origin`` and start flooding."""
        if origin not in self._peers:
            raise KeyError(f"node not attached: {origin}")
        self._seen[origin].add(item_id)
        self._on_deliver[origin](item_id, body)
        self._forward(origin, item_id, body, exclude=origin)

    def handle(self, node_id: str, msg: NetMessage) -> None:
        """Entry point a node's handler calls for gossip messages; a
        body without a string ``item_id`` and a mapping ``payload`` is
        dropped and counted as ``malformed``."""
        item_id = msg.body.get("item_id")
        if type(item_id) is str and item_id in self._seen[node_id]:
            return
        payload = msg.body.get("payload")
        if type(item_id) is not str or type(payload) is not dict:
            self.net.refuse(msg.topic, "malformed")
            return
        self._seen[node_id].add(item_id)
        self._on_deliver[node_id](item_id, payload)
        self._forward(node_id, item_id, payload, exclude=msg.sender)

    def _forward(self, sender: str, item_id: str, body: dict, exclude: str) -> None:
        candidates = [p for p in self._peers[sender] if p != exclude]
        if not candidates:
            return
        k = min(self.fanout, len(candidates))
        targets = self.rng.sample(candidates, k)
        for target in targets:
            self.net.send(
                NetMessage(
                    sender=sender,
                    recipient=target,
                    topic="gossip",
                    body={"item_id": item_id, "payload": body},
                )
            )

    def coverage(self, item_id: str) -> float:
        """Fraction of attached nodes that have seen ``item_id``."""
        if not self._seen:
            return 0.0
        holders = sum(1 for seen in self._seen.values() if item_id in seen)
        return holders / len(self._seen)

    def anti_entropy(self, item_id: str, body: dict) -> int:
        """Pull-based repair: every node still missing ``item_id``
        fetches it from a random holder.

        Probabilistic flooding leaves a small miss tail (a node may be
        chosen by none of its peers); production gossip closes it with
        periodic anti-entropy exactly like this.  Costs 2 messages
        (request + response) per missing node; returns how many nodes
        were repaired.
        """
        holders = [node for node, seen in self._seen.items()
                   if item_id in seen]
        if not holders:
            return 0
        repaired = 0
        for node, seen in self._seen.items():
            if item_id in seen:
                continue
            source = self.rng.choice(holders)
            self.net.send(NetMessage(sender=node, recipient=source,
                                     topic="gossip/pull",
                                     body={"item_id": item_id}))
            self.net.send(NetMessage(sender=source, recipient=node,
                                     topic="gossip",
                                     body={"item_id": item_id,
                                           "payload": body}))
            repaired += 1
        return repaired
