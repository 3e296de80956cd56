"""Simulated peer-to-peer network.

A deterministic discrete-event network: messages between registered nodes
are delayed by a seeded latency model, can be dropped, and respect
partitions.  Consensus engines and cross-chain protocols run on top of it,
so their message counts and latency profiles are measurable without real
sockets.
"""

from .message import NetMessage
from .simnet import LatencyModel, SimNet, NetStats, TopicFaults
from .node import ChainNode, SimChannel
from .gossip import GossipProtocol

__all__ = [
    "NetMessage",
    "LatencyModel",
    "SimNet",
    "NetStats",
    "TopicFaults",
    "ChainNode",
    "SimChannel",
    "GossipProtocol",
]
