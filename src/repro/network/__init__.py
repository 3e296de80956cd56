"""Simulated peer-to-peer network.

A deterministic discrete-event network: messages between registered nodes
are delayed by a seeded latency model, can be dropped, and respect
partitions.  The Raft and PBFT simulations run on top of it, so their
message counts and latency profiles are measurable without real sockets;
:class:`ChainNode` is the endpoint the sync gateway, shard replicas and
the chaos harness use (served ops, channels, ``shard_tx`` into a sharded
chain).
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
