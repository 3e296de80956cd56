"""Raft consensus over the simulated network.

Crash-fault-tolerant leader-based replication: a leader is elected by
majority vote (RequestVote), then replicates blocks to followers
(AppendEntries) and commits once a majority acknowledges.  Message
complexity per block is O(n) — the linear counterpart the EVAL-CONS bench
contrasts with PBFT's O(n²).

Raft appears in the survey as half of the consortium recipe of the Earth
observation system [87] ("Raft and PBFT consensus algorithms to achieve
high throughput"); it is the right choice when nodes are trusted to fail
only by crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain import Block, Blockchain, ChainParams, Transaction
from ..errors import ConsensusError
from ..network import NetMessage, SimNet
from ..network.message import block_body, block_from_body
from ..persist.codec import decode_block, encode_block
from .base import RoundMetrics


class _RaftNode:
    """One Raft participant: chain replica + persistent term state."""

    def __init__(self, node_id: str, cluster: "RaftCluster") -> None:
        self.node_id = node_id
        self.cluster = cluster
        self.chain = Blockchain(
            ChainParams(chain_id=cluster.chain_id,
                        max_block_txs=cluster.max_block_txs)
        )
        self.crashed = False
        self.term = 0
        self.voted_for: dict[int, str] = {}
        self.role = "follower"          # follower | candidate | leader
        self.votes_received: set[str] = set()
        self.acks: dict[str, set[str]] = {}   # block_id -> followers acked
        cluster.net.register(node_id, self.handle)

    # ------------------------------------------------------------------
    def handle(self, msg: NetMessage) -> None:
        if self.crashed:
            return
        body = dict(msg.body)
        if msg.topic == "raft/request_vote":
            self._on_request_vote(msg.sender, body)
        elif msg.topic == "raft/vote":
            self._on_vote(msg.sender, body)
        elif msg.topic == "raft/append":
            self._on_append(msg.sender, body)
        elif msg.topic == "raft/ack":
            self._on_ack(msg.sender, body)
        # "raft/commit" is informational: followers already appended on
        # AppendEntries in this simplified model; the notice is sent and
        # counted for fidelity of the message profile.

    # ------------------------------------------------------------------
    # Election
    # ------------------------------------------------------------------
    def start_election(self) -> None:
        if self.crashed:
            return
        self.term += 1
        self.role = "candidate"
        self.votes_received = {self.node_id}
        self.voted_for[self.term] = self.node_id
        self.cluster._multicast(
            self.node_id, "raft/request_vote",
            {"term": self.term, "last_height": self.chain.height},
        )

    def _on_request_vote(self, sender: str, body: dict) -> None:
        term = int(body["term"])
        if term > self.term:
            self.term = term
            self.role = "follower"
        # Grant at most one vote per term, and only to candidates whose
        # log is at least as long (Raft's up-to-date check).
        grant = (
            term >= self.term
            and self.voted_for.get(term) in (None, sender)
            and int(body["last_height"]) >= self.chain.height
        )
        if grant:
            self.voted_for[term] = sender
        self.cluster.net.send(NetMessage(
            sender=self.node_id, recipient=sender, topic="raft/vote",
            body={"term": term, "granted": grant},
        ))

    def _on_vote(self, sender: str, body: dict) -> None:
        if self.role != "candidate" or int(body["term"]) != self.term:
            return
        if body["granted"]:
            self.votes_received.add(sender)
            if len(self.votes_received) >= self.cluster.majority:
                self.role = "leader"
                self.cluster.leader_id = self.node_id

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def replicate(self, block: Block) -> None:
        """Leader-side: ship ``block`` to all followers."""
        self.acks[block.block_id] = {self.node_id}
        self.cluster._multicast(self.node_id, "raft/append",
                                {"term": self.term, **block_body(block)})

    def _on_append(self, sender: str, body: dict) -> None:
        term = int(body["term"])
        if term < self.term:
            return  # stale leader
        self.term = term
        self.role = "follower"
        block = block_from_body(body)
        if block is None:
            self.cluster.net.refuse("raft/append", "malformed")
            return
        ok = block.height == self.chain.height + 1
        if ok:
            self.chain.append_block(block)
        self.cluster.net.send(NetMessage(
            sender=self.node_id, recipient=sender, topic="raft/ack",
            body={"term": term, "block_id": block.block_id if ok else "",
                  "ok": ok},
        ))

    def _on_ack(self, sender: str, body: dict) -> None:
        if not body.get("ok"):
            return
        block_id = str(body["block_id"])
        acked = self.acks.setdefault(block_id, {self.node_id})
        acked.add(sender)
        if len(acked) == self.cluster.majority:
            # Majority replicated: commit locally and notify followers.
            self.cluster._multicast(self.node_id, "raft/commit",
                                    {"term": self.term, "block_id": block_id})


class RaftCluster:
    """A Raft replica group on a shared :class:`SimNet`."""

    name = "raft"

    def __init__(
        self,
        net: SimNet,
        n_nodes: int = 3,
        chain_id: str = "raft-chain",
        max_block_txs: int = 1024,
    ) -> None:
        if n_nodes < 3:
            raise ValueError("Raft needs n >= 3 for a meaningful majority")
        self.net = net
        self.chain_id = chain_id
        self.max_block_txs = max_block_txs
        self.nodes: list[_RaftNode] = [
            _RaftNode(f"raft-{i}", self) for i in range(n_nodes)
        ]
        self._by_id = {n.node_id: n for n in self.nodes}
        self.leader_id: str | None = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def majority(self) -> int:
        return self.n // 2 + 1

    def _multicast(self, sender: str, topic: str, body: dict) -> None:
        for node in self.nodes:
            if node.node_id != sender:
                self.net.send(NetMessage(sender=sender, recipient=node.node_id,
                                         topic=topic, body=body))

    def crash(self, node_id: str) -> None:
        self._by_id[node_id].crashed = True
        if self.leader_id == node_id:
            self.leader_id = None

    def recover(self, node_id: str) -> None:
        node = self._by_id[node_id]
        node.crashed = False
        live = [n for n in self.nodes if not n.crashed]
        best = max(live, key=lambda n: n.chain.height)
        for block in best.chain.blocks[node.chain.height + 1:]:
            node.chain.append_block(decode_block(encode_block(block)))

    # ------------------------------------------------------------------
    def elect(self, preferred: str | None = None) -> str:
        """Run leader election; returns the elected leader's id."""
        live = [n for n in self.nodes if not n.crashed]
        if len(live) < self.majority:
            raise ConsensusError(
                f"only {len(live)} of {self.n} nodes alive; no majority"
            )
        candidate = self._by_id[preferred] if preferred else live[0]
        if candidate.crashed:
            raise ConsensusError(f"candidate {candidate.node_id} is crashed")
        candidate.start_election()
        self.net.run()
        if self.leader_id is None:
            raise ConsensusError("election failed to produce a leader")
        return self.leader_id

    def propose(
        self, transactions: list[Transaction], timestamp: int = 0
    ) -> RoundMetrics:
        """Replicate and commit one block of transactions.

        An election triggered by a missing/crashed leader is part of the
        round and counted in its metrics.
        """
        msgs_before = self.net.stats.messages_sent
        bytes_before = self.net.stats.bytes_sent
        t_before = self.net.clock.now()
        if self.leader_id is None or self._by_id[self.leader_id].crashed:
            self.elect(self._first_live())
        leader = self._by_id[self.leader_id]
        block = leader.chain.build_block(
            transactions,
            timestamp=timestamp,
            proposer=leader.node_id,
            consensus_meta={"algo": self.name, "term": leader.term,
                            "n": self.n},
        )
        leader.chain.append_block(block)
        leader.replicate(block)
        self.net.run()
        replicated = sum(
            1 for n in self.nodes
            if not n.crashed and n.chain.height >= block.height
        )
        if replicated < self.majority:
            raise ConsensusError(
                f"block replicated to {replicated} nodes; "
                f"majority is {self.majority}"
            )
        return RoundMetrics(
            engine=self.name,
            proposer=leader.node_id,
            messages=self.net.stats.messages_sent - msgs_before,
            bytes_sent=self.net.stats.bytes_sent - bytes_before,
            latency_ticks=self.net.clock.now() - t_before,
            committed=True,
            extra={"term": leader.term, "replicated": replicated},
        )

    def _first_live(self) -> str:
        for node in self.nodes:
            if not node.crashed:
                return node.node_id
        raise ConsensusError("all nodes crashed")

    def heights(self) -> dict[str, int]:
        return {n.node_id: n.chain.height for n in self.nodes}

    @staticmethod
    def analytic_messages(n: int) -> int:
        """Per-block: append (n-1) + ack (n-1) + commit notice (n-1)."""
        return 3 * (n - 1)
