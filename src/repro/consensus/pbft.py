"""Practical Byzantine Fault Tolerance (PBFT) over the simulated network.

A faithful (crash-fault simplified) implementation of the three-phase
protocol: PRE-PREPARE from the primary, all-to-all PREPARE, all-to-all
COMMIT.  A replica *prepares* once it holds the pre-prepare plus ``2f``
matching prepares, and *commits* once it holds ``2f + 1`` matching
commits.  With ``n = 3f + 1`` replicas the cluster tolerates ``f``
failures.

Message complexity is the textbook O(n²) per block — the EVAL-CONS bench
measures it empirically off :class:`~repro.network.simnet.NetStats` and
checks the quadratic growth against Raft's linear profile.

View changes are modeled: if the primary is crashed, a round times out and
the cluster moves to the next view (new primary) after exchanging
VIEW-CHANGE messages, as §4.4 of the original paper prescribes (without
the certificate bookkeeping, which crash faults don't need).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain import Block, Blockchain, ChainParams, Transaction
from ..errors import ConsensusError
from ..network import NetMessage, SimNet
from ..network.message import block_body, block_from_body
from ..persist.codec import decode_block, encode_block
from .base import RoundMetrics


@dataclass
class _RoundState:
    """Per-(view, sequence) vote bookkeeping on one replica."""

    block: Block | None = None
    prepares: set[str] = field(default_factory=set)
    commits: set[str] = field(default_factory=set)
    prepared: bool = False
    committed: bool = False


class _Replica:
    """One PBFT replica: chain copy + protocol state machine."""

    def __init__(self, node_id: str, cluster: "PBFTCluster") -> None:
        self.node_id = node_id
        self.cluster = cluster
        self.chain = Blockchain(
            ChainParams(chain_id=cluster.chain_id,
                        max_block_txs=cluster.max_block_txs)
        )
        self.crashed = False
        self.view = 0
        self._rounds: dict[tuple[int, int], _RoundState] = {}
        self.view_change_votes: dict[int, set[str]] = {}
        cluster.net.register(node_id, self.handle)

    # ------------------------------------------------------------------
    def _round(self, view: int, seq: int) -> _RoundState:
        return self._rounds.setdefault((view, seq), _RoundState())

    def handle(self, msg: NetMessage) -> None:
        if self.crashed:
            return
        body = dict(msg.body)
        topic = msg.topic
        if topic == "pbft/preprepare":
            self._on_preprepare(msg.sender, body)
        elif topic == "pbft/prepare":
            self._on_prepare(msg.sender, body)
        elif topic == "pbft/commit":
            self._on_commit(msg.sender, body)
        elif topic == "pbft/viewchange":
            self._on_viewchange(msg.sender, body)

    # ------------------------------------------------------------------
    # Phase 1: pre-prepare
    # ------------------------------------------------------------------
    def _on_preprepare(self, sender: str, body: dict) -> None:
        view, seq = int(body["view"]), int(body["seq"])
        if view < self.view:
            return  # stale view
        if sender != self.cluster.primary_of(view):
            return  # only the view's primary may pre-prepare
        block = block_from_body(body)
        if block is None:
            self.cluster.net.refuse("pbft/preprepare", "malformed")
            return
        if block.height != self.chain.height + 1:
            return
        state = self._round(view, seq)
        state.block = block
        # Pre-prepare counts as the primary's prepare vote.
        state.prepares.add(sender)
        state.prepares.add(self.node_id)
        self.cluster._multicast(
            self.node_id, "pbft/prepare",
            {"view": view, "seq": seq, "digest": block.block_id},
        )
        self._maybe_advance(view, seq)

    # ------------------------------------------------------------------
    # Phase 2: prepare
    # ------------------------------------------------------------------
    def _on_prepare(self, sender: str, body: dict) -> None:
        view, seq = int(body["view"]), int(body["seq"])
        state = self._round(view, seq)
        state.prepares.add(sender)
        self._maybe_advance(view, seq)

    # ------------------------------------------------------------------
    # Phase 3: commit
    # ------------------------------------------------------------------
    def _on_commit(self, sender: str, body: dict) -> None:
        view, seq = int(body["view"]), int(body["seq"])
        state = self._round(view, seq)
        state.commits.add(sender)
        self._maybe_advance(view, seq)

    def _maybe_advance(self, view: int, seq: int) -> None:
        state = self._round(view, seq)
        quorum = self.cluster.quorum  # 2f + 1
        if (not state.prepared and state.block is not None
                and len(state.prepares) >= quorum):
            state.prepared = True
            state.commits.add(self.node_id)
            self.cluster._multicast(
                self.node_id, "pbft/commit",
                {"view": view, "seq": seq, "digest": state.block.block_id},
            )
        if (not state.committed and state.prepared
                and state.block is not None
                and len(state.commits) >= quorum):
            state.committed = True
            if state.block.height == self.chain.height + 1:
                self.chain.append_block(state.block)

    # ------------------------------------------------------------------
    # View change (crash-fault simplified)
    # ------------------------------------------------------------------
    def start_viewchange(self, new_view: int) -> None:
        if self.crashed or new_view <= self.view:
            return
        votes = self.view_change_votes.setdefault(new_view, set())
        votes.add(self.node_id)
        self.cluster._multicast(
            self.node_id, "pbft/viewchange", {"new_view": new_view}
        )
        self._maybe_install_view(new_view)

    def _on_viewchange(self, sender: str, body: dict) -> None:
        new_view = int(body["new_view"])
        if new_view <= self.view:
            return
        votes = self.view_change_votes.setdefault(new_view, set())
        votes.add(sender)
        if self.node_id not in votes:
            votes.add(self.node_id)
            self.cluster._multicast(
                self.node_id, "pbft/viewchange", {"new_view": new_view}
            )
        self._maybe_install_view(new_view)

    def _maybe_install_view(self, new_view: int) -> None:
        if len(self.view_change_votes.get(new_view, ())) >= self.cluster.quorum:
            self.view = new_view


class PBFTCluster:
    """An ``n = 3f + 1`` PBFT replica group on a shared :class:`SimNet`."""

    name = "pbft"

    def __init__(
        self,
        net: SimNet,
        n_replicas: int = 4,
        chain_id: str = "pbft-chain",
        max_block_txs: int = 1024,
    ) -> None:
        if n_replicas < 4:
            raise ValueError("PBFT needs n >= 4 (f >= 1)")
        self.net = net
        self.chain_id = chain_id
        self.max_block_txs = max_block_txs
        self.f = (n_replicas - 1) // 3
        self.replicas: list[_Replica] = [
            _Replica(f"pbft-{i}", self) for i in range(n_replicas)
        ]
        self._by_id = {r.node_id: r for r in self.replicas}
        self._seq = 0

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.replicas)

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1

    def primary_of(self, view: int) -> str:
        return self.replicas[view % self.n].node_id

    @property
    def view(self) -> int:
        # The cluster's view is the max installed on a live quorum member.
        live = [r.view for r in self.replicas if not r.crashed]
        return max(live) if live else 0

    def crash(self, node_id: str) -> None:
        """Silence a replica (crash fault)."""
        self._by_id[node_id].crashed = True

    def recover(self, node_id: str) -> None:
        replica = self._by_id[node_id]
        replica.crashed = False
        # A recovering replica syncs from the longest live peer.
        best = max(
            (r for r in self.replicas if not r.crashed),
            key=lambda r: r.chain.height,
        )
        if best.chain.height > replica.chain.height:
            for block in best.chain.blocks[replica.chain.height + 1:]:
                replica.chain.append_block(decode_block(encode_block(block)))

    def _multicast(self, sender: str, topic: str, body: dict) -> None:
        for replica in self.replicas:
            if replica.node_id == sender:
                continue
            self.net.send(NetMessage(sender=sender, recipient=replica.node_id,
                                     topic=topic, body=body))

    # ------------------------------------------------------------------
    def propose(
        self, transactions: list[Transaction], timestamp: int = 0,
        max_view_changes: int = 8,
    ) -> RoundMetrics:
        """Run one full consensus instance for one block of transactions.

        Returns metrics measured off the network simulator.  Raises
        :class:`ConsensusError` if agreement is impossible (more than
        ``f`` replicas crashed).
        """
        crashed = sum(1 for r in self.replicas if r.crashed)
        if crashed > self.f:
            raise ConsensusError(
                f"{crashed} of {self.n} replicas crashed; f={self.f} "
                "tolerance exceeded"
            )
        msgs_before = self.net.stats.messages_sent
        bytes_before = self.net.stats.bytes_sent
        t_before = self.net.clock.now()
        view_changes = 0

        for _ in range(max_view_changes + 1):
            view = self.view
            primary = self._by_id[self.primary_of(view)]
            if primary.crashed:
                self._run_viewchange(view + 1)
                view_changes += 1
                continue
            self._seq += 1
            block = primary.chain.build_block(
                transactions,
                timestamp=timestamp,
                proposer=primary.node_id,
                consensus_meta={"algo": self.name, "view": view,
                                "seq": self._seq, "n": self.n, "f": self.f},
            )
            # Primary's own round state.
            state = primary._round(view, self._seq)
            state.block = block
            state.prepares.add(primary.node_id)
            self._multicast(
                primary.node_id, "pbft/preprepare",
                {"view": view, "seq": self._seq, **block_body(block)},
            )
            self.net.run()
            # Success: a full quorum of replicas committed the block.
            if self._committed_count(block) >= self.quorum:
                return RoundMetrics(
                    engine=self.name,
                    proposer=primary.node_id,
                    messages=self.net.stats.messages_sent - msgs_before,
                    bytes_sent=self.net.stats.bytes_sent - bytes_before,
                    latency_ticks=self.net.clock.now() - t_before,
                    committed=True,
                    extra={"view": view, "view_changes": view_changes,
                           "quorum": self.quorum},
                )
            # No progress: force a view change and retry.
            self._run_viewchange(view + 1)
            view_changes += 1
        raise ConsensusError("PBFT could not commit within view-change budget")

    def _run_viewchange(self, new_view: int) -> None:
        for replica in self.replicas:
            replica.start_viewchange(new_view)
        self.net.run()

    def _committed_count(self, block: Block) -> int:
        return sum(
            1
            for r in self.replicas
            if not r.crashed and r.chain.height >= block.height
            and r.chain.blocks[block.height].block_id == block.block_id
        )

    # ------------------------------------------------------------------
    def heights(self) -> dict[str, int]:
        return {r.node_id: r.chain.height for r in self.replicas}

    @staticmethod
    def analytic_messages(n: int) -> int:
        """Per-block message count of this implementation: pre-prepare
        (n-1) + prepares from the n-1 backups ((n-1)²) + commits from all
        n replicas (n(n-1)).  O(n²), like the textbook protocol (which
        adds one more prepare multicast from the primary)."""
        return (n - 1) + (n - 1) * (n - 1) + n * (n - 1)
