"""Earth-observation data management ([87], paper §4.1).

"Users upload EO datasets to data centers, which utilize a consortium
blockchain with Raft and PBFT consensus algorithms to achieve high
throughput, low latency, and efficient querying.  Data centers store EO
data off-chain, while essential information is stored on-chain and
managed by smart contracts.  Transactions within the blockchain form a
Directed Acyclic Graph, enabling efficient traceability."

Composition:

* **data centers** — content-addressed stores holding the (petabyte-
  scale in reality, synthetic here) EO granules off-chain;
* **consortium chain** — a Raft cluster of the data centers (the [87]
  deployment pairs Raft for ordering with PBFT for cross-org
  checkpoints; here Raft orders and a PBFT checkpoint round can be run
  on demand);
* **on-chain essentials** — a registry contract maps granule ids to
  (CID, center, lineage parents), and the parent links form the DAG
  that makes traceability a walk instead of a scan;
* **traceability** — :meth:`trace` walks the DAG of a derived product
  back to the raw acquisitions, verifying each hop's content hash
  against its data center.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain import Transaction, TransactionReceipt, TxKind
from ..clock import SimClock
from ..consensus.raft import RaftCluster
from ..contracts import ContractRuntime, ProvenanceRegistry, call_payload, deploy_payload
from ..errors import DomainError, UnknownEntity
from ..network import SimNet
from ..storage.cas import CID, ContentAddressedStore


@dataclass
class EOGranule:
    """One registered EO data product."""

    granule_id: str
    center_id: str
    cid: CID
    kind: str                     # "acquisition" | "derived"
    parents: tuple[str, ...] = ()


class EOChain:
    """Consortium EO data management: off-chain granules, on-chain DAG."""

    def __init__(self, center_ids: list[str], seed: int = 0) -> None:
        if len(center_ids) < 3:
            raise DomainError("the consortium needs >= 3 data centers")
        self.clock = SimClock()
        self.net = SimNet(seed=seed, clock=self.clock)
        self.cluster = RaftCluster(self.net, n_nodes=len(center_ids),
                                   chain_id="eo-consortium")
        self.centers: dict[str, ContentAddressedStore] = {
            cid_: ContentAddressedStore(chunk_size=8192)
            for cid_ in center_ids
        }
        self.center_ids = list(center_ids)
        self.runtime = ContractRuntime()
        self.runtime.register(ProvenanceRegistry)
        # The registry contract is deployed on every replica's chain by
        # committing the deploy through consensus.  Chains keep no
        # receipts: each replica's commit hands its own to _on_block
        # (replicas execute a block to the same receipts).
        self._receipts: dict[str, TransactionReceipt] = {}
        for node in self.cluster.nodes:
            self.runtime.attach(node.chain)  # shared runtime, per-chain state
            node.chain.subscribe(self._on_block)
        deploy_tx = Transaction(
            sender="consortium", kind=TxKind.CONTRACT_DEPLOY,
            payload=deploy_payload("ProvenanceRegistry"),
        )
        self.cluster.propose([deploy_tx])
        self.registry_address = self._receipts[deploy_tx.tx_id].output
        self.granules: dict[str, EOGranule] = {}

    def _on_block(self, block, receipts) -> None:
        for receipt in receipts:
            self._receipts[receipt.tx_id] = receipt

    # ------------------------------------------------------------------
    def _leader_chain(self):
        leader = self.cluster.leader_id
        for node in self.cluster.nodes:
            if node.node_id == leader:
                return node.chain
        raise DomainError("no leader")  # pragma: no cover

    # ------------------------------------------------------------------
    # Upload & derive
    # ------------------------------------------------------------------
    def upload(self, center_id: str, granule_id: str,
               content: bytes) -> EOGranule:
        """A data center ingests a raw acquisition."""
        return self._register(center_id, granule_id, content,
                              kind="acquisition", parents=())

    def derive(self, center_id: str, granule_id: str, content: bytes,
               parents: list[str]) -> EOGranule:
        """Register a derived product with explicit DAG parents."""
        if not parents:
            raise DomainError("derived products must declare parents")
        for parent in parents:
            if parent not in self.granules:
                raise UnknownEntity(f"unknown parent granule {parent!r}")
        return self._register(center_id, granule_id, content,
                              kind="derived", parents=tuple(parents))

    def _register(self, center_id: str, granule_id: str, content: bytes,
                  kind: str, parents: tuple[str, ...]) -> EOGranule:
        store = self.centers.get(center_id)
        if store is None:
            raise UnknownEntity(f"no data center {center_id!r}")
        if granule_id in self.granules:
            raise DomainError(f"granule {granule_id!r} already registered")
        cid = store.put(content)
        # Essential information goes on-chain through consensus.
        call_tx = Transaction(
            sender=center_id, kind=TxKind.CONTRACT_CALL,
            payload=call_payload(
                self.registry_address, "register",
                record_id=granule_id,
                content_hash=cid.hex,
                prev_record_id=parents[0] if parents else "",
                meta={"center": center_id, "kind": kind,
                      "parents": list(parents), "cid_kind": cid.kind},
            ),
        )
        self.cluster.propose([call_tx])
        receipt = self._receipts[call_tx.tx_id]
        if not receipt.success:
            raise DomainError(f"on-chain registration failed: "
                              f"{receipt.error}")
        granule = EOGranule(granule_id=granule_id, center_id=center_id,
                            cid=cid, kind=kind, parents=parents)
        self.granules[granule_id] = granule
        return granule

    # ------------------------------------------------------------------
    # Retrieval & traceability
    # ------------------------------------------------------------------
    def fetch(self, granule_id: str) -> bytes:
        """Fetch granule bytes and verify them against the on-chain CID."""
        granule = self._granule(granule_id)
        content = self.centers[granule.center_id].get(granule.cid)
        registered = self.runtime.query(
            self._leader_chain(), self.registry_address, "lookup",
            record_id=granule_id,
        )
        if registered is None or registered["content_hash"] != granule.cid.hex:
            raise DomainError(
                f"granule {granule_id!r} does not match its on-chain hash"
            )
        return content

    def trace(self, granule_id: str) -> list[EOGranule]:
        """Walk the DAG from a product back to raw acquisitions,
        verifying availability of every ancestor."""
        self._granule(granule_id)
        ordered: list[EOGranule] = []
        seen: set[str] = set()
        frontier = [granule_id]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            granule = self._granule(current)
            if not self.centers[granule.center_id].has(granule.cid):
                raise DomainError(
                    f"ancestor {current!r} is no longer available at "
                    f"{granule.center_id}"
                )
            ordered.append(granule)
            frontier.extend(granule.parents)
        return ordered

    def _granule(self, granule_id: str) -> EOGranule:
        granule = self.granules.get(granule_id)
        if granule is None:
            raise UnknownEntity(f"no granule {granule_id!r}")
        return granule

    # ------------------------------------------------------------------
    @property
    def consortium_height(self) -> int:
        return self._leader_chain().height

    def replicated_consistently(self) -> bool:
        """All live replicas hold the same head (the consortium claim)."""
        heads = {
            node.chain.head.block_id
            for node in self.cluster.nodes if not node.crashed
        }
        return len(heads) == 1
