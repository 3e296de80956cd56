"""Vassago [31]: efficient, authenticated cross-chain provenance queries.

Vassago's insight: record cross-chain transaction *dependencies* on a
shared Dependency Blockchain (DB).  A provenance query for a transaction
then (1) reads the dependency path from the DB instead of searching every
chain, and (2) verifies each hop's transaction against its home chain
with an inclusion proof — "efficient and authenticated".

Implemented pieces:

* **shard chains** — the organizations' transaction chains;
* **dependency blockchain** — records ``(tx, chain, parents)`` triples
  whenever a cross-chain transaction is committed;
* **dependency-guided query** — walks the recorded DAG, fetching and
  verifying only the touched transactions (plus Merkle proofs);
* **naive baseline** — scans all shard chains for related transactions,
  which is what the query costs without the DB;
* **TrustedQueryEnclave** — the TEE the paper suggests as an enhancement:
  wraps a query and stamps an attestation over the result, so repeated
  consumers can skip re-verification (trust trade-off made explicit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain import Blockchain, ChainParams, Transaction, TxKind
from ..clock import SimClock
from ..crypto.hashing import hash_canonical
from ..crypto.signatures import KeyPair, verify
from ..errors import CrossChainError, QueryError
from ..verify import tx_in_header


@dataclass
class DependencyEntry:
    """One node of the cross-chain dependency DAG."""

    tx_id: str
    chain_id: str
    block_height: int
    parents: tuple[str, ...] = ()


@dataclass
class ProvenanceHop:
    """One verified step of a cross-chain provenance answer."""

    tx_id: str
    chain_id: str
    block_height: int
    payload: dict
    proof_valid: bool


@dataclass
class QueryCost:
    """What answering took — the EVAL-QUERY bench's raw material."""

    txs_examined: int = 0
    chains_touched: set = field(default_factory=set)
    proofs_verified: int = 0


class Vassago:
    """Dependency-guided authenticated provenance over shard chains."""

    def __init__(self, organizations: list[str],
                 clock: SimClock | None = None) -> None:
        if not organizations:
            raise ValueError("Vassago needs shard organizations")
        self.clock = clock or SimClock()
        self.shards: dict[str, Blockchain] = {
            org: Blockchain(ChainParams(chain_id=org)) for org in organizations
        }
        self.dependency_chain = Blockchain(ChainParams(chain_id="vassago-db"))
        self._dependencies: dict[str, DependencyEntry] = {}
        self.last_query_cost = QueryCost()

    # ------------------------------------------------------------------
    # Recording cross-chain transactions
    # ------------------------------------------------------------------
    def commit_tx(self, chain_id: str, sender: str, payload: dict,
                  depends_on: list[str] | None = None) -> str:
        """Commit a transaction on a shard and record its dependencies
        on the dependency blockchain."""
        shard = self._shard(chain_id)
        for parent in depends_on or []:
            if parent not in self._dependencies:
                raise CrossChainError(f"unknown parent tx {parent!r}")
        tx = Transaction(
            sender=sender, kind=TxKind.CROSS_CHAIN,
            payload={"message_id": f"vtx-{len(self._dependencies):06d}",
                     **payload},
            timestamp=self.clock.now(),
        )
        shard.append_block(shard.build_block([tx],
                                             timestamp=self.clock.now()))
        entry = DependencyEntry(
            tx_id=tx.tx_id,
            chain_id=chain_id,
            block_height=shard.height,
            parents=tuple(depends_on or []),
        )
        self._dependencies[tx.tx_id] = entry
        dep_tx = Transaction(
            sender="vassago-recorder", kind=TxKind.CROSS_CHAIN,
            payload={
                "message_id": f"dep-{tx.tx_id[:16]}",
                "tx_id": tx.tx_id,
                "chain_id": chain_id,
                "block_height": entry.block_height,
                "parents": list(entry.parents),
            },
            timestamp=self.clock.now(),
        )
        self.dependency_chain.append_block(
            self.dependency_chain.build_block([dep_tx],
                                              timestamp=self.clock.now())
        )
        self.clock.advance(1)
        return tx.tx_id

    # ------------------------------------------------------------------
    # Dependency-guided query (the Vassago way)
    # ------------------------------------------------------------------
    def query_provenance(self, tx_id: str) -> list[ProvenanceHop]:
        """Walk the dependency DAG from ``tx_id`` back to its roots,
        verifying every hop against its home shard."""
        if tx_id not in self._dependencies:
            raise QueryError(f"unknown transaction {tx_id!r}")
        cost = QueryCost()
        hops: list[ProvenanceHop] = []
        seen: set[str] = set()
        frontier = [tx_id]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            entry = self._dependencies[current]
            hop = self._fetch_verified(entry, cost)
            hops.append(hop)
            frontier.extend(entry.parents)
        self.last_query_cost = cost
        return hops

    def _fetch_verified(self, entry: DependencyEntry,
                        cost: QueryCost) -> ProvenanceHop:
        shard = self._shard(entry.chain_id)
        cost.chains_touched.add(entry.chain_id)
        located = shard.prove_transaction(entry.tx_id)
        cost.txs_examined += 1
        if located is None:
            return ProvenanceHop(
                tx_id=entry.tx_id, chain_id=entry.chain_id,
                block_height=entry.block_height, payload={},
                proof_valid=False,
            )
        block, proof = located
        tx = block.find_transaction(entry.tx_id)[1]
        valid = tx_in_header(block.header, tx, proof)
        cost.proofs_verified += 1
        return ProvenanceHop(
            tx_id=entry.tx_id, chain_id=entry.chain_id,
            block_height=block.height, payload=dict(tx.payload),
            proof_valid=valid,
        )

    # ------------------------------------------------------------------
    # Naive baseline: no dependency chain
    # ------------------------------------------------------------------
    def query_provenance_naive(self, tx_id: str) -> list[ProvenanceHop]:
        """Scan *every* block of *every* shard chasing payload links —
        the cost profile without the dependency blockchain."""
        cost = QueryCost()
        hops: list[ProvenanceHop] = []
        # Without the DB the client must discover the dependency structure
        # by exhaustively scanning all shards for each frontier tx.
        wanted = {tx_id}
        resolved: set[str] = set()
        while wanted:
            target = wanted.pop()
            if target in resolved:
                continue
            resolved.add(target)
            for chain_id, shard in self.shards.items():
                for block in shard.blocks:
                    for tx in block.transactions:
                        cost.txs_examined += 1
                        if tx.tx_id != target:
                            continue
                        cost.chains_touched.add(chain_id)
                        hops.append(ProvenanceHop(
                            tx_id=tx.tx_id, chain_id=chain_id,
                            block_height=block.height,
                            payload=dict(tx.payload),
                            proof_valid=True,   # scanning IS reading the chain
                        ))
                        entry = self._dependencies.get(target)
                        if entry is not None:
                            wanted.update(entry.parents)
        self.last_query_cost = cost
        return hops

    # ------------------------------------------------------------------
    def _shard(self, chain_id: str) -> Blockchain:
        shard = self.shards.get(chain_id)
        if shard is None:
            raise CrossChainError(f"no shard chain {chain_id!r}")
        return shard


class TrustedQueryEnclave:
    """The TEE enhancement the paper proposes for Vassago.

    Runs a query inside the "enclave" and signs the result digest with
    the enclave's attestation key.  Consumers who trust the enclave
    vendor can accept the attestation instead of re-verifying every
    Merkle proof — the fidelity/efficiency trade the paper discusses.
    """

    def __init__(self, system: Vassago, enclave_seed: int = 7) -> None:
        self.system = system
        self._keypair = KeyPair.generate(("enclave", enclave_seed))
        self.attestations_issued = 0

    @property
    def measurement(self) -> str:
        """The enclave's public identity (what consumers pin)."""
        return self._keypair.address

    def attested_query(self, tx_id: str) -> tuple[list[ProvenanceHop], bytes]:
        """Run the query and return (hops, attestation signature)."""
        hops = self.system.query_provenance(tx_id)
        digest = hash_canonical([
            {"tx": h.tx_id, "chain": h.chain_id, "valid": h.proof_valid}
            for h in hops
        ])
        signature = self._keypair.sign(digest)
        self.attestations_issued += 1
        return hops, signature

    def verify_attestation(self, hops: list[ProvenanceHop],
                           signature: bytes) -> bool:
        digest = hash_canonical([
            {"tx": h.tx_id, "chain": h.chain_id, "valid": h.proof_valid}
            for h in hops
        ])
        return verify(digest, signature, self._keypair.public)
