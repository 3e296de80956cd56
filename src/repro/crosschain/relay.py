"""Relay chain: header-based trust-minimized interoperability.

"Relay chains focus solely on data transfer between different chains"
(§2.3).  Registered chains periodically submit their block headers to the
relay; any party can then prove to any chain that a transaction was
included in a source chain by exhibiting a Merkle inclusion proof against
a relayed header — no notary trusted with attestation, only with
liveness of header submission.

This is the verification backbone Vassago-style cross-chain provenance
queries use: a provenance record's anchor is checked against the relayed
header of its home chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain import Blockchain, ChainParams, Transaction, TxKind
from ..chain.block import BlockHeader
from ..chain.transaction import Transaction as Tx
from ..clock import SimClock
from ..crypto.merkle import MerkleProof
from ..errors import CrossChainError
from ..verify import tx_in_header
from .messages import TransferOutcome


@dataclass(frozen=True)
class RelayedHeader:
    """A header as stored on the relay chain."""

    chain_id: str
    height: int
    block_hash: bytes
    merkle_root: bytes
    timestamp: int


class RelayChain:
    """A chain whose payload is other chains' headers."""

    def __init__(self, clock: SimClock, chain_id: str = "relay") -> None:
        self.clock = clock
        self.chain = Blockchain(ChainParams(chain_id=chain_id))
        self._registered: dict[str, Blockchain] = {}
        # (chain_id, height) -> RelayedHeader
        self._headers: dict[tuple[str, int], RelayedHeader] = {}
        self.headers_relayed = 0
        self.messages = 0

    # ------------------------------------------------------------------
    # Registration & header submission
    # ------------------------------------------------------------------
    def register(self, chain: Blockchain) -> None:
        if chain.chain_id in self._registered:
            raise CrossChainError(f"{chain.chain_id} already registered")
        self._registered[chain.chain_id] = chain

    def registered_chains(self) -> list[str]:
        return sorted(self._registered)

    def submit_header(self, chain_id: str, header: BlockHeader) -> RelayedHeader:
        """A relayer submits one source-chain header to the relay."""
        if chain_id not in self._registered:
            raise CrossChainError(f"unregistered chain {chain_id!r}")
        relayed = RelayedHeader(
            chain_id=chain_id,
            height=header.height,
            block_hash=header.block_hash,
            merkle_root=header.merkle_root,
            timestamp=header.timestamp,
        )
        tx = Transaction(
            sender=f"relayer-{chain_id}",
            kind=TxKind.CROSS_CHAIN,
            payload={
                "message_id": f"hdr-{chain_id}-{header.height}",
                "kind": "header",
                "chain_id": chain_id,
                "height": header.height,
                "block_hash": header.block_hash,
                "merkle_root": header.merkle_root,
            },
            timestamp=self.clock.now(),
        )
        self.chain.append_block(self.chain.build_block(
            [tx], timestamp=self.clock.now()
        ))
        self._headers[(chain_id, header.height)] = relayed
        self.headers_relayed += 1
        self.messages += 1
        return relayed

    def sync_chain(self, chain_id: str) -> int:
        """Relay every header of a registered chain not yet relayed."""
        source = self._registered.get(chain_id)
        if source is None:
            raise CrossChainError(f"unregistered chain {chain_id!r}")
        submitted = 0
        for block in source.blocks:
            if (chain_id, block.height) not in self._headers:
                self.submit_header(chain_id, block.header)
                submitted += 1
        return submitted

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def header_for(self, chain_id: str, height: int) -> RelayedHeader:
        header = self._headers.get((chain_id, height))
        if header is None:
            raise CrossChainError(
                f"relay holds no header for {chain_id}@{height}"
            )
        return header

    def verify_inclusion(
        self,
        chain_id: str,
        height: int,
        tx: Tx,
        proof: MerkleProof,
    ) -> bool:
        """Check a source-chain transaction against the relayed header."""
        return tx_in_header(self.header_for(chain_id, height), tx, proof)

    # ------------------------------------------------------------------
    # A relay-mediated transfer (burn-and-prove-and-mint)
    # ------------------------------------------------------------------
    def transfer(
        self,
        source: Blockchain,
        target: Blockchain,
        sender: str,
        recipient: str,
        amount: int,
    ) -> TransferOutcome:
        """Move value source→target with relay-verified proof of burn."""
        t0 = self.clock.now()
        if source.chain_id not in self._registered:
            self.register(source)
        # 1. Burn on the source chain.
        burn_address = f"relay-burn-{source.chain_id}"
        source.state.transfer(sender, burn_address, amount)
        burn_tx = Transaction(
            sender=sender,
            kind=TxKind.CROSS_CHAIN,
            payload={"message_id": f"burn-{sender}-{self.clock.now()}",
                     "action": "burn", "amount": amount,
                     "recipient": recipient,
                     "target_chain": target.chain_id},
            timestamp=self.clock.now(),
        )
        source.append_block(source.build_block(
            [burn_tx], timestamp=self.clock.now()
        ))
        # 2. Relay the header containing the burn.
        self.submit_header(source.chain_id, source.head.header)
        # 3. Prove inclusion and mint on the target chain.
        located = source.prove_transaction(burn_tx.tx_id)
        if located is None:
            raise CrossChainError("burn transaction vanished")
        block, proof = located
        self.messages += 2            # proof shipped + verified
        if not self.verify_inclusion(source.chain_id, block.height,
                                     burn_tx, proof):
            return TransferOutcome(
                mechanism="relay", status="aborted",
                messages=3, on_chain_txs=2,
                latency_ticks=self.clock.now() - t0,
            )
        target.state.credit(recipient, amount)
        mint_tx = Transaction(
            sender=f"relay-agent-{target.chain_id}",
            kind=TxKind.CROSS_CHAIN,
            payload={"message_id": f"mint-{recipient}-{self.clock.now()}",
                     "action": "mint", "amount": amount,
                     "proof_header": block.height,
                     "source_chain": source.chain_id},
            timestamp=self.clock.now(),
        )
        target.append_block(target.build_block(
            [mint_tx], timestamp=self.clock.now()
        ))
        return TransferOutcome(
            mechanism="relay", status="completed",
            messages=3, on_chain_txs=3,
            latency_ticks=self.clock.now() - t0,
            extra={"relayed_height": block.height},
        )
