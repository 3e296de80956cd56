"""Blockchain substrate: transactions, blocks, the chain, and state.

This package implements the structure of the paper's Figure 2 — blocks
carrying a Merkle root over their transactions, chained by previous-block
hashes — plus the supporting machinery every surveyed system assumes:
a mempool, a deterministic state machine, and execution receipts.
"""

from .transaction import Transaction, TxKind
from .block import Block, BlockHeader, GENESIS_PREV_HASH
from .blockchain import Blockchain, ChainParams
from .mempool import Mempool
from .state import StateStore
from .receipts import Event, TransactionReceipt
from ..verify import AnchoredProof, LightClient

__all__ = [
    "Transaction",
    "TxKind",
    "Block",
    "BlockHeader",
    "GENESIS_PREV_HASH",
    "Blockchain",
    "ChainParams",
    "Mempool",
    "StateStore",
    "Event",
    "TransactionReceipt",
    "AnchoredProof",
    "LightClient",
]
