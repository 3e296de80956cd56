"""Deterministic smart-contract runtime.

The surveyed systems use smart contracts for bookkeeping — provenance
registration (SmartProvenance, Ramachandran & Kantarcioglu) and incentive
payout (PrivChain) — not for general computation.  This runtime provides
exactly that: contracts are Python classes whose ``@method``-decorated
entry points execute inside a metered, journaled, revert-on-error
sandbox, driven by ordinary chain transactions; the events a call emits
ride on the receipt its commit returns.
"""

from .contract import Contract, method, view
from .runtime import ContractRuntime, deploy_payload, call_payload
from .library.registry import ProvenanceRegistry
from .library.escrow import IncentiveEscrow

__all__ = [
    "Contract",
    "method",
    "view",
    "ContractRuntime",
    "deploy_payload",
    "call_payload",
    "ProvenanceRegistry",
    "IncentiveEscrow",
]
