"""Reusable contracts used by the reference systems."""

from .registry import ProvenanceRegistry
from .escrow import IncentiveEscrow

__all__ = [
    "ProvenanceRegistry",
    "IncentiveEscrow",
]
