"""Cryptographic primitives for the provenance library.

Hashing is real SHA-256.  Signatures are an *API-faithful simulation*
built on keyed hashing: they preserve the verify/forge semantics the
higher layers rely on, but are not production cryptography (see
DESIGN.md §2).  The Pedersen commitments the range proofs need live in
:mod:`repro.privacy`.
"""

from .hashing import (
    DOMAIN_BLOCK,
    DOMAIN_LEAF,
    DOMAIN_NODE,
    DOMAIN_RECORD,
    DOMAIN_TX,
    HashChain,
    hash_bytes,
    hash_canonical,
    hash_hex,
)
from .merkle import MerkleProof, MerkleTree, verify_proof
from .distributed_merkle import CaseForest, ForestProof
from .signatures import KeyPair, PrivateKey, PublicKey, sign, verify

__all__ = [
    "DOMAIN_BLOCK",
    "DOMAIN_LEAF",
    "DOMAIN_NODE",
    "DOMAIN_RECORD",
    "DOMAIN_TX",
    "HashChain",
    "hash_bytes",
    "hash_canonical",
    "hash_hex",
    "MerkleProof",
    "MerkleTree",
    "verify_proof",
    "CaseForest",
    "ForestProof",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "sign",
    "verify",
]
