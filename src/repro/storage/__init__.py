"""Off-chain storage substrates — the survey-facing name.

The surveyed systems keep bulky data off-chain and anchor only hashes:
IPFS ([33], HealthBlock, Ahmed et al.) and cloud object stores
(ProvChain's OpenStack Swift).  The cloud object store lives here; the
content-addressed store and the indexed provenance database are part of
the storage layer proper (:mod:`repro.persist.cas`,
:mod:`repro.persist.provdb`) and are re-exported under the names the
system reproductions, paper benches and examples import.  No production
package imports this one (``make lint-layers``).
"""

from ..persist.cas import CID, ContentAddressedStore
from ..persist.provdb import ProvenanceDatabase
from .cloudstore import CloudObjectStore, StoreOperation

__all__ = [
    "ContentAddressedStore",
    "CID",
    "CloudObjectStore",
    "StoreOperation",
    "ProvenanceDatabase",
]
