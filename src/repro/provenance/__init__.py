"""Provenance core.

A domain-neutral provenance layer modeled on W3C PROV-DM:

* :mod:`~repro.provenance.model` — entities, activities, agents and the
  relations between them;
* :mod:`~repro.provenance.graph` — the provenance DAG with lineage and
  impact queries;
* :mod:`~repro.provenance.records` — the per-domain record schemas of the
  paper's Table 1;
* :mod:`~repro.provenance.capture` — the four capture pathways of
  Figure 3;
* :mod:`~repro.provenance.anchor` — batching records into Merkle roots
  anchored on a blockchain, with verifiable inclusion proofs;
* :mod:`~repro.provenance.query` — point/range/lineage queries, optional
  cryptographic verification, and the repeated-query cache the paper's
  §6.2 calls for.
"""

from .model import (
    NodeKind,
    ProvNode,
    Relation,
    RelationKind,
    entity,
    activity,
    agent,
)
from .graph import ProvenanceGraph
from .records import (
    DOMAIN_SCHEMAS,
    RecordSchema,
    make_record,
    validate_record,
)
from .capture import (
    CaptureSink,
    DirectCapture,
    StoreMediatedCapture,
    ThirdPartyCapture,
    MultiSourceCapture,
)
from ..verify import AnchoredProof
from .anchor import AnchorReceipt, AnchorService
from .query import ProvenanceQueryEngine, QueryCache, QueryStats, VerifiedAnswer
from .multimodal import ModalToken, MultiModalTokenizer

__all__ = [
    "NodeKind",
    "ProvNode",
    "Relation",
    "RelationKind",
    "entity",
    "activity",
    "agent",
    "ProvenanceGraph",
    "DOMAIN_SCHEMAS",
    "RecordSchema",
    "make_record",
    "validate_record",
    "CaptureSink",
    "DirectCapture",
    "StoreMediatedCapture",
    "ThirdPartyCapture",
    "MultiSourceCapture",
    "AnchorReceipt",
    "AnchorService",
    "AnchoredProof",
    "ProvenanceQueryEngine",
    "QueryCache",
    "QueryStats",
    "VerifiedAnswer",
    "ModalToken",
    "MultiModalTokenizer",
]
