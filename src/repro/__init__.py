"""repro — blockchain-based data provenance.

A canonical library reproducing the design space of *SOK: Blockchain for
Provenance* (Akbarfam & Maleki, VLDB 2024): a blockchain substrate with
pluggable consensus, a PROV-style provenance core with four capture
pathways and Merkle-anchored verified queries, five application domains,
the surveyed reference systems, and the full §2.3 cross-chain mechanism
zoo.

Quickstart::

    from repro import ProvChain

    system = ProvChain(difficulty_bits=8)
    system.create("alice", "report.pdf", b"draft 1")
    system.update("alice", "report.pdf", b"draft 2")
    answer = system.audit_object("report.pdf")
    assert answer.verified          # every record proven against the chain
"""

__version__ = "1.0.0"

from .clock import SimClock, SteppingClock
from .ids import IdFactory
from .errors import QueueFull, ReproError

from .chain import (
    Block,
    Blockchain,
    ChainParams,
    Mempool,
    StateStore,
    Transaction,
    TxKind,
)
from .crypto import CaseForest, KeyPair, MerkleTree, verify_proof
from .network import ChainNode, GossipProtocol, LatencyModel, SimNet
from .provenance import (
    AnchorService,
    CaptureSink,
    DirectCapture,
    MultiSourceCapture,
    ProvenanceGraph,
    ProvenanceQueryEngine,
    QueryCache,
    RelationKind,
    StoreMediatedCapture,
    ThirdPartyCapture,
    make_record,
)
from .persist import (
    BlockStore,
    DurableStorage,
    MemoryBlockStore,
    RecordStore,
    SegmentLog,
    StateSnapshotStore,
)
from .storage import CloudObjectStore, ContentAddressedStore, ProvenanceDatabase
from .sharding import (
    BeaconChain,
    CrossShardCoordinator,
    ShardedChain,
    ShardedQueryEngine,
    ShardRouter,
)
from .ingest import IngestPipeline, IngestStats, QueueStats
from .sync import (
    ShardReplica,
    SnapshotClient,
    SnapshotManifest,
    SnapshotServer,
    SyncReport,
)
from .errors import SyncError

# The surveyed systems and mechanisms (the paper reproduction) resolve on
# first use (PEP 562): the production path — gateway, ingest, sharding,
# persist — never imports them, so ``import repro.sharding`` stays small.
_SURVEY_EXPORTS = {
    "consensus": ("PBFTCluster", "ProofOfAuthority", "ProofOfStake",
                  "ProofOfWork", "RaftCluster", "Validator"),
    "systems": ("BlockCloud", "ForensiBlock", "ForensiCross",
                "IPFSProvenance", "LedgerViewSystem", "PrivChain",
                "ProvChain", "SciLedger", "SynergyChain", "Vassago"),
    "crosschain": ("AtomicSwap", "BridgeChain", "HTLCManager",
                   "NotaryScheme", "PeggedSidechain", "RelayChain",
                   "SwapParty"),
}
_SURVEY_HOME = {name: package
                for package, names in _SURVEY_EXPORTS.items()
                for name in names}


def __getattr__(name: str):
    package = _SURVEY_HOME.get(name)
    if package is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{package}"), name)
    globals()[name] = value
    return value


__all__ = [
    "__version__",
    "SimClock",
    "SteppingClock",
    "IdFactory",
    "ReproError",
    "Block",
    "Blockchain",
    "ChainParams",
    "Mempool",
    "StateStore",
    "Transaction",
    "TxKind",
    "PBFTCluster",
    "ProofOfAuthority",
    "ProofOfStake",
    "ProofOfWork",
    "RaftCluster",
    "Validator",
    "CaseForest",
    "KeyPair",
    "MerkleTree",
    "verify_proof",
    "ChainNode",
    "GossipProtocol",
    "LatencyModel",
    "SimNet",
    "AnchorService",
    "CaptureSink",
    "DirectCapture",
    "MultiSourceCapture",
    "ProvenanceGraph",
    "ProvenanceQueryEngine",
    "QueryCache",
    "RelationKind",
    "StoreMediatedCapture",
    "ThirdPartyCapture",
    "make_record",
    "CloudObjectStore",
    "ContentAddressedStore",
    "ProvenanceDatabase",
    "BlockCloud",
    "ForensiBlock",
    "ForensiCross",
    "IPFSProvenance",
    "LedgerViewSystem",
    "PrivChain",
    "ProvChain",
    "SciLedger",
    "SynergyChain",
    "Vassago",
    "AtomicSwap",
    "BridgeChain",
    "HTLCManager",
    "NotaryScheme",
    "PeggedSidechain",
    "RelayChain",
    "SwapParty",
    "BeaconChain",
    "CrossShardCoordinator",
    "ShardedChain",
    "ShardedQueryEngine",
    "ShardRouter",
    "BlockStore",
    "RecordStore",
    "StateSnapshotStore",
    "MemoryBlockStore",
    "DurableStorage",
    "SegmentLog",
    "IngestPipeline",
    "IngestStats",
    "QueueStats",
    "QueueFull",
    "ShardReplica",
    "SnapshotClient",
    "SnapshotManifest",
    "SnapshotServer",
    "SyncError",
    "SyncReport",
]
