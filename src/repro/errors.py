"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""

    def as_dict(self) -> dict:
        """Structured form for wire ``error`` frames, reports and logs.
        Subclasses with a stable ``reason`` code carry it; the rest are
        named by their class."""
        return {"reason": getattr(self, "reason", type(self).__name__),
                "message": str(self)}


class SerializationError(ReproError):
    """A value could not be canonically serialized for hashing."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidSignature(CryptoError):
    """A signature failed verification."""


class InvalidProof(CryptoError):
    """A Merkle / commitment / range proof failed verification."""


class ChainError(ReproError):
    """Base class for blockchain-level failures."""


class InvalidBlock(ChainError):
    """A block violates a structural or consensus rule."""


class InvalidTransaction(ChainError):
    """A transaction is malformed or fails validation."""


class SealedMutation(ChainError):
    """A sealed (frozen) transaction or header was mutated."""


# A retry-after of zero is a footgun the moment the signal crosses a
# socket: a well-behaved remote client that honors the hint verbatim
# retries *immediately* and hot-loops the gateway.  Every QueueFull is
# therefore clamped to this floor (callers with a better estimate — the
# sharded facade's round-pace EWMA — pass a larger value, or their own
# floor via ``min_retry_after_s``).
RETRY_AFTER_FLOOR_S = 0.010


class QueueFull(InvalidTransaction):
    """A bounded admission queue (ingest queue or mempool) is at capacity.

    This is a *backpressure signal*, not a verdict on the transaction:
    the submission is well-formed but cannot be absorbed right now.  The
    structured fields tell the capture source exactly how loaded the
    queue is and when a retry is worth attempting, replacing the seed's
    opaque ``mempool full`` drop.

    ``retry_after_rounds`` counts sealing rounds expected before the
    queue drains below its high watermark; ``retry_after_s`` converts
    that to wall time using the ingest layer's recent round pace.  The
    wall estimate is never zero: it is clamped to ``min_retry_after_s``
    (default :data:`RETRY_AFTER_FLOOR_S`) so a remote client honoring
    it verbatim backs off instead of hot-looping — including in the
    pre-first-seal window where no round pace has been observed yet.
    """

    def __init__(self, message: str, *, shard_id: int | None = None,
                 depth: int = 0, capacity: int = 0,
                 high_watermark: int = 0,
                 retry_after_rounds: int = 1,
                 retry_after_s: float = 0.0,
                 min_retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.depth = depth
        self.capacity = capacity
        self.high_watermark = high_watermark
        self.retry_after_rounds = retry_after_rounds
        if min_retry_after_s is None:
            min_retry_after_s = RETRY_AFTER_FLOOR_S
        self.retry_after_s = max(retry_after_s, min_retry_after_s)

    def as_dict(self) -> dict:
        """Structured form for reports, logs, and wire responses."""
        return {
            "shard_id": self.shard_id,
            "depth": self.depth,
            "capacity": self.capacity,
            "high_watermark": self.high_watermark,
            "retry_after_rounds": self.retry_after_rounds,
            "retry_after_s": self.retry_after_s,
        }


class ForkError(ChainError):
    """A fork-choice or reorganization problem."""


class TamperDetected(ChainError):
    """Integrity verification found a mutated block or record; ``height``
    is the block where the chain breaks, when one is known."""

    def __init__(self, message: str, *, height: int | None = None) -> None:
        super().__init__(message)
        self.height = height


class ShardError(ChainError):
    """A sharded-chain routing, sealing, or locking problem.

    ``reason`` is a stable machine code (``"lock_conflict"``,
    ``"fenced_epoch"``, ``"seal_failed"``, ``"quarantined"``, …) and
    ``shard_id`` attributes the failure to one shard, so operators and
    the chaos harness can classify failures without parsing messages.
    Both are optional: the plain ``ShardError("message")`` form keeps
    working everywhere.
    """

    def __init__(self, message: str, *, reason: str = "shard_error",
                 shard_id: int | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.shard_id = shard_id

    def as_dict(self) -> dict:
        """Structured form for reports, logs, and health rollups."""
        return {
            "reason": self.reason,
            "shard_id": self.shard_id,
            "message": str(self),
        }


class ConsensusError(ReproError):
    """A consensus engine could not reach or verify agreement."""


class NetworkError(ReproError):
    """A simulated-network delivery failure."""


class PartitionError(NetworkError):
    """Message could not be delivered because of a network partition."""


class SyncError(NetworkError):
    """Snapshot-sync catch-up failed closed against a serving peer.

    Raised by the :mod:`repro.sync` client whenever downloaded material
    does not verify against the trust root (beacon headers) or the
    hash-bound manifest: a corrupt or forged chunk, a tail that does not
    hash-chain to the beacon-anchored head, a state image whose root
    mismatches the anchored commitment, a stale or wrong-height offer,
    or a peer that stops answering.  ``reason`` is a stable machine
    code (``"corrupt_chunk"``, ``"forged_tail"``, ``"state_root_mismatch"``,
    ``"stale_snapshot"``, ``"forged_offer"``, ``"peer_unresponsive"``, …)
    so callers can drive retry/failover policy without parsing messages.
    """

    def __init__(self, message: str, *, reason: str = "sync_failed",
                 shard_id: int | None = None,
                 peer: str | None = None,
                 detail: str = "") -> None:
        super().__init__(message)
        self.reason = reason
        self.shard_id = shard_id
        self.peer = peer
        self.detail = detail

    def as_dict(self) -> dict:
        """Structured form for reports, logs, and wire responses."""
        return {
            "reason": self.reason,
            "shard_id": self.shard_id,
            "peer": self.peer,
            "detail": self.detail,
        }


class GatewayError(NetworkError):
    """A request/response protocol failure on either carrier (see
    :mod:`repro.rpc`, :mod:`repro.gateway`).

    ``reason`` is a stable machine code so clients and tests can drive
    policy without parsing messages: ``"frame_too_large"``,
    ``"corrupt_frame"``, ``"protocol"`` (op/sequence violations),
    ``"bad_request"`` (a field of the wrong shape), ``"read_timeout"``
    (a frame's payload stalled), ``"draining"`` (server refusing new
    work during graceful shutdown), ``"connection_closed"`` (peer
    vanished mid-exchange), ``"peer_unresponsive"`` (no reply within the
    retry budget), whatever reason a peer's ``error`` frame carried, and
    ``"backpressure_budget"`` (client retry budget exhausted with
    submissions still backpressured — nothing was dropped; the
    unaccepted transactions ride on ``pending``).
    """

    def __init__(self, message: str, *, reason: str = "gateway_error",
                 pending: list | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.pending = pending if pending is not None else []


class ContractError(ReproError):
    """Base class for smart-contract runtime failures."""


class ContractNotFound(ContractError):
    """No contract is deployed at the given address."""


class ContractReverted(ContractError):
    """Contract execution reverted; state changes were rolled back."""


class OutOfGas(ContractReverted):
    """Execution exceeded its gas allowance."""


class StorageError(ReproError):
    """Base class for off-chain storage failures.

    ``reason`` is a stable machine code (``"format_too_new"``,
    ``"format_too_old"``, …); the plain ``StorageError("message")`` form
    keeps working everywhere.
    """

    def __init__(self, message: str, *, reason: str = "storage_error") -> None:
        super().__init__(message)
        self.reason = reason


class ObjectNotFound(StorageError):
    """Requested object/CID does not exist in the store."""


class ColdHistory(StorageError):
    """Raw frames were asked of heights a tiered store has archived."""


class ProvenanceError(ReproError):
    """Base class for provenance-layer failures."""


class UnknownEntity(ProvenanceError):
    """Referenced provenance node does not exist."""


class CycleDetected(ProvenanceError):
    """An operation would introduce a cycle into the provenance DAG."""


class RecordValidationError(ProvenanceError):
    """A domain provenance record is missing or has malformed fields."""


class CaptureError(ProvenanceError):
    """A provenance capture pathway could not record an operation."""


class AnchorError(ProvenanceError):
    """Anchoring provenance to the chain failed or proof was invalid."""


class QueryError(ProvenanceError):
    """A provenance query was malformed or could not be answered."""


class AccessDenied(ReproError):
    """An access-control policy denied the operation."""


class PolicyError(ReproError):
    """An access-control policy is malformed."""


class PrivacyError(ReproError):
    """Base class for privacy-layer failures."""


class DecryptionError(PrivacyError):
    """Ciphertext could not be decrypted with the supplied key."""


class CrossChainError(ReproError):
    """Base class for cross-chain protocol failures."""


class SwapAborted(CrossChainError):
    """An atomic swap was aborted; all legs refunded."""


class TimelockExpired(CrossChainError):
    """An HTLC timelock expired before the secret was revealed."""


class BridgeError(CrossChainError):
    """A bridge-chain transfer failed validation or voting."""


class DomainError(ReproError):
    """Base class for application-domain failures."""


class WorkflowError(DomainError):
    """Scientific workflow lifecycle violation."""


class CustodyError(DomainError):
    """Supply-chain or forensic chain-of-custody violation."""


class ConsentError(DomainError):
    """Healthcare consent requirement violated."""
