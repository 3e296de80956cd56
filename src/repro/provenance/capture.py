"""Provenance capture pathways — the paper's Figure 3, executable.

Figure 3 sketches four ways metadata reaches provenance storage:

1. **Direct**: the user has direct access to the data store and sends the
   metadata to provenance storage themselves.
2. **Store-mediated**: the user accesses the data; the *data store* sends
   the metadata (ProvChain's hooked cloud store works this way).
3. **Third-party**: the user lacks direct access; a centralized or
   decentralized third party authenticates the access and forwards the
   metadata.
4. **Multi-source**: several parties each contribute part of the record,
   possibly to different provenance stores.

Each pathway is a class delivering records into a shared
:class:`CaptureSink`.  The pathways differ — measurably, see the FIG3
bench — in hop count, authentication work, and failure modes; the sink
normalizes everything into the provenance database and, optionally, the
anchor pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..errors import AccessDenied, CaptureError
from ..storage.cloudstore import CloudObjectStore, StoreOperation
from ..persist.provdb import ProvenanceDatabase
from .records import DOMAIN_SCHEMAS, validate_record

Authenticator = Callable[[str, str], bool]   # (actor, resource) -> allowed?
RecordBuilder = Callable[[StoreOperation], dict]


@dataclass
class CaptureMetrics:
    """Per-pathway accounting read by the FIG3 bench."""

    pathway: str
    operations: int = 0
    records_delivered: int = 0
    records_rejected: int = 0
    messages: int = 0          # logical hops metadata travelled
    auth_checks: int = 0


class CaptureSink:
    """Terminal point of every pathway: validate, store, optionally anchor."""

    def __init__(self, database: ProvenanceDatabase | None = None,
                 anchor_service=None) -> None:
        self.database = database if database is not None else ProvenanceDatabase()
        self.anchor_service = anchor_service
        self.delivered = 0

    def deliver(self, record: Mapping[str, Any]) -> dict:
        """Accept one record: schema-validate (when the domain is known),
        insert into the database, and enqueue for anchoring."""
        record = dict(record)
        if record.get("domain") in DOMAIN_SCHEMAS:
            validate_record(record)
        if "record_id" not in record:
            raise CaptureError("record lacks record_id")
        self.database.insert(record)
        if self.anchor_service is not None:
            self.anchor_service.enqueue(record)
        self.delivered += 1
        return record


class DirectCapture:
    """Pathway 1: the data owner reports their own operations.

    Cheapest (one hop) but trusts the reporter completely — the integrity
    argument only starts once the record is anchored.
    """

    def __init__(self, sink: CaptureSink) -> None:
        self.sink = sink
        self.metrics = CaptureMetrics(pathway="direct")

    def record_operation(self, record: Mapping[str, Any]) -> dict:
        self.metrics.operations += 1
        self.metrics.messages += 1           # user -> provenance storage
        delivered = self.sink.deliver(record)
        self.metrics.records_delivered += 1
        return delivered


class StoreMediatedCapture:
    """Pathway 2: the data store itself emits the metadata.

    Subscribes to a :class:`CloudObjectStore`'s operation stream and
    converts each operation into a provenance record.  The reporter is
    the infrastructure, not the user — ProvChain's design.
    """

    def __init__(
        self,
        sink: CaptureSink,
        store: CloudObjectStore,
        record_builder: RecordBuilder | None = None,
        record_prefix: str = "cap",
    ) -> None:
        self.sink = sink
        self.store = store
        self.metrics = CaptureMetrics(pathway="store_mediated")
        self._builder = record_builder or self._default_builder
        self._prefix = record_prefix
        store.add_observer(self._on_operation)

    def _default_builder(self, op: StoreOperation) -> dict:
        return {
            "record_id": f"{self._prefix}-{op.op_id:08d}",
            "domain": "cloud_storage",
            "subject": op.object_key,
            "actor": op.user,
            "operation": op.op,
            "timestamp": op.timestamp,
            "version": op.version,
            "content_hash": op.content_hash.hex(),
            "details": dict(op.details),
        }

    def _on_operation(self, op: StoreOperation) -> None:
        self.metrics.operations += 1
        self.metrics.messages += 1           # store -> provenance storage
        try:
            self.sink.deliver(self._builder(op))
            self.metrics.records_delivered += 1
        except CaptureError:
            self.metrics.records_rejected += 1


class ThirdPartyCapture:
    """Pathways 3a/3b: a third party authenticates access, then reports.

    * centralized — a single authenticator decides (one auth check, two
      hops: user → third party → provenance storage);
    * decentralized — a quorum of ``authenticators`` must approve (k auth
      checks and k+1 hops), removing the single point of trust at the
      price the FIG3 bench quantifies.
    """

    def __init__(
        self,
        sink: CaptureSink,
        authenticators: Sequence[Authenticator],
        quorum: int | None = None,
    ) -> None:
        if not authenticators:
            raise CaptureError("need at least one authenticator")
        self.sink = sink
        self.authenticators = list(authenticators)
        self.quorum = len(authenticators) if quorum is None else quorum
        if not 1 <= self.quorum <= len(self.authenticators):
            raise CaptureError("quorum out of range")
        mode = "centralized" if len(self.authenticators) == 1 else "decentralized"
        self.metrics = CaptureMetrics(pathway=f"third_party_{mode}")

    def request(self, actor: str, resource: str,
                record: Mapping[str, Any]) -> dict:
        """Mediated capture: authenticate ``actor`` on ``resource``,
        then deliver the record.  Raises :class:`AccessDenied` when the
        quorum is not met (and counts the rejection)."""
        self.metrics.operations += 1
        self.metrics.messages += 1            # user -> third party
        approvals = 0
        for authenticator in self.authenticators:
            self.metrics.auth_checks += 1
            self.metrics.messages += 1        # consult each authenticator
            if authenticator(actor, resource):
                approvals += 1
            if approvals >= self.quorum:
                break
        if approvals < self.quorum:
            self.metrics.records_rejected += 1
            raise AccessDenied(
                f"{actor} denied on {resource}: {approvals}/{self.quorum} "
                "authenticator approvals"
            )
        self.metrics.messages += 1            # third party -> prov storage
        delivered = self.sink.deliver(record)
        self.metrics.records_delivered += 1
        return delivered


class MultiSourceCapture:
    """Pathway 4: several reporters contribute fragments of one record.

    A record becomes deliverable once ``required_sources`` *distinct*
    reporters have contributed.  Overlapping fields must agree —
    a disagreement is evidence of a lying reporter and fails the capture
    loudly rather than recording a half-true story.
    """

    def __init__(self, sink: CaptureSink, required_sources: int = 2) -> None:
        if required_sources < 1:
            raise CaptureError("required_sources must be >= 1")
        self.sink = sink
        self.required_sources = required_sources
        self.metrics = CaptureMetrics(pathway="multi_source")
        self._pending: dict[str, dict] = {}
        self._sources: dict[str, set[str]] = {}

    def report(self, source: str, record_id: str,
               fragment: Mapping[str, Any]) -> dict | None:
        """Contribute a fragment; returns the merged record once complete."""
        self.metrics.operations += 1
        self.metrics.messages += 1
        pending = self._pending.setdefault(record_id, {"record_id": record_id})
        for key, value in fragment.items():
            if key == "record_id":
                continue
            if key in pending and pending[key] != value:
                self.metrics.records_rejected += 1
                del self._pending[record_id]
                self._sources.pop(record_id, None)
                raise CaptureError(
                    f"conflicting fragment for {record_id!r} field {key!r}: "
                    f"{pending[key]!r} vs {value!r}"
                )
            pending[key] = value
        sources = self._sources.setdefault(record_id, set())
        sources.add(source)
        if len(sources) < self.required_sources:
            return None
        record = self._pending.pop(record_id)
        self._sources.pop(record_id, None)
        delivered = self.sink.deliver(record)
        self.metrics.records_delivered += 1
        return delivered

    @property
    def pending_count(self) -> int:
        return len(self._pending)
