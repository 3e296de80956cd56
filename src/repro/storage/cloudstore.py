"""Versioned cloud object store that narrates every operation.

The ProvChain scenario (RQ1): users store files in a Swift/Dropbox-like
service, and the provenance layer needs to observe every create, read,
update and share.  This store is the simulated service: it keeps
versioned objects per user and emits a :class:`StoreOperation` for each
action to any registered observer — exactly the hook the *store-mediated*
capture pathway of Figure 3 consumes.  The audit trail is what the
observers make of that stream: captured records, Merkle-batched and
anchored on a chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..clock import SimClock
from ..crypto.hashing import hash_bytes
from ..errors import AccessDenied, ObjectNotFound

Observer = Callable[["StoreOperation"], None]

OPERATIONS = ("create", "read", "update", "share")


@dataclass(frozen=True)
class StoreOperation:
    """One user action against the store (the capture layer's raw input)."""

    op_id: int
    op: str                     # one of OPERATIONS
    user: str
    object_key: str
    version: int
    content_hash: bytes
    timestamp: int
    details: dict = field(default_factory=dict)


@dataclass
class _StoredObject:
    owner: str
    versions: list[bytes] = field(default_factory=list)   # raw contents
    shared_with: set[str] = field(default_factory=set)


class CloudObjectStore:
    """A multi-user versioned object store that narrates everything it
    does: each create, read, update and share reaches every observer as
    a :class:`StoreOperation`."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self._objects: dict[str, _StoredObject] = {}
        self._observers: list[Observer] = []
        self._op_count = 0

    # ------------------------------------------------------------------
    # Observation (capture hook)
    # ------------------------------------------------------------------
    def add_observer(self, observer: Observer) -> None:
        """Register a callback invoked synchronously for every operation."""
        self._observers.append(observer)

    def _notify(self, op: str, user: str, key: str, version: int,
                content: bytes | None, **details) -> StoreOperation:
        content_hash = hash_bytes(content) if content is not None else b""
        operation = StoreOperation(
            op_id=self._op_count,
            op=op,
            user=user,
            object_key=key,
            version=version,
            content_hash=content_hash,
            timestamp=self.clock.now(),
            details=details,
        )
        self._op_count += 1
        for observer in self._observers:
            observer(operation)
        return operation

    # ------------------------------------------------------------------
    # Authorization
    # ------------------------------------------------------------------
    def _readable_by(self, obj: _StoredObject, user: str) -> bool:
        return user == obj.owner or user in obj.shared_with

    def _require_object(self, key: str) -> _StoredObject:
        obj = self._objects.get(key)
        if obj is None:
            raise ObjectNotFound(f"no object {key!r}")
        return obj

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def create(self, user: str, key: str, content: bytes) -> StoreOperation:
        if key in self._objects:
            raise AccessDenied(f"object {key!r} already exists")
        self._objects[key] = _StoredObject(owner=user, versions=[content])
        return self._notify("create", user, key, version=0, content=content,
                            size=len(content))

    def read(self, user: str, key: str,
             version: int | None = None) -> tuple[bytes, StoreOperation]:
        obj = self._require_object(key)
        if not self._readable_by(obj, user):
            raise AccessDenied(f"{user} may not read {key!r}")
        index = len(obj.versions) - 1 if version is None else version
        if not 0 <= index < len(obj.versions):
            raise ObjectNotFound(f"{key!r} has no version {version}")
        content = obj.versions[index]
        op = self._notify("read", user, key, version=index, content=content)
        return content, op

    def update(self, user: str, key: str, content: bytes) -> StoreOperation:
        obj = self._require_object(key)
        if not self._readable_by(obj, user):
            raise AccessDenied(f"{user} may not update {key!r}")
        obj.versions.append(content)
        return self._notify("update", user, key,
                            version=len(obj.versions) - 1, content=content,
                            size=len(content))

    def share(self, user: str, key: str, with_user: str) -> StoreOperation:
        obj = self._require_object(key)
        if user != obj.owner:
            raise AccessDenied(f"only the owner may share {key!r}")
        obj.shared_with.add(with_user)
        return self._notify("share", user, key,
                            version=len(obj.versions) - 1, content=None,
                            with_user=with_user)
