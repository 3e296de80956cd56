"""Deterministic namespace → shard routing.

The router is the only component that decides data placement, so its
mapping must be *stable* (the same namespace lands on the same shard in
every process, every run — it is derived from a domain-separated SHA-256,
never from Python's randomized ``hash()``) and *total* (every transaction
routes somewhere; unroutable ones fail loudly).

Placement is by **provenance namespace**: the organization / tenant
prefix of a subject (``"acme-pharma/lot-001"`` → ``"acme-pharma"``).
Keeping a whole namespace on one shard makes the common queries
(object history, tenant audit) single-shard; only explicit cross-namespace
derivations pay the two-phase-commit cost.
"""

from __future__ import annotations

from ..chain.transaction import Transaction, check_payload
from ..crypto.hashing import DOMAIN_SHARD, hash_bytes
from ..errors import ShardError

#: Separator between the namespace prefix and the object id in a subject.
NAMESPACE_SEP = "/"


def namespace_of(subject: str) -> str:
    """The namespace (tenant) prefix of a subject string.

    ``"orgA/lot-7"`` → ``"orgA"``; a subject without a separator is its
    own namespace (single-tenant objects still route deterministically).
    """
    head, _, _ = subject.partition(NAMESPACE_SEP)
    return head


class ShardRouter:
    """Maps namespaces (and transactions) onto ``n_shards`` buckets."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ShardError("need at least one shard")
        self.n_shards = n_shards
        # The hash is cheap but routing sits on the ingest hot path and
        # namespaces repeat heavily (Zipf traffic), so memoize.
        self._memo: dict[str, int] = {}

    # ------------------------------------------------------------------
    def shard_for(self, namespace: str) -> int:
        """Stable shard index for a namespace."""
        shard = self._memo.get(namespace)
        if shard is None:
            digest = hash_bytes(namespace.encode("utf-8"), DOMAIN_SHARD)
            shard = int.from_bytes(digest[:8], "big") % self.n_shards
            self._memo[namespace] = shard
        return shard

    def shard_for_subject(self, subject: str) -> int:
        return self.shard_for(namespace_of(subject))

    # ------------------------------------------------------------------
    def key_for(self, tx: Transaction) -> str:
        """The routing namespace of a transaction.

        Precedence: an explicit ``payload["namespace"]``, else the
        namespace prefix of ``payload["subject"]``, else the sender
        (every transaction routes *somewhere*).  A payload that is not a
        mapping is the sender's fault, refused here with
        :class:`~repro.errors.InvalidTransaction` before any door reads
        it.
        """
        payload = tx.payload
        check_payload(payload)
        namespace = payload.get("namespace")
        if namespace:
            return str(namespace)
        subject = payload.get("subject")
        if subject:
            return namespace_of(str(subject))
        if tx.sender:
            return tx.sender
        raise ShardError("transaction has no namespace, subject, or sender")

    def route(self, tx: Transaction) -> int:
        return self.shard_for(self.key_for(tx))

    def partition(self, txs) -> dict[int, list[Transaction]]:
        """Group transactions by destination shard (batch routing)."""
        buckets: dict[int, list[Transaction]] = {}
        for tx in txs:
            buckets.setdefault(self.route(tx), []).append(tx)
        return buckets
