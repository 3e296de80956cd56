"""Deterministic identifier generation.

Real deployments use UUIDs; for reproducible simulations we derive ids from
a named, seeded counter so that two runs with the same seed produce the same
ids (and therefore the same hashes, blocks, and benchmark workloads).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict


class IdFactory:
    """Produces deterministic, human-readable, unique identifiers.

    Ids look like ``tx-000042`` or, with ``hashed=True``,
    ``tx-9f86d081884c`` (a short digest that still depends only on the
    factory seed and the per-prefix counter).

    >>> ids = IdFactory(seed=7)
    >>> ids.next("tx")
    'tx-000000'
    >>> ids.next("tx")
    'tx-000001'
    >>> ids.next("block")
    'block-000000'
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._counters: defaultdict[str, int] = defaultdict(int)

    def next(self, prefix: str, hashed: bool = False) -> str:
        """Return the next id for ``prefix``.

        With ``hashed=True`` the sequential counter is replaced by a short
        digest of ``(seed, prefix, counter)`` which is harder to guess but
        equally deterministic.
        """
        n = self._counters[prefix]
        self._counters[prefix] = n + 1
        if not hashed:
            return f"{prefix}-{n:06d}"
        material = f"{self.seed}:{prefix}:{n}".encode()
        digest = hashlib.sha256(material).hexdigest()[:12]
        return f"{prefix}-{digest}"

    def issued(self, prefix: str) -> int:
        """Return how many ids have been issued for ``prefix``."""
        return self._counters.get(prefix, 0)

