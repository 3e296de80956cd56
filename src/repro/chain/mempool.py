"""Transaction mempool.

Pending transactions wait here until a consensus engine selects a batch
for the next block.  Ordering is by fee (descending) then arrival (FIFO),
which matches the "highest fee first" policy of public chains while
degenerating to FIFO on permissioned chains where fees are zero.
"""

from __future__ import annotations

import heapq
from typing import Iterable

from ..errors import QueueFull
from .transaction import Transaction


class Mempool:
    """A bounded, deduplicating, fee-prioritized transaction pool.

    Dedup and ordering key on ``tx.tx_id``, which the transaction caches
    after first computation — admission is one hash for a fresh
    transaction and a dict probe for a duplicate.  A transaction leaves
    the pool only through :meth:`pop_batch`, so every heap entry names a
    pooled transaction.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._heap: list[tuple[int, int, str]] = []  # (-fee, seq, tx_id)
        self._by_id: dict[str, Transaction] = {}
        self._seq = 0
        self.total_accepted = 0
        self.total_rejected = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_id)

    # ------------------------------------------------------------------
    def add(self, tx: Transaction) -> bool:
        """Add ``tx``; returns ``False`` for duplicates.

        A full pool raises :class:`~repro.errors.QueueFull` — a
        structured backpressure signal carrying depth and capacity, not
        a verdict on the transaction (it still subclasses
        ``InvalidTransaction`` for older callers).
        """
        tx.validate()
        tx_id = tx.tx_id
        if tx_id in self._by_id:
            self.total_rejected += 1
            return False
        if len(self._by_id) >= self.capacity:
            self.total_rejected += 1
            raise QueueFull("mempool full", depth=len(self._by_id),
                            capacity=self.capacity,
                            high_watermark=self.capacity)
        self._by_id[tx_id] = tx
        heapq.heappush(self._heap, (-tx.fee, self._seq, tx_id))
        self._seq += 1
        self.total_accepted += 1
        return True

    def add_many(self, txs: Iterable[Transaction]) -> int:
        """Add several transactions; returns how many were new."""
        return sum(1 for tx in txs if self.add(tx))

    def pop_batch(self, max_count: int) -> list[Transaction]:
        """Remove and return up to ``max_count`` transactions in priority
        order (fee desc, then FIFO)."""
        heap, by_id = self._heap, self._by_id
        return [by_id.pop(heapq.heappop(heap)[2])
                for _ in range(min(max_count, len(heap)))]
