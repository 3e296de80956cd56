"""Sampling primitives for workload generation."""

from __future__ import annotations

import random
from bisect import bisect_left


class ZipfSampler:
    """Zipf-distributed integers in ``[0, n)``.

    ``P(k) ∝ 1 / (k+1)^s``.  Used for skewed access patterns: hot objects
    in cloud storage, hot subjects in query streams (the repeated-query
    scenario of paper §6.2).
    """

    def __init__(self, n: int, s: float = 1.1, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if s < 0:
            raise ValueError("s must be non-negative")
        self.n = n
        self.s = s
        self.rng = random.Random(seed)
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        self._cdf: list[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self) -> int:
        # First rank whose cumulative probability reaches u, the last
        # rank if none does.
        return bisect_left(self._cdf, self.rng.random(), 0, self.n - 1)

    def sample_many(self, count: int) -> list[int]:
        return [self.sample() for _ in range(count)]

