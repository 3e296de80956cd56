"""Simulated clocks.

Everything in the library that needs a notion of time takes a clock object
instead of calling ``time.time()``.  This keeps runs deterministic and lets
the network simulator, HTLC timelocks, and freshness checks all agree on a
single logical timeline that tests can advance explicitly.

:class:`SimClock` is a logical clock advanced manually (or by the network
simulator).  The unit is abstract "ticks"; benchmarks typically interpret
one tick as one millisecond.
"""

from __future__ import annotations


class SimClock:
    """A deterministic, manually advanced logical clock.

    >>> clock = SimClock()
    >>> clock.now()
    0
    >>> clock.advance(5)
    5
    >>> clock.now()
    5
    """

    __slots__ = ("_now",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError("clock cannot start before t=0")
        self._now = int(start)

    def now(self) -> int:
        """Return the current logical time."""
        return self._now

    def advance(self, delta: int = 1) -> int:
        """Move time forward by ``delta`` ticks and return the new time."""
        if delta < 0:
            raise ValueError("time cannot move backwards")
        self._now += int(delta)
        return self._now

    def advance_to(self, timestamp: int) -> int:
        """Advance to an absolute ``timestamp`` (no-op if already later)."""
        if timestamp > self._now:
            self._now = int(timestamp)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(t={self._now})"

