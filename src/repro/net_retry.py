"""One retry/backoff/failover policy for both carriers of :mod:`repro.rpc`.

* :class:`RetryPolicy` — attempt budget plus **exponential backoff with
  seeded jitter**, one schedule read on two clocks.  The SimNet channel
  (:class:`~repro.network.node.SimChannel`) re-sends an unanswered
  request after advancing the *simulated* clock
  :meth:`~RetryPolicy.backoff_ticks`, jitter drawn from the network's
  seeded RNG, so a retry timeline is as deterministic as the rest of the
  simulation.  The TCP client re-submits a backpressured batch after
  :func:`sleep_backoff`: the same ticks as *wall* seconds (``tick_s``
  each), or the server's ``RETRY_AFTER`` hint when that is longer.
* :func:`failover` — try each peer in order, collecting nothing but the
  last structured error.

Instrumentation (process-default registry, labeled by topic — the op on
SimNet, ``"gateway"`` on TCP): ``net_requests_total``,
``net_retries_total``, ``net_requests_unanswered_total``,
``net_backoff_ticks_total``, and ``net_failovers_total``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .errors import SyncError
from .obs.runtime import telemetry as default_telemetry


# The backoff shape: retry *k* (1-based) waits ``BASE_BACKOFF_TICKS *
# BACKOFF_FACTOR**(k-1)`` ticks, capped at the policy's
# ``max_backoff_ticks``, plus a jitter tick count in ``[0, JITTER_TICKS]``
# drawn from the caller's (seeded) RNG when it supplies one.
BASE_BACKOFF_TICKS = 8
BACKOFF_FACTOR = 2.0
JITTER_TICKS = 4


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + backoff cap.

    ``max_retries`` counts *re*-sends: every request gets
    ``max_retries + 1`` attempts.  Before retry attempt *k* the caller's
    clock advances :meth:`backoff_ticks` ticks (the module constants'
    exponential schedule, capped at ``max_backoff_ticks``).  The first
    attempt never waits."""

    max_retries: int = 3
    max_backoff_ticks: int = 256
    # Wall-clock value of one backoff tick for async/wall-clock callers
    # (the gateway client sleeps real seconds, not simulated ticks).
    tick_s: float = 0.001

    def backoff_ticks(self, attempt: int, rng=None) -> int:
        """Ticks to wait before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0
        ticks = min(
            int(BASE_BACKOFF_TICKS * BACKOFF_FACTOR ** (attempt - 1)),
            self.max_backoff_ticks,
        )
        if rng is not None:
            ticks += rng.randrange(JITTER_TICKS + 1)
        return ticks

    def backoff_s(self, attempt: int, hint_s: float = 0.0) -> float:
        """Wall-clock seconds to wait before retry ``attempt``: the
        larger of the exponential schedule (ticks × ``tick_s``, no
        jitter) and a server-supplied hint (a ``QueueFull.retry_after_s``
        translated into a ``RETRY_AFTER`` wire response).  The hint wins
        while the server knows best; the exponential floor takes over
        when the same client keeps getting bounced — repeat offenders
        back off *harder* than the hint alone asks."""
        return max(self.backoff_ticks(attempt) * self.tick_s,
                   float(hint_s))


def count_retry(topic: str, ticks: int) -> None:
    """Account one retry and the ``ticks`` waited before it."""
    registry = default_telemetry().registry
    registry.counter("net_retries_total", topic=topic).inc()
    if ticks:
        registry.counter("net_backoff_ticks_total", topic=topic).inc(ticks)


async def sleep_backoff(policy: RetryPolicy, attempt: int,
                        hint_s: float = 0.0) -> float:
    """Wall-clock half of the policy: sleep
    :meth:`RetryPolicy.backoff_s` without blocking the event loop,
    accounted in ``policy.tick_s`` ticks.  Returns the seconds slept."""
    wait_s = policy.backoff_s(attempt, hint_s=hint_s)
    count_retry("gateway",
                max(1, int(wait_s / policy.tick_s)) if wait_s > 0 else 0)
    if wait_s > 0:
        await asyncio.sleep(wait_s)
    return wait_s


def failover(peers: Iterable[str], attempt: Callable[[str], Any]) -> Any:
    """Run ``attempt(peer)`` against each peer in order; the first
    success wins.  A peer failing with :class:`~repro.errors.SyncError`
    (the structured, fail-closed taxonomy) moves on to the next peer;
    when every peer fails the *last* error propagates, and an empty
    peer list raises ``SyncError(reason="no_peers")``."""
    registry = default_telemetry().registry
    last_error = SyncError("no peers available", reason="no_peers")
    for i, peer in enumerate(peers):
        if i:
            registry.counter("net_failovers_total").inc()
        try:
            return attempt(peer)
        except SyncError as exc:
            last_error = exc
    raise last_error
