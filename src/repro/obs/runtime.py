"""The process-default telemetry instance and its lifecycle.

Every subsystem that instruments itself asks :func:`telemetry` for the
default :class:`Telemetry`; none takes an instance as an argument — so
one process has one registry and one tracer, an ``ops`` snapshot sees
every layer, and a span opened in one layer is the parent of the spans
the layers below it open.  Tests and benchmarks that need isolation
call :func:`reset_default_telemetry` before they build the stacks they
measure; each stack keeps the instruments it took at construction.

Telemetry stays in its process.  An exec worker reports none: its
reply carries the seconds its execution took, and the parent counts
the work and records the span itself (:mod:`repro.exec.engine`), so a
worker never resets, reads or ships the registry its fork copied.
"""

from __future__ import annotations

import threading

from .metrics import MetricsRegistry
from .trace import Tracer

# Trace one in every N sampling decisions by default: frequent enough
# that any sustained workload yields traces, rare enough that the
# amortized span cost stays inside the <=5% hot-path overhead budget
# (BENCH_obs.json measures it against the cheapest submit path in the
# system — in-memory routing at ~1µs/tx, where every span nanosecond
# shows).  Tests wanting every trace pass sample_every=1 explicitly.
DEFAULT_SAMPLE_EVERY = 256


class Telemetry:
    """One registry + one tracer, the unit handed around as a whole."""

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(sample_every=sample_every)

    def snapshot(self) -> dict:
        return self.registry.snapshot()


_DEFAULT: Telemetry | None = None
_DEFAULT_LOCK = threading.Lock()


def telemetry() -> Telemetry:
    """The process-default instance (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = Telemetry()
    return _DEFAULT


def reset_default_telemetry(sample_every: int = DEFAULT_SAMPLE_EVERY
                            ) -> Telemetry:
    """Replace the process default with a fresh instance (tests and
    benchmarks).  Subsystems holding instrument handles from the
    old instance keep them — only *new* lookups see the fresh one, so
    call this before constructing the stacks under test."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = Telemetry(sample_every=sample_every)
    return _DEFAULT
