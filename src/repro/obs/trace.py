"""Span-based tracing with sampling.

A **trace** follows one sampled transaction (or one sync, one round)
through the system; a **span** is one timed operation within it.  Spans
parent two ways:

* explicitly — ``tracer.span(name, parent=ctx)`` with a
  :class:`TraceContext` carried across layer boundaries (bound to a
  transaction id at submit and taken back when its round seals);
* implicitly — ``tracer.span(name)`` with no parent attaches to the
  innermost active span *on the current thread*, which is how the
  persist layer's fsync span lands under whatever seal/commit span is
  running without the storage API knowing about tracing at all.

Sampling happens once, at the root: an unsampled root — and every
descendant opened under it, and every span opened with no active trace
at all — is the module's no-op singleton, so the unsampled hot path
pays one countdown decrement at the root and one ``is None``/flag check
per would-be child.  Finished spans land in a bounded ring buffer;
nothing here ever blocks or raises into the instrumented code.

Tracing stays in its process: no context or span crosses a pipe or a
socket.  Work done elsewhere — an exec worker's block execution — is
reported back as a plain duration, and the process that asked for it
records the span itself with :meth:`Tracer.record_span` under the
context it already holds, so the trace tree is whole without a wire
form of either.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple

_IDS = itertools.count(1)


def _new_id() -> str:
    # Unique within the process, the only place a span id is read.
    return f"{next(_IDS):x}"


class TraceContext(NamedTuple):
    """What crosses a layer boundary: enough to parent a child span.

    A ``NamedTuple`` rather than a dataclass: one is minted per sampled
    span on the hot path, and tuple construction is several times
    cheaper than a frozen dataclass's ``object.__setattr__`` init.
    """

    trace_id: str
    span_id: str
    sampled: bool = True


@dataclass
class SpanRecord:
    """One finished span (what exporters and tests read)."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_s: float
    duration_s: float
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_row(cls, row: list) -> "SpanRecord":
        """A span of this process's ring buffer (a root's parent id is
        stored as ``""``); the attrs are copied, so a reader's edit does
        not reach the buffer."""
        name, trace_id, span_id, parent_id, start, dur, status, attrs = row
        return cls(name, trace_id, span_id, parent_id or None, start, dur,
                   status, dict(attrs))


class _NoopSpan:
    """The unsampled span: every operation is a cheap no-op."""

    __slots__ = ()
    ctx = TraceContext(trace_id="", span_id="", sampled=False)

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attr(self, key: str, value: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """A live, sampled span; use as a context manager."""

    __slots__ = ("_tracer", "name", "ctx", "parent_id", "start_s",
                 "attrs", "status", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 trace_id: str | None, parent_id: str | None) -> None:
        self._tracer = tracer
        self.name = name
        span_id = _new_id()
        # A root span's id doubles as its trace id (one mint, not two).
        self.ctx = TraceContext(
            trace_id=span_id if trace_id is None else trace_id,
            span_id=span_id,
        )
        self.parent_id = parent_id
        self.attrs: dict[str, Any] = {}
        self.status = "ok"
        self.start_s = time.time()
        self._t0 = time.perf_counter()

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    # enter/exit touch the thread-local stack directly (not through
    # Tracer helpers): each avoided call is measurable at the sampling
    # rates the overhead budget allows.
    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = getattr(tracer._tls, "stack", None)
        if stack is None:
            stack = tracer._tls.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = f"error:{exc_type.__name__}"
        tracer = self._tracer
        stack = getattr(tracer._tls, "stack", None)
        if stack and stack[-1] is self:
            stack.pop()
        # The finished span lands in the ring buffer as a plain row;
        # SpanRecord objects are materialized lazily by readers.
        ctx = self.ctx
        tracer._spans.append(
            [self.name, ctx.trace_id, ctx.span_id, self.parent_id or "",
             self.start_s, time.perf_counter() - self._t0, self.status,
             self.attrs]
        )
        return False


class Tracer:
    """Sampling span factory + bounded finished-span buffer."""

    MAX_SPANS = 4096        # finished spans kept (oldest dropped first)
    MAX_BOUND_TXS = 4096    # sampled tx ids awaiting their seal

    def __init__(self, sample_every: int) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.sample_every = sample_every
        self._countdown = 1 if sample_every else 0
        # Finished spans, kept as rows in SpanRecord field order (see
        # SpanRecord.from_row): cheap to append on span exit,
        # materialized only when read.
        self._spans: deque[list] = deque(maxlen=self.MAX_SPANS)
        self._tls = threading.local()
        # tx_id -> TraceContext for sampled submits awaiting their seal.
        # Bounded: a sampled tx that never seals must not leak forever.
        self._tx_ctx: OrderedDict[str, TraceContext] = OrderedDict()
        self._bind_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Sampling + span creation
    # ------------------------------------------------------------------
    def should_sample(self) -> bool:
        """Decimating root-sampling decision: one decrement per call."""
        if self.sample_every == 0:
            return False
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.sample_every
            return True
        return False

    def root_span(self, name: str, sampled: bool | None = None):
        """Start a new trace; ``sampled=None`` asks the sampler."""
        if sampled is None:
            sampled = self.should_sample()
        if not sampled:
            return NOOP_SPAN
        return Span(self, name, trace_id=None, parent_id=None)

    def span(self, name: str,
             parent: TraceContext | None = None):
        """A child span of ``parent`` — or of the innermost span active
        on this thread when ``parent`` is None.  No sampled ancestor →
        the no-op singleton."""
        if parent is None:
            stack = getattr(self._tls, "stack", None)
            if not stack:
                return NOOP_SPAN
            top = stack[-1]
            return Span(self, name, trace_id=top.ctx.trace_id,
                        parent_id=top.ctx.span_id)
        if not parent.sampled:
            return NOOP_SPAN
        return Span(self, name, trace_id=parent.trace_id,
                    parent_id=parent.span_id)

    def record_span(self, name: str, parent: TraceContext | None,
                    duration_s: float, **attrs: Any) -> None:
        """Append a finished child span of ``parent`` that ran for
        ``duration_s`` and ended now — work timed outside this process
        (an exec worker's execution) recorded under the context this
        process holds.  Nothing is recorded without a sampled parent."""
        if parent is None or not parent.sampled:
            return
        self._spans.append(
            [name, parent.trace_id, _new_id(), parent.span_id,
             time.time() - duration_s, duration_s, "ok", attrs]
        )

    # ------------------------------------------------------------------
    # Transaction binding (submit → seal correlation)
    # ------------------------------------------------------------------
    def bind_tx(self, tx_id: str, ctx: TraceContext) -> None:
        with self._bind_lock:
            self._tx_ctx[tx_id] = ctx
            while len(self._tx_ctx) > self.MAX_BOUND_TXS:
                self._tx_ctx.popitem(last=False)

    @property
    def has_bound_txs(self) -> bool:
        return bool(self._tx_ctx)

    def take_tx_ctx(self, tx_ids: Iterable[str]) -> TraceContext | None:
        """Pop every binding for ``tx_ids``; return the first hit (the
        round span can have one parent — later hits are the same round
        and their traces converge on it)."""
        if not self._tx_ctx:
            return None
        found: TraceContext | None = None
        with self._bind_lock:
            for tx_id in tx_ids:
                ctx = self._tx_ctx.pop(tx_id, None)
                if ctx is not None and found is None:
                    found = ctx
        return found

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        return [SpanRecord.from_row(r) for r in self._spans]

    def find_spans(self, trace_id: str) -> list[SpanRecord]:
        return [SpanRecord.from_row(r) for r in self._spans
                if r[1] == trace_id]
