"""Metrics registry: counters, gauges, fixed-bucket histograms.

Lock discipline (deliberately cheap):

* **Updates are lock-free.**  ``Counter.inc`` / ``Gauge.set`` /
  ``Histogram.observe`` mutate plain Python ints and floats.  Under the
  GIL a concurrent ``+=`` can at worst lose an occasional increment —
  an accepted trade for keeping hot-path instrumentation at one
  attribute add.
* **Registry structure is locked.**  Creating an instrument, attaching
  a collector, and snapshotting take the registry lock; instrument
  handles are cached by callers so the lock is off every hot path.

Collectors invert the push model for the hottest paths: a subsystem
keeps its existing plain-int counters and registers a callback that
publishes them as gauges/counters when (and only when) a snapshot is
taken.  Collectors are held by weak reference so a dead pipeline or
facade silently drops out of the snapshot instead of leaking.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping

# Spans ~1µs .. 10s: fsyncs, admission batches, seal rounds all land in
# distinguishable buckets.  (Upper catch-all bucket is implicit: +Inf.)
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = (
    64.0, 1024.0, 16384.0, 262144.0, 4194304.0,
)
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0,
)

LabelsT = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelsT:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelsT) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic event counter (resettable for test/bench hygiene)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsT = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A value that goes up and down (depths, watermarks, paces)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelsT = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n


class Histogram:
    """Fixed-bucket histogram with an implicit +Inf catch-all bucket.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    counts the rest.  ``observe`` is one bisect plus two adds.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, labels: LabelsT = (),
                 bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(float(b) for b in bounds))
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def percentile_bound(self, q: float) -> float:
        """Upper bucket bound covering quantile ``q`` (rough p99-style
        readout; ``inf`` when it lands in the catch-all bucket)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                return (self.bounds[i] if i < len(self.bounds)
                        else float("inf"))
        return float("inf")  # pragma: no cover - loop always reaches target

    def to_snapshot(self) -> dict:
        cumulative = []
        running = 0
        for i, bound in enumerate(self.bounds):
            running += self.counts[i]
            cumulative.append([bound, running])
        return {"buckets": cumulative, "sum": self.sum,
                "count": self.count}


CollectorT = Callable[[], None]


class MetricsRegistry:
    """The process's (or a test's) one place metrics live."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelsT], Counter] = {}
        self._gauges: dict[tuple[str, LabelsT], Gauge] = {}
        self._histograms: dict[tuple[str, LabelsT], Histogram] = {}
        # Weak refs: a collector belongs to some subsystem instance;
        # when that dies, its callback silently leaves the registry.
        self._collectors: list[weakref.ref] = []

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _labels_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(key,
                                                 Counter(name, key[1]))
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _labels_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(key, Gauge(name, key[1]))
        return inst

    def histogram(self, name: str,
                  buckets: Iterable[float] | None = None,
                  **labels: Any) -> Histogram:
        key = (name, _labels_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(
                    key,
                    Histogram(name, key[1],
                              bounds=(buckets if buckets is not None
                                      else DEFAULT_LATENCY_BUCKETS)),
                )
        return inst

    # ------------------------------------------------------------------
    # Collectors (pull-model instrumentation for hot subsystems)
    # ------------------------------------------------------------------
    def register_collector(self, fn: CollectorT) -> None:
        """Register a zero-arg callback run before every snapshot.

        Bound methods are held via :class:`weakref.WeakMethod`, plain
        callables via ``weakref.ref`` where possible (a local closure
        that nothing else references will be dropped — hold it on the
        subsystem instance that owns the stats).
        """
        try:
            ref = (weakref.WeakMethod(fn)
                   if hasattr(fn, "__self__") else weakref.ref(fn))
        except TypeError:  # unweakrefable callable: hold it forever
            ref = (lambda fn=fn: fn)  # type: ignore[assignment]
        with self._lock:
            self._collectors.append(ref)

    def collect(self) -> None:
        """Run live collectors; prune dead ones; never raise.

        A collector that throws (e.g. reads a closed store) is dropped —
        telemetry must not take the serving path down with it.
        """
        with self._lock:
            refs = list(self._collectors)
        dead: list[weakref.ref] = []
        for ref in refs:
            fn = ref()
            if fn is None:
                dead.append(ref)
                continue
            try:
                fn()
            except Exception:  # noqa: BLE001 - see docstring
                dead.append(ref)
        if dead:
            with self._lock:
                self._collectors = [r for r in self._collectors
                                    if r not in dead]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Point-in-time view of everything (collectors refreshed)."""
        self.collect()
        with self._lock:
            counters = {_render_key(c.name, c.labels): c.value
                        for c in self._counters.values()}
            gauges = {_render_key(g.name, g.labels): g.value
                      for g in self._gauges.values()}
            histograms = {_render_key(h.name, h.labels): h.to_snapshot()
                          for h in self._histograms.values()}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (enough of it for scraping)."""
        snap = self.snapshot()
        lines: list[str] = []
        for key in sorted(snap["counters"]):
            lines.append(f"{key} {snap['counters'][key]}")
        for key in sorted(snap["gauges"]):
            lines.append(f"{key} {snap['gauges'][key]}")
        for key in sorted(snap["histograms"]):
            hist = snap["histograms"][key]
            name, _, labels = key.partition("{")
            inner = labels[:-1] if labels else ""
            for bound, cumulative in hist["buckets"]:
                sep = "," if inner else ""
                lines.append(
                    f'{name}_bucket{{{inner}{sep}le="{bound}"}} '
                    f"{cumulative}"
                )
            sep = "," if inner else ""
            lines.append(f'{name}_bucket{{{inner}{sep}le="+Inf"}} '
                         f"{hist['count']}")
            suffix = f"{{{inner}}}" if inner else ""
            lines.append(f"{name}_sum{suffix} {hist['sum']}")
            lines.append(f"{name}_count{suffix} {hist['count']}")
        return "\n".join(lines) + "\n"
