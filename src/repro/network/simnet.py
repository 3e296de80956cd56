"""Discrete-event network simulator.

The simulator owns a :class:`~repro.clock.SimClock`; sending a message
schedules its delivery at ``now + latency(src, dst)``.  Running the event
loop advances the clock to each delivery time in order, so end-to-end
protocol latencies come out of the same timeline as HTLC timelocks and
block timestamps.

The simulator is the boundary between nodes: :meth:`SimNet.send`
canonically encodes a message body once (its length is the message
size) and each delivery hands the handler a body decoded from those
bytes, so no two nodes ever hold one object.

Determinism: all jitter and drop decisions come from a ``random.Random``
seeded at construction.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..clock import SimClock
from ..errors import NetworkError
from ..obs.runtime import telemetry
from ..persist.codec import decode_frame
from ..serialization import canonical_encode
from .message import NetMessage

Handler = Callable[[NetMessage], None]


@dataclass
class LatencyModel:
    """Per-link latency: ``base + jitter`` ticks, optionally per-region.

    ``region_penalty`` is added when the two endpoints are in different
    regions — the knob used to model geo-distributed consortium members.
    """

    base: int = 5
    jitter: int = 3
    region_penalty: int = 20

    def sample(self, rng: random.Random, same_region: bool) -> int:
        latency = self.base
        if self.jitter > 0:
            latency += rng.randrange(self.jitter + 1)
        if not same_region:
            latency += self.region_penalty
        return latency


@dataclass
class TopicFaults:
    """Deterministic fault plan for one topic (snapshot-sync hardening).

    Probabilities are sampled from the net's seeded RNG, so a given
    ``(seed, traffic)`` pair always injects the same faults:

    * ``drop`` — the message silently disappears;
    * ``duplicate`` — a second copy is queued with an independent
      latency sample (the receiver sees it twice, possibly far apart);
    * ``reorder`` — the message is held ``reorder_delay`` extra ticks so
      later sends overtake it.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: int = 50

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise NetworkError(f"{name} probability must be in [0, 1)")


@dataclass
class NetStats:
    """Counters the benchmarks read off after a run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    bytes_sent: int = 0
    by_topic: dict = field(default_factory=dict)

    def record_send(self, topic: str, size: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += size
        self.by_topic[topic] = self.by_topic.get(topic, 0) + 1


class SimNet:
    """The network fabric nodes register with.

    Per-instance counters stay on :attr:`stats` (the accessor the
    benchmarks read); every update is mirrored into the telemetry
    registry with a ``topic`` label — drops, duplicates, and reorders
    attributable per topic from one ``snapshot()`` — and a collector
    publishes the pending-queue depth gauge.
    """

    def __init__(
        self,
        latency: LatencyModel | None = None,
        drop_rate: float = 0.0,
        seed: int = 0,
        clock: SimClock | None = None,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        self.latency = latency or LatencyModel()
        self.drop_rate = drop_rate
        self.rng = random.Random(seed)
        self.clock = clock or SimClock()
        self.stats = NetStats()
        self._registry = registry = telemetry().registry
        self._m_delivered = registry.counter("net_messages_delivered_total")
        self._m_bytes = registry.counter("net_bytes_sent_total")
        # (sent, dropped, duplicated, reordered) counter handles per
        # topic, cached so a send pays dict probes, not label hashing.
        self._m_by_topic: dict[str, tuple] = {}
        registry.gauge("net_pending_messages")
        registry.register_collector(self._collect_metrics)
        self._handlers: dict[str, Handler] = {}
        self._regions: dict[str, str] = {}
        # Nodes that were registered and have since unregistered: frames
        # addressed to them count as undeliverable instead of raising.
        self._departed: set[str] = set()
        self._partitions: list[frozenset[str]] = []
        self._topic_faults: dict[str, TopicFaults] = {}
        # Event queue entries: (deliver_at, seq, envelope, encoded body)
        self._queue: list[tuple[int, int, NetMessage, bytes]] = []
        self._seq = 0

    def _collect_metrics(self) -> None:
        self._registry.gauge("net_pending_messages").set(
            len(self._queue)
        )

    def _undeliverable(self, topic: str) -> None:
        """One frame addressed to a just-disconnected node: a drop,
        counted also under the metric name the asyncio gateway uses for
        its socket writes, so operators read disconnect races off one
        series."""
        self.stats.messages_dropped += 1
        self._topic_counters(topic)[1].inc()
        self._registry.counter(
            "gateway_frames_undeliverable_total",
            topic=topic, transport="simnet",
        ).inc()

    def refuse(self, topic: str, reason: str) -> None:
        """Count one delivered message its handler dropped instead of
        admitting: ``malformed`` (no decodable block or transaction),
        ``lock_conflict`` or ``full``."""
        self._registry.counter(
            "net_messages_refused_total", topic=topic, reason=reason,
        ).inc()

    def _topic_counters(self, topic: str) -> tuple:
        handles = self._m_by_topic.get(topic)
        if handles is None:
            registry = self._registry
            handles = tuple(
                registry.counter(f"net_messages_{verb}_total", topic=topic)
                for verb in ("sent", "dropped", "duplicated", "reordered")
            )
            self._m_by_topic[topic] = handles
        return handles

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, node_id: str, handler: Handler, region: str = "default") -> None:
        """Attach a node; ``handler`` receives its messages."""
        if node_id in self._handlers:
            raise NetworkError(f"node id already registered: {node_id}")
        self._handlers[node_id] = handler
        self._regions[node_id] = region
        self._departed.discard(node_id)

    def unregister(self, node_id: str) -> None:
        """Detach a node (client disconnect).  The id is remembered so a
        frame already addressed to it — a reply racing the disconnect —
        is *counted* as undeliverable rather than raising ``unknown
        recipient`` in the middle of the sender's handler (which would
        abort the whole event loop) or silently vanishing."""
        if self._handlers.pop(node_id, None) is not None:
            self._departed.add(node_id)
        self._regions.pop(node_id, None)

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network: messages may only flow within a group.

        Call with no arguments to heal all partitions.
        """
        self._partitions = [frozenset(g) for g in groups]

    def heal(self) -> None:
        self._partitions = []

    # ------------------------------------------------------------------
    # Fault injection (per-topic, deterministic under the net's seed)
    # ------------------------------------------------------------------
    def inject_faults(self, topic: str, drop: float = 0.0,
                      duplicate: float = 0.0, reorder: float = 0.0,
                      reorder_delay: int = 50) -> None:
        """Attach a :class:`TopicFaults` plan to ``topic`` (replacing any
        existing plan; all-zero probabilities remove it)."""
        plan = TopicFaults(drop=drop, duplicate=duplicate,
                           reorder=reorder, reorder_delay=reorder_delay)
        if drop == duplicate == reorder == 0.0:
            self._topic_faults.pop(topic, None)
        else:
            self._topic_faults[topic] = plan

    def clear_faults(self, topic: str | None = None) -> None:
        """Remove the fault plan for ``topic`` (all topics when None)."""
        if topic is None:
            self._topic_faults.clear()
        else:
            self._topic_faults.pop(topic, None)

    def _can_reach(self, src: str, dst: str) -> bool:
        if not self._partitions:
            return True
        for group in self._partitions:
            if src in group and dst in group:
                return True
        return False

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, msg: NetMessage) -> bool:
        """Queue a message for delivery; returns False if dropped/cut.

        Sending to a node that was *never* registered is a programming
        error and raises.  Sending to a node that has **unregistered**
        (a capture client that just disconnected — the reply half of an
        in-flight exchange) is a normal race on a real network: the
        frame is counted undeliverable and ``False`` comes back, so a
        reply inside a dispatch handler never aborts the event loop.

        The body is canonically encoded here, once, whatever happens to
        the message next: a value the encoder refuses raises
        :class:`~repro.errors.SerializationError`.
        """
        data = canonical_encode(msg.body)
        if msg.recipient not in self._handlers:
            if msg.recipient in self._departed:
                self.stats.record_send(msg.topic, len(data))
                self._undeliverable(msg.topic)
                return False
            raise NetworkError(f"unknown recipient: {msg.recipient}")
        self.stats.record_send(msg.topic, len(data))
        sent, dropped, duplicated, reordered = \
            self._topic_counters(msg.topic)
        sent.inc()
        self._m_bytes.inc(len(data))
        faults = self._topic_faults.get(msg.topic)
        if not self._can_reach(msg.sender, msg.recipient) \
                or (self.drop_rate > 0
                    and self.rng.random() < self.drop_rate) \
                or (faults is not None and faults.drop > 0
                    and self.rng.random() < faults.drop):
            self.stats.messages_dropped += 1
            dropped.inc()
            return False
        same_region = (
            self._regions.get(msg.sender) == self._regions.get(msg.recipient)
        )
        latency = self.latency.sample(self.rng, same_region)
        if faults is not None:
            if faults.reorder > 0 and self.rng.random() < faults.reorder:
                latency += faults.reorder_delay
                self.stats.messages_reordered += 1
                reordered.inc()
            if faults.duplicate > 0 and self.rng.random() < faults.duplicate:
                extra = self.latency.sample(self.rng, same_region)
                heapq.heappush(
                    self._queue,
                    (self.clock.now() + extra, self._seq, msg, data),
                )
                self._seq += 1
                self.stats.messages_duplicated += 1
                duplicated.inc()
        deliver_at = self.clock.now() + latency
        heapq.heappush(self._queue, (deliver_at, self._seq, msg, data))
        self._seq += 1
        return True

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def step(self) -> NetMessage | None:
        """Deliver the single next message (advancing the clock to it):
        the handler gets a body decoded from the bytes :meth:`send`
        encoded, its own copy even of a duplicated message."""
        if not self._queue:
            return None
        deliver_at, _, msg, data = heapq.heappop(self._queue)
        self.clock.advance_to(deliver_at)
        handler = self._handlers.get(msg.recipient)
        if handler is None:  # node left after the send
            self._undeliverable(msg.topic)
            return None
        msg = NetMessage(msg.sender, msg.recipient, msg.topic,
                         decode_frame(data))
        handler(msg)
        self.stats.messages_delivered += 1
        self._m_delivered.inc()
        return msg

    def run(self, max_messages: int | None = None, until: int | None = None) -> int:
        """Deliver queued messages until idle, a cap, or a deadline.

        Handlers may send more messages; those are processed too.  Returns
        the number of messages delivered.
        """
        delivered = 0
        while self._queue:
            if max_messages is not None and delivered >= max_messages:
                break
            if until is not None and self._queue[0][0] > until:
                break
            if self.step() is not None:
                delivered += 1
        return delivered
