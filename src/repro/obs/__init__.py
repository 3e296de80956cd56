"""Unified runtime telemetry: metrics registry, span tracing, ops surfaces.

Design note (ISSUE 7)
=====================

Until this package existed, the runtime's self-knowledge was scattered:
per-shard admission/seal timings lived in the sharded facade, the ingest
pipeline kept its own queue counters, the signature LRUs kept module
globals, ``SimNet`` kept a stats dataclass, and nothing correlated one
transaction's journey from submit → queue → seal → worker → fsync →
beacon anchor.  ``repro.obs`` is the one sensory system every layer
reports into, built around three rules:

**1. The hot path pays (almost) nothing.**  Subsystems keep their
existing cheap plain-int counters (``_ShardQueue.total_enqueued`` and
friends cost one integer add); the registry *pulls* them through
registered collector callbacks at ``snapshot()`` time instead of pushing
a registry update per event.  Direct instrument updates (histogram
observations, counter bumps) appear only on per-batch / per-round /
per-fsync paths where one dict probe is noise.  Tracing is sampled:
an unsampled submit pays one countdown decrement, and every span
started under an unsampled (or absent) trace context is the no-op
singleton — ``benchmarks/bench_obs.py`` asserts the instrumented hot
submit path stays within 5% of the uninstrumented one.

**2. One process, one default registry — but workers merge in.**
:func:`repro.obs.runtime.telemetry` returns the process-default
:class:`~repro.obs.runtime.Telemetry` (registry + tracer).  Exec worker
processes run their own default (reset after fork); their span records
and counter deltas ride the existing canonical reply frames of
``exec/worker.py`` and are merged into the parent's registry and tracer
by the process round engine as each shard's result lands, so a cross-process
seal still produces one coherent trace tree and one counter space.
Trace context travels the other way inside the job frame (``trace_id``,
parent span id, sampled flag) — the same canonical codec that carries
the block frames carries the context, no side channel.

**3. Accessors stay; their counters move.**  ``signatures.cache_stats()``
(one entry, ``verify_signature``: re-checks answered by the verdict a
sealed transaction carries vs checks that went to the HMAC) and
``SimNet``'s ``NetStats`` keep their shapes
(regression-tested) but the counters now live in (or are mirrored into)
the default registry, labeled, so one ``snapshot()`` — or one ``ops``
request over the network — sees everything: queue
depths and watermarks, admission/seal/fsync/verify latency histograms,
QueueFull/deferral/quarantine counters, per-topic drop/dup/reorder,
sync chunk/tail progress, tiering reclaim, worker respawns.

Ops surfaces
------------

* ``MetricsRegistry.snapshot()`` — point-in-time dict of every counter,
  gauge, and histogram (collectors refreshed first);
* ``MetricsRegistry.render_prometheus()`` — Prometheus-style text
  exposition;
* ``MetricsRegistry.write_jsonl(path)`` — append one JSON line per
  call, so bench runs and long-lived nodes double as fixtures
  (``benchmarks/_harness.py`` embeds a snapshot in every
  ``BENCH_*.json`` under ``"telemetry"``);
* the ``ops`` op — one handler (:func:`repro.rpc.ops_handler`:
  registry snapshot plus named sections such as ``health`` / ``ingest``
  / ``gateway``) answered in the one request/response grammar over
  either carrier: ``ChainNode.serve_shards`` and every
  ``ShardReplica`` serve it on SimNet
  (``node.channel(peer).call({"op": "ops"})``), ``GatewayServer`` on
  TCP (``AsyncGatewayClient.ops()``);
* ``ShardedChain.health_report()`` — the operator rollup: per-shard
  backlog, heights, last-round seal timings with slowest-shard
  attribution, and the round-pace EWMA.  This is the exact signal set
  the ROADMAP's resharding/autoscaler item consumes.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import Telemetry, reset_default_telemetry, telemetry
from .trace import SpanRecord, TraceContext, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "Telemetry",
    "reset_default_telemetry",
    "telemetry",
]
