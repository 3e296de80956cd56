"""Unified runtime telemetry (PR 7): registry, tracing, ops surfaces.

Four layers of coverage:

* unit behavior of the metrics registry (counters/gauges/histograms,
  labels, collectors, Prometheus/JSON-lines export, cross-process
  counter deltas) and the tracer (decimation sampling, implicit
  nesting, wire round trips, bounded buffers);
* accessor regressions — ``sig.cache_stats()`` and ``SimNet.stats``
  keep their pre-telemetry shapes while now being registry-backed;
* end-to-end trace propagation: a sampled submit's trace id is an
  ancestor of the exec worker's apply span (merged back across the
  process boundary) and of the persist layer's fsync span — including
  when the worker is killed mid-deployment and execution falls back
  in-process;
* ``ops/metrics`` over SimNet: gateway and live replica both answer a
  remote snapshot request, and the facade's health rollup attributes
  the slowest shard.
"""

from __future__ import annotations

import json

import pytest

from repro import IngestPipeline, ShardedChain, Transaction, TxKind
from repro.chain import transaction as tx_mod
from repro.crypto import signatures as sig
from repro.crypto.signatures import KeyPair
from repro.errors import GatewayError
from repro.net_retry import RetryPolicy
from repro.network import ChainNode, LatencyModel, SimNet
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import (
    DEFAULT_SAMPLE_EVERY,
    Telemetry,
    reset_default_telemetry,
    telemetry,
)
from repro.obs.trace import NOOP_SPAN, SpanRecord, TraceContext, Tracer
from repro.sync.server import SnapshotServer

N_SHARDS = 2


def make_txs(n: int, tag: str = "t") -> list[Transaction]:
    return [
        Transaction(f"acct-{i % 16}", TxKind.DATA,
                    {"key": f"{tag}{i:05d}", "value": i},
                    timestamp=i).seal()
        for i in range(n)
    ]


@pytest.fixture
def traced_telemetry():
    """A fresh process default sampling *every* root; restored after."""
    tel = reset_default_telemetry(sample_every=1)
    yield tel
    reset_default_telemetry()


# ---------------------------------------------------------------------------
# Metrics registry units
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("events_total").inc()
        reg.counter("events_total").inc(4)
        reg.gauge("depth").set(7)
        hist = reg.histogram("latency_seconds")
        for v in (2e-6, 5e-4, 0.3):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["counters"]["events_total"] == 5
        assert snap["gauges"]["depth"] == 7
        h = snap["histograms"]["latency_seconds"]
        assert h["count"] == 3
        assert h["sum"] == pytest.approx(2e-6 + 5e-4 + 0.3)
        # Cumulative bucket counts are monotone and end at count.
        running = [c for _, c in h["buckets"]]
        assert running == sorted(running)
        assert running[-1] == 3

    def test_labels_make_distinct_series_and_cached_handles(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", shard=0)
        b = reg.counter("ops_total", shard=1)
        assert a is not b
        assert reg.counter("ops_total", shard=0) is a
        a.inc(2)
        b.inc(3)
        snap = reg.snapshot()
        assert snap["counters"]['ops_total{shard="0"}'] == 2
        assert snap["counters"]['ops_total{shard="1"}'] == 3

    def test_collector_runs_at_snapshot_and_drops_when_dead(self):
        reg = MetricsRegistry()

        class Subsystem:
            def __init__(self):
                self.pending = 0

            def collect(self):
                reg.gauge("pending").set(self.pending)

        sub = Subsystem()
        reg.register_collector(sub.collect)
        sub.pending = 11
        assert reg.snapshot()["gauges"]["pending"] == 11
        sub.pending = 3
        assert reg.snapshot()["gauges"]["pending"] == 3
        del sub  # weakly-held collector silently leaves the registry
        assert reg.snapshot()["gauges"]["pending"] == 3

    def test_raising_collector_is_pruned_not_propagated(self):
        reg = MetricsRegistry()

        class Broken:
            calls = 0

            def collect(self):
                Broken.calls += 1
                raise RuntimeError("closed store")

        broken = Broken()
        reg.register_collector(broken.collect)
        reg.snapshot()  # must not raise
        reg.snapshot()
        assert Broken.calls == 1  # dropped after the first failure

    def test_histogram_percentile_bound(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=[0.01, 0.1, 1.0])
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(5.0)
        assert hist.percentile_bound(0.5) == 0.01
        assert hist.percentile_bound(1.0) == float("inf")

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", shard=0).inc(2)
        reg.gauge("depth").set(4)
        reg.histogram("lat_seconds", buckets=[0.1, 1.0]).observe(0.05)
        text = reg.render_prometheus()
        assert 'reqs_total{shard="0"} 2' in text
        assert "depth 4" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_jsonl_exporter_appends_parseable_lines(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("writes_total").inc()
        path = tmp_path / "metrics.jsonl"
        reg.write_jsonl(path, extra={"phase": "a"})
        reg.counter("writes_total").inc()
        reg.write_jsonl(path, extra={"phase": "b"})
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [e["phase"] for e in lines] == ["a", "b"]
        assert lines[0]["counters"]["writes_total"] == 1
        assert lines[1]["counters"]["writes_total"] == 2
        assert all("ts" in e for e in lines)

    def test_counter_deltas_drain_and_merge(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        worker.counter("blocks_total", shard=1).inc(3)
        deltas = worker.drain_counter_deltas()
        assert deltas == [["blocks_total", {"shard": "1"}, 3]]
        # Drains report increments, never cumulative values twice.
        assert worker.drain_counter_deltas() == []
        worker.counter("blocks_total", shard=1).inc(2)
        parent.merge_counter_deltas(deltas)
        parent.merge_counter_deltas(worker.drain_counter_deltas())
        assert parent.snapshot()["counters"]['blocks_total{shard="1"}'] == 5

    def test_reset_zeroes_but_keeps_handles(self):
        reg = MetricsRegistry()
        counter = reg.counter("n_total")
        counter.inc(9)
        reg.reset()
        assert counter.value == 0
        counter.inc()
        assert reg.snapshot()["counters"]["n_total"] == 1


# ---------------------------------------------------------------------------
# Tracer units
# ---------------------------------------------------------------------------
class TestTracer:
    def test_decimation_sampling(self):
        tracer = Tracer(sample_every=4)
        decisions = [tracer.should_sample() for _ in range(8)]
        assert decisions == [True, False, False, False,
                             True, False, False, False]
        assert not any(Tracer(sample_every=0).should_sample()
                       for _ in range(10))

    def test_span_without_active_trace_is_noop(self):
        tracer = Tracer(sample_every=0)
        assert tracer.span("anything") is NOOP_SPAN
        assert tracer.root_span("root") is NOOP_SPAN  # sampler says no
        with tracer.span("nested") as span:
            span.set_attr("k", "v")  # all no-ops, nothing recorded
        assert tracer.spans() == []

    def test_implicit_nesting_under_active_span(self):
        tracer = Tracer(sample_every=1)
        with tracer.root_span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        records = {s.name: s for s in tracer.spans()}
        assert records["inner"].parent_id == outer.ctx.span_id
        assert records["inner"].trace_id == outer.ctx.trace_id
        assert records["outer"].parent_id is None
        assert inner.ctx.span_id != outer.ctx.span_id

    def test_error_status_recorded_and_exception_propagates(self):
        tracer = Tracer(sample_every=1)
        with pytest.raises(ValueError):
            with tracer.root_span("failing"):
                raise ValueError("boom")
        (record,) = tracer.spans()
        assert record.status == "error:ValueError"

    def test_context_wire_round_trip(self):
        ctx = TraceContext(trace_id="t1", span_id="s1", sampled=True)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        assert TraceContext.from_wire(None) is None
        assert not TraceContext.from_wire(
            {"trace_id": "t", "span_id": "s", "sampled": False}
        ).sampled

    def test_explicit_parent_crosses_boundaries(self):
        parent_tracer = Tracer(sample_every=1)
        with parent_tracer.root_span("submit") as root:
            wire = root.ctx.to_wire()
        worker_tracer = Tracer(sample_every=0)  # worker samples nothing
        ctx = TraceContext.from_wire(wire)
        with worker_tracer.span("exec", parent=ctx) as span:
            span.set_attr("blocks", 2)
        rows = worker_tracer.span_rows(drain=True)
        assert worker_tracer.spans() == []
        n = parent_tracer.ingest_rows(rows)
        assert n == 1
        merged = parent_tracer.find_spans(root.ctx.trace_id)
        assert {s.name for s in merged} == {"submit", "exec"}
        exec_span = next(s for s in merged if s.name == "exec")
        assert exec_span.parent_id == root.ctx.span_id
        assert exec_span.attrs == {"blocks": 2}

    def test_ingest_rows_tolerates_malformed(self):
        tracer = Tracer(sample_every=1)
        good = SpanRecord(name="ok", trace_id="t", span_id="s",
                          parent_id=None, start_s=0.0,
                          duration_s=0.1).to_row()
        assert tracer.ingest_rows([["junk"], None, good, 42]) == 1
        assert [s.name for s in tracer.spans()] == ["ok"]

    def test_bind_tx_take_and_bound_cap(self):
        tracer = Tracer(sample_every=1, max_bound_txs=4)
        ctxs = {}
        for i in range(6):
            ctx = TraceContext(trace_id=f"t{i}", span_id=f"s{i}")
            ctxs[f"tx{i}"] = ctx
            tracer.bind_tx(f"tx{i}", ctx)
        # Oldest two bindings were evicted by the cap.
        assert tracer.take_tx_ctx(["tx0", "tx1"]) is None
        assert tracer.take_tx_ctx(["tx5", "tx4"]) == ctxs["tx5"]
        # take pops every listed binding, not just the hit.
        assert tracer.take_tx_ctx(["tx4"]) is None
        assert tracer.has_bound_txs  # tx2/tx3 still bound

    def test_span_ring_is_bounded(self):
        tracer = Tracer(sample_every=1, max_spans=8)
        for i in range(20):
            with tracer.root_span(f"s{i}"):
                pass
        spans = tracer.spans()
        assert len(spans) == 8
        assert spans[-1].name == "s19"


# ---------------------------------------------------------------------------
# Accessor regressions (pre-telemetry shapes must survive the migration)
# ---------------------------------------------------------------------------
class TestAccessorRegressions:
    def test_cache_stats_shape_and_counts(self):
        sig.reset_cache_stats()
        sig.clear_verify_cache()        # a no-op the e2e harness calls
        key = KeyPair.generate("obs-signer")
        tx = Transaction(key.address, TxKind.DATA,
                         {"key": "a", "value": 1}).seal().sign_with(key)
        assert tx.verify_signature()
        assert tx.verify_signature()
        # One layer keeps verdicts: the mark on the transaction.
        assert sig.cache_stats() == {
            "verify_signature": {"hits": 1, "misses": 1}}
        # The same counts are visible in the registry, labeled by cache.
        counters = telemetry().snapshot()["counters"]
        for kind in ("hits", "misses"):
            label = f'sig_verify_cache_{kind}_total{{cache="verify_signature"}}'
            assert counters[label] == 1
        assert not any('cache="verify_encoded"' in name for name in counters)
        sig.reset_cache_stats()
        assert sig.cache_stats() == {
            "verify_signature": {"hits": 0, "misses": 0}}

    def test_simnet_stats_accessor_and_topic_counters(self):
        tel = Telemetry(sample_every=0)
        net = SimNet(latency=LatencyModel(base=1, jitter=0), seed=3,
                     telemetry=tel)
        node_a = ChainNode("a", net)
        ChainNode("b", net)
        tx = make_txs(1)[0]
        assert node_a.send_shard_transaction("b", tx)
        net.run()
        stats = net.stats
        assert stats.messages_sent == 1
        assert stats.messages_delivered == 1
        assert stats.by_topic == {"shard_tx": 1}
        assert stats.bytes_sent > 0
        snap = tel.snapshot()
        assert snap["counters"][
            'net_messages_sent_total{topic="shard_tx"}'] == 1
        assert snap["counters"]["net_messages_delivered_total"] == 1
        assert "net_pending_messages" in snap["gauges"]

    def test_simnet_fault_counters_per_topic(self):
        tel = Telemetry(sample_every=0)
        net = SimNet(latency=LatencyModel(base=1, jitter=0), seed=5,
                     telemetry=tel)
        received = []
        net.register("sink", received.append)
        net.register("src", lambda msg: None)
        net.inject_faults("noisy", drop=0.5, duplicate=0.3)
        from repro.network.message import NetMessage

        for i in range(60):
            net.send(NetMessage(sender="src", recipient="sink",
                                topic="noisy", body={"i": i}))
        net.run()
        snap = tel.snapshot()
        dropped = snap["counters"][
            'net_messages_dropped_total{topic="noisy"}']
        assert dropped == net.stats.messages_dropped > 0
        assert snap["counters"][
            'net_messages_duplicated_total{topic="noisy"}'] \
            == net.stats.messages_duplicated > 0


# ---------------------------------------------------------------------------
# Subsystem instrumentation behind unchanged APIs
# ---------------------------------------------------------------------------
class TestSubsystemInstrumentation:
    def test_ingest_queue_gauges_and_counters(self):
        tel = Telemetry(sample_every=0)
        sharded = ShardedChain(N_SHARDS, max_block_txs=8,
                               telemetry=tel)
        pipeline = IngestPipeline(sharded, queue_capacity=64,
                                  telemetry=tel)
        report = pipeline.submit_many(make_txs(40))
        assert report.rejected_total == 0
        snap = tel.snapshot()
        depth_total = sum(
            snap["gauges"][f'ingest_queue_depth{{shard="{s}"}}']
            for s in range(N_SHARDS)
        )
        assert depth_total == 40 == pipeline.backlog
        assert snap["counters"]["ingest_submitted_total"] == 40
        pipeline.run_until_drained()
        snap = tel.snapshot()
        assert sum(
            snap["gauges"][f'ingest_queue_depth{{shard="{s}"}}']
            for s in range(N_SHARDS)
        ) == 0
        assert snap["counters"]["rounds_sealed_total"] \
            == sharded.rounds_sealed > 0
        assert snap["histograms"]["ingest_admission_seconds"]["count"] > 0
        assert snap["histograms"]["seal_round_seconds"]["count"] > 0
        assert snap["counters"]["txs_sealed_total"] == 40
        sharded.close()

    def test_persist_fsync_histogram_and_tier_counters(self, tmp_path):
        tel = reset_default_telemetry(sample_every=0)
        try:
            sharded = ShardedChain(N_SHARDS, max_block_txs=8,
                                   storage_dir=str(tmp_path / "store"),
                                   telemetry=tel)
            sharded.submit_many(make_txs(32))
            while sharded.mempool_backlog:
                sharded.seal_round()
            snap = tel.snapshot()
            fsyncs = snap["histograms"]["persist_fsync_seconds"]
            assert fsyncs["count"] > 0
            assert snap["counters"]["persist_fsyncs_total"] \
                == fsyncs["count"]
            sharded.close()
        finally:
            reset_default_telemetry()

    def test_health_report_attributes_slowest_shard(self):
        sharded = ShardedChain(N_SHARDS, max_block_txs=8,
                               telemetry=Telemetry(sample_every=0))
        sharded.submit_many(make_txs(24))
        while sharded.mempool_backlog:
            sharded.seal_round()
        report = sharded.health_report()
        assert report["n_shards"] == N_SHARDS
        assert report["rounds_sealed"] == sharded.rounds_sealed
        assert set(report["per_shard"]) == {str(s)
                                            for s in range(N_SHARDS)}
        slowest = report["slowest_shard"]
        assert slowest in report["per_shard"]
        assert report["slowest_seal_s"] >= 0.0
        assert report["per_shard"][slowest]["last_seal_s"] \
            == report["slowest_seal_s"]
        assert report["last_round_txs"] >= 0
        assert report["mempool_backlog_total"] == 0
        sharded.close()


# ---------------------------------------------------------------------------
# End-to-end trace propagation
# ---------------------------------------------------------------------------
class TestTracePropagation:
    def _submit_trace_ids(self, tracer) -> set[str]:
        return {s.trace_id for s in tracer.spans()
                if s.name in ("ingest.submit", "ingest.submit_many")}

    def test_submit_ancestry_reaches_worker_and_fsync(
            self, tmp_path, traced_telemetry):
        tel = traced_telemetry
        sharded = ShardedChain(N_SHARDS, max_block_txs=8,
                               storage_dir=str(tmp_path / "store"),
                               executor="process", exec_workers=2)
        pipeline = IngestPipeline(sharded, queue_capacity=256)
        pipeline.submit_many(make_txs(48))
        pipeline.run_until_drained()
        names = {s.name for s in tel.tracer.spans()}
        assert {"ingest.submit_many", "round.seal", "shard.commit",
                "exec.apply_blocks", "persist.fsync"} <= names
        # At least one submit trace must contain the whole chain:
        # worker-side exec span (merged across the process boundary),
        # the parent-side commit span, and the fsync under it.
        chains = [
            {s.name for s in tel.tracer.find_spans(trace_id)}
            for trace_id in self._submit_trace_ids(tel.tracer)
        ]
        assert any(
            {"shard.commit", "exec.apply_blocks", "persist.fsync"} <= c
            for c in chains
        ), f"no complete submit trace in {chains}"
        # Worker counter deltas merged into the parent registry.
        snap = tel.snapshot()
        assert snap["counters"]["exec_worker_blocks_total"] > 0
        assert snap["counters"]["exec_worker_txs_total"] >= 48
        assert snap["counters"]["exec_rounds_offloaded_total"] > 0
        sharded.close()

    def test_worker_kill_falls_back_with_trace_and_counter(
            self, tmp_path, traced_telemetry):
        tel = traced_telemetry
        sharded = ShardedChain(N_SHARDS, max_block_txs=8,
                               storage_dir=str(tmp_path / "store"),
                               executor="process", exec_workers=2)
        pipeline = IngestPipeline(sharded, queue_capacity=256)
        pipeline.submit_many(make_txs(16, tag="warm"))
        pipeline.run_until_drained()  # pool is live now
        pipeline.submit_many(make_txs(16, tag="kill"))
        for widx in range(2):
            sharded.engine.pool.kill_worker(widx)
        pipeline.run_until_drained()
        assert sharded.total_txs_committed == 32
        snap = tel.snapshot()
        assert snap["counters"]["exec_fallback_total"] > 0
        # The fallback ran inside shard.commit, so sampled submit traces
        # still reach the commit and its fsync.
        chains = [
            {s.name for s in tel.tracer.find_spans(trace_id)}
            for trace_id in self._submit_trace_ids(tel.tracer)
        ]
        assert any({"shard.commit", "persist.fsync"} <= c
                   for c in chains)
        sharded.verify_all()
        sharded.close()

    def test_sampling_off_leaves_no_spans(self):
        tel = Telemetry(sample_every=0)
        sharded = ShardedChain(N_SHARDS, max_block_txs=8, telemetry=tel)
        pipeline = IngestPipeline(sharded, queue_capacity=64,
                                  telemetry=tel)
        pipeline.submit_many(make_txs(32))
        pipeline.run_until_drained()
        assert tel.tracer.spans() == []
        sharded.close()

    def test_default_sampling_rate_is_wired(self):
        tel = reset_default_telemetry()
        try:
            assert tel.tracer.sample_every == DEFAULT_SAMPLE_EVERY
            pipeline = IngestPipeline(
                ShardedChain(1, max_block_txs=8, telemetry=tel),
                telemetry=tel,
            )
            assert pipeline._sample_every == DEFAULT_SAMPLE_EVERY
        finally:
            reset_default_telemetry()


# ---------------------------------------------------------------------------
# ops/metrics over SimNet
# ---------------------------------------------------------------------------
def build_served_source():
    """In-memory sealed source + SimNet gateway serving shards, sync,
    and ops."""
    tel = reset_default_telemetry(sample_every=0)
    sharded = ShardedChain(N_SHARDS, max_block_txs=8,
                           anchor_batch_size=16, telemetry=tel)
    sharded.ingest_records([
        {"record_id": f"r{i:04d}", "subject": f"org{i % 4}/asset",
         "actor": f"actor-{i % 3}", "operation": "update",
         "timestamp": i}
        for i in range(24)
    ])
    sharded.flush_anchors()
    sharded.submit_many(make_txs(48))
    while sharded.mempool_backlog:
        sharded.seal_round()
    net = SimNet(latency=LatencyModel(base=1, jitter=0), seed=11,
                 telemetry=tel)
    gateway = ChainNode("gateway", net)
    gateway.serve_shards(sharded)
    gateway.serve_sync(SnapshotServer(sharded))
    return tel, sharded, net, gateway


class TestOpsMetricsOverNetwork:
    def test_gateway_snapshot_attributes_slowest_shard(self):
        try:
            _, sharded, net, _ = build_served_source()
            client = ChainNode("client", net)
            resp = client.channel("gateway").call({"op": "ops"})[-1]
            assert resp["node"] == "gateway"
            snap = resp["snapshot"]
            assert snap["counters"]["rounds_sealed_total"] \
                == sharded.rounds_sealed > 0
            health = resp["health"]
            assert health["slowest_shard"] in health["per_shard"]
            assert health["slowest_seal_s"] > 0.0
            # The exchange itself is visible in the net counters.
            assert snap["counters"][
                'net_messages_sent_total{topic="ops"}'] >= 1
            sharded.close()
        finally:
            reset_default_telemetry()

    def test_live_replica_answers_ops(self, tmp_path):
        try:
            tel, sharded, net, _ = build_served_source()
            replica = sharded.spawn_replica(
                0, str(tmp_path / "rep"), net, node_id="rep",
                peers=["gateway"],
            )
            replica.catch_up()
            client = ChainNode("client", net)
            resp = client.channel("rep").call({"op": "ops"})[-1]
            assert resp["node"] == "rep"
            health = resp["health"]
            assert health["synced"] is True
            assert health["shard_id"] == 0
            assert health["height"] >= 1
            assert health["last_sync_peer"] == "gateway"
            # The replica shares the process registry: its snapshot
            # carries the sync client's chunk/tail progress counters.
            counters = resp["snapshot"]["counters"]
            assert counters['sync_chunks_downloaded_total{shard="0"}'] > 0
            assert counters['sync_tail_blocks_installed_total{shard="0"}'] \
                >= 0
            replica.close()
            sharded.close()
        finally:
            reset_default_telemetry()

    def test_unserved_peer_raises_structured_error(self):
        try:
            _, sharded, net, _ = build_served_source()
            ChainNode("mute", net)  # serves nothing
            client = ChainNode("client", net)
            channel = client.channel("mute", RetryPolicy(max_retries=1))
            with pytest.raises(GatewayError) as err:
                channel.call({"op": "ops"})
            assert err.value.reason == "peer_unresponsive"
            assert (channel.requests, channel.retries) == (2, 1)
            sharded.close()
        finally:
            reset_default_telemetry()
