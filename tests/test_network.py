"""Simulated network: delivery, latency, partitions, gossip, and the
per-topic fault-injection knobs the snapshot-sync hardening tests use."""

import pytest

from repro.errors import NetworkError, SyncError
from repro.network import GossipProtocol, LatencyModel, NetMessage, SimNet
from repro.obs.runtime import reset_default_telemetry, telemetry


def collect_handler(received):
    def handler(msg):
        received.append(msg)
    return handler


class TestDelivery:
    def test_messages_arrive_in_latency_order(self):
        net = SimNet(seed=1)
        received = []
        net.register("a", collect_handler(received))
        net.register("b", collect_handler(received))
        net.send(NetMessage("a", "b", "t", {"n": 1}))
        net.send(NetMessage("a", "b", "t", {"n": 2}))
        net.run()
        assert len(received) == 2
        assert net.stats.messages_delivered == 2

    def test_clock_advances_to_delivery_time(self):
        net = SimNet(LatencyModel(base=10, jitter=0), seed=1)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.send(NetMessage("a", "b", "t", {}))
        net.run()
        assert net.clock.now() >= 10

    def test_unknown_recipient_raises(self):
        net = SimNet()
        net.register("a", lambda m: None)
        with pytest.raises(NetworkError):
            net.send(NetMessage("a", "ghost", "t", {}))

    def test_duplicate_registration_rejected(self):
        net = SimNet()
        net.register("a", lambda m: None)
        with pytest.raises(NetworkError):
            net.register("a", lambda m: None)

    def test_drop_rate_drops(self):
        net = SimNet(drop_rate=0.5, seed=42)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        for _ in range(200):
            net.send(NetMessage("a", "b", "t", {}))
        net.run()
        assert 40 < net.stats.messages_dropped < 160

    def test_region_penalty_increases_latency(self):
        model = LatencyModel(base=1, jitter=0, region_penalty=50)
        near = SimNet(model, seed=1)
        near.register("a", lambda m: None, region="us")
        near.register("b", lambda m: None, region="us")
        near.send(NetMessage("a", "b", "t", {}))
        near.run()
        far = SimNet(model, seed=1)
        far.register("a", lambda m: None, region="us")
        far.register("b", lambda m: None, region="eu")
        far.send(NetMessage("a", "b", "t", {}))
        far.run()
        assert far.clock.now() > near.clock.now()

    def test_deterministic_given_seed(self):
        def run_once():
            net = SimNet(LatencyModel(base=2, jitter=5), seed=7)
            order = []
            net.register("a", lambda m: order.append(m.body["n"]))
            net.register("b", lambda m: None)
            for i in range(10):
                net.send(NetMessage("b", "a", "t", {"n": i}))
            net.run()
            return order

        assert run_once() == run_once()


class TestPartitions:
    def test_partition_blocks_cross_group(self):
        net = SimNet(seed=1)
        received = []
        for node in ("a", "b", "c"):
            net.register(node, collect_handler(received))
        net.partition({"a", "b"}, {"c"})
        assert net.send(NetMessage("a", "b", "t", {}))
        assert not net.send(NetMessage("a", "c", "t", {}))
        net.run()
        assert len(received) == 1

    def test_heal_restores_delivery(self):
        net = SimNet(seed=1)
        received = []
        net.register("a", collect_handler(received))
        net.register("c", collect_handler(received))
        net.partition({"a"}, {"c"})
        net.heal()
        assert net.send(NetMessage("a", "c", "t", {}))
        net.run()
        assert len(received) == 1


class TestFaultInjection:
    def _pair(self, seed=3):
        net = SimNet(LatencyModel(base=2, jitter=0), seed=seed)
        received = []
        net.register("a", lambda m: None)
        net.register("b", collect_handler(received))
        return net, received

    def test_topic_drop_only_affects_that_topic(self):
        net, received = self._pair(seed=9)
        net.inject_faults("lossy", drop=0.5)
        for _ in range(100):
            net.send(NetMessage("a", "b", "lossy", {}))
            net.send(NetMessage("a", "b", "clean", {}))
        net.run()
        clean = [m for m in received if m.topic == "clean"]
        lossy = [m for m in received if m.topic == "lossy"]
        assert len(clean) == 100
        assert 20 < len(lossy) < 80
        assert net.stats.messages_dropped == 100 - len(lossy)

    def test_duplicate_delivers_twice(self):
        net, received = self._pair(seed=5)
        net.inject_faults("dup", duplicate=0.999)
        net.send(NetMessage("a", "b", "dup", {"n": 1}))
        net.run()
        assert len(received) == 2
        assert net.stats.messages_duplicated == 1
        # One logical send, two deliveries.
        assert net.stats.messages_sent == 1
        assert net.stats.messages_delivered == 2

    def test_reorder_lets_later_sends_overtake(self):
        net, received = self._pair(seed=1)
        net.inject_faults("ooo", reorder=0.999, reorder_delay=100)
        net.send(NetMessage("a", "b", "ooo", {"n": 1}))
        net.clear_faults("ooo")
        net.send(NetMessage("a", "b", "ooo", {"n": 2}))
        net.run()
        assert [m.body["n"] for m in received] == [2, 1]
        assert net.stats.messages_reordered == 1

    def test_deterministic_given_seed(self):
        def run_once():
            net = SimNet(LatencyModel(base=2, jitter=2), seed=17)
            order = []
            net.register("a", lambda m: None)
            net.register("b", lambda m: order.append(m.body["n"]))
            net.inject_faults("t", drop=0.2, duplicate=0.2, reorder=0.3)
            for i in range(40):
                net.send(NetMessage("a", "b", "t", {"n": i}))
            net.run()
            return order, net.stats.messages_dropped, \
                net.stats.messages_duplicated, net.stats.messages_reordered

        assert run_once() == run_once()

    def test_clear_faults_restores_clean_delivery(self):
        net, received = self._pair(seed=2)
        net.inject_faults("t", drop=0.9)
        net.clear_faults()
        for _ in range(50):
            net.send(NetMessage("a", "b", "t", {}))
        net.run()
        assert len(received) == 50

    def test_invalid_probability_rejected(self):
        net, _ = self._pair()
        with pytest.raises(NetworkError):
            net.inject_faults("t", drop=1.5)


class TestSyncUnderFaults:
    """Snapshot sync over this network must converge through loss and
    fail closed through partitions (the ISSUE's partition test)."""

    def _source(self):
        from repro.chain import Transaction, TxKind
        from repro.sharding import ShardedChain

        sharded = ShardedChain(1, max_block_txs=8, anchor_batch_size=8)
        sharded.ingest_records([
            {"record_id": f"n{i}", "subject": f"net/asset-{i % 3}",
             "actor": "net-actor", "operation": "update", "timestamp": i}
            for i in range(16)
        ])
        sharded.flush_anchors()
        sharded.submit_many([
            Transaction("net/acct", TxKind.DATA,
                        {"key": f"n{i}", "value": i}).seal()
            for i in range(32)
        ])
        while sharded.mempool_backlog:
            sharded.seal_round(blocks_per_shard=2)
        return sharded

    def test_partitioned_sync_fails_closed_then_converges(self, tmp_path):
        from repro.network import ChainNode
        from repro.sync import SnapshotServer

        sharded = self._source()
        net = SimNet(LatencyModel(base=2, jitter=1), seed=21)
        gateway = ChainNode("gateway", net)
        gateway.serve_sync(SnapshotServer(sharded))
        replica = sharded.spawn_replica(
            0, str(tmp_path / "rep"), net, node_id="rep",
            peers=["gateway"],
        )
        net.partition({"gateway"}, {"rep"})
        with pytest.raises(SyncError) as err:
            replica.catch_up(max_retries=2)
        assert err.value.reason == "peer_unresponsive"
        net.heal()
        report = replica.catch_up()
        assert report.height == sharded.shard(0).chain.height
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash

    def test_sync_converges_under_heavy_message_loss(self, tmp_path,
                                                      monkeypatch):
        from repro.network import ChainNode
        from repro.sync import SnapshotServer

        monkeypatch.setattr(SnapshotServer, "CHUNK_SIZE", 1024)
        sharded = self._source()
        net = SimNet(LatencyModel(base=2, jitter=1), seed=23)
        gateway = ChainNode("gateway", net)
        gateway.serve_sync(SnapshotServer(sharded))
        for topic in ("sync/offer", "sync/chunk", "sync/tail"):
            net.inject_faults(topic, drop=0.4, duplicate=0.2,
                              reorder=0.2)
        replica = sharded.spawn_replica(
            0, str(tmp_path / "rep"), net, node_id="rep",
            peers=["gateway"],
        )
        report = replica.catch_up(tail_batch=4, max_retries=40)
        assert net.stats.messages_dropped > 0
        assert report.retries > 0
        assert replica.chain.head.block_hash == \
            sharded.shard(0).chain.head.block_hash
        assert replica.chain.blocks_replayed_on_open == 0


class TestGossip:
    def _mesh(self, n, fanout=3, seed=3):
        net = SimNet(seed=seed)
        gossip = GossipProtocol(net, fanout=fanout, seed=seed)
        deliveries = {f"n{i}": [] for i in range(n)}
        for i in range(n):
            node_id = f"n{i}"
            net.register(
                node_id,
                lambda msg, nid=node_id: gossip.handle(nid, msg),
            )
            gossip.attach(node_id,
                          lambda item, body, nid=node_id:
                          deliveries[nid].append(item))
        return net, gossip, deliveries

    def test_full_coverage(self):
        net, gossip, deliveries = self._mesh(12)
        gossip.publish("n0", "item-1", {"v": 1})
        net.run()
        assert gossip.coverage("item-1") == 1.0

    def test_each_node_delivers_once(self):
        net, gossip, deliveries = self._mesh(10)
        gossip.publish("n0", "item-1", {"v": 1})
        net.run()
        assert all(items.count("item-1") == 1 for items in deliveries.values())

    def test_message_overhead_bounded(self):
        net, gossip, _ = self._mesh(10, fanout=3)
        gossip.publish("n0", "item-1", {})
        net.run()
        # Flooding with dedup: each of the 10 nodes forwards at most
        # fanout times.
        assert net.stats.messages_sent <= 10 * 3


class TestDepartedRecipients:
    """Replies racing a client disconnect: counted, never raised,
    never silently vanished (gateway_frames_undeliverable_total)."""

    def _undeliverable(self, topic):
        snap = telemetry().registry.snapshot()
        key = (f'gateway_frames_undeliverable_total'
               f'{{topic="{topic}",transport="simnet"}}')
        return snap["counters"].get(key, 0)

    def test_send_to_departed_counts_instead_of_raising(self):
        reset_default_telemetry()
        net = SimNet(seed=1)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.unregister("b")
        delivered = net.send(NetMessage("a", "b", "reply", {}))
        assert delivered is False
        assert net.stats.messages_dropped == 1
        assert self._undeliverable("reply") == 1

    def test_never_registered_recipient_still_raises(self):
        net = SimNet(seed=1)
        net.register("a", lambda m: None)
        with pytest.raises(NetworkError):
            net.send(NetMessage("a", "ghost", "t", {}))

    def test_unregister_midflight_counts_at_delivery(self):
        reset_default_telemetry()
        net = SimNet(seed=1)
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        net.send(NetMessage("a", "b", "reply", {}))   # queued, not delivered
        net.unregister("b")                           # departs mid-flight
        net.run()
        assert net.stats.messages_delivered == 0
        assert net.stats.messages_dropped == 1
        assert self._undeliverable("reply") == 1

    def test_rejoining_node_receives_again(self):
        received = []
        net = SimNet(seed=1)
        net.register("a", lambda m: None)
        net.register("b", lambda m: received.append(m))
        net.unregister("b")
        net.register("b", lambda m: received.append(m))
        net.send(NetMessage("a", "b", "t", {}))
        net.run()
        assert len(received) == 1
