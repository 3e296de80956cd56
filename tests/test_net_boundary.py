"""SimNet is the boundary between nodes: bodies cross it as bytes.

Every node holds its own copy of what it was sent (isolation), a body a
one-way handler cannot decode or admit is dropped and counted, never
raised out of the event loop (fail closed), and the one encoding SimNet
makes of each body is what the message costs (carrier).
"""

import pytest

from repro.chain import Transaction, TxKind
from repro.consensus import PBFTCluster, RaftCluster
from repro.crypto.signatures import KeyPair
from repro.errors import SerializationError, TamperDetected
from repro.network import ChainNode, GossipProtocol, NetMessage, SimNet
from repro.network.message import block_body, tx_body, tx_from_body
from repro.obs.runtime import reset_default_telemetry, telemetry
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain
from .conftest import data_tx


def _net(seed=0):
    reset_default_telemetry(sample_every=0)
    return SimNet(seed=seed)


def _refused(topic, reason="malformed"):
    return telemetry().registry.counter(
        "net_messages_refused_total", topic=topic, reason=reason).value


def _no_refusals():
    return not any(key.startswith("net_messages_refused_total")
                   for key in telemetry().registry.snapshot()["counters"])


def _assert_isolated(chains):
    """No Block or Transaction object is held by two chains; tampering
    the first chain's stored transaction breaks only the first chain."""
    owner = {}
    for i, chain in enumerate(chains):
        for block in chain.blocks:
            for obj in (block, *block.transactions):
                assert owner.setdefault(id(obj), i) == i
    for chain in chains:
        chain.verify(deep=True)
    chains[0].blocks[1].transactions[0].payload = {"key": "evil", "value": 1}
    with pytest.raises(TamperDetected):
        chains[0].verify(deep=True)
    for chain in chains[1:]:
        chain.verify(deep=True)


class TestIsolation:
    def test_raft_followers_and_recovered_node_hold_own_copies(self):
        cluster = RaftCluster(_net(), n_nodes=3)
        cluster.crash("raft-2")
        cluster.propose([data_tx(1), data_tx(2)])
        cluster.propose([data_tx(3)])
        cluster.recover("raft-2")
        assert set(cluster.heights().values()) == {2}
        _assert_isolated([n.chain for n in cluster.nodes])

    def test_pbft_replicas_and_recovered_replica_hold_own_copies(self):
        cluster = PBFTCluster(_net(), n_replicas=4)
        cluster.crash("pbft-3")
        cluster.propose([data_tx(1), data_tx(2)])
        cluster.propose([data_tx(3)])
        cluster.recover("pbft-3")
        assert set(cluster.heights().values()) == {2}
        _assert_isolated([r.chain for r in cluster.replicas])


class TestSealedTransactionsCross:
    """A sealed transaction, signed or not, crosses gossip to every peer
    and is admitted by the shard a ``shard_tx`` reaches, seal and
    signature intact, as each receiver's own copy."""

    PAIR = KeyPair.generate("net-boundary")

    def _sealed(self):
        signed = data_tx(2, sender=self.PAIR.public.address)
        return [data_tx(1).seal(), signed.seal().sign_with(self.PAIR)]

    def _assert_same(self, got, sent):
        assert got is not sent and got.is_sealed
        assert got.tx_hash == sent.tx_hash
        assert got.signature == sent.signature
        if sent.signer is not None:
            assert got.verify_signature()

    def test_gossip_reaches_every_peer(self):
        net = _net(9)
        gossip = GossipProtocol(net, fanout=3, seed=9)
        received = {f"node-{i}": [] for i in range(4)}
        for node_id, got in received.items():
            net.register(node_id,
                         lambda msg, nid=node_id: gossip.handle(nid, msg))
            gossip.attach(node_id, lambda item, payload, got=got:
                          got.append(tx_from_body(payload)))
        for tx in self._sealed():
            gossip.publish("node-0", tx.tx_id, tx_body(tx))
            net.run()
            for node_id in list(received)[1:]:
                self._assert_same(received[node_id].pop(), tx)
        assert _no_refusals()

    def test_shard_tx(self):
        net = _net()
        sharded = ShardedChain(2)
        client = ChainNode("client", net)
        ChainNode("gw", net).serve_shards(sharded)
        for tx in self._sealed():
            client.send_shard_transaction("gw", tx)
            net.run()
            shard = sharded.shard(sharded.router.route(tx))
            self._assert_same(shard.mempool.pop_batch(10)[0], tx)
        assert _no_refusals()


class TestFailClosed:
    """A truncated block frame, a garbled or mistyped ``shard_tx`` body
    or a gossip item without a str id or a mapping payload is dropped
    and counted; the event loop returns normally."""

    def _truncated(self, chain):
        frame = block_body(chain.build_block([data_tx(1)]))["block"]
        return frame[:-3]

    def test_raft_append(self):
        cluster = RaftCluster(_net(), n_nodes=3)
        leader = cluster.nodes[0]
        net = cluster.net
        net.send(NetMessage(leader.node_id, "raft-1", "raft/append",
                            {"term": 1,
                             "block": self._truncated(leader.chain)}))
        net.run()
        assert set(cluster.heights().values()) == {0}
        assert _refused("raft/append") == 1

    def test_pbft_preprepare(self):
        cluster = PBFTCluster(_net(), n_replicas=4)
        primary = cluster.replicas[0]
        net = cluster.net
        net.send(NetMessage(primary.node_id, "pbft-1", "pbft/preprepare",
                            {"view": 0, "seq": 1,
                             "block": self._truncated(primary.chain)}))
        net.run()
        assert set(cluster.heights().values()) == {0}
        assert _refused("pbft/preprepare") == 1

    @pytest.mark.parametrize("body", [
        {}, {"tx": b"junk"}, {"tx": "not bytes"},
        {"tx": canonical_encode({"sender": 1})},
        {"tx": canonical_encode({"fee": "0", "kind": "data", "nonce": 0,
                                 "payload": {}, "sender": "a",
                                 "timestamp": 0})},
    ])
    def test_tx(self, body):
        # A garbled transaction body; ``shard_tx`` is the one topic
        # that carries a transaction.
        net = _net()
        sharded = ShardedChain(2)
        ChainNode("gw", net).serve_shards(sharded)
        net.send(NetMessage("gw", "gw", "shard_tx", body))
        net.run()
        assert sum(len(s.mempool) for s in sharded.shards) == 0
        assert _refused("shard_tx") == 1

    def test_shard_tx(self):
        # A well-encoded transaction whose nonce is a str, sent by a
        # client node: refused at the door, never raised.
        net = _net()
        sharded = ShardedChain(2)
        client = ChainNode("client", net)
        ChainNode("gw", net).serve_shards(sharded)
        client.send_shard_transaction("gw", Transaction(
            sender="c", kind=TxKind.DATA,
            payload={"subject": "t0/obj", "key": "k"}, nonce="x"))
        net.run()
        assert sum(len(s.mempool) for s in sharded.shards) == 0
        assert _refused("shard_tx") == 1

    @pytest.mark.parametrize("body", [
        {"item_id": 7, "payload": {}},
        {"item_id": "x", "payload": b"junk"},
        {"payload": {}},
    ])
    def test_gossip(self, body):
        net = _net()
        gossip = GossipProtocol(net, fanout=1, seed=9)
        delivered = []
        for node_id in ("node-0", "node-1"):
            net.register(node_id,
                         lambda msg, nid=node_id: gossip.handle(nid, msg))
            gossip.attach(node_id, lambda item, payload:
                          delivered.append(item))
        net.send(NetMessage("node-0", "node-1", "gossip", body))
        net.run()
        assert delivered == []
        assert _refused("gossip") == 1

    def test_unroutable_shard_tx_is_malformed(self):
        net = _net()
        sharded = ShardedChain(2)
        ChainNode("gw", net).serve_shards(sharded)
        net.send(NetMessage("gw", "gw", "shard_tx", tx_body(Transaction(
            sender="", kind=TxKind.DATA, payload={"key": "k"}))))
        net.run()
        assert sum(len(s.mempool) for s in sharded.shards) == 0
        assert _refused("shard_tx") == 1
        assert _refused("shard_tx", "lock_conflict") == 0

    def test_full_mempool_and_lock_conflict_are_counted(self):
        net = _net()
        sharded = ShardedChain(2)
        client = ChainNode("client", net)
        ChainNode("gw", net).serve_shards(sharded)
        txs = [data_tx(i) for i in range(2)]
        shard = sharded.shard(sharded.router.route(txs[0]))
        assert sharded.router.route(txs[1]) == shard.shard_id
        shard.mempool.capacity = 1
        for tx in txs:
            client.send_shard_transaction("gw", tx)
        net.run()
        assert len(shard.mempool) == 1
        assert _refused("shard_tx", "full") == 1

        subject = "asset/locked"
        shard_id = sharded.router.shard_for_subject(subject)
        pooled = len(sharded.shard(shard_id).mempool)
        assert sharded.locks.acquire([(shard_id, subject)], "xid-1", now=0)
        client.send_shard_transaction("gw", Transaction(
            sender="c", kind=TxKind.DATA,
            payload={"subject": subject, "key": "k", "value": 1}))
        net.run()
        assert len(sharded.shard(shard_id).mempool) == pooled
        assert _refused("shard_tx", "lock_conflict") == 1


class TestCarrier:
    def test_unencodable_body_raises_at_send(self):
        net = _net()
        net.register("a", lambda m: None)
        net.register("b", lambda m: None)
        with pytest.raises(SerializationError):
            net.send(NetMessage("a", "b", "t", {"x": object()}))
        assert net.stats.messages_sent == 0 and net.step() is None

    def test_size_is_the_encoding_and_each_delivery_a_copy(self):
        net = _net()
        got = []
        net.register("a", lambda m: None)
        net.register("b", got.append)
        net.inject_faults("t", duplicate=0.9)
        bodies = [{"n": 1}, {"frame": b"\x00" * 40},
                  {"nested": {"xs": [1, "two", None, 2.5]}}]
        for body in bodies:
            net.send(NetMessage("a", "b", "t", body))
        net.run()
        assert net.stats.bytes_sent == sum(
            len(canonical_encode(body)) for body in bodies)
        assert net.stats.messages_duplicated > 0
        assert len(got) == len(bodies) + net.stats.messages_duplicated
        assert len({id(m.body) for m in got}) == len(got)
        assert all(m.body in bodies and all(m.body is not b for b in bodies)
                   for m in got)
