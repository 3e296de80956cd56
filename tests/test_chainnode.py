"""ChainNode: gossiped transactions and block propagation between nodes."""

import pytest

from repro.chain import ChainParams
from repro.consensus import ProofOfAuthority
from repro.network import ChainNode, GossipProtocol, SimNet
from .conftest import data_tx


@pytest.fixture
def mesh():
    net = SimNet(seed=9)
    gossip = GossipProtocol(net, fanout=3, seed=9)
    nodes = [
        ChainNode(f"node-{i}", net, ChainParams(chain_id="mesh"))
        for i in range(5)
    ]
    for node in nodes:
        node.join_gossip(gossip)
    return net, nodes


class TestTransactionPropagation:
    def test_gossiped_tx_reaches_all_mempools(self, mesh):
        net, nodes = mesh
        nodes[0].submit_transaction(data_tx(1), gossip=True)
        net.run()
        assert all(len(node.mempool) == 1 for node in nodes)

    def test_local_submit_stays_local(self, mesh):
        net, nodes = mesh
        nodes[0].submit_transaction(data_tx(1), gossip=False)
        net.run()
        assert len(nodes[0].mempool) == 1
        assert all(len(node.mempool) == 0 for node in nodes[1:])

    def test_duplicate_gossip_not_duplicated_in_mempool(self, mesh):
        net, nodes = mesh
        tx = data_tx(1)
        nodes[0].submit_transaction(tx, gossip=True)
        nodes[1].submit_transaction(tx, gossip=True)
        net.run()
        assert all(len(node.mempool) == 1 for node in nodes)


class TestBlockPropagation:
    def test_pushed_block_adopted_and_mempool_cleared(self, mesh):
        net, nodes = mesh
        engine = ProofOfAuthority([node.node_id for node in nodes])
        tx = data_tx(1)
        nodes[0].submit_transaction(tx, gossip=True)
        net.run()
        proposer = nodes[1]    # node-1 owns height 1 in round-robin
        batch = proposer.mempool.pop_batch(10)
        block, _ = engine.seal(proposer.chain, batch)
        proposer.chain.append_block(block)
        proposer.push_block(block)
        net.run()
        assert all(node.chain.height == 1 for node in nodes)
        assert all(len(node.mempool) == 0 for node in nodes)
        heads = {node.chain.head.block_id for node in nodes}
        assert len(heads) == 1

    def test_stale_block_ignored(self, mesh):
        net, nodes = mesh
        engine = ProofOfAuthority([node.node_id for node in nodes])
        # Advance everyone to height 1.
        block, _ = engine.seal(nodes[1].chain, [data_tx(1)])
        for node in nodes:
            node.chain.append_block(block)
        # Re-push the same (now stale) block: heights must not change.
        nodes[1].push_block(block)
        net.run()
        assert all(node.chain.height == 1 for node in nodes)

    def test_multi_round_consensus_over_network(self, mesh):
        net, nodes = mesh
        engine = ProofOfAuthority([node.node_id for node in nodes])
        for round_number in range(4):
            origin = nodes[round_number % len(nodes)]
            origin.submit_transaction(data_tx(round_number), gossip=True)
            net.run()
            height = nodes[0].chain.height + 1
            proposer = next(n for n in nodes if n.node_id ==
                            engine.scheduled_authority(height))
            batch = proposer.mempool.pop_batch(10)
            block, _ = engine.seal(proposer.chain, batch)
            proposer.chain.append_block(block)
            proposer.push_block(block)
            net.run()
        assert all(node.chain.height == 4 for node in nodes)
        for node in nodes:
            node.chain.verify()


class TestTopicRegistration:
    """on_topic duplicate-handler guard (silent replacement used to
    lose whichever server registered first)."""

    def test_different_handler_on_occupied_topic_raises(self):
        from repro.errors import ChainError
        net = SimNet(seed=1)
        node = ChainNode("n0", net, ChainParams(chain_id="dup"))
        node.on_topic("custom", lambda m: None)
        with pytest.raises(ChainError):
            node.on_topic("custom", lambda m: None)

    def test_same_handler_is_idempotent(self):
        net = SimNet(seed=1)
        node = ChainNode("n0", net, ChainParams(chain_id="dup"))

        def handler(msg):
            pass

        node.on_topic("custom", handler)
        node.on_topic("custom", handler)  # no-op, no raise

    def test_builtin_topics_collide_with_user_handlers(self):
        from repro.errors import ChainError
        net = SimNet(seed=1)
        node = ChainNode("n0", net, ChainParams(chain_id="dup"))
        # "tx"/"block" are claimed in __init__.
        with pytest.raises(ChainError):
            node.on_topic("tx", lambda m: None)

    def test_serve_shards_and_sync_are_reentrant(self):
        # Bound-method equality makes re-serving the same facade an
        # idempotent no-op (facade reopen path), not a collision.
        from repro.sharding import ShardedChain
        from repro.sync import SnapshotServer

        net = SimNet(seed=1)
        node = ChainNode("n0", net, ChainParams(chain_id="dup"))
        sharded = ShardedChain(n_shards=2)
        node.serve_shards(sharded)
        node.serve_shards(sharded)
        server = SnapshotServer(sharded)
        node.serve_sync(server)
        node.serve_sync(server)
        # A served op's topic is claimed like any other.
        from repro.errors import ChainError
        with pytest.raises(ChainError):
            node.on_topic("sync/offer", lambda m: None)

    def test_reserving_an_op_replaces_its_handler(self):
        # The facade-reopen path: serve_shards(new_facade) must answer
        # `ops` from the new facade, not the crashed one.
        from repro.rpc import Service

        net = SimNet(seed=1)
        node = ChainNode("n0", net, ChainParams(chain_id="dup"))
        client = ChainNode("c0", net, ChainParams(chain_id="dup"))
        node.serve(Service({"which": lambda b, s: [{"op": "which_ok",
                                                     "v": "old"}]}))
        node.serve(Service({"which": lambda b, s: [{"op": "which_ok",
                                                     "v": "new"}]}))
        assert client.channel("n0").call({"op": "which"})[-1]["v"] == "new"
