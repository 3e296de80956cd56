"""ChainNode: one handler per topic, re-servable ops."""

import pytest

from repro.network import ChainNode, SimNet


class TestTopicRegistration:
    """on_topic duplicate-handler guard (silent replacement used to
    lose whichever server registered first)."""

    def test_different_handler_on_occupied_topic_raises(self):
        from repro.errors import ChainError
        net = SimNet(seed=1)
        node = ChainNode("n0", net)
        node.on_topic("custom", lambda m: None)
        with pytest.raises(ChainError):
            node.on_topic("custom", lambda m: None)

    def test_same_handler_is_idempotent(self):
        net = SimNet(seed=1)
        node = ChainNode("n0", net)

        def handler(msg):
            pass

        node.on_topic("custom", handler)
        node.on_topic("custom", handler)  # no-op, no raise

    def test_builtin_topics_collide_with_user_handlers(self):
        from repro.errors import ChainError
        from repro.sharding import ShardedChain
        net = SimNet(seed=1)
        node = ChainNode("n0", net)
        # "shard_tx" is claimed by serve_shards.
        node.serve_shards(ShardedChain(n_shards=2))
        with pytest.raises(ChainError):
            node.on_topic("shard_tx", lambda m: None)

    def test_serve_shards_and_sync_are_reentrant(self):
        # Bound-method equality makes re-serving the same facade an
        # idempotent no-op (facade reopen path), not a collision.
        from repro.sharding import ShardedChain
        from repro.sync import SnapshotServer

        net = SimNet(seed=1)
        node = ChainNode("n0", net)
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
        node = ChainNode("n0", net)
        client = ChainNode("c0", net)
        node.serve(Service({"which": lambda b, s: [{"op": "which_ok",
                                                     "v": "old"}]}))
        node.serve(Service({"which": lambda b, s: [{"op": "which_ok",
                                                     "v": "new"}]}))
        assert client.channel("n0").call({"op": "which"})[-1]["v"] == "new"
