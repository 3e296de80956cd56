"""Pin the settable values of the north-star path's public surfaces.

Each entry is the exact ``{parameter: default}`` set of a surface's
defaulted parameters (for ``RetryPolicy``, its dataclass fields).  A new
keyword, a dropped one or a changed default fails here, so a setting is
added or changed on purpose.  A value no production caller sets to
something else is a module or class constant instead, and a test that
needs another value sets that constant with ``monkeypatch``.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.client import AsyncGatewayClient
from repro.ingest import IngestPipeline
from repro.net_retry import RetryPolicy
from repro.network import ChainNode, SimNet
from repro.obs.trace import Tracer
from repro.persist.durable import DurableStorage
from repro.rpc import ops_handler
from repro.sharding import ShardedChain
from repro.sharding.beacon import BeaconChain
from repro.sharding.twophase import CrossShardCoordinator
from repro.sync import SnapshotServer
from repro.sync.replica import ShardReplica

RULE = ("the Options rule: a setting needs a production caller that sets "
        "another value; otherwise make it a constant")

PINNED = {
    ShardedChain.__init__: {
        "max_block_txs": 256, "anchor_batch_size": 64, "storage_dir": None,
        "checkpoint_every_rounds": 0, "executor": "serial",
        "exec_workers": None, "contract_runtime_factory": None,
        "lock_lease_rounds": 16,
    },
    ShardedChain.spawn_replica: {"node_id": None, "peers": ()},
    IngestPipeline.__init__: {
        "queue_capacity": 8192, "verify_signatures": False,
        "max_blocks_per_round": 8,
    },
    IngestPipeline.pump: {},
    GatewayServer.__init__: {
        "host": "127.0.0.1", "port": 0, "auto_seal": False,
    },
    GatewayClient.__init__: {"tenant": "default", "policy": None},
    AsyncGatewayClient.connect: {"tenant": "default", "policy": None},
    AsyncGatewayClient.submit_with_retry: {},
    SnapshotServer.__init__: {},
    ShardReplica.catch_up: {
        "min_height": 1, "deep_verify": False, "max_retries": 8,
        "tail_batch": 64, "crash_after_chunks": None,
    },
    DurableStorage.__init__: {},
    CrossShardCoordinator.__init__: {"timeout_rounds": 3},
    BeaconChain.__init__: {"params": None},
    Tracer.__init__: {},
    ChainNode.__init__: {},
    SimNet.__init__: {
        "latency": None, "drop_rate": 0.0, "seed": 0, "clock": None,
    },
    ops_handler: {},
}


def _defaults(func) -> dict:
    return {name: param.default
            for name, param in inspect.signature(func).parameters.items()
            if param.default is not inspect.Parameter.empty}


@pytest.mark.parametrize("func", list(PINNED),
                         ids=[f.__qualname__ for f in PINNED])
def test_defaulted_parameters_are_pinned(func):
    assert _defaults(func) == PINNED[func], \
        f"{func.__qualname__} settings changed; {RULE}"


def test_retry_policy_fields_are_pinned():
    fields = {f.name: f.default for f in dataclasses.fields(RetryPolicy)}
    assert fields == {"max_retries": 3, "max_backoff_ticks": 256,
                      "tick_s": 0.001}, f"RetryPolicy fields changed; {RULE}"


def test_the_e2e_harness_reads_the_seal_interval():
    # benchmarks/e2e/workloads.py reads ``server.seal_interval_s``.
    assert GatewayServer.seal_interval_s == 0.005
