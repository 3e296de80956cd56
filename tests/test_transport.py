"""One grammar, two carriers: the same :class:`repro.rpc.Service` served
over SimNet and over loopback TCP must be indistinguishable to a client,
and neither carrier may let anything but an ``error`` frame out of a
request it cannot serve.

* parity — a scripted op sequence yields byte-identical reply payloads
  on both carriers (``sync/*``, an unknown op, a malformed request), and
  the same reply ops and key sets where values are live counters
  (``ops``, a ``submit`` with a bounced tail);
* a replica synced through a TCP channel leaves the same block-log and
  record-log bytes as one synced through a SimNet channel;
* generated cases — arbitrary bytes and arbitrary decodable mappings get
  exactly one ``error`` frame, never an escaped exception.
"""

from __future__ import annotations

import asyncio
import os
import socket
import struct
import threading

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.chain import ChainParams, Transaction, TxKind
from repro.errors import SerializationError
from repro.gateway import GatewayClient, GatewayServer
from repro.gateway.frames import frame_payload, txs_to_frame_body
from repro.ingest import IngestPipeline
from repro.network import ChainNode, LatencyModel, NetMessage, SimNet
from repro.obs.runtime import Telemetry
from repro.persist import DurableStorage
from repro.persist.codec import canonical_decode
from repro.rpc import decode_frame_payload
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain
from repro.sharding.shardchain import Shard
from repro.sync import SnapshotClient, SnapshotServer


def data_tx(i: int, subject: str = "t0/obj") -> Transaction:
    return Transaction(
        sender="alice", kind=TxKind.DATA,
        payload={"subject": subject, "key": f"k{i}", "value": i},
        timestamp=i, fee=i,
    ).seal()


def build_source(storage_dir=None) -> ShardedChain:
    sharded = ShardedChain(
        2, max_block_txs=8, anchor_batch_size=16,
        storage_dir=None if storage_dir is None else str(storage_dir),
        telemetry=Telemetry(),
    )
    sharded.ingest_records([
        {"record_id": f"r{i:04d}", "subject": f"org{i % 8}/asset-{i % 5}",
         "actor": f"actor-{i % 4}", "operation": "update", "timestamp": i}
        for i in range(48)
    ])
    sharded.flush_anchors()
    sharded.submit_many([
        Transaction(f"org{i % 8}/acct", TxKind.DATA,
                    {"key": f"t{i}", "value": i}, timestamp=i).seal()
        for i in range(64)
    ])
    while sharded.mempool_backlog:
        sharded.seal_round(blocks_per_shard=4)
    return sharded


class Deployment:
    """One facade, one snapshot server, one gateway server — and every
    op of both attached to a SimNet node *and* a TCP listener."""

    def __init__(self, storage_dir=None, queue_capacity: int = 4096,
                 chunk_size: int = 2048) -> None:
        self.sharded = build_source(storage_dir)
        self.snapshots = SnapshotServer(self.sharded, chunk_size=chunk_size)
        self.gateway = GatewayServer(
            IngestPipeline(self.sharded, queue_capacity=queue_capacity,
                           telemetry=self.sharded.telemetry),
            telemetry=self.sharded.telemetry,
        )
        self.gateway.serve(self.snapshots.service)
        self.net = SimNet(LatencyModel(base=1, jitter=0), seed=5)
        self.node = ChainNode("server", self.net)
        self.node.serve(self.gateway.service)
        self.replies: list[bytes] = []
        self.net.register(
            "probe", lambda m: self.replies.append(m.body["reply"]))

    def over_simnet(self, payload: bytes, topic: str) -> list[bytes]:
        """Reply payloads to one raw request payload, SimNet carrier."""
        self.replies.clear()
        self.net.send(NetMessage("probe", "server", topic,
                                 {"frame": payload}))
        self.net.run()
        return list(self.replies)

    def close(self) -> None:
        self.sharded.close()


class TcpEndpoint:
    """The deployment's TCP listener on a background loop, driven from
    the test's thread with plain blocking sockets."""

    def __init__(self, deployment: Deployment) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.gateway = deployment.gateway
        self.address = asyncio.run_coroutine_threadsafe(
            self.gateway.start(), self.loop).result(10)

    def exchange(self, payload: bytes) -> list[bytes]:
        """Reply payloads to one raw request payload (a fresh connection,
        read until the exchange ends or the server hangs up)."""
        with socket.create_connection(self.address, timeout=10) as sock:
            sock.sendall(frame_payload(payload))
            stream = sock.makefile("rb")
            replies = []
            while True:
                prefix = stream.read(4)
                if len(prefix) < 4:
                    return replies
                (length,) = struct.unpack(">I", prefix)
                reply = stream.read(length)
                replies.append(reply)
                body = decode_frame_payload(reply)
                if body["op"] == "error" or body.get("final"):
                    return replies

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.gateway.drain(drain_pipeline=False), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()
        self.loop.close()


def both_carriers(deployment: Deployment, requests) -> list[tuple]:
    """Drive ``requests`` ([(topic, payload)]) over SimNet, then over
    TCP; returns [(simnet replies, tcp replies)] per request."""
    simnet = [deployment.over_simnet(payload, topic)
              for topic, payload in requests]
    endpoint = TcpEndpoint(deployment)
    try:
        tcp = [endpoint.exchange(payload) for _, payload in requests]
    finally:
        endpoint.close()
    return list(zip(simnet, tcp))


# ---------------------------------------------------------------------------
# (a) Carrier parity
# ---------------------------------------------------------------------------
class TestCarrierParity:
    def test_sync_ops_reply_byte_identically(self):
        deployment = Deployment()
        manifest = deployment.snapshots.offer(0)["manifest"]
        height, chunks = manifest["height"], len(manifest["chunk_hashes"])
        assert chunks > 1
        script = [{"op": "sync/offer", "shard_id": 0}]
        script += [{"op": "sync/chunk", "shard_id": 0, "height": height,
                    "index": i} for i in range(chunks)]
        script += [
            {"op": "sync/tail", "shard_id": 0, "start": 1, "count": 64,
             "upto": height},
            {"op": "warp"},                                 # unknown op
            {"op": "sync/chunk", "shard_id": 0, "index": "x"},  # malformed
            {"op": "sync/chunk", "shard_id": 0, "height": height,
             "index": chunks},                              # refused
        ]
        requests = [
            # An unserved topic is dropped by the node before the
            # dispatcher sees it, so the unknown op rides a served one.
            (body["op"] if body["op"] != "warp" else "sync/offer",
             canonical_encode(dict(body, seq=seq)))
            for seq, body in enumerate(script, start=1)
        ]
        try:
            outcomes = both_carriers(deployment, requests)
        finally:
            deployment.close()
        for body, (simnet, tcp) in zip(script, outcomes):
            assert len(simnet) == 1, body
            assert simnet == tcp, body
        last = [decode_frame_payload(simnet[0]) for simnet, _ in outcomes]
        assert [b["op"] for b in last[:-3]] == \
            ["sync/offer_ok"] + ["sync/chunk_ok"] * chunks + ["sync/tail_ok"]
        assert [(b["op"], b["reason"]) for b in last[-3:]] == [
            ("error", "protocol"), ("error", "bad_request"),
            ("error", "bad_request"),
        ]

    def test_ops_and_bounced_submit_have_the_same_shape(self):
        deployment = Deployment(queue_capacity=4)
        requests = []
        for seq, body in enumerate([
            {"op": "ops"},
            {"op": "submit", "txs": [{"_never": "a tx"}]},  # malformed tx
        ], start=1):
            requests.append((body["op"],
                             canonical_encode(dict(body, seq=seq))))
        def submit(seq: int, base: int) -> tuple:
            # 12 txs into a 4-deep queue: a bounced tail either way
            # (the second carrier finds the queue already full).
            return ("submit", canonical_encode(txs_to_frame_body(
                [data_tx(base + i) for i in range(12)], seq)))

        try:
            simnet = [deployment.over_simnet(payload, topic)
                      for topic, payload in requests + [submit(3, 0)]]
            endpoint = TcpEndpoint(deployment)
            try:
                tcp = [endpoint.exchange(payload)
                       for _, payload in requests + [submit(3, 100)]]
            finally:
                endpoint.close()
        finally:
            deployment.close()

        def shape(replies):
            bodies = [decode_frame_payload(r) for r in replies]
            return [(b["op"], sorted(b)) for b in bodies]

        assert [shape(r) for r in simnet] == [shape(r) for r in tcp]
        assert [op for op, _ in shape(simnet[0])] == ["ops_ok"]
        assert [op for op, _ in shape(simnet[1])] == ["error"]
        assert [op for op, _ in shape(simnet[2])] == \
            ["retry_after", "report"]


# ---------------------------------------------------------------------------
# (b) Snapshot sync over TCP == snapshot sync over SimNet
# ---------------------------------------------------------------------------
def log_files(store_dir: str) -> dict[str, bytes]:
    out = {}
    for log in ("blocks-log", "records-log"):
        for name in sorted(os.listdir(os.path.join(store_dir, log))):
            with open(os.path.join(store_dir, log, name), "rb") as fh:
                out[f"{log}/{name}"] = fh.read()
    return out


class TestSyncOverTcp:
    def test_tcp_synced_replica_matches_simnet_synced_replica(
            self, tmp_path):
        deployment = Deployment(storage_dir=tmp_path / "source")
        sharded = deployment.sharded
        source = sharded.shard(0)
        try:
            over_simnet = sharded.spawn_replica(
                0, str(tmp_path / "simnet"), deployment.net,
                node_id="rep", peers=["server"])
            simnet_report = over_simnet.catch_up()
            assert over_simnet.chain.head.block_hash == \
                source.chain.head.block_hash
            over_simnet.close()

            def header_for(height: int):
                return sharded.beacon.chain.block_at(height).header

            endpoint = TcpEndpoint(deployment)
            try:
                with GatewayClient(*endpoint.address, tenant="replica") \
                        as channel:
                    tcp_report = SnapshotClient(
                        channel=channel, shard_id=0,
                        storage_dir=str(tmp_path / "tcp"),
                        beacon_header_for=header_for,
                        chain_id=source.chain.chain_id,
                    ).sync()
            finally:
                endpoint.close()
            assert tcp_report.peer.startswith("127.0.0.1:")
            assert tcp_report.retries == 0
            assert tcp_report.requests == simnet_report.requests
            for field in ("height", "head_hash", "blocks_installed",
                          "chunks_downloaded", "bytes_received",
                          "records_installed", "state_entries"):
                assert getattr(tcp_report, field) == \
                    getattr(simnet_report, field), field

            files = log_files(str(tmp_path / "tcp"))
            assert files and files == log_files(str(tmp_path / "simnet"))
            replica = Shard(
                0, ChainParams(
                    chain_id=source.chain.chain_id,
                    max_block_txs=source.chain.params.max_block_txs),
                anchor_batch_size=source.anchor.batch_size,
                storage=DurableStorage(str(tmp_path / "tcp")),
            )
            assert replica.chain.blocks_replayed_on_open == 0
            assert replica.chain.head.block_hash == \
                source.chain.head.block_hash
            assert replica.chain.state.state_root() == \
                source.chain.state.state_root()
            replica.close()
        finally:
            deployment.close()


# ---------------------------------------------------------------------------
# (c) Generated cases: nothing but one error frame gets out
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def carriers():
    deployment = Deployment()
    endpoint = TcpEndpoint(deployment)
    yield deployment, endpoint
    endpoint.close()
    deployment.close()


SERVED = ["hello", "submit", "ops", "ping", "bye",
          "sync/offer", "sync/chunk", "sync/tail"]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.binary(max_size=8), st.floats(allow_nan=False, allow_infinity=False),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
field_names = st.sampled_from(
    ["shard_id", "height", "index", "start", "count", "upto", "txs",
     "proto", "tenant", "t", "final", "x"])
fields = st.dictionaries(field_names, values, max_size=5)

GENERATED = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def one_error_frame_each(carriers, payload: bytes, reasons) -> None:
    deployment, endpoint = carriers
    for replies in (deployment.over_simnet(payload, "sync/offer"),
                    endpoint.exchange(payload)):
        assert len(replies) == 1
        body = decode_frame_payload(replies[0])
        assert body["op"] == "error"
        assert body["reason"] in reasons


class TestGeneratedCases:
    @GENERATED
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, carriers, payload):
        try:
            body = canonical_decode(payload)
        except SerializationError:
            body = None
        assume(not (isinstance(body, dict) and type(body.get("op")) is str
                    and type(body.get("seq")) is int))
        one_error_frame_each(carriers, payload,
                             {"corrupt_frame", "protocol"})

    @GENERATED
    @given(fields, st.one_of(values, st.sampled_from(SERVED)), values)
    def test_broken_envelope(self, carriers, extra, op, seq):
        assume(type(op) is not str or type(seq) is not int)
        body = dict(extra, op=op, seq=seq)
        one_error_frame_each(carriers, canonical_encode(body),
                             {"protocol"})

    @GENERATED
    @given(fields, st.text(max_size=12), st.integers())
    def test_unknown_op(self, carriers, extra, op, seq):
        assume(op not in SERVED)
        body = dict(extra, op=op, seq=seq)
        one_error_frame_each(carriers, canonical_encode(body),
                             {"protocol"})

    @GENERATED
    @given(fields, st.sampled_from(["sync/chunk", "sync/tail", "submit"]),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_served_op_with_arbitrary_fields(self, carriers, extra, op,
                                             seq):
        # A valid envelope around junk: exactly one frame comes back —
        # an error, or (when the junk happens to be a request) a final
        # reply — and it echoes the seq.
        deployment, endpoint = carriers
        payload = canonical_encode(dict(extra, op=op, seq=seq))
        for replies in (deployment.over_simnet(payload, op),
                        endpoint.exchange(payload)):
            bodies = [decode_frame_payload(r) for r in replies]
            assert bodies and bodies[-1]["seq"] == seq
            terminal = bodies[-1]
            assert terminal["op"] == "error" or terminal["final"] is True
            if terminal["op"] == "error":
                assert len(bodies) == 1
