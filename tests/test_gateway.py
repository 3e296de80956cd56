"""Socket gateway: frame codec, handshake, wire backpressure,
commitment equivalence with the in-process path, disconnect races, and
graceful drain.

The equivalence suite pins the gateway's core promise: transactions
streamed in by N concurrent asyncio clients — overlapping tenant
namespaces, cross-shard lock conflicts included — seal to
byte-identical shard heads, state roots, and beacon commitments as the
same batch submitted in process.  Unique per-transaction fees give the
mempool's ``(-fee, seq, tx_id)`` heap a total order independent of
arrival interleave, which is exactly what makes the promise testable.
"""

from __future__ import annotations

import asyncio
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Transaction, TxKind
from repro.crypto.signatures import KeyPair
from repro.errors import (
    RETRY_AFTER_FLOOR_S, ChainError, GatewayError, InvalidTransaction,
)
from repro.gateway import (
    MAX_FRAME_BYTES, AsyncGatewayClient, GatewayClient, GatewayServer,
    encode_frame,
)
from repro.gateway import frames
from repro.gateway.frames import (
    decode_frame_payload, frame_to_txs, read_payload, txs_to_frame_body,
)
from repro.ingest import IngestPipeline
from repro.net_retry import RetryPolicy
from repro.obs.runtime import reset_default_telemetry, telemetry
from repro.persist.codec import (
    transaction_from_mapping, _transaction_to_mapping,
)
from repro.serialization import canonical_encode
from repro.sharding import CrossShardCoordinator, ShardedChain


async def read_frame(reader):
    """One decoded frame body off ``reader`` (``None`` on clean EOF)."""
    payload = await read_payload(reader)
    return None if payload is None else decode_frame_payload(payload)


def data_tx(i: int, tenant: str = "t0", fee: int = 0) -> Transaction:
    return Transaction(
        sender="alice", kind=TxKind.DATA,
        payload={"subject": f"{tenant}/obj", "key": f"k{i}", "value": i},
        timestamp=i, fee=fee,
    ).seal()


def make_stack(n_shards: int = 4, queue_capacity: int = 4096,
               **server_kw):
    """A sharded chain + pipeline + server on a fresh process
    telemetry."""
    reset_default_telemetry()
    sharded = ShardedChain(n_shards=n_shards)
    pipe = IngestPipeline(sharded, queue_capacity=queue_capacity)
    server = GatewayServer(pipe, **server_kw)
    return sharded, pipe, server


def commitments(sharded: ShardedChain):
    return (
        [s.chain.head.block_hash for s in sharded.shards],
        [s.chain.state.state_root() for s in sharded.shards],
        sharded.beacon.chain.head.block_hash,
    )


def counter_of(name: str) -> float:
    snap = telemetry().registry.snapshot()
    return sum(v for k, v in snap["counters"].items()
               if k == name or k.startswith(name + "{"))


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------
class TestFrames:
    def test_frame_roundtrip(self):
        body = {"op": "submit", "seq": 7, "txs": [], "b": b"\x00\xff"}
        frame = encode_frame(body)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert decode_frame_payload(frame[4:]) == body

    def test_transaction_survives_the_wire_byte_identically(self):
        tx = data_tx(3, tenant="t9", fee=5)
        back = transaction_from_mapping(_transaction_to_mapping(tx))
        assert back.tx_id == tx.tx_id
        assert back.is_sealed
        assert canonical_encode(back.signing_body()) == \
            canonical_encode(tx.signing_body())

    def test_submit_body_roundtrip(self):
        txs = [data_tx(i, fee=i) for i in range(5)]
        body = decode_frame_payload(
            encode_frame(txs_to_frame_body(txs, seq=3))[4:])
        back = frame_to_txs(body)
        assert [t.tx_id for t in back] == [t.tx_id for t in txs]

    @staticmethod
    def _read_fed(*chunks: bytes, eof: bool = True):
        async def scenario():
            reader = asyncio.StreamReader()
            for chunk in chunks:
                reader.feed_data(chunk)
            if eof:
                reader.feed_eof()
            return await read_frame(reader)
        return asyncio.run(scenario())

    def test_announced_oversize_frame_refused(self):
        with pytest.raises(GatewayError) as err:
            self._read_fed(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"xx",
                           eof=False)
        assert err.value.reason == "frame_too_large"

    def test_corrupt_payload_fails_closed(self):
        frame = encode_frame({"op": "ping", "seq": 1})
        broken = frame[:4] + b"Z" + frame[5:]
        with pytest.raises(GatewayError) as err:
            decode_frame_payload(broken[4:])
        assert err.value.reason == "corrupt_frame"

    def test_non_mapping_payload_fails_closed(self):
        payload = canonical_encode([1, 2, 3])
        with pytest.raises(GatewayError) as err:
            decode_frame_payload(payload)
        assert err.value.reason == "corrupt_frame"

    def test_eof_mid_frame_is_connection_closed(self):
        frame = encode_frame({"op": "ping", "seq": 1})
        with pytest.raises(GatewayError) as err:
            self._read_fed(frame[: len(frame) - 2])
        assert err.value.reason == "connection_closed"

    def test_clean_eof_between_frames_is_none(self):
        assert self._read_fed() is None

    def test_malformed_tx_entry_fails_the_frame(self):
        body = decode_frame_payload(
            encode_frame(txs_to_frame_body([data_tx(1)], seq=1))[4:])
        body["txs"].append({"not": "a tx"})
        with pytest.raises(GatewayError) as err:
            frame_to_txs(body)
        assert err.value.reason == "corrupt_frame"


# ---------------------------------------------------------------------------
# Handshake + control ops
# ---------------------------------------------------------------------------
class TestHandshake:
    def test_hello_ping_ops_bye(self, tmp_path, traced_telemetry):
        # A durable deployment that checks signatures: one ``ops``
        # snapshot holds the persist, signature, recovery and seal
        # series together, and the fsyncs nest in the sealed rounds'
        # traces, because every layer reports to the one telemetry.
        tel = traced_telemetry
        keys = KeyPair.generate("ops-signer")
        sharded = ShardedChain(n_shards=2, max_block_txs=2,
                               storage_dir=str(tmp_path))
        pipe = IngestPipeline(sharded, verify_signatures=True)
        server = GatewayServer(pipe)
        txs = [Transaction(keys.address, TxKind.DATA,
                           {"subject": f"t{i % 4}/obj", "key": f"k{i}",
                            "value": i}, timestamp=i, fee=i
                           ).seal().sign_with(keys)
               for i in range(40)]

        async def scenario():
            host, port = await server.start()
            async with await AsyncGatewayClient.connect(
                    host, port, tenant="acme") as client:
                assert client.conn_id is not None
                assert not client.server_draining
                assert (await client.call({"op": "ping"}))[-1]["op"] \
                    == "pong"
                await client.submit(txs)
                await asyncio.get_running_loop().run_in_executor(
                    None, pipe.run_until_drained)
                ops = await client.ops()
                assert ops["ingest"]["submitted"] == len(txs)
                assert ops["gateway"]["connections_active"] == 1
                snap = ops["snapshot"]
                assert snap["counters"]["persist_fsyncs_total"] > 0
                assert snap["counters"][
                    'sig_verify_cache_misses_total{cache="verify_signature"}'
                ] >= len(txs)
                assert 'proof_rows_loaded_total{kind="round"}' \
                    in snap["counters"]
                assert snap["histograms"]["seal_round_seconds"]["count"] \
                    >= 2
            await server.drain()

        asyncio.run(scenario())
        assert sharded.total_txs_committed == len(txs)
        traces = [{s.name for s in tel.tracer.find_spans(r.trace_id)}
                  for r in tel.tracer.spans() if r.name == "round.seal"]
        assert any("persist.fsync" in names for names in traces), traces
        sharded.close()

    def test_wrong_protocol_version_refused(self):
        _, _, server = make_stack()

        async def scenario():
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"op": "hello", "seq": 1,
                                       "proto": 99, "tenant": "x"}))
            await writer.drain()
            body = await read_frame(reader)
            assert body["op"] == "error"
            assert body["reason"] == "protocol"
            writer.close()
            await server.drain()

        asyncio.run(scenario())

    def test_unknown_op_answered_with_error(self):
        _, _, server = make_stack()

        async def scenario():
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"op": "warp", "seq": 4}))
            await writer.drain()
            body = await read_frame(reader)
            assert body["op"] == "error"
            assert body["reason"] == "protocol"
            assert body["seq"] == 4
            writer.close()
            await server.drain()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Commitment equivalence with the in-process path
# ---------------------------------------------------------------------------
class TestEquivalence:
    N_CLIENTS = 6
    PER_CLIENT = 50

    def _txs_for(self, client_idx: int) -> list[Transaction]:
        # Overlapping namespaces: every client writes into tenants
        # t0..t3, so shard queues interleave submissions from all
        # clients.  Fees are globally unique -> total mempool order.
        return [
            data_tx(client_idx * 1000 + i, tenant=f"t{i % 4}",
                    fee=client_idx * self.PER_CLIENT + i)
            for i in range(self.PER_CLIENT)
        ]

    def test_concurrent_clients_match_in_process(self):
        all_txs = [tx for c in range(self.N_CLIENTS)
                   for tx in self._txs_for(c)]

        # Reference: one in-process pipeline, same config.
        ref_sharded = ShardedChain(n_shards=4)
        ref_pipe = IngestPipeline(ref_sharded, queue_capacity=4096)
        report = ref_pipe.submit_many(all_txs)
        assert not report.rejected
        ref_pipe.run_until_drained()

        # Gateway: N concurrent asyncio clients, arbitrary interleave.
        sharded, pipe, server = make_stack()

        async def scenario():
            host, port = await server.start()

            async def one_client(idx: int):
                async with await AsyncGatewayClient.connect(
                        host, port, tenant=f"client-{idx}") as client:
                    result = await client.submit(self._txs_for(idx))
                    assert result.queued == self.PER_CLIENT
                    assert not result.rejected

            await asyncio.gather(*(one_client(i)
                                   for i in range(self.N_CLIENTS)))
            await server.drain()

        asyncio.run(scenario())
        assert commitments(sharded) == commitments(ref_sharded)
        sharded.verify_all(deep=True)

    def test_lock_conflicts_match_in_process(self):
        def build():
            sharded = ShardedChain(n_shards=4)
            pipe = IngestPipeline(sharded, queue_capacity=4096)
            coord = CrossShardCoordinator(sharded, timeout_rounds=50)
            source = "t0/obj"
            target_ns = next(
                f"x{c}" for c in "abcdefgh"
                if sharded.router.shard_for(f"x{c}")
                != sharded.router.shard_for("t0")
            )
            coord.begin(source, f"{target_ns}/obj")
            return sharded, pipe

        all_txs = [tx for c in range(self.N_CLIENTS)
                   for tx in self._txs_for(c)]

        ref_sharded, ref_pipe = build()
        ref_pipe.submit_many(all_txs)   # t0/obj txs bounce off the lock
        ref_pipe.run_until_drained()

        sharded, pipe = build()
        server = GatewayServer(pipe)

        async def scenario():
            host, port = await server.start()

            async def one_client(idx: int):
                async with await AsyncGatewayClient.connect(
                        host, port) as client:
                    await client.submit(self._txs_for(idx))

            await asyncio.gather(*(one_client(i)
                                   for i in range(self.N_CLIENTS)))
            await server.drain()

        asyncio.run(scenario())
        assert commitments(sharded) == commitments(ref_sharded)
        assert sharded.rounds_sealed == ref_sharded.rounds_sealed
        sharded.verify_all(deep=True)

    def test_sync_client_matches_async_path(self):
        txs = [data_tx(i, tenant=f"t{i % 4}", fee=i) for i in range(80)]

        ref_sharded = ShardedChain(n_shards=4)
        ref_pipe = IngestPipeline(ref_sharded)
        ref_pipe.submit_many(txs)
        ref_pipe.run_until_drained()

        sharded, pipe, server = make_stack()

        async def scenario():
            host, port = await server.start()
            loop = asyncio.get_running_loop()

            def sync_side():
                with GatewayClient(host, port, tenant="sync") as client:
                    result = client.submit(txs)
                    assert result.queued == len(txs)
            await loop.run_in_executor(None, sync_side)
            await server.drain()

        asyncio.run(scenario())
        assert commitments(sharded) == commitments(ref_sharded)


# ---------------------------------------------------------------------------
# Backpressure over the wire
# ---------------------------------------------------------------------------
class TestWireBackpressure:
    def test_pre_first_seal_hint_never_below_the_floor(self):
        # The regression the bugfix satellite pins, observed end to
        # end: before any round has sealed, bounced submissions must
        # carry a non-zero retry hint (a client honoring 0.0 verbatim
        # would hot-loop the gateway).
        sharded, pipe, server = make_stack(n_shards=1,
                                           queue_capacity=8)

        async def scenario():
            host, port = await server.start()
            async with await AsyncGatewayClient.connect(
                    host, port) as client:
                result = await client.submit(
                    [data_tx(i, fee=i) for i in range(20)])
                assert result.queued == 8
                assert len(result.rejected) == 12
                for entry in result.rejected:
                    assert entry["retry_after_s"] >= RETRY_AFTER_FLOOR_S
                assert result.retry_after_s >= RETRY_AFTER_FLOOR_S
            await server.drain()

        asyncio.run(scenario())

    def test_queuefull_storm_loses_nothing(self):
        # Tiny queues + auto-seal + 6 greedy clients: every bounced
        # transaction must be retried to admission — zero drops.
        reset_default_telemetry()
        sharded = ShardedChain(n_shards=2, max_block_txs=64)
        pipe = IngestPipeline(sharded, queue_capacity=32)
        server = GatewayServer(pipe, auto_seal=True)
        n_clients, per_client = 6, 150
        policy = RetryPolicy(max_retries=80, tick_s=0.001)

        async def scenario():
            host, port = await server.start()

            async def flood(idx: int):
                async with await AsyncGatewayClient.connect(
                        host, port, policy=policy) as client:
                    txs = [data_tx(idx * 1000 + i, tenant=f"t{i % 3}",
                                   fee=idx * per_client + i)
                           for i in range(per_client)]
                    result = await client.submit_with_retry(txs)
                    assert result.queued == per_client
                    return result.attempts

            attempts = await asyncio.gather(
                *(flood(i) for i in range(n_clients)))
            assert max(attempts) > 1    # the storm actually bounced
            await server.drain()

        asyncio.run(scenario())
        sealed = sum(sum(len(b.transactions) for b in s.chain.blocks[1:])
                     for s in sharded.shards)
        assert sealed == n_clients * per_client
        assert counter_of("gateway_txs_rejected_total") > 0

    def test_a_mistyped_field_cannot_stop_the_sealer(self):
        # An unsealed transaction whose nonce is a str is acked; the
        # sealer's admission must quarantine it, admit its batch-mates
        # and keep sealing what later frames bring.
        sharded, pipe, server = make_stack(n_shards=2, auto_seal=True)
        bad = Transaction(sender="alice", kind=TxKind.DATA,
                          payload={"subject": "t0/obj", "key": "bad"},
                          nonce="x")
        good = [data_tx(i, fee=i) for i in range(7)]

        async def scenario():
            host, port = await server.start()
            async with await AsyncGatewayClient.connect(
                    host, port) as client:
                first = await client.submit([good[0], bad, good[1]])
                assert first.queued == 3
                await asyncio.sleep(0.05)
                later = await client.submit(good[2:])
                assert later.queued == 5
            await server.drain()

        asyncio.run(scenario())
        sealed = {tx.tx_id for s in sharded.shards
                  for b in s.chain.blocks[1:] for tx in b.transactions}
        assert sealed == {tx.tx_id for tx in good}
        assert list(pipe.invalid_txs) == [bad]
        assert counter_of("gateway_seal_errors_total") == 0

    @settings(max_examples=20, deadline=None)
    @given(payload=st.one_of(
        st.lists(st.text(max_size=3), max_size=3), st.text(max_size=5),
        st.integers(), st.none(), st.booleans(), st.binary(max_size=4),
        st.lists(st.lists(st.integers(), max_size=2), max_size=2)))
    def test_a_payload_that_is_not_a_mapping_is_the_clients_fault(
            self, payload):
        """Both doors refuse the batch before routing reads the payload:
        in process with InvalidTransaction, on the wire with a
        ``bad_request`` error frame.  Nothing is queued, and no server
        fault is counted."""
        bad = {"sender": "alice", "kind": TxKind.DATA.value,
               "payload": payload, "nonce": 0, "timestamp": 0, "fee": 0}
        _, pipe, server = make_stack(n_shards=2)
        failures = telemetry().registry.counter(
            "rpc_handler_failures_total")
        before = failures.value
        with pytest.raises(InvalidTransaction):
            pipe.submit_many([data_tx(0), transaction_from_mapping(bad)])
        assert pipe.total_submitted == 0

        async def scenario():
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            body = txs_to_frame_body([data_tx(1)], seq=1)
            body["txs"].append(bad)
            writer.write(encode_frame(body))
            await writer.drain()
            reply = await read_frame(reader)
            assert (reply["op"], reply["reason"], reply["seq"]) \
                == ("error", "bad_request", 1)
            writer.close()
            async with await AsyncGatewayClient.connect(
                    host, port) as client:
                assert (await client.submit([data_tx(2)])).queued == 1
            await server.drain()

        asyncio.run(scenario())
        assert pipe.total_submitted == 1
        assert failures.value == before

    def test_budget_exhaustion_hands_back_pending(self):
        # No sealer: the queue never frees, so the retry budget runs
        # out — the still-pending transactions must come back on the
        # error, not vanish.
        _, pipe, server = make_stack(n_shards=1, queue_capacity=4)

        async def scenario():
            host, port = await server.start()
            policy = RetryPolicy(max_retries=2, tick_s=0.0001)
            async with await AsyncGatewayClient.connect(
                    host, port, policy=policy) as client:
                txs = [data_tx(i, fee=i) for i in range(10)]
                with pytest.raises(GatewayError) as err:
                    await client.submit_with_retry(txs)
                assert err.value.reason == "backpressure_budget"
                pending_ids = {tx.tx_id for tx in err.value.pending}
                assert len(pending_ids) == 6   # 4 queued, 6 stuck
                assert pending_ids <= {tx.tx_id for tx in txs}
            await server.drain()

        asyncio.run(scenario())

    def test_repeat_offenders_get_paused(self, monkeypatch):
        monkeypatch.setattr(GatewayServer, "PAUSE_AFTER", 2)
        monkeypatch.setattr(GatewayServer, "PAUSE_CAP_S", 0.01)
        _, pipe, server = make_stack(n_shards=1, queue_capacity=4)

        async def scenario():
            host, port = await server.start()
            async with await AsyncGatewayClient.connect(
                    host, port) as client:
                for i in range(4):   # every submit bounces its tail
                    await client.submit(
                        [data_tx(100 * i + j, fee=100 * i + j)
                         for j in range(8)])
            await server.drain()

        asyncio.run(scenario())
        assert counter_of("gateway_pauses_total") >= 1


# ---------------------------------------------------------------------------
# Disconnect races
# ---------------------------------------------------------------------------
class TestDisconnects:
    def test_kill_client_mid_frame(self):
        # A client dying mid-write leaves a truncated frame; the server
        # counts the aborted connection and keeps serving everyone else.
        sharded, pipe, server = make_stack()

        async def scenario():
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            frame = encode_frame(txs_to_frame_body(
                [data_tx(i) for i in range(50)], seq=1))
            writer.write(frame[: len(frame) // 2])
            await writer.drain()
            writer.transport.abort()   # RST mid-frame
            await asyncio.sleep(0.05)
            assert counter_of("gateway_connections_aborted_total") == 1
            # The accept loop survived: a well-behaved client still works.
            async with await AsyncGatewayClient.connect(
                    host, port) as client:
                result = await client.submit([data_tx(999)])
                assert result.queued == 1
            await server.drain()

        asyncio.run(scenario())
        assert sharded.total_txs_committed == 1

    @pytest.mark.parametrize("payload, reason", [
        (b"d1:s2:ops2:\xff\xfee", "corrupt_frame"),         # invalid UTF-8
        (b"d2:s2:ops4:pings3:seqi3:E.Ae", "corrupt_frame"),  # int body NaN
        (b"d2:s2:ops4:pings3:seqi2:07e", "corrupt_frame"),   # int spelling
        (b"d2:s3:seqi1:1s2:ops4:pinge", "corrupt_frame"),    # key order
        (b"d1:s2:op" + b"l1:" * 5000 + b"N" + b"e" * 5001,
         "corrupt_frame"),                                    # nesting bomb
        # Well-formed frames whose *fields* have the wrong shape.
        (canonical_encode({"op": "ping", "seq": "x"}), "protocol"),
        (canonical_encode({"op": "hello", "proto": "abc"}), "protocol"),
        (canonical_encode({"op": "hello", "seq": 1, "proto": "abc"}),
         "protocol"),
        (canonical_encode({"op": "submit", "seq": [1], "txs": []}),
         "protocol"),
        (canonical_encode({"op": 7, "seq": 1}), "protocol"),
    ], ids=["utf8", "int-body", "int-spelling", "key-order", "depth",
            "seq-str", "hello-no-seq", "proto-str", "seq-list", "op-int"])
    def test_hostile_payload_gets_an_error_frame_and_is_counted(
            self, payload, reason, caplog):
        # Each of these used to escape as UnicodeDecodeError / ValueError
        # / RecursionError / TypeError, past a handler that only expected
        # GatewayError: the connection task died with "Unhandled
        # exception in client_connected_cb", uncounted and unanswered.
        _, pipe, server = make_stack()

        async def scenario():
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack(">I", len(payload)) + payload)
            await writer.drain()
            reply = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert reply["op"] == "error"
            assert reply["reason"] == reason
            # Exactly one error frame, then the server hangs up.
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()
            assert counter_of("gateway_connections_aborted_total") == 1
            async with await AsyncGatewayClient.connect(
                    host, port) as client:
                assert (await client.submit([data_tx(1)])).queued == 1
            await server.drain()

        asyncio.run(scenario())
        assert "Unhandled exception" not in caplog.text

    def test_slow_loris_payload_is_cut_off(self, monkeypatch):
        # A length prefix, half the payload, then silence: the frame is
        # owed within FRAME_READ_TIMEOUT_S or the connection is closed
        # and counted.  An idle connection *between* frames is not.
        monkeypatch.setattr(frames, "FRAME_READ_TIMEOUT_S", 0.05)
        _, pipe, server = make_stack()

        async def scenario():
            host, port = await server.start()
            idle = await AsyncGatewayClient.connect(host, port)
            reader, writer = await asyncio.open_connection(host, port)
            frame = encode_frame({"op": "ping", "seq": 1})
            writer.write(frame[: 4 + (len(frame) - 4) // 2])
            await writer.drain()
            reply = await asyncio.wait_for(read_frame(reader), timeout=5)
            assert reply["op"] == "error"
            assert reply["reason"] == "read_timeout"
            assert await asyncio.wait_for(reader.read(), timeout=5) == b""
            writer.close()
            assert counter_of("gateway_connections_aborted_total") == 1
            # Four timeouts' worth of idling later the quiet client is
            # still connected and served.
            await asyncio.sleep(0.2)
            assert telemetry().registry.gauge(
                "gateway_connections_active").value == 1
            assert (await idle.call({"op": "ping"}))[-1]["op"] == "pong"
            await idle.close()
            await server.drain()

        asyncio.run(scenario())

    def test_disconnect_during_batched_reply_is_counted(self,
                                                        monkeypatch):
        # REPORT_CHUNK=1 + a mostly-bounced batch = a long streamed
        # reply; the client vanishes before reading it.  Every frame
        # that could not be flushed must land on the undeliverable
        # counter — never raise through the accept loop, never vanish.
        monkeypatch.setattr(GatewayServer, "REPORT_CHUNK", 1)
        _, pipe, server = make_stack(n_shards=1, queue_capacity=2)

        async def scenario():
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({
                "op": "hello", "seq": 1, "proto": 1, "tenant": "x"}))
            await writer.drain()
            assert (await read_frame(reader))["op"] == "hello_ok"
            # 2002 txs -> 2 queued + 2000 retry_after chunks + report.
            writer.write(encode_frame(txs_to_frame_body(
                [data_tx(i, fee=i) for i in range(2002)], seq=2)))
            await writer.drain()
            writer.transport.abort()   # gone before reading the reply
            for _ in range(100):
                await asyncio.sleep(0.02)
                if counter_of("gateway_frames_undeliverable_total"):
                    break
            assert counter_of("gateway_frames_undeliverable_total") > 0
            assert telemetry().registry.gauge(
                "gateway_connections_active").value == 0
            # Server is healthy: the next client is served normally.
            async with await AsyncGatewayClient.connect(
                    host, port) as client:
                assert (await client.submit([])).queued == 0
            await server.drain()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------
class TestDrain:
    def test_drain_under_load_loses_nothing(self):
        sharded, pipe, server = make_stack()
        n_clients = 8
        acked = []

        async def scenario():
            host, port = await server.start()
            stop = asyncio.Event()

            async def capture(idx: int):
                client = await AsyncGatewayClient.connect(
                    host, port, tenant=f"cap-{idx}")
                queued = 0
                i = 0
                try:
                    while not stop.is_set():
                        result = await client.submit(
                            [data_tx(idx * 100000 + i + j,
                                     tenant=f"t{(i + j) % 5}",
                                     fee=idx * 100000 + i + j)
                             for j in range(10)])
                        queued += result.queued
                        i += 10
                        await asyncio.sleep(0)
                except GatewayError as exc:
                    assert exc.reason in ("draining",
                                          "connection_closed")
                acked.append(queued)

            tasks = [asyncio.ensure_future(capture(i))
                     for i in range(n_clients)]
            await asyncio.sleep(0.15)   # let the fleet stream
            stop.set()
            await server.drain()
            await asyncio.gather(*tasks)
            # New connections are refused once drained.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        asyncio.run(scenario())
        assert pipe.backlog == 0
        assert sharded.mempool_backlog == 0
        assert sum(acked) > 0
        assert sharded.total_txs_committed == sum(acked)

    def test_submit_after_drain_starts_is_refused_structurally(self):
        _, pipe, server = make_stack()

        async def scenario():
            host, port = await server.start()
            client = await AsyncGatewayClient.connect(host, port)
            drain_task = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.01)
            with pytest.raises(GatewayError) as err:
                await client.submit([data_tx(1)])
            assert err.value.reason in ("draining", "connection_closed")
            await drain_task
            await client.close()

        asyncio.run(scenario())

    def test_duplicate_topic_guard_still_protects_simnet_gateway(self):
        # The on_topic audit rides along: a ChainNode fronting a facade
        # refuses a second, different claimant for its topics.
        from repro.network import ChainNode, SimNet

        net = SimNet(seed=3)
        node = ChainNode("gw", net)
        sharded = ShardedChain(n_shards=2)
        node.serve_shards(sharded)
        node.serve_shards(sharded)   # idempotent
        with pytest.raises(ChainError):
            node.on_topic("shard_tx", lambda m: None)
