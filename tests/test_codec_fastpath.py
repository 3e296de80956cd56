"""The canonical codec's fast path is byte-identical to what it replaced.

Four angles, by generation rather than by example:

(a) the pre-fast-path ``isinstance``-ladder encoder is kept here as the
    oracle and compared with :func:`canonical_encode` over generated
    values, exotic container/scalar types and the error cases;
(b) block, submit-frame and exec-job-frame bytes built by splicing the
    pinned bytes of sealed transactions equal the mapping-path bytes;
(c) batched ``ingest_records`` (encode once, share the bytes) commits the
    same digests, Merkle roots, record-log bytes and beacon header as
    per-record ``ingest_record``;
(d) the decoder either raises :class:`SerializationError` or returns a
    value that re-encodes to exactly the input, on arbitrary bytes.

``tests/golden/codec_vectors.json`` pins today's bytes (value -> hex, and
one block / record / receipt frame with its hash) so drift in any later
change fails loudly.  The file was written by the parent commit's encoder.
"""

from __future__ import annotations

import ast
import enum
import hashlib
import json
import math
import os
from collections import OrderedDict, UserDict, UserList
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.block import Block
from repro.chain.receipts import Event, TransactionReceipt
from repro.chain.transaction import Transaction, TxKind
from repro.crypto.merkle import leaf_hash
from repro.crypto.signatures import KeyPair
from repro.errors import SerializationError
from repro.exec.engine import ProcessRoundEngine
from repro.gateway.frames import encode_frame, txs_to_frame_body
from repro.obs.runtime import Telemetry
from repro.persist.codec import (
    MAX_DEPTH,
    canonical_decode,
    decode_block,
    encode_block,
    encode_receipt,
    encode_record,
    transaction_embedded,
    transaction_to_mapping,
)
from repro.provenance.records import record_digest
from repro.serialization import Pinned, canonical_encode
from repro.sharding import ShardedChain

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "codec_vectors.json")


# ---------------------------------------------------------------------------
# The oracle: the encoder as it was before the fast path (one change: ints
# are formatted with %d, the int-mixin-Enum fix that rode along).
# ---------------------------------------------------------------------------
def oracle_encode(value: Any) -> bytes:
    out = bytearray()
    _oracle_into(value, out)
    return bytes(out)


def _oracle_into(value: Any, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        body = b"%d" % value
        out += b"i%d:" % len(body)
        out += body
    elif isinstance(value, float):
        body = repr(value).encode("ascii")
        out += b"f%d:" % len(body)
        out += body
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out += b"s%d:" % len(body)
        out += body
    elif isinstance(value, (bytes, bytearray)):
        out += b"b%d:" % len(value)
        out += bytes(value)
    elif isinstance(value, Mapping):
        items = []
        for key in value:
            if not isinstance(key, str):
                raise SerializationError(
                    f"mapping keys must be str, got {type(key).__name__}"
                )
            items.append(key)
        items.sort()
        out += b"d%d:" % len(items)
        for key in items:
            _oracle_into(key, out)
            _oracle_into(value[key], out)
        out += b"e"
    elif isinstance(value, Sequence):
        out += b"l%d:" % len(value)
        for item in value:
            _oracle_into(item, out)
        out += b"e"
    else:
        cached = getattr(value, "_canonical_cache", None)
        if type(cached) is bytes:
            out += cached
            return
        to_canonical = getattr(value, "to_canonical", None)
        if callable(to_canonical):
            _oracle_into(to_canonical(), out)
            return
        raise SerializationError(
            f"cannot canonically encode {type(value).__name__}"
        )


# ---------------------------------------------------------------------------
# (a) fast path == oracle
# ---------------------------------------------------------------------------
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 40


class Wraps:
    def __init__(self, inner):
        self.inner = inner

    def to_canonical(self):
        return {"wrapped": self.inner}


class NotEncodable:
    pass


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 40), max_value=10 ** 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan"),
                     1e16, 1e-7, 5e-324]),
    st.text(max_size=20),
    st.text(alphabet="\U0001d11e\U0001f600é\x00z", max_size=6),
    st.binary(max_size=20),
    st.binary(max_size=8).map(bytearray),
    st.sampled_from(list(TxKind)),
    st.sampled_from(list(Level)),
)
keys = st.one_of(st.text(max_size=8),
                 st.text(alphabet="_a\U0001d11eé", max_size=4))


def _containers(inner):
    plain = st.dictionaries(keys, inner, max_size=5)
    items = st.lists(inner, max_size=5)
    return st.one_of(
        items,
        items.map(tuple),
        items.map(UserList),
        plain,
        plain.map(lambda d: OrderedDict(reversed(list(d.items())))),
        plain.map(MappingProxyType),
        plain.map(UserDict),
        inner.map(Wraps),
        inner.map(lambda v: Pinned(oracle_encode(v))),
    )


encodable = st.recursive(scalars, _containers, max_leaves=25)
# The same trees with something unencodable somewhere inside.
poison = st.one_of(
    st.just(NotEncodable()),
    st.just({1, 2}),
    st.just({1: "int key"}),
    st.just({"ok": 1, 2.5: "float key"}),
    st.just({b"bytes": "key"}),
    st.just(OrderedDict([(None, 1)])),
)
unencodable = st.recursive(
    poison,
    lambda inner: st.one_of(
        st.tuples(encodable, inner).map(list),
        st.tuples(keys, inner).map(lambda kv: {"a": 1, kv[0]: kv[1]}),
        inner.map(Wraps),
    ),
    max_leaves=4,
)


class TestFastPathMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(encodable)
    def test_same_bytes(self, value):
        assert canonical_encode(value) == oracle_encode(value)

    @settings(max_examples=100, deadline=None)
    @given(unencodable)
    def test_same_rejections(self, value):
        with pytest.raises(SerializationError):
            oracle_encode(value)
        with pytest.raises(SerializationError):
            canonical_encode(value)

    def test_int_mixin_enum_encodes_as_its_number(self):
        # str() of a plain (int, Enum) member is "E.A", which is what
        # the encoder used to write as the integer's body.
        class E(int, enum.Enum):
            A = 7

        assert canonical_encode(E.A) == b"i1:7"
        assert canonical_encode(Level.HIGH) == b"i2:40"
        assert canonical_decode(canonical_encode([E.A, Level.LOW])) == [7, 1]

    def test_str_mixin_enum_encodes_as_its_value(self):
        assert canonical_encode(TxKind.DATA) == canonical_encode("data")

    def test_bool_is_not_an_int_on_either_path(self):
        assert canonical_encode([True, 1]) == b"l2:Ti1:1e"

    @settings(max_examples=200, deadline=None)
    @given(encodable)
    def test_strict_decode_inverts(self, value):
        encoded = canonical_encode(value)
        assert canonical_encode(canonical_decode(encoded)) == encoded


# ---------------------------------------------------------------------------
# (b) spliced frames == mapping-path frames
# ---------------------------------------------------------------------------
PAIR = KeyPair.generate("codec-fastpath-signer")


def _body(i: int) -> dict:
    return {"subject": f"t{i % 3}/obj-{i}", "key": f"k{i}",
            "value": {"size": i, "blob": bytes([i % 256]) * (i % 5),
                      "tags": ["a", i]}}


def sealed_signed(i: int) -> Transaction:
    return Transaction(PAIR.address, TxKind.DATA, _body(i), nonce=i,
                       timestamp=100 + i, fee=i).seal().sign_with(PAIR)


def signed_then_sealed(i: int) -> Transaction:
    return Transaction(PAIR.address, TxKind.DATA, _body(i),
                       timestamp=i).sign_with(PAIR).seal()


def sealed_anchor(i: int) -> Transaction:
    return Transaction(
        sender="shard-0-anchor", kind=TxKind.PROVENANCE,
        payload={"anchor_id": f"anchor-x-{i:06d}",
                 "merkle_root": hashlib.sha256(bytes([i])).digest(),
                 "record_count": i, "mode": "batched"},
        timestamp=i,
    ).seal()


def sealed_2pc_leg(i: int) -> Transaction:
    return Transaction(
        sender="xshard-coordinator", kind=TxKind.CROSS_CHAIN,
        payload={"xid": f"x-{i}", "phase": "prepare", "subject": "t1/o",
                 "target": "t2/o", "data": {"size": i}},
        timestamp=i, fee=1,
    ).seal()


def unsealed_signed(i: int) -> Transaction:
    return Transaction(PAIR.address, TxKind.DATA, _body(i),
                       timestamp=i).sign_with(PAIR)


def unsealed_plain(i: int) -> Transaction:
    return Transaction("carol", TxKind.TRANSFER,
                       {"to": "bob", "amount": i})


TX_MAKERS = [sealed_signed, signed_then_sealed, sealed_anchor,
             sealed_2pc_leg, unsealed_signed, unsealed_plain]


def mixed_txs(n: int = 18) -> list[Transaction]:
    return [TX_MAKERS[i % len(TX_MAKERS)](i) for i in range(n)]


def block_mapping(block: Block) -> dict:
    """``encode_block``'s mapping with every transaction in mapping form
    (how blocks were encoded before the splice)."""
    header = block.header
    return {
        "height": header.height,
        "prev_hash": header.prev_hash,
        "merkle_root": header.merkle_root,
        "timestamp": header.timestamp,
        "proposer": header.proposer,
        "consensus_meta": dict(header.consensus_meta),
        "nonce": header.nonce,
        "transactions": [transaction_to_mapping(tx)
                         for tx in block.transactions],
    }


class _StubPool:
    """What ``ProcessRoundEngine._prepare`` asks of a pool; no worker is
    started."""

    n_workers = 1

    @staticmethod
    def epoch(widx: int) -> int:
        return 0


class TestSplicedFrames:
    @pytest.mark.parametrize("make", TX_MAKERS, ids=lambda f: f.__name__)
    def test_embedded_transaction_bytes(self, make):
        tx = make(5)
        embedded = transaction_embedded(tx)
        assert isinstance(embedded, Pinned) == tx.is_sealed
        assert canonical_encode(embedded) \
            == oracle_encode(transaction_to_mapping(tx))

    def test_signature_of_another_type_takes_the_mapping_path(self):
        tx = sealed_signed(1)
        tx.signature = bytearray(tx.signature)
        assert isinstance(transaction_embedded(tx), dict)
        assert canonical_encode(transaction_embedded(tx)) \
            == oracle_encode(transaction_to_mapping(tx))

    def test_block_frame(self):
        block = Block(height=3, prev_hash=b"\x11" * 32,
                      transactions=mixed_txs(), timestamp=9,
                      proposer="shard-0-sealer",
                      consensus_meta={"round": 4, "votes": ["a", "b"]})
        frame = encode_block(block)
        assert frame == oracle_encode(block_mapping(block))
        clone = decode_block(frame, expected_hash=block.block_hash)
        assert encode_block(clone) == frame

    def test_empty_block_frame(self):
        block = Block(height=1, prev_hash=b"\x00" * 32, transactions=[])
        assert encode_block(block) == oracle_encode(block_mapping(block))

    def test_submit_frame(self):
        txs = mixed_txs()
        old = oracle_encode({
            "op": "submit", "seq": 12,
            "txs": [transaction_to_mapping(tx) for tx in txs],
        })
        frame = encode_frame(txs_to_frame_body(txs, 12))
        assert frame[4:] == old
        assert int.from_bytes(frame[:4], "big") == len(old)

    def test_exec_job_frame(self):
        sharded = ShardedChain(n_shards=1, telemetry=Telemetry())
        txs = [tx for tx in mixed_txs(30) if tx.is_sealed]
        assert sharded.submit_many(txs).accepted_total == len(txs)
        shard = sharded.shards[0]
        engine = ProcessRoundEngine(1, None, Telemetry())
        job = engine._prepare(shard, 77, 4, _StubPool())
        assert sum(len(b.transactions) for b in job.blocks) == len(txs)
        body = canonical_decode(job.payload)
        assert body["blocks"] == [oracle_encode(block_mapping(block))
                                  for block in job.blocks]
        body["blocks"] = [Pinned(oracle_encode(frame))
                          for frame in body["blocks"]]
        assert oracle_encode(body) == job.payload

    def test_receipt_frame(self):
        def mapping(receipt, with_output):
            m = {"tx_id": receipt.tx_id, "success": receipt.success,
                 "gas_used": receipt.gas_used,
                 "events": [e.to_canonical() for e in receipt.events]}
            if receipt.error is not None:
                m["error"] = receipt.error
            if receipt.block_height is not None:
                m["block_height"] = receipt.block_height
            if with_output:
                m["output"] = receipt.output
            return m

        events = [Event("stored", "kv", {"key": "k", "n": 1})]
        plain = TransactionReceipt("ab" * 32, True, 7,
                                   output={"v": [1, b"x"]}, events=events,
                                   block_height=4)
        failed = TransactionReceipt("cd" * 32, False, error="boom")
        live = TransactionReceipt("ef" * 32, True, output=NotEncodable())
        assert encode_receipt(plain) == oracle_encode(mapping(plain, True))
        assert encode_receipt(failed) == oracle_encode(mapping(failed, False))
        assert encode_receipt(live) == oracle_encode(mapping(live, False))


# ---------------------------------------------------------------------------
# (c) ingest_records (encode once) == ingest_record (per record)
# ---------------------------------------------------------------------------
def capture_records(n: int) -> list[dict]:
    records = []
    for i in range(n):
        record = {
            "record_id": f"ev-{i:05d}",
            "subject": f"t{i % 7:02d}/obj-{i % 11}",
            "actor": f"t{i % 7:02d}/user-{i % 3}",
            "operation": ("create", "update", "read")[i % 3],
            "timestamp": 1000 + i,
            "size": i * 13,
        }
        if i % 10 == 0:
            record["meta"] = {"tags": ["x", i], "raw": bytes([i % 256])}
        records.append(record)
    return records


def _record_log_bytes(sharded: ShardedChain) -> list[dict[str, bytes]]:
    per_shard = []
    for shard in sharded.shards:
        root = shard.storage.record_log.directory
        files = {}
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as fh:
                files[name] = fh.read()
        per_shard.append(files)
    return per_shard


class TestRecordsEncodedOnce:
    def test_batched_ingest_commits_what_per_record_ingest_commits(
            self, tmp_path):
        records = capture_records(300)
        batched = ShardedChain(n_shards=3, anchor_batch_size=16,
                               storage_dir=str(tmp_path / "batched"),
                               telemetry=Telemetry())
        single = ShardedChain(n_shards=3, anchor_batch_size=16,
                              storage_dir=str(tmp_path / "single"),
                              telemetry=Telemetry())
        snapshot = [dict(r) for r in records]
        flushed = batched.ingest_records(records)
        assert records == snapshot          # the caller's dicts are its own
        one_by_one: dict[int, list] = {}
        for record in records:
            shard_id, receipt = single.ingest_record(record)
            if receipt is not None:
                one_by_one.setdefault(shard_id, []).append(receipt)
        assert flushed == one_by_one
        assert flushed                      # batches did flush
        for sharded in (batched, single):
            sharded.flush_anchors()
            sharded.seal_round(timestamp=5000)
        for a, b in zip(batched.shards, single.shards):
            assert a.anchor.receipts == b.anchor.receipts
            assert a.anchor.anchored_count == b.anchor.anchored_count
            for record in records:
                rid = record["record_id"]
                assert a.anchor.is_anchored(rid) == b.anchor.is_anchored(rid)
                if a.anchor.is_anchored(rid):
                    assert a.anchor.prove(rid) == b.anchor.prove(rid)
            assert a.chain.head.block_hash == b.chain.head.block_hash
        for record in records:
            shard = batched.shard_for_subject(record["subject"])
            proof = shard.anchor.prove(record["record_id"])
            assert proof.merkle_proof.root_from(
                leaf_hash(record_digest(record))) == proof.merkle_root
            assert shard.database.get(record["record_id"]) == record
        assert batched.beacon.chain.head.header \
            == single.beacon.chain.head.header
        assert batched.beacon.chain.head.block_hash \
            == single.beacon.chain.head.block_hash
        for sharded in (batched, single):
            sharded.close()
        assert _record_log_bytes(batched) == _record_log_bytes(single)

    def test_record_with_anchor_annotation_is_digested_without_it(self):
        # The shared bytes cover the whole record; the digest must not.
        sharded = ShardedChain(n_shards=1, telemetry=Telemetry())
        record = dict(capture_records(1)[0], anchor={"anchor_id": "old"})
        sharded.ingest_records([record])
        # A batch of one: its Merkle root is the leaf hash of the digest.
        [receipt] = sharded.flush_anchors().values()
        digest = record_digest(record)
        assert receipt.merkle_root == leaf_hash(digest)
        assert digest == record_digest(record, encode_record(record))
        plain = capture_records(1)[0]
        assert record_digest(plain, encode_record(plain)) \
            == record_digest(plain)
        assert digest != hashlib.sha256(
            b"\x04" + encode_record(record)).digest()

    def test_ingested_records_do_not_alias_the_callers(self, tmp_path):
        sharded = ShardedChain(n_shards=1, storage_dir=str(tmp_path),
                               telemetry=Telemetry())
        record = capture_records(1)[0]
        sharded.ingest_records([record])
        record["size"] = -1
        stored = sharded.shards[0].database.get(record["record_id"])
        assert stored["size"] == 0
        stored["size"] = -2
        assert sharded.shards[0].database.get(
            record["record_id"])["size"] == 0
        sharded.close()


# ---------------------------------------------------------------------------
# (d) decoder on arbitrary bytes: reject, or round-trip exactly
# ---------------------------------------------------------------------------
def _decodes_or_rejects(data: bytes) -> None:
    try:
        value = canonical_decode(data)
    except SerializationError:
        return
    assert canonical_encode(value) == data


def mutate(draw, encoded: bytes) -> bytes:
    """One to three byte-level edits of ``encoded``."""
    data = bytearray(encoded)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "drop", "insert", "swap")))
        if not data:
            break
        at = draw(st.integers(0, len(data) - 1))
        if op == "flip":
            data[at] = draw(st.integers(0, 255))
        elif op == "drop":
            del data[at]
        elif op == "insert":
            data.insert(at, draw(st.sampled_from(b"0123456789:-+_ sidlbfeNTF")))
        else:
            other = draw(st.integers(0, len(data) - 1))
            data[at], data[other] = data[other], data[at]
    return bytes(data)


@st.composite
def mutated_encodings(draw):
    return mutate(draw, canonical_encode(draw(encodable)))


class TestDecoderFailsClosed:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        _decodes_or_rejects(data)

    @settings(max_examples=500, deadline=None)
    @given(mutated_encodings())
    def test_mutated_encodings(self, data):
        _decodes_or_rejects(data)

    @pytest.mark.parametrize("data", [
        b"s2:\xff\xfe", b"s3:\xed\xa0\x80", b"s2:\xc0\x80",     # bad UTF-8
        b"i3:E.A", b"i0:", b"i1:-", b"f3:abc", b"f0:",
        b"i2:07", b"i2:+5", b"i3:1_0", b"i2:-0", b"i2: 5", b"i2:5\n",
        b"f3:1e3", b"f1:1", b"f3:NaN", b"f4:+1.0", b"f4:1.0 ",
        b"s01:a", b"i02:07", b"s+1:a", b"s 1:a", b"l1_0:",
        b"d2:s1:bNs1:aNe", b"d2:s1:aNs1:aTe", b"d1:i1:1Ne", b"d1:b1:aNe",
        b"l1:N", b"l2:Ne", b"d1:s1:ae", b"Z", b"e", b"",
        b"i" + b"5000:" + b"9" * 5000,
    ])
    def test_rejected_spellings(self, data):
        with pytest.raises(SerializationError):
            canonical_decode(data)

    def test_nesting_is_bounded(self):
        def nested(depth):
            return b"l1:" * depth + b"N" + b"e" * depth

        assert canonical_decode(nested(MAX_DEPTH)) is not None
        with pytest.raises(SerializationError):
            canonical_decode(nested(MAX_DEPTH + 1))
        with pytest.raises(SerializationError):
            canonical_decode(b"l1:" * 5000 + b"N" + b"e" * 5000)
        with pytest.raises(SerializationError):
            canonical_decode(b"d1:s1:a" * 5000)


# ---------------------------------------------------------------------------
# Golden vectors
# ---------------------------------------------------------------------------
def golden_frames() -> dict:
    """The three stored frame kinds, built from fixed inputs."""
    pair = KeyPair.generate("golden-signer")
    txs = [
        Transaction(pair.address, TxKind.DATA,
                    {"subject": "t1/obj-1", "key": "t1/obj-1#7",
                     "operation": "update",
                     "value": {"size": 512, "tool": "capture/v1", "seq": 7}},
                    timestamp=7).seal().sign_with(pair),
        Transaction("shard-0-anchor", TxKind.PROVENANCE,
                    {"anchor_id": "anchor-golden-000000",
                     "merkle_root": hashlib.sha256(b"golden").digest(),
                     "record_count": 2, "mode": "batched"},
                    timestamp=7).seal(),
        Transaction("carol", TxKind.TRANSFER, {"to": "bob", "amount": 3},
                    nonce=1, fee=2),
    ]
    block = Block(height=2, prev_hash=hashlib.sha256(b"prev").digest(),
                  transactions=txs, timestamp=8, proposer="shard-0-sealer",
                  consensus_meta={"round": 1})
    record = {"record_id": "ev-00000007", "subject": "t1/obj-1",
              "actor": "t1/user-0", "operation": "update", "timestamp": 7,
              "tx_id": txs[0].tx_id, "size": 512}
    receipt = TransactionReceipt(
        txs[0].tx_id, True, gas_used=21, output={"stored": ["k", 1]},
        events=[Event("stored", "kv", {"key": "t1/obj-1#7"})],
        block_height=2)
    block_frame = encode_block(block)
    record_frame = encode_record(record)
    receipt_frame = encode_receipt(receipt)
    return {
        "block": {"hex": block_frame.hex(),
                  "hash": block.block_hash.hex()},
        "record": {"hex": record_frame.hex(),
                   "hash": record_digest(record).hex()},
        "receipt": {"hex": receipt_frame.hex(),
                    "hash": hashlib.sha256(receipt_frame).hexdigest()},
    }


class TestGoldenVectors:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)

    def test_values(self, golden):
        assert len(golden["values"]) >= 30
        for literal, expected in golden["values"]:
            value = ast.literal_eval(literal)
            encoded = canonical_encode(value)
            assert encoded.hex() == expected, literal
            decoded = canonical_decode(encoded)
            assert canonical_encode(decoded) == encoded, literal
            if not _has_nan(value):
                assert decoded == _as_decoded(value), literal

    def test_frames(self, golden):
        assert golden_frames() == golden["frames"]

    def test_frames_decode_back(self, golden):
        frames = golden["frames"]
        block = decode_block(bytes.fromhex(frames["block"]["hex"]),
                             bytes.fromhex(frames["block"]["hash"]))
        assert [tx.is_sealed for tx in block.transactions] \
            == [True, True, False]
        assert block.transactions[0].verify_signature()
        record = canonical_decode(bytes.fromhex(frames["record"]["hex"]))
        assert record_digest(record).hex() == frames["record"]["hash"]


def _has_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        return any(_has_nan(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_nan(v) for v in value)
    return False


def _as_decoded(value):
    """Tuples come back as lists."""
    if isinstance(value, dict):
        return {k: _as_decoded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_decoded(v) for v in value]
    return value
