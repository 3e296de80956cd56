"""A transaction's bytes are walked once per side, and stay the same bytes.

Three mechanisms, each checked against what it replaced:

(a) the encoder's *shape plan* produces the ladder oracle's bytes for every
    mapping, and key sets chosen by a peer cannot grow its table;
(b) ``Transaction.seal()`` writes the signing body from a fixed template —
    same bytes as ``canonical_encode(signing_body())``, one generic encode
    (the payload) per seal, dataclass surface and cache discipline as
    before;
(c) ``decode_frame`` pins the slice a sealed transaction was decoded from.
    The parent commit's decode -> ``Transaction()`` -> ``seal()`` re-encode
    path is kept *here*, as the oracle: over generated and mutated block /
    submit / sync-offer / exec-job frames the pinned transaction equals the
    re-encoded one, or neither is built.

``tests/golden/parent_store.tar.gz`` is a small durable store written by
:func:`build_golden_store` on commit 670a556 (manifest in
``parent_store.json``; both written by ``PYTHONPATH=src python
tests/test_onepass_codec.py <out dir>`` in a checkout of that commit); it
must reopen to the same hashes.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import hmac
import importlib.util
import json
import os
import random
import sqlite3
import subprocess
import sys
import tarfile
from itertools import islice
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import serialization
from repro.chain import transaction as transaction_module
from repro.chain.block import Block
from repro.chain.transaction import Transaction, TxKind
from repro.crypto import hashing as hashing_module
from repro.crypto import signatures as signatures_module
from repro.crypto.hashing import DOMAIN_TX, hash_bytes
from repro.crypto.signatures import (
    KeyPair,
    PublicKey,
    sign_encoded,
    verify_encoded,
)
from repro.errors import (
    CryptoError,
    InvalidTransaction,
    SealedMutation,
    SerializationError,
    StorageError,
)
from repro.gateway.frames import frame_to_txs, txs_to_frame_body
from repro.ingest import IngestPipeline
from repro.obs.runtime import Telemetry
from repro.persist import codec as codec_module
from repro.persist.codec import (
    canonical_decode,
    decode_block,
    decode_frame,
    encode_block,
    transaction_embedded,
    transaction_from_mapping,
    transaction_to_mapping,
)
from repro.persist.durable import DurableStorage
from repro.rpc import decode_frame_payload
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain
from repro.workloads import MultiTenantShardWorkload, ShardOp, ZipfSampler

if __name__ == "__main__":      # run as a script: write the fixture
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    __package__ = "tests"

from .test_codec_fastpath import (
    mixed_txs,
    mutate,
    oracle_encode,
    sealed_signed,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
PAIR = KeyPair.generate("onepass-signer")


# ---------------------------------------------------------------------------
# (a) shape plan
# ---------------------------------------------------------------------------
@pytest.fixture
def plans():
    """The process-wide plan table, emptied for the test and restored."""
    table = serialization._PLANS
    saved = dict(table)
    table.clear()
    yield table
    table.clear()
    table.update(saved)


class StrKey(str):
    pass


class TestShapePlan:
    def test_planned_mapping_encodes_like_the_ladder(self, plans):
        value = {"b": 1, "a": [1, {"z": None, "y": b"x"}], "é": "é"}
        first = canonical_encode(value)
        assert tuple(value) in plans
        assert canonical_encode(value) == first == oracle_encode(value)
        # Same keys, another insertion order: its own plan, same bytes.
        shuffled = {key: value[key] for key in ("é", "a", "b")}
        assert canonical_encode(shuffled) == first
        assert canonical_encode(MappingProxyType(shuffled)) == first

    def test_ten_thousand_peer_shapes_leave_the_table_at_its_cap(self, plans):
        cap = serialization._PLAN_CAP
        for i in range(10_000):
            value = {f"peer-key-{i}": i, "record_id": f"r{i}",
                     "nested": {f"inner-{i}": [i]}}
            assert canonical_encode(value) == oracle_encode(value)
        assert len(plans) == cap
        # Past the cap nothing is added, hits and misses give the same
        # bytes, and a planned shape stays planned.
        planned = next(iter(plans))
        fresh = {"never": 1, "seen": 2}
        assert canonical_encode(fresh) == oracle_encode(fresh)
        assert canonical_encode(dict.fromkeys(planned, 7)) \
            == oracle_encode(dict.fromkeys(planned, 7))
        assert len(plans) == cap and tuple(fresh) not in plans

    def test_ingest_records_with_peer_chosen_keys(self, plans):
        sharded = ShardedChain(n_shards=2, anchor_batch_size=64,
                               telemetry=Telemetry())
        records = [{"record_id": f"ev-{i:05d}",
                    "subject": f"t{i % 5}/obj-{i % 7}",
                    "timestamp": i, f"x-{i}": {"v": i, f"y-{i}": None}}
                   for i in range(10_000)]
        sharded.ingest_records(records)
        assert len(plans) <= serialization._PLAN_CAP
        for record in records[::997]:
            shard = sharded.shard_for_subject(record["subject"])
            assert shard.database.get(record["record_id"]) == record
            assert canonical_encode(record) == oracle_encode(record)

    def test_wide_mappings_are_not_planned(self, plans):
        wide = {f"k{i:03d}": i
                for i in range(serialization._PLAN_MAX_KEYS + 1)}
        assert canonical_encode(wide) == oracle_encode(wide)
        assert not plans

    def test_str_subclass_keys_behave_as_before(self, plans):
        value = {StrKey("b"): 1, "a": 2, TxKind.DATA: 3}
        assert canonical_encode(value) == oracle_encode(value)
        assert not plans                    # only exact-str shapes plan
        exact = {"b": 1, "a": 2}
        canonical_encode(exact)
        assert canonical_encode({StrKey("b"): 1, StrKey("a"): 2}) \
            == oracle_encode(exact)

    @pytest.mark.parametrize("value", [
        {1: "x"}, {"a": 1, 2: "x"}, {b"k": 1}, {None: 1}, {("a",): 1},
        MappingProxyType({"a": 1, 2.5: "x"}),
    ])
    def test_non_str_keys_raise_as_before(self, plans, value):
        with pytest.raises(SerializationError, match="mapping keys must"):
            canonical_encode(value)
        with pytest.raises(SerializationError, match="mapping keys must"):
            oracle_encode(value)
        assert not plans

    def test_fixed_shapes_the_system_writes_get_planned(self, plans):
        tx = sealed_signed(3)
        encode_block(Block(height=1, prev_hash=b"\x00" * 32,
                           transactions=[tx], timestamp=1))
        assert tuple(tx.payload) in plans
        assert any("merkle_root" in shape for shape in plans)


# ---------------------------------------------------------------------------
# (b) one-pass seal
# ---------------------------------------------------------------------------
plain_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20),
              st.floats(allow_nan=False), st.text(max_size=12),
              st.binary(max_size=12)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)
payloads = st.dictionaries(st.text(max_size=8), plain_values, max_size=5)
odd_fields = st.one_of(st.integers(-5, 10 ** 12), st.floats(allow_nan=False),
                       st.text(max_size=5), st.booleans(), st.none())


edge_ints = st.sampled_from([0, 1, -1, 2 ** 70, False, True])


class ExoticKind:
    """A hand-built kind: no ``TxKind`` member, so no pre-encoded entry."""

    value = "exotic/\u00e9"


class CountingEncoder:
    """Stands in for a module's ``canonical_encode`` name and counts."""

    def __init__(self, monkeypatch, *modules):
        self.calls = 0
        for module in modules:
            monkeypatch.setattr(module, "canonical_encode", self)

    def __call__(self, value):
        self.calls += 1
        return canonical_encode(value)


class TestOnePassSeal:
    @settings(max_examples=200, deadline=None)
    @given(sender=st.one_of(st.text(max_size=10), st.integers()),
           kind=st.sampled_from(list(TxKind)), payload=payloads,
           nonce=odd_fields, timestamp=odd_fields, fee=odd_fields,
           sealed=st.booleans())
    def test_template_bytes_equal_the_generic_encoding(
            self, sender, kind, payload, nonce, timestamp, fee, sealed):
        tx = Transaction(sender, kind, payload, nonce, timestamp, fee)
        if sealed:
            tx.seal()
        expected = oracle_encode(tx.signing_body())
        assert tx._encoded_body() == expected
        assert tx.tx_hash == hash_bytes(expected, DOMAIN_TX)
        assert tx.tx_hash == tx.compute_tx_hash()
        assert tx.tx_id == tx.tx_hash.hex()

    def test_payload_of_another_mapping_or_pair_list_type(self):
        from collections import OrderedDict

        for payload in (OrderedDict(b=1, a=2), [("b", 1), ("a", 2)]):
            tx = Transaction("s", TxKind.DATA, payload)
            assert tx._encoded_body() == oracle_encode(tx.signing_body())
            assert tx.seal()._encoded_body() \
                == oracle_encode(tx.signing_body())
            assert tx.payload == {"a": 2, "b": 1}

    def test_seal_encodes_the_payload_and_nothing_else(self, monkeypatch):
        counter = CountingEncoder(monkeypatch, transaction_module)
        tx = Transaction(PAIR.address, TxKind.DATA,
                         {"subject": "t/o", "value": {"size": 1}},
                         nonce=1, timestamp=2, fee=3)
        tx.seal().sign_with(PAIR)
        assert counter.calls == 1
        tx.tx_hash, tx.tx_id, tx.size_bytes, tx.verify_signature()
        tx.seal()
        assert counter.calls == 1

    @settings(max_examples=200, deadline=None)
    @given(sender=st.sampled_from([PAIR.address, StrKey(PAIR.address),
                                   "émetteur-\u4e2d", StrKey("é"), ""]),
           kind=st.sampled_from(list(TxKind) + [ExoticKind()]),
           payload=payloads,
           nonce=edge_ints, timestamp=edge_ints, fee=edge_ints)
    def test_seal_then_sign_touches_the_same_bytes(
            self, sender, kind, payload, nonce, timestamp, fee):
        tx = Transaction(sender, kind, payload, nonce, timestamp, fee)
        assert tx.seal() is tx and tx.seal() is tx
        expected = oracle_encode(tx.signing_body())
        assert tx._encoded_body() == expected \
            == canonical_encode(tx.signing_body())
        assert tx.tx_hash == tx.compute_tx_hash() \
            == hash_bytes(expected, DOMAIN_TX)
        assert tx.tx_id == tx.tx_hash.hex()
        if sender != PAIR.address:
            with pytest.raises(InvalidTransaction):
                tx.sign_with(PAIR)
            assert tx.signature is None and tx.signer is None
            return
        assert tx.sign_with(PAIR) is tx and tx.signer is PAIR.public
        assert tx.signature == PAIR.sign(tx.signing_body())
        assert tx.verify_signature()
        with pytest.raises(SealedMutation):
            tx.nonce = 7
        tx.signature = bytes([tx.signature[0] ^ 1]) + tx.signature[1:]
        assert not tx.verify_signature()

    def test_only_an_int_zero_is_the_constant_entry(self):
        for zero, spelled in ((0, b"i1:0"), (False, b"F"), (0.0, b"f")):
            tx = Transaction("s", TxKind.DATA, {}, nonce=zero, fee=zero)
            body = tx.seal()._encoded_body()
            assert body == oracle_encode(tx.signing_body())
            assert body.count(b"s3:fee" + spelled) == 1
            assert body.count(b"s5:nonce" + spelled) == 1

    def test_seal_and_sign_hash_twice_and_mac_once(self, monkeypatch):
        """One generic encode (the payload), two sha256 states (the
        transaction hash, the signing digest), one HMAC — and nothing
        more on any later read."""
        encodes = CountingEncoder(monkeypatch, transaction_module,
                                  signatures_module)
        sha256s, hmacs = [], []
        monkeypatch.setattr(hashing_module, "hashlib", SimpleNamespace(
            sha256=lambda *a: sha256s.append(1) or hashlib.sha256(*a)))
        monkeypatch.setattr(signatures_module, "hmac", SimpleNamespace(
            new=lambda *a: hmacs.append(1) or hmac.new(*a),
            compare_digest=hmac.compare_digest))
        tx = Transaction(PAIR.address, TxKind.DATA,
                         {"subject": "t/o", "value": {"size": 1}},
                         timestamp=2)
        tx.seal().sign_with(PAIR)
        assert (encodes.calls, len(sha256s), len(hmacs)) == (1, 2, 1)
        tx.tx_hash, tx.tx_id, tx.size_bytes, tx.seal()
        assert (encodes.calls, len(sha256s), len(hmacs)) == (1, 2, 1)
        monkeypatch.undo()
        assert tx.verify_signature()

    def test_seal_snapshots_the_payload(self):
        payload = {"k": [1]}
        tx = Transaction("s", TxKind.DATA, payload).seal()
        before = tx.tx_hash
        payload["k"] = [2]
        payload["new"] = 1
        assert tx.payload == {"k": [1]} and tx.tx_hash == before
        with pytest.raises(TypeError):
            tx.payload["k"] = 0

    def test_dataclass_surface_is_unchanged(self):
        names = [f.name for f in dataclasses.fields(Transaction)]
        assert names == ["sender", "kind", "payload", "nonce", "timestamp",
                         "fee", "signature", "signer"]
        tx = Transaction("alice", TxKind.TRANSFER, {"to": "bob"}, 1, 2, 3)
        assert (tx.nonce, tx.timestamp, tx.fee) == (1, 2, 3)
        assert tx.signature is None and tx.signer is None
        assert tx == Transaction(sender="alice", kind=TxKind.TRANSFER,
                                 payload={"to": "bob"}, nonce=1,
                                 timestamp=2, fee=3,
                                 signature=b"ignored by ==")
        assert tx != Transaction("alice", TxKind.TRANSFER, {"to": "bob"})
        assert dataclasses.asdict(tx)["payload"] == {"to": "bob"}
        bumped = dataclasses.replace(tx.seal(), nonce=9)
        assert bumped.nonce == 9 and not bumped.is_sealed
        assert bumped.tx_hash != tx.tx_hash
        with pytest.raises(TypeError):
            Transaction("alice")

    def test_assignment_invalidates_until_sealed(self):
        tx = Transaction("alice", TxKind.DATA, {"k": 1})
        first = tx.tx_hash
        tx.fee = 5
        assert tx.tx_hash != first and tx.tx_hash == tx.compute_tx_hash()
        tx.seal()
        with pytest.raises(SealedMutation):
            tx.fee = 6
        with pytest.raises(SealedMutation):
            tx.payload = {}
        tx.signature = b"sig"       # not hash-covered

    @pytest.mark.parametrize("decoded", [False, True])
    def test_swapped_content_is_caught_by_recompute(self, decoded):
        """Content swapped through ``__dict__`` under a sealed
        transaction: the pinned reads keep answering as sealed (there is
        no recompute-every-read mode), ``compute_tx_hash`` tells."""
        tx = Transaction(PAIR.address, TxKind.DATA, {"k": 1}).seal()
        if decoded:
            tx = decode_frame(canonical_encode(
                {"op": "submit", "txs": [transaction_embedded(tx)]}))["txs"][0]
            assert type(tx) is Transaction and tx.is_sealed
        pinned = tx.tx_hash
        assert tx.compute_tx_hash() == pinned
        tx.__dict__["payload"] = MappingProxyType({"k": 2})
        assert tx.tx_hash == pinned and tx.tx_id == pinned.hex()
        assert tx.compute_tx_hash() != pinned
        assert tx.compute_tx_hash() == Transaction(
            PAIR.address, TxKind.DATA, {"k": 2}).tx_hash


# ---------------------------------------------------------------------------
# (c) slice-pinning decode vs the re-encode oracle
# ---------------------------------------------------------------------------
REJECTED = (SerializationError, StorageError, KeyError, TypeError,
            ValueError, AttributeError)


class OracleTx:
    """The parent commit's decode path for one transaction mapping:
    construct from the decoded fields, re-encode at ``seal()``.  Every
    commitment is computed with the ladder oracle, not the code under
    test."""

    def __init__(self, m: dict) -> None:
        self.fields = (m["sender"], TxKind(m["kind"]), m["payload"],
                       m["nonce"], m["timestamp"], m["fee"])
        self.signature = self.signer = None
        if "_sig" in m:
            self.signature = m["_sig"]
            self.signer = PublicKey(m["_signer"])
        self.sealed = bool(m.get("_sealed"))
        payload = dict(m["payload"]) if self.sealed else m["payload"]
        self.body = oracle_encode({
            "sender": m["sender"], "kind": TxKind(m["kind"]).value,
            "payload": dict(payload), "nonce": m["nonce"],
            "timestamp": m["timestamp"], "fee": m["fee"],
        })
        self.tx_hash = hashlib.sha256(DOMAIN_TX + self.body).digest()

    def verdict(self):
        if self.signature is None or self.signer is None \
                or self.signer.address != self.fields[0]:
            return False
        return _verdict(verify_encoded, self.body, self.signature,
                        self.signer)

    def wire(self) -> bytes:
        """What the rebuilt transaction would be embedded as."""
        m = {"sender": self.fields[0], "kind": self.fields[1].value,
             "payload": dict(self.fields[2]), "nonce": self.fields[3],
             "timestamp": self.fields[4], "fee": self.fields[5]}
        if self.signature is not None:
            m["_sig"] = self.signature
            m["_signer"] = self.signer.key_bytes
        if self.sealed:
            m["_sealed"] = True
        return oracle_encode(m)

    def faithful_to(self, m: dict) -> bool:
        """Did the slot hold exactly this transaction's wire mapping,
        with byte-typed signature fields?  (The parent also accepted
        look-alikes it silently normalised.)"""
        typed = self.signature is None or (
            type(self.signature) is bytes
            and type(self.signer.key_bytes) is bytes)
        return typed and oracle_encode(m) == self.wire() \
            and (not self.sealed or m["_sealed"] is True)


def _verdict(check, *args):
    """A signature check's outcome; a signer key the simulation has no
    registry entry for (a mutated one) is an outcome too."""
    try:
        return check(*args)
    except CryptoError:
        return "unknown key"


def assert_same_transaction(tx: Transaction, oracle: OracleTx) -> None:
    assert tx.is_sealed == oracle.sealed
    assert tx._encoded_body() == oracle.body
    assert tx.tx_hash == oracle.tx_hash
    assert tx.tx_id == oracle.tx_hash.hex()
    assert tx.compute_tx_hash() == oracle.tx_hash
    assert _verdict(tx.verify_signature) == oracle.verdict()
    assert tx.signature == oracle.signature and tx.signer == oracle.signer
    assert canonical_encode(transaction_embedded(tx)) == oracle.wire()
    if tx.is_sealed:
        assert tx._canonical_cache == oracle.body
        assert type(tx.payload) is MappingProxyType


def _slots(kind: str, value) -> list:
    """Where a frame of ``kind`` carries transactions."""
    if kind == "block":
        return list(value["transactions"])
    if kind == "submit":
        return list(value["txs"])
    if kind == "offer":
        return [value["bundle"]["anchor_tx"]]
    raise AssertionError(kind)


def check_frame(kind: str, frame: bytes) -> bool:
    """The property; returns whether the frame was accepted."""
    if kind == "job":
        try:
            frames = canonical_decode(frame)["blocks"]
            assert isinstance(frames, list)
        except REJECTED + (AssertionError,):
            return False
        return all([isinstance(f, bytes) and check_frame("block", f)
                    for f in frames])
    try:
        new = [transaction_from_mapping(slot)
               for slot in _slots(kind, decode_frame(frame))]
    except REJECTED:
        new = None
    try:
        slots = _slots(kind, canonical_decode(frame))
        old = [OracleTx(slot) for slot in slots]
    except REJECTED:
        old = None
    if new is None:
        # Refused: the parent refused it too, or built a transaction the
        # frame did not actually spell.
        assert old is None or not all(
            o.faithful_to(slot) for o, slot in zip(old, slots))
        return False
    assert old is not None and len(new) == len(old)
    for tx, oracle in zip(new, old):
        assert_same_transaction(tx, oracle)
    return True


@st.composite
def transactions(draw):
    signed = draw(st.booleans())
    pair = PAIR if signed else None
    payload = draw(payloads)
    if draw(st.booleans()):
        # A payload that holds something shaped like a sealed
        # transaction: data there, never a Transaction.
        payload = dict(payload, inner=transaction_to_mapping(
            sealed_signed(draw(st.integers(0, 5)))))
    tx = Transaction(
        pair.address if signed else draw(st.text(max_size=8)),
        draw(st.sampled_from(list(TxKind))), payload,
        nonce=draw(st.integers(0, 10 ** 6)),
        timestamp=draw(st.integers(0, 10 ** 12)),
        fee=draw(st.integers(0, 10 ** 4)))
    order = draw(st.sampled_from(("seal-sign", "sign-seal", "open")))
    if order == "seal-sign":
        tx.seal()
    if signed:
        tx.sign_with(pair)
    if order == "sign-seal":
        tx.seal()
    return tx


def _block_frame(txs, height=3) -> bytes:
    return encode_block(Block(
        height=height, prev_hash=hashlib.sha256(b"p%d" % height).digest(),
        transactions=txs, timestamp=height, proposer="shard-0-sealer",
        consensus_meta={"round": height}))


@st.composite
def frames(draw):
    kind = draw(st.sampled_from(("block", "submit", "offer", "job")))
    txs = draw(st.lists(transactions(), min_size=1, max_size=4))
    if kind == "block":
        return kind, _block_frame(txs)
    if kind == "submit":
        return kind, canonical_encode(txs_to_frame_body(txs, 4))
    if kind == "offer":
        return kind, canonical_encode({
            "op": "sync/offer", "seq": 1, "final": True, "head_height": 3,
            "bundle": {"anchor_tx": transaction_embedded(txs[0]),
                       "shard_proof": {"shard_id": 0, "leaf_index": 1},
                       "tx_proof": {"path": [[b"\x01" * 32, True]]}},
        })
    return kind, canonical_encode({
        "kind": "exec", "chain": "shard-0", "base_height": 2,
        "blocks": [_block_frame(txs[:2], 3), _block_frame(txs[2:], 4)],
    })


@st.composite
def mutated_frames(draw):
    kind, frame = draw(frames())
    return kind, mutate(draw, frame)


class TestPinnedSliceEqualsReencode:
    @settings(max_examples=150, deadline=None)
    @given(frames())
    def test_generated_frames(self, kind_frame):
        assert check_frame(*kind_frame)

    @settings(max_examples=600, deadline=None)
    @given(mutated_frames())
    def test_mutated_frames(self, kind_frame):
        check_frame(*kind_frame)

    def test_look_alikes_the_parent_normalised_are_refused(self):
        tx = sealed_signed(2)
        good = transaction_to_mapping(tx)
        assert transaction_from_mapping(dict(good)).tx_hash == tx.tx_hash
        for bad in (
            dict(good, extra=1),                        # a tenth key
            dict(good, _sealed=1),                      # truthy, not True
            dict(good, payload=[["ab", "cd"]]),         # dict() would eat it
            dict(good, kind="no-such-kind"),
            {k: v for k, v in good.items() if k != "_signer"},
            {k: v for k, v in good.items() if k != "fee"},
        ):
            frame = canonical_encode({"op": "submit", "seq": 1,
                                      "txs": [bad]})
            slot = decode_frame(frame)["txs"][0]
            assert type(slot) is dict
            with pytest.raises(REJECTED):
                transaction_from_mapping(slot)
            assert not check_frame("submit", frame)

    def test_sealed_shape_is_data_everywhere_but_the_transaction_slot(self):
        inner = transaction_to_mapping(sealed_signed(1))
        for value in (
            inner,                                      # depth 0
            {"record_id": "r", "meta": inner},          # depth 1
            {"a": {"b": {"c": inner}}},                 # depth 3
            {"txs": [[inner]]},                         # depth 3, in lists
        ):
            encoded = canonical_encode(value)
            assert decode_frame(encoded) == canonical_decode(encoded)
        outer = Transaction("s", TxKind.DATA, {"inner": inner, "n": [inner]})
        for tx in (outer, dataclasses.replace(outer).seal()):
            frame = canonical_encode(txs_to_frame_body([tx], 1))
            got = frame_to_txs(decode_frame_payload(frame))[0]
            assert got.payload["inner"] == inner
            assert type(got.payload["inner"]) is dict
            assert got.tx_hash == tx.tx_hash == got.compute_tx_hash()
        # canonical_decode / decode_at never build transactions at all.
        frame = canonical_encode(txs_to_frame_body([sealed_signed(1)], 1))
        assert type(canonical_decode(frame)["txs"][0]) is dict
        assert type(decode_frame(frame)["txs"][0]) is Transaction

    def test_no_encode_while_frames_rebuild_sealed_transactions(
            self, monkeypatch):
        txs = [tx for tx in mixed_txs(24) if tx.is_sealed]
        block = Block(height=2, prev_hash=b"\x22" * 32, transactions=txs,
                      timestamp=5)
        block_frame = encode_block(block)
        submit = canonical_encode(txs_to_frame_body(txs, 9))
        counter = CountingEncoder(monkeypatch, codec_module,
                                  transaction_module)
        clone = decode_block(block_frame, expected_hash=block.block_hash)
        rebuilt = frame_to_txs(decode_frame_payload(submit))
        for got in (clone.transactions, rebuilt):
            assert [tx.tx_id for tx in got] == [tx.tx_id for tx in txs]
            assert all(tx.is_sealed for tx in got)
            assert [tx.verify_signature() for tx in got] \
                == [tx.verify_signature() for tx in txs]
        assert counter.calls == 0
        # ...and none to embed them again (relay, re-store, exec job).
        assert encode_block(clone) == block_frame
        assert counter.calls == 1           # the block mapping itself

    def test_flipped_byte_in_a_stored_block_frame_is_caught(self):
        txs = mixed_txs(6)
        block = Block(height=4, prev_hash=b"\x44" * 32, transactions=txs,
                      timestamp=11, proposer="shard-1-sealer",
                      consensus_meta={"round": 2})
        frame = encode_block(block)
        hashed = bytearray(len(frame))      # 1 = covered by a tx hash
        for tx in txs:
            if tx.is_sealed:
                entries = tx._encoded_body()[3:-1]
                at = frame.index(entries)
                hashed[at:at + len(entries)] = b"\x01" * len(entries)
        assert sum(hashed) > len(frame) // 3
        ids = [tx.tx_id for tx in txs]
        survivors = 0
        for at in range(len(frame)):
            for mask in (0x01, 0x20, 0xFF):
                bad = bytearray(frame)
                bad[at] ^= mask
                try:
                    got = decode_block(bytes(bad),
                                       expected_hash=block.block_hash)
                except REJECTED:
                    continue
                # Only bytes no hash covers (seal flag, signature, signer
                # key) can change without the Merkle / indexed-hash check
                # firing, exactly as before.
                survivors += 1
                assert not hashed[at]
                assert got.block_hash == block.block_hash
                assert [tx.tx_id for tx in got.transactions] == ids
                assert [tx.compute_tx_hash() for tx in got.transactions] \
                    == [tx.tx_hash for tx in txs]
        assert survivors < len(frame)

    def test_sync_offer_anchor_is_pinned(self):
        from repro.sync.codec import bundle_from_mapping, bundle_to_mapping

        sharded = ShardedChain(n_shards=1, anchor_batch_size=2,
                               telemetry=Telemetry())
        sharded.ingest_records([
            {"record_id": f"r{i}", "subject": "t/o", "timestamp": i}
            for i in range(2)])
        sharded.seal_round(timestamp=5)
        head = sharded.shards[0].chain.head
        bundle = sharded.beacon.light_bundle(0, head.height, head.block_hash)
        reply = canonical_encode({"op": "sync/offer", "seq": 1,
                                  "bundle": bundle_to_mapping(bundle)})
        slot = decode_frame_payload(reply)["bundle"]
        assert type(slot["anchor_tx"]) is Transaction
        rebuilt = bundle_from_mapping(slot)
        assert rebuilt.anchor_tx is slot["anchor_tx"]
        assert rebuilt.anchor_tx.tx_hash == bundle.anchor_tx.tx_hash
        assert rebuilt.verify(sharded.beacon.chain.block_at(
            rebuilt.shard_proof.beacon_height).header)


# ---------------------------------------------------------------------------
# (d) the verified-signature mark vs the mark-free oracle
# ---------------------------------------------------------------------------
OTHER = KeyPair.generate("onepass-other-signer")
# A key with PAIR's address (an address is a key's first 20 bytes) that
# the simulation's registry has never seen.
STRANGER = PublicKey(PAIR.public.key_bytes[:20] + bytes(12))
DONOR = Transaction(PAIR.address, TxKind.DATA,
                    {"key": "m", "value": 2}).seal().sign_with(PAIR)
SIGNATURES = {
    "own": lambda tx: sign_encoded(tx._encoded_body(), PAIR.private),
    "another key's": lambda tx: sign_encoded(tx._encoded_body(),
                                             OTHER.private),
    "another transaction's": lambda tx: DONOR.signature,
    "none": lambda tx: None,
}
SIGNERS = {"sender": PAIR.public, "not the sender": OTHER.public,
           "unregistered": STRANGER, "none": None}
FIELD_VALUES = {"fee": 7, "nonce": 3, "timestamp": 11,
                "payload": {"key": "m", "value": 9}, "sender": OTHER.address}

mark_steps = st.one_of(
    st.sampled_from([("sign",), ("seal",), ("decode",), ("copy",)]),
    st.tuples(st.just("signature"), st.sampled_from(sorted(SIGNATURES))),
    st.tuples(st.just("signer"), st.sampled_from(sorted(SIGNERS))),
    st.tuples(st.just("field"), st.sampled_from(sorted(FIELD_VALUES))),
)


def mark_free_verdict(tx: Transaction):
    """What ``verify_signature`` answered before any verdict was kept."""
    if tx.signature is None or tx.signer is None \
            or tx.signer.address != tx.sender:
        return False
    return _verdict(verify_encoded, tx._encoded_body(), tx.signature,
                    tx.signer)


def apply_mark_step(tx: Transaction, step: tuple) -> Transaction:
    """One step of a transaction's life; returns the object that lives
    on (a decode or a copy is a new one)."""
    op = step[0]
    if op == "sign":
        if tx.sender == PAIR.address:
            tx.sign_with(PAIR)
        else:
            with pytest.raises(InvalidTransaction):
                tx.sign_with(PAIR)
    elif op == "seal":
        tx.seal()
    elif op == "decode":
        slot = decode_frame(canonical_encode(
            {"op": "submit", "txs": [transaction_embedded(tx)]}))["txs"][0]
        decoded = transaction_from_mapping(slot)
        assert decoded is not tx and "_verified" not in decoded.__dict__
        return decoded
    elif op == "copy":
        return copy.copy(tx)
    elif op == "signature":
        tx.signature = SIGNATURES[step[1]](tx)
    elif op == "signer":
        tx.signer = SIGNERS[step[1]]
    elif tx.is_sealed:
        with pytest.raises(SealedMutation):
            setattr(tx, step[1], FIELD_VALUES[step[1]])
    else:
        setattr(tx, step[1], FIELD_VALUES[step[1]])
    return tx


class TestVerdictMark:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(mark_steps, max_size=12))
    # What tests/test_ingest.py::test_verify_signature_memoized held: a
    # re-check says the same, another body's tag does not ride the mark.
    @example([("seal",), ("sign",), ("signature", "another transaction's")])
    # Re-signed and re-assigned under a mark that was true a step ago.
    @example([("seal",), ("sign",), ("signature", "another key's"),
              ("signature", "own"), ("signer", "not the sender"),
              ("signer", "unregistered"), ("signer", "sender"),
              ("signature", "none"), ("sign",), ("copy",), ("decode",)])
    def test_equals_the_mark_free_oracle_after_every_step(self, steps):
        tx = Transaction(PAIR.address, TxKind.DATA, {"key": "m", "value": 1})
        for step in [()] + steps:
            if step:
                tx = apply_mark_step(tx, step)
            expected = mark_free_verdict(tx)
            # Twice: the second answer may come from the mark.
            assert _verdict(tx.verify_signature) == expected, step
            assert _verdict(tx.verify_signature) == expected, step
            # An unsealed transaction is never marked; a sealed one
            # carries the pair that passed (an older pair's mark may
            # linger under a pair that fails: it answers for nothing).
            marked = tx.__dict__.get("_verified")
            assert marked is None or tx.is_sealed, step
            assert (marked == (tx.signature, tx.signer)) \
                == (tx.is_sealed and expected is True), step

    def test_swapped_content_is_outside_the_mark_as_it_was_the_memo(self):
        """The LRU was keyed by the cached ``tx_id``; the mark sits beside
        it.  Neither sees content swapped through ``__dict__`` —
        ``compute_tx_hash`` does."""
        tx = Transaction(PAIR.address, TxKind.DATA,
                         {"k": 1}).seal().sign_with(PAIR)
        assert tx.verify_signature()
        tx.__dict__["payload"] = MappingProxyType({"k": 2})
        assert tx.verify_signature()
        assert tx.compute_tx_hash() != tx.tx_hash

    def test_unregistered_signer_quarantines_that_transaction_only(self):
        batch = [Transaction(PAIR.address, TxKind.DATA,
                             {"key": f"q{i}", "value": i},
                             fee=i).seal().sign_with(PAIR)
                 for i in range(5)]
        batch[2].signer = STRANGER
        sharded = ShardedChain(n_shards=1)
        pipeline = IngestPipeline(sharded, verify_signatures=True)
        pipeline.submit_many(batch)
        pipeline.run_until_drained()
        assert list(pipeline.invalid_txs) == [batch[2]]
        assert sharded.total_txs_committed == 4
        committed = {tx.tx_id for block in sharded.shard(0).chain.blocks
                     for tx in block.transactions}
        assert committed == {tx.tx_id for tx in batch} - {batch[2].tx_id}

    def _counted(self, monkeypatch) -> list:
        """Count verify-side HMACs from here on (signing is done)."""
        made = []

        def counting_new(*args, **kwargs):
            made.append(1)
            return hmac.new(*args, **kwargs)

        monkeypatch.setattr(signatures_module, "hmac", SimpleNamespace(
            new=counting_new, compare_digest=hmac.compare_digest))
        return made

    def test_one_hmac_per_object_along_the_whole_path(self, monkeypatch):
        """Admission -> mempool -> ``append_blocks`` under
        ``require_signatures`` -> audit re-check: N HMACs for N
        transactions, as at the parent; their decoded copies N more."""
        n = 40
        txs = [Transaction(PAIR.address, TxKind.DATA,
                           {"key": f"c{i}", "value": i},
                           fee=i).seal().sign_with(PAIR) for i in range(n)]
        sharded = ShardedChain(n_shards=1, executor="serial")
        sharded.shard(0).chain.params.require_signatures = True
        pipeline = IngestPipeline(sharded, verify_signatures=True)
        signatures_module.reset_cache_stats()
        made = self._counted(monkeypatch)
        pipeline.submit_many(txs)
        pipeline.run_until_drained()
        assert sharded.total_txs_committed == n
        assert all(tx.verify_signature() for tx in txs)
        assert len(made) == n
        stats = signatures_module.cache_stats()["verify_signature"]
        assert stats["misses"] == n and stats["hits"] >= 2 * n
        copies = frame_to_txs(decode_frame(
            canonical_encode(txs_to_frame_body(txs, 1))))
        assert all(tx.verify_signature() for tx in copies)
        assert len(made) == 2 * n

    def test_process_engine_verifies_in_the_worker(self, monkeypatch):
        """The mark does not cross the job frame: the worker checks its
        own decoded copies (its misses come home with the reply), the
        parent computes nothing more than admission did."""
        n = 12
        txs = [Transaction(PAIR.address, TxKind.DATA,
                           {"key": f"w{i}", "value": i},
                           fee=i).seal().sign_with(PAIR) for i in range(n)]
        sharded = ShardedChain(n_shards=1, executor="process",
                               exec_workers=1)
        try:
            sharded.shard(0).chain.params.require_signatures = True
            pipeline = IngestPipeline(sharded, verify_signatures=True)
            signatures_module.reset_cache_stats()
            made = self._counted(monkeypatch)
            pipeline.submit_many(txs)
            pipeline.pump()
            assert len(made) == n
            assert signatures_module.cache_stats()[
                "verify_signature"]["misses"] == n
            pipeline.run_until_drained()
            assert sharded.engine.name == "process"
            assert sharded.total_txs_committed == n
            assert len(made) == n       # nothing more in this process
            assert signatures_module.cache_stats()[
                "verify_signature"]["misses"] == 2 * n
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Stores: what the parent wrote reopens, a fresh open survives a kill
# ---------------------------------------------------------------------------
def open_golden_store(store: str) -> ShardedChain:
    return ShardedChain(n_shards=2, storage_dir=store, anchor_batch_size=4,
                        checkpoint_every_rounds=2, telemetry=Telemetry())


def build_golden_store(store: str) -> None:
    """Six rounds on a durable 2-shard deployment: transactions signed
    by the ``golden-actor-{0,1,2}`` keys and records, then ``close``."""
    signers = [KeyPair.generate(f"golden-actor-{i}") for i in range(3)]
    sharded = open_golden_store(store)
    for r in range(6):
        sharded.submit_many([
            Transaction(signers[i % 3].public.address, TxKind.DATA,
                        {"subject": f"ns{i % 3}/obj{(r + i) % 5}",
                         "key": f"k{r}-{i}", "value": r * 10 + i},
                        nonce=r * 100 + i, timestamp=r
                        ).seal().sign_with(signers[i % 3])
            for i in range(7)])
        sharded.ingest_records([
            {"record_id": f"rec-{r}-{i}", "subject": f"ns{i % 3}/obj{i}",
             "actor": f"golden-actor-{i % 3}", "operation": "write",
             "timestamp": r * 100 + i} for i in range(5)])
        sharded.seal_round(timestamp=r + 1)
    sharded.close()


def write_golden_store(out_dir: str) -> None:
    """Build the store under ``out_dir`` and write the tarball and
    manifest next to it."""
    store = os.path.join(out_dir, "parent_store")
    build_golden_store(store)
    with tarfile.open(os.path.join(out_dir, "parent_store.tar.gz"),
                      "w:gz") as tar:
        tar.add(store, arcname="parent_store")
    sharded = open_golden_store(store)
    shards = []
    for shard in sharded.shards:
        chain = shard.chain
        blocks = [chain.block_at(h) for h in range(chain.height + 1)]
        shards.append({
            "block_hashes": [b.block_hash.hex() for b in blocks],
            "head": chain.head.block_hash.hex(),
            "height": chain.height,
            "records": len(shard.database),
            "state_root": chain.state.state_root().hex(),
            "tx_ids": [tx.tx_id for b in blocks for tx in b.transactions],
        })
    manifest = {
        "beacon_head": sharded.beacon.chain.head.block_hash.hex(),
        "beacon_height": sharded.beacon.chain.height,
        "shards": shards,
        "total_txs": sharded.total_txs_committed,
        "written_by": subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, cwd=os.path.dirname(os.path.abspath(__file__))
        ).stdout.strip() + "; see tests/test_onepass_codec.py",
    }
    sharded.close()
    with open(os.path.join(out_dir, "parent_store.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


class TestStoreOpen:
    def test_store_written_by_the_parent_commit_reopens_unchanged(
            self, tmp_path):
        with open(os.path.join(GOLDEN_DIR, "parent_store.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        with tarfile.open(os.path.join(GOLDEN_DIR,
                                       "parent_store.tar.gz")) as tar:
            tar.extractall(tmp_path, filter="data")
        store = str(tmp_path / "parent_store")
        for i in range(3):      # the writer's signers (simulated registry)
            KeyPair.generate(f"golden-actor-{i}")

        def schema(path):
            conn = sqlite3.connect(path)
            try:
                return conn.execute(
                    "SELECT type, name, sql FROM sqlite_master "
                    "ORDER BY name").fetchall(), conn.execute(
                    "PRAGMA user_version").fetchone()[0]
            finally:
                conn.close()

        indexes = [os.path.join(store, name, "index.db")
                   for name in ("beacon", "shard-0", "shard-1")]
        before = [schema(index) for index in indexes]
        assert {version for _, version in before} == {0}
        sharded = open_golden_store(store)
        try:
            assert sharded.beacon.chain.head.block_hash.hex() \
                == manifest["beacon_head"]
            assert sharded.beacon.chain.height == manifest["beacon_height"]
            assert sharded.total_txs_committed == manifest["total_txs"]
            for shard, want in zip(sharded.shards, manifest["shards"]):
                chain = shard.chain
                assert chain.height == want["height"]
                assert chain.state.state_root().hex() == want["state_root"]
                blocks = [chain.block_at(h)
                          for h in range(chain.height + 1)]
                assert [b.block_hash.hex() for b in blocks] \
                    == want["block_hashes"]
                txs = [tx for b in blocks for tx in b.transactions]
                assert [tx.tx_id for tx in txs] == want["tx_ids"]
                assert all(tx.compute_tx_hash() == tx.tx_hash for tx in txs)
                assert all(tx.verify_signature()
                           for tx in txs if tx.signature is not None)
                assert len(shard.database) == want["records"]
            sharded.verify_all(deep=True)
        finally:
            sharded.close()
        # The open stamps the format and changes no table.
        assert [schema(index) for index in indexes] \
            == [(tables, 3) for tables, _ in before]

    @pytest.mark.parametrize("stage", ["pragmas", "mid-schema"])
    def test_kill_before_the_schema_commits_leaves_a_store_that_reopens(
            self, tmp_path, stage):
        directory = tmp_path / "store"
        directory.mkdir()
        script = (
            "import os, sqlite3, sys\n"
            "conn = sqlite3.connect(sys.argv[1], isolation_level=None)\n"
            "conn.execute('PRAGMA journal_mode=WAL')\n"
            "conn.execute('PRAGMA synchronous=NORMAL')\n"
            "if sys.argv[2] == 'mid-schema':\n"
            "    conn.execute('BEGIN')\n"
            "    conn.execute('CREATE TABLE blocks(height INTEGER "
            "PRIMARY KEY, junk TEXT)')\n"
            "os._exit(9)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script,
             str(directory / "index.db"), stage], timeout=60)
        assert done.returncode == 9
        storage = DurableStorage(str(directory))
        try:
            tables = {row[0] for row in storage._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            assert {"blocks", "cold_blocks", "txs", "receipts", "records",
                    "state_entries", "meta"} <= tables
            for table in ("blocks", "cold_blocks"):
                columns = [row[1] for row in storage._conn.execute(
                    f"PRAGMA table_info({table})")]
                assert columns == ["height", "segment", "offset", "length",
                                   "block_hash"]
            mode = storage._conn.execute("PRAGMA journal_mode").fetchone()
            assert mode[0] == "wal"
            storage.put_meta("k", {"v": 1})
            assert storage.get_meta("k") == {"v": 1}
        finally:
            storage.close()
        reopened = DurableStorage(str(directory))
        try:
            assert reopened.get_meta("k") == {"v": 1}
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# Load generator: same op stream, same RNG consumption
# ---------------------------------------------------------------------------
class ReferenceZipf:
    """``ZipfSampler.sample`` as it was: a hand-rolled bisection."""

    def __init__(self, sampler: ZipfSampler, seed: int) -> None:
        self.n, self._cdf = sampler.n, list(sampler._cdf)
        self.rng = random.Random(seed)

    def sample(self) -> int:
        u = self.rng.random()
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


def reference_generate(workload: MultiTenantShardWorkload, sampler,
                       count: int) -> list[ShardOp]:
    """``MultiTenantShardWorkload.generate`` as it was (weights rebuilt
    inside ``rng.choices`` per op), over ``workload``'s own RNG."""
    rng = workload.rng

    def tenant():
        return f"tenant-{sampler.sample():03d}"

    def subject(name):
        return f"{name}/obj-{rng.randrange(workload.objects_per_tenant):04d}"

    labels = [name for name, _ in workload.OPS]
    weights = [w for _, w in workload.OPS]
    ops = []
    for t in range(count):
        name = tenant()
        subj = subject(name)
        actor = f"agent-{rng.randrange(16):02d}"
        if rng.random() < workload.cross_shard_ratio:
            target = tenant()
            while target == name:
                target = tenant()
            ops.append(ShardOp(
                kind="cross", namespace=name, subject=subj, actor=actor,
                operation="handoff", timestamp=t,
                size=rng.randint(32, 256), target_namespace=target,
                target_subject=subject(target)))
            continue
        ops.append(ShardOp(
            kind="record", namespace=name, subject=subj, actor=actor,
            operation=rng.choices(labels, weights=weights)[0],
            timestamp=t, size=rng.randint(32, 256)))
    return ops


def load_driver_deployment():
    """``benchmarks/e2e/deployment.py`` by path: the benchmark's files are
    not a package and are not edited, so its event construction is the
    fixed point the golden digests below are taken at."""
    path = os.path.join(os.path.dirname(GOLDEN_DIR), os.pardir,
                        "benchmarks", "e2e", "deployment.py")
    spec = importlib.util.spec_from_file_location("e2e_deployment", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def assert_same_stream(k: int, count: int, seed: int, **parameters) -> None:
    """The first ``k`` ops of ``generate(count)`` are the reference's
    ``generate(k)``, and both RNGs are left where the reference leaves
    them."""
    new, old = (MultiTenantShardWorkload(zipf_s=0.85, seed=seed,
                                         **parameters) for _ in range(2))
    reference = ReferenceZipf(old.tenant_sampler, seed + 1)
    assert list(islice(new.generate(count), k)) \
        == reference_generate(old, reference, k)
    assert new.rng.getstate() == old.rng.getstate()
    assert new.tenant_sampler.rng.getstate() == reference.rng.getstate()


class TestLoadGeneratorIsTheSameStream:
    @pytest.mark.parametrize("seed", [7, 8, 11])
    @pytest.mark.parametrize("ratio", [0.0, 0.05])
    def test_op_stream_and_rng_state(self, seed, ratio):
        assert_same_stream(3000, 3000, seed, n_tenants=128,
                           objects_per_tenant=64, cross_shard_ratio=ratio)

    @pytest.mark.parametrize("k", [0, 1, 3000])
    @pytest.mark.parametrize("ratio", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("objects", [64, 33])   # 33: rejection loop
    @pytest.mark.parametrize("tenants", [2, 128])
    def test_every_prefix_of_an_endless_stream(self, k, ratio, objects,
                                               tenants):
        assert_same_stream(k, 10 ** 9, 5, n_tenants=tenants,
                           objects_per_tenant=objects,
                           cross_shard_ratio=ratio)

    def test_the_stream_is_lazy(self):
        workload = MultiTenantShardWorkload(
            n_tenants=128, objects_per_tenant=64, seed=3)
        first = next(workload.generate(10 ** 12))
        assert first == next(MultiTenantShardWorkload(
            n_tenants=128, objects_per_tenant=64, seed=3).generate(1))
        # One op drawn: one subject formatted, not the 8 192 there are.
        assert list(workload._subjects.values()) == [first.subject]

    def test_shard_op_is_the_same_value_type(self):
        op = ShardOp(kind="record", namespace="t", subject="t/o",
                     actor="a", operation="update", timestamp=3)
        assert (op.size, op.target_namespace, op.target_subject) \
            == (64, "", "")
        assert op == ShardOp("record", "t", "t/o", "a", "update", 3, 64)
        assert op != op._replace(size=65) and hash(op) == hash(
            ShardOp("record", "t", "t/o", "a", "update", 3))
        assert op._fields == (
            "kind", "namespace", "subject", "actor", "operation",
            "timestamp", "size", "target_namespace", "target_subject")
        with pytest.raises(AttributeError):
            op.size = 1
        with pytest.raises(ValueError):
            MultiTenantShardWorkload(objects_per_tenant=0)

    @pytest.mark.parametrize("seed,ratio,handoffs,digest", [
        (1, 0.0, 0, "bf07ea095e5d2feb"),
        (7, 0.05, 105, "9f68e335425d8317"),
    ])
    def test_driver_events_are_the_parents(self, seed, ratio, handoffs,
                                           digest):
        """Computed at the parent commit (256b4c5): the benchmark driver's
        own event construction over this stream, every transaction hash,
        signature and handoff."""
        inputs = load_driver_deployment().generate_inputs(seed, 2000, ratio)
        assert len(inputs) == 2000 and len(inputs.handoffs) == handoffs
        h = hashlib.sha256()
        for tx in inputs.txs:
            h.update(tx.tx_hash + tx.signature)
        for position, op in inputs.handoffs:
            h.update(repr((position, op.subject, op.target_subject,
                           op.actor, op.size, op.timestamp)).encode())
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("seed", [7, 8, 11])
    @pytest.mark.parametrize("n,s", [(1, 1.1), (2, 0.0), (128, 0.85),
                                     (6000, 1.1)])
    def test_zipf_sampler(self, seed, n, s):
        sampler = ZipfSampler(n, s=s, seed=seed)
        reference = ReferenceZipf(sampler, seed)
        assert sampler.sample_many(2000) \
            == [reference.sample() for _ in range(2000)]
        assert sampler.rng.getstate() == reference.rng.getstate()


if __name__ == "__main__":
    write_golden_store(sys.argv[1])
