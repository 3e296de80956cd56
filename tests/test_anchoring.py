"""One anchoring mechanism at both levels (``repro.chain.anchoring``),
checked by one verifier (``repro.verify``).

* **Byte identity** — a seeded deployment's anchor and beacon
  transactions, derived rows and federated proofs hash to digests pinned
  at the parent commit, in memory and on disk, before and after a
  reopen; the store the parent wrote still proves every anchored record.
* **Tamper matrix** — one real record → shard → beacon evidence chain,
  each single mutation applied to it, and *every* verifier that reads
  the mutated field must reject it.  A full node and a light client
  check the same proof object, each against a header it holds.  A
  proof's path is read as the leaf it was made for, and its batch
  metadata (size, round number, transaction id) is its anchor
  transaction's.
* **Sealed blocks are final** — a shard suffix rewritten under the
  chain still links, so the chain's own audit passes it; the beacon's
  commitments do not, and ``ShardedChain.verify_all`` refuses it.

Everything here drives public names only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Block, Blockchain, ChainParams, Transaction, TxKind
from repro.errors import (
    AnchorError,
    ChainError,
    ShardError,
    TamperDetected,
)
from repro.persist import MemoryStorage
from repro.persist.durable import DurableStorage
from repro.persist.codec import transaction_embedded
from repro.provenance.anchor import AnchorService, verify_batch_row
from repro.serialization import canonical_encode
from repro.sharding import (
    COMMITTED,
    CrossShardCoordinator,
    ShardedChain,
    ShardedQueryEngine,
)
from repro.sharding.beacon import BeaconChain
from repro.sharding.query import package_federated_proof
from repro.verify import (
    AnchoredProof,
    BeaconLightBundle,
    FederatedProof,
    LightClient,
    ShardBlockProof,
    bundle_to_mapping,
)


def _sha(value) -> str:
    return hashlib.sha256(canonical_encode(value)).hexdigest()


def _proof_mapping(proof) -> dict:
    """Canonical-encodable form of a whole :class:`FederatedProof`."""
    bundle = proof.anchor_bundle
    return {
        "shard_id": proof.shard_id,
        "record_id": proof.record_id,
        "anchor_bundle": {
            "record_proof": dataclasses.asdict(bundle.record_proof),
            "batch_root": bundle.batch_root,
            "anchor_tx": transaction_embedded(bundle.anchor_tx),
            "tx_proof": dataclasses.asdict(bundle.tx_proof),
            "block_height": bundle.block_height,
        },
        "shard_header": proof.shard_header.to_canonical(),
        "beacon_bundle": bundle_to_mapping(proof.beacon_bundle),
    }


# ---------------------------------------------------------------------------
# Byte identity against the parent commit
# ---------------------------------------------------------------------------
IDENTITY_OPTIONS = dict(max_block_txs=16, anchor_batch_size=8,
                        executor="serial")


def _cross_pair(sharded: ShardedChain) -> tuple[str, str]:
    src = "handoff-src/asset"
    home = sharded.router.shard_for_subject(src)
    for j in range(64):
        tgt = f"handoff-tgt-{j}/asset"
        if sharded.router.shard_for_subject(tgt) != home:
            return src, tgt
    raise AssertionError("no cross-shard pair")


def _drive(sharded: ShardedChain) -> list[tuple[str, str]]:
    """12 seeded rounds of transactions + records, one 2PC handoff, a
    final ``flush_anchors``; returns ``(record_id, subject)`` of every
    record that ended up anchored."""
    rng = random.Random(2206)
    coord = CrossShardCoordinator(sharded)
    src, tgt = _cross_pair(sharded)
    transfer = None
    ingested: list[tuple[str, str]] = []
    for r in range(12):
        sharded.submit_many([
            Transaction(f"acct-{rng.randrange(7)}", TxKind.DATA,
                        {"subject": f"ns{rng.randrange(13)}/obj{i % 5}",
                         "key": f"k{r}-{i}", "value": rng.randrange(1000)},
                        nonce=r * 1000 + i, timestamp=r).seal()
            for i in range(rng.randrange(5, 30))])
        records = [{"record_id": f"rec-{r:02d}-{i:03d}",
                    "subject": f"ns{rng.randrange(13)}/obj{i % 5}",
                    "actor": f"a{rng.randrange(5)}", "operation": "write",
                    "timestamp": r * 1000 + i}
                   for i in range(rng.randrange(1, 24))]
        sharded.ingest_records(records)
        ingested.extend((rec["record_id"], rec["subject"])
                        for rec in records)
        if r == 4:
            transfer = coord.begin(src, tgt, {"qty": 22}, timestamp=r)
        sharded.seal_round(timestamp=r + 1)
    sharded.flush_anchors()
    sharded.seal_round(timestamp=100)
    assert transfer.state == COMMITTED
    return ingested + [(f"{transfer.xid}:out", src),
                       (f"{transfer.xid}:in", tgt)]


def _evidence_digests(sharded: ShardedChain,
                      anchored: list[tuple[str, str]]) -> dict:
    """Every commitment the two anchoring levels produced, hashed."""
    engine = ShardedQueryEngine(sharded)
    proofs = []
    for record_id, subject in anchored:
        shard = sharded.shard_for_subject(subject)
        record = shard.database.get(record_id)
        proof = engine.federated_proof(record_id, subject)
        header = sharded.beacon.chain.block_at(proof.beacon_height).header
        assert proof.verify(record, header), record_id
        assert shard.anchor.verify(record, shard.anchor.prove(record_id))
        proofs.append(_proof_mapping(proof))
    stacks = [*sharded.shards, sharded.beacon]
    return {
        "anchor_txs": _sha([
            shard.chain.find_transaction(receipt.tx_id)[1].tx_hash
            for shard in sharded.shards
            for receipt in shard.anchor.receipts]),
        "beacon_txs": _sha([
            sharded.beacon.chain.find_transaction(receipt.tx_id)[1].tx_hash
            for receipt in sharded.beacon.receipts]),
        "derived_rows": _sha([
            [height, canonical_encode(row)]
            for stack in stacks
            for height, row in stack.chain.store.derived_rows()]),
        "receipts": _sha([
            [dataclasses.astuple(receipt) for receipt in service.receipts]
            for service in [*(s.anchor for s in sharded.shards),
                            sharded.beacon]]),
        "proofs": _sha(proofs),
    }


# Computed by this file's _drive/_evidence_digests on the parent commit
# (7bf6de5): ``cd <parent checkout> && PYTHONPATH=src python
# <this file>`` prints them.
PINNED = {
    "anchor_txs":
        "b65760986989c3c98d917a7092641533ef73c79b3d16b783a01140b2a8c2c201",
    "beacon_txs":
        "6c7405d3e4ea8a4f4731177a186c6d45163f5d0832d0e560f59b6d59e90601f7",
    "derived_rows":
        "f778959171d6cb583276843285c27df64318da35e50d4ce6e1b6e34e60cea9ec",
    "receipts":
        "2a74d42d5e0dcd69a6bc6e2b2615ad4127d362978a46d48a1abecdb205c5813e",
    "proofs":
        "3a6c8bce3547e5c88024799a32addb06014b8050184407288076a93e57bb7db2",
}


class TestEvidenceIsTheParents:
    def test_in_memory(self):
        sharded = ShardedChain(4, **IDENTITY_OPTIONS)
        assert _evidence_digests(sharded, _drive(sharded)) == PINNED
        sharded.close()

    def test_durable_and_across_a_reopen(self, tmp_path):
        store = str(tmp_path / "store")
        sharded = ShardedChain(4, storage_dir=store, **IDENTITY_OPTIONS)
        anchored = _drive(sharded)
        assert _evidence_digests(sharded, anchored) == PINNED
        sharded.close()
        # Both levels reload from their derived rows: same receipts,
        # same proofs out of trees rebuilt on first use.
        reopened = ShardedChain(4, storage_dir=store, **IDENTITY_OPTIONS)
        assert _evidence_digests(reopened, anchored) == PINNED
        reopened.close()


# ---------------------------------------------------------------------------
# The tamper matrix
# ---------------------------------------------------------------------------
SHARD_ID = 7


def _record(i: int) -> dict:
    return {"record_id": f"r{i:03d}", "subject": f"org/asset-{i % 3}",
            "actor": f"actor-{i % 4}", "operation": "update",
            "timestamp": i}


def _data_block(chain: Blockchain, tag: str) -> Block:
    """A three-transaction block: an inclusion proof with a real path."""
    block = chain.build_block([
        Transaction("org/acct", TxKind.DATA,
                    {"key": f"{tag}{i}", "value": i}, nonce=i).seal()
        for i in range(3)])
    chain.append_block(block)
    return block


@dataclasses.dataclass(frozen=True)
class Evidence:
    """One record's evidence chain, field by field; the verifiers below
    assemble their proof objects from it, so one mutated field reaches
    every structure that carries it."""

    record: dict
    record_proof: object        # record digest -> batch root
    batch_root: bytes
    anchor_tx: Transaction
    tx_proof: object            # anchor tx -> shard header
    anchor_height: int
    shard_header: object
    row: list                   # the anchor block's derived row
    row_block: Block
    claimed_shard_id: int       # FederatedProof.shard_id (the splice)
    shard_id: int
    shard_height: int
    shard_block_hash: bytes
    state_root: bytes
    round_proof: object         # shard block leaf -> round root
    round_root: bytes
    round_no: int
    beacon_tx: Transaction
    beacon_tx_id: str
    beacon_tx_proof: object
    beacon_height: int
    beacon_header: object


def _evidence(service, beacon, record: dict) -> Evidence:
    chain = service.chain
    proof = package_federated_proof(
        SimpleNamespace(anchor=service, chain=chain, shard_id=SHARD_ID),
        beacon, record["record_id"])
    bundle, shard_proof = proof.anchor_bundle, proof.beacon_bundle.shard_proof
    # The full node proves a record with the very object it hands out.
    assert service.prove(record["record_id"]) == bundle
    rows = dict(chain.store.derived_rows())
    return Evidence(
        record=record,
        record_proof=bundle.record_proof,
        batch_root=bundle.batch_root,
        anchor_tx=bundle.anchor_tx,
        tx_proof=bundle.tx_proof,
        anchor_height=bundle.block_height,
        shard_header=proof.shard_header,
        row=rows[bundle.block_height],
        row_block=chain.block_at(bundle.block_height),
        claimed_shard_id=proof.shard_id,
        shard_id=shard_proof.shard_id,
        shard_height=shard_proof.height,
        shard_block_hash=shard_proof.block_hash,
        state_root=shard_proof.state_root,
        round_proof=shard_proof.merkle_proof,
        round_root=shard_proof.round_root,
        round_no=shard_proof.round_no,
        beacon_tx=proof.beacon_bundle.anchor_tx,
        beacon_tx_id=shard_proof.beacon_tx_id,
        beacon_tx_proof=proof.beacon_bundle.tx_proof,
        beacon_height=shard_proof.beacon_height,
        beacon_header=beacon.chain.block_at(
            shard_proof.beacon_height).header,
    )


@dataclasses.dataclass
class Rig:
    service: AnchorService
    client: LightClient
    beacon: BeaconChain
    target: Evidence        # the record at (size, index)
    other: Evidence         # another batch, another round, same chains
    multi_tx_proof: object  # inclusion proof out of a 3-tx shard block
    beacon_multi_tx_proof: object


def build_rig(size: int, index: int) -> Rig:
    """A real chain of evidence: a batch of ``size`` records anchored on
    a shard chain, the anchor block committed at leaf ``index`` of a
    beacon round of ``size`` shard blocks — plus a second batch/round
    and a multi-transaction block on each chain to borrow wrong-but-valid
    material from."""
    chain = Blockchain(ChainParams(chain_id=f"shard-{SHARD_ID}"))
    service = AnchorService(chain, batch_size=size)
    records = [_record(i) for i in range(size)]
    for record in records:
        service.enqueue(record)             # flushes at ``size``: block 1
    data_block = _data_block(chain, "s")    # block 2
    extra = _record(900)
    service.enqueue(extra)
    service.flush()                         # block 3

    beacon = BeaconChain(MemoryStorage())
    entries = [(100 + j, 1, bytes([j + 1]) * 32, b"") for j in range(size)]
    entries[index] = (SHARD_ID, 1, chain.block_at(1).block_hash,
                      chain.state.state_root())
    beacon.anchor_round(entries, timestamp=1)
    beacon_data = _data_block(beacon.chain, "b")
    beacon.anchor_round([(SHARD_ID, 3, chain.block_at(3).block_hash,
                          chain.state.state_root())], timestamp=2)
    client = LightClient(chain.chain_id)
    client.sync_from(chain)
    return Rig(
        service=service, client=client, beacon=beacon,
        target=_evidence(service, beacon, records[index]),
        other=_evidence(service, beacon, extra),
        multi_tx_proof=data_block.prove_inclusion(1),
        beacon_multi_tx_proof=beacon_data.prove_inclusion(1),
    )


def _shard_proof(ev: Evidence):
    return ShardBlockProof(
        shard_id=ev.shard_id, height=ev.shard_height,
        block_hash=ev.shard_block_hash, merkle_proof=ev.round_proof,
        round_root=ev.round_root, round_no=ev.round_no,
        beacon_height=ev.beacon_height, beacon_tx_id=ev.beacon_tx_id,
        state_root=ev.state_root)


def _anchored_proof(ev: Evidence):
    return AnchoredProof(
        record_proof=ev.record_proof, batch_root=ev.batch_root,
        anchor_tx=ev.anchor_tx, tx_proof=ev.tx_proof,
        block_height=ev.anchor_height)


def _beacon_bundle(ev: Evidence):
    return BeaconLightBundle(shard_proof=_shard_proof(ev),
                             anchor_tx=ev.beacon_tx,
                             tx_proof=ev.beacon_tx_proof)


def _row_verifies(ev: Evidence) -> bool:
    try:
        verify_batch_row(ev.row, ev.row_block)
    except AnchorError:
        return False
    return True


def _light_client_verifies(rig: Rig, ev: Evidence) -> bool:
    try:
        return rig.client.verify_anchored_record(ev.record,
                                                 _anchored_proof(ev))
    except ChainError:          # it holds no header at the claimed height
        return False


def _beacon_node_verifies(rig: Rig, ev: Evidence) -> bool:
    """The beacon full node's check (``ShardedQueryEngine``'s): the
    bundle against its own header at the claimed height."""
    chain, height = rig.beacon.chain, ev.beacon_height
    return (0 <= height <= chain.height
            and _beacon_bundle(ev).verify(chain.block_at(height).header))


def _federated_verifies(rig: Rig, ev: Evidence) -> bool:
    return FederatedProof(
        shard_id=ev.claimed_shard_id, record_id=ev.record["record_id"],
        anchor_bundle=_anchored_proof(ev), shard_header=ev.shard_header,
        beacon_bundle=_beacon_bundle(ev),
    ).verify(ev.record, ev.beacon_header)


# The full-node rows (AnchorService.verify, the beacon node) are called
# bare: a full node answers False, it never raises.
VERIFIERS = {
    "AnchorService.verify": lambda rig, ev:
        rig.service.verify(ev.record, _anchored_proof(ev)),
    "LightClient.verify_anchored_record": _light_client_verifies,
    "verify_batch_row": lambda rig, ev: _row_verifies(ev),
    "BeaconLightBundle.verify, own header": _beacon_node_verifies,
    "BeaconLightBundle.verify": lambda rig, ev:
        _beacon_bundle(ev).verify(ev.beacon_header),
    "FederatedProof.verify": _federated_verifies,
}
RECORD_LEVEL = {"AnchorService.verify", "LightClient.verify_anchored_record",
                "FederatedProof.verify"}
BEACON_LEVEL = {"BeaconLightBundle.verify, own header",
                "BeaconLightBundle.verify", "FederatedProof.verify"}
EVERY = set(VERIFIERS)


def _flip(data: bytes, at: int = 0) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _swap_first_sibling(proof):
    (sibling, is_right), *rest = proof.path
    return dataclasses.replace(proof, path=((sibling, not is_right), *rest))


def _move_leaf(proof):
    # Another leaf of the same tree, or one past its end.
    return dataclasses.replace(proof, leaf_index=proof.leaf_index ^ 1)


def _resize(proof, tree_size: int):
    return dataclasses.replace(proof, tree_size=tree_size)


# name -> (mutate(rig) -> Evidence, verifiers that read a mutated field).
# Every mutation changes ONE thing about the evidence; where that thing
# is carried at both levels (a leaf, a sibling, a root...) it is changed
# at both, and each borrowed replacement is itself valid material of the
# same chains, so only the check under test can catch it.
MUTATIONS = {
    "flipped leaf byte": (lambda rig: dataclasses.replace(
        rig.target,
        record=dict(rig.target.record, operation="updatf"),
        row=[*rig.target.row[:3],
             _flip(rig.target.row[3],
                   32 * rig.target.record_proof.leaf_index)],
        shard_block_hash=_flip(rig.target.shard_block_hash)),
        # The splice binds the shard header to the beacon leaf, so the
        # federated proof sees a beacon-side flip twice over.
        EVERY),
    "sibling swapped": (lambda rig: dataclasses.replace(
        rig.target,
        record_proof=_swap_first_sibling(rig.target.record_proof),
        round_proof=_swap_first_sibling(rig.target.round_proof)),
        RECORD_LEVEL | BEACON_LEVEL),
    "wrong root": (lambda rig: dataclasses.replace(
        rig.target,
        batch_root=rig.other.batch_root,
        row=[*rig.target.row[:2], rig.other.batch_root,
             *rig.target.row[3:]],
        round_root=rig.other.round_root),
        EVERY),
    "anchor tx with another root": (lambda rig: dataclasses.replace(
        # Another anchor transaction of the same chain, with its real
        # inclusion proof, at the height it really sits at: only the
        # root it commits is wrong.
        rig.target,
        **{name: getattr(rig.other, name) for name in (
            "anchor_tx", "tx_proof", "anchor_height", "shard_header",
            "row_block", "beacon_tx", "beacon_tx_id", "beacon_tx_proof",
            "beacon_height", "beacon_header")},
        row=[rig.target.row[0], rig.other.anchor_tx.tx_id,
             *rig.target.row[2:]]),
        EVERY),
    "tx proof for another tx": (lambda rig: dataclasses.replace(
        rig.target,
        tx_proof=rig.multi_tx_proof,
        beacon_tx_proof=rig.beacon_multi_tx_proof),
        # Every verifier reads the inclusion proof now: the full nodes
        # check the same proof object against their own headers.
        RECORD_LEVEL | BEACON_LEVEL),
    "header of another height": (lambda rig: dataclasses.replace(
        # What the verifier is handed to check against (a light client
        # picks its own header, a full node its own block).
        rig.target,
        shard_header=rig.other.shard_header,
        row_block=rig.other.row_block,
        beacon_header=rig.other.beacon_header),
        {"verify_batch_row", "BeaconLightBundle.verify",
         "FederatedProof.verify"}),
    "claimed height of another block": (lambda rig: dataclasses.replace(
        rig.target,
        anchor_height=rig.other.anchor_height,
        beacon_height=rig.other.beacon_height),
        RECORD_LEVEL | BEACON_LEVEL),
    "claimed height past the head": (lambda rig: dataclasses.replace(
        rig.target,
        anchor_height=rig.service.chain.height + 1,
        beacon_height=rig.beacon.chain.height + 1),
        RECORD_LEVEL | BEACON_LEVEL),
    "wrong shard id at the splice": (lambda rig: dataclasses.replace(
        rig.target, claimed_shard_id=SHARD_ID + 1),
        {"FederatedProof.verify"}),
    "wrong height at the splice": (lambda rig: dataclasses.replace(
        # A valid beacon bundle - for another block of the same shard.
        rig.target,
        **{name: getattr(rig.other, name) for name in (
            "shard_height", "shard_block_hash", "state_root", "round_proof",
            "round_root", "round_no", "beacon_tx", "beacon_tx_id",
            "beacon_tx_proof", "beacon_height", "beacon_header")}),
        {"FederatedProof.verify"}),
    "wrong block hash at the splice": (lambda rig: dataclasses.replace(
        # Same height, same transactions, another block.
        rig.target,
        shard_header=dataclasses.replace(rig.target.shard_header,
                                         timestamp=77)),
        {"FederatedProof.verify"}),
    "state_root dropped from the leaf": (lambda rig: dataclasses.replace(
        rig.target, state_root=b""),
        BEACON_LEVEL),
    "leaf index moved": (lambda rig: dataclasses.replace(
        rig.target,
        record_proof=_move_leaf(rig.target.record_proof),
        round_proof=_move_leaf(rig.target.round_proof)),
        RECORD_LEVEL | BEACON_LEVEL),
    # The batch metadata a proof carries is the anchor transaction's.
    "record_count of another batch": (lambda rig: dataclasses.replace(
        rig.target,
        record_proof=_resize(rig.target.record_proof,
                             rig.other.record_proof.tree_size)),
        RECORD_LEVEL),
    "leaf_count of another round": (lambda rig: dataclasses.replace(
        rig.target,
        round_proof=_resize(rig.target.round_proof,
                            rig.other.round_proof.tree_size)),
        BEACON_LEVEL),
    "round number of another round": (lambda rig: dataclasses.replace(
        rig.target, round_no=rig.other.round_no),
        BEACON_LEVEL),
    "beacon tx id of another round": (lambda rig: dataclasses.replace(
        rig.target, beacon_tx_id=rig.other.beacon_tx_id),
        BEACON_LEVEL),
}
# Rows that need a sibling, or a batch and round larger than rig.other's
# (a batch of one).
NEEDS_TWO = {"sibling swapped", "record_count of another batch",
             "leaf_count of another round"}


class TestTamperMatrix:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @settings(max_examples=12, deadline=None)
    @given(size=st.sampled_from([1, 2, 3, 64, 65]),
           position=st.integers(min_value=0, max_value=64))
    def test_every_verifier_that_sees_the_field_rejects(
            self, mutation, size, position):
        mutate, sees = MUTATIONS[mutation]
        if mutation in NEEDS_TWO and size == 1:
            size = 2
        rig = build_rig(size, position % size)
        for name, verifies in VERIFIERS.items():
            assert verifies(rig, rig.target), f"{name}: untouched"
        mutated = mutate(rig)
        assert mutated != rig.target
        for name, verifies in VERIFIERS.items():
            assert verifies(rig, mutated) == (name not in sees), \
                f"{name} under {mutation!r}"

    def test_a_size_the_path_cannot_tell_is_the_anchor_txs(self):
        # Leaf 2 has the same path in a tree of 5 leaves and of 6: the
        # Merkle proof alone accepts either size, the count its anchor
        # transaction carries does not.
        rig = build_rig(5, 2)
        resized = dataclasses.replace(
            rig.target,
            record_proof=_resize(rig.target.record_proof, 6),
            round_proof=_resize(rig.target.round_proof, 6))
        for before, after in ((rig.target.record_proof, resized.record_proof),
                              (rig.target.round_proof, resized.round_proof)):
            assert before.root_from(b"leaf") is not None
            assert after.root_from(b"leaf") == before.root_from(b"leaf")
        for name, verifies in VERIFIERS.items():
            assert verifies(rig, resized) == (
                name not in RECORD_LEVEL | BEACON_LEVEL), name

    def test_full_node_refuses_a_block_hash_the_beacon_did_not_commit(
            self):
        rig = build_rig(3, 1)
        with pytest.raises(ShardError):
            rig.beacon.prove_shard_block(
                SHARD_ID, 1, _flip(rig.target.shard_block_hash))


# ---------------------------------------------------------------------------
# Sealed blocks are final: a rewritten shard suffix still links, and only
# the beacon's commitments catch it
# ---------------------------------------------------------------------------
REWRITE_OPTIONS = dict(max_block_txs=8, anchor_batch_size=4,
                       executor="serial")


def _subject(sharded: ShardedChain, shard_id: int) -> str:
    return next(f"ns{j}/asset" for j in range(64)
                if sharded.router.shard_for_subject(f"ns{j}/asset")
                == shard_id)


def _deployment(storage_dir) -> ShardedChain:
    """Two shards, five sealed rounds of records (shard 0 anchors a
    batch per round and keeps a pending remainder), then one more batch
    flushed but not yet beacon-committed."""
    sharded = ShardedChain(
        2, storage_dir=None if storage_dir is None else str(storage_dir),
        **REWRITE_OPTIONS)
    subjects = [_subject(sharded, 0), _subject(sharded, 1)]
    for r in range(6):
        sharded.ingest_records([
            {"record_id": f"rec-{r}-{i}", "subject": subjects[i % 2],
             "actor": "a", "operation": "write", "timestamp": r * 100 + i}
            for i in range(11)])
        sharded.submit_many([
            Transaction(f"{subjects[i % 2]}-acct", TxKind.DATA,
                        {"subject": subjects[i % 2], "key": f"k{r}-{i}",
                         "value": i}, nonce=r * 10 + i).seal()
            for i in range(4)])
        if r < 5:
            sharded.seal_round(timestamp=r + 1)
    return sharded


def _suffix(chain: Blockchain, fork_height: int) -> list[Block]:
    """A competing branch from ``fork_height``, one block longer."""
    blocks, prev = [], chain.block_at(fork_height)
    for i in range(chain.height - fork_height + 1):
        block = Block(
            height=prev.height + 1, prev_hash=prev.block_hash,
            transactions=[Transaction("fork/acct", TxKind.DATA,
                                      {"key": f"fork-{i}", "value": i},
                                      nonce=i).seal()],
            timestamp=900 + i, proposer="fork")
        blocks.append(block)
        prev = block
    return blocks


def _fork_height(sharded: ShardedChain, anchors_rewritten: int) -> int:
    """Just below the ``anchors_rewritten``-th newest of shard 0's anchor
    blocks the beacon committed: the rewrite replaces that many anchor
    batches."""
    shard = sharded.shard(0)
    committed = [receipt.block_height for receipt in shard.anchor.receipts
                 if receipt.block_height <= shard.anchored_height]
    assert len(committed) >= anchors_rewritten
    return committed[-anchors_rewritten] - 1


REWRITE_DEPTHS = pytest.mark.parametrize(
    "anchors_rewritten", [1, 2, 4],
    ids=["newest-anchor", "two-anchors", "four-anchors"])


class TestRewrittenSuffixIsCaughtByTheBeacon:
    @REWRITE_DEPTHS
    def test_memory_blocks_setter(self, anchors_rewritten):
        sharded = _deployment(None)
        sharded.verify_all(deep=True)
        chain = sharded.shard(0).chain
        fork = _fork_height(sharded, anchors_rewritten)
        chain.blocks = [chain.block_at(h) for h in range(fork + 1)] \
            + _suffix(chain, fork)
        chain.verify(deep=True)             # still links
        with pytest.raises(TamperDetected) as caught:
            sharded.verify_all(deep=True)
        assert caught.value.height == fork + 1

    @REWRITE_DEPTHS
    def test_store_written_directly(self, tmp_path, anchors_rewritten):
        sharded = _deployment(tmp_path)
        fork = _fork_height(sharded, anchors_rewritten)
        suffix = _suffix(sharded.shard(0).chain, fork)
        sharded.close()
        storage = DurableStorage(str(tmp_path / "shard-0"))
        storage.blocks.truncate_above(fork)
        storage.blocks.append_blocks(suffix)
        storage.close()
        reopened = ShardedChain(2, storage_dir=str(tmp_path),
                                **REWRITE_OPTIONS)
        reopened.shard(0).chain.verify(deep=True)     # still links
        for deep in (False, True):
            with pytest.raises(TamperDetected) as caught:
                reopened.verify_all(deep=deep)
            assert caught.value.height == fork + 1
        reopened.close()

    @pytest.mark.parametrize("shard_id", [0, 1])
    def test_shard_shorter_than_its_anchored_height(self, shard_id):
        sharded = _deployment(None)
        chain = sharded.shard(shard_id).chain
        anchored = sharded.shard(shard_id).anchored_height
        chain.blocks = [chain.block_at(h) for h in range(anchored)]
        chain.verify(deep=True)
        with pytest.raises(TamperDetected) as caught:
            sharded.verify_all()
        assert caught.value.height == anchored


if __name__ == "__main__":      # the pins: run this file on the parent commit
    _sharded = ShardedChain(4, **IDENTITY_OPTIONS)
    print(_evidence_digests(_sharded, _drive(_sharded)))
