"""One anchoring mechanism at both levels (``repro.chain.anchoring``).

* **Byte identity** — a seeded deployment's anchor and beacon
  transactions, derived rows and federated proofs hash to digests pinned
  at the parent commit, in memory and on disk, before and after a
  reopen; the store the parent wrote still proves every anchored record.
* **Tamper matrix** — one real record → shard → beacon evidence chain,
  each single mutation applied to it, and *every* verifier that reads
  the mutated field must reject it.
* **Reorg** — after ``reorg_to`` the in-process services are where a
  crash + reopen would put them.

Everything here drives public names only, so the file runs unchanged on
the parent commit (where the reorg class fails).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import (
    Block,
    Blockchain,
    ChainParams,
    LightAnchorBundle,
    LightClient,
    Transaction,
    TxKind,
)
from repro.errors import AnchorError, ShardError
from repro.persist import MemoryStorage
from repro.persist.codec import transaction_embedded
from repro.provenance.anchor import (
    AnchoredProof,
    AnchorService,
    verify_batch_row,
)
from repro.serialization import canonical_encode
from repro.sharding import (
    COMMITTED,
    CrossShardCoordinator,
    FederatedProof,
    Shard,
    ShardedChain,
    ShardedQueryEngine,
)
from repro.sharding.beacon import (
    BeaconChain,
    BeaconLightBundle,
    ShardBlockProof,
)
from repro.sharding.query import package_federated_proof
from repro.sync.codec import bundle_to_mapping


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
    anchor_id: str
    anchor_tx: Transaction
    anchor_tx_id: str
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
    anchored = service.prove(record["record_id"])
    bundle, shard_proof = proof.anchor_bundle, proof.beacon_bundle.shard_proof
    assert anchored.merkle_proof == bundle.record_proof
    rows = dict(chain.store.derived_rows())
    return Evidence(
        record=record,
        record_proof=bundle.record_proof,
        batch_root=bundle.batch_root,
        anchor_id=anchored.anchor_id,
        anchor_tx=bundle.anchor_tx,
        anchor_tx_id=anchored.tx_id,
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


def _light_bundle(ev: Evidence):
    return LightAnchorBundle(
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


def _anchor_service_verifies(rig: Rig, ev: Evidence) -> bool:
    return rig.service.verify(ev.record, AnchoredProof(
        anchor_id=ev.anchor_id, merkle_proof=ev.record_proof,
        merkle_root=ev.batch_root, block_height=ev.anchor_height,
        tx_id=ev.anchor_tx_id))


def _federated_verifies(rig: Rig, ev: Evidence) -> bool:
    return FederatedProof(
        shard_id=ev.claimed_shard_id, record_id=ev.record["record_id"],
        anchor_bundle=_light_bundle(ev), shard_header=ev.shard_header,
        beacon_bundle=_beacon_bundle(ev),
    ).verify(ev.record, ev.beacon_header)


VERIFIERS = {
    "AnchorService.verify": _anchor_service_verifies,
    "LightClient.verify_anchored_record": lambda rig, ev:
        rig.client.verify_anchored_record(ev.record, _light_bundle(ev)),
    "verify_batch_row": lambda rig, ev: _row_verifies(ev),
    "BeaconChain.verify_shard_block": lambda rig, ev:
        rig.beacon.verify_shard_block(_shard_proof(ev)),
    "BeaconLightBundle.verify": lambda rig, ev:
        _beacon_bundle(ev).verify(ev.beacon_header),
    "FederatedProof.verify": _federated_verifies,
}
RECORD_LEVEL = {"AnchorService.verify", "LightClient.verify_anchored_record",
                "FederatedProof.verify"}
BEACON_LEVEL = {"BeaconChain.verify_shard_block", "BeaconLightBundle.verify",
                "FederatedProof.verify"}
HEADER_ONLY = {"LightClient.verify_anchored_record",
               "BeaconLightBundle.verify", "FederatedProof.verify"}
EVERY = set(VERIFIERS)


def _flip(data: bytes, at: int = 0) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def _swap_first_sibling(proof):
    (sibling, is_right), *rest = proof.path
    return dataclasses.replace(proof, path=((sibling, not is_right), *rest))


def _with_root(tx: Transaction, root: bytes) -> Transaction:
    """``tx`` again, committing ``root`` instead."""
    return Transaction(tx.sender, tx.kind,
                       dict(tx.payload, merkle_root=root),
                       timestamp=tx.timestamp).seal()


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
        rig.target,
        # Header-only: a well-formed anchor transaction, committing a
        # different root, wherever the verifier looks for the real one.
        anchor_tx=_with_root(rig.target.anchor_tx, rig.other.batch_root),
        beacon_tx=_with_root(rig.target.beacon_tx, rig.other.round_root),
        # Full node: another anchor transaction of the same chain, at
        # the height it really sits at.
        anchor_tx_id=rig.other.anchor_tx_id,
        anchor_height=rig.other.anchor_height,
        shard_header=rig.other.shard_header,
        beacon_tx_id=rig.other.beacon_tx_id,
        beacon_height=rig.other.beacon_height,
        beacon_header=rig.other.beacon_header,
        row=[rig.target.row[0], rig.other.anchor_tx_id,
             *rig.target.row[2:]],
        row_block=rig.other.row_block),
        EVERY),
    "tx proof for another tx": (lambda rig: dataclasses.replace(
        rig.target,
        tx_proof=rig.multi_tx_proof,
        beacon_tx_proof=rig.beacon_multi_tx_proof),
        HEADER_ONLY),
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
}


class TestTamperMatrix:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @settings(max_examples=12, deadline=None)
    @given(size=st.sampled_from([1, 2, 3, 64, 65]),
           position=st.integers(min_value=0, max_value=64))
    def test_every_verifier_that_sees_the_field_rejects(
            self, mutation, size, position):
        mutate, sees = MUTATIONS[mutation]
        if mutation == "sibling swapped" and size == 1:
            size = 2            # a batch of one has no sibling
        rig = build_rig(size, position % size)
        for name, verifies in VERIFIERS.items():
            assert verifies(rig, rig.target), f"{name}: untouched"
        mutated = mutate(rig)
        assert mutated != rig.target
        for name, verifies in VERIFIERS.items():
            assert verifies(rig, mutated) == (name not in sees), \
                f"{name} under {mutation!r}"

    def test_full_node_refuses_a_block_hash_the_beacon_did_not_commit(
            self):
        rig = build_rig(3, 1)
        with pytest.raises(ShardError):
            rig.beacon.prove_shard_block(
                SHARD_ID, 1, _flip(rig.target.shard_block_hash))


# ---------------------------------------------------------------------------
# Reorgs: the in-process services end where a crash + reopen would
# ---------------------------------------------------------------------------
JOURNAL_DEPTH = 3
REORG_OPTIONS = dict(max_block_txs=8, anchor_batch_size=4,
                     reorg_journal_depth=JOURNAL_DEPTH, executor="serial")


def _subject(sharded: ShardedChain, shard_id: int) -> str:
    return next(f"ns{j}/asset" for j in range(64)
                if sharded.router.shard_for_subject(f"ns{j}/asset")
                == shard_id)


def _deployment(storage_dir) -> tuple[ShardedChain, list[dict]]:
    """Two shards, five sealed rounds of records (shard 0 anchors a
    batch per round and keeps a pending remainder), then one more batch
    flushed but not yet beacon-committed."""
    sharded = ShardedChain(
        2, storage_dir=None if storage_dir is None else str(storage_dir),
        **REORG_OPTIONS)
    subjects = [_subject(sharded, 0), _subject(sharded, 1)]
    records = []
    for r in range(6):
        batch = [{"record_id": f"rec-{r}-{i}", "subject": subjects[i % 2],
                  "actor": "a", "operation": "write",
                  "timestamp": r * 100 + i} for i in range(11)]
        sharded.ingest_records(batch)
        records.extend(batch)
        sharded.submit_many([
            Transaction(f"{subjects[i % 2]}-acct", TxKind.DATA,
                        {"subject": subjects[i % 2], "key": f"k{r}-{i}",
                         "value": i}, nonce=r * 10 + i).seal()
            for i in range(4)])
        if r < 5:
            sharded.seal_round(timestamp=r + 1)
    return sharded, records


def _suffix(chain: Blockchain, fork_height: int) -> list[Block]:
    """A longer competing branch from ``fork_height``."""
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


def _reopened(sharded: ShardedChain):
    """``(shards, beacon)`` as a process restarted right now would open
    them: a crash and a reopen of the directory — or, in memory, fresh
    stacks on the same bundles."""
    if sharded.storage_dir is not None:
        sharded.crash()
        again = ShardedChain(2, storage_dir=sharded.storage_dir,
                             **REORG_OPTIONS)
        return again.shards, again.beacon, again
    shards = [Shard(shard.shard_id, shard.chain.params, shard.storage,
                    anchor_batch_size=shard.anchor.batch_size)
              for shard in sharded.shards]
    beacon = BeaconChain(sharded.beacon.storage, sharded.beacon.chain.params)
    beacon.load_proof_state()
    return shards, beacon, None


def _proof_state(shards, beacon, records) -> dict:
    ids = [record["record_id"] for record in records]
    return {
        "receipts": [shard.anchor.receipts for shard in shards],
        "anchored": [[rid for rid in ids if shard.anchor.is_anchored(rid)]
                     for shard in shards],
        "receipt_for": [[shard.anchor.receipt_for(rid) for rid in ids]
                        for shard in shards],
        "pending": [shard.anchor.pending_count for shard in shards],
        "anchored_count": [shard.anchor.anchored_count for shard in shards],
        "beacon_receipts": beacon.receipts,
        "beacon_anchored_height": [beacon.anchored_height(shard.shard_id)
                                   for shard in shards],
        "beacon_entries": [
            [beacon.anchored_entry(shard.shard_id, h)
             for h in range(1, shard.chain.height + 1)]
            for shard in shards],
    }


def _fork_height(sharded: ShardedChain, anchors_orphaned: int) -> int:
    receipts = sharded.shard(0).anchor.receipts
    return receipts[-anchors_orphaned].block_height - 1


def _no_dangling_proofs(sharded: ShardedChain, records) -> None:
    engine = ShardedQueryEngine(sharded)
    for subject in {record["subject"] for record in records}:
        answer = engine.history_verified(subject)
        for shard_id, proof in zip(answer.shard_ids, answer.proofs):
            assert proof is None or sharded.shard(shard_id).chain \
                .find_transaction(proof.tx_id) is not None
        assert len(answer.unanchored) == sum(
            proof is None for proof in answer.proofs)


@pytest.mark.parametrize("durable", [False, True],
                         ids=["memory", "durable"])
@pytest.mark.parametrize("anchors_orphaned", [1, 2, 4],
                         ids=["inside-journal", "past-two-anchors",
                              "beyond-journal"])
class TestReorgOfAnAnchoredChain:
    def test_shard_reorg_ends_where_a_reopen_would(
            self, tmp_path, durable, anchors_orphaned):
        live, records = _deployment(tmp_path / "live" if durable else None)
        twin, _ = _deployment(tmp_path / "twin" if durable else None)
        engine = ShardedQueryEngine(live)
        _no_dangling_proofs(live, records)     # fills the proof memos
        shard = live.shard(0)
        fork = _fork_height(live, anchors_orphaned)
        depth = shard.chain.height - fork
        if anchors_orphaned != 2:       # both sides of the journal window
            assert (depth <= JOURNAL_DEPTH) == (anchors_orphaned == 1)
        orphaned = [rid for receipt in shard.anchor.receipts
                    if receipt.block_height > fork
                    for rid in [r["record_id"] for r in records]
                    if shard.anchor.receipt_for(rid) == receipt]
        assert len(orphaned) == 4 * anchors_orphaned
        was_pending = shard.anchor.pending_count

        for sharded in (live, twin):
            chain = sharded.shard(0).chain
            chain.reorg_to(_suffix(chain, fork), fork)
        assert [height for height, _ in shard.chain.store.derived_rows()] \
            == [receipt.block_height for receipt in shard.anchor.receipts]
        assert not any(shard.anchor.is_anchored(rid) for rid in orphaned)
        assert shard.anchor.pending_count == was_pending + len(orphaned)
        _no_dangling_proofs(live, records)

        shards, beacon, reopened = _reopened(twin)
        assert _proof_state(live.shards, live.beacon, records) \
            == _proof_state(shards, beacon, records)
        if reopened is not None:
            reopened.close()

        # The orphaned records anchor again, in process, and prove.
        with pytest.raises(AnchorError):
            shard.anchor.enqueue(dict(records[0], record_id=orphaned[0]))
        live.flush_anchors()
        live.seal_round(timestamp=50)
        assert all(shard.anchor.is_anchored(rid) for rid in orphaned)
        by_id = {record["record_id"]: record for record in records}
        for rid in orphaned:
            proof = engine.federated_proof(rid, by_id[rid]["subject"])
            header = live.beacon.chain.block_at(proof.beacon_height).header
            assert proof.verify(by_id[rid], header)
            assert shard.anchor.verify(by_id[rid], shard.anchor.prove(rid))
        _no_dangling_proofs(live, records)
        answer = engine.history_verified(by_id[orphaned[0]]["subject"])
        assert answer.verified and not answer.unanchored
        live.close()

    def test_beacon_reorg_frees_its_entries(
            self, tmp_path, durable, anchors_orphaned):
        live, records = _deployment(tmp_path / "live" if durable else None)
        twin, _ = _deployment(tmp_path / "twin" if durable else None)
        rounds_orphaned = anchors_orphaned
        fork = live.beacon.receipts[-rounds_orphaned].block_height - 1
        assert (live.beacon.height - fork <= JOURNAL_DEPTH) \
            == (rounds_orphaned <= JOURNAL_DEPTH)
        freed = [live.beacon.anchored_entry(shard.shard_id, h)
                 for shard in live.shards
                 for h in range(1, shard.chain.height + 1)
                 if (receipt := live.beacon.receipt_for(shard.shard_id, h))
                 and receipt.block_height > fork]
        assert freed
        for sharded in (live, twin):
            chain = sharded.beacon.chain
            chain.reorg_to(_suffix(chain, fork), fork)
        assert live.beacon.rounds_anchored == 5 - rounds_orphaned \
            == live.rounds_sealed
        assert not any(live.beacon.is_anchored(sid, h)
                       for sid, h, _, _ in freed)
        assert [shard.anchored_height for shard in live.shards] == [
            live.beacon.anchored_height(shard.shard_id)
            for shard in live.shards]

        shards, beacon, reopened = _reopened(twin)
        assert _proof_state(live.shards, live.beacon, records) \
            == _proof_state(shards, beacon, records)
        if reopened is not None:
            assert reopened.rounds_sealed == live.rounds_sealed
            reopened.close()

        # The next round commits the freed shard blocks again, and every
        # anchored record proves under the new beacon branch.
        live.flush_anchors()
        live.seal_round(timestamp=50)
        assert all(live.beacon.is_anchored(sid, h) for sid, h, _, _ in freed)
        engine = ShardedQueryEngine(live)
        for record in records:
            shard = live.shard_for_subject(record["subject"])
            assert shard.anchor.is_anchored(record["record_id"])
            proof = engine.federated_proof(record["record_id"],
                                           record["subject"])
            header = live.beacon.chain.block_at(proof.beacon_height).header
            assert proof.verify(record, header)
        live.close()


if __name__ == "__main__":      # the pins: run this file on the parent commit
    _sharded = ShardedChain(4, **IDENTITY_OPTIONS)
    print(_evidence_digests(_sharded, _drive(_sharded)))
