"""One way to commit: every entry point drives one skeleton over one
store write, so whichever path a block stream takes — one by one, in
groups, as an exec worker's deltas, as a reorg re-commit, and replayed on
reopen after any of those — the chain, the state, the undo journal, the index rows and the
log bytes come out identical.

Also here: kill-at-every-byte over a group (none or all survives), the
``expected_state_root`` gate, the journal-depth-0 unwind regression, and
the counted fsync guards that pin where the durability choice is made
(``fsync=`` travels from the caller to ``SegmentLog.append_many``), and
the state owning its values (nothing a transaction's holder edits later
reaches what its block committed).
"""

from __future__ import annotations

import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Blockchain, ChainParams, Transaction, TxKind
from repro.chain.block import Block
from repro.chain.blockchain import execute_block
from repro.errors import TamperDetected
from repro.exec.worker import _handle_exec
from repro.obs.runtime import telemetry
from repro.persist.codec import encode_block, encode_receipt
from repro.persist.durable import DurableStorage
from repro.persist.stores import MemoryStorage
from repro.persist.segment import CrashPoint
from repro.provenance.anchor import AnchorService
from repro.sharding.beacon import BeaconChain
from repro.sharding.shardchain import ShardedChain

N_BLOCKS = 7
JOURNAL_DEPTH = 4      # < N_BLOCKS, so pruning is exercised on every path


def _params(depth: int = JOURNAL_DEPTH) -> ChainParams:
    return ChainParams(chain_id="commit-path", reorg_journal_depth=depth)


def _txs(rng: random.Random, tag: str, n: int) -> list[Transaction]:
    """A seeded mix: data writes that overwrite each other across
    blocks, anchors with events, and transfers that fail (unfunded), so
    receipts carry events and errors and deltas carry updates."""
    txs = []
    for i in range(n):
        kind = rng.choice((TxKind.DATA, TxKind.DATA, TxKind.PROVENANCE,
                           TxKind.TRANSFER))
        if kind is TxKind.DATA:
            payload = {"key": f"k{rng.randrange(6)}",
                       "value": rng.randrange(1000)}
        elif kind is TxKind.PROVENANCE:
            payload = {"anchor_id": f"{tag}-{i}", "n": rng.randrange(9)}
        else:
            payload = {"to": "nobody", "amount": 1 + rng.randrange(5)}
        txs.append(Transaction(sender=f"s{rng.randrange(3)}", kind=kind,
                               payload=payload, timestamp=i,
                               fee=rng.randrange(10_000)).seal())
    return txs


def _stream(seed: int = 17, n_blocks: int = N_BLOCKS,
            txs_per_block: int = 4) -> list[Block]:
    rng = random.Random(seed)
    builder = Blockchain(_params())
    for height in range(1, n_blocks + 1):
        builder.append_block(builder.build_block(
            _txs(rng, f"b{height}", txs_per_block), timestamp=height))
    return list(builder.blocks[1:])


STREAM = _stream()


def _open(directory: str | None, depth: int = JOURNAL_DEPTH,
          snapshots: bool = True):
    """``(chain, storage)`` on a durable directory, or a memory chain."""
    if directory is None:
        return Blockchain(_params(depth)), None
    storage = DurableStorage(directory)
    chain = Blockchain(
        _params(depth), store=storage.blocks,
        snapshot_store=storage.state if snapshots else None)
    return chain, storage


def _log_bytes(storage: DurableStorage) -> bytes:
    storage.block_log.sync()
    directory = storage.block_log.directory
    return b"".join(
        open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory)))


def _fingerprint(chain: Blockchain, storage) -> dict:
    fp = {
        "head": chain.head.block_hash,
        "height": chain.height,
        "state_root": chain.state.state_root(),
        "journal": len(chain._block_snaps),
        "open_snapshots": chain.state.open_snapshots,
        "receipts": {tx.tx_id: encode_receipt(chain.receipt_for(tx.tx_id))
                     for block in chain.blocks
                     for tx in block.transactions},
        "tx_locations": {tx.tx_id: chain.store.tx_location(tx.tx_id)
                         for block in chain.blocks
                         for tx in block.transactions},
    }
    if storage is not None:
        conn = storage._conn
        for table in ("blocks", "txs", "receipts"):
            fp[f"{table}_rows"] = sorted(
                tuple(bytes(v) if isinstance(v, (bytes, memoryview)) else v
                      for v in row)
                for row in conn.execute(f"SELECT * FROM {table}"))
        fp["log"] = _log_bytes(storage)
    return fp


# ---------------------------------------------------------------------------
# The commit paths (each takes an open chain at genesis and the stream)
# ---------------------------------------------------------------------------
def _commit_singly(chain, blocks):
    for block in blocks:
        chain.append_block(block)


def _commit_grouped(chain, blocks, sizes=(2, 1, 3, 5)):
    at = 0
    for size in sizes:
        chain.append_blocks(blocks[at:at + size])
        at += size
    chain.append_blocks(blocks[at:])


def _commit_worker_deltas(chain, blocks, sizes=(3, 2, 2)):
    """The process engine's path, with the worker's handler run in this
    process: job frames out, receipt bodies + deltas + root back."""
    replicas: dict = {}
    at = 0
    for size in sizes:
        group = blocks[at:at + size]
        at += size
        frames = [encode_block(block) for block in group]
        reply = _handle_exec({
            "chain": chain.chain_id,
            "base_height": chain.height,
            "base_root": chain.state.state_root(),
            "blocks": frames,
            "require_signatures": False,
            "state": [list(e) for e in chain.state.dump_entries()],
        }, replicas, None)
        assert reply["status"] == "ok", reply
        chain.apply_executed_blocks(
            group,
            [[tuple(op) for op in ops] for ops in reply["deltas"]],
            list(zip(frames, reply["receipts"])),
            expected_state_root=reply["state_root"],
        )
    assert at == len(blocks)


def _commit_by_reorg(chain, blocks):
    """Commit a shorter losing branch, then reorg onto the stream."""
    rng = random.Random(99)
    for height in range(1, 4):
        chain.append_block(chain.build_block(
            _txs(rng, f"orphan{height}", 3), timestamp=100 + height))
    chain.reorg_to(blocks, fork_height=0)


PATHS = {
    "append_block": _commit_singly,
    "append_blocks": _commit_grouped,
    "apply_executed_blocks": _commit_worker_deltas,
    "reorg": _commit_by_reorg,
}


def _run_path(path: str, directory: str | None, reopen: bool = False,
              **kwargs) -> dict:
    """Commit the stream one way and fingerprint the result; with
    ``reopen``, drop the process without a checkpoint first, so every
    block is replayed from the store."""
    chain, storage = _open(directory, snapshots=not reopen)
    try:
        PATHS[path](chain, STREAM, **kwargs)
        if reopen:
            storage.close()
            chain, storage = _open(directory, snapshots=False)
            assert chain.blocks_replayed_on_open == N_BLOCKS
        chain.verify(deep=True)
        return _fingerprint(chain, storage)
    finally:
        if storage is not None:
            storage.close()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """What ``append_block`` one by one leaves behind, per backend."""
    return {
        "memory": _run_path("append_block", None),
        "durable": _run_path(
            "append_block", str(tmp_path_factory.mktemp("reference"))),
    }


class TestEveryPathCommitsTheSame:
    @pytest.mark.parametrize("path", list(PATHS))
    def test_memory_store(self, path, reference):
        assert _run_path(path, None) == reference["memory"]

    @pytest.mark.parametrize("reopen", [False, True])
    @pytest.mark.parametrize("path", list(PATHS))
    def test_durable_store(self, path, reopen, reference, tmp_path):
        assert _run_path(path, str(tmp_path), reopen=reopen) \
            == reference["durable"]

    def test_backends_agree_on_chain_and_state(self, reference):
        memory, durable = reference["memory"], reference["durable"]
        for key in memory:
            assert memory[key] == durable[key], key

    @settings(max_examples=12, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), max_size=6),
           durable=st.booleans(), worker=st.booleans())
    def test_any_grouping(self, reference, sizes, durable, worker):
        """However the stream is cut into groups, in-process or as
        worker deltas: same chain, rows and bytes."""
        while sum(sizes) > N_BLOCKS:
            sizes = sizes[:-1]
        path = "append_blocks"
        if worker:
            path = "apply_executed_blocks"
            sizes = sizes + [N_BLOCKS - sum(sizes)]
        with tempfile.TemporaryDirectory() as directory:
            got = _run_path(path, directory if durable else None,
                            sizes=tuple(sizes))
        assert got == reference["durable" if durable else "memory"]


# ---------------------------------------------------------------------------
# Atomicity of a group on disk
# ---------------------------------------------------------------------------
class TestGroupIsNoneOrAll:
    def test_kill_at_every_byte_of_a_two_block_group(self, tmp_path):
        directory = str(tmp_path)
        group = _stream(seed=5, n_blocks=2, txs_per_block=1)
        chain, storage = _open(directory)
        baseline = _fingerprint(chain, storage)
        total = sum(len(encode_block(block)) + 8 for block in group)
        for cut in range(total + 1):
            storage.block_log.fail_after_bytes = cut
            with pytest.raises(CrashPoint):
                chain.append_blocks(group)
            # The failed group is unwound in the live process ...
            assert chain.height == 0
            assert chain.state.state_root() == baseline["state_root"]
            assert len(chain._block_snaps) == 0
            storage.close()
            # ... and gone after recovery: no row, no byte.
            chain, storage = _open(directory)
            assert _fingerprint(chain, storage) == baseline, cut
        chain.append_blocks(group)
        storage.close()
        chain, storage = _open(directory, snapshots=False)
        assert chain.height == 2
        assert chain.blocks_replayed_on_open == 2
        chain.verify(deep=True)
        storage.close()


# ---------------------------------------------------------------------------
# The state-root gate
# ---------------------------------------------------------------------------
class TestExpectedStateRoot:
    @pytest.mark.parametrize("durable", [False, True])
    def test_divergence_installs_nothing(self, durable, tmp_path):
        chain, storage = _open(str(tmp_path) if durable else None)
        chain.append_blocks(STREAM[:2])
        before = _fingerprint(chain, storage)
        group = STREAM[2:5]
        shadow = Blockchain(_params())
        shadow.append_blocks(STREAM[:2])
        deltas, encoded = [], []
        for block in group:
            snap = shadow.state.snapshot()
            receipts = execute_block(block, shadow.state, shadow.executor,
                                     shadow)
            deltas.append(shadow.state.drain_snapshot_delta(snap))
            encoded.append((encode_block(block),
                            [encode_receipt(r) for r in receipts]))
        with pytest.raises(TamperDetected):
            chain.apply_executed_blocks(
                group, deltas, encoded, expected_state_root=b"\x00" * 32)
        assert _fingerprint(chain, storage) == before
        # The honest root commits the very same group.
        chain.apply_executed_blocks(
            group, deltas, encoded,
            expected_state_root=shadow.state.state_root())
        assert chain.height == 5
        assert chain.state.state_root() == shadow.state.state_root()
        if storage is not None:
            storage.close()


# ---------------------------------------------------------------------------
# Regression: a failed commit leaves no half-applied block, at any depth
# ---------------------------------------------------------------------------
class TestFailedAppendUnwindsAtAnyDepth:
    """At the parent, ``reorg_journal_depth=0`` took no snapshot on the
    single-block path, so a store failure after execution left state
    *ahead of* the chain."""

    CUTS = (0, 1, 9, 57)

    def _assert_unwound(self, chain, storage, failing_commit, commit):
        for cut in self.CUTS:
            root = chain.state.state_root()
            height = chain.height
            journal = len(chain._block_snaps)
            storage.block_log.fail_after_bytes = cut
            with pytest.raises(CrashPoint):
                failing_commit()
            assert chain.state.state_root() == root
            assert chain.height == height
            assert len(chain._block_snaps) == journal
            assert chain.state.open_snapshots == journal
            commit()                      # the next append succeeds
            assert chain.height == height + 1
            assert chain.state.state_root() != root
        chain.verify(deep=True)

    @pytest.mark.parametrize("depth", [0, 4])
    def test_append_block(self, depth, tmp_path):
        chain, storage = _open(str(tmp_path), depth=depth)
        rng = random.Random(3)

        def commit():
            chain.append_block(chain.build_block(
                _txs(rng, f"h{chain.height}", 2)))

        self._assert_unwound(chain, storage, commit, commit)
        storage.close()

    @pytest.mark.parametrize("depth", [0, 4])
    def test_anchor_service_flush(self, depth, tmp_path):
        chain, storage = _open(str(tmp_path), depth=depth)
        anchor = AnchorService(chain, batch_size=1000)
        serial = iter(range(10_000))

        def flush():
            anchor.enqueue({"record_id": f"r{next(serial)}",
                            "subject": "ns/x"})
            anchor.flush()

        self._assert_unwound(chain, storage, flush, flush)
        storage.close()

    @pytest.mark.parametrize("depth", [0, 4])
    def test_beacon_anchor_round(self, depth, tmp_path):
        storage = DurableStorage(str(tmp_path))
        beacon = BeaconChain(storage, _params(depth))
        heights = iter(range(1, 10_000))

        def anchor_round():
            beacon.anchor_round([(0, next(heights), b"\x11" * 32)])

        self._assert_unwound(beacon.chain, storage, anchor_round,
                             anchor_round)
        storage.close()


# ---------------------------------------------------------------------------
# Counted guards: where the durability choice is made
# ---------------------------------------------------------------------------
def _fsyncs() -> int:
    return telemetry().registry.counter("persist_fsyncs_total").value


class TestFsyncCounts:
    def test_block_paths(self, tmp_path):
        chain, storage = _open(str(tmp_path))
        before = _fsyncs()
        for block in STREAM[:3]:
            chain.append_block(block)
        assert _fsyncs() - before == 0       # deferred to the next group
        chain.append_blocks(STREAM[3:6])
        assert _fsyncs() - before == 1       # one per group
        chain.append_blocks(STREAM[6:], fsync=False)
        assert _fsyncs() - before == 1
        storage.close()

    def test_record_paths(self, tmp_path):
        sharded = ShardedChain(2, storage_dir=str(tmp_path),
                               anchor_batch_size=10_000)
        try:
            before = _fsyncs()
            for i in range(5):
                sharded.ingest_record({"record_id": f"one-{i}",
                                       "subject": f"ns{i}/obj"})
            assert _fsyncs() - before == 0
            records = [{"record_id": f"many-{i}", "subject": f"ns{i}/obj"}
                       for i in range(40)]
            buckets = {sharded.router.shard_for_subject(r["subject"])
                       for r in records}
            assert len(buckets) == 2
            sharded.ingest_records(records)
            assert _fsyncs() - before == len(buckets)   # one per bucket
        finally:
            sharded.close()


# ---------------------------------------------------------------------------
# Chain state owns its values
# ---------------------------------------------------------------------------
# kind -> (state namespace, whether the whole payload is the value)
ALIASED = {
    TxKind.DATA: ("data", False),
    TxKind.GOVERNANCE: ("governance", False),
    TxKind.PROVENANCE: ("provenance", True),
    TxKind.CROSS_CHAIN: ("crosschain", True),
}


def _nested_payload() -> dict:
    return {"key": "k", "param": "k", "anchor_id": "k", "message_id": "k",
            "value": {"size": 1, "parts": [{"n": 1}], "pair": ({"n": 1},)}}


def _open_bundle(storage) -> Blockchain:
    return Blockchain(_params(), store=storage.blocks,
                      snapshot_store=storage.state)


def _state_view(chain: Blockchain, namespace: str) -> tuple:
    return (chain.state.get(namespace, "k"), chain.state.state_root(),
            chain.state.dump_entries())


class TestStateOwnsItsValues:
    """``seal()`` freezes a payload's top level; the executor must not
    keep a reference into the rest.  (At the parent the state held the
    payload's own nested dict, so either edit below changed
    ``state.get`` under an unchanged ``state_root()`` and the next state
    image persisted a value no block produced.)"""

    @pytest.mark.parametrize("durable", [False, True])
    @pytest.mark.parametrize("through", ["held reference", "proxy"])
    @pytest.mark.parametrize("kind", list(ALIASED))
    def test_later_edits_do_not_reach_state(self, kind, through, durable,
                                            tmp_path):
        namespace, whole_payload = ALIASED[kind]

        def run(directory, edit: bool):
            storage = DurableStorage(directory) if durable \
                else MemoryStorage()
            chain = _open_bundle(storage)
            payload = _nested_payload()
            tx = Transaction("alice", kind, payload).seal()
            chain.append_block(chain.build_block([tx], timestamp=1))
            if edit:
                inner = payload["value"] if through == "held reference" \
                    else tx.payload["value"]
                inner["size"] = 5
                inner["parts"][0]["n"] = 5
                inner["parts"].append("more")
                inner["pair"][0]["n"] = 5
                # What the seal does not freeze, the recompute catches.
                assert tx.compute_tx_hash() != tx.tx_hash
            views = [_state_view(chain, namespace)]
            if durable:
                chain.checkpoint()      # the next state image
                storage.close()         # ... and a crash + reopen
                storage = DurableStorage(directory)
                chain = _open_bundle(storage)
                assert chain.blocks_replayed_on_open == 0
                views.append(_state_view(chain, namespace))
                chain.verify(deep=True)
            elif edit:
                # The memory store holds the live block, so the edit is
                # an edit of the stored block: the deep audit says so.
                with pytest.raises(TamperDetected):
                    chain.verify(deep=True)
            storage.close()
            return views

        clean = run(str(tmp_path / "clean"), edit=False)
        edited = run(str(tmp_path / "edited"), edit=True)
        assert edited == clean
        expected = _nested_payload()
        assert clean[0][0] == (expected if whole_payload
                               else expected["value"])
