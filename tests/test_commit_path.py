"""One way to commit: every entry point drives one skeleton over one
store write, so whichever path a block stream takes — one by one, in
groups, as an exec worker's deltas, and replayed on reopen after any of
those — the chain, the state, the index rows and the log bytes come out
identical, and no state snapshot outlives the group that opened it.

Also here: kill-at-every-byte over a group (none or all survives), the
store contract (a group with a bad height commits nothing, on either
store) and the counted one snapshot per group, the
``expected_state_root`` gate, the failed-append unwind regression, the
counted snapshot guard (a chain past 64 blocks holds no open snapshot
on any path), and
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
from repro.chain.blockchain import default_executor, execute_block
from repro.chain.receipts import TransactionReceipt
from repro.chain.state import StateStore
from repro.errors import ChainError, StorageError, TamperDetected
from repro.exec.worker import _handle_exec
from repro.obs.runtime import reset_default_telemetry, telemetry
from repro.persist.codec import encode_block
from repro.persist.durable import DurableStorage, clear_state_rows
from repro.persist.stores import MemoryStorage
from repro.persist.segment import CrashPoint
from repro.provenance.anchor import AnchorService
from repro.sharding.beacon import BeaconChain
from repro.sharding.shardchain import ShardedChain


N_BLOCKS = 7


def _params() -> ChainParams:
    return ChainParams(chain_id="commit-path")


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


def _open(directory: str | None, replay: bool = False):
    """``(chain, storage)`` on a durable directory, or a memory chain;
    with ``replay``, the store's state rows are deleted first, so every
    block replays."""
    if directory is None:
        return Blockchain(_params()), None
    if replay:
        clear_state_rows(directory)
    storage = DurableStorage(directory)
    chain = Blockchain(
        _params(), store=storage.blocks)
    return chain, storage


def _log_bytes(storage: DurableStorage) -> bytes:
    storage.block_log.sync()
    directory = storage.block_log.directory
    return b"".join(
        open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory)))


def _fingerprint(chain: Blockchain, storage) -> dict:
    assert chain.state.open_snapshots == 0
    fp = {
        "head": chain.head.block_hash,
        "height": chain.height,
        "state_root": chain.state.state_root(),
        "tx_count": chain.store.tx_count(),
        "tx_locations": {tx.tx_id: chain.store.tx_location(tx.tx_id)
                         for block in chain.blocks
                         for tx in block.transactions},
    }
    if storage is not None:
        conn = storage._conn
        for table in ("blocks", "txs"):
            fp[f"{table}_rows"] = sorted(
                tuple(bytes(v) if isinstance(v, (bytes, memoryview)) else v
                      for v in row)
                for row in conn.execute(f"SELECT * FROM {table}"))
        fp["log"] = _log_bytes(storage)
        # The state rows describe the head and hold exactly its state.
        fp["state_rows"] = storage.blocks.state_image()
        assert fp["state_rows"] == (chain.height, chain.state.dump_entries())
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
    process: job frames out, one net delta + root back per group."""
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
            "state": [list(e) for e in chain.state.dump_entries()],
        }, replicas, None)
        assert reply["status"] == "ok", reply
        chain.apply_executed_blocks(
            group, reply["delta"], frames,
            expected_state_root=reply["state_root"],
        )
    assert at == len(blocks)


PATHS = {
    "append_block": _commit_singly,
    "append_blocks": _commit_grouped,
    "apply_executed_blocks": _commit_worker_deltas,
}


def _run_path(path: str, directory: str | None, reopen: bool = False,
              **kwargs) -> dict:
    """Commit the stream one way and fingerprint the result; with
    ``reopen``, drop the process without a checkpoint first, then reopen
    — once as committed (nothing replays), once without the state rows,
    so every block is replayed from the store and its result written
    back as the rows."""
    chain, storage = _open(directory)
    try:
        PATHS[path](chain, STREAM, **kwargs)
        if reopen:
            storage.close()
            chain, storage = _open(directory)
            assert chain.blocks_replayed_on_open == 0
            storage.close()
            chain, storage = _open(directory, replay=True)
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
            assert chain.state.open_snapshots == 0
            storage.close()
            # ... and gone after recovery: no row, no byte.
            chain, storage = _open(directory)
            assert _fingerprint(chain, storage) == baseline, cut
        chain.append_blocks(group)
        storage.close()
        chain, storage = _open(directory, replay=True)
        assert chain.height == 2
        assert chain.blocks_replayed_on_open == 2
        chain.verify(deep=True)
        storage.close()


class TestStoreCommitsAGroupWhole:
    """The :meth:`~repro.persist.stores.BlockStore.append_blocks`
    contract: a store commits a group whole, or raises having committed
    nothing — so a chain rolls its group's one snapshot back and needs
    to ask the store nothing."""

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["memory", "durable"])
    def test_a_wrong_height_commits_nothing(self, durable, tmp_path):
        chain, storage = _open(str(tmp_path) if durable else None)
        chain.append_blocks(STREAM[:2])
        store = chain.store
        before = (store.height(), store.tx_count(), list(store.derived_rows()),
                  store.state_image())
        asked: list = []
        group = [STREAM[2], STREAM[4]]   # the second skips height 4
        with pytest.raises(StorageError):
            store.append_blocks(group, fsync=False,
                                derived={3: ["d3"], 5: ["d5"]},
                                state=lambda: asked.append(1) or [])
        assert (store.height(), store.tx_count(), list(store.derived_rows()),
                store.state_image()) == before
        assert all(store.tx_location(tx.tx_id) is None
                   for block in group for tx in block.transactions)
        assert asked == []
        chain.append_blocks(STREAM[2:])
        assert _fingerprint(chain, storage)["height"] == N_BLOCKS
        if storage is not None:
            storage.close()

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["memory", "durable"])
    @pytest.mark.parametrize("path", ["append_blocks",
                                      "apply_executed_blocks"])
    def test_one_snapshot_per_group(self, path, durable, tmp_path,
                                    monkeypatch):
        chain, storage = _open(str(tmp_path) if durable else None)
        group = STREAM[:5]
        delta = _shadow_delta(Blockchain(_params()), group)
        opened: list[int] = []
        snapshot = StateStore.snapshot

        def counted(state):
            handle = snapshot(state)
            opened.append(handle)
            return handle

        monkeypatch.setattr(StateStore, "snapshot", counted)
        if path == "append_blocks":
            chain.append_blocks(group)
        else:
            chain.apply_executed_blocks(
                group, delta, [encode_block(block) for block in group])
        assert len(opened) == 1
        assert chain.height == 5 and chain.state.open_snapshots == 0
        if storage is not None:
            storage.close()


# ---------------------------------------------------------------------------
# The state-root gate
# ---------------------------------------------------------------------------
def _shadow_delta(shadow: Blockchain, group: list[Block]) -> list:
    """What a worker ships for ``group``: executed on ``shadow``'s state
    under one snapshot, the group's net delta."""
    snap = shadow.state.snapshot()
    for block in group:
        execute_block(block, shadow.state, shadow.executor, shadow)
    delta = shadow.state.delta_since(snap)
    shadow.state.release_snapshots(snap)
    return delta


class TestWorkerDeltasCarryNoReceipts:
    def test_a_chain_with_subscribers_executes_its_own_blocks(self):
        """A worker returns a delta, not receipts, so a chain whose
        subscribers wait for receipts refuses its delta before
        anything moves, and the same group executed here announces every
        transaction's receipt."""
        chain, _ = _open(None)
        seen: list = []
        chain.subscribe(lambda block, receipts: seen.append(
            (block.height, [r.tx_id for r in receipts])))
        group = STREAM[:2]
        shadow = Blockchain(_params())
        delta = _shadow_delta(shadow, group)
        with pytest.raises(ChainError):
            chain.apply_executed_blocks(
                group, delta, [encode_block(block) for block in group],
                expected_state_root=shadow.state.state_root())
        assert chain.height == 0 and seen == []
        assert chain.state.open_snapshots == 0
        chain.append_blocks(group)
        assert seen == [(block.height, [tx.tx_id for tx in block.transactions])
                        for block in group]
        assert chain.state.state_root() == shadow.state.state_root()


class TestExpectedStateRoot:
    @pytest.mark.parametrize("durable", [False, True])
    def test_divergence_installs_nothing(self, durable, tmp_path):
        chain, storage = _open(str(tmp_path) if durable else None)
        chain.append_blocks(STREAM[:2])
        before = _fingerprint(chain, storage)
        group = STREAM[2:5]
        shadow = Blockchain(_params())
        shadow.append_blocks(STREAM[:2])
        delta = _shadow_delta(shadow, group)
        encoded = [encode_block(block) for block in group]
        with pytest.raises(TamperDetected):
            chain.apply_executed_blocks(
                group, delta, encoded, expected_state_root=b"\x00" * 32)
        assert _fingerprint(chain, storage) == before
        # The honest root commits the very same group.
        chain.apply_executed_blocks(
            group, delta, encoded,
            expected_state_root=shadow.state.state_root())
        assert chain.height == 5
        assert chain.state.state_root() == shadow.state.state_root()
        if storage is not None:
            storage.close()


# ---------------------------------------------------------------------------
# Regression: a failed commit leaves no half-applied block, at any cut
# ---------------------------------------------------------------------------
HISTORIES = pytest.mark.parametrize("history", [0, 70],
                                    ids=["fresh", "past-64-blocks"])


class TestFailedAppendUnwindsAtAnyDepth:
    """Once, a chain that kept no undo journal took no snapshot on the
    single-block path, so a store failure after execution left state
    *ahead of* the chain.  Every cut into the log, on every door that
    appends one block, must leave state, height and the snapshot stack
    as they were — on a fresh chain and on one whose history is deeper
    than the undo journal chains once kept."""

    CUTS = (0, 1, 9, 57)

    def _assert_unwound(self, chain, storage, failing_commit, commit,
                        history):
        for _ in range(history):
            commit()
        assert chain.height == history
        assert chain.state.open_snapshots == 0
        for cut in self.CUTS:
            root = chain.state.state_root()
            height = chain.height
            storage.block_log.fail_after_bytes = cut
            with pytest.raises(CrashPoint):
                failing_commit()
            assert chain.state.state_root() == root
            assert chain.height == height
            assert chain.state.open_snapshots == 0
            commit()                      # the next append succeeds
            assert chain.height == height + 1
            assert chain.state.state_root() != root
            assert chain.state.open_snapshots == 0
        chain.verify(deep=True)

    @HISTORIES
    def test_append_block(self, tmp_path, history):
        chain, storage = _open(str(tmp_path))
        rng = random.Random(3)

        def commit():
            chain.append_block(chain.build_block(
                _txs(rng, f"h{chain.height}", 2)))

        self._assert_unwound(chain, storage, commit, commit, history)
        storage.close()

    @HISTORIES
    def test_anchor_service_flush(self, tmp_path, history):
        chain, storage = _open(str(tmp_path))
        anchor = AnchorService(chain, batch_size=1000)
        serial = iter(range(10_000))

        def flush():
            anchor.enqueue({"record_id": f"r{next(serial)}",
                            "subject": "ns/x"})
            anchor.flush()

        self._assert_unwound(chain, storage, flush, flush, history)
        storage.close()

    @HISTORIES
    def test_beacon_anchor_round(self, tmp_path, history):
        storage = DurableStorage(str(tmp_path))
        beacon = BeaconChain(storage, _params())
        heights = iter(range(1, 10_000))

        def anchor_round():
            beacon.anchor_round([(0, next(heights), b"\x11" * 32, b"")])

        self._assert_unwound(beacon.chain, storage, anchor_round,
                             anchor_round, history)
        storage.close()


# ---------------------------------------------------------------------------
# Counted guard: no snapshot outlives its group
# ---------------------------------------------------------------------------
LONG_STREAM = _stream(seed=23, n_blocks=70, txs_per_block=1)
# Group sizes that cut LONG_STREAM exactly, per path that groups.
LONG_SIZES = {"apply_executed_blocks": {"sizes": (30, 25, 15)}}


class TestNoSnapshotOutlivesItsGroup:
    """A sealed block is final, so a chain keeps no undo information for
    it: past 64 committed blocks (the depth of the undo journal chains
    once kept), every commit path, the reopen replay and a
    failed-then-retried group leave no open snapshot."""

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["memory", "durable"])
    @pytest.mark.parametrize("path", list(PATHS))
    def test_every_path_and_the_reopen_replay(self, path, durable,
                                              tmp_path):
        directory = str(tmp_path) if durable else None
        chain, storage = _open(directory)
        PATHS[path](chain, LONG_STREAM, **LONG_SIZES.get(path, {}))
        assert chain.height == len(LONG_STREAM) > 64
        assert chain.state.open_snapshots == 0
        if storage is None:
            chain = Blockchain(_params(), store=chain.store)
        else:
            storage.close()
            chain, storage = _open(directory, replay=True)
        assert chain.blocks_replayed_on_open == len(LONG_STREAM)
        assert chain.state.open_snapshots == 0
        if storage is not None:
            storage.close()

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["memory", "durable"])
    def test_failed_then_retried_group(self, durable, tmp_path,
                                       monkeypatch):
        chain, storage = _open(str(tmp_path) if durable else None)
        chain.append_blocks(LONG_STREAM[:66])
        group = LONG_STREAM[66:]
        if storage is None:
            def fail(*args, **kwargs):
                raise CrashPoint("injected store failure")

            monkeypatch.setattr(chain.store, "append_blocks", fail)
        else:
            storage.block_log.fail_after_bytes = 9
        with pytest.raises(CrashPoint):
            chain.append_blocks(group)
        assert chain.height == 66
        assert chain.state.open_snapshots == 0
        monkeypatch.undo()
        chain.append_blocks(group)
        assert chain.height == len(LONG_STREAM)
        assert chain.state.open_snapshots == 0
        if storage is not None:
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
    return Blockchain(_params(), store=storage.blocks)


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


# ---------------------------------------------------------------------------
# The state rows follow the head on every path
# ---------------------------------------------------------------------------
def _deleting_executor(tx, state, chain):
    """The default executor, except that a data write of ``None``
    deletes its key — so groups carry deletions as well as upserts."""
    if tx.kind is TxKind.DATA and tx.payload["value"] is None:
        state.delete("data", tx.payload["key"])
        return TransactionReceipt(tx_id=tx.tx_id, success=True, gas_used=1)
    return default_executor(tx, state, chain)


def _open_deleting(directory: str):
    storage = DurableStorage(directory)
    return Blockchain(_params(), executor=_deleting_executor,
                      store=storage.blocks), storage


def _blocks_on(chain: Blockchain, specs, nonce: list[int]) -> list[Block]:
    """Consecutive blocks above ``chain``'s head, one per spec: each a
    list of ``(key, value or None)`` data writes."""
    blocks, prev = [], chain.head
    for spec in specs:
        txs = []
        for key, value in spec:
            nonce[0] += 1
            txs.append(Transaction("rows", TxKind.DATA,
                                   {"key": f"k{key}", "value": value},
                                   nonce=nonce[0]).seal())
        prev = Block(height=prev.height + 1, prev_hash=prev.block_hash,
                     transactions=txs, timestamp=prev.height + 1)
        blocks.append(prev)
    return blocks


def _worker_delta(chain: Blockchain, blocks: list[Block]) -> tuple:
    """What an exec worker returns for ``blocks``: the group's net
    :meth:`~repro.chain.state.StateStore.delta_since` its one snapshot,
    run on a replica of ``chain``'s state, and the replica's root."""
    replica = StateStore()
    replica.load_entries(chain.state.dump_entries())
    handle = replica.snapshot()
    for block in blocks:
        execute_block(block, replica, _deleting_executor, chain)
    return replica.delta_since(handle), replica.state_root()


def assert_rows_follow(chain: Blockchain, storage: DurableStorage) -> None:
    """The rows describe the head, hold exactly its state, and equal a
    from-genesis replay of the stored blocks."""
    assert storage.blocks.state_image() == (chain.height,
                                            chain.state.dump_entries())
    replay = Blockchain(_params(), executor=_deleting_executor)
    for height in range(1, chain.height + 1):
        replay.append_block(chain.block_at(height))
    assert replay.state.dump_entries() == chain.state.dump_entries()
    assert replay.state.state_root() == chain.state.state_root()


write = st.tuples(st.integers(0, 5),
                  st.one_of(st.none(), st.integers(0, 99)))
step = st.tuples(
    st.sampled_from(["group", "single with a derived row", "worker deltas",
                     "reopen", "reopen without rows"]),
    st.lists(st.lists(write, max_size=4), min_size=1, max_size=3))


class TestStateRowsFollowTheHead:
    """Each commit group writes its net state change as the store's
    state rows in its own transaction, so after any path the rows are
    the head's state; a reopen loads them and replays nothing, unless
    they are missing (then it replays and writes them back) or recovery
    dropped the block they described (then they went with it)."""

    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(step, min_size=1, max_size=6),
           lost_tail=st.booleans())
    def test_after_every_path(self, steps, lost_tail):
        nonce = [0]
        with tempfile.TemporaryDirectory() as directory:
            chain, storage = _open_deleting(directory)
            try:
                for path, specs in steps:
                    if path == "group":
                        chain.append_blocks(_blocks_on(chain, specs, nonce))
                    elif path == "single with a derived row":
                        for block in _blocks_on(chain, specs[:1], nonce):
                            chain.append_block(block, derived=[block.height])
                    elif path == "worker deltas":
                        blocks = _blocks_on(chain, specs, nonce)
                        delta, root = _worker_delta(chain, blocks)
                        chain.apply_executed_blocks(
                            blocks, delta,
                            [encode_block(b) for b in blocks],
                            expected_state_root=root)
                    else:
                        storage.close()
                        replay = path == "reopen without rows"
                        if replay:
                            clear_state_rows(directory)
                        chain, storage = _open_deleting(directory)
                        assert chain.blocks_replayed_on_open == (
                            chain.height if replay else 0)
                    assert_rows_follow(chain, storage)
                if lost_tail:
                    # The last single append's frame was never fsynced
                    # and the power went: the walk drops its block, the
                    # rows that described it go too, and the reopen
                    # replays from genesis to the state below it.
                    (block,) = _blocks_on(chain, [[(0, 7)]], nonce)
                    chain.append_block(block, derived=[block.height])
                    below = chain.height - 1
                    storage.close()
                    log = storage.block_log.directory
                    tail = os.path.join(log, sorted(os.listdir(log))[-1])
                    os.truncate(tail, os.path.getsize(tail) - 3)
                    chain, storage = _open_deleting(directory)
                    assert storage.recovered_blocks == 1
                    assert chain.height == below
                    assert chain.blocks_replayed_on_open == below
                    assert list(storage.blocks.derived_rows()) == [
                        row for row in storage.blocks.derived_rows()
                        if row[0] <= below]
                    assert_rows_follow(chain, storage)
            finally:
                storage.close()

    def test_rows_lag_blocks_appended_without_state(self, tmp_path):
        """Blocks written below the chain (as sync's raw tail is) leave
        the rows where they were, and a group the chain commits on top
        does not claim them: the rows lag until a reopen replays."""
        nonce = [0]
        chain, storage = _open_deleting(str(tmp_path))
        try:
            chain.append_blocks(_blocks_on(chain, [[(0, 1)]], nonce))
            storage.blocks.append_blocks(
                _blocks_on(chain, [[(1, 2)], [(0, None)]], nonce))
            chain.append_blocks(_blocks_on(chain, [[(2, 3)]], nonce))
            assert storage.blocks.state_image()[0] == 1
            storage.close()
            chain, storage = _open_deleting(str(tmp_path))
            assert chain.blocks_replayed_on_open == 3
            assert_rows_follow(chain, storage)
        finally:
            storage.close()

    def test_process_engine(self, tmp_path):
        """Rounds sealed by exec workers commit the parent's applied
        deltas as the rows; a crash then reopens without a replay."""
        directory = str(tmp_path / "store")
        tel = reset_default_telemetry()
        sharded = ShardedChain(2, storage_dir=directory,
                               executor="process", exec_workers=1)
        for r in range(3):
            sharded.submit_many([
                Transaction(f"acct-{i}", TxKind.DATA,
                            {"subject": f"s{i}", "key": f"k{i % 5}",
                             "value": r * 10 + i},
                            nonce=r * 100 + i, timestamp=r).seal()
                for i in range(12)])
            sharded.seal_round(timestamp=r + 1)
        assert tel.registry.counter(
            "exec_rounds_offloaded_total").value > 0
        assert tel.registry.counter("exec_fallback_total").value == 0
        heads = []
        for shard in sharded.shards:
            chain = shard.chain
            assert shard.storage.blocks.state_image() == (
                chain.height, chain.state.dump_entries())
            heads.append((chain.height, chain.state.state_root()))
        sharded.crash()
        sharded = ShardedChain(2, storage_dir=directory)
        try:
            assert [(s.chain.height, s.chain.state.state_root())
                    for s in sharded.shards] == heads
            assert [s.chain.blocks_replayed_on_open
                    for s in sharded.shards] == [0, 0]
        finally:
            sharded.close()
