"""The one ``Storage`` shape: a deployment behaves the same on
``MemoryStorage`` and ``DurableStorage`` bundles, the facade opens them
in one place (and closes what it opened when an open fails), and
``persist`` sits under everything that uses it.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import sqlite3
import subprocess
import sys
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro
from repro.chain import Transaction, TxKind
from repro.chain.block import GENESIS_PREV_HASH, Block
from repro.errors import StorageError
from repro.persist import DurableStorage, MemoryStorage
from repro.persist.codec import canonical_decode, decode_block
from repro.serialization import canonical_encode
from repro.sharding import (
    COMMITTED,
    CrossShardCoordinator,
    ShardedChain,
    ShardedQueryEngine,
)


def _cross_pair(sharded: ShardedChain) -> tuple[str, str]:
    src = "handoff-src/asset"
    home = sharded.router.shard_for_subject(src)
    for j in range(64):
        tgt = f"handoff-tgt-{j}/asset"
        if sharded.router.shard_for_subject(tgt) != home:
            return src, tgt
    raise AssertionError("no cross-shard pair")


def _fds_under(directory: str) -> list[str]:
    """Paths of this process's open descriptors below ``directory``."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    paths = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            path = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if path.startswith(directory):
            paths.append(path)
    return paths


def _run_script(sharded: ShardedChain, seed: int) -> dict:
    """Submits, records, anchor flushes at seeded rounds, one 2PC
    handoff, rounds — then everything a verifier could compare."""
    rng = random.Random(seed)
    coord = CrossShardCoordinator(sharded)
    src, tgt = _cross_pair(sharded)
    transfer = None
    ingested: list[tuple[str, str]] = []
    for r in range(10):
        sharded.submit_many([
            Transaction(f"acct-{rng.randrange(7)}", TxKind.DATA,
                        {"subject": f"ns{rng.randrange(13)}/obj{i % 5}",
                         "key": f"k{r}-{i}", "value": rng.randrange(1000)},
                        nonce=r * 1000 + i, timestamp=r).seal()
            for i in range(rng.randrange(5, 40))])
        records = [{"record_id": f"rec-{r:02d}-{i:03d}",
                    "subject": f"ns{rng.randrange(13)}/obj{i % 5}",
                    "actor": f"a{rng.randrange(5)}", "operation": "write",
                    "timestamp": r * 1000 + i}
                   for i in range(rng.randrange(1, 20))]
        sharded.ingest_records(records)
        ingested.extend((rec["record_id"], rec["subject"])
                        for rec in records)
        if r == 3:
            transfer = coord.begin(src, tgt, {"qty": seed}, timestamp=r)
        if rng.random() < 0.4:
            sharded.flush_anchors()
        sharded.seal_round(timestamp=r + 1)
    sharded.flush_anchors()
    sharded.seal_round(timestamp=100)
    assert transfer.state == COMMITTED

    engine = ShardedQueryEngine(sharded)
    proofs = []
    sample = rng.sample(ingested, 24) + [
        (f"{transfer.xid}:out", src), (f"{transfer.xid}:in", tgt)]
    for record_id, subject in sample:
        record = sharded.shard_for_subject(subject).database.get(record_id)
        proof = engine.federated_proof(record_id, subject)
        header = sharded.beacon.chain.block_at(proof.beacon_height).header
        assert proof.verify(record, header)
        proofs.append(hashlib.sha256(canonical_encode({
            "record": record,
            "shard": proof.shard_id,
            "batch_root": proof.anchor_bundle.batch_root,
            "anchor_tx": proof.anchor_bundle.anchor_tx.tx_hash,
            "shard_block": proof.shard_header.block_hash,
            "round_root": proof.beacon_bundle.shard_proof.round_root,
            "beacon_block": header.block_hash,
        })).hexdigest())
    return {
        "heads": [s.chain.head.block_hash for s in sharded.shards],
        "roots": [s.chain.state.state_root() for s in sharded.shards],
        "beacon": sharded.beacon.chain.head.block_hash,
        "rounds": sharded.rounds_sealed,
        "anchored": [s.anchored_height for s in sharded.shards],
        "wal": sharded.meta.get_meta(f"xshard/t/{transfer.xid}"),
        "proofs": proofs,
    }


class TestMemoryDurableParity:
    @pytest.mark.parametrize("seed", [3, 17, 40, 91])
    def test_same_script_same_commitments(self, tmp_path, seed):
        options = dict(max_block_txs=16, anchor_batch_size=8,
                       checkpoint_every_rounds=4, executor="serial")
        in_memory = ShardedChain(4, **options)
        assert isinstance(in_memory.meta, MemoryStorage)
        expect = _run_script(in_memory, seed)
        in_memory.close()

        store = str(tmp_path / "store")
        durable = ShardedChain(4, storage_dir=store, **options)
        assert isinstance(durable.meta, DurableStorage)
        assert _run_script(durable, seed) == expect
        durable.close()
        # ... and the durable one still says so after a reopen.
        reopened = ShardedChain(4, storage_dir=store, **options)
        assert [s.chain.head.block_hash for s in reopened.shards] == \
            expect["heads"]
        assert [s.chain.state.state_root() for s in reopened.shards] == \
            expect["roots"]
        assert reopened.beacon.chain.head.block_hash == expect["beacon"]
        assert reopened.rounds_sealed == expect["rounds"]
        reopened.close()

    def test_memory_checkpoint_copies_no_state_image(self):
        sharded = ShardedChain(2, checkpoint_every_rounds=1)
        sharded.submit(Transaction("a", TxKind.DATA,
                                   {"subject": "ns/x", "key": "k",
                                    "value": 1}).seal())
        for shard in sharded.shards:
            shard.chain.state.dump_entries = None   # would raise if called
        sharded.seal_round()
        sharded.checkpoint()
        sharded.close()


class BlockStoreMachine(RuleBasedStateMachine):
    """A memory and a durable block store, driven through the same
    appends, truncations, raw installs (each store installs the other's
    raw items) and durable reopens, answer every read the same."""

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="block-store-parity-")
        self.storage = DurableStorage(self.directory)
        self.memory = MemoryStorage().blocks
        self.tx_ids: list[str] = []

    def teardown(self) -> None:
        self.storage.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _stores(self):
        return self.memory, self.storage.blocks

    def _group(self, shapes) -> tuple[list, dict]:
        """Blocks on the head, ``shapes[i]`` = (transactions, derived
        row?) of block ``i``, with derived rows."""
        head = self.memory.height()
        prev = GENESIS_PREV_HASH if head < 0 \
            else self.memory.head_block().block_hash
        blocks, derived = [], {}
        for n_txs, with_row in shapes:
            height = head + 1 + len(blocks)
            txs = []
            for _ in range(n_txs):
                n = len(self.tx_ids)
                txs.append(Transaction(f"s{n % 3}", TxKind.DATA,
                                       {"key": f"k{n}", "value": n},
                                       nonce=n, timestamp=n).seal())
                self.tx_ids.append(txs[-1].tx_id)
            block = Block(height=height, prev_hash=prev, transactions=txs,
                          timestamp=height)
            blocks.append(block)
            if with_row:
                derived[height] = {"height": height, "txs": n_txs}
            prev = block.block_hash
        return blocks, derived

    @rule(shapes=st.lists(st.tuples(st.integers(0, 3), st.booleans()),
                          min_size=1, max_size=3))
    def append(self, shapes):
        blocks, derived = self._group(shapes)
        for store in self._stores():
            store.append_blocks(blocks, derived=derived)

    def _truncate_above(self, height: int) -> None:
        """The durable store truncates; the memory model (which never
        truncates) is rebuilt from the blocks and rows it keeps."""
        kept = [self.memory.block_at(h) for h in range(height + 1)]
        rows = {h: row for h, row in self.memory.derived_rows()
                if h <= height}
        self.memory = MemoryStorage().blocks
        self.memory.append_blocks(kept, derived=rows)
        self.storage.blocks.truncate_above(height)

    @precondition(lambda self: self.memory.height() >= 0)
    @rule(data=st.data())
    def truncate(self, data):
        self._truncate_above(
            data.draw(st.integers(0, self.memory.height())))

    @precondition(lambda self: self.memory.height() >= 1)
    @rule(data=st.data())
    def reinstall(self, data):
        """Cut both stores back, then give each the other's raw items
        for the blocks it lost."""
        memory, durable = self._stores()
        height = data.draw(st.integers(0, memory.height() - 1))
        count = memory.height() - height
        from_memory = memory.raw_block_items(height + 1, count)
        from_durable = durable.raw_block_items(height + 1, count)
        self._truncate_above(height)
        durable.install_raw(from_memory)
        self.memory.append_blocks(
            [decode_block(item["frame"], expected_hash=item["block_hash"])
             for item in from_durable],
            derived={item["height"]: canonical_decode(item["derived"])
                     for item in from_durable
                     if item["derived"] is not None})

    @rule()
    def reopen(self):
        self.storage.close()
        self.storage = DurableStorage(self.directory)

    @invariant()
    def both_answer_the_same(self):
        memory, durable = self._stores()
        assert durable.height() == memory.height()
        for tx_id in self.tx_ids:
            assert durable.tx_location(tx_id) == memory.tx_location(tx_id)
        assert durable.tx_count() == memory.tx_count()
        assert list(durable.derived_rows()) == list(memory.derived_rows())
        count = memory.height() + 1
        assert durable.raw_block_items(0, count) \
            == memory.raw_block_items(0, count)


BlockStoreMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=12, deadline=None)
TestBlockStoreParity = BlockStoreMachine.TestCase


class TestBundlesReadTheSame:
    def test_raw_record_scan_is_the_copying_scan(self, tmp_path):
        """Both bundles serve the read-only scan the query benches time
        with the same rows, in the same order, as the copying one; a
        memory bundle has nothing to sync or close."""
        from repro.persist.codec import encode_record

        records = [{"record_id": f"r{i}", "subject": f"s{i % 3}",
                    "actor": "a", "operation": "o", "timestamp": i}
                   for i in range(5)]
        memory = MemoryStorage()
        durable = DurableStorage(str(tmp_path / "store"))
        try:
            for bundle in (memory, durable):
                bundle.records.append_many(
                    records, [encode_record(r) for r in records], fsync=True)
                assert [(p, dict(r))
                        for p, r in bundle.records.iter_items_raw()] \
                    == list(enumerate(bundle.records.iter_records())) \
                    == list(enumerate(records))
        finally:
            durable.close()
        memory.blocks.sync()
        memory.sync()
        memory.blocks.close()
        memory.close()
        assert len(memory.records) == 5


class TestSingleOpenSite:
    @pytest.mark.parametrize("error", [
        StorageError("injected open failure"),
        sqlite3.OperationalError("injected: unable to open database file"),
    ], ids=["storage-error", "sqlite-error"])
    def test_failed_open_closes_what_it_opened(self, tmp_path,
                                               monkeypatch, error):
        store = str(tmp_path / "store")
        first = ShardedChain(4, storage_dir=store, anchor_batch_size=2)
        first.ingest_records([
            {"record_id": f"r{i}", "subject": f"ns{i}/x", "actor": "a",
             "operation": "w", "timestamp": i} for i in range(8)])
        first.flush_anchors()
        first.seal_round(timestamp=1)
        heads = [s.chain.head.block_hash for s in first.shards]
        first.close()

        real_init, real_close = DurableStorage.__init__, DurableStorage.close
        opened: list[DurableStorage] = []
        closed: list[str] = []
        assert not _fds_under(store)

        def failing_init(self, directory, *args, **kwargs):
            if os.path.basename(os.fspath(directory)) == "shard-2":
                raise error
            real_init(self, directory, *args, **kwargs)
            opened.append(self)

        def tracking_close(self):
            closed.append(os.path.basename(self.directory))
            real_close(self)

        with monkeypatch.context() as patch:
            patch.setattr(DurableStorage, "__init__", failing_init)
            patch.setattr(DurableStorage, "close", tracking_close)
            with pytest.raises(type(error)):
                ShardedChain(4, storage_dir=store, anchor_batch_size=2)
        assert closed == ["beacon", "shard-0", "shard-1"]
        for storage in opened:
            with pytest.raises(sqlite3.ProgrammingError):
                storage._conn.execute("SELECT 1")
        assert not _fds_under(store)

        again = ShardedChain(4, storage_dir=store, anchor_batch_size=2)
        assert [s.chain.head.block_hash for s in again.shards] == heads
        assert all(s.chain.blocks_replayed_on_open == 0
                   for s in again.shards)
        again.verify_all(deep=True)
        again.close()

    def test_layout_mismatch_closes_the_beacon_store(self, tmp_path,
                                                     monkeypatch):
        store = str(tmp_path / "store")
        ShardedChain(2, storage_dir=store).close()
        closed: list[str] = []
        real_close = DurableStorage.close

        def tracking_close(self):
            closed.append(os.path.basename(self.directory))
            real_close(self)

        monkeypatch.setattr(DurableStorage, "close", tracking_close)
        from repro.errors import ShardError

        with pytest.raises(ShardError):
            ShardedChain(3, storage_dir=store)
        assert closed == ["beacon"]
        assert not os.path.exists(os.path.join(store, "shard-2"))


class TestLayering:
    def test_persist_loads_nothing_above_it(self, tmp_path):
        """``repro/__init__`` re-exports every layer, so the probe gives
        the interpreter a bare ``repro`` package and imports ``persist``
        through its own import graph — then drives a block and a record
        write, a reopen and a block read back from the log."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = f"""
import sys, types
pkg = types.ModuleType("repro")
pkg.__path__ = [{os.path.join(src, "repro")!r}]
sys.modules["repro"] = pkg
import repro.chain          # persist's codec needs the block classes
import repro.persist as persist
from repro.chain import Blockchain, ChainParams

storage = persist.DurableStorage({str(tmp_path / "s")!r})
chain = Blockchain(ChainParams(chain_id="probe"), store=storage.blocks)
for height in range(1, 6):
    chain.append_block(chain.build_block([], timestamp=height))
persist.ProvenanceDatabase(store=storage.records).insert(
    {{"record_id": "r", "subject": "s"}})
storage.close()
storage = persist.DurableStorage({str(tmp_path / "s")!r})
assert storage.blocks.block_at(1).height == 1
storage.close()
above = sorted(name for name in sys.modules if name.startswith(
    ("repro.storage", "repro.sharding", "repro.sync")))
assert not above, above
"""
        subprocess.run([sys.executable, "-c", probe], check=True,
                       timeout=60)
