"""Every trust claim has an exploit test.

One row per claim the system makes to a party that does not trust the
one serving it, written as the attacker would run it, with only what that
party holds (here: a snapshot server's own store and what it serves).  A
row asserts that the attack *fails*.  Rows whose attack succeeds today
are marked ``xfail(strict=True, raises=AttackSucceeded)`` with the item
that fixes them named in the reason:

* a row starts passing only when the program is fixed (never edit the
  exploit to make it pass), and strict mode then fails the suite until
  the marker is removed;
* ``raises=AttackSucceeded`` keeps the marker from hiding anything else:
  an exploit that breaks (a forgery that cannot be built, a server that
  errors) fails the row outright.

Rows:

* **forged state image** (xfail until the state root binds): the state
  root is an XOR of per-entry digests, so a server picks, by Gaussian
  elimination over GF(2), which of its other entries to "annotate" so
  that moving one lot's custody keeps the root.  The replica checks an
  image against that root and nothing else, and installs the forgery;
* **forged record** (holds since records are checked against the leaves
  their installed anchor rows commit): a server edits one anchored
  record of its image; the replica refuses the image.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.chain import Transaction, TxKind
from repro.crypto.hashing import hash_canonical
from repro.errors import SyncError
from repro.persist import DurableStorage
from repro.sharding import ShardedChain
from repro.sync import SnapshotServer

from .test_sync import ByzantineServer, Env, build_source, log_files


class AttackSucceeded(AssertionError):
    """The exploit got what it wanted: the row's trust claim fails."""


def _digest(namespace: str, key: str, value) -> int:
    """One state entry's contribution to the XOR-folded state root, as
    anyone can compute it from the entry (the public hash)."""
    return int.from_bytes(hash_canonical([namespace, key, value]), "big")


def xhash_forge(entries: list, target: tuple[str, str], value) -> list:
    """``entries`` with ``target`` set to ``value`` and a harmless
    ``"note"`` planted in a subset of the other (mapping-valued) entries,
    chosen so that the XOR of every entry's digest, and the entry count,
    are the honest ones.  The subset is one solution of a linear system
    over GF(2): each candidate contributes the XOR of its digest with and
    without the note; the sum must be the target's change."""
    want = 0
    candidates = []
    for index, (namespace, key, old) in enumerate(entries):
        if (namespace, key) == target:
            want = _digest(namespace, key, old) ^ _digest(namespace, key,
                                                          value)
        elif isinstance(old, dict):
            candidates.append((index, _digest(namespace, key, old)
                               ^ _digest(namespace, key,
                                         dict(old, note="audited"))))
    basis: dict[int, tuple[int, int]] = {}  # top bit -> (vector, subset)
    for bit, (_, vector) in enumerate(candidates):
        subset = 1 << bit
        while vector:
            top = vector.bit_length() - 1
            if top not in basis:
                basis[top] = (vector, subset)
                break
            vector ^= basis[top][0]
            subset ^= basis[top][1]
    chosen = 0
    while want:
        top = want.bit_length() - 1
        if top not in basis:
            raise ValueError("no subset of the candidates reaches the root")
        want ^= basis[top][0]
        chosen ^= basis[top][1]
    noted = {candidates[bit][0] for bit in range(len(candidates))
             if chosen >> bit & 1}
    return [(namespace, key, value) if (namespace, key) == target
            else (namespace, key, dict(old, note="audited"))
            if index in noted else (namespace, key, old)
            for index, (namespace, key, old) in enumerate(entries)]


class ForgedStateServer(SnapshotServer):
    """Serves its shard's image with the state entries replaced by
    ``forged`` (records untouched): chunked and hashed into the manifest
    like an honest image."""

    def __init__(self, sharded, forged: list) -> None:
        super().__init__(sharded)
        self.forged = forged

    def _image_for(self, shard, height, head_hash, state_root):
        forged = self.forged
        shard = SimpleNamespace(
            shard_id=shard.shard_id, database=shard.database,
            chain=SimpleNamespace(
                chain_id=shard.chain.chain_id,
                state=SimpleNamespace(dump_entries=lambda: forged)))
        return super()._image_for(shard, height, head_hash, state_root)


N_LOTS = 300
LOT = ("data", "lot-0000")


def custody_source() -> ShardedChain:
    """One shard whose state is 300 lots in orgA's custody, sealed and
    beacon-anchored with its state root."""
    sharded = ShardedChain(1, max_block_txs=100)
    report = sharded.submit_many([
        Transaction("orgA/registrar", TxKind.DATA,
                    {"subject": f"orgA/lot-{i:04d}", "key": f"lot-{i:04d}",
                     "value": {"custodian": "orgA", "lot": i}},
                    nonce=i).seal()
        for i in range(N_LOTS)])
    assert report.rejected_total == 0
    while sharded.mempool_backlog:
        sharded.seal_round()
    shard = sharded.shard(0)
    assert len(shard.chain.state.dump_entries()) == N_LOTS
    assert sharded.beacon.anchored_entry(0, shard.chain.height) is not None
    return sharded


class TestForgedStateImage:
    @pytest.mark.xfail(strict=True, raises=AttackSucceeded,
                       reason="ROADMAP item 2: XOR-fold state root")
    def test_moved_custody_under_the_same_root_is_refused(self, tmp_path):
        sharded = custody_source()
        honest = sharded.shard(0).chain.state.dump_entries()
        forged = xhash_forge(honest, LOT, {"custodian": "orgX", "lot": 0})
        env = Env(sharded, server_cls=ForgedStateServer, forged=forged)
        replica = env.replica(tmp_path)
        try:
            replica.catch_up(max_retries=0)
        except SyncError:
            return                      # refused: the claim holds
        finally:
            sharded.close()
        custodian = replica.chain.state.get(*LOT)["custodian"]
        replica.close()
        if custodian != "orgA":
            raise AttackSucceeded(
                f"the replica installed a forged image: lot-0000 is in "
                f"{custodian}'s custody under the beacon-anchored root")


class TestForgedRecord:
    def test_an_edited_anchored_record_is_refused(self, tmp_path):
        sharded, _ = build_source()
        env = Env(sharded, server_cls=ByzantineServer, mode="record_body")
        replica = env.replica(tmp_path)
        try:
            replica.catch_up(max_retries=0)
        except SyncError as err:
            assert err.reason == "forged_record"
        else:
            raise AttackSucceeded("the replica installed an edited record")
        finally:
            sharded.close()
        directory = str(tmp_path / "rep")
        storage = DurableStorage(directory)
        assert len(storage.records) == 0
        assert storage.blocks.height() == -1
        storage.close()
        assert not any(log_files(directory).values())
