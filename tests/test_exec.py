"""Process-pool execution engine: determinism, fault handling, guards.

The engine's admission bar (ISSUE 6): commitments — beacon state,
per-shard state roots, federated proofs — must be byte-identical no
matter which executor sealed the rounds, a worker killed mid-round must
degrade to in-process execution without losing a transaction, and no
durable handle may ever cross into a worker.
"""

from __future__ import annotations

import os

import pytest

from repro.chain import Transaction, TxKind
from repro.contracts.contract import Contract, method
from repro.contracts.runtime import ContractRuntime
from repro.crypto.hashing import hash_hex
from repro.crypto.signatures import KeyPair
from repro.errors import ShardError, StorageError
from repro.exec.pool import ProcessExecPool
from repro.persist import DurableStorage
from repro.persist.codec import canonical_decode
from repro.serialization import canonical_encode
from repro.sharding import ShardedChain, ShardedQueryEngine

N_SHARDS = 4


class Tally(Contract):
    """Small stateful contract: every call mutates two keys, so a lost
    or re-ordered call shows up in the state root immediately."""

    def setup(self) -> None:
        self.storage.set("calls", 0)

    @method
    def bump(self, key: str = "", value: int = 0) -> dict:
        self.charge(1)
        self.storage.set(key, value)
        calls = int(self.storage.get("calls", 0)) + 1
        self.storage.set("calls", calls)
        return {"calls": calls}


def runtime_factory() -> ContractRuntime:
    rt = ContractRuntime()
    rt.register(Tally)
    return rt


RECORDS = [
    {"record_id": f"r{i:03d}", "subject": f"exec/asset-{i % 7}",
     "actor": f"actor-{i % 3}", "operation": "update", "timestamp": i}
    for i in range(24)
]


def beacon_commitments(sc: ShardedChain) -> tuple:
    """The beacon's whole proof state, read the way a verifier does:
    every round receipt plus the anchoring proof of every shard block."""
    return list(sc.beacon.receipts), [
        sc.beacon.prove_shard_block(
            s, h, sc.shard(s).chain.block_at(h).block_hash)
        for s in range(N_SHARDS)
        for h in range(1, sc.shard(s).chain.height + 1)
    ]


def run_deployment(executor: str, workers: int | None, store_dir: str,
                   kill_round: int | None = None) -> dict:
    """One full deployment: contract deploy + records + mixed rounds,
    returning every commitment an executor could possibly disturb."""
    sc = ShardedChain(
        N_SHARDS, storage_dir=store_dir,
        executor=executor, exec_workers=workers,
        contract_runtime_factory=runtime_factory,
    )
    deploy = Transaction(
        sender="deployer", kind=TxKind.CONTRACT_DEPLOY,
        payload={"contract": "Tally", "args": {}},
        nonce=999, timestamp=1).seal()
    sc.submit(deploy)
    address = "ct-" + hash_hex({"deploy": deploy.tx_id})[:16]
    sc.ingest_records(RECORDS)
    sc.flush_anchors()
    sc.seal_round(timestamp=10)

    n = 0
    for r in range(3):
        for _ in range(8 * N_SHARDS):
            if n % 3 == 0:
                tx = Transaction(
                    sender=f"acct-{n % 9}", kind=TxKind.CONTRACT_CALL,
                    payload={"address": address, "entry": "bump",
                             "args": {"key": f"k{n}", "value": n}},
                    nonce=n, timestamp=100 + n)
            else:
                tx = Transaction(
                    sender=f"acct-{n % 9}", kind=TxKind.DATA,
                    payload={"key": f"d{n}", "value": n},
                    nonce=n, timestamp=100 + n)
            sc.submit(tx.seal())
            n += 1
        if kill_round == r and sc.engine.pool is not None:
            sc.engine.pool.kill_worker(0)
        sc.seal_round(timestamp=1_000 + r)

    rid = next(r["record_id"] for r in RECORDS
               if sc.shard_for_subject(r["subject"])
               .anchor.is_anchored(r["record_id"]))
    record = next(r for r in RECORDS if r["record_id"] == rid)
    proof = ShardedQueryEngine(sc).federated_proof(
        rid, subject=record["subject"])
    header = sc.beacon.chain.block_at(proof.beacon_height).header
    assert proof.verify(record, header)

    out = {
        "beacon": beacon_commitments(sc),
        "roots": [sc.shard(s).chain.state.state_root()
                  for s in range(N_SHARDS)],
        "heights": [sc.shard(s).chain.height for s in range(N_SHARDS)],
        "txs_committed": sc.total_txs_committed,
        "proof_shard_header": proof.shard_header.block_hash,
        "proof_beacon_height": proof.beacon_height,
        "respawns": (sc.engine.pool.respawns
                     if sc.engine.pool is not None else 0),
    }
    sc.close()
    return out


COMMITMENT_KEYS = ("beacon", "roots", "heights", "txs_committed",
                   "proof_shard_header", "proof_beacon_height")


@pytest.fixture(scope="module")
def serial_commitments(tmp_path_factory):
    root = tmp_path_factory.mktemp("exec-serial")
    return run_deployment("serial", None, str(root / "store"))


class TestExecutorParity:
    @pytest.mark.parametrize("executor,workers", [
        ("thread", N_SHARDS),
        ("process", 1),
        ("process", 2),
    ])
    def test_commitments_identical_across_executors(
            self, tmp_path, serial_commitments, executor, workers):
        run = run_deployment(executor, workers, str(tmp_path / "store"))
        for key in COMMITMENT_KEYS:
            assert run[key] == serial_commitments[key], key

    def test_worker_killed_mid_round_falls_back_and_respawns(
            self, tmp_path, serial_commitments):
        run = run_deployment("process", 2, str(tmp_path / "store"),
                             kill_round=1)
        # Every commitment — including the round the worker died in —
        # matches serial: the in-process fallback lost nothing and the
        # survivors' blocks were anchored in the same beacon round.
        for key in COMMITMENT_KEYS:
            assert run[key] == serial_commitments[key], key
        # The killed slot respawned (fresh epoch) for the next round.
        assert run["respawns"] >= 1

    def test_signed_workload_verified_in_workers(self, tmp_path):
        keys = [KeyPair.generate(f"exec-signer-{k}") for k in range(4)]

        def run(executor, workers, store_dir):
            sc = ShardedChain(N_SHARDS, storage_dir=store_dir,
                              executor=executor, exec_workers=workers)
            for s in range(N_SHARDS):
                sc.shard(s).chain.params.require_signatures = True
            for i in range(32):
                tx = Transaction(
                    sender=keys[i % 4].address, kind=TxKind.DATA,
                    payload={"key": f"k{i}", "value": i},
                    nonce=i, timestamp=10 + i,
                ).seal().sign_with(keys[i % 4])
                sc.submit(tx)
            sc.seal_round(timestamp=100)
            out = {
                "beacon": beacon_commitments(sc),
                "roots": [sc.shard(s).chain.state.state_root()
                          for s in range(N_SHARDS)],
                "committed": sc.total_txs_committed,
            }
            sc.close()
            return out

        serial = run("serial", None, str(tmp_path / "ser"))
        process = run("process", 2, str(tmp_path / "proc"))
        assert process == serial
        assert process["committed"] == 32

    def test_unknown_executor_rejected(self):
        with pytest.raises(ShardError):
            ShardedChain(1, executor="rayon")


class TestPoolMechanics:
    def test_as_completed_dispatch_covers_all_jobs(self):
        pool = ProcessExecPool(2)
        try:
            jobs = [
                (i % 2, canonical_encode({"kind": "ping"}))
                for i in range(6)
            ]
            seen = sorted(index for index, response in pool.run(jobs)
                          if response is not None)
            assert seen == list(range(6))
        finally:
            pool.shutdown()

    def test_pool_rejects_zero_workers(self):
        with pytest.raises(ShardError):
            ProcessExecPool(0)


class TestForkGuards:
    def test_durable_storage_refuses_to_open_inside_worker(self, tmp_path):
        """Not a simulation: a real exec worker tries to open a
        DurableStorage and must be refused by the in-worker guard."""
        pool = ProcessExecPool(1)
        try:
            response = pool.call(0, canonical_encode({
                "kind": "probe_storage",
                "directory": str(tmp_path / "probe"),
            }))
            assert response is not None
            reply = canonical_decode(response)
            assert reply["status"] == "ok"
            assert "StorageError" in reply["raised"]
        finally:
            pool.shutdown()
        # The refused open left nothing behind for the parent to trip on.
        storage = DurableStorage(str(tmp_path / "probe"))
        storage.close()

    def test_pid_guard_blocks_commits_across_fork(self, tmp_path):
        storage = DurableStorage(str(tmp_path / "store"))
        try:
            storage.put_meta("k", 1)  # parent: fine
            storage._owner_pid = os.getpid() + 1  # what a fork sees
            with pytest.raises(StorageError):
                storage.put_meta("k", 2)
        finally:
            storage._owner_pid = os.getpid()
            storage.close()

    def test_spawned_workers_hold_no_parent_fds(self, tmp_path):
        """``fork`` children inherit fds (the pid guard makes any use
        loud — tests above); ``spawn`` children must not even hold
        them.  Open durable storage first, spawn a worker, then audit
        its /proc fd table for anything under the storage directory."""
        import multiprocessing as mp

        if "spawn" not in mp.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn unavailable")
        storage = DurableStorage(str(tmp_path / "store"))
        pool = ProcessExecPool(1, start_method="spawn")
        try:
            assert pool.call(0, canonical_encode(
                {"kind": "ping"})) is not None
            worker = pool._workers[0]
            fd_dir = f"/proc/{worker.process.pid}/fd"
            if not os.path.isdir(fd_dir):  # pragma: no cover - no procfs
                pytest.skip("procfs unavailable")
            offenders = []
            for fd in os.listdir(fd_dir):
                try:
                    target = os.readlink(os.path.join(fd_dir, fd))
                except OSError:
                    continue
                if str(tmp_path) in target:
                    offenders.append(target)
            assert offenders == []
        finally:
            pool.shutdown()
            storage.close()
