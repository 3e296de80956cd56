"""Hot-path before/after benchmark: verify and reorg.

Measures two operations the caching layer targets and records the
speedups to ``BENCH_perf_hotpath.json``:

* **verify** — full-chain audit with ``deep=True`` (recompute every tx
  and header hash from raw bytes — the seed's cost) vs the default
  auditor path (rebuilds Merkle trees from cached leaf hashes);
* **reorg** — a short fork atop a long chain, on a replay-only chain
  (``reorg_journal_depth=0``, the seed's replay-from-genesis) vs the
  journaled O(delta) rollback.

Run: ``PYTHONPATH=src python benchmarks/bench_perf_hotpath.py [--smoke]``
(``make bench-hotpath`` / ``make bench-smoke``).
"""

from __future__ import annotations

import time

from _harness import finish_bench, parse_bench_args
from repro.chain import Block, Blockchain, ChainParams, Transaction, TxKind

# A moderately sized payload: representative of a provenance record
# anchor, and large enough that canonical encoding dominates the naive
# hash cost the way it does in the real ingestion paths.
def _payload(i: int) -> dict:
    return {
        "record_id": f"rec-{i:08d}",
        "subject": f"artifact-{i % 97}",
        "actor": f"user-{i % 13}",
        "operation": "derive" if i % 3 else "create",
        "inputs": [f"rec-{j:08d}" for j in range(max(0, i - 2), i)],
        "attrs": {"size": i * 17 % 4096, "tool": "pipeline/v2",
                  "checksum": f"{i:064x}"},
        "timestamp": i,
    }


def _make_txs(n_blocks: int, txs_per_block: int) -> list[list[Transaction]]:
    batches = []
    for b in range(n_blocks):
        batches.append([
            Transaction(sender=f"acct-{(b + j) % 29}", kind=TxKind.DATA,
                        payload=_payload(b * txs_per_block + j), timestamp=b)
            for j in range(txs_per_block)
        ])
    return batches


def _build_chain(batches, journal_depth: int) -> Blockchain:
    chain = Blockchain(ChainParams(chain_id="bench-hotpath",
                                   reorg_journal_depth=journal_depth))
    for i, txs in enumerate(batches):
        chain.append_block(chain.build_block(txs, timestamp=i))
    return chain


def _fork_suffix(chain: Blockchain, fork_height: int,
                 length: int) -> list[Block]:
    suffix = []
    prev = chain.blocks[fork_height].block_hash
    for i in range(length):
        height = fork_height + 1 + i
        txs = [Transaction(sender="forker", kind=TxKind.DATA,
                           payload=_payload(10_000_000 + height * 10 + j),
                           timestamp=height)
               for j in range(len(chain.blocks[1].transactions))]
        block = Block(height, prev, txs, timestamp=height, proposer="forker")
        suffix.append(block)
        prev = block.block_hash
    return suffix


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_verify(chain: Blockchain) -> dict:
    before = _timed(lambda: chain.verify(deep=True))
    after = _timed(chain.verify)
    return {"before_s": before, "after_s": after,
            "speedup": before / after}


def bench_reorg(batches, fork_depth: int) -> dict:
    replay_chain = _build_chain(batches, journal_depth=0)
    journal_chain = _build_chain(batches, journal_depth=64)
    fork_height = replay_chain.height - fork_depth
    replay_suffix = _fork_suffix(replay_chain, fork_height, fork_depth + 1)
    journal_suffix = _fork_suffix(journal_chain, fork_height, fork_depth + 1)
    before = _timed(lambda: replay_chain.reorg_to(replay_suffix, fork_height))
    after = _timed(lambda: journal_chain.reorg_to(journal_suffix, fork_height))
    # Both strategies must land on the same chain and the same state.
    assert replay_chain.head.block_hash == journal_chain.head.block_hash
    assert (replay_chain.state.state_root()
            == journal_chain.state.state_root())
    return {"before_s": before, "after_s": after,
            "speedup": before / after}


def main() -> None:
    args = parse_bench_args(__doc__)

    if args.smoke:
        n_blocks, txs_per_block, fork_depth = 200, 4, 5
    else:
        n_blocks, txs_per_block, fork_depth = 2000, 8, 10

    chain = _build_chain(_make_txs(n_blocks, txs_per_block), 64)
    verify = bench_verify(chain)
    reorg = bench_reorg(_make_txs(n_blocks, txs_per_block), fork_depth)

    results = {
        "mode": "smoke" if args.smoke else "full",
        "config": {"n_blocks": n_blocks, "txs_per_block": txs_per_block,
                   "fork_depth": fork_depth},
        "verify": verify,
        "reorg": reorg,
    }
    print(f"hot-path bench ({results['mode']}): "
          f"{n_blocks} blocks x {txs_per_block} txs, "
          f"fork depth {fork_depth}")
    for name in ("verify", "reorg"):
        r = results[name]
        print(f"  {name:>7}: {r['before_s']*1e3:9.1f} ms -> "
              f"{r['after_s']*1e3:8.1f} ms   ({r['speedup']:6.1f}x)")

    # Acceptance floors (ISSUE 1): verify >= 5x, reorg >= 10x.
    finish_bench(results, "BENCH_perf_hotpath.json", args, floors=[
        ("verify speedup", verify["speedup"], 5.0),
        ("reorg speedup", reorg["speedup"], 10.0),
    ])


if __name__ == "__main__":
    main()
