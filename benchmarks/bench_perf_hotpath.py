"""Hot-path before/after benchmark: verify.

Measures the operation the caching layer targets and records the
speedup to ``BENCH_perf_hotpath.json``:

* **verify** — full-chain audit with ``deep=True`` (recompute every tx
  and header hash from raw bytes — the seed's cost) vs the default
  auditor path (rebuilds Merkle trees from cached leaf hashes).

Run: ``PYTHONPATH=src python benchmarks/bench_perf_hotpath.py [--smoke]``
(``make bench-hotpath`` / ``make bench-smoke``).
"""

from __future__ import annotations

import time

from _harness import finish_bench, parse_bench_args
from repro.chain import Blockchain, ChainParams, Transaction, TxKind

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


def _build_chain(batches) -> Blockchain:
    chain = Blockchain(ChainParams(chain_id="bench-hotpath"))
    for i, txs in enumerate(batches):
        chain.append_block(chain.build_block(txs, timestamp=i))
    return chain


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_verify(chain: Blockchain) -> dict:
    before = _timed(lambda: chain.verify(deep=True))
    after = _timed(chain.verify)
    return {"before_s": before, "after_s": after,
            "speedup": before / after}


def main() -> None:
    args = parse_bench_args(__doc__)

    if args.smoke:
        n_blocks, txs_per_block = 200, 4
    else:
        n_blocks, txs_per_block = 2000, 8

    chain = _build_chain(_make_txs(n_blocks, txs_per_block))
    verify = bench_verify(chain)

    results = {
        "mode": "smoke" if args.smoke else "full",
        "config": {"n_blocks": n_blocks, "txs_per_block": txs_per_block},
        "verify": verify,
    }
    print(f"hot-path bench ({results['mode']}): "
          f"{n_blocks} blocks x {txs_per_block} txs")
    print(f"   verify: {verify['before_s']*1e3:9.1f} ms -> "
          f"{verify['after_s']*1e3:8.1f} ms   ({verify['speedup']:6.1f}x)")

    # Acceptance floor: verify >= 5x.
    finish_bench(results, "BENCH_perf_hotpath.json", args, floors=[
        ("verify speedup", verify["speedup"], 5.0),
    ])


if __name__ == "__main__":
    main()
