"""FIG2 — the blockchain substrate (paper Figure 2).

Regenerates the figure's structural story as measurements:

* block formation cost vs transactions per block (Merkle root dominates);
* tamper-evidence: mutating block k is detected, and detection cost is a
  full-chain scan (linear in chain length).
"""

import copy
import time

import pytest

from repro.analysis import Sweep, format_table
from repro.chain import Blockchain, ChainParams, Transaction, TxKind


def make_txs(n):
    return [
        Transaction(sender="bench", kind=TxKind.DATA,
                    payload={"key": f"k{i}", "value": i})
        for i in range(n)
    ]


def _mutated_copy(block):
    """A copy of ``block`` whose body was mutated after sealing: it keeps
    the original header (so the Merkle mismatch is what gets caught)."""
    clone = copy.copy(block)
    txs = list(block.transactions)
    txs[0] = Transaction(sender="attacker", kind=TxKind.DATA,
                         payload={"key": "evil", "value": -1})
    clone.transactions = txs
    return clone


@pytest.mark.parametrize("tx_count", [1, 8, 64, 256])
def test_block_formation_vs_tx_count(benchmark, tx_count):
    chain = Blockchain(ChainParams(chain_id="fig2", max_block_txs=512))
    txs = make_txs(tx_count)
    block = benchmark(lambda: chain.build_block(txs))
    assert len(block) == tx_count


@pytest.mark.parametrize("chain_len", [64, 256])
def test_full_chain_verification(benchmark, chain_len):
    chain = Blockchain(ChainParams(chain_id="fig2v"))
    for i in range(chain_len):
        chain.append_block(chain.build_block(make_txs(2)))
    benchmark(chain.verify)


def test_tamper_detection_at_every_height(benchmark, report):
    """Mutating any block is detected exactly at its height."""
    chain_len = 40
    chain = Blockchain(ChainParams(chain_id="fig2t"))
    for i in range(chain_len):
        chain.append_block(chain.build_block(make_txs(2)))

    def detect_all():
        detected = []
        for target in range(1, chain_len + 1, 8):
            probe = Blockchain(ChainParams(chain_id="probe"))
            blocks = list(chain.blocks)
            blocks[target] = _mutated_copy(blocks[target])
            probe.blocks = blocks
            detected.append((target, probe.first_broken_height()))
        return detected

    detected = benchmark(detect_all)
    for target, found in detected:
        assert found == target, "tamper must be located at its height"

    rows = [{"mutated_height": t, "detected_at": f} for t, f in detected]
    report("FIG2: tamper localization",
           format_table(rows, ["mutated_height", "detected_at"]))


def test_shape_formation_cost_grows_with_txs(once, report):
    """The FIG2 series: per-block formation time is increasing in the
    transaction count (Merkle tree construction dominates)."""
    def measure(n):
        chain = Blockchain(ChainParams(chain_id="fig2s", max_block_txs=1024))
        txs = make_txs(n)
        t0 = time.perf_counter()
        for _ in range(5):
            chain.build_block(txs)
        return {"ms_per_block": (time.perf_counter() - t0) / 5 * 1e3}

    result = once(lambda: Sweep("txs_per_block", [1, 16, 128, 512],
                                measure).run())
    report("FIG2: block formation cost",
           result.to_table(["txs_per_block", "ms_per_block"]))
    assert result.is_monotonic("ms_per_block")
