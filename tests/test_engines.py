"""Round-engine contract: every engine, one behaviour.

``seal_round`` keeps one failure loop for all engines — a failed shard
fails the round — so the matrix ``executor ∈ {serial, thread, process}``
× {faulted, fault-free} must agree cell by cell on: which error is
raised (and that the beacon does not move on a raised round), how many
failures the registry counts, that popped transactions are re-admitted,
that the failed shard's anchored watermark stays put until a clean
round anchors its blocks, and — the point of the whole design — that
the evidence left behind is byte-identical to a fault-free serial run.

The fault is injected through a public seam that reaches every engine
the same way: the victim shard's ``ChainParams.require_signatures`` is
switched on over an unsigned backlog, so block validation rejects the
shard's whole round — in the in-process engine, in an exec worker, and
in the process engine's in-process fallback alike — until it is switched
off again.  (A one-shot store hook such as ``fail_after_bytes`` would be
consumed by the process engine's first commit attempt and masked by its
fallback; the default executor turns a raising contract into a failed
receipt, not a failed block.)
"""

from __future__ import annotations

import pytest

from repro.chain import Transaction, TxKind
from repro.errors import InvalidTransaction, ShardError
from repro.obs.runtime import reset_default_telemetry
from repro.sharding import ShardedChain, ShardRouter

N_SHARDS = 4
VICTIM = 1
ENGINES = ("serial", "thread", "process")
TXS_PER_SHARD = 6
MAX_ROUNDS = 12


def shard_namespaces() -> list[str]:
    """One namespace routed to each shard."""
    router = ShardRouter(N_SHARDS)
    found: dict[int, str] = {}
    i = 0
    while len(found) < N_SHARDS:
        found.setdefault(router.shard_for(f"ns{i}"), f"ns{i}")
        i += 1
    return [found[s] for s in range(N_SHARDS)]


NAMESPACES = shard_namespaces()


def run_cell(executor: str, work_dir, fault: bool) -> dict:
    """Drive one deployment through warm-up → (faulted) rounds → recovery
    and return everything an engine could possibly disturb."""
    counter = reset_default_telemetry().registry.counter
    sc = ShardedChain(
        N_SHARDS, storage_dir=str(work_dir / "store"), executor=executor,
        exec_workers=2,
    )
    victim = sc.shard(VICTIM)
    rounds: list[list[int]] = []
    raised: list[str] = []

    def seal() -> None:
        rounds.append(sorted(sc.seal_round().per_shard))

    def load(wave: int) -> list[Transaction]:
        # Globally unique fees: a total mempool order, so a re-admitted
        # batch pops in exactly the order it would have first time round.
        return [
            Transaction(
                sender=f"acct-{s}", kind=TxKind.DATA,
                payload={"namespace": NAMESPACES[s],
                         "key": f"w{wave}-k{s}-{i}", "value": i},
                nonce=i, timestamp=10 + i,
                fee=1_000 * wave + s * TXS_PER_SHARD + i,
            ).seal()
            for s in range(N_SHARDS) for i in range(TXS_PER_SHARD)
        ]

    # Warm-up round: every shard has an anchored block (and, under the
    # process engine, a warm worker replica) before the fault.
    assert sum(sc.submit_many(load(0)).accepted.values()) == \
        N_SHARDS * TXS_PER_SHARD
    seal()
    assert sum(sc.submit_many(load(1)).accepted.values()) == \
        N_SHARDS * TXS_PER_SHARD
    submitted = 2 * N_SHARDS * TXS_PER_SHARD
    watermark = victim.anchored_height
    beacon_height = sc.beacon.chain.height
    assert watermark == victim.chain.height == 1

    if fault:
        victim.chain.params.require_signatures = True
        for _ in range(2):
            with pytest.raises(InvalidTransaction) as caught:
                sc.seal_round()
            raised.append(type(caught.value).__name__)
            # The raised round left no trace on the beacon.
            assert sc.beacon.chain.height == beacon_height
            # Nothing lost: the popped batch is back in the mempool,
            # and the watermark did not move.
            assert len(victim.mempool) == TXS_PER_SHARD
            assert victim.anchored_height == watermark
            assert victim.chain.height == watermark
        victim.chain.params.require_signatures = False

    while sc.mempool_backlog:
        assert len(rounds) < MAX_ROUNDS
        seal()

    # The clean round beacon-anchored everything the fault held back.
    assert sc.total_txs_committed == submitted
    assert victim.chain.height > watermark
    for shard in sc.shards:
        assert shard.anchored_height == shard.chain.height
        for height in range(1, shard.chain.height + 1):
            assert sc.beacon.anchored_entry(
                shard.shard_id, height) is not None
    sc.verify_all(deep=True)

    out = {
        "rounds": rounds,
        "raised": raised,
        "seal_failures": counter("shard_seal_failures_total").value,
        "heads": [s.chain.head.block_hash for s in sc.shards],
        "roots": [s.chain.state.state_root() for s in sc.shards],
        "beacon": sc.beacon.chain.head.block_hash,
        "offloaded": counter("exec_rounds_offloaded_total").value,
        "fallbacks": counter("exec_fallback_total").value,
    }
    sc.close()
    return out


EVIDENCE_KEYS = ("heads", "roots", "beacon")
BEHAVIOUR_KEYS = ("rounds", "raised", "seal_failures")


@pytest.fixture(scope="module")
def serial_runs(tmp_path_factory):
    """The references: the faulted serial run (behaviour) and a
    fault-free serial run (evidence)."""
    root = tmp_path_factory.mktemp("engines-ref")
    for sub in ("faulted", "clean"):
        (root / sub).mkdir()
    return (run_cell("serial", root / "faulted", fault=True),
            run_cell("serial", root / "clean", fault=False))


@pytest.mark.parametrize("executor", ENGINES)
class TestEngineContract:
    def test_fault_cell(self, tmp_path, serial_runs, executor):
        faulted_serial, clean_serial = serial_runs
        cell = run_cell(executor, tmp_path, fault=True)
        # Same raised error, same rounds, same failure count.
        for key in BEHAVIOUR_KEYS:
            assert cell[key] == faulted_serial[key], key
        # Same evidence as if no fault had ever happened.
        for key in EVIDENCE_KEYS:
            assert cell[key] == clean_serial[key], key
        if executor == "process":
            # The rounds really ran in workers, and each faulted round
            # went worker error -> in-process fallback -> shard failure.
            assert cell["offloaded"] >= 2 * N_SHARDS
            assert cell["fallbacks"] == 2
        else:
            assert cell["offloaded"] == cell["fallbacks"] == 0

    def test_fault_free_cell(self, tmp_path, serial_runs, executor):
        cell = run_cell(executor, tmp_path, fault=False)
        assert cell["rounds"] == [list(range(N_SHARDS))] * 2
        assert not cell["raised"] and cell["seal_failures"] == 0
        # One beacon head across all engines.
        for key in EVIDENCE_KEYS:
            assert cell[key] == serial_runs[1][key], key


def unsigned_backlog(sc: ShardedChain,
                     shard_ids: list[int]) -> dict[int, list[Transaction]]:
    """Submit TXS_PER_SHARD unsigned transactions to each shard; returns
    them per shard."""
    backlog = {s: [Transaction(sender=f"acct-{s}", kind=TxKind.DATA,
                               payload={"namespace": NAMESPACES[s],
                                        "key": f"k{i}", "value": i},
                               nonce=i, timestamp=10 + i,
                               fee=s * TXS_PER_SHARD + i).seal()
                   for i in range(TXS_PER_SHARD)]
               for s in shard_ids}
    sc.submit_many([tx for txs in backlog.values() for tx in txs])
    return backlog


@pytest.mark.parametrize("executor", ENGINES)
def test_every_failed_shard_is_counted_and_the_first_is_raised(executor):
    registry = reset_default_telemetry().registry
    sc = ShardedChain(N_SHARDS, executor=executor, exec_workers=2)
    victims = [VICTIM, N_SHARDS - 1]
    backlog = unsigned_backlog(sc, list(range(N_SHARDS)))
    for sid in victims:
        sc.shard(sid).chain.params.require_signatures = True
    first_ids = [tx.tx_id[:12] for tx in backlog[victims[0]]]
    with pytest.raises(InvalidTransaction) as caught:
        sc.seal_round()
    # The error raised is the first failed shard's, in shard order.
    assert any(tx_id in str(caught.value) for tx_id in first_ids)
    counter = registry.counter("shard_seal_failures_total")
    assert counter.value == len(victims)
    assert sc.rounds_sealed == sc.beacon.chain.height == 0
    for sid in victims:
        assert len(sc.shard(sid).mempool) == TXS_PER_SHARD
        assert sc.shard(sid).chain.height == 0
    sc.close()


@pytest.mark.parametrize("executor", ENGINES)
def test_repeated_shard_id_is_refused_before_anything_seals(executor):
    sc = ShardedChain(N_SHARDS, executor=executor, exec_workers=2)
    unsigned_backlog(sc, [VICTIM])
    victim = sc.shard(VICTIM)
    with pytest.raises(ShardError, match="twice"):
        sc.seal_round(shard_ids=[VICTIM, VICTIM])
    assert victim.chain.height == victim.anchored_height == 0
    assert len(victim.mempool) == TXS_PER_SHARD
    assert sc.rounds_sealed == sc.beacon.chain.height == 0
    sc.close()


@pytest.mark.parametrize("executor", ENGINES)
def test_a_retry_anchors_what_the_healthy_shards_committed(executor):
    sc = ShardedChain(N_SHARDS, executor=executor, exec_workers=2)
    healthy = [s for s in range(N_SHARDS) if s != VICTIM]
    unsigned_backlog(sc, list(range(N_SHARDS)))
    sc.shard(VICTIM).chain.params.require_signatures = True
    with pytest.raises(InvalidTransaction):
        sc.seal_round()
    # The healthy shards committed their blocks, but nothing is anchored
    # and the operator rollup shows no sealed round.
    health = sc.health_report()
    assert sc.rounds_sealed == sc.beacon.chain.height == 0
    assert "last_round_no" not in health
    for sid in healthy:
        shard = sc.shard(sid)
        assert shard.chain.height == 1 and shard.anchored_height == 0
        with pytest.raises(ShardError, match="not beacon-anchored"):
            sc.beacon.prove_shard_block(
                sid, 1, shard.chain.block_at(1).block_hash)
    assert health["per_shard"][str(VICTIM)] == {
        "height": 0, "anchored_height": 0,
        "mempool_backlog": TXS_PER_SHARD,
    }

    sc.shard(VICTIM).chain.params.require_signatures = False
    report = sc.seal_round()
    assert sorted(report.per_shard) == list(range(N_SHARDS))
    assert report.txs_sealed == TXS_PER_SHARD
    assert sc.health_report()["last_round_no"] == 0
    # One beacon round anchors the victim's block and the blocks the
    # healthy shards committed during the raised round.
    assert sc.beacon.chain.height == 1
    head = sc.beacon.chain.head.header
    for shard in sc.shards:
        assert shard.chain.height == shard.anchored_height == 1
        bundle = sc.beacon.prove_shard_block(
            shard.shard_id, 1, shard.chain.block_at(1).block_hash)
        assert bundle.shard_proof.round_no == 0
        assert bundle.verify(head)
    sc.close()


class TestReferenceShape:
    """Pin what the references themselves look like, so the matrix
    cannot pass by every engine being wrong the same way."""

    def test_strict_reference(self, serial_runs):
        faulted, clean = serial_runs
        assert faulted["raised"] == ["InvalidTransaction"] * 2
        assert faulted["rounds"] == [list(range(N_SHARDS))] * 2
        assert faulted["seal_failures"] == 2
        assert clean["raised"] == [] and clean["rounds"] == faulted["rounds"]
        assert clean["seal_failures"] == 0
