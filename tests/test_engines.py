"""Round-engine contract: every engine, strict and tolerant, one behaviour.

``seal_round`` keeps one failure loop for all engines, so the matrix
``executor ∈ {serial, thread, process}`` × ``quarantine_after ∈ {0, 2}``
must agree cell by cell on: who gets blamed (or which error is raised),
that popped transactions are re-admitted, that the failed shard's
anchored watermark stays put until a clean round anchors its blocks,
how quarantine → probe → re-admission moves, and — the point of the
whole design — that the evidence left behind is byte-identical to a
fault-free serial run in which the failed shard simply sat those rounds
out.

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
from repro.errors import InvalidTransaction
from repro.obs.runtime import Telemetry
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


def run_cell(executor: str, quarantine_after: int, work_dir,
             fault: bool, replay: list[list[int]] | None = None) -> dict:
    """Drive one deployment through warm-up → (faulted) rounds → recovery
    and return everything an engine could possibly disturb.

    ``replay`` (reference runs only) seals exactly the given shard sets,
    round by round — "the failed shard sat these rounds out"."""
    telemetry = Telemetry()
    sc = ShardedChain(
        N_SHARDS, storage_dir=str(work_dir / "store"), executor=executor,
        exec_workers=2, quarantine_after=quarantine_after,
        quarantine_probe_every=2, telemetry=telemetry,
    )
    counter = telemetry.registry.counter
    victim = sc.shard(VICTIM)
    rounds: list[list[int]] = []
    failures: list[dict] = []
    raised: list[str] = []

    def seal() -> None:
        shard_ids = replay[len(rounds)] if replay is not None else None
        report = sc.seal_round(shard_ids=shard_ids)
        rounds.append(sorted(report.per_shard))
        failures.append({
            sid: (info["reason"], info["streak"], info["quarantined"])
            for sid, info in report.failed_shards.items()
        })

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
    assert sc.submit_many(load(0)).accepted_total == \
        N_SHARDS * TXS_PER_SHARD
    seal()
    assert sc.submit_many(load(1)).accepted_total == \
        N_SHARDS * TXS_PER_SHARD
    submitted = 2 * N_SHARDS * TXS_PER_SHARD
    watermark = victim.anchored_height
    beacon_height = sc.beacon.chain.height
    assert watermark == victim.chain.height == 1

    if fault:
        victim.chain.params.require_signatures = True
        for _ in range(2):
            if quarantine_after == 0:
                with pytest.raises(InvalidTransaction) as caught:
                    sc.seal_round()
                raised.append(type(caught.value).__name__)
                # The raised round left no trace on the beacon.
                assert sc.beacon.chain.height == beacon_height
            else:
                seal()
                assert rounds[-1] == [s for s in range(N_SHARDS)
                                      if s != VICTIM]
            # Nothing lost: the popped batch is back in the mempool,
            # and the watermark did not move.
            assert len(victim.mempool) == TXS_PER_SHARD
            assert victim.anchored_height == watermark
            assert victim.chain.height == watermark
        victim.chain.params.require_signatures = False
        if quarantine_after:
            assert str(VICTIM) in sc.health_report()["quarantined_shards"]
            assert sc.health_report()["per_shard"][str(VICTIM)][
                "seal_fail_streak"] == 2

    while (sc.mempool_backlog or sc.health_report()["quarantined_shards"]
           or (replay is not None and len(rounds) < len(replay))):
        assert len(rounds) < MAX_ROUNDS
        seal()

    # The clean round beacon-anchored everything the fault held back.
    assert sc.total_txs_committed == submitted
    assert victim.chain.height > watermark
    for shard in sc.shards:
        assert shard.anchored_height == shard.chain.height
        for height in range(1, shard.chain.height + 1):
            assert sc.beacon.is_anchored(shard.shard_id, height)
    sc.verify_all(deep=True)

    out = {
        "rounds": rounds,
        "failures": failures,
        "raised": raised,
        "counters": {
            name: counter(name).value
            for name in ("shard_seal_failures_total",
                         "shard_quarantined_total",
                         "shard_readmitted_total")
        },
        "heads": [s.chain.head.block_hash for s in sc.shards],
        "roots": [s.chain.state.state_root() for s in sc.shards],
        "beacon": sc.beacon.chain.head.block_hash,
        "offloaded": counter("exec_rounds_offloaded_total").value,
        "fallbacks": counter("exec_fallback_total").value,
    }
    sc.close()
    return out


EVIDENCE_KEYS = ("heads", "roots", "beacon")
BEHAVIOUR_KEYS = ("rounds", "failures", "raised", "counters")


@pytest.fixture(scope="module")
def serial_runs(tmp_path_factory):
    """The references, one per ``quarantine_after``: the faulted serial
    run (behaviour), and a fault-free serial run replaying its per-round
    shard selection (evidence)."""
    runs = {}
    for quarantine_after in (0, 2):
        root = tmp_path_factory.mktemp(f"engines-ref-{quarantine_after}")
        for sub in ("faulted", "clean"):
            (root / sub).mkdir()
        faulted = run_cell("serial", quarantine_after, root / "faulted",
                           fault=True)
        clean = run_cell("serial", 0, root / "clean", fault=False,
                         replay=faulted["rounds"])
        runs[quarantine_after] = (faulted, clean)
    return runs


@pytest.mark.parametrize("quarantine_after", [0, 2])
@pytest.mark.parametrize("executor", ENGINES)
class TestEngineContract:
    def test_fault_cell(self, tmp_path, serial_runs, executor,
                        quarantine_after):
        faulted_serial, clean_serial = serial_runs[quarantine_after]
        cell = run_cell(executor, quarantine_after, tmp_path, fault=True)
        # Same blame / same raised error, same quarantine trajectory.
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

    def test_fault_free_cell(self, tmp_path, serial_runs, executor,
                             quarantine_after):
        cell = run_cell(executor, quarantine_after, tmp_path, fault=False)
        assert cell["rounds"] == [list(range(N_SHARDS))] * 2
        assert not any(cell["failures"]) and not cell["raised"]
        # One beacon head across all engines and both failure policies
        # (the strict reference replays exactly these two full rounds).
        for key in EVIDENCE_KEYS:
            assert cell[key] == serial_runs[0][1][key], key


class TestReferenceShape:
    """Pin what the references themselves look like, so the matrix
    cannot pass by every engine being wrong the same way."""

    def test_strict_reference(self, serial_runs):
        faulted, clean = serial_runs[0]
        assert faulted["raised"] == ["InvalidTransaction"] * 2
        assert faulted["rounds"] == [list(range(N_SHARDS))] * 2
        assert faulted["counters"]["shard_seal_failures_total"] == 0
        assert clean["raised"] == [] and clean["rounds"] == faulted["rounds"]

    def test_tolerant_reference(self, serial_runs):
        faulted, clean = serial_runs[2]
        healthy = [s for s in range(N_SHARDS) if s != VICTIM]
        everyone = list(range(N_SHARDS))
        # warm-up, two failed rounds, one skipped (quarantined, no
        # probe), then the probe round that re-admits the victim.
        assert faulted["rounds"] == [everyone, healthy, healthy, healthy,
                                     everyone]
        assert faulted["failures"] == [
            {}, {VICTIM: ("seal_failed", 1, False)},
            {VICTIM: ("seal_failed", 2, True)}, {}, {},
        ]
        assert faulted["counters"] == {
            "shard_seal_failures_total": 2,
            "shard_quarantined_total": 1,
            "shard_readmitted_total": 1,
        }
        assert clean["failures"] == [{}] * 5
        for key in EVIDENCE_KEYS:
            assert faulted[key] == clean[key], key
