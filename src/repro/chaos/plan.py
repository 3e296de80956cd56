"""Seeded fault plans: one integer seed → a full chaos schedule.

A plan is plain data (frozen dataclasses) so a failing chaos run can be
reproduced from its seed alone.  :func:`seeded_plan` derives every knob —
drop/duplicate/reorder rates per topic and the coordinator kill sites —
from ``random.Random(seed)``, and the same seed also drives the
:class:`~repro.network.simnet.SimNet` RNG inside the runner, so the
whole run is a pure function of the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..rpc import OP_OPS

# Upper bound on WAL writes a 2-shard transfer makes on its happy path
# (begin, 2 lock legs, committing, 2 commit legs, finalizing,
# finalized) — kill sites beyond it let a transfer complete untouched,
# which is a useful schedule too (crash between transfers).
WAL_WRITES_PER_TRANSFER = 8


@dataclass(frozen=True)
class NetFault:
    """Fault rates for one SimNet topic, applied for the whole run."""

    topic: str
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: int = 50


@dataclass(frozen=True)
class CoordinatorKill:
    """Fail-stop the coordinator ``after_wal_writes`` more WAL writes.

    Armed relative to the coordinator's current ``wal_writes`` counter
    right before a transfer begins, so ``after_wal_writes=1`` kills at
    the ``begin`` boundary, ``2``–``3`` inside the lock legs, ``4`` at
    ``committing``, and so on (see ``WAL_STEPS`` in
    :mod:`repro.sharding.twophase`)."""

    after_wal_writes: int


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible chaos schedule (see module docstring)."""

    seed: int
    net_faults: tuple[NetFault, ...] = ()
    kills: tuple[CoordinatorKill, ...] = ()
    transfers: int = 3
    rounds_per_transfer: int = 6
    background_txs: int = 4
    n_shards: int = 4


def seeded_plan(seed: int, transfers: int = 3, kills: int = 2) -> FaultPlan:
    """Derive a full plan from one seed.

    The client-facing ``shard_tx`` topic gets lossy/duplicating/
    reordering treatment (shaking gateway ingest), ``ops`` gets drops
    in both directions (shaking the SimNet channel's retry loop), and
    ``kills`` coordinator kill sites are sampled across the WAL step
    range so repeated seeds cover the whole crash matrix."""
    rng = random.Random(seed)
    net_faults = (
        NetFault(
            "shard_tx",
            drop=round(rng.uniform(0.05, 0.25), 3),
            duplicate=round(rng.uniform(0.0, 0.2), 3),
            reorder=round(rng.uniform(0.0, 0.3), 3),
            reorder_delay=rng.randrange(20, 80),
        ),
        NetFault(OP_OPS, drop=round(rng.uniform(0.1, 0.4), 3)),
    )
    kill_sites = tuple(
        CoordinatorKill(rng.randrange(1, WAL_WRITES_PER_TRANSFER + 2))
        for _ in range(max(0, kills))
    )
    return FaultPlan(
        seed=seed,
        net_faults=net_faults,
        kills=kill_sites,
        transfers=transfers,
    )
