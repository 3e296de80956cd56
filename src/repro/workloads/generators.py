"""Per-domain workload generators.

Each generator emits a deterministic *action sequence* that drivers
replay against a system under test.  Keeping generation separate from
execution lets a bench replay the identical workload against two designs
(e.g. ProvChain vs BlockCloud) for a fair comparison.

:meth:`MultiTenantShardWorkload.generate` is a stream: each op depends
only on the RNG state the ops before it left, so a driver that stops
early pays for what it consumed and a replay wraps it in ``list(...)``.
:meth:`CloudOpsWorkload.generate` cannot stream — its deletes are held
back to the tail of the run so no replay hits a missing object, which
needs the whole run — and the ``plan()`` / ``tasks()`` / ``queries()``
generators return small finished structures, so they stay lists.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, NamedTuple

from .distributions import ZipfSampler


@dataclass(frozen=True)
class CloudOp:
    """One cloud-storage action."""

    op: str              # create | read | update | delete | share
    user: str
    key: str
    size: int = 64
    target_user: str = ""    # share recipient


class CloudOpsWorkload:
    """Skewed multi-user cloud-storage operation stream (RQ1 shape)."""

    OP_MIX = (("read", 0.55), ("update", 0.25), ("create", 0.12),
              ("share", 0.05), ("delete", 0.03))

    def __init__(self, n_users: int = 4, n_objects: int = 50,
                 zipf_s: float = 1.1, seed: int = 0) -> None:
        self.n_users = n_users
        self.n_objects = n_objects
        self.rng = random.Random(seed)
        self.object_sampler = ZipfSampler(n_objects, s=zipf_s, seed=seed + 1)

    def generate(self, count: int) -> list[CloudOp]:
        """A replayable op list.  Every object is created before use and
        deletes are deferred to the tail so replays never hit missing
        objects."""
        ops: list[CloudOp] = []
        owners: dict[str, str] = {}
        # Creation preamble: each object gets an owner.
        for i in range(self.n_objects):
            user = f"user-{self.rng.randrange(self.n_users):02d}"
            key = f"obj-{i:04d}"
            owners[key] = user
            ops.append(CloudOp(op="create", user=user, key=key,
                               size=self.rng.randint(32, 512)))
        labels = [name for name, _ in self.OP_MIX]
        weights = [w for _, w in self.OP_MIX]
        deletes: list[CloudOp] = []
        while len(ops) + len(deletes) < count + self.n_objects:
            key = f"obj-{self.object_sampler.sample():04d}"
            user = owners[key]
            op = self.rng.choices(labels, weights=weights)[0]
            if op == "create":
                op = "read"            # objects were pre-created
            if op == "delete":
                deletes.append(CloudOp(op="delete", user=user, key=key))
                continue
            if op == "share":
                other = f"user-{self.rng.randrange(self.n_users):02d}"
                ops.append(CloudOp(op="share", user=user, key=key,
                                   target_user=other))
                continue
            ops.append(CloudOp(op=op, user=user, key=key,
                               size=self.rng.randint(32, 512)))
        # Deduplicate deletes (an object can die once), keep the first.
        seen: set[str] = set()
        for op in deletes:
            if op.key not in seen:
                seen.add(op.key)
                ops.append(op)
        return ops[: count + self.n_objects]


@dataclass(frozen=True)
class WorkflowShape:
    """Parameters of a synthetic scientific workflow DAG."""

    n_tasks: int = 20
    fanout: int = 2          # outputs consumed by up to this many tasks
    users: int = 3
    seed: int = 0

    def tasks(self) -> list[dict]:
        """Task specs in design order: each consumes up to ``fanout``
        earlier outputs (guaranteeing a DAG) and produces one output."""
        rng = random.Random(self.seed)
        specs: list[dict] = []
        available_outputs: list[str] = ["external-input"]
        for i in range(self.n_tasks):
            k = min(len(available_outputs), rng.randint(1, self.fanout))
            inputs = rng.sample(available_outputs, k)
            output = f"data-{i:04d}"
            specs.append({
                "task_id": f"task-{i:04d}",
                "user_id": f"sci-{rng.randrange(self.users):02d}",
                "inputs": inputs,
                "outputs": [output],
            })
            available_outputs.append(output)
        return specs


@dataclass
class ForensicCaseWorkload:
    """A case's evidence + access plan across the five stages."""

    n_evidence: int = 20
    n_accesses: int = 40
    n_investigators: int = 4
    seed: int = 0
    file_types: tuple[str, ...] = ("image", "text", "video", "log")

    def plan(self) -> dict:
        rng = random.Random(self.seed)
        evidence = []
        for i in range(self.n_evidence):
            deps = []
            if i > 0 and rng.random() < 0.3:
                deps = [f"ev-{rng.randrange(i):04d}"]
            evidence.append({
                "evidence_id": f"ev-{i:04d}",
                "collector": f"inv-{rng.randrange(self.n_investigators):02d}",
                "content": rng.randbytes(rng.randint(16, 128)),
                "file_type": rng.choice(self.file_types),
                "depends_on": deps,
            })
        accesses = [
            {
                "evidence_id": f"ev-{rng.randrange(self.n_evidence):04d}",
                "actor": f"inv-{rng.randrange(self.n_investigators):02d}",
                "purpose": rng.choice(("analysis", "copy", "report")),
            }
            for _ in range(self.n_accesses)
        ]
        return {"evidence": evidence, "accesses": accesses}


@dataclass
class SupplyChainWorkload:
    """Products and their custody journeys through named parties."""

    n_products: int = 20
    parties: tuple[str, ...] = ("maker", "distributor", "pharmacy")
    hops_per_product: int = 2
    seed: int = 0

    def plan(self) -> list[dict]:
        rng = random.Random(self.seed)
        plans = []
        for i in range(self.n_products):
            journey = ["maker"]
            for _ in range(self.hops_per_product):
                journey.append(rng.choice(
                    [p for p in self.parties if p != journey[-1]]
                ))
            plans.append({
                "product_id": f"prod-{i:05d}",
                "batch": f"batch-{i // 10:03d}",
                "type": rng.choice(("vaccine", "device", "tablet")),
                "journey": journey,
                "temperatures": [rng.randint(10, 90) for _ in range(4)],
            })
        return plans


class ShardOp(NamedTuple):
    """One multi-tenant ingest action for the sharded-chain benches.

    ``kind`` is ``"record"`` (single-namespace write) or ``"cross"`` (a
    derivation handed off from ``subject``'s namespace to
    ``target_subject``'s — the two-phase-commit path when the namespaces
    land on different shards).
    """

    kind: str
    namespace: str
    subject: str
    actor: str
    operation: str
    timestamp: int
    size: int = 64
    target_namespace: str = ""
    target_subject: str = ""


class MultiTenantShardWorkload:
    """Zipf-skewed multi-tenant capture stream with cross-shard handoffs.

    Tenants (provenance namespaces) are sampled from a Zipf distribution
    — a few hot organizations dominate, as in any multi-tenant ingest
    plane — and a configurable fraction of operations derive an object
    in a *different* tenant's namespace (the cross-shard case).  Subjects
    are ``"{tenant}/obj-{i}"`` so the shard router's namespace prefix
    rule applies directly.
    """

    OPS = (("update", 0.6), ("create", 0.25), ("derive", 0.15))

    def __init__(
        self,
        n_tenants: int = 64,
        objects_per_tenant: int = 32,
        zipf_s: float = 0.9,
        cross_shard_ratio: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= cross_shard_ratio <= 1.0:
            raise ValueError("cross_shard_ratio must be in [0, 1]")
        if n_tenants < 2 and cross_shard_ratio > 0:
            raise ValueError("cross-tenant ops need at least two tenants")
        if objects_per_tenant < 1:
            raise ValueError("objects_per_tenant must be >= 1")
        self.n_tenants = n_tenants
        self.objects_per_tenant = objects_per_tenant
        self.cross_shard_ratio = cross_shard_ratio
        self.rng = random.Random(seed)
        self.tenant_sampler = ZipfSampler(n_tenants, s=zipf_s, seed=seed + 1)
        # Names, formatted on first use and kept; a subject's key is
        # tenant * objects_per_tenant + object.
        self._tenants: dict[int, str] = {}
        self._actors: dict[int, str] = {}
        self._subjects: dict[int, str] = {}

    def generate(self, count: int) -> Iterator[ShardOp]:
        """A replayable op stream; timestamps are strictly increasing.

        Lazy: an op is drawn when the consumer asks for it, and its first
        ``k`` ops are the same for every ``count >= k``.  The draws are
        what ``rng.randrange`` / ``randint`` / ``choices`` do inside (a
        ``getrandbits`` rejection loop on ``n.bit_length()`` bits, a
        bisect on the cumulative weights), so the RNG is consumed exactly
        as those calls consume it.
        """
        labels = [name for name, _ in self.OPS]
        cum_weights = list(accumulate(w for _, w in self.OPS))
        total, last = cum_weights[-1] + 0.0, len(labels) - 1
        rand, getrandbits = self.rng.random, self.rng.getrandbits
        sample_tenant = self.tenant_sampler.sample
        ratio = self.cross_shard_ratio
        n_objects = self.objects_per_tenant
        object_bits = n_objects.bit_length()
        tenants, subjects, actors = \
            self._tenants, self._subjects, self._actors
        make = ShardOp._make             # tuple.__new__ plus a length check
        for t in range(count):
            tenant = sample_tenant()
            namespace = tenants.get(tenant)
            if namespace is None:
                namespace = tenants[tenant] = f"tenant-{tenant:03d}"
            obj = getrandbits(object_bits)          # randrange(n_objects)
            while obj >= n_objects:
                obj = getrandbits(object_bits)
            key = tenant * n_objects + obj
            subject = subjects.get(key)
            if subject is None:
                subject = subjects[key] = f"{namespace}/obj-{obj:04d}"
            agent = getrandbits(5)                  # randrange(16)
            while agent >= 16:
                agent = getrandbits(5)
            actor = actors.get(agent)
            if actor is None:
                actor = actors[agent] = f"agent-{agent:02d}"
            if rand() < ratio:
                target = sample_tenant()
                while target == tenant:
                    target = sample_tenant()
                other = tenants.get(target)
                if other is None:
                    other = tenants[target] = f"tenant-{target:03d}"
                size = getrandbits(8)               # randint(32, 256)
                while size >= 225:
                    size = getrandbits(8)
                obj = getrandbits(object_bits)
                while obj >= n_objects:
                    obj = getrandbits(object_bits)
                key = target * n_objects + obj
                derived = subjects.get(key)
                if derived is None:
                    derived = subjects[key] = f"{other}/obj-{obj:04d}"
                yield make(("cross", namespace, subject, actor, "handoff", t,
                            32 + size, other, derived))
                continue
            operation = labels[bisect(cum_weights, rand() * total, 0, last)]
            size = getrandbits(8)
            while size >= 225:
                size = getrandbits(8)
            yield make(("record", namespace, subject, actor, operation, t,
                        32 + size, "", ""))


@dataclass
class QueryWorkload:
    """A Zipf-skewed query stream over known subjects (§6.2's repeated
    queries arise naturally from the skew)."""

    subjects: list[str] = field(default_factory=list)
    zipf_s: float = 1.1
    seed: int = 0

    def queries(self, count: int) -> list[str]:
        if not self.subjects:
            raise ValueError("no subjects to query")
        sampler = ZipfSampler(len(self.subjects), s=self.zipf_s,
                              seed=self.seed)
        return [self.subjects[i] for i in sampler.sample_many(count)]
