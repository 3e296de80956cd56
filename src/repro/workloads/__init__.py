"""Seeded synthetic workload generators.

The paper releases no traces; these generators produce the structured
workloads its domains imply (stage-ordered investigations, DAG-shaped
workflows, Zipf-skewed query streams, multi-tenant sharded ingest)
deterministically from a seed, so every benchmark run is reproducible.
"""

from .distributions import ZipfSampler
from .generators import (
    ForensicCaseWorkload,
    MultiTenantShardWorkload,
    QueryWorkload,
    ShardOp,
    WorkflowShape,
)

__all__ = [
    "ZipfSampler",
    "ForensicCaseWorkload",
    "MultiTenantShardWorkload",
    "QueryWorkload",
    "ShardOp",
    "WorkflowShape",
]
