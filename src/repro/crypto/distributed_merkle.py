"""Distributed Merkle forest for case integrity (ForensiBlock-style).

ForensiBlock [12] verifies the integrity of a forensic *case* — a growing
set of records spread across investigation stages — with a "distributed
Merkle tree": each stage maintains its own subtree, and a top tree commits
to the per-stage roots.  Verifying one record therefore needs only the
record's stage subtree plus the small top tree, and stages can be checked
(or delegated to different custodians) independently.

The same structure serves any sharded provenance log, so it lives in
``crypto`` rather than the forensics domain module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import UnknownEntity
from .merkle import MerkleProof, MerkleTree, leaf_hash, verify_proof


@dataclass(frozen=True)
class ForestProof:
    """Two-level proof: record → stage root → forest root."""

    stage: str
    stage_proof: MerkleProof
    stage_root: bytes
    top_proof: MerkleProof

    @property
    def size_bytes(self) -> int:
        return (
            self.stage_proof.size_bytes
            + self.top_proof.size_bytes
            + len(self.stage_root)
            + len(self.stage)
        )


class CaseForest:
    """A forest of per-stage Merkle trees with a committing top tree.

    Stages are ordered by first insertion; the top tree's leaves are
    ``(stage_name, stage_root)`` pairs, so renaming or reordering stages
    is tamper-evident too.

    >>> forest = CaseForest()
    >>> forest.add("collection", {"evidence": "disk-image-1"})
    0
    >>> proof = forest.prove("collection", 0)
    >>> forest.verify({"evidence": "disk-image-1"}, proof)
    True
    """

    def __init__(self) -> None:
        self._stages: dict[str, MerkleTree] = {}
        self._stage_order: list[str] = []
        self._top: MerkleTree | None = None
        self._dirty = True

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, stage: str, record: Any) -> int:
        """Add ``record`` under ``stage``; returns the leaf index."""
        if stage not in self._stages:
            self._stages[stage] = MerkleTree()
            self._stage_order.append(stage)
        index = self._stages[stage].append(record)
        self._dirty = True
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stages(self) -> list[str]:
        return list(self._stage_order)

    def stage_size(self, stage: str) -> int:
        self._require_stage(stage)
        return len(self._stages[stage])

    def stage_root(self, stage: str) -> bytes:
        self._require_stage(stage)
        return self._stages[stage].root

    @property
    def root(self) -> bytes:
        """Forest root committing to every stage subtree."""
        self._rebuild_top()
        assert self._top is not None
        return self._top.root

    def _rebuild_top(self) -> None:
        if not self._dirty and self._top is not None:
            return
        leaves = [
            {"stage": name, "root": self._stages[name].root}
            for name in self._stage_order
        ]
        self._top = MerkleTree(leaves)
        self._dirty = False

    def _require_stage(self, stage: str) -> None:
        if stage not in self._stages:
            raise UnknownEntity(f"no such stage: {stage!r}")

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def prove(self, stage: str, index: int) -> ForestProof:
        """Prove that leaf ``index`` of ``stage`` is under the forest root."""
        self._require_stage(stage)
        self._rebuild_top()
        assert self._top is not None
        stage_tree = self._stages[stage]
        stage_position = self._stage_order.index(stage)
        return ForestProof(
            stage=stage,
            stage_proof=stage_tree.prove(index),
            stage_root=stage_tree.root,
            top_proof=self._top.prove(stage_position),
        )

    def verify(self, record: Any, proof: ForestProof) -> bool:
        """Check a two-level proof against the current forest root."""
        return self.verify_against(self.root, record, proof)

    @staticmethod
    def verify_against(root: bytes, record: Any, proof: ForestProof) -> bool:
        """Check ``proof`` for ``record`` against an explicit forest ``root``.

        This is what an external auditor does: they hold only the anchored
        forest root, not the forest.
        """
        # Level 1: record under the claimed stage root.
        if proof.stage_proof.root_from(leaf_hash(record)) != proof.stage_root:
            return False
        # Level 2: (stage, stage_root) under the forest root.
        top_leaf = {"stage": proof.stage, "root": proof.stage_root}
        return verify_proof(root, top_leaf, proof.top_proof)
