"""Merkle trees with inclusion and consistency proofs.

The Merkle root is the integrity anchor the paper's Figure 2 describes:
each block header stores the root of its transactions, so mutating any
transaction changes the root, which changes the header hash, which
invalidates every subsequent block.

The construction follows Certificate Transparency's hygiene:

* leaves are hashed with a leaf domain tag, interior nodes with a node tag
  (closing the second-preimage/reinterpretation attacks);
* odd nodes are promoted, not duplicated (avoids the Bitcoin duplicate-leaf
  ambiguity);
* inclusion proofs ("leaf i is under root R") are succinct; append-only
  growth is auditable via :meth:`MerkleTree.prefix_root` — an auditor who
  remembers the root at size n recomputes the prefix root from the
  current tree and compares (a full prefix audit rather than RFC 6962's
  succinct consistency proof, whose tree shape differs from this one).

Performance invariants (the hot-path contract):

* :meth:`MerkleTree.append` / :meth:`MerkleTree.extend` update the tree
  *incrementally* — O(log n) node hashes per appended leaf, touching only
  the right edge — and are guaranteed to produce byte-identical levels to
  a from-scratch :meth:`MerkleTree._build` over the same leaves (the
  property suite checks every size 0–65, covering odd-promotion edges);
* :func:`leaf_hash` memoizes digests for hashable values, keyed by
  ``(type, value)`` so cross-type equalities (``True == 1``,
  ``TxKind.DATA == "data"``) can never alias a cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable, Sequence

from .hashing import DOMAIN_LEAF, DOMAIN_NODE, hash_bytes, hash_canonical


@lru_cache(maxsize=1 << 16)
def _leaf_hash_cached(tp: type, value: Any) -> bytes:
    if tp is bytes:
        return hash_bytes(value, DOMAIN_LEAF)
    return hash_canonical(value, DOMAIN_LEAF)


# Only types whose equality implies an identical canonical encoding may
# share a memo entry.  Floats are excluded (0.0 == -0.0 but they encode
# differently via repr), as are containers that could nest one.
_MEMOIZABLE_LEAF_TYPES = (bytes, str, int)


def leaf_hash(value: Any) -> bytes:
    """Hash a leaf value with the leaf domain tag (memoized).

    Digest-like values (the common case: 32-byte tx hashes) are served
    from a type-keyed LRU; every other type computes directly — both
    because most are unhashable and because cross-value equality (e.g.
    ``0.0 == -0.0`` with distinct encodings) must never alias a cache
    entry.
    """
    tp = type(value)
    if tp in _MEMOIZABLE_LEAF_TYPES:
        return _leaf_hash_cached(tp, value)
    if isinstance(value, bytes):
        return hash_bytes(value, DOMAIN_LEAF)
    return hash_canonical(value, DOMAIN_LEAF)


def node_hash(left: bytes, right: bytes) -> bytes:
    """Hash an interior node from its children."""
    return hash_bytes(left + right, DOMAIN_NODE)


EMPTY_ROOT = hash_bytes(b"", DOMAIN_LEAF)


@dataclass(frozen=True)
class MerkleProof:
    """An inclusion proof: the audit path from a leaf to the root.

    ``path`` holds ``(sibling_hash, sibling_is_right)`` pairs from the leaf
    level upward.  ``(leaf_index, tree_size)`` fix the path's shape: its
    length and every direction follow from them under odd-node
    promotion, so a path can only be read as the leaf it was made for.
    """

    leaf_index: int
    tree_size: int
    path: tuple[tuple[bytes, bool], ...] = field(default_factory=tuple)

    def root_from(self, leaf: bytes) -> bytes | None:
        """Recompute the root implied by this proof for ``leaf``;
        ``None`` when the path does not have the shape of leaf
        ``leaf_index`` in a tree of ``tree_size`` leaves."""
        index, size = self.leaf_index, self.tree_size
        if not 0 <= index < size:
            return None
        steps = iter(self.path)
        current = leaf
        while size > 1:
            # The last node of an odd level is promoted: no sibling.
            if index % 2 or index + 1 < size:
                sibling, sibling_is_right = next(steps, (None, None))
                if sibling_is_right != (index % 2 == 0):
                    return None
                if sibling_is_right:
                    current = node_hash(current, sibling)
                else:
                    current = node_hash(sibling, current)
            index, size = index // 2, (size + 1) // 2
        return None if next(steps, None) is not None else current

    @property
    def size_bytes(self) -> int:
        """Wire size of the proof (for the storage-overhead benches)."""
        return sum(len(h) + 1 for h, _ in self.path) + 16


class MerkleTree:
    """A static Merkle tree over a sequence of values.

    >>> tree = MerkleTree(["a", "b", "c"])
    >>> proof = tree.prove(1)
    >>> verify_proof(tree.root, "b", proof)
    True
    >>> verify_proof(tree.root, "x", proof)
    False
    """

    def __init__(self, values: Iterable[Any] = ()) -> None:
        self._leaves: list[bytes] = [leaf_hash(v) for v in values]
        # _levels[0] is the leaf level; _levels[-1] is [root].
        self._levels: list[list[bytes]] = []
        self._build()

    def _build(self) -> None:
        if not self._leaves:
            self._levels = [[]]
            return
        levels = [list(self._leaves)]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            nxt: list[bytes] = []
            for i in range(0, len(prev) - 1, 2):
                nxt.append(node_hash(prev[i], prev[i + 1]))
            if len(prev) % 2 == 1:
                nxt.append(prev[-1])  # promote the odd node
            levels.append(nxt)
        self._levels = levels

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def root(self) -> bytes:
        """Root digest (``EMPTY_ROOT`` for an empty tree)."""
        if not self._leaves:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def leaf(self, index: int) -> bytes:
        return self._leaves[index]

    # ------------------------------------------------------------------
    # Mutation (incremental: O(log n) node hashes per appended leaf)
    # ------------------------------------------------------------------
    def append(self, value: Any) -> int:
        """Append a leaf incrementally and return its index.

        Only the right-edge path from the new leaf to the root is
        rehashed (a CT-style frontier update), so appends cost O(log n)
        instead of the O(n) full rebuild.  The resulting levels are
        byte-identical to a from-scratch build over the same leaves.
        """
        self._append_leaf(leaf_hash(value))
        return len(self._leaves) - 1

    def extend(self, values: Iterable[Any]) -> None:
        """Append several leaves; O(k log n) total."""
        for value in values:
            self._append_leaf(leaf_hash(value))

    def _append_leaf(self, leaf: bytes) -> None:
        self._leaves.append(leaf)
        if len(self._leaves) == 1:
            self._levels = [[leaf]]
            return
        self._levels[0].append(leaf)
        level = 0
        while len(self._levels[level]) > 1:
            current = self._levels[level]
            size = len(current)
            # Parent of the right edge: a real node when the level is
            # even-sized, the promoted odd node otherwise.
            if size % 2 == 0:
                parent_value = node_hash(current[-2], current[-1])
            else:
                parent_value = current[-1]
            parent_size = (size + 1) // 2
            if level + 1 == len(self._levels):
                self._levels.append([parent_value])
            else:
                parent = self._levels[level + 1]
                if len(parent) == parent_size:
                    parent[-1] = parent_value
                else:
                    parent.append(parent_value)
            level += 1

    # ------------------------------------------------------------------
    # Proofs
    # ------------------------------------------------------------------
    def prove(self, index: int) -> MerkleProof:
        """Inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range")
        path: list[tuple[bytes, bool]] = []
        i = index
        for level in self._levels[:-1]:
            if i % 2 == 0:
                sibling_index = i + 1
                sibling_is_right = True
            else:
                sibling_index = i - 1
                sibling_is_right = False
            if sibling_index < len(level):
                path.append((level[sibling_index], sibling_is_right))
            # else: odd node promoted with no sibling at this level.
            i //= 2
        return MerkleProof(
            leaf_index=index, tree_size=len(self._leaves), path=tuple(path)
        )

    # ------------------------------------------------------------------
    # Append-only auditing
    # ------------------------------------------------------------------
    def prefix_root(self, size: int) -> bytes:
        """Root the tree had when it held its first ``size`` leaves.

        An auditor who recorded the root at ``size`` compares it with
        this value on the grown tree: equality proves the log is
        append-only (no historical leaf was changed or removed).
        """
        if not 0 <= size <= len(self._leaves):
            raise IndexError(f"prefix size {size} out of range")
        prefix = MerkleTree()
        prefix._leaves = list(self._leaves[:size])
        prefix._build()
        return prefix.root

    def is_append_of(self, old_root: bytes, old_size: int) -> bool:
        """Does this tree extend the tree that had ``old_root`` at
        ``old_size`` leaves?"""
        if old_size > len(self._leaves):
            return False
        return self.prefix_root(old_size) == old_root


def verify_proof(root: bytes, value: Any, proof: MerkleProof) -> bool:
    """Check that ``value`` is included under ``root`` via ``proof``."""
    return proof.root_from(leaf_hash(value)) == root


def root_of(values: Sequence[Any]) -> bytes:
    """One-shot root computation without keeping the tree around."""
    return MerkleTree(values).root
