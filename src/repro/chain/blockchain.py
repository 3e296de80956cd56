"""The blockchain: an append-only, tamper-evident ledger of blocks.

Responsibilities:

* maintain the canonical chain (genesis → head) and a transaction index,
* validate every appended block (structure, linkage, height, signatures),
* execute transactions against the :class:`~repro.chain.state.StateStore`
  through a pluggable executor, collecting receipts and events,
* verify the whole chain after the fact (:meth:`verify`), which is the
  operation that *detects* the Figure-2 tampering scenario,
* support longest-chain reorganizations for the consensus sims — O(delta)
  via a per-block state undo journal, falling back to genesis replay only
  when the fork is deeper than the journal window.

Hot-path vs auditor split: every commit entry point — :meth:`append_block`,
:meth:`append_blocks`, :meth:`apply_executed_blocks`, reorg re-commit and
the reopen replay — is argument preparation around **one** skeleton,
:meth:`Blockchain._commit_group`: validate linkage → snapshot per block →
advance state → install in the store → unwind exactly what the store did
not commit → journal/prune → subscribers.  The
caller supplies how state advances (run the executor, or apply an exec
worker's deltas), whether the group is installed at all (the reopen
replay re-executes blocks the store already holds) and announced, and the
``fsync`` choice, which travels unchanged to the segment log: a single
:meth:`append_block` is a group of one with the fsync deferred to the next
group or checkpoint.  The commit path trusts the Merkle tree the block
built at construction (builder and appender are the same process), while
:meth:`verify` / :meth:`first_broken_height` always rebuild the tree from
the transaction hashes — and with ``deep=True`` recompute even those from
raw payload bytes, defeating any stale cache.

Storage split: the chain owns no block list.  All block,
transaction-index, and receipt access goes through a pluggable
:class:`~repro.persist.stores.BlockStore` — in-memory by default, or the
sqlite-indexed segment-log backend from :mod:`repro.persist.durable` —
whose only write is ``append_blocks(pairs, fsync, encoded, derived)``; the
chain never asks a store what it can do.  A store may keep a committed prefix
when it fails mid-group, so the skeleton unwinds state by the height the
store reports afterwards, never by what it attempted: chain, state and
undo journal stay aligned whatever the store did.  With a durable store
plus a :class:`~repro.persist.stores.StateSnapshotStore`, a chain reopened
on an existing directory resumes from its checkpointed state and
re-executes only the blocks above the snapshot
(``blocks_replayed_on_open``).  Reorg truncation is store-aware: replaced
blocks are physically removed from the log and index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping

from ..crypto.merkle import MerkleProof, verify_proof
from ..errors import ForkError, InvalidBlock, StorageError, TamperDetected
from ..persist.codec import EncodedReceipts
from ..persist.stores import (
    BlockSequenceView,
    BlockStore,
    MemoryBlockStore,
    StateSnapshotStore,
)
from .block import Block, GENESIS_PREV_HASH
from .receipts import Event, TransactionReceipt
from .state import StateStore
from .transaction import Transaction, TxKind

# An executor applies one transaction to state, returning a receipt.
Executor = Callable[[Transaction, StateStore, "Blockchain"], TransactionReceipt]


@dataclass
class ChainParams:
    """Static parameters of a chain instance."""

    chain_id: str = "chain-0"
    max_block_txs: int = 256
    require_signatures: bool = False
    genesis_timestamp: int = 0
    # Free-form descriptors used by cross-chain compatibility checks.
    visibility: str = "private"          # "public" | "private" | "consortium"
    extra: Mapping[str, Any] = field(default_factory=dict)
    # How many recent blocks keep a state undo journal for O(delta)
    # reorgs.  Deeper forks fall back to replay-from-genesis; 0 disables
    # journaling entirely (the replay-only baseline).
    reorg_journal_depth: int = 64


def _own(value: Any) -> Any:
    """The state's own copy of a payload value: the containers the
    canonical codec knows copied all the way down, atoms as they are.
    ``seal()`` freezes a payload's top level only, so storing a nested
    value by reference would let whoever holds it edit committed state."""
    t = type(value)
    if t is dict or t is MappingProxyType:
        return {key: _own(item) for key, item in value.items()}
    if t is list or t is tuple:
        return t(_own(item) for item in value)
    return value


def default_executor(
    tx: Transaction, state: StateStore, chain: "Blockchain"
) -> TransactionReceipt:
    """Built-in executor for plain value/data transactions.

    Contract transactions are handled when a
    :class:`~repro.contracts.runtime.ContractRuntime` is attached to the
    chain; without one they fail cleanly.
    """
    receipt = TransactionReceipt(tx_id=tx.tx_id, success=True, gas_used=1)
    try:
        if tx.kind == TxKind.TRANSFER:
            amount = int(tx.payload["amount"])
            state.transfer(tx.sender, str(tx.payload["to"]), amount)
            receipt.events.append(
                Event("transfer", "chain", {"from": tx.sender,
                                            "to": tx.payload["to"],
                                            "amount": amount})
            )
        elif tx.kind == TxKind.DATA:
            key = str(tx.payload.get("key", tx.tx_id))
            state.set("data", key, _own(tx.payload.get("value")))
            receipt.gas_used = 1 + tx.size_bytes // 64
        elif tx.kind == TxKind.PROVENANCE:
            key = str(tx.payload.get("anchor_id", tx.tx_id))
            state.set("provenance", key, _own(dict(tx.payload)))
            receipt.gas_used = 2
            receipt.events.append(
                Event("provenance_anchored", "chain", {"anchor_id": key})
            )
        elif tx.kind in (TxKind.CONTRACT_DEPLOY, TxKind.CONTRACT_CALL):
            runtime = chain.contract_runtime
            if runtime is None:
                raise InvalidBlock("no contract runtime attached to chain")
            return runtime.execute(tx, state)
        elif tx.kind == TxKind.CROSS_CHAIN:
            key = str(tx.payload.get("message_id", tx.tx_id))
            state.set("crosschain", key, _own(dict(tx.payload)))
            receipt.events.append(
                Event("cross_chain_message", "chain", {"message_id": key})
            )
        elif tx.kind == TxKind.GOVERNANCE:
            key = str(tx.payload.get("param", tx.tx_id))
            state.set("governance", key, _own(tx.payload.get("value")))
        else:  # pragma: no cover - enum is closed
            raise InvalidBlock(f"unknown tx kind {tx.kind}")
    except Exception as exc:  # noqa: BLE001 - receipts capture failures
        receipt.success = False
        receipt.error = str(exc)
    return receipt


def execute_block(block: Block, state: StateStore, executor: Executor,
                  chain) -> list[TransactionReceipt]:
    """Apply ``block``'s transactions to ``state`` in order — the one
    place a block executes, for the chain and for an exec worker's
    replica alike (``chain`` is what the executor dereferences)."""
    receipts = []
    for tx in block.transactions:
        receipt = executor(tx, state, chain)
        receipt.block_height = block.height
        receipts.append(receipt)
    return receipts


class Blockchain:
    """A single chain instance (one per organization / per node copy)."""

    def __init__(
        self,
        params: ChainParams | None = None,
        executor: Executor | None = None,
        store: BlockStore | None = None,
        snapshot_store: StateSnapshotStore | None = None,
        contract_runtime=None,
    ) -> None:
        self.params = params or ChainParams()
        self.executor: Executor = executor or default_executor
        self.state = StateStore()
        self._store: BlockStore = store if store is not None \
            else MemoryBlockStore()
        self._snapshot_store = snapshot_store
        self._blocks_view = BlockSequenceView(self._store)
        # Snapshot handles for the journaled tail of the chain; entry i
        # (from the right) undoes block `height - i`.
        self._block_snaps: deque[int] = deque()
        # Normally set post-construction by ContractRuntime.attach(); a
        # durable chain that replays contract blocks on reopen must get
        # the runtime *here*, before the restore replay runs.
        self.contract_runtime = contract_runtime
        self._subscribers: list[Callable[[Block, list[TransactionReceipt]], None]] = []
        self._reorg_subscribers: list[Callable[[int], None]] = []
        # Blocks re-executed while adopting a non-empty store (0 after a
        # clean close+checkpoint: the snapshot already covers the head).
        self.blocks_replayed_on_open = 0
        if len(self._store) == 0:
            genesis = Block(
                height=0,
                prev_hash=GENESIS_PREV_HASH,
                transactions=[],
                timestamp=self.params.genesis_timestamp,
                proposer="genesis",
                consensus_meta={"chain_id": self.params.chain_id},
            )
            self._store.append_block(genesis, [])
        else:
            self._restore_from_store()

    def _restore_from_store(self) -> None:
        """Adopt an existing (reopened) store: restore the checkpointed
        state image and re-execute only the blocks above it."""
        replay_from = 1
        if self._snapshot_store is not None:
            snap_height = self._snapshot_store.snapshot_height()
            if snap_height is not None:
                snap_hash = self._snapshot_store.snapshot_block_hash()
                usable = (
                    snap_height <= self._store.height()
                    and (snap_hash == b"" or snap_hash ==
                         self._store.block_at(snap_height).block_hash)
                )
                if usable:
                    self.state.load_entries(self._snapshot_store.load()[1])
                    replay_from = snap_height + 1
                else:
                    # Recovery truncated the chain below the checkpoint,
                    # or the image was taken on a branch that has since
                    # been reorged away — fall back to full replay.
                    self._snapshot_store.clear()
        for block in self._store.iter_blocks(replay_from):
            if self.contract_runtime is None and any(
                tx.kind in (TxKind.CONTRACT_DEPLOY, TxKind.CONTRACT_CALL)
                for tx in block.transactions
            ):
                # Without the runtime the executor would turn every
                # contract tx into a failed receipt and the replayed
                # state would silently diverge from the pre-crash chain.
                raise StorageError(
                    f"stored block {block.height} holds contract "
                    "transactions; reopen the chain with "
                    "contract_runtime= so the restore replay can "
                    "re-execute them"
                )
            self._replay_stored(block)
            self.blocks_replayed_on_open += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def chain_id(self) -> str:
        return self.params.chain_id

    @property
    def store(self) -> BlockStore:
        return self._store

    @property
    def blocks(self) -> BlockSequenceView:
        """Read-only sequence view over the block store (the former
        in-memory list; all access now routes through store calls)."""
        return self._blocks_view

    @blocks.setter
    def blocks(self, new_blocks) -> None:
        # Tamper/bench hook: wholesale replacement is only meaningful on
        # the in-memory backend (probe chains built from copied blocks).
        if not isinstance(self._store, MemoryBlockStore):
            raise StorageError(
                "cannot wholesale-assign blocks on a durable store"
            )
        self._store.reset(list(new_blocks))

    @property
    def receipts(self) -> Mapping[str, TransactionReceipt]:
        """Mapping view tx_id → receipt, served by the store."""
        return self._store.receipts_map()

    @property
    def head(self) -> Block:
        return self._store.head_block()

    @property
    def height(self) -> int:
        return self._store.height()

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Block]:
        return self._store.iter_blocks()

    def block_at(self, height: int) -> Block:
        if not 0 <= height <= self._store.height():
            raise InvalidBlock(f"no block at height {height}")
        return self._store.block_at(height)

    def find_transaction(self, tx_id: str) -> tuple[Block, Transaction] | None:
        """Locate a committed transaction by id via the index."""
        loc = self._store.tx_location(tx_id)
        if loc is None:
            return None
        height, pos = loc
        block = self._store.block_at(height)
        return block, block.transactions[pos]

    def receipt_for(self, tx_id: str) -> TransactionReceipt | None:
        return self._store.receipt_for(tx_id)

    def subscribe(
        self, callback: Callable[[Block, list[TransactionReceipt]], None]
    ) -> None:
        """Register a hook invoked after each block commit (capture layer)."""
        self._subscribers.append(callback)

    def subscribe_reorg(self, callback: Callable[[int], None]) -> None:
        """Register a hook invoked with the fork height once
        :meth:`reorg_to` has dropped the blocks above it — for whatever
        is derived from those blocks and held outside the store."""
        self._reorg_subscribers.append(callback)

    # ------------------------------------------------------------------
    # Building and appending blocks
    # ------------------------------------------------------------------
    def build_block(
        self,
        transactions: list[Transaction],
        timestamp: int = 0,
        proposer: str = "",
        consensus_meta: Mapping[str, Any] | None = None,
        nonce: int = 0,
    ) -> Block:
        """Assemble (but do not append) the next block."""
        if len(transactions) > self.params.max_block_txs:
            raise InvalidBlock(
                f"block would carry {len(transactions)} txs; "
                f"limit is {self.params.max_block_txs}"
            )
        return Block(
            height=self.height + 1,
            prev_hash=self.head.block_hash,
            transactions=transactions,
            timestamp=timestamp,
            proposer=proposer,
            consensus_meta=consensus_meta,
            nonce=nonce,
        )

    def append_block(self, block: Block,
                     derived: Any = None) -> list[TransactionReceipt]:
        """Validate, execute, and commit ``block``; returns its receipts.
        A group of one whose fsync is deferred to the next group commit
        or checkpoint.  ``derived`` is the proof state the caller
        computed from this block (an anchor batch, a beacon round): the
        store commits it with the block, as the block's derived row."""
        return self.append_blocks(
            [block], fsync=False,
            derived=None if derived is None else {block.height: derived},
        )[0]

    def append_blocks(
        self, blocks: list[Block], fsync: bool = True,
        derived: Mapping[int, Any] | None = None,
    ) -> list[list[TransactionReceipt]]:
        """Validate, execute, and **group-commit** consecutive blocks.

        The store commit happens once for the whole group — on the
        durable backend one buffered log write (fsynced when ``fsync``)
        and one sqlite transaction.  A failure while executing or
        committing unwinds every block the store did not commit.
        """
        for block in blocks:
            # Trust the tree the block built at construction — the
            # auditor paths (verify / first_broken_height) rebuild it.
            block.verify_structure(use_cached_tree=True)
            for tx in block.transactions:
                tx.validate(require_signature=self.params.require_signatures)
        return self._commit_group(blocks, fsync=fsync, derived=derived)

    def apply_executed_blocks(
        self,
        blocks: list[Block],
        deltas: list[list],
        encoded: list[tuple[bytes, list[bytes]]],
        expected_state_root: bytes | None = None,
    ) -> None:
        """Commit blocks that were validated and executed *elsewhere*
        (an exec worker process), applying their state deltas instead of
        re-running transactions.

        ``deltas[i]`` is block ``i``'s :meth:`StateStore.drain_snapshot_delta`
        change set; ``encoded[i]`` is the ``(frame, receipt bodies)`` the
        caller already holds for it (the job frame it sent, the bodies
        the worker returned), handed to the store so nothing is encoded
        twice — receipts are decoded only if a subscriber or an
        object-keeping store reads them.

        ``expected_state_root`` is the executing worker's post-group
        root: when it does not match the parent's root after applying the
        deltas, everything is unwound and :class:`TamperDetected` is
        raised *before* any store commit — a diverging worker can never
        seal state the parent did not reproduce.
        """
        if len(deltas) != len(blocks) or len(encoded) != len(blocks):
            raise InvalidBlock("need one state delta and one encoded "
                               "frame per block")
        self._commit_group(blocks, fsync=True, deltas=deltas,
                           encoded=encoded,
                           expected_state_root=expected_state_root)

    def _commit_block(self, block: Block) -> list[TransactionReceipt]:
        """Execute and attach an already-validated block without
        announcing it (reorg re-commit, deep-fork replay)."""
        return self._commit_group([block], fsync=False, announce=False)[0]

    def _replay_stored(self, block: Block) -> None:
        """Re-execute a block the store already holds (reopen replay and
        the deep-fork fallback); journaled exactly like a fresh commit."""
        self._commit_group([block], fsync=False, install=False,
                           announce=False)

    def _commit_group(
        self,
        blocks: list[Block],
        *,
        fsync: bool,
        install: bool = True,
        announce: bool = True,
        deltas: list[list] | None = None,
        encoded=None,
        expected_state_root: bytes | None = None,
        derived: Mapping[int, Any] | None = None,
    ) -> list[list[TransactionReceipt]]:
        """The one commit skeleton (see the module docstring for what
        each caller supplies).  State advances across each block by
        executing it, or — given ``deltas`` from a worker that already
        did — by applying block ``i``'s change set."""
        if not blocks:
            return []
        start_height = self._store.height()
        if install:
            prev = self.head
            for block in blocks:
                if block.height != prev.height + 1:
                    raise InvalidBlock(
                        f"expected height {prev.height + 1}, "
                        f"got {block.height}"
                    )
                if block.header.prev_hash != prev.block_hash:
                    raise InvalidBlock(
                        f"block {block.height} does not link to "
                        f"{prev.block_id[:10]}…"
                    )
                prev = block
        # One snapshot per block whatever the journal depth: the unwind
        # needs them, and at depth 0 they are folded away afterwards.
        snaps: list[int] = []
        all_receipts: list[list[TransactionReceipt]] = []
        try:
            for index, block in enumerate(blocks):
                snaps.append(self.state.snapshot())
                if deltas is None:
                    receipts = execute_block(block, self.state,
                                             self.executor, self)
                else:
                    self.state.apply_delta(deltas[index])
                    receipts = EncodedReceipts(encoded[index][1])
                all_receipts.append(receipts)
            if expected_state_root is not None \
                    and self.state.state_root() != expected_state_root:
                raise TamperDetected(
                    f"chain {self.chain_id}: worker-reported state root "
                    "does not match the parent's delta replay"
                )
            if install:
                self._store.append_blocks(
                    list(zip(blocks, all_receipts)), fsync=fsync,
                    encoded=encoded, derived=derived,
                )
        except BaseException:
            # A raising executor — or a store that failed the append —
            # must not leave a half-applied block behind.  Unwind what
            # the store did not commit (it may have kept a prefix), so
            # the journal stays aligned with committed blocks.
            committed = self._store.height() - start_height
            while len(snaps) > committed:
                self.state.rollback(snaps.pop())
            raise
        finally:
            self._journal(snaps)
        if announce:
            for block, receipts in zip(blocks, all_receipts):
                for callback in self._subscribers:
                    callback(block, receipts)
        return all_receipts

    def _journal(self, snaps: list[int]) -> None:
        """Keep committed blocks' snapshots as the reorg journal,
        bounded to ``reorg_journal_depth`` (0: fold them away)."""
        depth = self.params.reorg_journal_depth
        if depth > 0:
            self._block_snaps.extend(snaps)
            while len(self._block_snaps) > depth:
                self.state.prune_oldest_snapshot()
                self._block_snaps.popleft()
        else:
            for handle in reversed(snaps):
                self.state.commit_snapshot(handle)

    # ------------------------------------------------------------------
    # Durability (checkpoints; no-ops on the in-memory backend)
    # ------------------------------------------------------------------
    def save_state_image(self) -> None:
        """Persist the current state image at the head height, so a
        reopen resumes here instead of replaying (a caller that syncs
        the whole storage itself stops here)."""
        if self._snapshot_store is not None:
            self._snapshot_store.save(self.height,
                                      self.state.dump_entries(),
                                      block_hash=self.head.block_hash)

    def checkpoint(self) -> None:
        """:meth:`save_state_image`, then fsync the store."""
        self.save_state_image()
        self._store.sync()

    def close(self) -> None:
        """Checkpoint and release the store (reopenable afterwards)."""
        self.checkpoint()
        self._store.close()

    # ------------------------------------------------------------------
    # Whole-chain verification (tamper detection)
    # ------------------------------------------------------------------
    def verify(self, deep: bool = False) -> None:
        """Re-verify every block and link; raises :class:`TamperDetected`
        carrying the ``height`` of the first break.

        This is the auditor's operation: it detects any post-hoc mutation
        of a committed transaction or header, and reports *where* the
        chain breaks.  Merkle trees are always rebuilt (cached roots are
        never trusted here); ``deep=True`` additionally recomputes every
        transaction and header hash from raw bytes, which also catches
        in-place mutation of an unsealed payload mapping.
        """
        prev_hash = GENESIS_PREV_HASH
        for block in self._store.iter_blocks():
            if block.header.prev_hash != prev_hash:
                raise TamperDetected(
                    f"chain broken at height {block.height}: prev-hash "
                    "does not match preceding block", height=block.height)
            try:
                block.verify_structure(deep=deep)
            except InvalidBlock as exc:
                raise TamperDetected(str(exc), height=block.height) from exc
            prev_hash = (block.header.compute_block_hash() if deep
                         else block.header.block_hash)

    def is_intact(self, deep: bool = False) -> bool:
        """Boolean form of :meth:`verify`."""
        return self.first_broken_height(deep=deep) is None

    def first_broken_height(self, deep: bool = False) -> int | None:
        """Height at which :meth:`verify` fails, or ``None`` if intact."""
        try:
            self.verify(deep=deep)
        except TamperDetected as exc:
            return exc.height
        return None

    # ------------------------------------------------------------------
    # Light-client style proofs
    # ------------------------------------------------------------------
    def prove_transaction(self, tx_id: str) -> tuple[Block, MerkleProof] | None:
        """Inclusion proof usable by a holder of just the block header."""
        loc = self._store.tx_location(tx_id)
        if loc is None:
            return None
        height, pos = loc
        block = self._store.block_at(height)
        return block, block.prove_inclusion(pos)

    @staticmethod
    def verify_transaction_proof(
        header_merkle_root: bytes, tx: Transaction, proof: MerkleProof
    ) -> bool:
        """Check an inclusion proof against a known header root."""
        return verify_proof(header_merkle_root, tx.tx_hash, proof)

    # ------------------------------------------------------------------
    # Reorganization (longest-chain consensus support)
    # ------------------------------------------------------------------
    def reorg_to(self, new_suffix: list[Block], fork_height: int) -> None:
        """Replace blocks above ``fork_height`` with ``new_suffix``.

        Only accepts strictly longer chains (longest-chain rule).
        Candidate validation starts at the fork point — the kept prefix
        was validated when it was committed.  State is rewound with the
        per-block undo journal when the fork is within the journal window
        (O(delta) in the number of replaced + new blocks), and only falls
        back to a full replay from genesis for deeper forks.  Replaced
        blocks are truncated out of the store — on the durable backend
        that physically cuts the segment log and index, so the on-disk
        chain always matches the in-memory head.

        Caveat: the journal path rewinds to the exact fork-point state,
        while the replay fallback rebuilds from a fresh
        :class:`StateStore` and therefore discards state written
        *outside* block execution (direct ``state.set``/``credit`` calls,
        a test-fixture convenience).  Chains whose state comes entirely
        from executed transactions — every production flow — get
        identical results from both paths.
        """
        if fork_height < 0 or fork_height > self.height:
            raise ForkError(f"fork height {fork_height} out of range")
        if fork_height + len(new_suffix) <= self.height:
            raise ForkError("refusing reorg: new chain is not longer")
        # Validate the new suffix against the kept prefix only.
        prev = self._store.block_at(fork_height)
        for i, block in enumerate(new_suffix):
            if block.header.prev_hash != prev.block_hash:
                raise ForkError(f"candidate chain broken at index {i}")
            if block.height != fork_height + 1 + i:
                raise ForkError(
                    f"candidate block at index {i} has height "
                    f"{block.height}, expected {fork_height + 1 + i}"
                )
            block.verify_structure()
            prev = block
        delta = self.height - fork_height
        if delta <= len(self._block_snaps):
            for _ in range(delta):
                self._rollback_head_block()
        else:
            self._rewind_by_replay(fork_height)
        self._discard_snapshot_above(fork_height)
        # Before the new suffix commits: the old one is gone from the
        # store whether or not that succeeds.
        for callback in self._reorg_subscribers:
            callback(fork_height)
        for block in new_suffix:
            self._commit_block(block)

    def _rollback_head_block(self) -> None:
        """Undo the head block: state, receipts, and index (O(block))."""
        height = self._store.height()
        self.state.rollback(self._block_snaps.pop())
        self._store.truncate_above(height - 1)

    def _rewind_by_replay(self, fork_height: int) -> None:
        """Rebuild the fork-point state from scratch (deep-fork
        fallback)."""
        self.state = StateStore()
        self._block_snaps.clear()
        self._store.truncate_above(fork_height)
        for height in range(1, fork_height + 1):
            # Re-execute without re-validating signatures (already done).
            self._replay_stored(self._store.block_at(height))

    def _discard_snapshot_above(self, fork_height: int) -> None:
        """A checkpoint above the fork point describes the *orphaned*
        branch's state; it must never be restored from."""
        if self._snapshot_store is not None:
            snap_height = self._snapshot_store.snapshot_height()
            if snap_height is not None and snap_height > fork_height:
                self._snapshot_store.clear()

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def total_size_bytes(self) -> int:
        return sum(block.size_bytes for block in self._store.iter_blocks())
