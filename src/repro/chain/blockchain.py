"""The blockchain: an append-only, tamper-evident ledger of blocks.

Responsibilities:

* maintain the canonical chain (genesis → head) and a transaction index,
* validate every appended block (structure, linkage, height, signatures),
* execute transactions against the :class:`~repro.chain.state.StateStore`
  through a pluggable executor, collecting receipts and events,
* verify the whole chain after the fact (:meth:`verify`), which is the
  operation that *detects* the Figure-2 tampering scenario.

A sealed block is final: nothing here replaces a committed block, so
whatever is derived from one (an anchor batch, a beacon round, a proof
a caller memoised) stays valid for the life of the chain.

Hot-path vs auditor split: every commit entry point — :meth:`append_block`,
:meth:`append_blocks`, :meth:`apply_executed_blocks` and the reopen
replay — is argument preparation around **one** skeleton,
:meth:`Blockchain._commit_group`: validate linkage → one state snapshot →
advance state → install in the store with the group's net state change →
release the snapshot (or, on any failure, roll it back) → subscribers.
The caller supplies how state advances (run the executor, or apply an
exec worker's net delta), whether the group is installed and announced
at all (the reopen replay re-executes blocks the store already holds),
and the ``fsync`` choice, which travels unchanged to the segment log: a
single :meth:`append_block` is a group of one with the fsync deferred to
the next group or checkpoint.  The commit path trusts the Merkle tree the
block built at construction (builder and appender are the same process),
while :meth:`verify` / :meth:`first_broken_height` always rebuild the tree
from the transaction hashes — and with ``deep=True`` recompute even those
from raw payload bytes, defeating any stale cache.

Storage split: the chain owns no block list.  All block and
transaction-index access goes through a pluggable
:class:`~repro.persist.stores.BlockStore` — in-memory by default, or the
sqlite-indexed segment-log backend from :mod:`repro.persist.durable` —
whose only block write is ``append_blocks(blocks, fsync, encoded,
derived, state)``; the chain never asks a store what it can do.
Receipts are not stored: a commit returns them and hands them to
subscribers, and nothing reads one back.  The state is not checkpointed
either: each group hands its store the group's net change
(:meth:`~repro.chain.state.StateStore.delta_since` over the snapshot
the group opened anyway), which a durable store commits as state rows
in the group's own transaction.  A chain reopened on an existing
directory loads those rows and re-executes only the blocks above the
height they describe (``blocks_replayed_on_open``: 0, wherever the
process died, unless recovery dropped the block the rows described — a
power loss that lost an unfsynced frame — or the store predates them).
A store commits a group whole or raises having committed nothing
(:meth:`~repro.persist.stores.BlockStore.append_blocks`), so a failed
group rolls its one snapshot back and chain and state stay aligned;
no snapshot outlives its group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..crypto.merkle import MerkleProof
from ..errors import ChainError, InvalidBlock, StorageError, TamperDetected
from ..persist.stores import (
    BlockSequenceView,
    BlockStore,
    MemoryBlockStore,
)
from ..serialization import own
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
            state.set("data", key, own(tx.payload.get("value")))
            receipt.gas_used = 1 + tx.size_bytes // 64
        elif tx.kind == TxKind.PROVENANCE:
            key = str(tx.payload.get("anchor_id", tx.tx_id))
            state.set("provenance", key, own(tx.payload))
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
            state.set("crosschain", key, own(tx.payload))
            receipt.events.append(
                Event("cross_chain_message", "chain", {"message_id": key})
            )
        elif tx.kind == TxKind.GOVERNANCE:
            key = str(tx.payload.get("param", tx.tx_id))
            state.set("governance", key, own(tx.payload.get("value")))
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
        contract_runtime=None,
    ) -> None:
        self.params = params or ChainParams()
        self.executor: Executor = executor or default_executor
        self.state = StateStore()
        self._store: BlockStore = store if store is not None \
            else MemoryBlockStore()
        self._blocks_view = BlockSequenceView(self._store)
        # Normally set post-construction by ContractRuntime.attach(); a
        # durable chain that replays contract blocks on reopen must get
        # the runtime *here*, before the restore replay runs.
        self.contract_runtime = contract_runtime
        self._subscribers: list[Callable[[Block, list[TransactionReceipt]], None]] = []
        # Blocks re-executed while adopting a non-empty store (0 when its
        # state rows describe its head).
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
            self._store.append_blocks([genesis], fsync=False,
                                      state=lambda: ())
        else:
            self._restore_from_store()

    def _restore_from_store(self) -> None:
        """Adopt an existing (reopened) store: load the state rows it
        committed with its blocks and re-execute only the blocks above
        the height they describe — none, unless the rows lag the head
        (a store written before state committed with its blocks, a tail
        installed without execution) or recovery dropped the block they
        described (then they are gone, and every block replays).  A
        replay writes its result back as the rows, so the next open
        replays nothing."""
        described, entries = self._store.state_image()
        self.state.load_entries(entries)
        # Genesis carries no transactions: there is nothing to replay.
        for block in self._store.iter_blocks(max(described, 0) + 1):
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
            # Already stored: re-executed, neither installed nor
            # announced again.
            self._commit_group([block], fsync=False, install=False)
            self.blocks_replayed_on_open += 1
        if described != self.height:
            self._store.install_state(self.height, self.state.dump_entries())

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
    def head(self) -> Block:
        return self._store.head_block()

    @property
    def height(self) -> int:
        return self._store.height()

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

    def subscribe(
        self, callback: Callable[[Block, list[TransactionReceipt]], None]
    ) -> None:
        """Register a hook invoked after each block commit (capture layer)."""
        self._subscribers.append(callback)

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
        committing unwinds the whole group.
        """
        for block in blocks:
            # Trust the tree the block built at construction — the
            # auditor paths (verify / first_broken_height) rebuild it.
            block.verify_structure(use_cached_tree=True)
        self._validate_transactions(blocks)
        return self._commit_group(blocks, fsync=fsync, derived=derived)

    def _validate_transactions(self, blocks: list[Block]) -> None:
        """Every transaction's own checks, its signature included when
        the chain requires one — for a transaction admission verified,
        one probe of the mark that check left."""
        require = self.params.require_signatures
        for block in blocks:
            for tx in block.transactions:
                tx.validate(require_signature=require)

    def apply_executed_blocks(
        self,
        blocks: list[Block],
        delta: list,
        encoded: list[bytes],
        expected_state_root: bytes | None = None,
    ) -> None:
        """Commit blocks that were validated and executed *elsewhere*
        (an exec worker process), applying their net state delta instead
        of re-running transactions.

        ``delta`` is the whole group's :meth:`StateStore.delta_since`
        change set, applied once under the group's snapshot, so the
        store's state rows get the same net change an executing group
        hands it; ``encoded[i]`` is the frame the caller already holds
        for it (the job frame it sent), handed to the store so nothing is
        encoded twice.  A worker returns no receipts, so a chain with
        subscribers refuses this path (:class:`ChainError`) and executes
        its blocks itself.

        Workers check structure only and hold no key: every transaction
        is validated here first, as :meth:`append_blocks` does, signature
        included when the chain requires one.

        ``expected_state_root`` is the executing worker's post-group
        root: when it does not match the parent's root after applying the
        delta, everything is unwound and :class:`TamperDetected` is
        raised *before* any store commit — a diverging worker can never
        seal state the parent did not reproduce.
        """
        if len(encoded) != len(blocks):
            raise InvalidBlock("need one encoded frame per block")
        if self._subscribers:
            raise ChainError(f"chain {self.chain_id} has subscribers: "
                             "worker-executed blocks carry no receipts")
        self._validate_transactions(blocks)
        self._commit_group(blocks, fsync=True, delta=delta,
                           encoded=encoded,
                           expected_state_root=expected_state_root)

    def _commit_group(
        self,
        blocks: list[Block],
        *,
        fsync: bool,
        install: bool = True,
        delta: list | None = None,
        encoded=None,
        expected_state_root: bytes | None = None,
        derived: Mapping[int, Any] | None = None,
    ) -> list[list[TransactionReceipt]]:
        """The one commit skeleton (see the module docstring for what
        each caller supplies).  State advances across the group by
        executing each block, or — given the ``delta`` of a worker that
        already did — by applying that one net change set."""
        if not blocks:
            return []
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
        # One snapshot for the group: the store commits it whole or not
        # at all, so a failure rolls it back and success releases it.
        snap = self.state.snapshot()
        all_receipts: list[list[TransactionReceipt]] = []
        try:
            if delta is None:
                for block in blocks:
                    all_receipts.append(execute_block(
                        block, self.state, self.executor, self))
            else:
                self.state.apply_delta(delta)
            if expected_state_root is not None \
                    and self.state.state_root() != expected_state_root:
                raise TamperDetected(
                    f"chain {self.chain_id}: worker-reported state root "
                    "does not match the parent's delta replay"
                )
            if install:
                self._store.append_blocks(
                    blocks, fsync=fsync, encoded=encoded, derived=derived,
                    state=lambda: self.state.delta_since(snap))
        except BaseException:
            # A raising executor — or a store that failed the append,
            # having committed nothing — must not leave a half-applied
            # group behind.
            self.state.rollback(snap)
            raise
        self.state.release_snapshots(snap)
        if install:
            for block, receipts in zip(blocks, all_receipts):
                for callback in self._subscribers:
                    callback(block, receipts)
        return all_receipts

    # ------------------------------------------------------------------
    # Durability (no-ops on the in-memory backend)
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Fsync the store: everything, state rows included, already
        committed with its group."""
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
        """Inclusion proof usable by a holder of just the block header
        (:func:`repro.verify.tx_in_header`)."""
        loc = self._store.tx_location(tx_id)
        if loc is None:
            return None
        height, pos = loc
        block = self._store.block_at(height)
        return block, block.prove_inclusion(pos)
