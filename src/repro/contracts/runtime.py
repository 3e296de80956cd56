"""Contract runtime: executes deploy/call transactions against a chain.

The runtime attaches to a :class:`~repro.chain.blockchain.Blockchain`; the
chain's default executor forwards ``CONTRACT_DEPLOY`` / ``CONTRACT_CALL``
transactions here.  Execution is:

* **deterministic** — contracts are pure Python over ``StateStore`` data;
* **metered** — every storage access and event costs gas; exceeding the
  transaction's gas limit reverts;
* **atomic** — a state snapshot is taken per call and rolled back on any
  contract exception, so failed calls cannot corrupt state.

Contract *classes* are registered by name (the code registry plays the
role of known chaincode in Fabric); a deploy transaction instantiates a
named class at a fresh address with constructor arguments.
"""

from __future__ import annotations

from typing import Any, Mapping, Type

from ..chain.receipts import TransactionReceipt
from ..chain.state import StateStore
from ..chain.transaction import Transaction, TxKind
from ..crypto.hashing import hash_hex
from ..errors import ContractError, ContractNotFound, ContractReverted
from .contract import Contract, ContractStorage, require_entry_point

DEFAULT_GAS_LIMIT = 100_000


def deploy_payload(contract_name: str, gas_limit: int = DEFAULT_GAS_LIMIT,
                   **constructor_args: Any) -> dict:
    """Build the payload for a ``CONTRACT_DEPLOY`` transaction."""
    return {
        "contract": contract_name,
        "args": constructor_args,
        "gas_limit": gas_limit,
    }


def call_payload(address: str, entry: str, gas_limit: int = DEFAULT_GAS_LIMIT,
                 **call_args: Any) -> dict:
    """Build the payload for a ``CONTRACT_CALL`` transaction."""
    return {
        "address": address,
        "entry": entry,
        "args": call_args,
        "gas_limit": gas_limit,
    }


class ContractRuntime:
    """Executes contract transactions for one chain."""

    def __init__(self) -> None:
        self._registry: dict[str, Type[Contract]] = {}
        self._instances: dict[str, Type[Contract]] = {}  # address -> class
        self.calls_executed = 0
        self.total_gas_used = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register(self, contract_cls: Type[Contract]) -> None:
        """Make a contract class deployable by name."""
        if not issubclass(contract_cls, Contract):
            raise ContractError(
                f"{contract_cls.__name__} does not subclass Contract"
            )
        self._registry[contract_cls.__name__] = contract_cls

    def attach(self, chain) -> None:
        """Connect this runtime to ``chain`` (one runtime per chain)."""
        chain.contract_runtime = self

    # ------------------------------------------------------------------
    # Execution (called from the chain executor)
    # ------------------------------------------------------------------
    def execute(self, tx: Transaction, state: StateStore) -> TransactionReceipt:
        if tx.kind == TxKind.CONTRACT_DEPLOY:
            return self._execute_deploy(tx, state)
        if tx.kind == TxKind.CONTRACT_CALL:
            return self._execute_call(tx, state)
        raise ContractError(f"runtime cannot execute tx kind {tx.kind}")

    def _execute_deploy(self, tx: Transaction, state: StateStore) -> TransactionReceipt:
        receipt = TransactionReceipt(tx_id=tx.tx_id, success=True)
        name = str(tx.payload.get("contract", ""))
        contract_cls = self._registry.get(name)
        if contract_cls is None:
            receipt.success = False
            receipt.error = f"unknown contract class {name!r}"
            return receipt
        address = "ct-" + hash_hex({"deploy": tx.tx_id})[:16]
        gas_limit = int(tx.payload.get("gas_limit", DEFAULT_GAS_LIMIT))
        snapshot = state.snapshot()
        instance = contract_cls()
        storage = ContractStorage(state, namespace=f"contract:{address}")
        instance.bind(address, tx.sender, storage, gas_limit)
        try:
            instance.setup(**dict(tx.payload.get("args", {})))
        except ContractReverted as exc:
            state.rollback(snapshot)
            receipt.success = False
            receipt.error = str(exc)
            receipt.gas_used = gas_limit - instance.gas_left
            return receipt
        except BaseException:
            # The executor turns this into a failed receipt; the frame
            # must go first, or it would sit on top of the commit
            # group's snapshot.
            state.rollback(snapshot)
            raise
        state.commit_snapshot(snapshot)
        self._instances[address] = contract_cls
        state.set("contracts", address, contract_cls.__name__)
        receipt.output = address
        receipt.gas_used = gas_limit - instance.gas_left + 10
        receipt.events = instance.drain_events()
        self.calls_executed += 1
        self.total_gas_used += receipt.gas_used
        return receipt

    def _execute_call(self, tx: Transaction, state: StateStore) -> TransactionReceipt:
        receipt = TransactionReceipt(tx_id=tx.tx_id, success=True)
        address = str(tx.payload.get("address", ""))
        entry = str(tx.payload.get("entry", ""))
        try:
            output, gas_used, events = self.call(
                state,
                address=address,
                entry=entry,
                caller=tx.sender,
                args=dict(tx.payload.get("args", {})),
                gas_limit=int(tx.payload.get("gas_limit", DEFAULT_GAS_LIMIT)),
            )
            receipt.output = output
            receipt.gas_used = gas_used
            receipt.events = events
        except (ContractError, ContractReverted) as exc:
            receipt.success = False
            receipt.error = str(exc)
        self.calls_executed += 1
        self.total_gas_used += receipt.gas_used
        return receipt

    # ------------------------------------------------------------------
    # Direct call interface (also used for off-transaction views)
    # ------------------------------------------------------------------
    def call(
        self,
        state: StateStore,
        address: str,
        entry: str,
        caller: str,
        args: Mapping[str, Any] | None = None,
        gas_limit: int = DEFAULT_GAS_LIMIT,
    ) -> tuple[Any, int, list]:
        """Invoke ``entry`` on the contract at ``address``.

        Returns ``(output, gas_used, events)``.  Raises
        :class:`ContractReverted` (after rolling back) on failure.
        """
        contract_cls = self._instances.get(address)
        if contract_cls is None:
            # Instances may have been created on a replayed chain: recover
            # the class from state.
            class_name = state.get("contracts", address)
            contract_cls = self._registry.get(str(class_name)) if class_name else None
            if contract_cls is None:
                raise ContractNotFound(f"no contract at {address}")
            self._instances[address] = contract_cls
        kind = require_entry_point(contract_cls, entry)
        instance = contract_cls()
        storage = ContractStorage(
            state, namespace=f"contract:{address}", readonly=(kind == "view")
        )
        instance.bind(address, caller, storage, gas_limit)
        snapshot = state.snapshot()
        try:
            output = getattr(instance, entry)(**dict(args or {}))
        except ContractReverted:
            state.rollback(snapshot)
            raise
        except (TypeError, KeyError, ValueError) as exc:
            state.rollback(snapshot)
            raise ContractReverted(f"{entry} failed: {exc}") from exc
        except BaseException:
            # Any other contract failure must still unwind this frame:
            # the commit group's snapshot relies on strict nesting, so
            # a leaked frame would poison the group's release or unwind.
            state.rollback(snapshot)
            raise
        state.commit_snapshot(snapshot)
        gas_used = gas_limit - instance.gas_left
        return output, gas_used, instance.drain_events()

    def query(self, chain, address: str, entry: str, caller: str = "viewer",
              **args: Any) -> Any:
        """Convenience read-only query against a chain's current state."""
        output, _, _ = self.call(
            chain.state, address=address, entry=entry, caller=caller, args=args
        )
        return output
