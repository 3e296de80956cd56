"""Contract base class and method decorators.

A contract is a Python class; its persistent storage is a namespaced slice
of the chain's :class:`~repro.chain.state.StateStore`, accessed through
``self.storage``.  Only methods decorated with :func:`method` (mutating)
or :func:`view` (read-only) are callable from transactions.
"""

from __future__ import annotations

from typing import Any, Callable

from ..chain.receipts import Event
from ..errors import ContractError, ContractReverted


def method(fn: Callable) -> Callable:
    """Mark ``fn`` as a transaction-invokable, state-mutating entry point."""
    fn.__contract_entry__ = "method"
    return fn


def view(fn: Callable) -> Callable:
    """Mark ``fn`` as a read-only entry point (no state writes allowed)."""
    fn.__contract_entry__ = "view"
    return fn


class ContractStorage:
    """A contract's private keyspace inside the chain state."""

    def __init__(self, state, namespace: str, readonly: bool = False) -> None:
        self._state = state
        self._namespace = namespace
        self._readonly = readonly

    def get(self, key: str, default: Any = None) -> Any:
        return self._state.get(self._namespace, key, default)

    def set(self, key: str, value: Any) -> None:
        if self._readonly:
            raise ContractReverted("view methods may not write storage")
        self._state.set(self._namespace, key, value)

    def contains(self, key: str) -> bool:
        return self._state.contains(self._namespace, key)


class Contract:
    """Base class for all contracts.

    Subclasses implement ``setup(**kwargs)`` for constructor logic and any
    number of decorated entry points.  During execution the runtime
    injects:

    * ``self.address`` — this contract's address,
    * ``self.caller`` — the transaction sender,
    * ``self.storage`` — persistent storage,
    * ``self.gas`` — the gas meter (``self.charge(n)`` to spend),
    * ``self.emit(name, **data)`` — append an event to the receipt.
    """

    def __init__(self) -> None:
        self.address: str = ""
        self.caller: str = ""
        self.storage: ContractStorage | None = None
        self._events: list[Event] = []
        self._gas_left = 0

    # ------------------------------------------------------------------
    # Runtime-facing plumbing
    # ------------------------------------------------------------------
    def bind(self, address: str, caller: str, storage: ContractStorage,
             gas: int) -> None:
        self.address = address
        self.caller = caller
        self.storage = storage
        self._events = []
        self._gas_left = gas

    def drain_events(self) -> list[Event]:
        events, self._events = self._events, []
        return events

    @property
    def gas_left(self) -> int:
        return self._gas_left

    # ------------------------------------------------------------------
    # Contract-facing helpers
    # ------------------------------------------------------------------
    def charge(self, amount: int = 1) -> None:
        """Spend gas; reverts the call when the allowance is exhausted."""
        from ..errors import OutOfGas

        self._gas_left -= amount
        if self._gas_left < 0:
            raise OutOfGas(f"{type(self).__name__} ran out of gas")

    def emit(self, name: str, **data: Any) -> None:
        self.charge(1)
        self._events.append(Event(name=name, source=self.address, data=data))

    def require(self, condition: bool, message: str = "requirement failed") -> None:
        """Solidity-style guard: revert unless ``condition`` holds."""
        if not condition:
            raise ContractReverted(message)

    def setup(self, **kwargs: Any) -> None:
        """Constructor hook; default is a no-op."""

    # ------------------------------------------------------------------
    @classmethod
    def entry_points(cls) -> dict[str, str]:
        """Map of callable entry point name -> kind ("method"/"view")."""
        entries: dict[str, str] = {}
        for name in dir(cls):
            if name.startswith("_"):
                continue
            fn = getattr(cls, name)
            kind = getattr(fn, "__contract_entry__", None)
            if kind is not None:
                entries[name] = kind
        return entries


def require_entry_point(contract_cls: type[Contract], name: str) -> str:
    """Return the entry kind for ``name`` or raise :class:`ContractError`."""
    entries = contract_cls.entry_points()
    if name not in entries:
        raise ContractError(
            f"{contract_cls.__name__} has no entry point {name!r}; "
            f"available: {sorted(entries)}"
        )
    return entries[name]
