"""Utility modules: clocks, id factories, event log, metrics, plus a
stateful property test of StateStore snapshot semantics."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.analysis.metrics import ThroughputMeter
from repro.chain import Blockchain, Transaction, TxKind
from repro.chain.state import StateStore
from repro.clock import SimClock, SteppingClock
from repro.contracts import EventLog
from repro.ids import IdFactory


class TestClocks:
    def test_simclock_monotone(self):
        clock = SimClock()
        clock.advance(5)
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_advance_to_never_goes_back(self):
        clock = SimClock(start=10)
        clock.advance_to(5)
        assert clock.now() == 10

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1)

    def test_stepping_clock_auto_advances(self):
        clock = SteppingClock(step=3)
        assert [clock.now() for _ in range(3)] == [0, 3, 6]

    def test_stepping_clock_rejects_zero_step(self):
        with pytest.raises(ValueError):
            SteppingClock(step=0)


class TestIdFactory:
    def test_sequential_per_prefix(self):
        ids = IdFactory()
        assert ids.next("tx") == "tx-000000"
        assert ids.next("tx") == "tx-000001"
        assert ids.next("block") == "block-000000"

    def test_issued_counts(self):
        ids = IdFactory()
        ids.next("a")
        ids.next("a")
        assert ids.issued("a") == 2
        assert ids.issued("never") == 0

    def test_hashed_ids_deterministic_per_seed(self):
        a = IdFactory(seed=5).next("tx", hashed=True)
        b = IdFactory(seed=5).next("tx", hashed=True)
        c = IdFactory(seed=6).next("tx", hashed=True)
        assert a == b
        assert a != c


class TestEventLog:
    def _chain_with_events(self):
        chain = Blockchain()
        log = EventLog(chain)
        chain.state.credit("a", 100)
        for i in range(3):
            tx = Transaction(sender="a", kind=TxKind.TRANSFER,
                             payload={"to": "b", "amount": 10 + i})
            chain.append_block(chain.build_block([tx]))
        return chain, log

    def test_events_collected_from_blocks(self):
        _, log = self._chain_with_events()
        assert len(log.by_name("transfer")) == 3

    def test_filter_since_height(self):
        _, log = self._chain_with_events()
        late = list(log.filter(name="transfer", since_height=3))
        assert len(late) == 1

    def test_filter_with_predicate(self):
        _, log = self._chain_with_events()
        big = list(log.filter(
            name="transfer",
            where=lambda e: e.event.data["amount"] >= 11,
        ))
        assert len(big) == 2

    def test_live_listener(self):
        chain = Blockchain()
        log = EventLog(chain)
        seen = []
        log.on("transfer", lambda entry: seen.append(
            entry.event.data["amount"]))
        chain.state.credit("a", 100)
        tx = Transaction(sender="a", kind=TxKind.TRANSFER,
                         payload={"to": "b", "amount": 42})
        chain.append_block(chain.build_block([tx]))
        assert seen == [42]

    def test_wildcard_listener(self):
        chain = Blockchain()
        log = EventLog(chain)
        seen = []
        log.on(None, lambda entry: seen.append(entry.event.name))
        chain.state.credit("a", 10)
        tx = Transaction(sender="a", kind=TxKind.TRANSFER,
                         payload={"to": "b", "amount": 1})
        chain.append_block(chain.build_block([tx]))
        assert seen == ["transfer"]


class TestThroughputMeter:
    def test_measures_ops_per_second(self):
        meter = ThroughputMeter()
        meter.start()
        for _ in range(1000):
            meter.add_ops()
        meter.stop()
        assert meter.ops == 1000
        assert meter.per_second() > 0

    def test_unstarted_stop_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter().stop()

    def test_no_window_rejected(self):
        with pytest.raises(ValueError):
            ThroughputMeter().per_second()


class StateStoreMachine(RuleBasedStateMachine):
    """Stateful property test: the StateStore under arbitrary interleaved
    writes, snapshots, commits, and rollbacks always matches a model
    implemented with plain dict copies."""

    def __init__(self):
        super().__init__()
        self.store = StateStore()
        self.model: dict = {}
        self.model_stack: list[dict] = []   # snapshots of the model
        self.handles: list[int] = []

    keys = st.sampled_from(["k1", "k2", "k3", "k4"])
    values = st.integers(min_value=0, max_value=999)

    @rule(key=keys, value=values)
    def set_value(self, key, value):
        self.store.set("ns", key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete_value(self, key):
        self.store.delete("ns", key)
        self.model.pop(key, None)

    @rule()
    def snapshot(self):
        self.handles.append(self.store.snapshot())
        self.model_stack.append(dict(self.model))

    @precondition(lambda self: self.handles)
    @rule()
    def rollback(self):
        handle = self.handles.pop()
        self.store.rollback(handle)
        self.model = self.model_stack.pop()

    @precondition(lambda self: self.handles)
    @rule()
    def commit(self):
        handle = self.handles.pop()
        self.store.commit_snapshot(handle)
        # Committed changes survive, but remain revertible by the parent
        # snapshot, whose model copy is untouched.
        self.model_stack.pop()

    @invariant()
    def store_matches_model(self):
        for key in ("k1", "k2", "k3", "k4"):
            assert self.store.get("ns", key) == self.model.get(key)


StateStoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestStateStoreStateful = StateStoreMachine.TestCase


class TestPackageSurface:
    def test_every_public_name_resolves(self):
        import repro

        assert len(set(repro.__all__)) == len(repro.__all__)
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        with pytest.raises(AttributeError):
            repro.no_such_name

    def test_production_path_does_not_import_the_survey(self):
        """The survey re-exports resolve lazily, so importing the
        sharded production stack loads none of those packages."""
        import subprocess
        import sys

        probe = (
            "import sys, repro.sharding, repro.gateway, repro.ingest\n"
            "survey = {'systems', 'domains', 'crosschain', 'consensus',\n"
            "          'privacy', 'access', 'analysis'}\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.')\n"
            "             and m.split('.')[1] in survey))\n"
            "from repro import ProvChain, AtomicSwap, ProofOfWork\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "[]"
