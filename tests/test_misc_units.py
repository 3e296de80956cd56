"""Utility modules: the clock, metrics, plus a stateful property test of
StateStore snapshot semantics and a model test of its image and root."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.analysis.metrics import ThroughputMeter
from repro.chain.state import StateStore
from repro.clock import SimClock


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

_NAMESPACES = st.sampled_from(["a", "b", "balance"])
_KEYS = st.sampled_from(["k1", "k2", "k3"])
_VALUES = st.one_of(st.integers(min_value=-5, max_value=5), st.text(max_size=3))
_ENTRY = st.tuples(_NAMESPACES, _KEYS, _VALUES)
_STATE_OPS = st.lists(st.one_of(
    st.tuples(st.just("set"), _ENTRY),
    st.tuples(st.just("delete"), st.tuples(_NAMESPACES, _KEYS)),
    st.tuples(st.just("delta"), st.lists(
        st.tuples(_NAMESPACES, _KEYS, st.booleans(), _VALUES), max_size=4)),
    st.tuples(st.just("load"), st.lists(_ENTRY, max_size=4)),
    st.tuples(st.just("root"), st.none()),
), max_size=25)


class TestStateStoreImage:
    @settings(max_examples=60, deadline=None)
    @given(_STATE_OPS)
    def test_image_and_root_match_a_dict_rebuilt_from_scratch(self, ops):
        """Whatever mix of writes, deltas and restores (with roots taken
        in between) got it there, the store's image and root are those
        of a fresh store holding the dict model's entries."""
        store, model = StateStore(), {}
        for op, arg in ops:
            if op == "set":
                store.set(*arg)
                model[arg[:2]] = arg[2]
            elif op == "delete":
                store.delete(*arg)
                model.pop(arg, None)
            elif op == "delta":
                store.apply_delta(arg)
                for ns, key, present, value in arg:
                    if present:
                        model[ns, key] = value
                    else:
                        model.pop((ns, key), None)
            elif op == "load":
                store.load_entries(arg)
                model = {(ns, key): value for ns, key, value in arg}
            else:
                store.state_root()
        fresh = StateStore()
        for (ns, key), value in model.items():
            fresh.set(ns, key, value)
        assert store.dump_entries() == sorted(
            (ns, key, value) for (ns, key), value in model.items())
        assert store.state_root() == fresh.state_root()


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
